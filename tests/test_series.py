"""Exact series on integer EGF vectors and the series-level identity checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gregtrees.polys import FAMILIES, Poly, X, gen_F, gen_G, gen_H, gen_P, imp_family, shift
from gregtrees import series as series_module
from gregtrees.report import CheckReport
from gregtrees.series import (
    check_basic_identities,
    check_def_identity,
    check_egf_theorem,
    check_gh_functional,
    check_imp_census_series,
    check_reversion_lemma,
    _binomial_square,
    _binomial_sum,
    _display_series,
    _egf_compose,
    _egf_exp,
    _egf_horner,
    _egf_inverse,
    _egf_mul,
    _egf_reversion,
    _egf_text,
    _shifted_tree_egf,
    rhs_series,
    series_T,
    series_W,
)
from gregtrees.trees import imp_polynomial

F = Fraction


# ── a schoolbook oracle: ordinary coefficients as lists of Fraction ──────

def _q(e):
    """The ordinary coefficients e[k]/k! of an EGF vector."""
    return [F(c, math.factorial(k)) for k, c in enumerate(e)]


def _q_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n)]


def _q_exp(a):
    """exp(a) for a[0] = 0, by E' = a'E: k E_k = sum_j j a_j E_{k-j}."""
    e = [F(1)]
    for k in range(1, len(a)):
        e.append(sum((j * a[j] * e[k - j] for j in range(1, k + 1)), F(0)) / k)
    return e


def _q_inverse(a):
    """1/a for a[0] != 0."""
    g = [1 / F(a[0])]
    for k in range(1, len(a)):
        g.append(-sum((a[j] * g[k - j] for j in range(1, k + 1)), F(0)) / a[0])
    return g


def _q_compose(a, b):
    """a(b) for b[0] = 0 by Horner, to the shorter length."""
    n = min(len(a), len(b))
    acc = [F(0)] * n
    for c in reversed(a[:n]):
        if any(acc):   # zero top coefficients cost nothing
            acc = _q_mul(acc, b)
        acc[0] += c
    return acc


def _q_pow(a, k):
    out = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(k):
        out = _q_mul(out, a)
    return out


def _q_derivative(a, n):
    """The n-th derivative: coefficient k is a[k+n] (k+n)!/k!."""
    return [a[k + n] * math.perm(k + n, n) for k in range(len(a) - n)]


# ── the base series and the kernels ──────────────────────────────────────

def test_tree_series_coefficients():
    assert series_T(1, 6) == [0, 1, 2, 9, 64, 625, 7776]
    assert _q(series_T(1, 6)) == [0, 1, 1, F(3, 2), F(8, 3), F(125, 24), F(54, 5)]
    assert series_T(0, 4) == [0, 1, 4, 27, 256]
    assert series_T(2, 4) == [0, 1, 1, 3, 16]
    assert series_W(5) == [0, 1, -2, 9, -64, 625]
    assert _q(series_W(5)) == [0, 1, -1, F(3, 2), -F(8, 3), F(125, 24)]


@pytest.mark.parametrize("alpha", (-1, 3, 4))
def test_tree_series_outside_the_families(alpha):
    """series_T covers the alphas of the three families, 0, 1 and 2; any
    other alpha is an error, whether n^{n-alpha} would stay an integer
    (alpha < 0) or not (alpha >= 3)."""
    with pytest.raises(ValueError, match="alpha must be 0, 1 or 2"):
        series_T(alpha, 6)


def test_arithmetic_truncates_to_min_order():
    a, b = [1, 1, 1, 1], [1, 2]
    assert _egf_mul(a, b) == [1, 3]
    assert _egf_mul(b, a) == [1, 3]
    assert len(_egf_compose(a, [0, 5])) == 2
    assert len(_egf_compose([1, 2], [0, 1, 1, 1])) == 2


def test_egf_coefficient():
    t = series_T(1, 8)
    assert [t[n] for n in range(1, 9)] == [n ** (n - 1) for n in range(1, 9)]


def _z(order):
    return [int(k == 1) for k in range(order + 1)]


def test_compose_exp_reciprocal():
    order = 12
    z = _z(order)
    e = _egf_exp(z)
    assert e == [1] * (order + 1)
    assert _q(e)[5] == F(1, 120)
    assert _egf_inverse([1, -1] + [0] * (order - 1)) == [math.factorial(k) for k in range(order + 1)]
    # exp(z) o (z + z^2) == exp(z + z^2)
    inner = [0, 1, 2] + [0] * (order - 2)
    assert _egf_compose(e, inner) == _egf_exp(inner)
    with pytest.raises(ValueError):
        _egf_compose(e, [1] + inner[1:])   # the inner constant term must vanish


def test_poly_at_series():
    t = series_T(1, 8)
    assert _egf_horner(Poly((2, 0, 3)), t) == [3 * c + 2 * (k == 0) for k, c in enumerate(_egf_mul(t, t))]


def test_reversion_against_known_inverse():
    order = 10
    z = _z(order)
    f = _egf_mul(z, _egf_exp([-c for c in z]))   # z e^{-z}
    g = _egf_reversion(f)
    assert g == series_T(1, order)
    assert _egf_compose(f, g) == z
    assert _egf_compose(g, f) == z


def _newton_reversion(f):
    """Series Newton iteration g <- g - (f(g) - z) / f'(g) over Fractions,
    which doubles the number of correct coefficients each step: an oracle
    for `_egf_reversion` that shares nothing with Lagrange inversion."""
    n = len(f) - 1
    fprime = [k * f[k] for k in range(1, n + 1)] + [F(0)]
    z = _q(_z(n))
    g = z
    for _ in range(max(1, n).bit_length() + 1):
        step = _q_mul([a - b for a, b in zip(_q_compose(f, g), z)], _q_inverse(_q_compose(fprime, g)))
        g = [a - b for a, b in zip(g, step)]
    return g


def _ratio(order):
    """T/(1-T) as an EGF vector."""
    t = series_T(1, order)
    return _egf_mul(t, _egf_inverse([1] + [-c for c in t[1:]]))


def test_display_logs_exponentiate_to_the_reciprocals():
    """The cached display series through orders 0..30: exp of each log is
    the reciprocal it is the log of, and T's displays take T/(1-T)."""
    for order in range(31):
        t, log_t, ratio = _display_series(False, order)
        w, log_w, arg = _display_series(True, order)
        assert list(t) == series_T(1, order) and list(w) == list(arg) == series_W(order)
        assert _egf_exp(log_t) == _egf_inverse([1] + [-c for c in t[1:]]), order
        assert _egf_exp(log_w) == _egf_inverse([1] + list(w[1:])), order
        assert list(ratio) == _ratio(order), order


@pytest.mark.parametrize("make", [
    _ratio,
    lambda order: _egf_mul(_z(order), _egf_exp([-c for c in _z(order)])),
], ids=["T/(1-T)", "z*exp(-z)"])
def test_reversion_matches_newton_iteration(make):
    for order in range(1, 16):
        f = make(order)
        assert _q(_egf_reversion(f)) == _newton_reversion(_q(f)), order


def test_reversion_lagrange_inversion_oracle():
    """Coefficients of the inverse from the Lagrange formula
    [z^n] g = (1/n) [w^{n-1}] (w/f(w))^n, computed over Fractions."""
    order = 9
    f = [0, 1, 6, 6] + [0] * (order - 3)   # z + 3z^2 + z^3
    g = _q(_egf_reversion(f))
    base = _q_inverse(_q(f)[1:])   # w/f(w): divide out one factor of w
    for n in range(1, order + 1):
        assert g[n] == _q_pow(base, n)[n - 1] / n


def test_reversion_rejects_bad_input():
    with pytest.raises(ValueError):
        _egf_reversion([1, 1])   # nonzero constant
    with pytest.raises(ValueError):
        _egf_reversion([0, 0, 2])   # vanishing linear term
    with pytest.raises(ValueError):
        _egf_reversion([0, 2, 0])   # 2z: a non-unit linear term
    with pytest.raises(ValueError):
        _egf_reversion([0, 1, 6, 2])   # z + 3z^2 + z^3/3: w/f(w) has entry 2/3
    assert _egf_reversion([0]) == [0]


def test_basic_identities_and_reversion_checks():
    assert check_basic_identities(25).passed
    assert check_reversion_lemma(25).passed


@pytest.mark.parametrize("check", [check_basic_identities, check_reversion_lemma])
def test_fixed_series_checks_hold_from_order_zero(check):
    """Both identities hold at every truncation, order 0 included; a
    negative order is an error worded as in the other checks."""
    with pytest.raises(ValueError, match="order must be >= 0, got -1"):
        check(-1)
    for order in (0, 1, 2, 3):
        report = check(order)
        assert report.passed, (order, report.witness)
        assert report.params == {"order": order}


def _with_entry_bumped(make, k):
    def bumped(*args):
        e = make(*args)
        e[k] += 1
        return e
    return bumped


@pytest.mark.parametrize("alpha, want", [
    (0, "1/(1-T) != 1 + T_0"),
    (2, "T_2' != T/z; T - T^2/2 != T_2"),
    ("W", "-W(-z) != T"),
    (1, "1/(1-T) != 1 + T_0; T_2' != T/z; T - T^2/2 != T_2; -W(-z) != T"),
])
def test_basic_identities_name_each_broken_identity(monkeypatch, alpha, want):
    """One wrong entry in one base series fails exactly the identities that
    read that series."""
    if alpha == "W":
        monkeypatch.setattr(series_module, "series_W", _with_entry_bumped(series_W, 3))
    else:
        wrong = _with_entry_bumped(series_T, 3)
        monkeypatch.setattr(series_module, "series_T",
                            lambda a, order: (wrong if a == alpha else series_T)(a, order))
    report = check_basic_identities(6)
    assert (report.passed, report.witness) == (False, want)


def test_reversion_lemma_names_each_broken_statement(monkeypatch):
    monkeypatch.setattr(series_module, "series_T", _with_entry_bumped(series_T, 4))
    report = check_reversion_lemma(6)
    assert report.passed is False
    assert report.witness == ("reversion(T/(1-T)) != (z/(1+z))e^{-z/(1+z)}; "
                              "(T/(1-T)) o ((z/(1+z))e^{-z/(1+z)}) != z; reversion(z e^{-z}) != T")


@pytest.mark.parametrize("family", ["F", "G", "H", "P"])
def test_def_identities(family):
    report = check_def_identity(family, 6, 20)
    assert report.passed, report.witness


def test_def_identity_needs_margin():
    with pytest.raises(ValueError):
        check_def_identity("G", 10, 12)


@pytest.mark.parametrize("family", ["X", "Q", "g"])
def test_def_identity_rejects_unknown_family(family):
    with pytest.raises(ValueError, match="unknown family"):
        check_def_identity(family, 3, 10)
    with pytest.raises(ValueError, match="unknown family"):
        rhs_series(family, 3, 10)


def test_rhs_series_first_derivatives():
    order = 10
    # T' equals the G display at n = 1, and W' the P display
    assert series_T(1, order)[1:] == rhs_series("G", 1, order)[:order]
    assert series_W(order)[1:] == rhs_series("P", 1, order)[:order]


def test_egf_theorem_samples():
    report = check_egf_theorem([0, 1, 2, F(1, 2)], 5)
    assert report.passed, report.witness


def test_egf_theorem_rejects_pole():
    with pytest.raises(ValueError):
        check_egf_theorem([0, -1], 3)


def test_egf_census_totals_at_x_one():
    """At x = 1 the rooted census series counts all rooted trees with
    interchangeable extra vertices: 1, 3, 22, 262, 4336."""
    totals = [sum(p.coeffs) for p in gen_G(5)]
    assert totals == [1, 3, 22, 262, 4336]
    assert totals == [sum(p.coeffs) for p in gen_G(5)]
    report = check_egf_theorem([1], 5)
    assert report.passed, report.witness


def test_gh_functional():
    report = check_gh_functional([0, 1, 2, F(-1, 2)], 10)
    assert report.passed, report.witness


def _fraction_gh_functional(x_samples, order, polys=None):
    """The check as Fraction-list products over Q, with no integer scaling:
    an oracle for the integer form of `check_gh_functional`."""
    g_rows = gen_G(order) if polys is None else polys["G"]
    h_rows = gen_H(order) if polys is None else polys["H"]
    xs = [F(x) for x in x_samples]
    for x in xs:
        gt = [F(0)] + [g_rows[n - 1](x) / math.factorial(n) for n in range(1, order + 1)]
        ht = [F(0)] + [h_rows[n - 1](x) / math.factorial(n) for n in range(1, order + 1)]
        want = [a - b * F(1 + x, 2) for a, b in zip(gt, _q_mul(gt, gt))]
        k = next((i for i, (a, b) in enumerate(zip(ht, want)) if a != b), None)
        if k is not None:
            return CheckReport.fail(
                "gh-functional",
                f"x={x}: coefficient of u^{k}: H side {ht[k]}, G side {want[k]}",
                x_samples=xs, order=order,
            )
    return CheckReport.ok("gh-functional", x_samples=xs, order=order)


# the ten x samples of the exact-series bench workload, and the pole of 1/(1+x)
GH_SAMPLES = (0, 1, 2, F(1, 2), F(-1, 2), F(3, 7), F(-2, 3), F(5, 3), F(-7, 5), F(11, 13), -1)
GH_ORDER = 14


def _gh_rows():
    return {"G": gen_G(GH_ORDER), "H": gen_H(GH_ORDER)}


def _assert_same_gh_report(samples, polys):
    got = check_gh_functional(samples, GH_ORDER, polys=polys)
    want = _fraction_gh_functional(samples, GH_ORDER, polys=polys)
    assert (got.passed, got.witness, got.params) == (want.passed, want.witness, want.params)
    assert got.to_json() == want.to_json()
    return got


def test_gh_functional_matches_fraction_oracle_on_clean_rows():
    assert _assert_same_gh_report(GH_SAMPLES, None).passed
    for x in GH_SAMPLES:
        assert _assert_same_gh_report([x], _gh_rows()).passed


@pytest.mark.parametrize("family", ["G", "H"])
@pytest.mark.parametrize("row", range(1, 13))
def test_gh_functional_matches_fraction_oracle_on_bumped_rows(family, row):
    polys = _gh_rows()
    polys[family][row - 1] = polys[family][row - 1] + 1
    assert _assert_same_gh_report(GH_SAMPLES, polys).passed is False
    for x in GH_SAMPLES:
        _assert_same_gh_report([x], polys)


@pytest.mark.parametrize("bump", [
    lambda n, p: p + Poly([0] * n + [1]),          # H_n + x^n: one degree too many
    lambda n, p: p + Poly([0] * (n + 3) + [-2]),   # H_n - 2x^(n+3)
    lambda n, p: p + (Poly([0] * 9 + [5]) if n == 2 else 0),   # one row far above n - 1
], ids=["+x^n", "-2x^(n+3)", "H_2+5x^9"])
def test_gh_functional_matches_fraction_oracle_on_high_degree_rows(bump):
    polys = _gh_rows()
    polys["H"] = [bump(n, p) for n, p in enumerate(polys["H"], start=1)]
    for x in GH_SAMPLES:
        _assert_same_gh_report([x], polys)
    polys["G"][4] = polys["G"][4] + Poly([0] * 8 + [1])   # and a G row of degree 8 at n = 5
    for x in GH_SAMPLES:
        _assert_same_gh_report([x], polys)


def test_gh_functional_passes_rows_of_high_degree_that_satisfy_it():
    """Rows of degree n+1 built to satisfy H_n = G_n - ((1+x)/2) sum C(n,k) G_k G_{n-k}
    pass both forms; the G rows have even coefficients so every H row is integral."""
    g_rows = [2 * Poly(range(1, n + 3)) for n in range(1, GH_ORDER + 1)]
    h_rows = []
    for n in range(1, GH_ORDER + 1):
        conv = sum((math.comb(n, k) * g_rows[k - 1] * g_rows[n - k - 1] for k in range(1, n)), Poly())
        half = Poly((1, 1)) * conv
        assert all(c % 2 == 0 for c in half.coeffs)
        h_rows.append(g_rows[n - 1] - Poly(c // 2 for c in half.coeffs))
    polys = {"G": g_rows, "H": h_rows}
    assert _assert_same_gh_report(GH_SAMPLES, polys).passed
    h_rows[6] = h_rows[6] + Poly((0, 0, 1))
    assert _assert_same_gh_report(GH_SAMPLES, polys).passed is False


@pytest.mark.parametrize("rooted", [False, True])
def test_imp_census_series(rooted):
    censuses = {n: imp_polynomial(n, rooted).coeffs for n in range(1, 5)}
    report = check_imp_census_series(censuses, rooted=rooted, order=10)
    assert report.passed, report.witness


@pytest.mark.parametrize("rooted", [False, True])
def test_imp_census_series_detects_bad_census(rooted):
    censuses = {n: imp_polynomial(n, rooted).coeffs for n in range(1, 4)}
    bad = list(censuses[3])
    bad[0] += 1
    censuses[3] = tuple(bad)
    report = check_imp_census_series(censuses, rooted=rooted, order=10)
    assert report.passed is False
    assert report.witness


def test_series_json_round_trip():
    """The printed coefficients e[k]/k! read back into the EGF vector."""
    assert _egf_text(series_T(1, 6), 3) == "3/2"
    assert _egf_text(series_W(4), 4) == "-8/3"
    for e in (series_T(0, 12), series_T(1, 12), series_T(2, 12), series_W(12)):
        assert [F(_egf_text(e, k)) * math.factorial(k) for k in range(13)] == e


# ── the integer paths against rational-series oracles over Fraction lists ─

GENS = {"F": gen_F, "G": gen_G, "H": gen_H, "P": gen_P}


def _ratseries_rhs(family, n, order, poly=None):
    """The closed form built from Fraction-list products over Q: an oracle
    for the integer EGF display behind `rhs_series`."""
    if poly is None:
        poly = GENS[family](n)[n - 1]
    as_series = [F(c) for c in poly.coeffs] + [F(0)] * (order + 1)
    if family == "P":
        w = _q(series_W(order))
        inv = _q_inverse([F(1)] + w[1:])   # 1/(1+W)
        return _q_mul(_q_mul(_q_exp([-n * c for c in w]), _q_pow(inv, 2 * n - 1)), _q_compose(as_series, w))
    t = _q(series_T(1, order))
    inv = _q_inverse([F(1)] + [-c for c in t[1:]])   # 1/(1-T)
    ratio = _q_mul(t, inv)   # T/(1-T)
    return _q_mul(_q_mul(_q_exp([n * c for c in t]), _q_pow(inv, n + FAMILIES[family].c)),
                  _q_compose(as_series, ratio))


def _ratseries_def_identity(family, n_max, order, polys):
    """`check_def_identity` with both sides as Fraction lists."""
    name = f"def-identity-{family}"
    base = _q(series_W(order) if family == "P" else series_T(FAMILIES[family].alpha, order))
    for n in range(1, n_max + 1):
        lhs = _q_derivative(base, n)
        rhs = _ratseries_rhs(family, n, order, poly=polys[n - 1])
        k = next((i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
        if k is not None:
            return CheckReport.fail(
                name,
                f"n={n}: coefficient of z^{k} differs: derivative {lhs[k]}, closed form {rhs[k]}",
                family=family, n_max=n_max, order=order,
            )
    return CheckReport.ok(name, family=family, n_max=n_max, order=order)


def _ratseries_imp_census_series(censuses, rooted, order):
    """`check_imp_census_series` with both sides as Fraction lists."""
    name = f"imp-census-series-{'rooted' if rooted else 'unrooted'}"
    family = imp_family(rooted)
    base = _q(series_T(family.alpha, order))
    for n in sorted(censuses):
        display = _ratseries_rhs(family.name, n, order, poly=shift(Poly(censuses[n]), 1))
        lhs = _q_derivative(base, n)
        k = next((i for i, (x, y) in enumerate(zip(display, lhs)) if x != y), None)
        if k is not None:
            return CheckReport.fail(
                name, f"n={n}: coefficient of z^{k}: census side {display[k]}, derivative {lhs[k]}",
                n_values=sorted(censuses), order=order, rooted=rooted,
            )
    return CheckReport.ok(name, n_values=sorted(censuses), order=order, rooted=rooted)


def _assert_same_report(got, want):
    assert (got.passed, got.witness, got.params) == (want.passed, want.witness, want.params)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("family", ["F", "G", "H", "P"])
def test_rhs_series_matches_ratseries_oracle(family):
    for n in range(1, 9):
        assert _q(rhs_series(family, n, 25)) == _ratseries_rhs(family, n, 25), n
    for poly in (shift(Poly((3, -1, 2)), 1), shift(Poly((0, 0, 5)), 1), X ** 0, X ** 3, Poly()):
        for n in (1, 2, 5):
            assert _q(rhs_series(family, n, 25, poly=poly)) == _ratseries_rhs(family, n, 25, poly=poly)
    for order in (0, 1, 2):
        assert _q(rhs_series(family, 3, order)) == _ratseries_rhs(family, 3, order)


DEF_N_MAX, DEF_ORDER = 8, 13


@pytest.mark.parametrize("family", ["F", "G", "H", "P"])
def test_def_identity_matches_ratseries_oracle(family):
    rows = GENS[family](DEF_N_MAX)
    for bumped in [None] + list(range(1, DEF_N_MAX + 1)):
        polys = list(rows)
        if bumped is not None:
            polys[bumped - 1] = polys[bumped - 1] + 1
        got = check_def_identity(family, DEF_N_MAX, DEF_ORDER, polys=polys)
        _assert_same_report(got, _ratseries_def_identity(family, DEF_N_MAX, DEF_ORDER, polys))
        assert got.passed is (bumped is None)


@pytest.mark.parametrize("rooted", [False, True])
def test_imp_census_series_matches_ratseries_oracle(rooted):
    # the improper-edge census of size n is X_n(x-1)
    rows = GENS[imp_family(rooted).name](DEF_N_MAX)
    clean = {n: shift(rows[n - 1], -1).coeffs for n in range(1, DEF_N_MAX + 1)}
    for bumped in [None] + list(range(1, DEF_N_MAX + 1)):
        censuses = dict(clean)
        if bumped is not None:
            censuses[bumped] = (censuses[bumped][0] + 1,) + censuses[bumped][1:]
        got = check_imp_census_series(censuses, rooted, DEF_ORDER)
        _assert_same_report(got, _ratseries_imp_census_series(censuses, rooted, DEF_ORDER))
        assert got.passed is (bumped is None)


integers = st.one_of(st.just(0), st.integers(-3, 3), st.integers(min_value=-10 ** 6, max_value=10 ** 6))
vectors = st.lists(integers, min_size=1, max_size=14)
tails = st.lists(integers, min_size=0, max_size=15)   # orders 0..15


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_mul_matches_schoolbook_product(a, b):
    got = _egf_mul(a, b)
    assert _q(got) == _q_mul(_q(a), _q(b))
    assert len(got) == min(len(a), len(b))
    assert _egf_mul(b, a) == got


@settings(max_examples=50, deadline=None)
@given(vectors, st.integers(-50, 50))
def test_mul_by_scalar_matches_schoolbook_product(a, c):
    constant = [c] + [0] * (len(a) - 1)
    assert _egf_mul(a, constant) == [c * x for x in a]
    assert _q(_egf_mul(constant, a)) == _q_mul(_q(constant), _q(a))


@settings(max_examples=100, deadline=None)
@given(tails)
def test_exp_matches_fraction_oracle(tail):
    f = [0] + tail
    got = _egf_exp(f)
    assert _q(got) == _q_exp(_q(f))
    assert len(got) == len(f)


@settings(max_examples=100, deadline=None)
@given(tails)
def test_reciprocal_matches_fraction_oracle(tail):
    f = [1] + tail
    got = _egf_inverse(f)
    assert _q(got) == _q_inverse(_q(f))
    assert _egf_mul(f, got) == [1] + [0] * len(tail)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=15))
def test_egf_inverse_inverts(tail):
    f = [1] + tail
    g = _egf_inverse(f)
    assert _egf_mul(f, g) == [1] + [0] * len(tail)
    assert _egf_inverse(g) == f


@pytest.mark.parametrize("seed", range(3))
def test_binomial_square_is_the_self_convolution(seed):
    rng = random.Random(seed)
    a = [rng.choice([0, 0, 1, -1, rng.randint(-10 ** 30, 10 ** 30)]) for _ in range(61)]
    a[seed] = 0
    for m in range(61):
        assert _binomial_square(a, m) == _binomial_sum(a, a, m), m
    zeros = [0] * 61
    assert all(_binomial_square(zeros, m) == 0 for m in range(61))


@settings(max_examples=50, deadline=None)
@given(vectors, tails)
def test_compose_matches_horner_oracle(outer, tail):
    inner = [0] + tail
    got = _egf_compose(outer, inner)
    assert _q(got) == _q_compose(_q(outer), _q(inner))
    assert len(got) == min(len(outer), len(inner))


def test_compose_matches_horner_oracle_on_the_reversion_lemma_series():
    """The four pairs of the reversion lemma, both ways round."""
    order = 30
    t, z = series_T(1, order), _z(order)
    ratio = _ratio(order)
    frac = _egf_mul(z, _egf_inverse([1] + z[1:]))   # z/(1+z)
    target = _egf_mul(frac, _egf_exp([-c for c in frac]))
    z_exp = _egf_mul(z, _egf_exp([-c for c in z]))   # z e^{-z}
    for outer, inner in ((ratio, target), (z_exp, t), (target, ratio), (t, z_exp)):
        got = _egf_compose(outer, inner)
        assert _q(got) == _q_compose(_q(outer), _q(inner))
        assert got == z
    assert _egf_reversion(ratio) == target
    assert _egf_reversion(z_exp) == t


def test_compose_at_differing_orders():
    outer = [1, 2, 2, -24, 120]   # 1 + 2z + z^2 - 4z^3 + 5z^4
    inner = [0, 1, -1]            # z - z^2/2
    want = [int(k == 0) + 2 * a + b for k, (a, b) in enumerate(zip(inner, _egf_mul(inner, inner)))]
    assert _egf_compose(outer, inner) == want
    wide = [0, 1, -1, 42, 192, 1080]
    assert _egf_compose(outer[:3], wide) == want
    assert len(_egf_compose(outer, wide)) == 5
    assert _q(_egf_compose(outer, wide)) == _q_compose(_q(outer), _q(wide))


def _full_order_newton(s0, order):
    """sigma from s0 + sigma = (s0 + (1-s0) u) e^sigma by series Newton over
    Fractions, run for bit_length(order) + 1 steps at full order: an oracle
    for the integer recursion of `_shifted_tree_egf`."""
    a = [s0, 1 - s0] + [F(0)] * (order - 1)
    sigma = [F(0)] * (order + 1)
    for _ in range(max(1, order).bit_length() + 1):
        ae = _q_mul(a, _q_exp(sigma))
        residual = [c + d - e for c, d, e in zip(sigma, [s0] + [0] * order, ae)]
        step = _q_mul(residual, _q_inverse([int(k == 0) - c for k, c in enumerate(ae)]))
        sigma = [c - d for c, d in zip(sigma, step)]
    return sigma[: order + 1]


@pytest.mark.parametrize("x", GH_SAMPLES[:-1], ids=str)
def test_shifted_tree_series_matches_full_order_newton(x):
    """Sigma_n = q^n n! [u^n] sigma at x = p/q, through n = 40, and each
    shorter run is a prefix of the longest."""
    x = F(x)
    p, q = x.numerator, x.denominator
    want = _full_order_newton(x / (1 + x), 40)
    got = _shifted_tree_egf(p, q, 40)
    assert got == [q ** n * math.factorial(n) * c for n, c in enumerate(want)]
    for n_max in (0, 1, 2, 3, 7, 8, 15, 16):
        assert _shifted_tree_egf(p, q, n_max) == got[: n_max + 1], n_max


def _fraction_egf_theorem(x_samples, n_max, order, polys):
    """`check_egf_theorem` over Fraction lists, with every row evaluated by
    Poly Horner: an oracle for its integer sides and its witness text.
    sigma comes from n_max + 1 fixed-point passes of
    sigma <- sigma - ((s0 + sigma) e^{-sigma} - s0 - (1-s0) u) / (1-s0),
    whose linear part vanishes at u = 0, so each pass fixes one more
    coefficient; nothing is shared with the integer recursion."""
    name = "egf-theorem"
    xs = [F(x) for x in x_samples]
    for x in xs:
        s0 = x / (1 + x)
        a = [s0, 1 - s0] + [F(0)] * n_max
        sigma = [F(0)] * (n_max + 1)
        for _ in range(n_max + 1):
            lhs = _q_mul([s0 + sigma[0]] + sigma[1:], _q_exp([-c for c in sigma]))
            sigma = [c - (d - e) / (1 - s0) for c, d, e in zip(sigma, lhs, a)]
        s = [s0 + sigma[0]] + sigma[1:]
        series = {
            "G": s,
            "F": [(1 - s0) ** 2 * c for c in _q_inverse([1 - c for c in s[:1]] + [-c for c in s[1:]])],
            "H": [(1 + x) * (c - d / 2) for c, d in zip(s, _q_mul(s, s))],
        }
        for fam in ("F", "G", "H"):
            for n in range(1, n_max + 1):
                got = series[fam][n] * math.factorial(n)
                want = polys[fam][n - 1](x)
                if got != want:
                    return CheckReport.fail(
                        name, f"family {fam}, x={x}, n={n}: series gives {got}, polynomial gives {want}",
                        x_samples=xs, n_max=n_max, order=order,
                    )
    return CheckReport.ok(name, x_samples=xs, n_max=n_max, order=order)


EGF_N_MAX, EGF_ORDER = 6, 8


@pytest.mark.parametrize("family", ["F", "G", "H"])
@pytest.mark.parametrize("bump", [
    lambda n, p: p + 1,
    lambda n, p: p + Poly([0] * (n + 2) + [1]),   # two degrees above the row
    lambda n, p: Poly(),                          # the zero row
], ids=["+1", "+x^(n+2)", "zero"])
def test_egf_theorem_witness_matches_fraction_oracle(family, bump):
    clean = {fam: GENS[fam](EGF_N_MAX) for fam in ("F", "G", "H")}
    want = _fraction_egf_theorem(GH_SAMPLES[:-1], EGF_N_MAX, EGF_ORDER, clean)
    _assert_same_report(check_egf_theorem(GH_SAMPLES[:-1], EGF_N_MAX, polys=clean), want)
    assert want.passed
    for row in range(1, EGF_N_MAX + 1):
        polys = {fam: list(rows) for fam, rows in clean.items()}
        polys[family][row - 1] = bump(row, polys[family][row - 1])
        for samples in (GH_SAMPLES[:-1], [GH_SAMPLES[row]]):
            got = check_egf_theorem(samples, EGF_N_MAX, polys=polys)
            _assert_same_report(got, _fraction_egf_theorem(samples, EGF_N_MAX, EGF_ORDER, polys))
            assert got.passed is False


# ── inputs outside the domain ─────────────────────────────────────────────

def test_egf_theorem_order_is_n_max_plus_two():
    for n in range(7):
        assert check_egf_theorem([1], n).params["order"] == n + 2
    with pytest.raises(TypeError):
        check_egf_theorem([1], 5, {fam: GENS[fam](5) for fam in ("F", "G", "H")})


def test_egf_theorem_rejects_short_rows():
    polys = {"F": gen_F(5), "G": gen_G(4), "H": gen_H(5)}
    with pytest.raises(ValueError, match="rows"):
        check_egf_theorem([1], 5, polys=polys)


def test_rhs_series_rejects_negative_order():
    with pytest.raises(ValueError, match="negative"):
        rhs_series("G", 1, -1)
    assert rhs_series("G", 1, 0) == [1]


@pytest.mark.parametrize("make", [lambda order: series_T(0, order), lambda order: series_T(2, order),
                                  series_W])
def test_base_series_reject_negative_order(make):
    for order in (-1, -2):
        with pytest.raises(ValueError, match="negative truncation order"):
            make(order)
    assert make(0) == [0]


def test_def_identity_rejects_short_rows():
    with pytest.raises(ValueError, match="rows"):
        check_def_identity("G", 6, 20, polys=gen_G(5))
    assert check_def_identity("G", 5, 20, polys=gen_G(5)).passed


def test_gh_functional_rejects_short_rows():
    with pytest.raises(ValueError, match="rows"):
        check_gh_functional([1], 10, polys={"G": gen_G(10), "H": gen_H(9)})
    with pytest.raises(ValueError, match="rows"):
        check_gh_functional([1], 10, polys={"G": gen_G(9), "H": gen_H(10)})


def test_rhs_series_rejects_a_derivative_index_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="derivative index must be >= 1"):
            rhs_series("G", n, 5)


def test_imp_census_series_rejects_a_derivative_index_below_one():
    with pytest.raises(ValueError, match="derivative index must be >= 1"):
        check_imp_census_series({0: [1], 1: [1]}, rooted=True, order=5)
