"""Exact power-series arithmetic and the series-level identity checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gregtrees.polys import FAMILIES, Poly, X, gen_F, gen_G, gen_H, gen_P, imp_family, shift
from gregtrees.report import CheckReport
from gregtrees.series import (
    RatSeries,
    check_basic_identities,
    check_def_identity,
    check_egf_theorem,
    check_gh_functional,
    check_imp_census_series,
    check_reversion_lemma,
    _egf_inverse,
    _egf_mul,
    _egf_pow,
    _shifted_tree_series,
    reversion,
    rhs_series,
    series_T,
    series_W,
)
from gregtrees.trees import imp_census

F = Fraction


def test_tree_series_coefficients():
    t = series_T(1, 6)
    assert t.coeffs == (0, 1, 1, F(3, 2), F(8, 3), F(125, 24), F(54, 5))
    t0 = series_T(0, 4)
    assert t0.coeffs == (0, 1, 2, F(9, 2), F(32, 3))
    t2 = series_T(2, 4)
    assert t2.coeffs == (0, 1, F(1, 2), F(1, 2), F(2, 3))
    assert series_T(3, 4).coeffs == (0, 1, F(1, 4), F(1, 6), F(1, 6))
    assert series_T(-1, 3).coeffs == (0, 1, 4, F(27, 2))
    w = series_W(5)
    assert w.coeffs == (0, 1, -1, F(3, 2), -F(8, 3), F(125, 24))


@pytest.mark.parametrize("alpha", (-1, 3, 4))
def test_tree_series_outside_the_families(alpha):
    """series_T sums n^{n-alpha} z^n/n! for every integer alpha, where the
    exponent goes negative (alpha >= 3) or exceeds n (alpha < 0)."""
    want = (0,) + tuple(F(n) ** (n - alpha) / math.factorial(n) for n in range(1, 7))
    assert series_T(alpha, 6).coeffs == want


def test_series_equality_and_construction():
    s = RatSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeff(1) == 2
    assert RatSeries([1, 2, 3], order=4).coeffs == (1, 2, 3, 0, 0)
    assert RatSeries([1, 2, 3], order=1).coeffs == (1, 2)
    assert RatSeries.const(5, 3).coeffs == (5, 0, 0, 0)
    assert RatSeries.var(2).coeffs == (0, 1, 0)
    assert RatSeries.zero(0).coeffs == (0,)


def test_arithmetic_truncates_to_min_order():
    a = RatSeries([1, 1, 1, 1])
    b = RatSeries([1, 2])
    assert (a + b).order == 1
    assert (a * b).coeffs == (1, 3)
    assert (a - b).coeffs == (0, -1)
    assert (2 * a).coeffs == (2, 2, 2, 2)
    assert (a * F(1, 2)).coeff(0) == F(1, 2)


def _nth_derivative(s: RatSeries, n: int) -> RatSeries:
    """The n-th derivative of a truncated series: the derivative side of the
    closed-form oracles below."""
    if n < 0:
        raise ValueError("negative derivative order")
    if n > s.order:
        raise ValueError(f"derivative order {n} exceeds truncation order {s.order}")
    if n == 0:
        return s
    out = [
        s.coeffs[k + n] * Fraction(math.factorial(k + n), math.factorial(k))
        for k in range(s.order - n + 1)
    ]
    return RatSeries(out)


def test_derive_integrate_nth():
    s = RatSeries([5, 1, 3, 7])
    assert s.derive().coeffs == (1, 6, 21)
    # the antiderivative with constant 0 gives back s less its constant term
    antiderivative = RatSeries([0] + [c / (k + 1) for k, c in enumerate(s.derive().coeffs)])
    assert antiderivative.coeffs == (0, 1, 3, 7)
    assert _nth_derivative(s, 2).coeffs == (6, 42)
    with pytest.raises(ValueError):
        RatSeries([1]).derive().derive()
    with pytest.raises(ValueError):
        _nth_derivative(s, 4)
    assert _nth_derivative(s, 3) == s.derive().derive().derive()


def test_egf_coefficient():
    t = series_T(1, 8)
    assert [t.egf_coefficient(n) for n in range(1, 9)] == [n ** (n - 1) for n in range(1, 9)]


def test_compose_exp_reciprocal():
    order = 12
    z = RatSeries.var(order)
    e = z.exp()
    assert e.coeff(0) == 1
    assert e.coeff(5) == F(1, 120)
    geom = (1 - z).reciprocal()
    assert geom.coeffs == tuple([1] * (order + 1))
    assert z.geom_inverse() == geom
    # exp(z) o (z + z^2) == exp(z + z^2)
    inner = z + z * z
    assert e.compose(inner) == inner.exp()
    with pytest.raises(ValueError):
        e.compose(RatSeries.const(1, order))  # inner constant term must vanish
    with pytest.raises(ValueError):
        (z + 0).reciprocal()  # constant term must be a unit
    with pytest.raises(ValueError):
        (1 + z).geom_inverse()  # geometric form needs constant 0


def test_poly_at_series():
    order = 8
    t = series_T(1, order)
    p = Poly((2, 0, 3))  # 3x^2 + 2
    assert p(t) == 3 * t * t + RatSeries.const(2, order)


def test_reversion_against_known_inverse():
    order = 10
    z = RatSeries.var(order)
    f = z * (-z).exp()  # z e^{-z}
    g = reversion(f)
    assert g == series_T(1, order)
    assert f.compose(g) == z
    assert g.compose(f) == z


def _newton_reversion(f: RatSeries) -> RatSeries:
    """Series Newton iteration g <- g - (f(g) - z) / f'(g), which doubles
    the number of correct coefficients each step: an oracle for `reversion`
    that shares nothing with Lagrange inversion."""
    n = f.order
    fprime = RatSeries([k * f.coeffs[k] for k in range(1, n + 1)] + [0])
    z = RatSeries.var(n)
    g = RatSeries([0, 1 / f.coeffs[1]], n)
    for _ in range(max(1, n).bit_length() + 1):
        g = g - (f.compose(g) - z) * fprime.compose(g).reciprocal()
    return g


@pytest.mark.parametrize("make", [
    lambda z: series_T(1, z.order) * series_T(1, z.order).geom_inverse(),  # T/(1-T)
    lambda z: z * (-z).exp(),
    lambda z: z + 3 * z * z + RatSeries([0, 0, 0, F(1, 3)], z.order),
    lambda z: 2 * z - z * z * F(1, 5),                                     # non-unit linear term
], ids=["T/(1-T)", "z*exp(-z)", "z+3z^2+z^3/3", "2z-z^2/5"])
def test_reversion_matches_newton_iteration(make):
    for order in range(1, 16):
        f = make(RatSeries.var(order))
        assert reversion(f) == _newton_reversion(f), order


def test_reversion_lagrange_inversion_oracle():
    """Coefficients of the inverse from the Lagrange formula
    [z^n] g = (1/n) [w^{n-1}] (w/f(w))^n, computed independently."""
    order = 9
    z = RatSeries.var(order)
    f = z + 3 * z * z + RatSeries([0, 0, 0, F(1, 3)], order)
    g = reversion(f)
    # w/f(w) as a series: divide out one factor of w
    base = RatSeries(f.coeffs[1:]).reciprocal()
    for n in range(1, order + 1):
        power = base
        for _ in range(n - 1):
            power = power * base
        assert g.coeff(n) == power.coeff(n - 1) / n


def test_reversion_rejects_bad_input():
    with pytest.raises(ValueError):
        reversion(RatSeries([1, 1]))  # nonzero constant
    with pytest.raises(ValueError):
        reversion(RatSeries([0, 0, 1]))  # vanishing linear term


def test_basic_identities_and_reversion_checks():
    assert check_basic_identities(25).passed
    assert check_reversion_lemma(25).passed


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
    # T' equals the G display at n = 1
    assert _nth_derivative(series_T(1, order), 1) == rhs_series("G", 1, order).truncate(order - 1)
    # W' equals the P display at n = 1
    assert _nth_derivative(series_W(order), 1) == rhs_series("P", 1, order).truncate(order - 1)


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
    """The check as RatSeries products over Q, with no integer scaling: an
    oracle for the integer form of `check_gh_functional`."""
    g_rows = gen_G(order) if polys is None else polys["G"]
    h_rows = gen_H(order) if polys is None else polys["H"]
    xs = [F(x) for x in x_samples]
    for x in xs:
        gt = RatSeries([0] + [g_rows[n - 1](x) / math.factorial(n) for n in range(1, order + 1)])
        ht = RatSeries([0] + [h_rows[n - 1](x) / math.factorial(n) for n in range(1, order + 1)])
        want = gt - gt * gt * F(1 + x, 2)
        k = next((i for i, (a, b) in enumerate(zip(ht.coeffs, want.coeffs)) if a != b), None)
        if k is not None:
            return CheckReport.fail(
                "gh-functional",
                f"x={x}: coefficient of u^{k}: H side {ht.coeffs[k]}, G side {want.coeffs[k]}",
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
    censuses = {n: imp_census(n, rooted) for n in range(1, 5)}
    report = check_imp_census_series(censuses, rooted=rooted, order=10)
    assert report.passed, report.witness


@pytest.mark.parametrize("rooted", [False, True])
def test_imp_census_series_detects_bad_census(rooted):
    censuses = {n: imp_census(n, rooted) for n in range(1, 4)}
    bad = list(censuses[3])
    bad[0] += 1
    censuses[3] = tuple(bad)
    report = check_imp_census_series(censuses, rooted=rooted, order=10)
    assert report.passed is False
    assert report.witness


def test_series_json_round_trip():
    t = series_T(1, 6)
    data = t.to_json()
    assert data[3] == "3/2"
    assert RatSeries([F(c) for c in data]) == t
    assert F(RatSeries([1, F(-2, 7)]).to_json()[1]) == F(-2, 7)


# ── the integer paths against the RatSeries bodies they replaced ─────────

GENS = {"F": gen_F, "G": gen_G, "H": gen_H, "P": gen_P}


def _ratseries_rhs(family, n, order, poly=None):
    """The closed form built from RatSeries products over Q: an oracle for
    the integer EGF display behind `rhs_series`."""
    if poly is None:
        poly = GENS[family](n)[n - 1]
    if family == "P":
        w = series_W(order)
        inv = (-w).geom_inverse()  # 1/(1+W)
        return (-n * w).exp() * inv ** (2 * n - 1) * poly(w)
    t = series_T(1, order)
    inv = t.geom_inverse()  # 1/(1-T)
    ratio = t * inv  # T/(1-T)
    return (n * t).exp() * inv ** (n + FAMILIES[family].c) * poly(ratio)


def _ratseries_def_identity(family, n_max, order, polys):
    """`check_def_identity` with both sides as RatSeries."""
    name = f"def-identity-{family}"
    base = series_W(order) if family == "P" else series_T(FAMILIES[family].alpha, order)
    for n in range(1, n_max + 1):
        lhs = _nth_derivative(base, n)
        rhs = _ratseries_rhs(family, n, order, poly=polys[n - 1])
        k = next((i for i, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if x != y), None)
        if k is not None:
            return CheckReport.fail(
                name,
                f"n={n}: coefficient of z^{k} differs: derivative {lhs.coeffs[k]}, closed form {rhs.coeffs[k]}",
                family=family, n_max=n_max, order=order,
            )
    return CheckReport.ok(name, family=family, n_max=n_max, order=order)


def _ratseries_imp_census_series(censuses, rooted, order):
    """`check_imp_census_series` with both sides as RatSeries."""
    name = f"imp-census-series-{'rooted' if rooted else 'unrooted'}"
    family = imp_family(rooted)
    base = series_T(family.alpha, order)
    for n in sorted(censuses):
        display = _ratseries_rhs(family.name, n, order, poly=shift(Poly(censuses[n]), 1))
        lhs = _nth_derivative(base, n)
        k = next((i for i, (x, y) in enumerate(zip(display.coeffs, lhs.coeffs)) if x != y), None)
        if k is not None:
            return CheckReport.fail(
                name, f"n={n}: coefficient of z^{k}: census side {display.coeffs[k]}, derivative {lhs.coeffs[k]}",
                n_values=sorted(censuses), order=order, rooted=rooted,
            )
    return CheckReport.ok(name, n_values=sorted(censuses), order=order, rooted=rooted)


def _assert_same_report(got, want):
    assert (got.passed, got.witness, got.params) == (want.passed, want.witness, want.params)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("family", ["F", "G", "H", "P"])
def test_rhs_series_matches_ratseries_oracle(family):
    for n in range(1, 9):
        assert rhs_series(family, n, 25) == _ratseries_rhs(family, n, 25), n
    for poly in (shift(Poly((3, -1, 2)), 1), shift(Poly((0, 0, 5)), 1), X ** 0, X ** 3, Poly()):
        for n in (1, 2, 5):
            assert rhs_series(family, n, 25, poly=poly) == _ratseries_rhs(family, n, 25, poly=poly)
    for order in (0, 1, 2):
        assert rhs_series(family, 3, order) == _ratseries_rhs(family, 3, order)


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


def _schoolbook_mul(a, b):
    """The product as one Fraction product per pair of coefficients."""
    n = min(a.order, b.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return RatSeries(out)


coefficients = st.one_of(
    st.just(0),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.fractions(max_denominator=10 ** 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
)
series_values = st.lists(coefficients, min_size=1, max_size=14).map(RatSeries)


@settings(max_examples=100, deadline=None)
@given(series_values, series_values)
def test_mul_matches_schoolbook_product(a, b):
    got = a * b
    assert got == _schoolbook_mul(a, b)
    assert got.order == min(a.order, b.order)
    assert all(type(c) is F for c in got.coeffs)
    assert b * a == got


@settings(max_examples=50, deadline=None)
@given(series_values, st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50)))
def test_mul_by_scalar_matches_schoolbook_product(a, c):
    want = _schoolbook_mul(a, RatSeries([c], a.order))
    assert a * c == want
    assert c * a == want


def _fraction_exp(s):
    """exp by one Fraction operation per term: an oracle for
    `RatSeries.exp`."""
    n = s.order
    out = [F(0)] * (n + 1)
    out[0] = F(1)
    for m in range(1, n + 1):
        acc = F(0)
        for j in range(1, m + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * out[m - j]
        out[m] = acc / m
    return RatSeries(out)


def _fraction_reciprocal(s):
    """1/s by one Fraction operation per term: an oracle for
    `RatSeries.reciprocal`."""
    n = s.order
    out = [F(0)] * (n + 1)
    out[0] = 1 / s.coeffs[0]
    for m in range(1, n + 1):
        acc = F(0)
        for j in range(1, m + 1):
            if s.coeffs[j]:
                acc += s.coeffs[j] * out[m - j]
        out[m] = -acc / s.coeffs[0]
    return RatSeries(out)


# orders 0..15, with zero terms; constant terms negative, non-unit or fractional
series_tails = st.lists(coefficients, min_size=0, max_size=15)
constant_terms = st.one_of(
    st.sampled_from([1, -1, 2, -3, F(1, 2), F(-5, 7)]),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool),
    st.fractions(max_denominator=10 ** 4).filter(bool),
)


@settings(max_examples=100, deadline=None)
@given(series_tails)
def test_exp_matches_fraction_oracle(tail):
    s = RatSeries([0] + tail)
    got = s.exp()
    assert got == _fraction_exp(s)
    assert got.order == s.order
    assert all(type(c) is F for c in got.coeffs)


@settings(max_examples=100, deadline=None)
@given(constant_terms, series_tails)
def test_reciprocal_matches_fraction_oracle(c0, tail):
    s = RatSeries([c0] + tail)
    got = s.reciprocal()
    assert got == _fraction_reciprocal(s)
    assert got.order == s.order
    assert all(type(c) is F for c in got.coeffs)
    assert (s * got) == RatSeries.const(1, s.order)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=15))
def test_egf_inverse_inverts(tail):
    f = [1] + tail
    g = _egf_inverse(f)
    assert _egf_mul(f, g) == [1] + [0] * len(tail)
    assert g == _egf_pow(f, -1)


@settings(max_examples=30, deadline=None)
@given(constant_terms, series_tails)
def test_exp_and_reciprocal_reject_their_bad_constants(c0, tail):
    with pytest.raises(ValueError):
        RatSeries([c0] + tail).exp()
    with pytest.raises(ValueError):
        RatSeries([0] + tail).reciprocal()


def _horner_compose(outer, inner):
    """The Horner loop over `RatSeries` products and padded constant
    series: an oracle for the integer Horner of `RatSeries.compose`."""
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = RatSeries.const(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + outer.coeffs[k]
    return acc


@settings(max_examples=50, deadline=None)
@given(series_values, series_tails)
def test_compose_matches_horner_oracle(outer, tail):
    inner = RatSeries([0] + tail)
    got = outer.compose(inner)
    assert got == _horner_compose(outer, inner)
    assert got.order == min(outer.order, inner.order)
    assert all(type(c) is F for c in got.coeffs)


def test_compose_matches_horner_oracle_on_the_reversion_lemma_series():
    order = 30
    t, z = series_T(1, order), RatSeries.var(order)
    ratio = t * t.geom_inverse()
    frac = z * (1 + z).reciprocal()
    target = frac * (-frac).exp()
    for outer, inner in ((ratio, target), (z * (-z).exp(), t), (target, ratio), (t, target)):
        assert outer.compose(inner) == _horner_compose(outer, inner)


def test_compose_at_differing_orders():
    outer = RatSeries([1, 2, F(1, 3), -4, 5])
    inner = RatSeries([0, 1, F(-1, 2)])
    assert outer.compose(inner) == 1 + 2 * inner + F(1, 3) * inner * inner
    wide = RatSeries([0, 1, F(-1, 2), 7, 8, 9])
    assert RatSeries([1, 2, F(1, 3)]).compose(wide) == 1 + 2 * inner + F(1, 3) * inner * inner
    assert outer.compose(wide).order == 4


def _full_order_shifted_tree_series(s0, order):
    """Series Newton run for bit_length(order) + 1 steps, every one at full
    order: an oracle for the precision-doubling schedule."""
    a = RatSeries([s0, 1 - s0], order)
    sigma = RatSeries.zero(order)
    for _ in range(max(1, order).bit_length() + 1):
        e = sigma.exp()
        sigma = sigma - (sigma + s0 - a * e) * (1 - a * e).reciprocal()
    return sigma


@pytest.mark.parametrize("x", GH_SAMPLES[:-1], ids=str)
def test_shifted_tree_series_matches_full_order_newton(x):
    """Every order 0..40 against the oracle at order 40, whose solution is
    unique and so truncates to the oracle at each lower order; that is
    checked directly where the doubling schedule changes length."""
    s0 = F(x) / (1 + x)
    want = _full_order_shifted_tree_series(s0, 40)
    for order in range(41):
        assert _shifted_tree_series(s0, order) == want.truncate(order), order
    for order in (0, 1, 2, 3, 4, 7, 8, 15, 16):
        assert _full_order_shifted_tree_series(s0, order) == want.truncate(order), order


def _fraction_egf_theorem(x_samples, n_max, order, polys):
    """`check_egf_theorem` with every row evaluated by Poly Horner over
    Fractions: an oracle for its integer row side and its witness text."""
    name = "egf-theorem"
    xs = [F(x) for x in x_samples]
    for x in xs:
        s0 = x / (1 + x)
        s = _shifted_tree_series(s0, order) + s0
        series = {
            "G": s,
            "F": ((1 - s0) ** 2) * (1 - s).reciprocal(),
            "H": (1 + x) * (s - s * s * F(1, 2)),
        }
        for fam in ("F", "G", "H"):
            for n in range(1, n_max + 1):
                got = series[fam].egf_coefficient(n)
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
    _assert_same_report(check_egf_theorem(GH_SAMPLES[:-1], EGF_N_MAX, EGF_ORDER, polys=clean), want)
    assert want.passed
    for row in range(1, EGF_N_MAX + 1):
        polys = {fam: list(rows) for fam, rows in clean.items()}
        polys[family][row - 1] = bump(row, polys[family][row - 1])
        for samples in (GH_SAMPLES[:-1], [GH_SAMPLES[row]]):
            got = check_egf_theorem(samples, EGF_N_MAX, EGF_ORDER, polys=polys)
            _assert_same_report(got, _fraction_egf_theorem(samples, EGF_N_MAX, EGF_ORDER, polys))
            assert got.passed is False


# ── inputs outside the domain ─────────────────────────────────────────────

def test_egf_theorem_needs_order_at_least_n_max():
    with pytest.raises(ValueError, match="order"):
        check_egf_theorem([1], 5, order=4)
    assert check_egf_theorem([1], 5, order=5).passed


def test_egf_theorem_rejects_short_rows():
    polys = {"F": gen_F(5), "G": gen_G(4), "H": gen_H(5)}
    with pytest.raises(ValueError, match="rows"):
        check_egf_theorem([1], 5, polys=polys)


def test_rhs_series_rejects_negative_order():
    with pytest.raises(ValueError, match="negative"):
        rhs_series("G", 1, -1)
    assert rhs_series("G", 1, 0) == RatSeries([1])


def test_def_identity_rejects_short_rows():
    with pytest.raises(ValueError, match="rows"):
        check_def_identity("G", 6, 20, polys=gen_G(5))
    assert check_def_identity("G", 5, 20, polys=gen_G(5)).passed


def test_gh_functional_rejects_short_rows():
    with pytest.raises(ValueError, match="rows"):
        check_gh_functional([1], 10, polys={"G": gen_G(10), "H": gen_H(9)})
    with pytest.raises(ValueError, match="rows"):
        check_gh_functional([1], 10, polys={"G": gen_G(9), "H": gen_H(10)})
