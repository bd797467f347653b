"""Lambert W evaluation against mpmath, derivative closed forms, and the
sign checks."""

import cmath
import hashlib
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gregtrees.wfunc as wfunc
from gregtrees.polys import Poly, gen_F, gen_G, gen_H
from gregtrees.wfunc import (
    BERNSTEIN_FAMILIES,
    WEval,
    check_bernstein,
    check_halfplane,
    eval_W,
    family_derivative,
    finite_difference_W,
    halfplane_sample,
    nth_derivative_W,
)

mpmath.mp.dps = 40


def mp_W(z: complex) -> complex:
    return complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag)))


INV_E = math.exp(-1.0)


def _step_test_W(z: float) -> tuple[float, int]:
    """Real W(z) and its step count by Halley iteration that ends only on
    the step test |dw| <= 1e-15 (1 + |w|) or after 50 steps, from the real
    seeds of the module."""
    if z == 0:
        return 0.0, 0
    if abs(z + INV_E) <= 0.3:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif abs(z) <= 0.8:
        w = z
    elif z >= math.e:
        w = math.log(z) - math.log(math.log(z))
    else:
        w = math.log1p(z)
    iterations = 0
    for iterations in range(1, 51):
        ew = math.exp(w)
        f = w * ew - z
        w1 = w + 1.0
        if w1 == 0:
            w = w + 1e-6
            continue
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w = w - dw
        if abs(dw) <= 1e-15 * (1.0 + abs(w)):
            break
    return w, iterations


def _assert_accurate(z, res):
    """The residual contract, and the error bound against mpmath that
    widens with the condition number 1/|1+W| at the branch point."""
    assert res.residual <= 1e-13 * max(1.0, abs(z)), z
    want = mp_W(complex(z))
    assert abs(res.w - want) <= 1e-12 * (1.0 + 1.0 / abs(1.0 + want)) * abs(want), (z, res)


def test_known_values():
    assert eval_W(0.0) == WEval(z=0.0, w=0.0, residual=0.0, iterations=0)
    # a NamedTuple: unpacks, equals its 4-tuple, keeps the dataclass repr
    assert eval_W(0.0) == (0.0, 0.0, 0.0, 0)
    z, w, residual, iterations = eval_W(math.e)
    assert (z, w, iterations) == (math.e, eval_W(math.e).w, eval_W(math.e).iterations)
    assert repr(eval_W(0.0)) == "WEval(z=0.0, w=0.0, residual=0.0, iterations=0)"
    assert abs(eval_W(math.e).w - 1.0) < 1e-15
    assert abs(eval_W(1.0).w - 0.5671432904097838) < 1e-15
    # branch point: W(-1/e) = -1, approached from the right
    assert abs(eval_W(-1 / math.e + 1e-12).w + 1.0) < 1e-5


def test_real_grid_against_mpmath():
    points = [10.0 ** (-3 + 6 * k / 59) for k in range(60)]
    points += [-0.3, -0.25, -0.1, -1 / math.e + 1e-9]
    for z in points:
        res = eval_W(z)
        assert res.residual <= 1e-13 * max(1.0, abs(z))
        assert abs(res.w - mp_W(complex(z, 0)).real) <= 1e-12 * max(1.0, abs(res.w))
        assert res.iterations <= 50


def test_complex_grid_against_mpmath():
    for kr in range(12):
        r = 10.0 ** (-3 + 6 * kr / 11)
        for kt in range(8):
            theta = -math.pi + 2 * math.pi * (kt + 0.5) / 8
            z = complex(r * math.cos(theta), r * math.sin(theta))
            res = eval_W(z)
            want = mp_W(z)
            assert res.residual <= 1e-13 * max(1.0, abs(z))
            assert abs(res.w - want) <= 1e-10 * max(1.0, abs(want)), z


def test_wrong_branch_gap_region():
    # moduli just past 1/e with arguments near the negative axis
    for r in (0.38, 0.45, 0.6, 0.75):
        for theta in (1.7, 2.2, 2.7, 3.0):
            z = complex(r * math.cos(theta), r * math.sin(theta))
            assert abs(eval_W(z).w - mp_W(z)) < 1e-10


def test_branch_point_stops_at_rounding_floor():
    # next to -1/e w is fixed only to about sqrt(eps), so the step test
    # cannot be met there and the residual test has to end the iteration
    rng = random.Random(2024)
    points = [-INV_E + 10.0 ** rng.uniform(-16.0, -1.0) for _ in range(300)]
    points += [complex(-INV_E, 0.0) + cmath.rect(10.0 ** rng.uniform(-16.0, -1.0),
                                                 rng.uniform(-math.pi, math.pi))
               for _ in range(300)]
    for z in points:
        res = eval_W(z)
        assert res.iterations <= 4, (z, res)
        _assert_accurate(z, res)


def test_left_of_branch_point_stays_on_principal_branch():
    # just above and below the cut, up to 0.6 left of -1/e: a log seed
    # there can take tens of steps or land on the conjugate branch
    for k in range(24):
        d = 0.6 * (k + 0.5) / 24 - 0.01
        for j in range(16):
            for sign in (1.0, -1.0):
                z = complex(-INV_E - d, sign * 10.0 ** (-16 + j))
                res = eval_W(z)
                assert res.iterations <= 8, (z, res)
                _assert_accurate(z, res)


def test_real_outputs_match_step_test_loop():
    points = [10.0 ** (-300.0 + 607.0 * k / 1500) for k in range(1501)]
    points += [-INV_E + 0.1 + (INV_E - 0.1) * k / 300 for k in range(1, 300)]
    for z in points:
        res = eval_W(z)
        assert (res.w, res.iterations) == _step_test_W(z), z


def _pin_grid() -> list:
    """Inputs reaching every seed branch, real and complex, the band left
    of -1/e, the log-form solve past 1e307, zero and non-float inputs, the
    cut and non-finite values."""
    top = math.log10(sys.float_info.max)
    biggest = sys.float_info.max
    zs = [-INV_E + 10.0 ** (-16.0 + 15.5 * k / 199) for k in range(200)]
    zs += [k / 128 for k in range(-9, 103)]
    zs += [0.8 + (math.e - 0.8) * k / 100 for k in range(1, 101)]
    zs += [10.0 ** (0.5 + 306.5 * k / 400) for k in range(401)]
    zs += [10.0 ** (307.0 + (top - 307.0) * k / 100) for k in range(100)]
    zs += [biggest, 1e-300, 5e-324, -5e-324]
    for j in range(40):
        r = 10.0 ** (-16.0 + 15.8 * j / 39)
        zs += [complex(-INV_E, 0.0) + cmath.rect(r, math.pi * (2 * k - 15) / 16) for k in range(16)]
    for j in range(24):
        d = 0.6 * (j + 0.5) / 24
        zs += [complex(-INV_E - d, s * 10.0 ** -e) for e in (1, 4, 8, 12, 16) for s in (1.0, -1.0)]
    for j in range(30):
        r = 10.0 ** (-6.0 + 306.0 * j / 29)
        zs += [cmath.rect(r, math.pi * (2 * k - 11) / 12) for k in range(12)]
    zs += [cmath.rect(r, math.pi * (2 * k - 15) / 16)
           for r in (0.1, 0.5, 0.79, 1.0, 2.0, 2.9) for k in range(16)]
    zs += [cmath.rect(10.0 ** (307.0 + (top - 307.0) * j / 4), math.pi * (2 * k - 7) / 8)
           for j in range(4) for k in range(8)]
    zs += [complex(1e308, 1e308), complex(-1.7e308, 1.7e308), complex(-biggest, -biggest),
           complex(-biggest, 1e-300), complex(1e-300, biggest), complex(3e307, -2e307)]
    # zero, complex with zero imaginary part, int, bool and Fraction inputs
    zs += [0.0, -0.0, 0, complex(0.0, 0.0), complex(-0.0, -0.0), complex(2.5, 0.0),
           complex(2.5, -0.0), complex(-0.2, 0.0), 1, 7, 10**300, True, False,
           Fraction(1, 3), Fraction(-1, 3), Fraction(10**400, 3**600)]
    # on the cut, or past the float range
    zs += [-INV_E, -0.5, -1.0, -1e300, -10**400 // 3, 10**400, Fraction(-1, 2),
           complex(-1.0, 0.0), complex(-2.0, -0.0), complex(-INV_E, 0.0)]
    zs += [math.inf, -math.inf, math.nan, complex(math.nan, 1.0), complex(1.0, math.inf),
           complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.nan),
           complex(-math.inf, -0.0)]
    return zs


def test_eval_W_outputs_are_pinned_bit_for_bit():
    # digest of each result's repr, or each exception's type and message
    lines = []
    for z in _pin_grid():
        try:
            lines.append(repr(eval_W(z)))
        except Exception as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    assert len(lines) == 2326
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ee275e63110f7084609ab30d5b69170c9a11de2c143b8f8c403b429092ee44f2"


def test_largest_floats_meet_residual_contract():
    # past 1e307 w e^w can overflow, and the solve runs on w + log w = log z;
    # a log z rounded to a float breaks the contract at about 1.5% of these
    rng = random.Random(307)
    top = math.log10(sys.float_info.max)
    points = [min(10.0 ** rng.uniform(307.0, top), sys.float_info.max) for _ in range(2000)]
    points += [math.nextafter(1e307, math.inf), sys.float_info.max]
    for z in points:
        res = eval_W(z)
        assert res.iterations <= 3, (z, res)
        w = mpmath.mpf(res.w)
        assert abs(w * mpmath.exp(w) - z) <= 1e-13 * z, (z, res)
        assert abs(w - mpmath.lambertw(z)) <= 2e-16 * w, (z, res)


def test_largest_complex_meet_residual_contract():
    # past about 1e307 |z| or w e^w can overflow, or w e^w - z cancel past
    # the contract; the solve then runs on w + log w = log z.  |z| is taken
    # in mpmath only: as a float it overflows past the largest float.
    rng = random.Random(308)
    top = math.log10(sys.float_info.max)
    biggest = sys.float_info.max
    points = [complex(1e308, 1e308), complex(-1.7e308, 1.7e308),
              complex(-biggest, -biggest), complex(-biggest, 1e-300), complex(1e-300, biggest)]
    for _ in range(400):
        big = min(10.0 ** rng.uniform(307.0, top), biggest)
        other = rng.choice([1e-300, 10.0 ** rng.uniform(-5.0, 300.0), big * rng.random()])
        x, y = (big, other) if rng.random() < 0.5 else (other, big)
        points.append(complex(rng.choice((-1, 1)) * x, rng.choice((-1, 1)) * y))
    for z in points:
        res = eval_W(z)
        assert res.iterations <= 3, (z, res)
        w, zm = mpmath.mpc(res.w), mpmath.mpc(z)
        size = abs(zm)
        residual = abs(w * mpmath.exp(w) - zm)
        assert residual <= 1e-13 * size, (z, res)
        assert abs(residual - res.residual) <= 1e-15 * size, (z, res)
        assert abs(w - mpmath.lambertw(zm)) <= 2e-16 * abs(w), (z, res)


def test_complex_asymptotic_seed():
    # log z alone leaves the log log z term to the iteration: 5 to 7 steps
    for kr in range(40):
        r = 3.0 * 10.0 ** (300.0 * kr / 39)
        for kt in range(16):
            z = cmath.rect(r, -math.pi + 2.0 * math.pi * (kt + 0.5) / 16)
            res = eval_W(z)
            assert res.iterations <= 4, (z, res)
            _assert_accurate(z, res)


def test_branch_cut_rejection():
    for z in (-1 / math.e, -0.5, -1.0, -100.0):
        with pytest.raises(ValueError):
            eval_W(z)
    # complex values just off the cut are fine
    assert eval_W(complex(-1.0, 1e-9)).w.imag > 0
    assert eval_W(complex(-1.0, -1e-9)).w.imag < 0
    # non-finite input is rejected, not answered with NaN
    for z in (math.inf, -math.inf, math.nan, complex(math.nan, 1.0), complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            eval_W(z)


def test_real_input_stays_real():
    res = eval_W(2.5)
    assert isinstance(res.w, float)
    res = eval_W(complex(2.5, 0.0))  # complex with zero imag is treated as real
    assert isinstance(res.w, float)


def test_derivative_closed_forms_vs_finite_differences():
    for z in (0.1, 0.5, 2.0, 10.0):
        for n in range(1, 5):
            exact = nth_derivative_W(z, n)
            approx = finite_difference_W(z, n)
            assert abs(exact - approx) <= 1e-5 * abs(exact), (z, n)


def test_derivatives_against_mpmath_diff():
    for z in (0.2, 1.0, 3.0):
        for n in range(1, 7):
            exact = nth_derivative_W(z, n)
            oracle = float(mpmath.diff(mpmath.lambertw, mpmath.mpf(z), n))
            assert abs(exact - oracle) <= 1e-10 * max(1e-10, abs(oracle)), (z, n)


def test_first_derivative_identity():
    # W' = W / (z (1 + W))
    for z in (0.25, 1.0, 4.0):
        w = eval_W(z).w
        assert abs(nth_derivative_W(z, 1) - w / (z * (1 + w))) < 1e-14


def test_family_first_derivatives():
    for z in (0.3, 1.5):
        w = eval_W(z).w
        # d/dz (W^2/2 + W) = (1 + W) W' = W/z
        assert abs(family_derivative("half-square", z, 1) - w / z) < 1e-14
        # d/dz (W/(1+W)) = W' / (1+W)^2
        want = w / (z * (1 + w) ** 3)
        assert abs(family_derivative("ratio", z, 1) - want) < 1e-14


# family -> (generator of the unshifted rows X_n, exponent of 1/(1+w) minus n)
_UNSHIFTED = {"W": (gen_G, 0), "half-square": (gen_H, -1), "ratio": (gen_F, 2)}
_ORACLE_NS = (1, 2, 3, 5, 8, 13, 40, 100, 200, 400)
_ORACLE_ZS = (-INV_E + 1e-12, -0.36, -0.3, -1e-3, -1e-300, 1e-300, 1e-100, 1e-10,
              1e-3, 0.5, 1.0, 10.0, 1e3, 1e10, 1e100, 1e300)


def test_derivatives_against_unshifted_rows():
    """Every family, n <= 400, real z from next to -1/e out to 1e300, against
    (-1)^{n-1} e^{-nw} (1+w)^{-(n+c)} X_n(-w/(1+w)) on the unshifted integer
    rows, which shares no formula with the shifted float path.  For z > 0
    those terms alternate and cancel by up to about 0.75 n digits, so they
    are summed at 30 + n digits.  The oracle takes the program's own w, so
    this measures the derivative layer and not the conditioning of W: next
    to -1/e, 1+w has relative error near eps/(1+w), which (1+w)^{-(n+c)}
    multiplies by n.

    A true value in the normal float range must come back within 1e-10
    relative; one past it must raise OverflowError; one below it must come
    back as a zero or subnormal of the right sign.  So n = 400 is not finite
    at every z from 1e-300 on: d^n W(0) = (-n)^{n-1} is past the float
    range from n = 144."""
    checked = {"normal": 0, "overflow": 0, "underflow": 0}
    for family, (gen, c) in _UNSHIFTED.items():
        rows = gen(max(_ORACLE_NS))
        for z in _ORACLE_ZS:
            w = eval_W(z).w
            for n in _ORACLE_NS:
                with mpmath.workdps(30 + n):
                    mw = mpmath.mpf(w)
                    x = -mw / (1 + mw)
                    acc = mpmath.mpf(0)
                    for a in reversed(rows[n - 1].coeffs):
                        acc = acc * x + a
                    want = acc * mpmath.exp(-n * mw) / (1 + mw) ** (n + c)
                    want = want if n % 2 == 1 else -want
                    size = abs(want)
                    if size > sys.float_info.max:
                        with pytest.raises(OverflowError):
                            family_derivative(family, z, n)
                        checked["overflow"] += 1
                        continue
                    got = family_derivative(family, z, n)
                    if size >= sys.float_info.min:
                        assert abs((got - want) / want) <= 1e-10, (family, z, n, got, want)
                        checked["normal"] += 1
                    else:
                        assert abs(got) < sys.float_info.min, (family, z, n, got, want)
                        assert math.copysign(1.0, got) == math.copysign(1.0, want)
                        checked["underflow"] += 1
    assert min(checked.values()) > 0, checked


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BERNSTEIN_FAMILIES),
       st.floats(min_value=-INV_E, max_value=1e300, exclude_min=True),
       st.integers(min_value=1, max_value=60))
def test_derivative_sign_on_the_whole_real_domain(family, z, n):
    """(-1)^{n-1} for every real z > -1/e, not only z > 0, zeros included."""
    try:
        value = family_derivative(family, z, n)
    except OverflowError:
        return
    assert not math.isnan(value) and not math.isinf(value)
    assert math.copysign(1.0, value) == (1.0 if n % 2 == 1 else -1.0), value


def test_row_past_one_float_scale_raises(monkeypatch):
    # no power of two brings both 1 and 2^3000 into the normal range
    monkeypatch.setattr(wfunc, "gen_G", lambda n, shifted: [Poly((1, 1 << 3000))] * n)
    wfunc._family_row.cache_clear()
    with pytest.raises(OverflowError, match="more than one float scale"):
        family_derivative("W", 1.0, 2)


@pytest.mark.parametrize("family", BERNSTEIN_FAMILIES)
def test_walk_over_n_builds_rows_a_few_times(monkeypatch, family):
    """n = 1..200 at one z calls the family's generator at most 9 times
    (rows 1, 2, 4, ..., 256), and every value equals the one from rows
    built for that n alone."""
    name = _UNSHIFTED[family][0].__name__
    gen, calls = getattr(wfunc, name), []

    def counted(n, shifted):
        calls.append(n)
        return gen(n, shifted=shifted)
    monkeypatch.setattr(wfunc, name, counted)
    wfunc._family_row.cache_clear()
    walk = [family_derivative(family, 1e3, n) for n in range(1, 201)]
    assert len(calls) <= 9 and max(calls) <= 256, calls
    for n in range(1, 201, 7):
        wfunc._family_row.cache_clear()
        wfunc._rows_built_by.cache_clear()
        calls.clear()
        assert family_derivative(family, 1e3, n) == walk[n - 1], n
        assert calls == [n]


def test_family_derivative_validation():
    with pytest.raises(ValueError):
        family_derivative("nope", 1.0, 1)
    with pytest.raises(ValueError):
        family_derivative("W", 1.0, 0)
    with pytest.raises(ValueError):
        finite_difference_W(1.0, 5)
    with pytest.raises(TypeError):   # the step is fixed by z and n
        finite_difference_W(1.0, 2, 1e-3)


def test_bernstein_check_passes():
    report = check_bernstein([0.1, 1.0, 10.0], 15)
    assert report.passed, report.witness
    assert report.params["evaluations"] == 3 * 3 * 15
    assert set(report.params["families"]) == set(BERNSTEIN_FAMILIES)


def test_bernstein_fails_on_a_wrong_sign(monkeypatch):
    real = wfunc.family_derivative

    def flipped(family, z, n):
        value = real(family, z, n)
        return -value if (family, z, n) == ("half-square", 1.0, 2) else value
    monkeypatch.setattr(wfunc, "family_derivative", flipped)
    report = check_bernstein([0.1, 1.0], 3)
    assert report.passed is False
    assert report.witness == (f"half-square: d^2 at z=1.0 is {-real('half-square', 1.0, 2)!r}, "
                              "expected sign (-)")
    assert report.params == {"points": [0.1, 1.0], "n_max": 3,
                             "families": list(BERNSTEIN_FAMILIES)}


def test_bernstein_overflow_names_family_n_and_z():
    # d^150 W(0.1) is the first derivative of the default points past the float range
    with pytest.raises(OverflowError, match=r"^W: d\^150 at z=0\.1 is past the float range"):
        check_bernstein([0.1, 1.0, 10.0], 150)
    assert check_bernstein([0.1, 1.0, 10.0], 149).passed


def _counting_eval_W(monkeypatch) -> list:
    calls = []

    def counted(z):
        calls.append(z)
        return eval_W(z)
    monkeypatch.setattr(wfunc, "eval_W", counted)
    wfunc._solved_W.cache_clear()
    return calls


def test_derivatives_share_one_solve_per_point(monkeypatch):
    calls = _counting_eval_W(monkeypatch)
    assert check_bernstein((0.1, 1.0, 10.0), 15).passed
    # three families walk n <= 15 at each of three points
    assert len(calls) == 9


def test_derivative_memo_is_never_stale():
    rng = random.Random(7)
    calls = [(rng.choice(BERNSTEIN_FAMILIES), rng.choice((0.05, 0.5, 2.0, 30.0)),
              rng.randint(1, 12)) for _ in range(200)]
    warm = [family_derivative(*call) for call in calls]
    cold = []
    for call in calls:
        wfunc._solved_W.cache_clear()
        cold.append(family_derivative(*call))
    assert warm == cold


def test_derivative_errors_are_not_cached(monkeypatch):
    calls = _counting_eval_W(monkeypatch)
    for _ in range(3):
        with pytest.raises(ValueError, match="branch cut"):
            family_derivative("W", -1.0, 2)
    assert len(calls) == 3
    # an accepted z between two rejected ones does not mask either
    family_derivative("W", 1.0, 2)
    with pytest.raises(ValueError, match="branch cut"):
        family_derivative("W", -1.0, 2)
    assert len(calls) == 5


def test_bernstein_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        check_bernstein([1.0, 0.0], 3)


def test_halfplane_sampler_is_counter_based():
    a = halfplane_sample(42, 167)
    b = halfplane_sample(42, 167)
    assert a == b
    assert a != halfplane_sample(42, 168)
    assert a != halfplane_sample(43, 167)
    assert a.imag > 0
    assert 1e-3 <= abs(a) <= 1e3


def test_halfplane_check_full_pass():
    report = check_halfplane(1000, 42)
    assert report.passed, report.witness
    assert report.params["passed_samples"] == 1000


def test_halfplane_fails_on_a_sample_off_the_upper_half_plane(monkeypatch):
    real = wfunc.eval_W
    bad = halfplane_sample(42, 3)

    def conjugated(z):
        res = real(z)
        return res._replace(w=res.w.conjugate()) if z == bad else res
    monkeypatch.setattr(wfunc, "eval_W", conjugated)
    report = check_halfplane(10, 42)
    assert report.passed is False
    assert report.witness == f"sample 3: z={bad!r}, Im W = {-real(bad).w.imag!r}"
    assert report.params == {"samples": 10, "seed": 42, "passed_samples": 3}


def test_halfplane_check_deterministic():
    a = check_halfplane(300, 7)
    b = check_halfplane(300, 7)
    assert a.to_json() == b.to_json()
