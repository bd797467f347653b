"""Lambert W evaluation against mpmath, derivative closed forms, and the
sign checks."""

import cmath
import math

import mpmath
import pytest

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


def test_known_values():
    assert eval_W(0.0) == WEval(z=0.0, w=0.0, residual=0.0, iterations=0)
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


def test_family_derivative_validation():
    with pytest.raises(ValueError):
        family_derivative("nope", 1.0, 1)
    with pytest.raises(ValueError):
        family_derivative("W", 1.0, 0)
    with pytest.raises(ValueError):
        finite_difference_W(1.0, 5)


def test_bernstein_check_passes():
    report = check_bernstein([0.1, 1.0, 10.0], 15)
    assert report.passed, report.witness
    assert report.params["evaluations"] == 3 * 3 * 15
    assert set(report.params["families"]) == set(BERNSTEIN_FAMILIES)


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


def test_halfplane_check_deterministic():
    a = check_halfplane(300, 7)
    b = check_halfplane(300, 7)
    assert a.to_json() == b.to_json()
