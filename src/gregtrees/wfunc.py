"""Principal-branch Lambert W: evaluation, derivatives, sign checks.

W solves w e^w = z.  The principal branch is real-analytic on
(-1/e, inf), has a branch point at z = -1/e, and the cut (-inf, -1/e].
Evaluation is Halley iteration from a regime-chosen seed; every returned
value satisfies the residual contract |w e^w - z| <= 1e-13 max(1, |z|).
Each call tests the type of z once: real and complex z have their own
input checks and seeds, and share one Halley kernel (`_halley`), which
computes the seed inside its overflow guard.
The iteration stops one step after the residual first reaches the
rounding floor, |w e^w - z| <= 8 eps |z|, or at a step |dw| <= 1e-15
(1 + |w|), whichever comes first, with 50 steps as the backstop.  The
residual test is what ends it next to -1/e, where w e^w is flat and w is
fixed only to about sqrt(eps), so the step test alone would spin to the
backstop.  Where the Halley solve overflows or misses the contract (only
past about 1e307, where |z| or w e^w leaves the float range or w e^w - z
cancels too far), z is solved again on w + log w = log z (see
`_solve_log_form`).  Derivatives at one real z share a single solve.

Derivatives come from closed forms in the census polynomials:

    d^n W           = (-1)^{n-1} e^{-nw} (1+w)^{-n}     G_n(-w/(1+w))
    d^n (W^2/2 + W) = (-1)^{n-1} e^{-nw} (1+w)^{-(n-1)} H_n(-w/(1+w))
    d^n (W/(1+W))   = (-1)^{n-1} e^{-nw} (1+w)^{-(n+2)} F_n(-w/(1+w))

They are evaluated in the shifted form: X_n(-w/(1+w)) = Y_n(y) with
y = 1/(1+w) and Y_n(y) = X_n(y-1) the shifted row
(``gen_*(n, shifted=True)``), whose coefficients are all >= 0 with
Y_n(0) > 0.  Every real z > -1/e has w > -1, so y > 0, every term of
Y_n(y) is positive and nothing cancels.  The magnitude is

    exp(log Y_n(y) - n w - (n+c) log1p(w)),

with c = 0, -1, 2 the family's offset, and the sign is (-1)^{n-1} by
construction on all of (-1/e, inf): the three functions are Bernstein
functions (derivatives completely monotone), and their derivatives keep
alternating down to the branch point.  A derivative beyond the float range
raises OverflowError; one below it returns a zero or subnormal of the
right sign, never inf or NaN.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import NamedTuple, Sequence

from .polys import FAMILIES, gen_F, gen_G, gen_H
from .report import CheckReport

_INV_E = math.exp(-1.0)

_MAX_ITER = 50
_STEPS = range(1, _MAX_ITER + 1)
_STEP_TOL = 1e-15
_FLOOR_TOL = 8.0 * sys.float_info.epsilon
_RESIDUAL_TOL = 1e-13

# ln 2 = _LN2_HI + _LN2_LO, with k * _LN2_HI exact for |k| < 2^20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

# W itself first, then W^2/2 + W, then W/(1+W)
BERNSTEIN_FAMILIES = tuple(FAMILIES[name].bernstein for name in "GHF")


class WEval(NamedTuple):
    """One Lambert W evaluation with its convergence record."""

    z: complex | float
    w: complex | float
    residual: float
    iterations: int


def _branch_seed(p: complex | float) -> complex | float:
    """W near the branch point, -1 + p - p^2/3 + 11 p^3/72, in
    p = sqrt(2(ez + 1))."""
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


def _seed_real(z: float) -> float:
    """The Halley seed for real z > -1/e (left of -1/e is the cut): the
    branch-point series in p = sqrt(2(ez + 1)) within 0.3 of -1/e, z itself
    for |z| <= 0.8, log1p z on (0.8, e), and log z - log log z from e on.

    Only the first two agree with `_seed_complex` on the real line.  For
    every real z > 0.8 the seeds differ: the complex seed is log z on
    (0.8, 3), and log z - log log z + log log z / log z from 3 on.
    """
    if abs(z + _INV_E) <= 0.3:
        return _branch_seed(math.sqrt(2.0 * (math.e * z + 1.0)))
    if abs(z) <= 0.8:
        return z
    if z >= math.e:
        return math.log(z) - math.log(math.log(z))
    return math.log1p(z)


def _seed_complex(z: complex) -> complex:
    near = abs(z + _INV_E)
    if near <= 0.3 or (z.real < -_INV_E and near <= 0.6):
        # branch-point series in p = sqrt(2(ez+1)); left of -1/e out to 0.6,
        # where a log seed can wander or cross the cut to a conjugate branch
        return _branch_seed(cmath.sqrt(2.0 * (math.e * z + 1.0)))
    if abs(z) <= 0.8:
        # W(z) = z + O(z^2); the identity seed also keeps the iteration on
        # the principal branch in the annulus past 1/e, where a log seed
        # can defect to an adjacent branch
        return z
    l1 = cmath.log(z)
    if abs(z) >= 3.0:
        # asymptotic series W = L1 - L2 + L2/L1 + ..., principal logs
        l2 = cmath.log(l1)
        return l1 - l2 + l2 / l1
    return l1


def eval_W(z: complex | float) -> WEval:
    """Principal-branch W(z) by Halley iteration.

    The iteration ends on the step after the residual |w e^w - z| first
    falls to 8 eps |z|, on a step |dw| <= 1e-15 (1 + |w|), or after 50
    steps.  `iterations` counts the Halley steps taken (0 for z = 0), and
    `residual` is |w e^w - z| of the returned w.

    Real z on the cut (z <= -1/e) and non-finite z (an infinite or NaN
    part) raise ValueError, and so does an int or Fraction beyond the float
    range (`_real`).  A z whose Halley solve overflows or misses
    the residual contract is solved again on w + log w = log z
    (`_solve_log_form`), which forms neither |z| nor w e^w; `iterations`
    then counts that solve's steps.  A result violating the residual
    contract raises ArithmeticError.
    """
    if isinstance(z, complex):
        if z.imag != 0.0:
            if not cmath.isfinite(z):
                raise ValueError(f"z={z!r} is not finite")
            return _halley(z, _seed_complex, cmath.exp)
        z = z.real
    z = _real(z)
    if not math.isfinite(z):
        raise ValueError(f"z={z!r} is not finite")
    if z <= -_INV_E:
        raise ValueError(f"z={z!r} lies on the branch cut (-inf, -1/e]")
    if z == 0:
        return WEval(z, 0.0, 0.0, 0)
    return _halley(z, _seed_real, math.exp)


def _real(z) -> float:
    """float(z) for a real z.  An int or Fraction beyond the float range
    raises ValueError: on the cut if negative, else as beyond the range.
    The message holds no digits of z, as the repr of an int past 4300
    digits raises."""
    try:
        return float(z)
    except OverflowError:
        if z < 0:
            raise ValueError("z below the float range lies on the branch cut (-inf, -1/e]") from None
        raise ValueError("z is beyond the float range") from None


def _halley(z, seed, exp) -> WEval:
    """`eval_W` past its input checks, in the float type of z and its `exp`."""
    try:
        w = seed(z)
        floor = _FLOOR_TOL * abs(z)
        for iterations in _STEPS:
            ew = exp(w)
            f = w * ew - z
            w1 = w + 1.0
            if w1 == 0:
                w = w + 1e-6
                continue
            dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
            w = w - dw
            if abs(f) <= floor or abs(dw) <= _STEP_TOL * (1.0 + abs(w)):
                break
        residual = abs(w * exp(w) - z)
        relative = residual / max(1.0, abs(z))
    except OverflowError:
        residual = relative = math.inf
    if not relative <= _RESIDUAL_TOL:
        # |z| or w e^w overflowed, or w e^w - z cancelled too far
        w, residual, iterations, relative = _solve_log_form(z)
    if not relative <= _RESIDUAL_TOL:
        raise ArithmeticError(f"W({z!r}) did not converge: residual {residual:.3e}")
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(WEval, (z, w, residual, iterations))


def _solve_log_form(z: complex | float) -> tuple[complex | float, float, int, float]:
    """W(z), |w e^w - z|, the step count and |w e^w - z| / |z|, for z
    whose Halley solve overflows or misses the residual contract.

    Newton on g(w) = w + log w - log z from the asymptotic series
    L1 - L2 + L2/L1 + L2 (L2 - 2)/(2 L1^2), L1 = log z, L2 = log L1
    (Corless et al., Adv. Comput. Math. 5, 1996), with the stopping tests
    of the Halley loop; principal logs keep w on the principal branch.
    The relative residual is |e^g(w) - 1|, which cannot overflow, and
    neither |z| nor w e^w is ever formed.  It has one formula for real
    and complex z, |expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y| at
    g(w) = x + iy, which at y = 0 is |expm1(x)| bit for bit, as cos 0 = 1,
    sin 0 = 0 and |a + 0i| = |a| are exact.  log z is carried as hi + lo:
    with z = m 2^e, |m| in [1/2, 2), hi = e _LN2_HI and lo = log |m| +
    e _LN2_LO + i atan2(Im z, Re z), so w - hi is exact.  A log z rounded
    to one float (error up to 5.7e-14 near 700) breaks the contract at
    about 1.5% of the real z past 1e307.
    """
    if isinstance(z, complex):
        e = max(math.frexp(z.real)[1], math.frexp(z.imag)[1])
        m = abs(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)))
        log = cmath.log
        lo = complex(math.log(m) + e * _LN2_LO, math.atan2(z.imag, z.real))
    else:
        m, e = math.frexp(z)
        log = math.log
        lo = math.log(m) + e * _LN2_LO
    hi = e * _LN2_HI
    l1 = hi + lo
    l2 = log(l1)
    w = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
    for iterations in _STEPS:
        g = (w - hi) + (log(w) - lo)
        dw = g * w / (w + 1.0)
        w = w - dw
        if abs(g) <= _FLOOR_TOL or abs(dw) <= _STEP_TOL * (1.0 + abs(w)):
            break
    g = (w - hi) + (log(w) - lo)
    x, y = g.real, g.imag   # a real g has y = 0
    relative = abs(complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                           math.exp(x) * math.sin(y)))
    return w, math.ldexp(m * relative, e), iterations, relative


@lru_cache(maxsize=1)
def _solved_W(z: float) -> float:
    """W(z) of the last real z asked for: callers walk n at a fixed z.
    `eval_W` is looked up at call time, so wrappers on it see the solve;
    a raise is not cached."""
    return eval_W(z).w


def _float_row(coeffs: Sequence[int]) -> tuple[tuple[float, ...], float] | None:
    """The floats a_k 2^-s from the top degree down, and s log 2.

    One power of two scales the row: the largest coefficient lands far
    enough below the float limit that no Horner sum over the row
    overflows.  None where the smallest coefficient would then fall below
    the normal range (past n of about 1400)."""
    top = max(coeffs).bit_length()
    s = max(0, top - (sys.float_info.max_exp - 1 - len(coeffs).bit_length()))
    if min(coeffs).bit_length() - s < sys.float_info.min_exp:
        return None
    scale = 1 << s
    return tuple(a / scale for a in reversed(coeffs)), s * math.log(2.0)


@lru_cache(maxsize=None)
def _rows_built_by(gen) -> list:
    """The `_float_row`s of the shifted rows 1..N that the generator `gen`
    has built so far; `_family_row` extends the list in place.  Keyed on
    the generator, so rows built by one since replaced are not reused."""
    return []


@lru_cache(maxsize=None)
def _family_row(bernstein: str, n: int) -> tuple[tuple[float, ...], float, int]:
    """Shifted row Y_n of the family behind the Bernstein function, as
    `_float_row` scales it, with the family's offset c; OverflowError for
    a row that no one scale holds.

    Each family's rows are kept as floats.  A row past those held calls
    ``gen_*(N, shifted=True)`` for N = max(n, twice as many), so a walk
    over n = 1..N calls the generator about log2 N times, not N times.
    Cached, so that a derivative call finds its row by one hash."""
    family = next(f for f in FAMILIES.values() if f.bernstein == bernstein)
    gen = globals()[f"gen_{family.name}"]   # by name: wrappers on gen_* see it
    rows = _rows_built_by(gen)
    if n > len(rows):
        polys = gen(max(n, 2 * len(rows)), shifted=True)
        rows += [_float_row(p.coeffs) for p in polys[len(rows):]]
    if rows[n - 1] is None:
        raise OverflowError(f"row {n} of {family.name} spans more than one float scale")
    return (*rows[n - 1], family.c)


def family_derivative(family: str, z: float, n: int) -> float:
    """n-th derivative at real z > -1/e of W, W^2/2 + W, or W/(1+W).

    Computed as (-1)^{n-1} exp(log Y_n(y) - n w - (n+c) log1p(w)) on the
    shifted row Y_n at y = 1/(1+w) > 0, w = W(z), so the sign is
    (-1)^{n-1} for every real z > -1/e.  A value beyond the float range
    raises OverflowError (d^n W(0) = (-n)^{n-1}, so from n = 144 on at
    z = 0); one below it returns a zero or subnormal of that sign.  A z
    beyond the float range raises ValueError, as in `eval_W`."""
    if family not in BERNSTEIN_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("derivative index must be >= 1")
    return _derivative_at(family, _solved_W(_real(z)), n)


def _derivative_at(family: str, w: float, n: int) -> float:
    """`family_derivative` at the z with W(z) = w, for callers holding the solve.

    Horner in y = 1/(1+w) for y <= 1, and for y > 1 in 1/y = 1+w over the
    reversed row, which divides Y_n(y) by y^deg: every partial sum stays
    below the row's sum of coefficients."""
    row, log_scale, c = _family_row(family, n)
    acc = 0.0
    if w >= 0.0:
        y = 1.0 / (1.0 + w)
        for a in row:
            acc = acc * y + a
        k = n + c
    else:
        t = 1.0 + w
        for a in reversed(row):
            acc = acc * t + a
        k = n + c + len(row) - 1
    value = math.exp(math.log(acc) + log_scale - n * w - k * math.log1p(w))
    return value if n % 2 == 1 else -value


def nth_derivative_W(z: float, n: int) -> float:
    """d^n W / dz^n at real z > -1/e."""
    return family_derivative("W", z, n)


# order-4 central stencils: offset -> coefficient, antisymmetric for odd n
_FD_STENCILS: dict[int, tuple[tuple[int, float], ...]] = {
    1: ((1, 2.0 / 3.0), (2, -1.0 / 12.0)),
    2: ((0, -5.0 / 2.0), (1, 4.0 / 3.0), (2, -1.0 / 12.0)),
    3: ((1, -13.0 / 8.0), (2, 1.0), (3, -1.0 / 8.0)),
    4: ((0, 28.0 / 3.0), (1, -13.0 / 2.0), (2, 2.0), (3, -1.0 / 6.0)),
}

_FD_STEP_BASE = {1: 1e-3, 2: 1e-3, 3: 2e-3, 4: 5e-3}


def finite_difference_W(z: float, n: int) -> float:
    """Order-4 central finite difference for d^n W, n <= 4.  Independent
    of the closed forms; used to cross-check them.

    The step scales with 1 + z: the high derivatives entering the
    truncation error shrink like powers of 1/z, so a wider stencil at
    large z trades no accuracy there while taming roundoff in the tiny
    derivative values.
    """
    if n not in _FD_STENCILS:
        raise ValueError("stencils cover n = 1..4")
    h = _FD_STEP_BASE[n] * (1.0 + abs(z))
    total = 0.0
    for offset, c in _FD_STENCILS[n]:
        if offset == 0:
            total += c * eval_W(z).w
        else:
            right = eval_W(z + offset * h).w
            left = eval_W(z - offset * h).w
            total += c * (right + left) if n % 2 == 0 else c * (right - left)
    return total / h**n


# ── checks ────────────────────────────────────────────────────────────────

def check_bernstein(points: Sequence[float], n_max: int) -> CheckReport:
    """Signs (-1)^{n-1} of the derivatives of all three families on z > 0;
    a derivative past the float range raises OverflowError naming family, n, z."""
    name = "bernstein-signs"
    params = {"points": list(points), "n_max": n_max, "families": list(BERNSTEIN_FAMILIES)}
    if any(p <= 0 for p in points):
        raise ValueError("sign checks need z > 0")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    checked = 0
    for family in BERNSTEIN_FAMILIES:
        for z in points:
            for n in range(1, n_max + 1):
                try:
                    value = family_derivative(family, float(z), n)
                except OverflowError as exc:
                    raise OverflowError(f"{family}: d^{n} at z={z} is past the float range "
                                        f"({exc})") from exc
                good = value > 0.0 if n % 2 == 1 else value < 0.0
                if not good:
                    return CheckReport.fail(
                        name,
                        f"{family}: d^{n} at z={z} is {value!r}, "
                        f"expected sign {'(+)' if n % 2 == 1 else '(-)'}",
                        **params)
                checked += 1
    return CheckReport.ok(name, evaluations=checked, **params)


# SplitMix64: counter-based, so sample i is reproducible in isolation
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _unit(seed: int, counter: int) -> float:
    """Strictly interior uniform on (0, 1)."""
    h = _mix64((seed + counter * _GAMMA) & _MASK64)
    return (h + 0.5) / 2.0**64


def halfplane_sample(seed: int, i: int) -> complex:
    """Sample i of the check grid: log-uniform modulus in [1e-3, 1e3],
    uniform argument in (0, pi)."""
    r = 10.0 ** (-3.0 + 6.0 * _unit(seed, 2 * i))
    theta = math.pi * _unit(seed, 2 * i + 1)
    return complex(r * math.cos(theta), r * math.sin(theta))


def check_halfplane(samples: int, seed: int) -> CheckReport:
    """W maps the open upper half-plane into itself: Im W(z) > 0 for
    Im z > 0 (checked as > 1e-12 on the sample grid)."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    name = "halfplane"
    passed = 0
    for i in range(samples):
        z = halfplane_sample(seed, i)
        w = eval_W(z).w
        if w.imag <= 1e-12:
            return CheckReport.fail(name, f"sample {i}: z={z!r}, Im W = {w.imag!r}",
                                    samples=samples, seed=seed, passed_samples=passed)
        passed += 1
    return CheckReport.ok(name, samples=samples, seed=seed, passed_samples=passed)
