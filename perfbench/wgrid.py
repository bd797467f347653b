"""Inputs, oracle and verdicts of the ``wfunc-grid`` workload.

The grid is drawn from the workload seed.  Every W input is compared with
``mpmath.lambertw`` and every derivative with the closed form

    d^n f(z) = (-1)^{n-1} e^{-nw} (1+w)^{-e} R_n(-w/(1+w)),   w = W(z)

evaluated at ``DERIV_DPS`` digits, with the rows R_n recomputed here from
their recursions so the oracle shares no code with the program.  All
oracle work happens before timing starts.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

INV_E = math.exp(-1.0)
MAX_FLOAT = sys.float_info.max

# Stated tolerances.  W: the residual contract of the module docstring,
# and a relative error against mpmath within W_REL_TOL * (1 + kappa), where
# kappa = 1/|1+W(z)| is the relative condition number of W, which grows
# without bound at the branch point.  Derivatives: relative error.
RESIDUAL_TOL = 1e-13
W_REL_TOL = 1e-12
DERIV_REL_TOL = 1e-10
W_DPS = 30
DERIV_DPS = 110
DERIV_N_MAX = 40
FAMILIES = ("W", "half-square", "ratio")

# Fixed probes, on every seed: the largest floats, where w e^w overflows;
# out-of-domain values that must raise; near-cut points from the defect
# reports.
FIXED_W = (
    1e307, 3e307, 1e308, MAX_FLOAT,
    complex(-0.73, 1e-12), complex(-0.72, 1e-3), complex(-0.72, -1e-3),
    math.inf, -math.inf, math.nan, complex(math.nan, 1.0), complex(1.0, math.inf),
    -INV_E, -0.5, -1.0, -10.0, -1e300, complex(-1.0, 0.0), complex(-2.0, -0.0),
)
FIXED_DERIV_Z = (100.0, 1e4)

# failure kinds
RAISE, RESIDUAL, ACCURACY, DOMAIN = "raise", "residual", "accuracy", "domain"
KINDS = (RAISE, RESIDUAL, ACCURACY, DOMAIN)


def in_domain(z) -> bool:
    """The principal branch is defined off the cut (-inf, -1/e]; a complex
    z with zero imaginary part is a real z (as ``eval_W`` treats it)."""
    if isinstance(z, complex):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return False
        if z.imag != 0.0:
            return True
        z = z.real
    return math.isfinite(z) and z > -INV_E


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def build_grid(seed: int) -> tuple[list, list[tuple[str, float, int]]]:
    """W inputs and (family, z, n) derivative inputs for one seed."""
    rng = random.Random(seed)
    top = math.log10(MAX_FLOAT)
    zs: list = list(FIXED_W)
    # real z > 0, stratified log spacing from 1e-300 to the largest float
    count = 3000
    for i in range(count):
        zs.append(min(10.0 ** (-300.0 + (i + rng.random()) * (top + 300.0) / count), MAX_FLOAT))
    zs += [1e-300, MAX_FLOAT]
    # real z in (-1/e, 0): next to the branch point, and small negatives
    zs += [-INV_E + _log_uniform(rng, -16.0, -0.5) for _ in range(1000)]
    zs += [-_log_uniform(rng, -300.0, -0.5) for _ in range(500)]
    # complex z around the branch point, every direction
    for _ in range(1000):
        r = _log_uniform(rng, -12.0, -0.5)
        zs.append(complex(-INV_E, 0.0) + cmath.rect(r, rng.uniform(-math.pi, math.pi)))
    # upper half-plane
    for _ in range(3000):
        r = _log_uniform(rng, -300.0, 300.0)
        zs.append(cmath.rect(r, rng.uniform(0.0, math.pi)))
    # both sides of the cut, from next to the branch point out to -1e3
    for i in range(3000):
        x = -INV_E - _log_uniform(rng, -6.0, 3.0)
        eps = _log_uniform(rng, -16.0, -1.0)
        zs.append(complex(x, eps if i % 2 == 0 else -eps))
    # on the cut: out of domain
    zs += [-INV_E - _log_uniform(rng, -12.0, 300.0) for _ in range(100)]

    # stratified too, so how many points sit at z >= 1/2 barely varies
    count = 40
    dz = list(FIXED_DERIV_Z) + [10.0 ** (-2.0 + (i + rng.random()) * 6.0 / count)
                                for i in range(count)]
    derivs = [(family, z, n) for z in dz for family in FAMILIES
              for n in range(1, DERIV_N_MAX + 1)]
    return zs, derivs


# ── oracle ────────────────────────────────────────────────────────────────

def _rows(n_max: int, a0: int, b0: int) -> list[list[int]]:
    """R_1..R_{n_max} with R_{n+1} = (a0+2n + (b0+n)x) R_n + (1+x)^2 R_n'."""
    rows = [[1]]
    for n in range(1, n_max):
        p = rows[-1]
        a, b = a0 + 2 * n, b0 + n
        out = [0] * (len(p) + 1)
        for k, c in enumerate(p):
            out[k] += a * c
            out[k + 1] += b * c
            if k:
                out[k - 1] += k * c
                out[k] += 2 * k * c
                out[k + 1] += k * c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        rows.append(out)
    return rows


# family -> (rows, exponent of 1/(1+w) as a function of n)
_CLOSED_FORMS = {
    "W": ((0, 0), lambda n: n),
    "half-square": ((-1, -1), lambda n: n - 1),
    "ratio": ((2, 2), lambda n: n + 2),
}


class Oracle:
    """Reference values for one grid, built once per run."""

    def __init__(self, zs, derivs):
        import mpmath
        self.mp = mpmath
        mp = mpmath.mp
        mp.dps = W_DPS
        self.w_ref = []
        for z in zs:
            if in_domain(z):
                self.w_ref.append(complex(mpmath.lambertw(mpmath.mpmathify(z))))
            else:
                self.w_ref.append(None)
        mp.dps = DERIV_DPS
        rows = {f: _rows(DERIV_N_MAX, *ab) for f, (ab, _) in _CLOSED_FORMS.items()}
        cache = {}
        self.d_ref = []
        for family, z, n in derivs:
            if z not in cache:
                w = mpmath.lambertw(mpmath.mpf(z))
                cache[z] = (w, -w / (1 + w))
            w, x = cache[z]
            acc = mpmath.mpf(0)
            for c in reversed(rows[family][n - 1]):
                acc = acc * x + c
            value = acc * mpmath.exp(-n * w) / (1 + w) ** _CLOSED_FORMS[family][1](n)
            self.d_ref.append(float(value if n % 2 == 1 else -value))
        mp.dps = W_DPS

    def residual_ok(self, z, w) -> bool:
        mpw = self.mp.mpmathify(w)
        residual = abs(mpw * self.mp.exp(mpw) - self.mp.mpmathify(z))
        return residual <= RESIDUAL_TOL * max(1.0, abs(z))


# ── verdicts ──────────────────────────────────────────────────────────────

def _finite(v) -> bool:
    return cmath.isfinite(v) if isinstance(v, complex) else math.isfinite(v)


def _rel_err(got, want) -> float:
    return abs(got - want) / abs(want) if want != 0 else abs(got - want)


def judge_W(oracle: Oracle, i: int, z, out) -> tuple[str | None, float | None]:
    """Failure kind (None when correct) and relative error of one W op.

    ``out`` is the returned ``WEval`` or the raised exception."""
    want = oracle.w_ref[i]
    raised = isinstance(out, Exception)
    if want is None:
        return (None if raised else DOMAIN), None
    if raised:
        return RAISE, None
    w = out.w
    if not _finite(w) or not oracle.residual_ok(z, w):
        return RESIDUAL, None
    err = _rel_err(complex(w), want)
    if err > W_REL_TOL * (1.0 + 1.0 / abs(1.0 + want)):
        return ACCURACY, err
    return None, err


def judge_deriv(oracle: Oracle, i: int, out) -> tuple[str | None, float | None]:
    if isinstance(out, Exception):
        return RAISE, None
    if not math.isfinite(out):
        return ACCURACY, None
    err = _rel_err(out, oracle.d_ref[i])
    return (ACCURACY if err > DERIV_REL_TOL else None), err


def known_defect(op, kind: str) -> str | None:
    """The defect class recorded at commit fe21b2f that a failure of
    ``kind`` on ``op`` belongs to, or None for a failure outside every
    class.  ``op`` is ("W", z) or ("deriv", family, z, n).

    - overflow: real z >= 1e307 raises, because w e^w overflows;
    - nonfinite-input: inf and nan return NaN instead of raising;
    - near-cut: complex z within 0.1 of the cut raises or leaves the
      principal branch;
    - deriv-cancellation: positive-coefficient rows evaluated at
      x = -w/(1+w) <= -1/4 (z >= 1/2) lose every digit for large n.
    """
    if op[0] == "deriv":
        return "deriv-cancellation" if op[2] >= 0.5 and kind == ACCURACY else None
    z = op[1]
    if isinstance(z, complex):
        finite = math.isfinite(z.real) and math.isfinite(z.imag)
        if finite and z.real < -INV_E and 0.0 < abs(z.imag) <= 0.1 and kind in (RAISE, ACCURACY):
            return "near-cut"
    else:
        finite = math.isfinite(z)
        if z >= 1e307 and kind == RAISE:
            return "overflow"
    if not finite and kind == DOMAIN:
        return "nonfinite-input"
    return None
