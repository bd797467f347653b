"""Truncated formal power series, exact over the rationals and the integers.

A ``RatSeries`` holds the coefficients of z^0..z^N for an explicit
truncation order N.  Binary operations truncate to the smaller operand
order; composition-style operations (compose, exp, geometric inverse,
reversion) require the inner series to vanish at 0 and raise ValueError
otherwise.  A product is one integer convolution over a common denominator.
No floating point anywhere.

Where every coefficient is an integer after scaling by k!, the series is an
integer EGF vector instead: the closed-form derivative displays
(``rhs_series``) and both sides of ``check_def_identity`` and
``check_imp_census_series`` are built and compared on ints.  The
``egf-theorem`` and ``reversion-lemma`` checks stay on ``RatSeries``, since
their series are the statements under test; ``exp`` and ``reciprocal``
scale into the same integer EGF kernels.  The rows of ``egf-theorem`` and
``gh-functional`` are evaluated on integers at x = p/q.

The checks at the bottom compare independently computed expansions of the
tree function T (T = z e^T, T(z) = -W(-z)) and its relatives

    T_0 = 1/(1-T)            (bi-rooted trees, up to (1+x)^3)
    T_1 = T                  (rooted labeled trees, sum n^{n-1} z^n/n!)
    T_2 = T - T^2/2          (unrooted labeled trees, sum n^{n-2} z^n/n!)

against the closed forms of their n-th derivatives built from the census
polynomials, and report the first mismatching coefficient as a witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .polys import FAMILIES, Poly, gen_F, gen_G, gen_H, gen_P, imp_family, power, shift
from .report import CheckReport


class RatSeries:
    """Series truncated at an explicit order, coefficients in Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int], order: int | None = None):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("negative truncation order")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = tuple(cs)

    # ── construction helpers ──────────────────────────────────────────

    @classmethod
    def zero(cls, order: int) -> "RatSeries":
        return cls([0], order)

    @classmethod
    def const(cls, c: Fraction | int, order: int) -> "RatSeries":
        return cls([c], order)

    @classmethod
    def var(cls, order: int) -> "RatSeries":
        """The series z."""
        return cls([0, 1], order)

    # ── basic accessors ───────────────────────────────────────────────

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k]

    def egf_coefficient(self, n: int) -> Fraction:
        """n! times the coefficient of z^n."""
        return self.coeffs[n] * math.factorial(n)

    def truncate(self, order: int) -> "RatSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return RatSeries(self.coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatSeries([{', '.join(str(c) for c in self.coeffs)}])"

    # ── ring operations (result order = min of operand orders) ────────

    def _coerce(self, other) -> "RatSeries | None":
        if isinstance(other, RatSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return RatSeries([other], self.order)
        return None

    def __add__(self, other) -> "RatSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return RatSeries([self.coeffs[k] + o.coeffs[k] for k in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "RatSeries":
        return RatSeries([-c for c in self.coeffs])

    def __sub__(self, other) -> "RatSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatSeries":
        return (-self) + other

    def __mul__(self, other) -> "RatSeries":
        """Product over one common denominator: each operand is scaled to
        integer numerators over the lcm of its denominators, the numerators
        are convolved as ints, and each output coefficient is reduced once."""
        if isinstance(other, (int, Fraction)):
            return RatSeries([c * other for c in self.coeffs])
        if not isinstance(other, RatSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, da = _common_denominator(self.coeffs[: n + 1])
        b, db = _common_denominator(other.coeffs[: n + 1])
        out = [0] * (n + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(n + 1 - i):
                    out[i + j] += x * b[j]
        den = da * db
        return RatSeries([Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatSeries":
        """Nonnegative powers only; take reciprocal() first for negative ones."""
        return power(self, k, RatSeries.const(1, self.order))

    # ── calculus ──────────────────────────────────────────────────────

    def derive(self) -> "RatSeries":
        if self.order == 0:
            raise ValueError("derivative of an order-0 series has no coefficients")
        return RatSeries([k * self.coeffs[k] for k in range(1, self.order + 1)])

    # ── composition-style operations ──────────────────────────────────

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """self(inner); requires inner(0) = 0.

        Horner on integers: inner = B / D over one common denominator, and
        acc = S / E with S integers.  The step acc <- acc inner + c_k is
        S <- S B over E D, with c_k added to the constant term only
        (B(0) = 0); then S and E are divided by their gcd, so E stays the
        accumulator's own denominator instead of growing as D^n."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        b, d = _common_denominator(inner.coeffs[: n + 1])
        top = self.coeffs[n]
        acc, den = [top.numerator] + [0] * n, top.denominator
        for k in range(n - 1, -1, -1):
            out = [0] * (n + 1)
            for i, x in enumerate(acc):
                if x:
                    for j in range(1, n + 1 - i):
                        out[i + j] += x * b[j]
            den *= d
            c = self.coeffs[k]
            if c:
                q = c.denominator
                lcm = den // math.gcd(den, q) * q
                if lcm != den:
                    up = lcm // den
                    out = [x * up for x in out]
                    den = lcm
                out[0] = c.numerator * (den // q)
            g = math.gcd(den, *out)
            if g != 1:
                out = [x // g for x in out]
                den //= g
            acc = out
        return RatSeries([Fraction(c, den) for c in acc])

    def exp(self) -> "RatSeries":
        """exp(self); requires constant term 0.

        With self = sum F_j z^j / D over one common denominator D, the
        integer EGF vector j! F_j D^{j-1} stands for self(Dz), and entry m
        of its exponential is m! D^m [z^m] exp(self).
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires a series vanishing at 0")
        f, d = _common_denominator(self.coeffs)
        scale = list(accumulate(range(1, len(f)), lambda s, m: s * m * d, initial=1))   # m! D^m
        e = _egf_exp([c * s // d for c, s in zip(f, scale)])
        return RatSeries([Fraction(c, s) for c, s in zip(e, scale)])

    def reciprocal(self) -> "RatSeries":
        """1/self; requires a nonzero constant term.

        With self = sum F_j z^j / D, the integer EGF vector j! F_j F_0^{j-1}
        stands for self(F_0 z) D / F_0 and has leading entry 1.  Entry m of
        its inverse is m! F_0^m r_m, and 1/self = (D/F_0) sum r_m z^m.
        """
        if self.coeffs[0] == 0:
            raise ValueError("reciprocal requires a unit constant term")
        f, d = _common_denominator(self.coeffs)
        f0 = f[0]
        scale = list(accumulate(range(1, len(f)), lambda s, m: s * m * f0, initial=1))   # m! F_0^m
        r = _egf_inverse([c * s // f0 for c, s in zip(f, scale)])
        return RatSeries([Fraction(d * c, f0 * s) for c, s in zip(r, scale)])

    def geom_inverse(self) -> "RatSeries":
        """1/(1 - self); requires constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("geometric inverse requires a series vanishing at 0")
        return (1 - self).reciprocal()

    # ── serialization ─────────────────────────────────────────────────

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def _common_denominator(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers m_k and d with cs[k] = m_k/d, d the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


# ── the tree-function family ──────────────────────────────────────────────

def series_T(alpha: int, order: int) -> RatSeries:
    """sum_{n>=1} n^{n-alpha} z^n / n! truncated at `order`."""
    coeffs = [Fraction(0)] + [
        Fraction(n) ** (n - alpha) / math.factorial(n) for n in range(1, order + 1)
    ]
    return RatSeries(coeffs)


def series_W(order: int) -> RatSeries:
    """Principal Lambert W branch: sum_{n>=1} (-n)^{n-1} z^n / n!."""
    coeffs = [Fraction(0)] + [
        Fraction((-n) ** (n - 1), math.factorial(n)) for n in range(1, order + 1)
    ]
    return RatSeries(coeffs)


def reversion(f: RatSeries) -> RatSeries:
    """Compositional inverse g with f(g) = z, by Lagrange inversion.

    Requires f(0) = 0 and f'(0) != 0.  With h = w/f(w), [z^k] g is
    [w^{k-1}] h^k / k (Flajolet & Sedgewick, Analytic Combinatorics, A.6);
    g has the order of f, and f(g) = z is verified exactly to that order.
    """
    if f.coeffs[0] != 0:
        raise ValueError("reversion requires a series vanishing at 0")
    if f.order < 1 or f.coeffs[1] == 0:
        raise ValueError("reversion requires a nonzero linear coefficient")
    n = f.order
    h = RatSeries(f.coeffs[1:]).reciprocal()  # w/f(w) through w^{n-1}
    coeffs, hk = [Fraction(0)], h
    for k in range(1, n + 1):
        coeffs.append(hk.coeffs[k - 1] / k)
        hk = hk * h
    g = RatSeries(coeffs)
    if f.compose(g) != RatSeries.var(n):
        raise ArithmeticError("reversion failed its check f(g) = z")  # unreachable for valid input
    return g


# ── integer EGF vectors ───────────────────────────────────────────────────
#
# A list e of ints stands for the series sum_k e[k] z^k/k!.  T, W, e^{nT},
# (1-T)^{-k}, (1+W)^{-k} and T/(1-T) all have integer entries, so the
# derivative displays are built on ints by binomial convolution, and the
# n-th derivative of such a series is its vector shifted by n.

def _binomial_sum(a: Sequence[int], b: Sequence[int], m: int) -> int:
    """sum_k C(m,k) a[k] b[m-k]: entry m of the product of a and b."""
    acc, binom = 0, 1
    for k in range(m + 1):
        if a[k]:
            acc += binom * a[k] * b[m - k]
        binom = binom * (m - k) // (k + 1)
    return acc


def _egf_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product, to the shorter length."""
    return [_binomial_sum(a, b, m) for m in range(min(len(a), len(b)))]


def _egf_exp(f: Sequence[int]) -> list[int]:
    """exp(f) for f[0] = 0; E' = f'E gives E[m+1] = sum_k C(m,k) f[k+1] E[m-k]."""
    df, e = f[1:], [1]
    for m in range(len(df)):
        e.append(_binomial_sum(df, e, m))
    return e


def _egf_inverse(f: Sequence[int]) -> list[int]:
    """1/f for f[0] = 1; f g = 1 gives g[m] = -sum_{k>=1} C(m,k) f[k] g[m-k]."""
    g = [1]
    for m in range(1, len(f)):
        g.append(0)   # so the sum leaves out the unknown f[0] g[m]
        g[m] = -_binomial_sum(f, g, m)
    return g


def _egf_pow(f: Sequence[int], a: int) -> list[int]:
    """f^a for f[0] = 1 and any integer a; g'f = a f'g gives
    g[m+1] = a sum_k C(m,k) f[k+1] g[m-k] - sum_{k<m} C(m,k) g[k+1] f[m-k]."""
    df, g, dg = f[1:], [1], []   # dg[k] = g[k+1]
    for m in range(len(df)):
        dg.append(0)   # so the second sum leaves out the unknown g[m+1] f[0]
        dg[m] = a * _binomial_sum(df, g, m) - _binomial_sum(dg, f, m)
        g.append(dg[m])
    return g


def _egf_horner(p: Poly, v: Sequence[int]) -> list[int]:
    """p(v), to the length of v."""
    acc = [0] * len(v)
    for c in reversed(p.coeffs):
        acc = _egf_mul(acc, v)
        acc[0] += c
    return acc


def _base_egf(family: str, order: int) -> list[int]:
    """The series the family's n-th derivatives are taken of: W for P, else
    T_alpha = sum_{m>=1} m^{m-alpha} z^m/m! (alpha <= 2, so only 1^{-1} = 1
    has a negative exponent)."""
    if family == "P":
        return [0] + [(-m) ** (m - 1) for m in range(1, order + 1)]
    alpha = FAMILIES[family].alpha
    return [0] + [m ** max(m - alpha, 0) for m in range(1, order + 1)]


def _from_egf(e: Sequence[int]) -> RatSeries:
    return RatSeries([Fraction(c, math.factorial(k)) for k, c in enumerate(e)])


def _egf_text(e: Sequence[int], k: int) -> str:
    """Coefficient k of the series, as RatSeries prints it."""
    return str(Fraction(e[k], math.factorial(k)))


# ── closed forms of the n-th derivatives ──────────────────────────────────

def _check_family(family: str) -> None:
    if family != "P" and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def _gen(family: str, n_max: int) -> list[Poly]:
    return globals()[f"gen_{family}"](n_max)  # by name: wrappers on gen_* see it


def _rhs_egf(family: str, n: int, order: int, poly: Poly) -> list[int]:
    """Entries 0..order of the closed form of the n-th derivative (see rhs_series)."""
    if family == "P":
        w = _base_egf("P", order)
        head, unit, exponent, arg = [-n * c for c in w], [1] + w[1:], 1 - 2 * n, w
    else:
        t = _base_egf("G", order)   # T
        unit = [1] + [-c for c in t[1:]]   # 1 - T
        head, exponent = [n * c for c in t], -(n + FAMILIES[family].c)
        arg = _egf_mul(t, _egf_inverse(unit))   # T/(1-T)
    return _egf_mul(_egf_mul(_egf_exp(head), _egf_pow(unit, exponent)), _egf_horner(poly, arg))


def rhs_series(family: str, n: int, order: int, poly: Poly | None = None) -> RatSeries:
    """Closed form of the n-th derivative of the family's base series.

    F: e^{nT} (1-T)^{-(n+2)} F_n(T/(1-T))   for T_0 = 1/(1-T)
    G: e^{nT} (1-T)^{-n}     G_n(T/(1-T))   for T_1 = T
    H: e^{nT} (1-T)^{-(n-1)} H_n(T/(1-T))   for T_2 = T - T^2/2
    P: e^{-nW} (1+W)^{-(2n-1)} P_n(W)       for W itself

    A given `poly` stands in for row n, and no row is generated.  The
    display is built on integer EGF vectors.
    """
    if n < 1:
        raise ValueError("derivative index must be >= 1")
    _check_family(family)
    if order < 0:
        raise ValueError("negative truncation order")
    if poly is None:
        poly = _gen(family, n)[n - 1]
    return _from_egf(_rhs_egf(family, n, order, poly))


def _first_mismatch(a: Sequence, b: Sequence) -> int | None:
    """Index of the first entry where a and b differ, over their common length."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def check_def_identity(
    family: str,
    n_max: int,
    order: int,
    polys: Sequence[Poly] | None = None,
) -> CheckReport:
    """Exact comparison of d^n/dz^n of the base series with its closed form.

    `polys` may inject the polynomial sequence (row n at index n-1);
    omitted, the sequence is generated from the recursions.  Both sides are
    integer EGF vectors: the derivative is the base vector shifted by n.
    """
    _check_family(family)
    if order < n_max + 5:
        raise ValueError(f"order {order} too small for n_max {n_max}; need order >= n_max + 5")
    if polys is None:
        polys = _gen(family, n_max)
    elif len(polys) < n_max:
        raise ValueError(f"{len(polys)} rows given for n_max {n_max}")
    name = f"def-identity-{family}"
    base = _base_egf(family, order)
    for n in range(1, n_max + 1):
        lhs = base[n:]
        rhs = _rhs_egf(family, n, order - n, polys[n - 1])
        k = _first_mismatch(lhs, rhs)
        if k is not None:
            return CheckReport.fail(
                name,
                f"n={n}: coefficient of z^{k} differs: derivative {_egf_text(lhs, k)}, "
                f"closed form {_egf_text(rhs, k)}",
                family=family, n_max=n_max, order=order,
            )
    return CheckReport.ok(name, family=family, n_max=n_max, order=order)


# ── basic identities and the reversion lemma ──────────────────────────────

def check_basic_identities(order: int) -> CheckReport:
    """1 + T_0 = 1/(1-T), T_2' = T/z, T_2 = T - T^2/2, T(z) = -W(-z), exactly.

    The sums behind series_T start at n = 1, so the geometric identity
    carries the explicit constant 1 on the T_0 side.
    """
    t = series_T(1, order)
    t0 = series_T(0, order)
    t2 = series_T(2, order)
    w = series_W(order)
    failures = []
    if t.geom_inverse() != 1 + t0:
        failures.append("1/(1-T) != 1 + T_0")
    t_over_z = RatSeries(t.coeffs[1:])  # T/z, valid since T(0) = 0
    if t2.derive() != t_over_z:
        failures.append("T_2' != T/z")
    if t - t * t * Fraction(1, 2) != t2:
        failures.append("T - T^2/2 != T_2")
    minus_w_minus_z = RatSeries([-c if k % 2 == 0 else c for k, c in enumerate(w.coeffs)])
    if minus_w_minus_z != t:
        failures.append("-W(-z) != T")
    if failures:
        return CheckReport.fail("basic-identities", "; ".join(failures), order=order)
    return CheckReport.ok("basic-identities", order=order)


def check_reversion_lemma(order: int) -> CheckReport:
    """The inverse of T/(1-T) is (z/(1+z)) e^{-z/(1+z)}; the inverse of z e^{-z} is T."""
    t = series_T(1, order)
    z = RatSeries.var(order)
    ratio = t * t.geom_inverse()
    frac = z * (1 + z).reciprocal()  # z/(1+z)
    target = frac * (-frac).exp()
    failures = []
    if reversion(ratio) != target:
        failures.append("reversion(T/(1-T)) != (z/(1+z))e^{-z/(1+z)}")
    if ratio.compose(target) != z:
        failures.append("(T/(1-T)) o ((z/(1+z))e^{-z/(1+z)}) != z")
    if reversion(z * (-z).exp()) != t:
        failures.append("reversion(z e^{-z}) != T")
    if failures:
        return CheckReport.fail("reversion-lemma", "; ".join(failures), order=order)
    return CheckReport.ok("reversion-lemma", order=order)


# ── generating function in the census variable ────────────────────────────

def _shifted_tree_series(s0: Fraction, order: int) -> RatSeries:
    """u-series sigma with T(((u+x)/(1+x)) e^{-x/(1+x)}) = s0 + sigma, s0 = x/(1+x).

    Substituting into T = z e^T and cancelling e^{-x/(1+x)} exactly leaves

        s0 + sigma = (s0 + (1-s0) u) e^sigma,  sigma(0) = 0,

    a purely rational equation solved by series Newton; the derivative has
    unit constant term 1 - s0 != 0 for every x != -1.  A step doubles the
    number of correct coefficients, so the steps run at the precisions
    order // 2^j in rising order (1, 3, 7, 15, 30 for order 30; 1, 2, 4,
    ..., 32 for order 32), each at most twice the last plus one, and only
    the last at full order.  The result is then checked at full order.
    """
    precisions, p = [], order
    while p:
        precisions.append(p)
        p //= 2
    sigma = RatSeries.zero(order)
    for p in reversed(precisions):
        a = RatSeries([s0, 1 - s0], p)
        sigma = RatSeries(sigma.coeffs, p)
        e = a * sigma.exp()
        sigma = sigma - (sigma + s0 - e) * (1 - e).reciprocal()
    if sigma + s0 != RatSeries([s0, 1 - s0], order) * sigma.exp():
        raise ArithmeticError("shifted tree series failed to converge")  # unreachable
    return sigma


def check_egf_theorem(
    x_samples: Sequence[Fraction | int],
    n_max: int,
    order: int | None = None,
    polys: Mapping[str, Sequence[Poly]] | None = None,
) -> CheckReport:
    """The census polynomials are the u-Taylor coefficients of the tree series.

    With A(u) = ((u+x)/(1+x)) e^{-x/(1+x)} and S = T(A(u)):

        sum u^n/n! G_n(x) = S                         (G_0 = x/(1+x))
        sum u^n/n! F_n(x) = (1+x)^{-2} / (1 - S)      (F_0 = 1/(1+x))
        sum u^n/n! H_n(x) = (1+x) (S - S^2/2)         (H_0 = x(x+2)/(2(x+1)))

    checked exactly at each sample, n = 0..n_max.  The row side is evaluated
    on integers, q^deg X_n(p/q) at x = p/q, and compared by cross-multiplying.
    """
    if order is None:
        order = n_max + 2
    if order < n_max:
        raise ValueError(f"order {order} too small for n_max {n_max}; need order >= n_max")
    if polys is None:
        polys = {family: _gen(family, n_max) for family in FAMILIES}
    elif any(len(polys[family]) < n_max for family in FAMILIES):
        raise ValueError(f"fewer than n_max = {n_max} rows given")
    name = "egf-theorem"
    xs = [Fraction(x) for x in x_samples]
    for x in xs:
        if x == -1:
            raise ValueError("x = -1 is outside the domain of the substitution")
        s0 = x / (1 + x)
        s = _shifted_tree_series(s0, order) + s0
        series = {
            "G": s,
            "F": ((1 - s0) ** 2) * (1 - s).reciprocal(),
            "H": (1 + x) * (s - s * s * Fraction(1, 2)),
        }
        constants = {
            "G": x / (1 + x),
            "F": Fraction(1) / (1 + x),
            "H": Fraction(x * (x + 2), 2) / (x + 1),
        }
        for fam in ("F", "G", "H"):
            if series[fam].coeffs[0] != constants[fam]:
                return CheckReport.fail(
                    name, f"family {fam}, x={x}: constant term {series[fam].coeffs[0]} != {constants[fam]}",
                    x_samples=xs, n_max=n_max, order=order,
                )
            for n in range(1, n_max + 1):
                got = series[fam].egf_coefficient(n)
                row = polys[fam][n - 1]
                e = max(row.degree, 0)
                qe = x.denominator ** e
                want = _scaled_value(row, x.numerator, x.denominator, e)   # q^e X_n(p/q)
                if got.numerator * qe != want * got.denominator:
                    return CheckReport.fail(
                        name, f"family {fam}, x={x}, n={n}: series gives {got}, "
                              f"polynomial gives {Fraction(want, qe)}",
                        x_samples=xs, n_max=n_max, order=order,
                    )
    return CheckReport.ok(name, x_samples=xs, n_max=n_max, order=order)


def _scaled_value(p: Poly, num: int, den: int, e: int) -> int:
    """den^e p(num/den), an integer for deg p <= e; homogeneous Horner."""
    acc, den_k = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * num + c * den_k
        den_k *= den
    return acc * den ** (e - p.degree) if p else 0


def check_gh_functional(
    x_samples: Sequence[Fraction | int],
    order: int,
    polys: Mapping[str, Sequence[Poly]] | None = None,
) -> CheckReport:
    """Tail generating functions satisfy H~ = G~ - ((1+x)/2) G~^2 at each sample.

    Here G~ = sum_n G_n(x) u^n/n!, so the u^n coefficient reads
    H_n = G_n - ((1+x)/2) sum_k C(n,k) G_k G_{n-k}.  It is checked on
    integers: at x = p/q, with g_n = q^{n-1+E} G_n(p/q) and h_n likewise,

        2 q^E h_n = 2 q^E g_n - (p+q) sum_{k=1}^{n-1} C(n,k) g_k g_{n-k},

    where E = max(0, deg - (n-1)) over the given rows keeps every term an
    integer (E = 0 for the generated rows).  A failure reports the first
    mismatching u^n coefficient as the two rationals H_n(x)/n! and
    [u^n](G~ - ((1+x)/2) G~^2).
    """
    g_rows = gen_G(order) if polys is None else polys["G"]
    h_rows = gen_H(order) if polys is None else polys["H"]
    if min(len(g_rows), len(h_rows)) < order:
        raise ValueError(f"fewer than order = {order} rows given")
    name = "gh-functional"
    xs = [Fraction(x) for x in x_samples]
    rows = [(g_rows[n - 1], h_rows[n - 1]) for n in range(1, order + 1)]
    extra = max([0] + [r.degree - (n - 1) for n, pair in enumerate(rows, start=1) for r in pair])
    for x in xs:
        p, q = x.numerator, x.denominator
        qe = q ** extra
        g = [0] + [_scaled_value(gr, p, q, n - 1 + extra) for n, (gr, _) in enumerate(rows, start=1)]
        for n in range(1, order + 1):
            conv = _binomial_sum(g, g, n)   # the k = 0 and k = n terms vanish: g[0] = 0
            h = _scaled_value(rows[n - 1][1], p, q, n - 1 + extra)
            rhs = 2 * qe * g[n] - (p + q) * conv
            if 2 * qe * h != rhs:
                scale = q ** (n - 1 + extra) * math.factorial(n)
                return CheckReport.fail(
                    name, f"x={x}: coefficient of u^{n}: H side {Fraction(h, scale)}, "
                          f"G side {Fraction(rhs, 2 * qe * scale)}",
                    x_samples=xs, order=order,
                )
    return CheckReport.ok(name, x_samples=xs, order=order)


def check_imp_census_series(
    censuses: Mapping[int, Sequence[int]],
    rooted: bool,
    order: int,
) -> CheckReport:
    """Resummation of the improper-edge census reproduces derivative series.

    For the census c_j = #{trees of size n with imp = j}:

        e^{nT} (1-T)^{-(n-1)} sum_j c_j (1-T)^{-j}  =  d^n/dz^n T_2   (unrooted census)
        e^{nT} (1-T)^{-n}     sum_j c_j (1-T)^{-j}  =  d^n/dz^n T_1   (rooted census)

    compared exactly, as integer EGF vectors, to the shared truncation order.
    """
    name = f"imp-census-series-{'rooted' if rooted else 'unrooted'}"
    family = imp_family(rooted)
    base = _base_egf(family.name, order)
    for n in sorted(censuses):
        if n < 1:
            raise ValueError("derivative index must be >= 1")
        if n > order:
            raise ValueError(f"derivative order {n} exceeds truncation order {order}")
        # sum_j c_j (1-T)^{-j} is C(1 + T/(1-T)) for C(x) = sum_j c_j x^j
        display = _rhs_egf(family.name, n, order - n, shift(Poly(censuses[n]), 1))
        lhs = base[n:]
        k = _first_mismatch(display, lhs)
        if k is not None:
            return CheckReport.fail(
                name, f"n={n}: coefficient of z^{k}: census side {_egf_text(display, k)}, "
                      f"derivative {_egf_text(lhs, k)}",
                n_values=sorted(censuses), order=order, rooted=rooted,
            )
    return CheckReport.ok(name, n_values=sorted(censuses), order=order, rooted=rooted)
