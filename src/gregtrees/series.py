"""Truncated formal power series, exact over the rationals and the integers.

A ``RatSeries`` holds the coefficients of z^0..z^N for an explicit
truncation order N, as integer numerators over one positive denominator in
lowest terms, and every operation stays on ints.  Binary operations
truncate to the smaller operand order; composition-style operations
(compose, exp, geometric inverse, reversion) require the inner series to
vanish at 0 and raise ValueError otherwise.  No floating point anywhere.

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
    """Series truncated at an explicit order: coefficient k is nums[k] / den,
    with den > 0 and gcd(den, *nums) = 1, so equal series have equal fields."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int], order: int | None = None):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("negative truncation order")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        # over the lcm of denominators in lowest terms, the numerators are coprime to it
        den = math.lcm(*(c.denominator for c in cs))
        self.nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @classmethod
    def _make(cls, nums: Iterable[int], den: int) -> "RatSeries":
        """The series nums[k] / den for any den != 0, in lowest terms."""
        nums = tuple(nums)
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        s = cls.__new__(cls)
        s.nums = nums if g == 1 else tuple([x // g for x in nums])
        s.den = den // g
        return s

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
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den)

    def egf_coefficient(self, n: int) -> Fraction:
        """n! times the coefficient of z^n."""
        return Fraction(self.nums[n] * math.factorial(n), self.den)

    def truncate(self, order: int) -> "RatSeries":
        if order < 0:
            raise ValueError("negative truncation order")
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return RatSeries._make(self.nums[: order + 1], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

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
        den = math.lcm(self.den, o.den)
        a, b = den // self.den, den // o.den
        return RatSeries._make([a * x + b * y for x, y in zip(self.nums, o.nums)], den)

    __radd__ = __add__

    def __neg__(self) -> "RatSeries":
        return RatSeries._make([-x for x in self.nums], self.den)

    def __sub__(self, other) -> "RatSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatSeries":
        return (-self) + other

    def __mul__(self, other) -> "RatSeries":
        """A scalar scales the numerators and the denominator; a product of
        series is one integer convolution over the product of denominators."""
        if isinstance(other, (int, Fraction)):
            return RatSeries._make([x * other.numerator for x in self.nums],
                                   self.den * other.denominator)
        if not isinstance(other, RatSeries):
            return NotImplemented
        a, b = self.nums, other.nums
        n = min(len(a), len(b))
        out = [0] * n
        for i in range(n):
            x = a[i]
            if x:
                for j in range(n - i):
                    out[i + j] += x * b[j]
        return RatSeries._make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatSeries":
        """Nonnegative powers only; take reciprocal() first for negative ones."""
        return power(self, k, RatSeries.const(1, self.order))

    # ── calculus ──────────────────────────────────────────────────────

    def derive(self) -> "RatSeries":
        if self.order == 0:
            raise ValueError("derivative of an order-0 series has no coefficients")
        return RatSeries._make([k * self.nums[k] for k in range(1, self.order + 1)], self.den)

    # ── composition-style operations ──────────────────────────────────

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """self(inner); requires inner(0) = 0.

        Horner over the integer numerators of self, acc <- acc inner + nums[k],
        then one division by self's denominator."""
        if inner.nums[0]:
            raise ValueError("composition requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        acc = RatSeries.zero(n)
        for c in reversed(self.nums[: n + 1]):
            acc = acc * inner + c
        return RatSeries._make(acc.nums, acc.den * self.den)

    def exp(self) -> "RatSeries":
        """exp(self); requires constant term 0.

        With self = sum F_j z^j / D, the integer EGF vector j! F_j s^j / D
        stands for self(sz), and its exponential for exp(self)(sz)."""
        if self.nums[0]:
            raise ValueError("exp requires a series vanishing at 0")
        return self._through_egf(_egf_exp, self.den, 1, 1)

    def reciprocal(self) -> "RatSeries":
        """1/self; requires a nonzero constant term.

        With self = sum F_j z^j / D, the integer EGF vector j! F_j s^j / F_0
        stands for self(sz) D / F_0 and has leading entry 1; its inverse
        stands for F_0 / (D self(sz))."""
        f0 = self.nums[0]
        if not f0:
            raise ValueError("reciprocal requires a unit constant term")
        return self._through_egf(_egf_inverse, f0, self.den, f0)

    def _through_egf(self, kernel, d: int, num: int, den: int) -> "RatSeries":
        """num/den times the series with coefficient m equal to k_m / (m! s^m),
        for k = kernel(j! F_j s^j / d) and s = `_egf_scale(F, d)`; built
        over den N! s^N, which every den m! s^m divides."""
        f = self.nums
        s = _egf_scale(f, d)
        scale = list(accumulate(range(1, len(f)), lambda t, m: t * m * s, initial=1))   # m! s^m
        k = kernel([c * t // d for c, t in zip(f, scale)])
        top = scale[-1]
        return RatSeries._make([num * c * (top // t) for c, t in zip(k, scale)], den * top)

    def geom_inverse(self) -> "RatSeries":
        """1/(1 - self); requires constant term 0."""
        if self.nums[0]:
            raise ValueError("geometric inverse requires a series vanishing at 0")
        return (1 - self).reciprocal()

    # ── serialization ─────────────────────────────────────────────────

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def _over_lcm(pairs: Iterable[tuple[int, int]]) -> RatSeries:
    """The series with coefficients a_k / d_k (d_k > 0), over the lcm of the d_k."""
    pairs = list(pairs)
    den = math.lcm(*(d for _, d in pairs))
    return RatSeries._make([a * (den // d) for a, d in pairs], den)


def _egf_scale(f: Sequence[int], d: int) -> int:
    """A scale s with every j! f_j s^j / d an integer, grown greedily.

    Entry j needs g_j = d / gcd(d, j! f_j) to divide s^j; where it does
    not, s is multiplied by g_j / gcd(g_j, s^j).  Prime by prime this keeps
    the exponent of s at most that of d, so s divides d (s = 1 for d = 1).
    Greedy is not always least: for f_j / d = a_j / (j! b^j) with b = 6,
    a_1 = 2 and a_2 = 1, entry 1 sets s = 3 and entry 2 then makes it 12,
    where 6 suffices.  s | d holds all the same.
    g_j is computed as r_j / gcd(r_j, f_j) with r_j = d / gcd(d, j!), and
    the pass ends once r_j = 1.
    """
    s, rest = 1, abs(d)
    for j in range(1, len(f)):
        rest //= math.gcd(rest, j)
        if rest == 1:
            break
        g = rest // math.gcd(rest, f[j])
        if g != 1:
            s *= g // math.gcd(g, pow(s, j, g))
    return s


# ── the tree-function family ──────────────────────────────────────────────

def series_T(alpha: int, order: int) -> RatSeries:
    """sum_{n>=1} n^{n-alpha} z^n / n! truncated at `order`."""
    if order < 0:
        raise ValueError("negative truncation order")
    return _over_lcm([(0, 1)] + [
        (n ** max(n - alpha, 0), math.factorial(n) * n ** max(alpha - n, 0))
        for n in range(1, order + 1)
    ])


def series_W(order: int) -> RatSeries:
    """Principal Lambert W branch: sum_{n>=1} (-n)^{n-1} z^n / n!."""
    if order < 0:
        raise ValueError("negative truncation order")
    return _from_egf(_base_egf("P", order))


def reversion(f: RatSeries) -> RatSeries:
    """Compositional inverse g with f(g) = z, by Lagrange inversion.

    Requires f(0) = 0 and f'(0) != 0.  With h = w/f(w), [z^k] g is
    [w^{k-1}] h^k / k (Flajolet & Sedgewick, Analytic Combinatorics, A.6);
    g has the order of f, and f(g) = z is verified exactly to that order.
    """
    if f.nums[0]:
        raise ValueError("reversion requires a series vanishing at 0")
    if f.order < 1 or not f.nums[1]:
        raise ValueError("reversion requires a nonzero linear coefficient")
    n = f.order
    h = RatSeries._make(f.nums[1:], f.den).reciprocal()  # w/f(w) through w^{n-1}
    pairs, hk = [(0, 1)], h
    for k in range(1, n + 1):
        pairs.append((hk.nums[k - 1], k * hk.den))
        hk = hk * h
    g = _over_lcm(pairs)
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


def _binomial_square(a: Sequence[int], m: int) -> int:
    """_binomial_sum(a, a, m), entry m of a^2, over half the range: the
    terms k and m-k are equal, so k < m/2 is summed and doubled, and for
    even m the centre C(m, m/2) a[m/2]^2 is added once."""
    acc, binom = 0, 1
    for k in range((m + 1) // 2):
        if a[k]:
            acc += binom * a[k] * a[m - k]
        binom = binom * (m - k) // (k + 1)
    acc *= 2
    if m % 2 == 0:
        acc += binom * a[m // 2] ** 2   # binom is C(m, m/2) here
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
    return _over_lcm((c, math.factorial(k)) for k, c in enumerate(e))


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
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
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
    t_over_z = RatSeries._make(t.nums[1:], t.den)  # T/z, valid since T(0) = 0
    if t2.derive() != t_over_z:
        failures.append("T_2' != T/z")
    if t - t * t * Fraction(1, 2) != t2:
        failures.append("T - T^2/2 != T_2")
    minus_w_minus_z = RatSeries._make([-c if k % 2 == 0 else c for k, c in enumerate(w.nums)], w.den)
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
        sigma = RatSeries._make(sigma.nums[: p + 1] + (0,) * (p - sigma.order), sigma.den)
        e = a * sigma.exp()
        sigma = sigma - (sigma + s0 - e) * (1 - e).reciprocal()
    if sigma + s0 != RatSeries([s0, 1 - s0], order) * sigma.exp():
        raise ArithmeticError("shifted tree series failed to converge")  # unreachable
    return sigma


def check_egf_theorem(
    x_samples: Sequence[Fraction | int],
    n_max: int,
    *,
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
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    order = n_max + 2   # the truncation order of S
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
            s = series[fam]
            if s.coeff(0) != constants[fam]:
                return CheckReport.fail(
                    name, f"family {fam}, x={x}: constant term {s.coeff(0)} != {constants[fam]}",
                    x_samples=xs, n_max=n_max, order=order,
                )
            for n in range(1, n_max + 1):
                row = polys[fam][n - 1]
                e = max(row.degree, 0)
                qe = x.denominator ** e
                want = _scaled_value(row, x.numerator, x.denominator, e)   # q^e X_n(p/q)
                if s.nums[n] * math.factorial(n) * qe != want * s.den:
                    return CheckReport.fail(
                        name, f"family {fam}, x={x}, n={n}: series gives {s.egf_coefficient(n)}, "
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
    integer (E = 0 for the generated rows).  The terms k and n-k of the
    convolution are equal, so it is summed over k < n/2 and doubled, plus
    the centre C(n, n/2) g_{n/2}^2 for even n.  A failure reports the first
    mismatching u^n coefficient as the two rationals H_n(x)/n! and
    [u^n](G~ - ((1+x)/2) G~^2).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
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
            conv = _binomial_square(g, n)   # the k = 0 and k = n terms vanish: g[0] = 0
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
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
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
