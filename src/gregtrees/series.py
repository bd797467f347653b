"""Truncated formal power series, exact on integer EGF vectors.

A list e of ints stands for the series sum_k e[k] z^k/k!, truncated after
entry len(e) - 1: the EGF vector, whose entry k is k! times the coefficient
of z^k.  Every series the checks build has integer entries in this form:
T, W, log 1/(1-T), log 1/(1+W), e^{nT} (1-T)^{-k}, T/(1-T), z/(1+z), and
the tree series at x = p/q once entry n is scaled by q^n.  Products are
binomial convolutions, and exp, inverse, composition and reversion are
integer recursions on those convolutions, so no floating point and no
fraction arithmetic enters any series.  The n-th derivative of a series is
its vector shifted by n.  Truncation keeps a prefix, so the closed forms
of one check share one cached depth: ``rhs_series`` sums a row over the
powers of T/(1-T), or of W, made once at the order of the base series and
read to the order each closed form needs.

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
from decimal import Decimal
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .polys import FAMILIES, Poly, gen_F, gen_G, gen_H, gen_P, imp_family, shift
from .report import CheckReport


# ── the tree-function family ──────────────────────────────────────────────

def series_T(alpha: int, order: int) -> list[int]:
    """EGF vector of T_alpha = sum_{n>=1} n^{n-alpha} z^n/n! through z^order,
    for alpha in {0, 1, 2}: entry n is n^{n-alpha}, an integer (the one
    negative exponent, 1^{-1}, is 1)."""
    if alpha not in (0, 1, 2):
        raise ValueError(f"alpha must be 0, 1 or 2, got {alpha}")
    if order < 0:
        raise ValueError("negative truncation order")
    return [0] + [n ** max(n - alpha, 0) for n in range(1, order + 1)]


def series_W(order: int) -> list[int]:
    """EGF vector of the principal Lambert W branch through z^order: entry n
    is (-n)^{n-1}."""
    if order < 0:
        raise ValueError("negative truncation order")
    return [0] + [(-n) ** (n - 1) for n in range(1, order + 1)]


# ── integer EGF vectors ───────────────────────────────────────────────────

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


def _egf_compose(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f(g) for g[0] = 0, to the shorter length: the sum of f[k] g^k/k!.
    g^k/k! is an integer vector (entry m sums, over the partitions of m
    labels into k blocks, the product of g at the block sizes), stepped from
    g^{k-1}/(k-1)! by one exact division by k."""
    if g[0]:
        raise ValueError("composition requires the inner series to vanish at 0")
    n = min(len(f), len(g))
    out, term = [0] * n, [1] + [0] * (n - 1)   # term = g^k/k!
    for k in range(n):
        if k:
            term = [c // k for c in _egf_mul(term, g)]
        out = [a + f[k] * c for a, c in zip(out, term)]
    return out


def _egf_reversion(f: Sequence[int]) -> list[int]:
    """The compositional inverse g, f(g) = z, by Lagrange inversion.

    With h = w/f(w), [z^k] g is [w^{k-1}] h^k / k (Flajolet & Sedgewick,
    Analytic Combinatorics, A.6), so entry k of g is entry k-1 of h^k.
    f(w)/w has entries f[j]/j (j >= 1); they must be integers, with
    f[1] = 1, for h to be an integer vector, and ValueError says otherwise.
    """
    if f[0] or (len(f) > 1 and f[1] != 1) or any(c % j for j, c in enumerate(f) if j):
        raise ValueError("reversion requires f[0] = 0, f[1] = 1 and j | f[j]")
    h = _egf_inverse([c // j for j, c in enumerate(f) if j])   # w/f(w)
    g, hk = [0], h
    for k in range(1, len(f)):
        g.append(hk[k - 1])
        hk = _egf_mul(hk, h)
    return g


def _egf_text(e: Sequence[int], k: int) -> str:
    """Coefficient k of the series, e[k]/k!, as a fraction in lowest terms:
    the text of ``str(Fraction)``, with numerator and denominator written
    through ``Decimal``, which converts an int exactly and has no digit
    limit, where ``str(int)`` refuses past 4300 digits."""
    q = Fraction(e[k], math.factorial(k))
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


# ── closed forms of the n-th derivatives ──────────────────────────────────

def _check_family(family: str) -> None:
    if family != "P" and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")


def _gen(family: str, n_max: int) -> list[Poly]:
    return globals()[f"gen_{family}"](n_max)  # by name: wrappers on gen_* see it


@cache
def _display_series(w: bool, order: int) -> tuple[tuple[int, ...], ...]:
    """(T, log 1/(1-T), T/(1-T)), or for `w` (W, log 1/(1+W), W), through
    z^order, as cached tuples.  Entry j of the log is entry j-1 of its
    derivative, T'/(1-T) resp. -W'/(1+W), an integer vector."""
    f = series_W(order) if w else series_T(1, order)
    sign = -1 if w else 1
    inverse = _egf_inverse([1] + [-sign * c for c in f[1:]])   # 1/(1-T), 1/(1+W)
    log = [0] + [sign * c for c in _egf_mul(f[1:], inverse)]
    return tuple(f), tuple(log), tuple(f if w else [0] + inverse[1:])


@cache
def _display_power(w: bool, depth: int, j: int) -> tuple[int, ...]:
    """(T/(1-T))^j, or for `w` W^j, through z^depth, each power the one
    before it times the argument of `_display_series`; `rhs_series` asks
    for them in rising j, so each step finds the one before cached."""
    if not j:
        return (1,) + (0,) * depth
    return tuple(_egf_mul(_display_power(w, depth, j - 1), _display_series(w, depth)[2]))


def rhs_series(family: str, n: int, order: int, poly: Poly | None = None) -> list[int]:
    """EGF vector, through z^order, of the closed form of the n-th derivative
    of the family's base series.

    F: e^{nT} (1-T)^{-(n+2)} F_n(T/(1-T))   for T_0 = 1/(1-T)
    G: e^{nT} (1-T)^{-n}     G_n(T/(1-T))   for T_1 = T
    H: e^{nT} (1-T)^{-(n-1)} H_n(T/(1-T))   for T_2 = T - T^2/2
    P: e^{-nW} (1+W)^{-(2n-1)} P_n(W)       for W itself

    The factor before X_n is one exp, of nT + k log 1/(1-T) or of
    -nW + (2n-1) log 1/(1+W).  X_n is summed over the cached powers of its
    argument (`_display_power`), none past z^order, as the power j starts
    at z^j.  The series and the powers are cached at depth order + n, the
    order of the base series whose n-th derivative this is, so the closed
    forms of one check, for every n, share them; each is read to z^order,
    as EGF truncation is a prefix.  A given `poly` stands in for row n.
    """
    if n < 1:
        raise ValueError("derivative index must be >= 1")
    _check_family(family)
    if order < 0:
        raise ValueError("negative truncation order")
    if poly is None:
        poly = _gen(family, n)[n - 1]
    w, depth = family == "P", order + n
    a, k = (-n, 2 * n - 1) if w else (n, n + FAMILIES[family].c)
    base, log, _ = _display_series(w, depth)
    factor = _egf_exp([a * b + k * c for b, c, _ in zip(base, log, range(order + 1))])
    value = [0] * (order + 1)
    for j, c in enumerate(poly.coeffs[:order + 1]):
        power = _display_power(w, depth, j)
        if c:
            value = [v + c * e for v, e in zip(value, power)]
    return _egf_mul(factor, value)


def _display_gap(family: str, n: int, order: int, poly: Poly, base: Sequence[int]) -> tuple:
    """d^n of the `base` EGF vector through z^order, beside the closed form
    of `rhs_series` with `poly` as row n: (the index of the first entry
    where they differ, over their common length, or None; d^n base; the
    closed form)."""
    derivative = base[n:]
    display = rhs_series(family, n, order - n, poly)
    k = next((i for i, (a, b) in enumerate(zip(derivative, display)) if a != b), None)
    return k, derivative, display


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
    base = series_W(order) if family == "P" else series_T(FAMILIES[family].alpha, order)
    for n in range(1, n_max + 1):
        k, lhs, rhs = _display_gap(family, n, order, polys[n - 1], base)
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
    carries the explicit constant 1 on the T_0 side.  On EGF vectors,
    T_2' = T/z reads k t2[k] = t[k] (z f' has entries k f[k]), and
    2 T_2 = 2T - T^2 keeps the halving off the integers.
    """
    _check_order(order)
    t = series_T(1, order)
    t0 = series_T(0, order)
    t2 = series_T(2, order)
    w = series_W(order)
    failures = []
    if _egf_inverse([1] + [-c for c in t[1:]]) != [1] + t0[1:]:
        failures.append("1/(1-T) != 1 + T_0")
    if [k * c for k, c in enumerate(t2)] != t:
        failures.append("T_2' != T/z")
    if [2 * c - _binomial_square(t, k) for k, c in enumerate(t)] != [2 * c for c in t2]:
        failures.append("T - T^2/2 != T_2")
    if [-c if k % 2 == 0 else c for k, c in enumerate(w)] != t:
        failures.append("-W(-z) != T")
    if failures:
        return CheckReport.fail("basic-identities", "; ".join(failures), order=order)
    return CheckReport.ok("basic-identities", order=order)


def check_reversion_lemma(order: int) -> CheckReport:
    """The inverse of T/(1-T) is (z/(1+z)) e^{-z/(1+z)}; the inverse of z e^{-z} is T."""
    _check_order(order)
    t = series_T(1, order)
    z = [int(k == 1) for k in range(order + 1)]
    ratio = _egf_mul(t, _egf_inverse([1] + [-c for c in t[1:]]))   # T/(1-T)
    frac = _egf_mul(z, _egf_inverse([1] + z[1:]))   # z/(1+z)
    target = _egf_mul(frac, _egf_exp([-c for c in frac]))
    failures = []
    try:
        reverts = _egf_reversion(ratio) == target
    except ValueError:   # only a wrong T gets here: w/f(w) of T/(1-T) has entries (m+1)^m
        reverts = False
    if not reverts:
        failures.append("reversion(T/(1-T)) != (z/(1+z))e^{-z/(1+z)}")
    if _egf_compose(ratio, target) != z:
        failures.append("(T/(1-T)) o ((z/(1+z))e^{-z/(1+z)}) != z")
    if _egf_reversion(_egf_mul(z, _egf_exp([-c for c in z]))) != t:
        failures.append("reversion(z e^{-z}) != T")
    if failures:
        return CheckReport.fail("reversion-lemma", "; ".join(failures), order=order)
    return CheckReport.ok("reversion-lemma", order=order)


# ── generating function in the census variable ────────────────────────────

def _shifted_tree_egf(p: int, q: int, n_max: int) -> list[int]:
    """Sigma_n = q^n sigma_n for n = 0..n_max, where sigma is the u-series
    with T(((u+x)/(1+x)) e^{-x/(1+x)}) = s0 + sigma at x = p/q, s0 = x/(1+x).

    Substituting into T = z e^T and cancelling e^{-x/(1+x)} leaves

        s0 + sigma = (s0 + (1-s0) u) e^sigma,  sigma(0) = 0.

    With e_n the EGF entries of e^sigma, E' = sigma' E gives
    e_n = sigma_n + r_n, r_n = sum_{k<n} C(n-1,k-1) sigma_k e_{n-k}, and
    entry n of the equation solves to sigma_n = x r_n + n e_{n-1}.  So
    sigma_n and e_n are integer polynomials in x of degree at most n-1, and
    r_n of degree at most n-2.  Scaled by q^n, as Sigma_n, E_n and R_n,
    every term is an integer:

        Sigma_n = n q E_{n-1} + p (R_n / q),   E_n = Sigma_n + R_n.
    """
    ds, e = [], [1]   # ds[k] = Sigma_{k+1}, e[k] = E_k
    for n in range(1, n_max + 1):
        ds.append(0)   # so the sum leaves out the unknown Sigma_n E_0
        r = _binomial_sum(ds, e, n - 1)
        ds[-1] = n * q * e[-1] + p * (r // q)
        e.append(ds[-1] + r)
    return [0] + ds


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

    checked exactly at each sample for n = 1..n_max; the constant terms hold
    by construction, since sigma(0) = 0.  At x = p/q the tree series comes
    from `_shifted_tree_egf` as Sigma_n = q^n G_n(x), and g_n = Sigma_n / q is
    q^{n-1} G_n(x).  Then q^n (1+x) F_n(x) is entry n of the inverse of
    1 - (1+x) sigma, whose scaled entries are -(p+q) g_n, and
    2 q^{n-1} H_n(x) = 2 g_n - (p+q) sum_k C(n,k) g_k g_{n-k}, the form of
    `check_gh_functional`.  The row side is evaluated on integers,
    q^deg X_n(p/q), and the two are compared by cross-multiplying.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    order = n_max + 2   # the truncation order the report names
    if polys is None:
        polys = {family: _gen(family, n_max) for family in FAMILIES}
    elif any(len(polys[family]) < n_max for family in FAMILIES):
        raise ValueError(f"fewer than n_max = {n_max} rows given")
    name = "egf-theorem"
    xs = [Fraction(x) for x in x_samples]
    for x in xs:
        if x == -1:
            raise ValueError("x = -1 is outside the domain of the substitution")
        p, q = x.numerator, x.denominator
        g = [c // q for c in _shifted_tree_egf(p, q, n_max)]
        f = _egf_inverse([1] + [-(p + q) * c for c in g[1:]])
        h = [2 * c - (p + q) * _binomial_square(g, n) for n, c in enumerate(g)]
        # family -> (numerators, c): X_n(x) on the series side is num[n] / (c q^{n-1})
        series = {"F": (f, p + q), "G": (g, 1), "H": (h, 2)}
        for fam in ("F", "G", "H"):
            num, c = series[fam]
            for n in range(1, n_max + 1):
                row = polys[fam][n - 1]
                e = max(row.degree, 0)
                qe = q ** e
                want = _scaled_value(row, p, q, e)   # q^e X_n(p/q)
                den = c * q ** (n - 1)
                if num[n] * qe != want * den:
                    return CheckReport.fail(
                        name, f"family {fam}, x={x}, n={n}: series gives {Fraction(num[n], den)}, "
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
    _check_order(order)
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
    _check_order(order)
    name = f"imp-census-series-{'rooted' if rooted else 'unrooted'}"
    family = imp_family(rooted)
    base = series_T(family.alpha, order)
    for n in sorted(censuses):
        if n < 1:
            raise ValueError("derivative index must be >= 1")
        if n > order:
            raise ValueError(f"derivative order {n} exceeds truncation order {order}")
        # sum_j c_j (1-T)^{-j} is C(1 + T/(1-T)) for C(x) = sum_j c_j x^j
        k, lhs, display = _display_gap(family.name, n, order, shift(Poly(censuses[n]), 1), base)
        if k is not None:
            return CheckReport.fail(
                name, f"n={n}: coefficient of z^{k}: census side {_egf_text(display, k)}, "
                      f"derivative {_egf_text(lhs, k)}",
                n_values=sorted(censuses), order=order, rooted=rooted,
            )
    return CheckReport.ok(name, n_values=sorted(censuses), order=order, rooted=rooted)
