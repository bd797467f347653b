"""Exact integer polynomials and the census sequences of the tree function.

The tree function T(z) = -W(-z) = sum_{n>=1} n^{n-1} z^n/n! satisfies
T = z e^T.  Its derivatives, and those of 1/(1-T) and of the unrooted-tree
series sum n^{n-2} z^n/n!, are governed by three sequences of integer
polynomials generated by first-order recursions of the common shape

    X_{n+1}(x) = ((2n+c) + (n+c) x) X_n(x) + (1+x)^2 X_n'(x),      X_1 = 1,

with c = 2 for F, 0 for G and -1 for H (``FAMILIES`` holds each family's facts).
Substituting x = y - 1 gives the shifted rows Y_n(y) = X_n(y-1) their own
recursion, whose coefficients are all nonnegative:

    Y_{n+1}(y) = (n + (n+c) y) Y_n(y) + y^2 Y_n'(y),                   Y_1 = 1.

``gen_F/G/H(n, shifted=True)`` runs it; ``shift`` stays the exact oracle.
Each recursion, like that of P below, is a three-term recurrence on the
coefficients, so the rows are built on tuples of ints and wrapped in ``Poly``
once each.

* ``G_n`` counts rooted Greg trees with n labeled vertices by number of
  unlabeled vertices (coefficient triangle A048160 in the OEIS); the
  shifted rows G_n(x-1) and H_n(x-1) count Cayley trees by improper edges.
* ``H_n`` counts unrooted Greg trees the same way (A048159).
* ``F_n`` counts bi-rooted Greg trees after multiplication by (1+x)^3.
* ``P_n`` is the derivative polynomial of the principal Lambert W branch,
  generated by its own recursion P_{n+1} = (1+x) P_n' - ((3n-1) + nx) P_n
  from W' = e^{-W}/(1+W), not from G_n, so the G/P reciprocity stays a check.
* ``Q_{n,k}`` is a Ramanujan-style refinement whose specializations at
  x = -1, 0, 1 recover the shifted F, G and H rows.  Its rows
  R_n(t) = sum_k Q_{n,k}(x) t^k follow the shifted G recursion with x added
  to the constant term, R_{n+1} = (x + n + n t) R_n + t^2 R_n', R_1 = 1
  (so R_n at x = 0 is G_n(t-1)), run by the same row step on ``Poly`` entries.

Everything is exact: coefficients are Python ints, and the hot paths (the
row recurrences and ``shift``) run on plain ints.  ``Poly.__call__`` is exact
at an int or a ``Fraction``; ``series`` evaluates rows at a rational point on
integers by homogeneous Horner instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable


def power(base, k: int, one):
    """base**k by binary powering; `one` is the unit of base's ring."""
    if k < 0:
        raise ValueError(f"negative power {k}")
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


class Poly:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + (-other)

    def __rsub__(self, other: int) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return Poly(other * c for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        return power(self, k, Poly((1,)))

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction/Poly/RatSeries, works for float/complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            a = abs(c)
            if k == 0:
                body = str(a)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if a == 1 else f"{a}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, lowest degree first."""
        return [str(c) for c in self.coeffs]


X = Poly((0, 1))


# ── the families ──────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Family:
    """One family X: c is its recursion offset, and with the base series
    T_alpha, d^n T_alpha = e^{nT} (1-T)^{-(n+c)} X_n(T/(1-T)); on the W side
    X_n gives d^n of the Bernstein function ``bernstein``, with exponent n + c."""

    name: str
    c: int
    alpha: int
    census: tuple[tuple[str, int], ...]   # (Greg tree variant, k): census (1+x)^k X_n
    imp: str | None                       # Cayley variant with imp census X_n(x-1)
    bernstein: str


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("F", c=2, alpha=0, census=(("birooted", 3),), imp=None, bernstein="ratio"),
    Family("G", c=0, alpha=1, census=(("rooted", 0), ("relaxed", 1)), imp="rooted",
           bernstein="W"),
    Family("H", c=-1, alpha=2, census=(("unrooted", 0),), imp="unrooted",
           bernstein="half-square"),
)}


def census_family(variant: str) -> tuple[Family, int]:
    """The family X and the k with (1+x)^k X_n the census of `variant` Greg trees."""
    return next((f, k) for f in FAMILIES.values() for v, k in f.census if v == variant)


def imp_family(rooted: bool) -> Family:
    """The family X with X_n(x-1) the improper-edge census of Cayley trees."""
    return next(f for f in FAMILIES.values() if f.imp == ("rooted" if rooted else "unrooted"))


# ── generators ────────────────────────────────────────────────────────────

def _rows(n_max: int, lin: Callable[[int], tuple[int, int]],
          mult: tuple[int, int, int]) -> list[Poly]:
    """X_1 = 1 and X_{n+1} = (a0 + a1 x) X_n + (m0 + m1 x + m2 x^2) X_n',
    rows 1..n_max, with (a0, a1) = lin(n) and (m0, m1, m2) = mult, each
    step taken by `_row_step` on tuples of ints and wrapped in ``Poly``
    once."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out = [Poly((1,))][:n_max]
    for n in range(1, n_max):
        out.append(Poly(_row_step(out[-1].coeffs, *lin(n), mult)))
    return out


def _row_step(row: tuple, a0: int | Poly, a1: int,
              mult: tuple[int, int, int]) -> list:
    """Coefficients of (a0 + a1 x) X + (m0 + m1 x + m2 x^2) X' for X with
    coefficients `row`: the three-term recurrence

        [x^u] = (a0 + m1 u) a_u + (a1 + m2 (u-1)) a_{u-1} + m0 (u+1) a_{u+1}.

    The entries of `row` and a0 are ints, or ``Poly``s in a second variable
    (the Q rows).  With m0 = 0 (the shifted rows and Q, where m1 = 0 too)
    the last term is dropped and a0 taken as it stands, so ``Poly`` entries
    build no zero terms.
    """
    m0, m1, m2 = mult
    if not m0:
        return [(a0 + m1 * u if m1 else a0) * a + (a1 + m2 * (u - 1)) * below
                for u, (a, below) in enumerate(zip(row + (0,), (0,) + row))]
    return [(a0 + m1 * u) * a + (a1 + m2 * (u - 1)) * below + m0 * (u + 1) * above
            for u, (a, below, above) in enumerate(zip(row + (0,), (0,) + row, row[1:] + (0, 0)))]


def _family_recurrence(c: int, shifted: bool):
    """(lin, mult) of `_rows` for the family with recursion offset c, or
    with `shifted` for its rows X_n(x-1)."""
    if shifted:
        return (lambda n: (n, n + c)), (0, 0, 1)
    return (lambda n: (2 * n + c, n + c)), (1, 2, 1)


def _family_rows(name: str, n_max: int, shifted: bool) -> list[Poly]:
    """Rows X_1..X_{n_max}, or with `shifted` the rows X_n(x-1) from their own recursion."""
    return _rows(n_max, *_family_recurrence(FAMILIES[name].c, shifted))


def gen_F(n_max: int, shifted: bool = False) -> list[Poly]:
    """F_1..F_{n_max}: derivative polynomials of 1/(1-T); deg F_n = n-1.
    With `shifted`, the rows F_n(x-1)."""
    return _family_rows("F", n_max, shifted)


def gen_G(n_max: int, shifted: bool = False) -> list[Poly]:
    """G_1..G_{n_max}: rooted Greg tree census polynomials; deg G_n = n-1.
    With `shifted`, the rows G_n(x-1)."""
    return _family_rows("G", n_max, shifted)


def gen_H(n_max: int, shifted: bool = False) -> list[Poly]:
    """H_1..H_{n_max}: unrooted Greg tree census polynomials; deg H_n = max(n-2, 0).
    With `shifted`, the rows H_n(x-1)."""
    return _family_rows("H", n_max, shifted)


def gen_P(n_max: int) -> list[Poly]:
    """P_1..P_{n_max}: Lambert W derivative polynomials.

    P_1 = 1 and P_{n+1} = (1+x) P_n' - ((3n-1) + nx) P_n.  (-1)^{n-1} P_n
    has positive unimodal coefficients and degree n-1.
    """
    return _rows(n_max, lambda n: (1 - 3 * n, -n), (1, 1, 0))


def gen_Q(n_max: int) -> list[tuple[Poly, ...]]:
    """Q rows 1..n_max: row n holds Q_{n,0}..Q_{n,n-1}, with Q_{1,0} = 1 and

        Q_{n,k} = (x + n - 1) Q_{n-1,k} + (n + k - 2) Q_{n-1,k-1}

    (out-of-range entries zero).  In R_n(t) = sum_k Q_{n,k}(x) t^k this is
    R_{n+1} = (x + n + n t) R_n + t^2 R_n', the shifted G recursion with x
    added to its constant term, so each row is one `_row_step` on ``Poly``
    entries.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rows = [(Poly((1,)),)][:n_max]
    for n in range(1, n_max):
        rows.append(tuple(_row_step(rows[-1], Poly((n, 1)), n, (0, 0, 1))))
    return rows


# ── operations ────────────────────────────────────────────────────────────

def shift(p: Poly, a: int) -> Poly:
    """The polynomial q with q(x) = p(x + a), computed exactly over Z.

    A Taylor shift by repeated synthetic division: the coefficients are
    first scaled to those of p(ax) and listed top degree first, so shifting
    by 1 is d in-place prefix sums (for i = d..1 the first i + 1 entries,
    c_d..c_{d-i}, become their running sums), and the scaling is undone, as
    q_k = [x^k] p(a(x + 1)) / a^k exactly.  `a` must be an int: p(x + 1/2)
    need not have integer coefficients.
    """
    if not isinstance(a, int):
        raise TypeError(f"shift by an int only, got {type(a).__name__}")
    if not a:
        return p
    r = [ck * a ** k for k, ck in enumerate(p.coeffs)][::-1]   # p(ax), top first
    for i in range(len(r) - 1, 0, -1):
        r[:i + 1] = accumulate(r[:i + 1])
    return Poly(ck // a ** k for k, ck in enumerate(reversed(r)))


def double_factorial(k: int) -> int:
    """k!! with the usual empty-product conventions ((-1)!! = 0!! = 1)."""
    if k < -1:
        raise ValueError("double factorial of an integer below -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out
