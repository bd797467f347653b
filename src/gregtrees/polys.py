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

``gen_F/G/H(n, shifted=True)`` runs it.  It is the conjugate of the first
under x = y - 1 (``_conjugate``, which derives it, and P's, from the
unshifted recurrence), so a step of one is a step of the other shifted:
the suite steps each shifted row it reads from the row before, and
``shift``, the exact Taylor shift, runs there only where a handed row
departs from the recurrence.
Each recursion, like that of P below, is a three-term recurrence on the
coefficients, so one loop, ``_rows``, steps every table on tuples of
coefficients, one row at a time (``_stepper``); ``table_rows`` hands out
the rows of every table, Q included, as they are stepped, and ``gen_*``
list them, each F, G, H or P row as a ``Poly``.

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
  (so R_n at x = 0 is G_n(t-1)), built by the same loop on ``Poly`` entries.

Everything is exact: coefficients are Python ints, and ``shift`` runs on
plain ints.  The one exception is the CLI's F, G, H and P tables, stepped
by ``table_rows`` in ``Decimal`` integers, because their decimal text is
what the CLI writes; ``_stepper`` holds the context they are stepped under,
``_EXACT``, so they are exact or raise whatever the caller's context is.
``_stepper`` steps int, ``Decimal`` and ``Poly`` entries alike: it makes
the recurrence's multipliers in the entries' ring once per table, and
``_row_step`` combines them with a row by C-level maps, so no coefficient
pays a conversion from int, and refuses a ring too short for the row.
``Poly.__call__`` is exact at an int or a ``Fraction``; ``series``
evaluates rows at a rational point on integers by homogeneous Horner
instead.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator


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
        """Nonnegative powers, by binary powering."""
        if k < 0:
            raise ValueError(f"negative power {k}")
        out, base = Poly((1,)), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction/Poly, works for float/complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            # zero, sign and unit are read off the text: on a Decimal of
            # hundreds of digits each compare with an int converts the int
            body = str(self.coeffs[k])
            if body == "0":
                continue
            if body[0] == "-":
                sign, body = "-", body[1:]
            else:
                sign = "+" if parts else ""
            if k:
                var = "x" if k == 1 else f"x^{k}"
                body = var if body == "1" else body + var
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, lowest degree first."""
        return [str(c) for c in self.coeffs]


X = Poly((0, 1))

# Decimal entries are stepped under this context: every digit held, any rounding raised
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


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

def _rows(n_max: int, lin: Callable[[int], tuple], mult: tuple[int, int, int],
          one=1) -> Iterator[tuple]:
    """X_1 = 1 and X_{n+1} = (a0 + a1 x) X_n + (m0 + m1 x + m2 x^2) X_n',
    rows 1..n_max as coefficient tuples (which may end in zeros), each
    stepped by `_stepper` only when the one before it has been taken, with
    (a0, a1) = lin(n) and (m0, m1, m2) = mult.  The entries lie in the ring
    of `one`: ints for 1, ``Decimal`` integers for ``Decimal(1)``, ``Poly``
    entries for ``Poly((1,))`` (there a0 is a ``Poly`` and m1 = 0)."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not n_max:
        return
    step = _stepper(n_max, lin, mult, one)
    row = (one,)
    yield row
    for n in range(1, n_max):
        row = step(row, n)
        yield row


def _stepper(n_max: int, lin: Callable[[int], tuple], mult: tuple[int, int, int],
             one=1) -> Callable[[tuple, int], tuple]:
    """step(row, n) for 1 <= n < n_max: `_row_step` of a row of at most n
    entries, with (a0, a1) = lin(n), which is row n + 1 of the recurrence
    of `_rows` when row is its row n.  The strided multipliers are made once
    for all the steps (`_ring`), so no step converts an int per entry.
    They are made, and each ``Decimal`` or ``Poly`` row stepped, under
    `_EXACT`, entered and left around that work, so ``Decimal`` rows are
    exact or raise whatever the caller's context is, and the caller's
    context is left as it was; int rows need no context."""
    steps = [lin(n) for n in range(1, n_max)]
    # row n has n entries, so step n reads each strided sequence at u = 0..n,
    # whose ends are those at u = 0 and u = n; lin is affine in n (every
    # table's is), so over the steps they are those of the first and last
    # step.  The ring's zero pads the rows and its unit makes the unstrided terms
    ends = [0, 1] + [start + stride * u for n in ({1, len(steps)} if steps else ())
                     for start, stride in _strides(*steps[n - 1], mult) if stride for u in (0, n)]
    with decimal.localcontext(_EXACT):
        ring = _ring(one, min(ends), max(ends))
    if type(one) is int:
        return lambda row, n: _row_step(row, *steps[n - 1], mult, ring)

    def step(row: tuple, n: int) -> tuple:
        with decimal.localcontext(_EXACT):
            return _row_step(row, *steps[n - 1], mult, ring)
    return step


def _strides(a0, a1: int, mult: tuple[int, int, int]) -> tuple[tuple, tuple, tuple]:
    """(start, stride) of the multipliers of a_u, a_{u-1} and a_{u+1} in
    `_row_step`'s recurrence, each start + stride u."""
    m0, m1, m2 = mult
    return (a0, m1), (a1 - m2, m2), (m0, m0)


def _ring(one, lo: int, hi: int) -> tuple[int, list]:
    """(lo, [one * k for lo <= k <= hi]): the multipliers of `_row_step`,
    made once; lo <= 0 < hi, so the ring's zero and unit are among them."""
    return lo, [one * k for k in range(lo, hi + 1)]


def _row_step(row: tuple, a0, a1: int, mult: tuple[int, int, int], ring: tuple[int, list]) -> tuple:
    """Coefficients of (a0 + a1 x) X + (m0 + m1 x + m2 x^2) X' for X with
    coefficients `row`: the three-term recurrence

        [x^u] = (a0 + m1 u) a_u + (a1 + m2 (u-1)) a_{u-1} + m0 (u+1) a_{u+1}.

    Each multiplier sequence, start + stride u for u = 0..len(row), is a
    slice of `ring`'s list if its stride is nonzero, else ``one * start``
    made once for the row; C-level maps multiply and add, with the ring's
    zero as padding.  Where m0 = 0 (the shifted tables and Q) the a_{u+1}
    term is left out, not added as zeros.  The entries of `row` are ints,
    ``Decimal`` integers, or ``Poly``s in a second variable (the Q rows,
    where a0 is a ``Poly`` too); `ring`'s list is in their ring and holds
    0, 1 and every value a strided sequence reaches.
    """
    lo, values = ring
    zero, one = values[-lo], values[1 - lo]
    n = len(row)
    strides = _strides(a0, a1, mult)
    a, b, c = (values[start - lo:start - lo + stride * n + 1:stride] if stride else
               repeat(one * start) for start, stride in strides)
    for (start, stride), seq in zip(strides, (a, b, c)):
        if stride and (start < lo or len(seq) <= n):
            raise ValueError(f"the ring {lo}..{lo + len(values) - 1} misses multipliers "
                             f"{start} + {stride} u for a row of {n} entries")
    terms = map(add, map(mul, a, row + (zero,)), map(mul, b, (zero,) + row))
    return tuple(map(add, terms, map(mul, c, row[1:] + (zero, zero))) if mult[0] else terms)


def _conjugate(lin: Callable[[int], tuple], mult: tuple[int, int, int]):
    """(lin', mult') of `_rows` for the rows Y_n(y) = X_n(y-1) of the
    recurrence (lin, mult):

        a0' = a0 - a1,   a1' = a1,   mult' = (m0 - m1 + m2, m1 - 2 m2, m2).

    Lemma (conjugacy): for every polynomial R, the step of (lin', mult')
    at n maps R(y-1) to S(y-1), S the step of (lin, mult) at n from R.
    Put x = y - 1, so d/dx = d/dy:  a0 + a1 x = (a0 - a1) + a1 y and
    m0 + m1 x + m2 x^2 = (m0 - m1 + m2) + (m1 - 2 m2) y + m2 y^2.  So Y_1 = 1
    and the conjugate recurrence give the rows X_n(y-1), and both steps are
    linear in R."""
    m0, m1, m2 = mult

    def lin_shifted(n: int) -> tuple:
        a0, a1 = lin(n)
        return a0 - a1, a1
    return lin_shifted, (m0 - m1 + m2, m1 - 2 * m2, m2)


def _family_recurrence(c: int):
    """(lin, mult) of `_rows` for the family with recursion offset c."""
    return (lambda n: (2 * n + c, n + c)), (1, 2, 1)


def _recurrence(name: str, shifted: bool = False):
    """(lin, mult) of `_rows` for the table F, G, H or P, or with `shifted`
    its conjugate, for the rows X_n(x-1) (`_conjugate`)."""
    if name == "P":
        lin, mult = (lambda n: (1 - 3 * n, -n)), (1, 1, 0)
    else:
        lin, mult = _family_recurrence(FAMILIES[name].c)
    return _conjugate(lin, mult) if shifted else (lin, mult)


def table_rows(name: str, n_max: int, shifted: bool = False, one=1) -> Iterator[tuple]:
    """Rows 1..n_max of the table `name`, F, G, H, P or Q, or with `shifted`
    the rows X_n(x-1) of F, G or H from their own recursion: coefficient
    tuples, which may end in zeros, each stepped as it is taken.  The
    entries lie in the ring of `one`; the Q rows' entries are ``Poly``s
    over it (see `gen_Q`).  With ``Decimal(1)`` they are ``Decimal``
    integers, whose decimal text takes time linear in its length, where
    ``str`` of an int is quadratic.  `_rows` makes each multiplier in that
    ring once per table, so the lin and mult here stay plain ints."""
    if shifted and name in ("P", "Q"):
        raise ValueError(f"{name} has no shifted table")
    if name == "Q":
        lin, mult, one = (lambda n: (Poly((n, 1)), n)), (0, 0, 1), Poly((one,))
    else:
        lin, mult = _recurrence(name, shifted)
    return _rows(n_max, lin, mult, one)


def gen_F(n_max: int, shifted: bool = False) -> list[Poly]:
    """F_1..F_{n_max}: derivative polynomials of 1/(1-T); deg F_n = n-1.
    With `shifted`, the rows F_n(x-1)."""
    return list(map(Poly, table_rows("F", n_max, shifted)))


def gen_G(n_max: int, shifted: bool = False) -> list[Poly]:
    """G_1..G_{n_max}: rooted Greg tree census polynomials; deg G_n = n-1.
    With `shifted`, the rows G_n(x-1)."""
    return list(map(Poly, table_rows("G", n_max, shifted)))


def gen_H(n_max: int, shifted: bool = False) -> list[Poly]:
    """H_1..H_{n_max}: unrooted Greg tree census polynomials; deg H_n = max(n-2, 0).
    With `shifted`, the rows H_n(x-1)."""
    return list(map(Poly, table_rows("H", n_max, shifted)))


def gen_P(n_max: int) -> list[Poly]:
    """P_1..P_{n_max}: Lambert W derivative polynomials.

    P_1 = 1 and P_{n+1} = (1+x) P_n' - ((3n-1) + nx) P_n.  (-1)^{n-1} P_n
    has positive unimodal coefficients and degree n-1.
    """
    return list(map(Poly, table_rows("P", n_max)))


def gen_Q(n_max: int) -> list[tuple[Poly, ...]]:
    """Q rows 1..n_max: row n holds Q_{n,0}..Q_{n,n-1}, with Q_{1,0} = 1 and

        Q_{n,k} = (x + n - 1) Q_{n-1,k} + (n + k - 2) Q_{n-1,k-1}

    (out-of-range entries zero).  In R_n(t) = sum_k Q_{n,k}(x) t^k this is
    R_{n+1} = (x + n + n t) R_n + t^2 R_n', the shifted G recursion with x
    added to its constant term, so the rows are `table_rows` on ``Poly``
    entries.
    """
    return list(table_rows("Q", n_max))


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

