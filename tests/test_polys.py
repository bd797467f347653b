"""Exact checks for the polynomial families and their triangle."""

import contextlib
import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gregtrees.polys import (
    Poly,
    X,
    _family_recurrence,
    _recurrence,
    _ring,
    _row_step,
    _rows,
    gen_F,
    gen_G,
    gen_H,
    gen_P,
    gen_Q,
    shift,
    table_rows,
)

# frozen rows, coefficients lowest degree first
GOLDEN = {
    "F": [[1], [4, 3], [27, 40, 15], [256, 565, 420, 105],
          [3125, 9156, 10150, 5040, 945],
          [46656, 170359, 250768, 185850, 69300, 10395]],
    "G": [[1], [2, 1], [9, 10, 3], [64, 113, 70, 15],
          [625, 1526, 1450, 630, 105],
          [7776, 24337, 31346, 20650, 6930, 945]],
    "H": [[1], [1], [3, 1], [16, 13, 3], [125, 171, 85, 15],
          [1296, 2551, 2005, 735, 105],
          [16807, 43653, 47586, 26950, 7875, 945]],
}
GOLDEN_SHIFTED = {
    "F": [[1], [1, 3], [2, 10, 15], [6, 40, 105, 105],
          [24, 196, 700, 1260, 945],
          [120, 1148, 5068, 12600, 17325, 10395]],
    "G": [[1], [1, 1], [2, 4, 3], [6, 18, 25, 15],
          [24, 96, 190, 210, 105],
          [120, 600, 1526, 2380, 2205, 945]],
    "H": [[1], [1], [2, 1], [6, 7, 3], [24, 46, 40, 15],
          [120, 326, 430, 315, 105],
          [720, 2556, 4536, 4900, 3150, 945]],
}
GENERATORS = {"F": gen_F, "G": gen_G, "H": gen_H}


@pytest.mark.parametrize("family", ["F", "G", "H"])
def test_golden_rows(family):
    rows = GENERATORS[family](len(GOLDEN[family]))
    assert [list(p.coeffs) for p in rows] == GOLDEN[family]


@pytest.mark.parametrize("family", ["F", "G", "H"])
def test_golden_rows_shifted(family):
    rows = GENERATORS[family](len(GOLDEN_SHIFTED[family]))
    assert [list(shift(p, -1).coeffs) for p in rows] == GOLDEN_SHIFTED[family]


def double_factorial(k: int) -> int:
    """k!! with the usual empty-product conventions ((-1)!! = 0!! = 1)."""
    if not isinstance(k, int):
        raise TypeError(f"double factorial of an int only, got {type(k).__name__}")
    if k < -1:
        raise ValueError("double factorial of an integer below -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def test_degrees_and_leading_coefficients():
    n_max = 40
    F, G, H = gen_F(n_max), gen_G(n_max), gen_H(n_max)
    for n in range(1, n_max + 1):
        assert F[n - 1].degree == n - 1
        assert F[n - 1].coeffs[-1] == double_factorial(2 * n - 1)
        assert G[n - 1].degree == n - 1
        assert G[n - 1].coeffs[-1] == double_factorial(2 * n - 3)
        assert H[n - 1].degree == max(n - 2, 0)
        # (2n-5)!! needs n >= 2; the degree-0 row H_1 = 1 sits outside the law
        assert H[n - 1].coeffs[-1] == (1 if n == 1 else double_factorial(2 * n - 5))


def test_constant_terms_count_cayley_trees():
    n_max = 25
    F, G, H = gen_F(n_max), gen_G(n_max), gen_H(n_max)
    for n in range(1, n_max + 1):
        assert F[n - 1](Fraction(0)) == Fraction(n) ** n
        assert G[n - 1](Fraction(0)) == Fraction(n) ** (n - 1)
        assert H[n - 1](Fraction(0)) == Fraction(n) ** (n - 2)


# recursion offsets c, written out here so the tests do not read FAMILIES
OFFSETS = {"F": 2, "G": 0, "H": -1}


@pytest.mark.parametrize("family", ["F", "G", "H"])
def test_shifted_recursion(family):
    # substituting x-1 into the raising recursion leaves (n + (n+c)x) X~ + x^2 X~'
    n_max, c = 40, OFFSETS[family]
    Y = [shift(p, -1) for p in GENERATORS[family](n_max)]
    assert Y[0] == Poly((1,))
    for n in range(1, n_max):
        assert Y[n] == Poly((n, n + c)) * Y[n - 1] + Poly((0, 0, 1)) * Y[n - 1].derivative()


def _poly_product_rows(n_max, lin, mult):
    """X_1 = 1 and X_{n+1} = lin(n) X_n + mult X_n', two Poly products per
    row: an oracle for the integer coefficient recurrence behind gen_*."""
    out = []
    if n_max >= 1:
        out.append(Poly((1,)))
    for n in range(1, n_max):
        out.append(lin(n) * out[-1] + mult * out[-1].derivative())
    return out


def _oracle_rows(family, n_max, shifted=False):
    if family == "P":
        return _poly_product_rows(n_max, lambda n: Poly((1 - 3 * n, -n)), Poly((1, 1)))
    c = OFFSETS[family]
    if shifted:
        return _poly_product_rows(n_max, lambda n: Poly((n, n + c)), Poly((0, 0, 1)))
    return _poly_product_rows(n_max, lambda n: Poly((2 * n + c, n + c)), Poly((1, 2, 1)))


@pytest.mark.parametrize("family, shifted", [
    ("F", False), ("G", False), ("H", False), ("F", True), ("G", True), ("H", True), ("P", False),
])
def test_rows_match_poly_product_oracle(family, shifted):
    gen = {**GENERATORS, "P": gen_P}[family]
    for n_max in (0, 1, 2, 80):
        got = gen(n_max, shifted=True) if shifted else gen(n_max)
        assert got == _oracle_rows(family, n_max, shifted), n_max
        assert all(type(p) is Poly for p in got)


def _horner_shift(p, a):
    """p(x + a) by Horner over Poly: an oracle for the Taylor shift."""
    return p(Poly((a, 1)))


@pytest.mark.parametrize("a", [-2, -1, 1, 3])
def test_shift_matches_horner_oracle(a):
    rows = [p for gen in (gen_F, gen_G, gen_H, gen_P) for p in gen(40)]
    for p in rows + [Poly(), Poly((7,)), Poly((0, 0, 0, -5)), Poly((3, -1, 0, 2))]:
        assert shift(p, a) == _horner_shift(p, a), (p, a)


@pytest.mark.parametrize("family", ["F", "G", "H"])
def test_shifted_generator_matches_shift(family):
    """The shifted rows from their own recursion against `shift`, the oracle."""
    n_max = 200
    rows = GENERATORS[family](n_max)
    assert GENERATORS[family](n_max, shifted=True) == [shift(p, -1) for p in rows]


@pytest.mark.parametrize("family", ["F", "G", "H"])
def test_shifted_rows_are_nonnegative(family):
    for n, p in enumerate(GENERATORS[family](200, shifted=True), start=1):
        assert p and all(c >= 0 for c in p.coeffs), n


def test_shift_stays_public():
    import gregtrees

    assert gregtrees.shift is shift
    assert "shift" in gregtrees.__all__
    assert shift(Poly((1, 2, 1)), -1) == Poly((0, 0, 1))


def test_interconversion_H_to_G():
    n_max = 40
    G, H = gen_G(n_max), gen_H(n_max)
    for n in range(1, n_max + 1):
        h = H[n - 1]
        assert G[n - 1] == Poly((n, n - 1)) * h + Poly((0, 1, 1)) * h.derivative()


def test_P_small_rows():
    P = gen_P(2)
    assert P[0] == Poly((1,))
    assert P[1] == Poly((-2, -1))


def test_P_recursion_matches_substitution_into_G():
    """P_n(x) = (-1-x)^{n-1} G_n(-x/(1+x)), expanded in Z[x] as
    (-1)^{n-1} sum_k g_{n,k} (-x)^k (1+x)^{n-1-k}: the substitution that
    once generated P, kept here as the oracle for its own recursion."""
    n_max = 60
    one_plus_x = Poly((1, 1))
    for n, (g, p) in enumerate(zip(gen_G(n_max), gen_P(n_max)), start=1):
        pw = [Poly((1,))]
        for _ in range(n - 1):
            pw.append(pw[-1] * one_plus_x)
        acc = Poly()
        for k, coeff in enumerate(g.coeffs):
            sign = -coeff if k % 2 else coeff
            acc = acc + sign * (X ** k) * pw[n - 1 - k]
        assert p == (acc if (n - 1) % 2 == 0 else -acc), n


def test_P_sign_and_unimodality():
    for n, p in enumerate(gen_P(50), start=1):
        q = p if n % 2 == 1 else -p
        assert q.degree == n - 1
        cs = q.coeffs
        assert all(c > 0 for c in cs)
        peak = max(range(len(cs)), key=lambda j: cs[j])
        assert all(cs[j] <= cs[j + 1] for j in range(peak))
        assert all(cs[j] >= cs[j + 1] for j in range(peak, len(cs) - 1))


def test_P_G_coefficient_reciprocity():
    G, P = gen_G(30), gen_P(30)
    for n in range(1, 31):
        g = shift(G[n - 1], -1)
        p = shift(P[n - 1], -1)
        if n % 2 == 0:
            p = -p
        assert tuple(reversed(g.coeffs)) == p.coeffs


def test_Q_first_rows():
    t = gen_Q(4)
    assert t[0] == (Poly((1,)),)
    assert t[1] == (Poly((1, 1)), Poly((1,)))
    assert t[2] == (Poly((2, 3, 1)), Poly((4, 3)), Poly((3,)))
    assert t[3] == (Poly((6, 11, 6, 1)), Poly((18, 22, 6)), Poly((25, 15)), Poly((15,)))


def test_Q_triangle_shape_and_indexing():
    t = gen_Q(6)
    assert len(t) == 6
    for n in range(1, 7):
        assert len(t[n - 1]) == n
    with pytest.raises(IndexError):
        t[7]


def _entrywise_Q(n_max):
    """Q_{1,0} = 1 and Q_{n,k} = (x + n - 1) Q_{n-1,k} + (n + k - 2) Q_{n-1,k-1}
    entry by entry in ``Poly`` arithmetic: an oracle for `gen_Q`."""
    if n_max < 1:
        return []
    rows = [(Poly((1,)),)]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        row = []
        for k in range(n):
            acc = Poly()
            if k <= n - 2:
                acc = Poly((n - 1, 1)) * prev[k]
            if k >= 1:
                acc = acc + (n + k - 2) * prev[k - 1]
            row.append(acc)
        rows.append(tuple(row))
    return rows


def test_Q_matches_entrywise_oracle():
    for n_max in (0, 1, 2, 3, 40):
        got = gen_Q(n_max)
        assert got == _entrywise_Q(n_max), n_max
        assert all(type(row) is tuple and all(type(q) is Poly for q in row) for row in got)


@pytest.mark.parametrize("gen, row_one, row_two", [
    (gen_F, Poly((1,)), Poly((4, 3))),
    (gen_G, Poly((1,)), Poly((2, 1))),
    (gen_H, Poly((1,)), Poly((1,))),
    (gen_P, Poly((1,)), Poly((-2, -1))),
    (gen_Q, (Poly((1,)),), (Poly((1, 1)), Poly((1,)))),
])
def test_every_generator_puts_row_n_at_index_n_minus_1(gen, row_one, row_two):
    rows = gen(5)
    assert type(rows) is list and len(rows) == 5
    assert rows[0] == row_one and rows[1] == row_two
    assert gen(0) == []


@pytest.mark.parametrize("gen", [gen_F, gen_G, gen_H, gen_P, gen_Q])
def test_generators_reject_a_negative_count(gen):
    with pytest.raises(ValueError, match=">= 0"):
        gen(-1)


TABLES = [("F", False), ("G", False), ("H", False), ("P", False),
          ("F", True), ("G", True), ("H", True)]
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])
# the contexts a caller may hold while stepping Decimal rows: one that traps
# any rounding, one that rounds to a single digit, and none of its own (None)
CALLER_CONTEXTS = [EXACT, decimal.Context(prec=1), None]


def _decimal_rows(name: str, n_max: int, shifted: bool, caller) -> list[tuple]:
    """`table_rows` in Decimal, listed under the caller's context `caller`."""
    with decimal.localcontext(caller) if caller else contextlib.nullcontext():
        return list(table_rows(name, n_max, shifted, one=decimal.Decimal(1)))


@pytest.mark.parametrize("name,shifted", TABLES)
def test_table_rows_in_decimal_are_the_int_rows(name, shifted):
    """`table_rows` with a Decimal unit steps the same rows in Decimal
    integers, exact whatever context the caller holds, with no signed
    zero: under the default 28 digits F_60's coefficients would round."""
    ints = list(table_rows(name, 60, shifted))
    for caller in CALLER_CONTEXTS:
        rows = _decimal_rows(name, 60, shifted, caller)
        assert {type(c) for row in rows for c in row} == {decimal.Decimal}
        assert not any(c.is_signed() for row in rows for c in row if not c)
        assert [tuple(map(int, row)) for row in rows] == ints, caller


def test_table_rows_has_no_shifted_P():
    with pytest.raises(ValueError, match="shifted"):
        table_rows("P", 3, shifted=True)


def test_conjugate_of_P_steps_its_shifted_rows():
    """P has no shifted table, but the conjugate of its recurrence steps
    the rows P_n(x-1), as it does F, G and H's."""
    rows = list(map(Poly, _rows(80, *_recurrence("P", shifted=True))))
    assert rows == [shift(p, -1) for p in gen_P(80)]


def test_row_step_refuses_a_ring_too_short_for_the_row():
    """With G's recurrence, a ring of 0..6 holds the multipliers 4 + 2u of
    step 2 only to u = 1; the full step of a row of four entries has five,
    and the short ring raises rather than drop the last three."""
    lin, mult = _family_recurrence(0)
    assert _row_step((1, 2, 3, 4), *lin(2), mult, _ring(1, -2, 20)) == (6, 20, 42, 52, 20)
    with pytest.raises(ValueError, match="ring"):
        _row_step((1, 2, 3, 4), *lin(2), mult, _ring(1, 0, 6))
    with pytest.raises(ValueError, match="ring"):   # a multiplier below the ring
        _row_step((1, 2), *lin(2), mult, _ring(1, 5, 20))


def test_table_rows_has_no_shifted_Q():
    with pytest.raises(ValueError, match="shifted"):
        table_rows("Q", 3, shifted=True)


def test_stepping_leaves_the_callers_context_alone():
    """The exact context is entered and left around each step, never held
    across a yield: the caller's context, its flags included, is the same
    object in the same state after each row taken and after closing the
    rows early."""
    def state():
        ctx = decimal.getcontext()
        return ctx, ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)

    before = state()
    rows = table_rows("F", 200, one=decimal.Decimal(1))
    for n in range(1, 201):
        assert len(next(rows)) == n
        assert state() == before, n
    with pytest.raises(StopIteration):
        next(rows)
    assert state() == before
    rows = table_rows("F", 200, one=decimal.Decimal(1))
    for _ in range(60):
        next(rows)
    rows.close()
    assert state() == before


@pytest.mark.parametrize("name,shifted", TABLES)
@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_first_rows_reach_the_edges_of_the_multipliers(name, shifted, n_max):
    """The first steps read the multipliers at the ends of the list: P's
    a0 = 1 - 3n is negative, and H's a1 - m2 is -1 at n = 1.  In ints and
    in Decimal the rows are the oracle's, with no signed Decimal zero (a
    zero pad times a negative multiplier is -0 in Decimal)."""
    want = _oracle_rows(name, n_max, shifted)
    ints = list(table_rows(name, n_max, shifted))
    assert list(map(Poly, ints)) == want
    for caller in CALLER_CONTEXTS:
        decimals = _decimal_rows(name, n_max, shifted, caller)
        assert [tuple(map(int, row)) for row in decimals] == ints, caller
        assert [len(row) for row in decimals] == list(range(1, n_max + 1))
        assert not any(c.is_signed() for row in decimals for c in row if not c)


def test_H_row_two_ends_in_a_zero_that_Poly_strips():
    with decimal.localcontext(EXACT):
        row = list(table_rows("H", 2, one=decimal.Decimal(1)))[1]
    assert row == (1, 0) and not row[1].is_signed()
    assert Poly(row).coeffs == (1,) and str(Poly(row)) == "1"


class _Counted:
    """An int that counts its operations with a plain int: the conversions
    a step would pay in a ring such as Decimal's."""

    mixed = 0

    def __init__(self, value: int):
        self.value = value

    def _other(self, other):
        if isinstance(other, _Counted):
            return other.value
        _Counted.mixed += 1
        return other

    def __add__(self, other):
        return _Counted(self.value + self._other(other))

    def __mul__(self, other):
        return _Counted(self.value * self._other(other))

    __radd__ = __add__
    __rmul__ = __mul__


@pytest.mark.parametrize("name,shifted", TABLES)
def test_steps_convert_no_int_per_coefficient(monkeypatch, name, shifted):
    """Rows 1..n_max hold about n_max^2 / 2 coefficients; the multipliers
    are made once per table and once per row, so the operations with a
    plain int stay linear in n_max."""
    for n_max in (30, 60, 120):
        monkeypatch.setattr(_Counted, "mixed", 0)
        rows = list(table_rows(name, n_max, shifted, one=_Counted(1)))
        assert [tuple(c.value for c in row) for row in rows] == list(table_rows(name, n_max, shifted))
        assert _Counted.mixed <= 6 * n_max, (n_max, _Counted.mixed)


@pytest.mark.parametrize("a", [Fraction(1, 2), 0.5, 1.0, Fraction(2)])
def test_shift_rejects_a_non_int(a):
    """x^2 shifted by 1/2 is x^2 + x + 1/4, which has no integer form."""
    with pytest.raises(TypeError):
        shift(Poly((0, 0, 1)), a)


@pytest.mark.parametrize("x_value, family, row_offset", [(-1, "F", -1), (0, "G", 0), (1, "H", 1)])
def test_Q_specializations(x_value, family, row_offset):
    """Row sums sum_k Q_{n,k}(x0) x^k against the shifted families.

    x0 = -1 gives x*F_{n-1}(x-1) (degenerating to 1 at n = 1), x0 = 0
    gives G_n(x-1), and x0 = 1 gives the H row one index further down,
    H_{n+1}(x-1).
    """
    rows = 12
    t = gen_Q(rows)
    table = GENERATORS[family](rows + 1)
    for n in range(1, rows + 1):
        got = Poly(q(x_value) for q in t[n - 1])
        if family == "F":
            want = Poly((1,)) if n == 1 else X * shift(table[n - 2], -1)
        else:
            want = shift(table[n - 1 + row_offset], -1)
        assert got == want, n


def test_str_rendering():
    G = gen_G(3)
    assert str(G[0]) == "1"
    assert str(G[1]) == "x+2"
    assert str(G[2]) == "3x^2+10x+9"
    assert str(gen_P(2)[1]) == "-x-2"
    assert str(Poly()) == "0"
    assert str(Poly((0, 1))) == "x"
    assert str(Poly((0, -1, 0, 2))) == "2x^3-x"


def test_shift_round_trip_and_evaluation():
    p = gen_F(5)[4]
    assert shift(shift(p, -1), 1) == p
    for a in (-2, -1, 0, 3):
        q = shift(p, a)
        for v in (-3, 0, 2, Fraction(1, 2)):
            assert q(v) == p(v + a)


def test_derivative_and_arithmetic_basics():
    p = Poly((1, 2, 3))  # 3x^2 + 2x + 1
    assert p.derivative() == Poly((2, 6))
    assert Poly((1,)).derivative() == Poly()
    assert p + Poly() == p
    assert p - p == Poly()
    assert not Poly()
    assert (X + 1) ** 2 == Poly((1, 2, 1))
    assert 2 * p == p + p


def test_poly_equals_an_int_as_its_constant():
    assert Poly((3,)) == 3 and Poly() == 0 and 0 == Poly()
    assert Poly((3, 1)) != 3 and Poly((3,)) != 4 and Poly((1,)) != "1"


@pytest.mark.parametrize("other", [1.5, "x"])
def test_arithmetic_with_a_non_poly_operand_raises_type_error(other):
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(X, other)
        with pytest.raises(TypeError):
            op(other, X)


def test_int_minus_poly():
    assert 3 - (X + 1) == Poly((2, -1))


def test_negative_power_raises():
    with pytest.raises(ValueError, match="negative power -1"):
        X ** -1


coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_evaluation_is_ring_homomorphism(a, b, v):
    p, q = Poly(a), Poly(b)
    assert (p + q)(v) == p(v) + q(v)
    assert (p * q)(v) == p(v) * q(v)
    assert (p - q)(v) == p(v) - q(v)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, st.integers(min_value=-4, max_value=4))
def test_shift_matches_composition(a, c):
    p = Poly(a)
    q = shift(p, c)
    for v in (-2, 0, 1, 3):
        assert q(v) == p(v + c)


@settings(max_examples=100, deadline=None)
@given(coeff_lists)
def test_json_round_trip(a):
    p = Poly(a)
    assert Poly(int(c) for c in p.to_json()) == p
    assert all(isinstance(s, str) for s in p.to_json())


def test_trailing_zeros_are_normalized():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0,)) == Poly(())
    assert Poly((0, 0)).degree == Poly().degree


def test_double_factorial_values():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 7)] == [1, 1, 1, 2, 3, 15, 105]
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_double_factorial_rejects_non_int():
    for k in (5.5, 5.0, "5"):
        with pytest.raises(TypeError, match="int"):
            double_factorial(k)
