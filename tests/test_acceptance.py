"""Top-level acceptance gate, one test per advertised guarantee.

Each test pins the full advertised depth and its wall-clock budget, so a
``pytest -v`` run of this file reads as the scorecard.  Everything here is
a thin wrapper over the public API; the detailed unit tests live in the
sibling files.
"""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from gregtrees.polys import Poly, gen_F, gen_G, gen_H, gen_P, gen_Q, shift
from gregtrees.series import (
    check_basic_identities,
    check_def_identity,
    check_egf_theorem,
    check_gh_functional,
    check_imp_census_series,
    check_reversion_lemma,
)
from gregtrees.suite import SuiteConfig, run_suite
from gregtrees.trees import enumerate_greg, imp_census, imp_polynomial, unl_polynomial
from gregtrees.wfunc import (
    check_bernstein,
    check_halfplane,
    eval_W,
    finite_difference_W,
    nth_derivative_W,
)

X = Poly((0, 1))


class budget:
    """Context manager asserting the block stays inside its time budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed <= self.seconds, (
                f"budget exceeded: {elapsed:.2f} s > {self.seconds} s")
        return False


def only(name: str, config: SuiteConfig | None = None):
    result = run_suite(config, only=[name])
    (report,) = [r for r in result.reports if not r.skipped]
    assert report.passed, f"{report.name}: {report.witness}"
    return report


def test_criterion_01_golden_tables():
    # every stored table row, plain and shifted, n <= 6 for F and G, 7 for H
    with budget(1):
        report = only("golden-tables")
        assert report.params["rows"] == {"F": 6, "G": 6, "H": 7}


def test_criterion_02_census_polynomials():
    with budget(300):
        for n in range(1, 7):
            assert unl_polynomial(n, "unrooted") == gen_H(n)[n - 1]
        for n in range(1, 6):
            assert unl_polynomial(n, "rooted") == gen_G(n)[n - 1]
        for n in range(1, 5):
            assert unl_polynomial(n, "relaxed") == Poly((1, 1)) * gen_G(n)[n - 1]
            assert unl_polynomial(n, "birooted") == Poly((1, 1)) ** 3 * gen_F(n)[n - 1]
        # figure counts: 4 unrooted trees of size 3, 32 of size 4, 3 rooted of size 2
        assert unl_polynomial(3, "unrooted") == Poly((3, 1))
        assert len(list(enumerate_greg(3, "unrooted"))) == 4
        assert len(list(enumerate_greg(4, "unrooted"))) == 32
        assert len(list(enumerate_greg(2, "rooted"))) == 3


def test_criterion_03_improper_edge_census():
    with budget(120):
        for n in range(1, 8):
            assert imp_polynomial(n, rooted=True) == shift(gen_G(n)[n - 1], -1)
            assert imp_polynomial(n, rooted=False) == shift(gen_H(n)[n - 1], -1)


def test_criterion_04_series_identities():
    with budget(30):
        for family, gen in (("F", gen_F), ("G", gen_G), ("H", gen_H), ("P", gen_P)):
            report = check_def_identity(family, 8, 25, polys=gen(8))
            assert report.passed, report.witness
        for order in (25, 30):
            assert check_basic_identities(order).passed
            assert check_reversion_lemma(order).passed


EGF_SAMPLES = (0, 1, Fraction(-1, 2), 2, Fraction(1, 3), 5)


def test_criterion_05_egf_theorem():
    with budget(30):
        # the check compares n = 0 constants against the closed forms before
        # the coefficient rows, so passing covers both
        report = check_egf_theorem(EGF_SAMPLES, 6)
        assert report.passed, report.witness
        assert report.params["n_max"] == 6
        assert len(report.params["x_samples"]) == 6
        report = check_gh_functional(EGF_SAMPLES, 10)
        assert report.passed, report.witness


def test_criterion_06_restriction_fibers():
    # every Greg tree of size n <= 3, both variants, target sizes m <= n+3
    with budget(60):
        config = replace(SuiteConfig(), restriction_n_max=3, restriction_extra=3)
        for name in ("restriction-fiber-unrooted", "restriction-fiber-rooted"):
            report = only(name, config)
            assert report.params["extra"] == 3


def test_criterion_07_imp_census_series():
    with budget(60):
        censuses = {n: imp_census(n, rooted=False) for n in range(1, 7)}
        report = check_imp_census_series(censuses, rooted=False, order=20)
        assert report.passed, report.witness


def test_criterion_08_positivity_reciprocity():
    with budget(10):
        report = only("shifted-positivity")       # F, G, H, P rows n <= 50
        assert report.params["rows"] == 50
        report = only("reciprocity")              # n <= 30
        assert report.params["rows"] == 30


def test_criterion_09_bernstein_numerics():
    with budget(10):
        report = check_bernstein([0.1, 1.0, 10.0], 15)
        assert report.passed, report.witness
        # residual contract on a 100-point grid
        for k in range(100):
            z = 10.0 ** (-3 + 6 * k / 99)
            assert eval_W(z).residual <= 1e-13 * max(1.0, abs(z))
        # closed forms vs finite differences, 1e-5 relative
        for z in (0.1, 0.5, 2.0, 10.0):
            for n in range(1, 5):
                exact = nth_derivative_W(z, n)
                assert abs(finite_difference_W(z, n) - exact) <= 1e-5 * abs(exact)
        report = check_halfplane(1000, 42)
        assert report.passed, report.witness
        assert report.params["passed_samples"] == 1000


def q_specialization(triangle, n: int, value: int) -> Poly:
    return Poly(q(value) for q in triangle[n - 1])


@pytest.mark.xfail(strict=True, reason="the x = 1 specialization of row n is "
                   "H_{n+1}(x-1), one row below H_n(x-1); H_2(x-1) = 1 already "
                   "misses the n = 2 row sum x + 2")
def test_criterion_10_q_specializations_stated_form():
    with budget(1):
        triangle = gen_Q(12)
        F, G, H = gen_F(12), gen_G(12), gen_H(12)
        for n in range(1, 13):
            want_f = Poly((1,)) if n == 1 else X * shift(F[n - 2], -1)
            assert q_specialization(triangle, n, -1) == want_f
            assert q_specialization(triangle, n, 0) == shift(G[n - 1], -1)
            assert q_specialization(triangle, n, 1) == shift(H[n - 1], -1)


def test_criterion_10_q_specializations_with_h_offset():
    with budget(1):
        triangle = gen_Q(12)
        F, G, H = gen_F(12), gen_G(12), gen_H(13)
        for n in range(1, 13):
            want_f = Poly((1,)) if n == 1 else X * shift(F[n - 2], -1)
            assert q_specialization(triangle, n, -1) == want_f
            assert q_specialization(triangle, n, 0) == shift(G[n - 1], -1)
            assert q_specialization(triangle, n, 1) == shift(H[n], -1)
