"""The verification suite: every identity the library exposes, as checks.

Each check is declared once, as an entry of ``CHECKS``: its name, the
``SuiteConfig`` budgets that size it, the ``gregtrees check`` options that
tune it, the budget pairs that must agree, the domains of its samples, the
bundle rows it reads, and its runner.  ``run_suite`` walks that table in
order and ``gregtrees check`` routes its options through it, so a new check
is one entry.  ``run_suite`` returns a ``SuiteResult`` whose JSON and text
renderings are byte-deterministic for a given configuration.  Budgets live
in ``SuiteConfig``; the ``quick`` profile trims them for smoke runs.  A
check reads the configuration and only the rows its entry declares, nothing
else, so checks cannot mask each other's failures.  One row plan serves a
run, from the `reads` of the checks that run (``_last_rows``): the bundle
holds each family only up to the last row those checks read, and each
runner is handed each family it declares up to the deepest of its reads of
that family, so a family one entry reads twice is cut at the deeper read.
The checks that compare rows shifted to x - 1 share one memo keyed by the
row's value (``_shifted``), so each distinct row is shifted once however
many checks read it.

``SuiteConfig.corrupt`` ("G:3" bumps the constant term of the stored G_3)
exists to demonstrate sensitivity: a corrupted row must trip every check
that ties the row and no check that does not read it.
``shifted-positivity`` is sign-only: it reads rows without tying them.
The rows that it alone reads are pinned by
``tests/test_suite.py::test_untied_rows_inventory``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

from . import series as _series
from . import trees as _trees
from . import wfunc as _wfunc
from .polys import (FAMILIES, Poly, X, census_family, gen_F, gen_G, gen_H, gen_P, gen_Q,
                    imp_family, shift)
from .report import CheckReport, jsonable

_BUNDLE_FAMILIES = (*FAMILIES, "P")    # the families a bundle may hold and --corrupt may bump

# frozen reference rows, coefficients lowest degree first
_GOLDEN: dict[str, list[list[int]]] = {
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
_GOLDEN_SHIFT: dict[str, list[list[int]]] = {
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


@dataclass(frozen=True)
class SuiteConfig:
    """Budgets for one suite run.  A budget of zero skips its check; a
    negative one is an error."""

    poly_rows: int = 40                 # recursion-level polynomial identities
    positivity_rows: int = 50
    reciprocity_rows: int = 30
    q_rows: int = 12
    series_n_max: int = 6               # derivative identities, exact series
    series_order: int = 20
    egf_n_max: int = 6
    egf_x_samples: tuple = (0, 1, 2, Fraction(1, 2), Fraction(-1, 2))
    gh_order: int = 10
    census_n_max: int = 5               # unrooted / rooted / relaxed enumerations
    census_birooted_n_max: int = 3
    imp_rows: int = 7
    restriction_n_max: int = 3
    restriction_extra: int = 3
    beta_depth: int = 6                 # improper-edge census vs derivative series
    beta_order: int = 12
    bernstein_points: tuple = (0.1, 1.0, 10.0)
    bernstein_n_max: int = 15
    halfplane_samples: int = 1000
    halfplane_seed: int = 42
    corrupt: str | None = None          # "G:3" bumps the stored G_3 by +1

    @classmethod
    def quick(cls) -> "SuiteConfig":
        return cls(poly_rows=12, positivity_rows=15, reciprocity_rows=10, q_rows=8,
                   series_n_max=4, series_order=12, egf_n_max=4,
                   egf_x_samples=(0, 1), gh_order=6,
                   census_n_max=4, census_birooted_n_max=2, imp_rows=5,
                   restriction_n_max=2, restriction_extra=2,
                   beta_depth=4, beta_order=10,
                   bernstein_n_max=8, halfplane_samples=200)

    def budget_dict(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


@dataclass
class SuiteResult:
    reports: list[CheckReport]
    budget: dict

    @property
    def counts(self) -> dict[str, int]:
        passed = sum(1 for r in self.reports if r.passed is True)
        failed = sum(1 for r in self.reports if r.passed is False)
        skipped = sum(1 for r in self.reports if r.skipped)
        return {"pass": passed, "fail": failed, "skip": skipped,
                "total": len(self.reports)}

    @property
    def ok(self) -> bool:
        return not any(r.passed is False for r in self.reports)

    def failed_names(self) -> list[str]:
        return [r.name for r in self.reports if r.passed is False]

    def to_json_dict(self) -> dict:
        return {"checks": [r.to_json() for r in self.reports],
                "summary": self.counts, "budget": self.budget}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.reports:
            if r.skipped:
                lines.append(f"SKIP {r.name}")
            elif r.passed:
                extra = ""
                if "passed_samples" in r.params:
                    extra = f" {r.params['passed_samples']}/{r.params['samples']}"
                lines.append(f"PASS {r.name}{extra}")
            else:
                lines.append(f"FAIL {r.name}: {r.witness}")
        c = self.counts
        lines.append(f"{c['pass']} passed, {c['fail']} failed, {c['skip']} skipped")
        return "\n".join(lines) + "\n"


# ── polynomial bundle ─────────────────────────────────────────────────────

def _parse_corrupt(config: SuiteConfig) -> tuple[str, int]:
    """The (family, row) that `config.corrupt` names.  The row may be any
    up to the deepest that any entry reads at this config."""
    family, _, row = config.corrupt.partition(":")
    if family not in _BUNDLE_FAMILIES or not row.isdecimal() or int(row) < 1:
        raise ValueError(f"corrupt spec {config.corrupt!r}; want FAMILY:ROW, FAMILY one of "
                         + ", ".join(_BUNDLE_FAMILIES))
    last = max(_last_rows(config, CHECKS).values())
    if int(row) > last:
        raise ValueError(f"corrupt row {int(row)} beyond row {last}, the deepest any check reads")
    return family, int(row)


def _window(config: SuiteConfig, read: tuple[str, str | int, int]) -> range:
    """The rows, numbered from 1, that one entry of `Check.reads` covers:
    n + offset for n = 1..bound, none below row 1."""
    _, bound, offset = read
    n = getattr(config, bound) if isinstance(bound, str) else bound
    return range(max(1, 1 + offset), n + offset + 1)


def _last_rows(config: SuiteConfig, checks: Iterable[Check]) -> dict[str, int]:
    """The last row of each family that the `reads` of `checks` cover, by
    the deepest of all their reads of it (0 where those windows are empty);
    a family that none of them declares is absent."""
    last: dict[str, int] = {}
    for check in checks:
        for read in check.reads:
            last[read[0]] = max(last.get(read[0], 0), max(_window(config, read), default=0))
    return last


def _make_bundle(config: SuiteConfig, checks: Iterable[Check], corrupt: tuple | None) -> dict:
    """Each family that `checks` read, built to the last row they read,
    with the constant term of the `corrupt` (family, row) bumped by one;
    a row the bundle does not hold is left alone."""
    # gen_* by name in this module, so wrappers placed on them see the calls
    bundle = {f: globals()[f"gen_{f}"](rows) for f, rows in _last_rows(config, checks).items()}
    if corrupt is not None:
        family, row = corrupt
        if row <= len(bundle.get(family, ())):
            bundle[family][row - 1] = bundle[family][row - 1] + Poly((1,))
    return bundle


@cache
def _shifted(row: Poly) -> Poly:
    """row(x - 1), computed once per row value for all the checks that
    compare shifted rows.  A corrupted row is its own key, so it reaches
    exactly the checks that read it.  `shift` is looked up in this module,
    so wrappers placed on it see the calls."""
    return shift(row, -1)


# ── individual checks ─────────────────────────────────────────────────────

def _check_golden(bundle) -> CheckReport:
    name = "golden-tables"
    for family, table in _GOLDEN.items():
        for i, coeffs in enumerate(table):
            got = bundle[family][i]
            if list(got.coeffs) != coeffs:
                return CheckReport.fail(name, f"{family}_{i + 1} = {got}", family=family, row=i + 1)
    for family, table in _GOLDEN_SHIFT.items():
        for i, coeffs in enumerate(table):
            got = _shifted(bundle[family][i])
            if list(got.coeffs) != coeffs:
                return CheckReport.fail(name, f"{family}_{i + 1}(x-1) = {got}",
                                        family=family, row=i + 1, shifted=True)
    return CheckReport.ok(name, rows={f: len(t) for f, t in _GOLDEN.items()})


def _check_positivity(bundle, rows: int) -> CheckReport:
    name = "shifted-positivity"
    for family in FAMILIES:
        for i in range(rows):
            p = _shifted(bundle[family][i])
            if not p or any(c < 0 for c in p.coeffs):
                return CheckReport.fail(name, f"{family}_{i + 1}(x-1) = {p}",
                                        family=family, row=i + 1)
    for i in range(rows):
        q = bundle["P"][i] if i % 2 == 0 else -bundle["P"][i]
        cs = q.coeffs
        if not cs or any(c <= 0 for c in cs):
            return CheckReport.fail(name, f"(-1)^{i} P_{i + 1} = {q}", family="P", row=i + 1)
        peak = max(range(len(cs)), key=lambda j: cs[j])
        rising = all(cs[j] <= cs[j + 1] for j in range(peak))
        falling = all(cs[j] >= cs[j + 1] for j in range(peak, len(cs) - 1))
        if not (rising and falling):
            return CheckReport.fail(name, f"(-1)^{i} P_{i + 1} = {q} is not unimodal",
                                    family="P", row=i + 1)
    return CheckReport.ok(name, rows=rows)


def _check_interconversion(bundle, rows: int) -> CheckReport:
    """G_n = (n + (n-1)x) H_n + (x + x^2) H_n', then (1+x)^2 F_n = x G_{n+1} + n G_n,
    for n = 1..rows.

    The second ties F to G.  With the base series of ``Family``,
    d^n T_alpha = e^{nT} (1-T)^{-(n+c)} X_n(y) and y = T/(1-T): zT' = T/(1-T)
    (from T = z e^T), so T_0 = sum n^n z^n/n! = T/(1-T) = zT', and by Leibniz

        d^n T_0 = z T^(n+1) + n T^(n),        n >= 1.

    Put in the display (F has c = 2, G has c = 0) with z = T e^{-T}, so that
    z T^(n+1) = T e^{nT} (1-T)^{-(n+1)} G_{n+1}(y), and divide by
    e^{nT} (1-T)^{-n}: (1-T)^{-2} F_n(y) = y G_{n+1}(y) + n G_n(y).  Since
    1/(1-T) = 1 + y, that is (1+y)^2 F_n(y) = y G_{n+1}(y) + n G_n(y) as power
    series in z.  As y = z + O(z^2), a polynomial in y that is zero as a
    power series in z is the zero polynomial, so the identity holds in x.
    """
    name = "interconversion"
    for n in range(1, rows + 1):
        h = bundle["H"][n - 1]
        built = Poly((n, n - 1)) * h + Poly((0, 1, 1)) * h.derivative()
        if built != bundle["G"][n - 1]:
            return CheckReport.fail(name, f"n={n}: (n+(n-1)x) H_n + (x+x^2) H_n' = {built}", n=n)
    for n in range(1, rows + 1):
        # x^k: f[k] + 2 f[k-1] + f[k-2] - g'[k-1] - n g[k], g' the row of G_(n+1)
        f = bundle["F"][n - 1].coeffs
        gap = (a + 2 * b + c - d - n * e for a, b, c, d, e in zip_longest(
            f, (0, *f), (0, 0, *f), (0, *bundle["G"][n].coeffs), bundle["G"][n - 1].coeffs,
            fillvalue=0))
        for k, c in enumerate(gap):
            if c:
                return CheckReport.fail(name, f"n={n}: (1+x)^2 F_n - x G_(n+1) - n G_n has "
                                              f"x^{k} coefficient {c}", n=n)
    return CheckReport.ok(name, rows=rows)


def _check_reciprocity(bundle, rows: int) -> CheckReport:
    name = "reciprocity"
    for n in range(1, rows + 1):
        g = _shifted(bundle["G"][n - 1])
        p = _shifted(bundle["P"][n - 1])
        if n % 2 == 0:
            p = -p
        if tuple(reversed(g.coeffs)) != p.coeffs:
            return CheckReport.fail(name, f"n={n}: reversed G_n(x-1) != (-1)^(n-1) P_n(x-1)", n=n)
    return CheckReport.ok(name, rows=rows)


def _check_q_specializations(bundle, rows: int) -> CheckReport:
    """Row sums of the Q triangle at x = -1, 0, 1 are shifted F, G, H rows.

    The x = 1 line lands one H row further down: sum_k Q_{n,k}(1) x^k is
    H_{n+1}(x-1), so the H comparison carries offset 1.
    """
    name = "q-specializations"
    triangle = gen_Q(rows)
    for n in range(1, rows + 1):
        row = triangle[n - 1]
        for value, family, offset in ((-1, "F", -1), (0, "G", 0), (1, "H", 1)):
            got = Poly(q(value) for q in row)
            if family == "F":
                want = Poly((1,)) if n == 1 else X * _shifted(bundle["F"][n - 2])
            else:
                want = _shifted(bundle[family][n - 1 + offset])
            if got != want:
                return CheckReport.fail(
                    name, f"n={n}, x={value}: row evaluates to {got}, want {want}",
                    n=n, x=value, family=family)
    return CheckReport.ok(name, rows=rows, h_row_offset=1)


def _check_census_unl(bundle, variant: str, n_max: int) -> CheckReport:
    """The census by the move rule against the family row; below n_max it
    must also equal the census of the Pruefer listing, an independent
    route, so at n_max the check tests the rule against the row alone."""
    name = f"census-unl-{variant}"
    family, k = census_family(variant)
    factor = Poly((1, 1)) ** k
    for n in range(1, n_max + 1):
        got = _trees.unl_polynomial(n, variant)
        if n < n_max:
            listed = _trees.prufer_census(n, variant)
            if got != listed:
                return CheckReport.fail(name, f"n={n}: census {got}, Pruefer census {listed}",
                                        n=n, variant=variant)
        want = factor * bundle[family.name][n - 1]
        if got != want:
            return CheckReport.fail(name, f"n={n}: census {got}, expected {want}",
                                    n=n, variant=variant)
    return CheckReport.ok(name, n_max=n_max, variant=variant)


def _check_census_imp(bundle, rooted: bool, rows: int) -> CheckReport:
    name = f"census-imp-{'rooted' if rooted else 'unrooted'}"
    family = imp_family(rooted).name
    for n in range(1, rows + 1):
        got = _trees.imp_polynomial(n, rooted)
        want = _shifted(bundle[family][n - 1])
        if got != want:
            return CheckReport.fail(name, f"n={n}: imp census {got}, expected {want}",
                                    n=n, rooted=rooted)
    return CheckReport.ok(name, rows=rows, rooted=rooted)


@cache
def _restriction_expected(variant: str, n: int, u: int, m: int) -> int:
    """Series prediction for the fiber count at size m over a census class:
    entry m - n of the closed-form display with X^u in place of row n."""
    family = census_family(variant)[0].name
    return _series.rhs_series(family, n, m - n, X ** u)[m - n]


def _check_restriction(rooted: bool, n_max: int, extra: int) -> CheckReport:
    name = f"restriction-fiber-{'rooted' if rooted else 'unrooted'}"
    variant = "rooted" if rooted else "unrooted"
    trees_checked = 0
    for n in range(1, n_max + 1):
        for t in _trees.enumerate_greg(n, variant):
            # entry m = n is left out: restriction to all labels is the identity
            census = _trees.restriction_census(t, n + extra)[1:]
            for m, got in enumerate(census, start=n + 1):
                want = _restriction_expected(variant, n, t.u, m)
                if got != want:
                    return CheckReport.fail(
                        name, f"tree {t}: {got} preimages at m={m}, series expects {want}",
                        n=n, m=m)
            trees_checked += 1
    return CheckReport.ok(name, n_max=n_max, extra=extra, trees=trees_checked)


def _check_imp_series(rooted: bool, depth: int, order: int) -> CheckReport:
    censuses = {n: _trees.imp_polynomial(n, rooted).coeffs for n in range(1, depth + 1)}
    return _series.check_imp_census_series(censuses, rooted=rooted, order=order)


# ── the check table ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class Check:
    """One check of the suite.

    `sizes` names the ``SuiteConfig`` budgets that size it: any of them at
    zero skips the check, and with none it runs always.  `run(config,
    bundle)` looks its check function up when called, so wrappers on module
    attributes see it.
    `options` maps each ``gregtrees check`` option that tunes the check to
    the field the option sets.
    `needs` lists the budgets that must agree: each (a, b, k) states
    ``a >= b + k``; both also size the check, so a zero in either skips it.
    `domains` lists the sample domains: each (field, rule, inside) states
    that every entry v of the field has inside(v), `rule` saying so in words.
    `reads` lists the bundle rows the check reads: each (family, bound,
    offset) covers rows n + offset of the family for n = 1..bound, none
    below row 1, where `bound` is a ``SuiteConfig`` field or a fixed row
    count.  ``q-specializations`` reads F_1..F_{q-1} (offset -1) and
    H_2..H_{q+1} (offset +1); ``interconversion`` reads G twice, at offsets
    0 and +1, so G_1..G_{p+1} for p = poly_rows.  The bundle is built from the `reads` of the
    checks that run, each family to the last row they read, and `run` is
    handed each family it declares cut at the deepest of all its reads of
    that family, so reading past the declaration raises IndexError and an
    undeclared family KeyError.
    `ties` is False for a check that tests only the signs of the rows it
    reads (``shifted-positivity``); every other reader ties its rows
    exactly, so a corrupted row trips it.
    """

    name: str
    sizes: tuple[str, ...]
    run: Callable[[SuiteConfig, dict[str, list[Poly]]], CheckReport]
    options: dict[str, str] = field(default_factory=dict)
    needs: tuple[tuple[str, str, int], ...] = ()
    domains: tuple[tuple[str, str, Callable[[object], bool]], ...] = ()
    reads: tuple[tuple[str, str | int, int], ...] = ()
    ties: bool = True


_SIDES = (("unrooted", False), ("rooted", True))


def _rows(bound: str, *families: str) -> tuple[tuple[str, str, int], ...]:
    """`Check.reads` for rows 1..bound of each family."""
    return tuple((family, bound, 0) for family in families)


CHECKS: tuple[Check, ...] = (
    Check("golden-tables", (), lambda c, b: _check_golden(b),
          reads=tuple((family, len(table), 0) for family, table in _GOLDEN.items())),
    Check("shifted-positivity", ("positivity_rows",),
          lambda c, b: _check_positivity(b, c.positivity_rows), {"--n-max": "positivity_rows"},
          reads=_rows("positivity_rows", *_BUNDLE_FAMILIES), ties=False),
    Check("interconversion", ("poly_rows",),
          lambda c, b: _check_interconversion(b, c.poly_rows), {"--n-max": "poly_rows"},
          reads=(*_rows("poly_rows", "F", "G", "H"), ("G", "poly_rows", 1))),
    Check("reciprocity", ("reciprocity_rows",),
          lambda c, b: _check_reciprocity(b, c.reciprocity_rows), {"--n-max": "reciprocity_rows"},
          reads=_rows("reciprocity_rows", "G", "P")),
    Check("q-specializations", ("q_rows",),
          lambda c, b: _check_q_specializations(b, c.q_rows), {"--n-max": "q_rows"},
          reads=(("F", "q_rows", -1), ("G", "q_rows", 0), ("H", "q_rows", 1))),
    *(Check(f"def-identity-{f}", ("series_n_max", "series_order"),
            lambda c, b, f=f: _series.check_def_identity(f, c.series_n_max, c.series_order, polys=b[f]),
            {"--n-max": "series_n_max"}, needs=(("series_order", "series_n_max", 5),),
            reads=_rows("series_n_max", f))
      for f in _BUNDLE_FAMILIES),
    Check("basic-identities", ("series_order",),
          lambda c, b: _series.check_basic_identities(c.series_order)),
    Check("reversion-lemma", ("series_order",),
          lambda c, b: _series.check_reversion_lemma(c.series_order)),
    Check("egf-theorem", ("egf_n_max",),
          lambda c, b: _series.check_egf_theorem(c.egf_x_samples, c.egf_n_max, polys=b),
          {"--n-max": "egf_n_max", "--x": "egf_x_samples"},
          domains=(("egf_x_samples", "!= -1", lambda x: x != -1),),
          reads=_rows("egf_n_max", *FAMILIES)),
    Check("gh-functional", ("gh_order",),
          lambda c, b: _series.check_gh_functional(c.egf_x_samples, c.gh_order, polys=b),
          reads=_rows("gh_order", "G", "H")),
    *(Check(f"census-unl-{v}", ("census_n_max",),
            lambda c, b, v=v: _check_census_unl(b, v, c.census_n_max),
            reads=_rows("census_n_max", census_family(v)[0].name))
      for v in ("unrooted", "rooted", "relaxed")),
    Check("census-unl-birooted", ("census_birooted_n_max",),
          lambda c, b: _check_census_unl(b, "birooted", c.census_birooted_n_max),
          reads=_rows("census_birooted_n_max", census_family("birooted")[0].name)),
    *(Check(f"census-imp-{side}", ("imp_rows",),
            lambda c, b, r=r: _check_census_imp(b, r, c.imp_rows),
            reads=_rows("imp_rows", imp_family(r).name)) for side, r in reversed(_SIDES)),
    *(Check(f"restriction-fiber-{side}", ("restriction_n_max", "restriction_extra"),
            lambda c, b, r=r: _check_restriction(r, c.restriction_n_max, c.restriction_extra))
      for side, r in _SIDES),
    *(Check(f"imp-census-series-{side}", ("beta_depth", "beta_order"),
            lambda c, b, r=r: _check_imp_series(r, c.beta_depth, c.beta_order),
            needs=(("beta_order", "beta_depth", 0),)) for side, r in _SIDES),
    Check("bernstein-signs", ("bernstein_n_max",),
          lambda c, b: _wfunc.check_bernstein(c.bernstein_points, c.bernstein_n_max),
          {"--n-max": "bernstein_n_max"},
          domains=(("bernstein_points", "finite and > 0", lambda z: 0 < z < float("inf")),)),
    Check("halfplane", ("halfplane_samples",),
          lambda c, b: _wfunc.check_halfplane(c.halfplane_samples, c.halfplane_seed),
          {"--samples": "halfplane_samples", "--seed": "halfplane_seed"}),
)

CHECK_NAMES = tuple(c.name for c in CHECKS)


# ── runner ────────────────────────────────────────────────────────────────

def run_suite(config: SuiteConfig | None = None,
              only: Sequence[str] | None = None) -> SuiteResult:
    """Run the checks in declaration order.

    `only` restricts execution to the named checks; the rest appear in the
    result as skipped, so the report shape does not depend on the filter.
    A negative sizing budget, a pair of budgets that disagree (see
    `Check.needs`), a sample outside its domain (`Check.domains`) or a
    `corrupt` spec that is malformed or names a row past the deepest any
    entry reads raises ValueError before any work, whichever checks run;
    a zero budget skips its check.  The checks that run are those `only` names whose sizing
    budgets are all nonzero.  The bundle is built for them alone, each
    family to the last row they read (`Check.reads`), and each runner is
    handed only the rows its entry declares, each family to its deepest
    read.
    Each report's `seconds` is the wall time of its check.
    """
    config = config or SuiteConfig()
    if only is not None:
        unknown = sorted(set(only) - set(CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; valid names: {', '.join(CHECK_NAMES)}")
    for check in CHECKS:
        for size in check.sizes:
            if getattr(config, size) < 0:
                raise ValueError(f"SuiteConfig.{size} = {getattr(config, size)}; "
                                 "a sizing budget must be >= 0")
        for a, b, k in check.needs:
            va, vb = getattr(config, a), getattr(config, b)
            if va and vb and va < vb + k:
                plus = f" + {k}" if k else ""
                raise ValueError(f"SuiteConfig.{a} = {va} must be >= SuiteConfig.{b}{plus} "
                                 f"= {vb + k} ({check.name})")
        for name, rule, inside in check.domains:
            for v in getattr(config, name):
                if not inside(v):
                    raise ValueError(f"SuiteConfig.{name} holds {v}; each entry must be "
                                     f"{rule} ({check.name})")
    corrupt = None if config.corrupt is None else _parse_corrupt(config)
    running = {check.name: check for check in CHECKS
               if (only is None or check.name in only)
               and all(getattr(config, size) for size in check.sizes)}
    bundle = _make_bundle(config, running.values(), corrupt)
    reports = []
    for check in CHECKS:
        start = time.perf_counter()
        if check.name in running:
            report = check.run(config, {family: bundle[family][:rows]
                                        for family, rows in _last_rows(config, [check]).items()})
        else:
            report = CheckReport.skip(check.name)
        report.seconds = time.perf_counter() - start
        reports.append(report)
    return SuiteResult(reports=reports, budget=config.budget_dict())
