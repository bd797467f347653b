"""The verification suite: every identity the library exposes, as checks.

Each check is declared once, as an entry of ``CHECKS``: its name, the
``SuiteConfig`` budget that sizes it, the ``gregtrees check`` options that
tune it, and its runner.  ``run_suite`` walks that table in order and
``gregtrees check`` routes its options through it, so a new check is one
entry.  ``run_suite`` returns a ``SuiteResult`` whose JSON and text
renderings are byte-deterministic for a given configuration.  Budgets live
in ``SuiteConfig``; the ``quick`` profile trims them for smoke runs.  A
check reads the configuration and the shared polynomial bundle, nothing
else, so checks cannot mask each other's failures.  The checks that
compare rows shifted to x - 1 share one memo keyed by the row's value
(``_shifted``), so each distinct row is shifted once however many checks
read it.

``SuiteConfig.corrupt`` ("G:3" bumps the constant term of the stored G_3)
exists to demonstrate sensitivity: a corrupted bundle must trip every
check that consumes the corrupted row and no check that does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from . import series as _series
from . import trees as _trees
from . import wfunc as _wfunc
from .polys import (FAMILIES, Poly, X, census_family, gen_F, gen_G, gen_H, gen_P, gen_Q,
                    imp_family, shift)
from .report import CheckReport, jsonable

_BUNDLE_FAMILIES = (*FAMILIES, "P")    # the rows a bundle holds and --corrupt may bump

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
    """Budgets for one suite run.  A budget of zero skips its check."""

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

def _parse_corrupt(spec: str) -> tuple[str, int]:
    family, _, row = spec.partition(":")
    if family not in _BUNDLE_FAMILIES or not row.isdigit() or int(row) < 1:
        raise ValueError(f"corrupt spec {spec!r}; want FAMILY:ROW, FAMILY one of "
                         + ", ".join(_BUNDLE_FAMILIES))
    return family, int(row)


def _make_bundle(config: SuiteConfig) -> dict[str, list[Poly]]:
    rows = max(config.poly_rows, config.positivity_rows, config.reciprocity_rows,
               config.q_rows + 1, config.imp_rows, config.egf_n_max,
               config.series_n_max, config.gh_order, config.census_n_max,
               config.census_birooted_n_max, *map(len, _GOLDEN.values()))
    # gen_* by name in this module, so wrappers placed on them see the calls
    bundle = {family: globals()[f"gen_{family}"](rows) for family in _BUNDLE_FAMILIES}
    if config.corrupt is not None:
        family, row = _parse_corrupt(config.corrupt)
        if row > rows:
            raise ValueError(f"corrupt row {row} beyond generated {rows}")
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
            if any(c < 0 for c in p.coeffs):
                return CheckReport.fail(name, f"{family}_{i + 1}(x-1) = {p}",
                                        family=family, row=i + 1)
    for i in range(rows):
        q = bundle["P"][i] if i % 2 == 0 else -bundle["P"][i]
        cs = q.coeffs
        if any(c <= 0 for c in cs):
            return CheckReport.fail(name, f"(-1)^{i} P_{i + 1} = {q}", family="P", row=i + 1)
        peak = max(range(len(cs)), key=lambda j: cs[j])
        rising = all(cs[j] <= cs[j + 1] for j in range(peak))
        falling = all(cs[j] >= cs[j + 1] for j in range(peak, len(cs) - 1))
        if not (rising and falling):
            return CheckReport.fail(name, f"(-1)^{i} P_{i + 1} = {q} is not unimodal",
                                    family="P", row=i + 1)
    return CheckReport.ok(name, rows=rows)


def _check_interconversion(bundle, rows: int) -> CheckReport:
    name = "interconversion"
    for n in range(1, rows + 1):
        h = bundle["H"][n - 1]
        built = Poly((n, n - 1)) * h + Poly((0, 1, 1)) * h.derivative()
        if built != bundle["G"][n - 1]:
            return CheckReport.fail(name, f"n={n}: (n+(n-1)x) H_n + (x+x^2) H_n' = {built}", n=n)
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
    return _series._rhs_egf(family, n, m - n, X ** u)[m - n]


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
    censuses = {n: _trees.imp_census(n, rooted) for n in range(1, depth + 1)}
    return _series.check_imp_census_series(censuses, rooted=rooted, order=order)


# ── the check table ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class Check:
    """One check of the suite.

    `size` names the ``SuiteConfig`` budget that sizes it: zero skips the
    check, and None runs it always.  `run(config, bundle)` looks its check
    function up when called, so wrappers on module attributes see it.
    `options` maps each ``gregtrees check`` option that tunes the check to
    the field the option sets.
    """

    name: str
    size: str | None
    run: Callable[[SuiteConfig, dict[str, list[Poly]]], CheckReport]
    options: dict[str, str] = field(default_factory=dict)


_SIDES = (("unrooted", False), ("rooted", True))

CHECKS: tuple[Check, ...] = (
    Check("golden-tables", None, lambda c, b: _check_golden(b)),
    Check("shifted-positivity", "positivity_rows",
          lambda c, b: _check_positivity(b, c.positivity_rows), {"--n-max": "positivity_rows"}),
    Check("interconversion", "poly_rows",
          lambda c, b: _check_interconversion(b, c.poly_rows), {"--n-max": "poly_rows"}),
    Check("reciprocity", "reciprocity_rows",
          lambda c, b: _check_reciprocity(b, c.reciprocity_rows), {"--n-max": "reciprocity_rows"}),
    Check("q-specializations", "q_rows",
          lambda c, b: _check_q_specializations(b, c.q_rows), {"--n-max": "q_rows"}),
    *(Check(f"def-identity-{f}", "series_n_max",
            lambda c, b, f=f: _series.check_def_identity(f, c.series_n_max, c.series_order, polys=b[f]),
            {"--n-max": "series_n_max"}) for f in _BUNDLE_FAMILIES),
    Check("basic-identities", "series_order", lambda c, b: _series.check_basic_identities(c.series_order)),
    Check("reversion-lemma", "series_order", lambda c, b: _series.check_reversion_lemma(c.series_order)),
    Check("egf-theorem", "egf_n_max",
          lambda c, b: _series.check_egf_theorem(c.egf_x_samples, c.egf_n_max, polys=b),
          {"--n-max": "egf_n_max", "--x": "egf_x_samples"}),
    Check("gh-functional", "gh_order",
          lambda c, b: _series.check_gh_functional(c.egf_x_samples, c.gh_order, polys=b)),
    *(Check(f"census-unl-{v}", "census_n_max", lambda c, b, v=v: _check_census_unl(b, v, c.census_n_max))
      for v in ("unrooted", "rooted", "relaxed")),
    Check("census-unl-birooted", "census_birooted_n_max",
          lambda c, b: _check_census_unl(b, "birooted", c.census_birooted_n_max)),
    *(Check(f"census-imp-{side}", "imp_rows", lambda c, b, r=r: _check_census_imp(b, r, c.imp_rows))
      for side, r in reversed(_SIDES)),
    *(Check(f"restriction-fiber-{side}", "restriction_n_max",
            lambda c, b, r=r: _check_restriction(r, c.restriction_n_max, c.restriction_extra))
      for side, r in _SIDES),
    *(Check(f"imp-census-series-{side}", "beta_depth",
            lambda c, b, r=r: _check_imp_series(r, c.beta_depth, c.beta_order)) for side, r in _SIDES),
    Check("bernstein-signs", "bernstein_n_max",
          lambda c, b: _wfunc.check_bernstein(c.bernstein_points, c.bernstein_n_max),
          {"--n-max": "bernstein_n_max"}),
    Check("halfplane", "halfplane_samples",
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
    """
    config = config or SuiteConfig()
    if only is not None:
        unknown = sorted(set(only) - set(CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; valid names: {', '.join(CHECK_NAMES)}")
    bundle = _make_bundle(config)
    reports = []
    for check in CHECKS:
        if ((only is not None and check.name not in only)
                or (check.size is not None and getattr(config, check.size) <= 0)):
            reports.append(CheckReport.skip(check.name))
        else:
            reports.append(check.run(config, bundle))
    return SuiteResult(reports=reports, budget=config.budget_dict())
