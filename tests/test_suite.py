"""Suite runner behaviour: report shape, determinism, corruption sensitivity."""

import json
from collections import Counter
from dataclasses import replace

import pytest

import gregtrees.suite as suite_module
import gregtrees.trees as trees_module
from gregtrees.polys import Poly, X, census_family
from gregtrees.series import (check_def_identity, check_egf_theorem, check_gh_functional,
                              check_imp_census_series, rhs_series)
from gregtrees.suite import (CHECK_NAMES, SuiteConfig, _check_restriction, _restriction_expected,
                             run_suite)
from gregtrees.wfunc import check_bernstein, check_halfplane

# per corrupted row, the checks that consume it somewhere in their work
# (quick profile)
SENSITIVE = {
    "G:3": {
        "golden-tables",
        "interconversion",
        "reciprocity",
        "q-specializations",
        "def-identity-G",
        "egf-theorem",
        "gh-functional",
        "census-unl-rooted",
        "census-unl-relaxed",
        "census-imp-rooted",
    },
    "P:3": {"reciprocity", "def-identity-P"},
    "F:3": {"golden-tables", "q-specializations", "def-identity-F", "egf-theorem"},
    "H:3": {
        "golden-tables",
        "interconversion",
        "q-specializations",
        "def-identity-H",
        "egf-theorem",
        "gh-functional",
        "census-unl-unrooted",
        "census-imp-unrooted",
    },
}


def test_quick_profile_all_pass():
    result = run_suite(SuiteConfig.quick())
    assert result.ok, result.failed_names()
    assert result.counts == {"pass": 25, "fail": 0, "skip": 0, "total": 25}


def test_report_order_matches_declaration():
    result = run_suite(SuiteConfig.quick())
    assert tuple(r.name for r in result.reports) == CHECK_NAMES


def test_json_rendering_is_byte_deterministic():
    a = run_suite(SuiteConfig.quick())
    b = run_suite(SuiteConfig.quick())
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()
    # and it is real JSON
    parsed = json.loads(a.to_json())
    assert set(parsed) == {"checks", "summary", "budget"}
    assert parsed["summary"]["pass"] == 25
    assert parsed["budget"]["halfplane_samples"] == 200


def test_text_rendering_shape():
    text = run_suite(SuiteConfig.quick()).to_text()
    lines = text.splitlines()
    assert len(lines) == 26
    assert lines[0] == "PASS golden-tables"
    assert "PASS halfplane 200/200" in lines
    assert lines[-1] == "25 passed, 0 failed, 0 skipped"


@pytest.mark.parametrize("spec", SENSITIVE)
def test_corruption_trips_exactly_the_consumers(spec):
    sensitive = SENSITIVE[spec]
    result = run_suite(replace(SuiteConfig.quick(), corrupt=spec))
    assert set(result.failed_names()) == sensitive
    for r in result.reports:
        if r.name in sensitive:
            assert r.passed is False
            assert r.witness
        else:
            assert r.passed is True, r.name  # untouched checks stay green
    assert not result.ok
    # the witnesses point at the damaged row
    by_name = {r.name: r for r in result.reports}
    if "golden-tables" in sensitive:
        family = spec.partition(":")[0]
        assert by_name["golden-tables"].params == {"family": family, "row": 3}
        assert f"{family}_3" in by_name["golden-tables"].witness


def test_corrupt_spec_validation():
    for spec in ("X:1", "G:0", "G:abc", "G", "3:G", "g:3"):
        with pytest.raises(ValueError):
            run_suite(replace(SuiteConfig.quick(), corrupt=spec))


def test_only_filter_skips_the_rest():
    result = run_suite(SuiteConfig.quick(), only=["reciprocity"])
    assert result.counts == {"pass": 1, "fail": 0, "skip": 24, "total": 25}
    assert [r.name for r in result.reports if not r.skipped] == ["reciprocity"]
    assert result.ok  # skips do not count as failures


def test_only_filter_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        run_suite(SuiteConfig.quick(), only=["reciprocity", "nope"])


def test_zero_budget_skips():
    result = run_suite(replace(SuiteConfig.quick(), halfplane_samples=0))
    by_name = {r.name: r for r in result.reports}
    assert by_name["halfplane"].skipped
    assert result.counts["skip"] == 1


# the SuiteConfig field whose budget sizes each check; golden-tables has none
SIZING_FIELDS = {
    "shifted-positivity": "positivity_rows",
    "interconversion": "poly_rows",
    "reciprocity": "reciprocity_rows",
    "q-specializations": "q_rows",
    **{f"def-identity-{family}": "series_n_max" for family in "FGHP"},
    "basic-identities": "series_order",
    "reversion-lemma": "series_order",
    "egf-theorem": "egf_n_max",
    "gh-functional": "gh_order",
    **{f"census-unl-{v}": "census_n_max" for v in ("unrooted", "rooted", "relaxed")},
    "census-unl-birooted": "census_birooted_n_max",
    "census-imp-rooted": "imp_rows",
    "census-imp-unrooted": "imp_rows",
    "restriction-fiber-unrooted": "restriction_n_max",
    "restriction-fiber-rooted": "restriction_n_max",
    "imp-census-series-unrooted": "beta_depth",
    "imp-census-series-rooted": "beta_depth",
    "bernstein-signs": "bernstein_n_max",
    "halfplane": "halfplane_samples",
}


def test_sizing_fields_cover_every_check_but_golden():
    assert set(SIZING_FIELDS) == set(CHECK_NAMES) - {"golden-tables"}


@pytest.mark.parametrize("name", sorted(SIZING_FIELDS))
def test_zero_sizing_budget_skips_the_check(name):
    result = run_suite(replace(SuiteConfig.quick(), **{SIZING_FIELDS[name]: 0}), only=[name])
    assert result.counts == {"pass": 0, "fail": 0, "skip": 25, "total": 25}


# each public check with a size argument, called at that size
SIZED_CHECKS = {
    "halfplane": lambda size: check_halfplane(size, 1),
    "def-identity-G": lambda size: check_def_identity("G", size, 5),
    "egf-theorem": lambda size: check_egf_theorem([1], size),
    "gh-functional": lambda size: check_gh_functional([1], size),
    "bernstein-signs": lambda size: check_bernstein([1.0], size),
    "imp-census-series-rooted": lambda size: check_imp_census_series({}, True, size),
}


@pytest.mark.parametrize("name", sorted(SIZED_CHECKS))
def test_checks_reject_a_negative_size_and_pass_size_zero(name):
    with pytest.raises(ValueError, match=">= 0"):
        SIZED_CHECKS[name](-1)
    assert SIZED_CHECKS[name](0).passed


@pytest.mark.parametrize("name", sorted(SIZED_CHECKS))
def test_negative_sizing_budget_skips_the_check(name):
    result = run_suite(replace(SuiteConfig.quick(), **{SIZING_FIELDS[name]: -3}), only=[name])
    assert result.counts == {"pass": 0, "fail": 0, "skip": 25, "total": 25}


def test_golden_tables_run_with_every_budget_zero():
    zero = {field: 0 for field in set(SIZING_FIELDS.values())}
    result = run_suite(replace(SuiteConfig.quick(), **zero))
    assert [r.name for r in result.reports if not r.skipped] == ["golden-tables"]
    assert result.ok


def test_default_config_all_pass():
    result = run_suite()
    assert result.ok, result.failed_names()
    assert result.counts["pass"] == 25


@pytest.mark.parametrize("bad_n, witness", [
    # below n_max the Pruefer census is the oracle, at n_max the family row
    (2, "n=2: census x^2+3x+3, Pruefer census x^2+3x+2"),
    (4, "n=4: census 15x^4+85x^3+183x^2+177x+65, expected 15x^4+85x^3+183x^2+177x+64"),
])
def test_census_unl_checks_the_insertion_walk_against_pruefer_below_n_max(
        monkeypatch, bad_n, witness):
    census = trees_module.unl_polynomial

    def bumped(n, variant):
        got = census(n, variant)
        return got + Poly((1,)) if n == bad_n else got
    monkeypatch.setattr(trees_module, "unl_polynomial", bumped)
    result = run_suite(SuiteConfig.quick(), only=["census-unl-relaxed"])
    (report,) = [r for r in result.reports if not r.skipped]
    assert report.passed is False
    assert report.witness == witness
    assert report.params == {"n": bad_n, "variant": "relaxed"}


def test_census_unl_checks_count_without_building(monkeypatch):
    """Work count of the four census-unl checks at default budgets: the
    only canonical forms are the n = 1 trees that seed each census, and
    the program has no insertion walk left to build larger trees."""
    work = Counter()
    canonical = trees_module._canonical

    def counted_canonical(*args):
        work["canonical"] += 1
        return canonical(*args)
    monkeypatch.setattr(trees_module, "_canonical", counted_canonical)
    only = [name for name in CHECK_NAMES if name.startswith("census-unl-")]
    assert len(only) == 4
    assert run_suite(only=only).ok
    assert work == {"canonical": 44}
    assert not {"_children", "_inserted"} & set(vars(trees_module))


# ── restriction fibers ───────────────────────────────────────────────────

def _rhs_series_prediction(variant, n, u, m):
    """The prediction as first written: the rational display, read back as
    an EGF coefficient that must be an integer."""
    family = census_family(variant)[0].name
    value = rhs_series(family, n, m - n + 1, poly=X ** u).egf_coefficient(m - n)
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize("variant", ["unrooted", "rooted"])
def test_restriction_prediction_matches_rhs_series(variant):
    for n in range(1, 5):
        for u in range(trees_module.u_bound(n, variant) + 1):
            for m in range(n, n + 5):
                assert _restriction_expected(variant, n, u, m) == \
                    _rhs_series_prediction(variant, n, u, m), (n, u, m)


def test_restriction_check_walks_each_size_once_per_n(monkeypatch):
    walks = []
    real = trees_module._cayley_pairs

    def counted(m):
        walks.append(m)
        return real(m)
    monkeypatch.setattr(trees_module, "_cayley_pairs", counted)
    trees_module._fibers.cache_clear()
    try:
        assert _check_restriction(True, 3, 3).passed
    finally:
        trees_module._fibers.cache_clear()
    # one walk per (m, n) with n <= 3 < m <= n + 3
    assert sorted(walks) == [2, 3, 3, 4, 4, 4, 5, 5, 6]


def test_each_row_value_is_shifted_once(monkeypatch):
    shifted = Counter()
    real = suite_module.shift

    def counted(p, a):
        shifted[p.coeffs, a] += 1
        return real(p, a)
    monkeypatch.setattr(suite_module, "shift", counted)
    suite_module._shifted.cache_clear()
    try:
        assert run_suite().ok
    finally:
        suite_module._shifted.cache_clear()
    assert len(shifted) == 176
    assert set(shifted.values()) == {1}


def test_restriction_check_reads_restriction_census(monkeypatch):
    census = trees_module.restriction_census

    def bumped(t, m_max):
        got = census(t, m_max)
        return got[:-1] + [got[-1] + 1] if t.n == 2 else got
    monkeypatch.setattr(trees_module, "restriction_census", bumped)
    report = _check_restriction(False, 3, 3)
    assert report.passed is False
    assert report.params == {"n": 2, "m": 5}
    assert report.witness.endswith("preimages at m=5, series expects 125")
