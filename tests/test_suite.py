"""Suite runner behaviour: report shape, determinism, corruption sensitivity."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import gregtrees.series as series_module
import gregtrees.suite as suite_module
import gregtrees.trees as trees_module
from gregtrees.polys import Poly, X, census_family, shift
from gregtrees.report import CheckReport, jsonable
from gregtrees.series import (check_def_identity, check_egf_theorem, check_gh_functional,
                              check_imp_census_series, rhs_series)
from gregtrees.suite import (_BUNDLE_FAMILIES, CHECK_NAMES, CHECKS, SuiteConfig, _check_restriction,
                             _make_bundle, _restriction_expected, _window, run_suite)
from gregtrees.wfunc import check_bernstein, check_halfplane


def _tie_readers(config, family, row):
    """The checks whose `Check.reads` cover the row and tie it exactly."""
    return {c.name for c in CHECKS if c.ties for read in c.reads
            if read[0] == family and row in _window(config, read)}


def _untied_rows(config):
    """The (family, row) pairs some check reads and no check ties."""
    def read_by(checks):
        return {(read[0], row) for c in checks for read in c.reads for row in _window(config, read)}
    return read_by(CHECKS) - read_by(c for c in CHECKS if c.ties)


def _bump(gen, row, power):
    """`gen` with +1 on the coefficient of x^power(degree) of the given row."""
    def bumped(n_max):
        rows = gen(n_max)
        rows[row - 1] = rows[row - 1] + X ** power(rows[row - 1].degree)
        return rows
    return bumped


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


def test_bundle_is_as_deep_as_the_deepest_declared_read():
    assert {len(rows) for rows in _make_bundle(SuiteConfig(), CHECKS, None).values()} == {50}
    assert {len(rows) for rows in _make_bundle(SuiteConfig.quick(), CHECKS, None).values()} == {15}


def _counted_generators(monkeypatch):
    """Wrap each `suite.gen_*` of the bundle; the list gets (family, rows)
    per call."""
    calls = []
    for family in _BUNDLE_FAMILIES:
        gen = getattr(suite_module, f"gen_{family}")
        monkeypatch.setattr(suite_module, f"gen_{family}",
                            lambda n, family=family, gen=gen: calls.append((family, n)) or gen(n))
    return calls


@pytest.mark.parametrize("only, zero, asked", [
    (["golden-tables"], {}, [("F", 6), ("G", 6), ("H", 7)]),
    (None, {}, [("F", 50), ("G", 50), ("H", 50), ("P", 50)]),
    (["interconversion"], {}, [("F", 40), ("G", 41), ("H", 40)]),
    (["halfplane"], {}, []),
    (["shifted-positivity", "interconversion", "golden-tables"],
     {"positivity_rows": 0, "poly_rows": 0}, [("F", 6), ("G", 6), ("H", 7)]),
], ids=["golden", "all", "interconversion", "halfplane", "zero-budgets-skip"])
def test_bundle_holds_only_the_rows_the_running_checks_read(monkeypatch, only, zero, asked):
    calls = _counted_generators(monkeypatch)
    assert run_suite(replace(SuiteConfig(), **zero), only=only).ok
    assert calls == asked


def test_a_family_read_twice_is_cut_at_the_deeper_read(monkeypatch):
    """An entry that declares G twice, the deeper read first, is handed G,
    and G at x - 1, to its deepest read, not to whichever read comes last."""
    seen = {}

    def record(config, bundle):
        seen.update({family: len(rows) for family, rows in bundle.items()})
        return CheckReport.ok("reciprocity")
    i = CHECK_NAMES.index("reciprocity")
    twice = replace(CHECKS[i], run=record, shifts=("G",),
                    reads=(("G", "reciprocity_rows", 1), ("G", "reciprocity_rows", 0)))
    monkeypatch.setattr(suite_module, "CHECKS", (*CHECKS[:i], twice, *CHECKS[i + 1:]))
    assert run_suite(SuiteConfig.quick(), only=["reciprocity"]).ok
    assert seen == {"G": 11, "G-shift": 11}


@pytest.mark.parametrize("only, spec, failed", [
    (["golden-tables"], "P:3", []),            # P is not built: left alone
    (["golden-tables"], "G:20", []),           # past the rows golden reads
    (None, "G:41", ["interconversion"]),       # G_{n+1} at n = poly_rows
    (None, "G:50", []),                        # the deepest row read, and untied
], ids=["golden-P:3", "golden-G:20", "all-G:41", "all-G:50"])
def test_corrupt_leaves_a_row_the_bundle_does_not_hold_alone(only, spec, failed):
    result = run_suite(replace(SuiteConfig(), corrupt=spec), only=only)
    assert result.failed_names() == failed


@pytest.mark.parametrize("only", [None, ["golden-tables"]], ids=["all", "golden"])
def test_corrupt_past_the_deepest_read_row_is_an_error(only):
    """The reach of `corrupt` is the deepest row any entry reads at this
    config, whichever checks run."""
    with pytest.raises(ValueError, match="corrupt row 51 beyond"):
        run_suite(replace(SuiteConfig(), corrupt="G:51"), only=only)
    run_suite(replace(SuiteConfig.quick(), corrupt="F:15"), only=only)
    with pytest.raises(ValueError, match="corrupt row 16 beyond"):
        run_suite(replace(SuiteConfig.quick(), corrupt="F:16"), only=only)


@pytest.mark.parametrize("spec", ["G:\u00b2", "X:1", "G:0", "G:", "G:51"])
def test_a_bad_corrupt_spec_is_an_error_before_any_row_is_built(monkeypatch, spec):
    """A malformed spec, or a row past the deepest that any entry reads,
    raises ValueError with its own message before any `gen_*` call, even
    for a digit like a superscript two that `int` cannot read."""
    calls = _counted_generators(monkeypatch)
    match = "corrupt row 51 beyond" if spec == "G:51" else "corrupt spec"
    with pytest.raises(ValueError, match=match):
        run_suite(replace(SuiteConfig(), corrupt=spec))
    assert calls == []


_QUICK_ROWS = [(family, row) for family in _BUNDLE_FAMILIES
               for row in range(1, len(_make_bundle(SuiteConfig.quick(), CHECKS, None)["F"]) + 1)]
_QUICK_IDS = [f"{family}:{row}" for family, row in _QUICK_ROWS]


def _assert_trips_exactly_the_tie_readers(result, config, family, row):
    """The failed set of `result` is the checks that tie the damaged row by
    their `Check.reads`, each with a witness; every other check passes."""
    sensitive = _tie_readers(config, family, row)
    assert set(result.failed_names()) == sensitive, (family, row)
    for r in result.reports:
        if r.name in sensitive:
            assert r.passed is False
            assert r.witness
        else:
            assert r.passed is True, (family, row, r.name)  # untouched checks stay green
    assert result.ok == (not sensitive)   # an untied row trips nothing
    # the witnesses point at the damaged row
    golden = result.reports[CHECK_NAMES.index("golden-tables")]
    if "golden-tables" in sensitive:
        assert golden.params == {"family": family, "row": row}
        assert f"{family}_{row}" in golden.witness


@pytest.mark.parametrize("family, row", _QUICK_ROWS, ids=_QUICK_IDS)
def test_corruption_trips_exactly_the_consumers(family, row):
    """+1 on the constant term of one row of the quick bundle, through
    `corrupt`, fails exactly the checks that tie the row, and no other."""
    quick = SuiteConfig.quick()
    result = run_suite(replace(quick, corrupt=f"{family}:{row}"))
    _assert_trips_exactly_the_tie_readers(result, quick, family, row)


@pytest.mark.parametrize("family, row", _QUICK_ROWS, ids=_QUICK_IDS)
def test_leading_corruption_trips_exactly_the_consumers(monkeypatch, family, row):
    """+1 on the leading coefficient of one row of the quick bundle, through
    a wrapped `suite.gen_*`, fails exactly the checks that tie the row."""
    gen = getattr(suite_module, f"gen_{family}")
    monkeypatch.setattr(suite_module, f"gen_{family}", _bump(gen, row, lambda degree: degree))
    quick = SuiteConfig.quick()
    _assert_trips_exactly_the_tie_readers(run_suite(quick), quick, family, row)


@pytest.mark.parametrize("family, row", _QUICK_ROWS, ids=_QUICK_IDS)
def test_middle_corruption_trips_exactly_the_consumers(monkeypatch, family, row):
    """+1 on the coefficient of x^(degree // 2) of one row of the quick
    bundle, through a wrapped `suite.gen_*`, fails exactly the checks that
    tie the row: a check that reads only the ends of a row misses it."""
    gen = getattr(suite_module, f"gen_{family}")
    monkeypatch.setattr(suite_module, f"gen_{family}", _bump(gen, row, lambda degree: degree // 2))
    quick = SuiteConfig.quick()
    _assert_trips_exactly_the_tie_readers(run_suite(quick), quick, family, row)


def test_untied_rows_inventory():
    """The rows that some check reads and no check ties, from `Check.reads`
    alone: a corruption there passes every check, since only the sign-only
    `shifted-positivity` reads them.  `interconversion` ties F_n and G_{n+1}
    to G_n for n <= poly_rows by (1+x)^2 F_n = x G_{n+1} + n G_n; raising
    poly_rows and reciprocity_rows to positivity_rows empties both sets (the
    ROADMAP item "Every row a check reads is tied by an identity").  They
    must never grow.  `run_suite` does not enforce that reach rule yet,
    since it would change the default report."""
    def span(family, first, last):
        return {(family, row) for row in range(first, last + 1)}
    assert _untied_rows(SuiteConfig()) == (span("F", 41, 50) | span("G", 42, 50)
                                           | span("H", 41, 50) | span("P", 31, 50))
    assert _untied_rows(SuiteConfig.quick()) == (span("F", 13, 15) | span("G", 14, 15)
                                                 | span("H", 13, 15) | span("P", 11, 15))


def test_read_windows_shift_by_their_offset_and_may_be_empty():
    config = replace(SuiteConfig.quick(), q_rows=1)
    assert _window(config, ("F", "q_rows", -1)) == range(1, 1)
    assert _window(config, ("H", "q_rows", 1)) == range(2, 3)
    config = replace(config, q_rows=0)
    assert [list(_window(config, ("F", "q_rows", k))) for k in (-1, 0, 1)] == [[], [], []]
    assert list(_window(config, ("G", 6, 0))) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("reads, error", [
    ((("G", "poly_rows", -1), ("H", "poly_rows", 0)), IndexError),
    ((("G", "poly_rows", 0),), KeyError),
])
def test_a_runner_reads_only_its_declared_rows(monkeypatch, reads, error):
    """Declare fewer rows, or fewer families, than interconversion reads,
    and it raises instead of reading the rest of the bundle."""
    i = CHECK_NAMES.index("interconversion")
    short = replace(CHECKS[i], reads=reads)
    assert run_suite(SuiteConfig.quick(), only=["interconversion"]).ok
    monkeypatch.setattr(suite_module, "CHECKS", (*CHECKS[:i], short, *CHECKS[i + 1:]))
    with pytest.raises(error):
        run_suite(SuiteConfig.quick(), only=["interconversion"])


@pytest.mark.parametrize("family, witness", [("G", "G_1(x-1) = 0"), ("P", "(-1)^0 P_1 = 0")])
def test_positivity_fails_on_a_zero_row(monkeypatch, family, witness):
    gen = getattr(suite_module, f"gen_{family}")
    monkeypatch.setattr(suite_module, f"gen_{family}", lambda n_max: [Poly()] + gen(n_max)[1:])
    result = run_suite(SuiteConfig.quick(), only=["shifted-positivity"])
    report = result.reports[CHECK_NAMES.index("shifted-positivity")]
    assert report.passed is False
    assert report.params == {"family": family, "row": 1}
    assert report.witness == witness


def test_positivity_fails_on_a_p_row_that_is_not_unimodal(monkeypatch):
    gen = suite_module.gen_P
    monkeypatch.setattr(suite_module, "gen_P",
                        lambda n_max: [*gen(n_max)[:2], Poly((9, 1, 2)), *gen(n_max)[3:]])
    result = run_suite(SuiteConfig.quick(), only=["shifted-positivity"])
    report = result.reports[CHECK_NAMES.index("shifted-positivity")]
    assert report.passed is False
    assert report.params == {"family": "P", "row": 3}
    assert report.witness == "(-1)^2 P_3 = 2x^2+x+9 is not unimodal"


def test_golden_fails_on_a_wrong_shifted_row(monkeypatch):
    """The unshifted tables match, so the shifted table is what fails."""
    real = suite_module._shifted_rows

    def wrong_g3(family, rows):
        got = real(family, rows)
        return got[:2] + (got[2] + 1,) + got[3:] if family == "G" else got
    monkeypatch.setattr(suite_module, "_shifted_rows", wrong_g3)
    result = run_suite(SuiteConfig.quick(), only=["golden-tables"])
    report = result.reports[CHECK_NAMES.index("golden-tables")]
    assert report.passed is False
    assert report.params == {"family": "G", "row": 3, "shifted": True}
    assert report.witness == "G_3(x-1) = 3x^2+4x+3"


def test_corrupt_spec_validation():
    for spec in ("X:1", "G:0", "G:abc", "G", "3:G", "g:3"):
        with pytest.raises(ValueError):
            run_suite(replace(SuiteConfig.quick(), corrupt=spec))


def test_only_filter_skips_the_rest():
    result = run_suite(SuiteConfig.quick(), only=["reciprocity"])
    assert result.counts == {"pass": 1, "fail": 0, "skip": 24, "total": 25}
    assert [r.name for r in result.reports if not r.skipped] == ["reciprocity"]
    assert result.ok  # skips do not count as failures


def test_each_check_is_timed_outside_the_report():
    """run_suite times every check, skipped ones too; the seconds stay out
    of equality and of the JSON form."""
    result = run_suite(SuiteConfig.quick(), only=["reciprocity"])
    assert all(isinstance(r.seconds, float) and r.seconds >= 0 for r in result.reports)
    report = next(r for r in result.reports if r.name == "reciprocity")
    assert "seconds" not in report.to_json()
    assert report == replace(report, seconds=None)


def test_only_filter_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        run_suite(SuiteConfig.quick(), only=["reciprocity", "nope"])


def test_zero_budget_skips():
    result = run_suite(replace(SuiteConfig.quick(), halfplane_samples=0))
    by_name = {r.name: r for r in result.reports}
    assert by_name["halfplane"].skipped
    assert by_name["halfplane"].to_json() == {
        "name": "halfplane", "params": {}, "passed": None, "witness": None, "skipped": True}
    assert result.counts["skip"] == 1


def test_a_skip_is_passed_none():
    """`skipped` reads the one outcome field and is not a constructor field."""
    assert CheckReport.skip("x") == CheckReport("x", passed=None)
    assert CheckReport.skip("x").skipped and not CheckReport.ok("x").skipped
    with pytest.raises(TypeError):
        CheckReport("x", skipped=True)


def test_jsonable_writes_any_other_value_as_its_string():
    assert jsonable({1: (Fraction(1, 2), None, 2.5), "z": complex(1, 2)}) == {
        "1": ["1/2", None, 2.5], "z": "(1+2j)"}


@pytest.mark.parametrize("passed, witness", [(False, None), (True, "w"), (None, "w")])
def test_a_witness_is_present_iff_the_check_failed(passed, witness):
    with pytest.raises(ValueError, match="witness present iff failed"):
        CheckReport("x", passed=passed, witness=witness)


# the SuiteConfig field whose budget sizes each check; golden-tables has none,
# and the fiber checks also have restriction_extra (tested below)
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


@pytest.mark.parametrize("name", sorted(SIZING_FIELDS))
def test_negative_sizing_budget_raises_naming_the_field(monkeypatch, name):
    """A negative budget is an error before the bundle is built, whether
    or not its check is selected (zero skips the check, as above)."""
    def no_bundle(config):
        raise AssertionError("bundle built")
    monkeypatch.setattr(suite_module, "_make_bundle", no_bundle)
    field = SIZING_FIELDS[name]
    for only in ([name], ["golden-tables"], None):
        with pytest.raises(ValueError, match=rf"SuiteConfig\.{field} = -3; .* >= 0"):
            run_suite(replace(SuiteConfig.quick(), **{field: -3}), only=only)


FIBER_CHECKS = ["restriction-fiber-unrooted", "restriction-fiber-rooted"]


def test_zero_restriction_extra_skips_both_fiber_checks():
    """At zero the fiber checks would compare no fiber and still pass."""
    result = run_suite(replace(SuiteConfig.quick(), restriction_extra=0), only=FIBER_CHECKS)
    assert result.counts == {"pass": 0, "fail": 0, "skip": 25, "total": 25}


def test_negative_restriction_extra_raises_naming_the_field(monkeypatch):
    def no_bundle(config):
        raise AssertionError("bundle built")
    monkeypatch.setattr(suite_module, "_make_bundle", no_bundle)
    for only in (FIBER_CHECKS, ["golden-tables"], None):
        with pytest.raises(ValueError, match=r"SuiteConfig\.restriction_extra = -1; .* >= 0"):
            run_suite(replace(SuiteConfig.quick(), restriction_extra=-1), only=only)


# a broken pair of budgets per constraint, at quick budgets (n_max 4, depth 4)
BROKEN_PAIRS = {
    ("series_order", "series_n_max", 5): ("def-identity-F", {"series_order": 8}),
    ("beta_order", "beta_depth", 0): ("imp-census-series-rooted", {"beta_order": 3}),
}


def test_budget_pairs_are_the_table_constraints():
    assert {need for check in suite_module.CHECKS for need in check.needs} == set(BROKEN_PAIRS)


def test_both_budgets_of_a_pair_size_its_check():
    for check in suite_module.CHECKS:
        for a, b, _ in check.needs:
            assert {a, b} <= set(check.sizes), check.name


@pytest.mark.parametrize("need", sorted(BROKEN_PAIRS))
def test_disagreeing_budgets_raise_naming_both_fields(monkeypatch, need):
    """A broken pair is an error before the bundle is built, whether or not
    its check is selected."""
    def no_bundle(config):
        raise AssertionError("bundle built")
    monkeypatch.setattr(suite_module, "_make_bundle", no_bundle)
    a, b, _ = need
    name, broken = BROKEN_PAIRS[need]
    for only in ([name], ["golden-tables"], None):
        with pytest.raises(ValueError, match=rf"SuiteConfig\.{a} = \d+ must be >= SuiteConfig\.{b}"):
            run_suite(replace(SuiteConfig.quick(), **broken), only=only)


@pytest.mark.parametrize("need", sorted(BROKEN_PAIRS))
def test_budget_pair_holds_at_its_edge_and_lapses_at_zero(need):
    a, b, k = need
    name, _ = BROKEN_PAIRS[need]
    quick = SuiteConfig.quick()
    edge = replace(quick, **{a: getattr(quick, b) + k})
    assert run_suite(edge, only=[name]).ok
    # a < b + k, but b = 0 skips the check and the pair does not bind
    skipped = run_suite(replace(quick, **{a: max(k - 1, 0), b: 0}), only=[name])
    assert skipped.counts["skip"] == 25


@pytest.mark.parametrize("zero, skipped", [
    ("beta_order", {"imp-census-series-unrooted", "imp-census-series-rooted"}),
    ("series_order", {*(f"def-identity-{f}" for f in "FGHP"), "basic-identities",
                      "reversion-lemma"}),
])
def test_zero_order_skips_its_checks_before_they_run(monkeypatch, zero, skipped):
    """Both budgets of a pair size its check: a zero order beside a nonzero
    depth skips the check instead of reaching the check function."""
    def not_called(*args, **kwargs):
        raise AssertionError("check function called")
    for attr in ("check_def_identity", "check_imp_census_series", "check_basic_identities",
                 "check_reversion_lemma"):
        monkeypatch.setattr(series_module, attr, not_called)
    result = run_suite(replace(SuiteConfig.quick(), **{zero: 0}), only=sorted(skipped))
    assert {r.name for r in result.reports if r.skipped} == set(CHECK_NAMES)


@pytest.mark.parametrize("field", ["series_order", "beta_order"])
def test_negative_order_raises_naming_the_field(monkeypatch, field):
    def no_bundle(config):
        raise AssertionError("bundle built")
    monkeypatch.setattr(suite_module, "_make_bundle", no_bundle)
    with pytest.raises(ValueError, match=rf"SuiteConfig\.{field} = -1; .* >= 0"):
        run_suite(replace(SuiteConfig.quick(), **{field: -1}))


# per sample field, the check whose domain it must lie in and values outside it
OUTSIDE_DOMAINS = {
    "egf_x_samples": ("egf-theorem", [-1, Fraction(-1), -1.0]),
    "bernstein_points": ("bernstein-signs", [0, 0.0, -1.0, float("inf"), float("-inf"),
                                             float("nan")]),
}


def test_sample_domains_are_the_table_domains():
    assert {(field, check.name) for check in suite_module.CHECKS
            for field, _, _ in check.domains} == {(f, c) for f, (c, _) in OUTSIDE_DOMAINS.items()}


@pytest.mark.parametrize("field", sorted(OUTSIDE_DOMAINS))
def test_sample_outside_its_domain_raises_naming_the_field(monkeypatch, field):
    """A sample outside its check's domain is an error before the bundle is
    built, whether or not its check is selected."""
    def no_bundle(config):
        raise AssertionError("bundle built")
    monkeypatch.setattr(suite_module, "_make_bundle", no_bundle)
    name, outside = OUTSIDE_DOMAINS[field]
    quick = SuiteConfig.quick()
    for value in outside:
        broken = replace(quick, **{field: (*getattr(quick, field), value)})
        for only in ([name], ["golden-tables"], None):
            with pytest.raises(ValueError, match=rf"SuiteConfig\.{field} holds .*\({name}\)"):
                run_suite(broken, only=only)


def test_samples_at_the_domain_edges_run():
    config = replace(SuiteConfig.quick(), egf_x_samples=(Fraction(-3, 2), Fraction(-1, 2)),
                     bernstein_points=(1e-9, 1e9))
    assert run_suite(config, only=["egf-theorem", "gh-functional", "bernstein-signs"]).ok


def test_check_functions_keep_their_own_budget_errors():
    with pytest.raises(ValueError, match="order 8 too small for n_max 4"):
        check_def_identity("G", 4, 8)
    with pytest.raises(ValueError, match="derivative order 4 exceeds truncation order 3"):
        check_imp_census_series({4: [1]}, True, 3)
    with pytest.raises(ValueError, match="x = -1 is outside the domain"):
        check_egf_theorem([-1], 2)
    with pytest.raises(ValueError, match="sign checks need z > 0"):
        check_bernstein([0.0], 2)


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


def _dropping_one_sequence(monkeypatch, at):
    """Wrap `trees._constrained_prufer` so that it loses its first sequence
    at (n, u) = `at`."""
    real = trees_module._constrained_prufer

    def dropped(n, u, slack, floor):
        sequences = real(n, u, slack, floor)
        if (n, u) == at:
            next(sequences)
        return sequences
    monkeypatch.setattr(trees_module, "_constrained_prufer", dropped)


@pytest.mark.parametrize("u, witness", [
    (0, "n=2: census x+2, Pruefer census x"),
    (1, "n=2: census x+2, Pruefer census 2"),
])
def test_a_lost_pruefer_sequence_below_two_unlabeled_fails_the_census(monkeypatch, u, witness):
    """At u <= 1 the count is the census itself: a lost configuration
    shows as a census mismatch."""
    _dropping_one_sequence(monkeypatch, (2, u))
    result = run_suite(SuiteConfig.quick(), only=["census-unl-rooted"])
    (report,) = [r for r in result.reports if not r.skipped]
    assert report.passed is False
    assert report.witness == witness
    assert report.params == {"n": 2, "variant": "rooted"}


def test_a_lost_pruefer_sequence_breaks_the_division_by_u_factorial(monkeypatch):
    """At u >= 2 the census divides the count by u!, and a lost
    configuration leaves a remainder: the free-action lemma fails."""
    _dropping_one_sequence(monkeypatch, (3, 2))
    with pytest.raises(ArithmeticError,
                       match=r"^rooted census at n=3, u=2: 5 configurations, not a multiple of 2!$"):
        run_suite(SuiteConfig.quick(), only=["census-unl-rooted"])


def test_census_unl_checks_count_without_building(monkeypatch):
    """Work count of the four census-unl checks at default budgets: the
    only canonical forms are the n = 1 trees that seed each census, listed
    once per variant (12 in all: 1 unrooted, 1 rooted, 2 relaxed and 8
    birooted), and the program has no insertion walk left to build larger
    trees.  The Pruefer census pulls its sequences through
    `trees._constrained_prufer`, where the bench marks them, and decodes
    and split-keys none: only the n = 1 seeds are."""
    work = Counter()
    walking = [0]
    sequences = trees_module._constrained_prufer

    def counted_sequences(n, *args):
        for seq in sequences(n, *args):
            walking[0] = n
            work["sequences", n] += 1
            yield seq
    monkeypatch.setattr(trees_module, "_constrained_prufer", counted_sequences)

    def counted(name):
        real = getattr(trees_module, name)

        def wrapper(*args):
            work[name, walking[0]] += 1
            return real(*args)
        monkeypatch.setattr(trees_module, name, wrapper)
    for name in ("_prufer_pairs", "_split_marks", "_canonical"):
        counted(name)
    only = [name for name in CHECK_NAMES if name.startswith("census-unl-")]
    assert len(only) == 4
    trees_module._seed_counts.cache_clear()
    assert run_suite(only=only).ok
    assert work == {("sequences", 1): 24, ("sequences", 2): 104, ("sequences", 3): 83,
                    ("sequences", 4): 1659, ("_prufer_pairs", 1): 12, ("_split_marks", 1): 20,
                    ("_canonical", 1): 12}
    assert not {"_children", "_inserted"} & set(vars(trees_module))


# ── restriction fibers ───────────────────────────────────────────────────

def _rhs_series_prediction(variant, n, u, m):
    """The prediction read off a display one entry longer than the one the
    suite builds, so it also checks that truncation keeps the entry."""
    family = census_family(variant)[0].name
    return rhs_series(family, n, m - n + 1, poly=X ** u)[m - n]


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
    trees_module._fiber_keys.cache_clear()
    try:
        assert _check_restriction(True, 3, 3).passed
        assert _check_restriction(False, 3, 3).passed
    finally:
        trees_module._fiber_keys.cache_clear()
    # one walk per (m, n) with n <= 3 < m <= n + 3 serves both sides
    assert sorted(walks) == [2, 3, 3, 4, 4, 4, 5, 5, 6]


def test_restriction_checks_restrict_no_tree(monkeypatch):
    """The fiber checks look each Greg tree's key up in the walk, so they
    pass at default budgets with `restrict` refusing every call, from
    empty caches."""
    def refuse(x, n):
        raise AssertionError("restrict called")
    monkeypatch.setattr(trees_module, "restrict", refuse)
    for value in vars(trees_module).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    assert run_suite(only=["restriction-fiber-unrooted", "restriction-fiber-rooted"]).ok


def _shift_calls(monkeypatch, config):
    """The suite's result at `config` from an empty shift memo, and the
    polynomial of each `shift` call it made."""
    calls = []
    real = suite_module.shift

    def counted(p, a):
        assert a == -1
        calls.append(p)
        return real(p, a)
    monkeypatch.setattr(suite_module, "shift", counted)
    suite_module._shifted_rows.cache_clear()
    try:
        return run_suite(config), calls
    finally:
        suite_module._shifted_rows.cache_clear()


def test_shift_runs_on_row_one_and_departures_alone(monkeypatch):
    """At defaults every shifted row after row 1 is stepped from the row
    before, so every `shift` call is on a constant.  Under G:45 the one
    call on a nonconstant polynomial is the departure of G_46: the bump's
    step, -(90 + 45x) with G's (a0, a1) = (2n, n) at n = 45."""
    result, calls = _shift_calls(monkeypatch, SuiteConfig())
    assert result.ok
    assert calls == [Poly((1,))] * 4   # row 1 of each family's pass
    result, calls = _shift_calls(monkeypatch, replace(SuiteConfig(), corrupt="G:45"))
    assert result.ok   # G_45 is read by the sign-only check alone
    assert [p for p in calls if p.degree > 0] == [Poly((-90, -45))]
    assert Poly((1,)) in calls   # the departure of G_45 itself


def test_each_shifted_family_is_made_once_per_run(monkeypatch):
    """One pass per family that some running check shifts, to the deepest
    of their reads: F, G and H to positivity_rows, P to reciprocity_rows;
    each check is handed exactly the families it declares in `shifts`."""
    passes, handed = [], {}
    real = suite_module._shifted_rows

    def recorded(family, rows):
        passes.append((family, len(rows)))
        return real(family, rows)
    monkeypatch.setattr(suite_module, "_shifted_rows", recorded)
    checks = []
    for check in CHECKS:
        def run(config, bundle, check=check):
            handed[check.name] = {f: len(rows) for f, rows in bundle.items() if f.endswith("-shift")}
            return check.run(config, bundle)
        checks.append(replace(check, run=run))
    monkeypatch.setattr(suite_module, "CHECKS", tuple(checks))
    assert run_suite().ok
    assert sorted(passes) == [("F", 50), ("G", 50), ("H", 50), ("P", 30)]
    for check in CHECKS:
        assert set(handed[check.name]) == {f"{f}-shift" for f in check.shifts}, check.name
    assert handed["reciprocity"] == {"G-shift": 30, "P-shift": 30}
    assert handed["q-specializations"] == {"F-shift": 11, "G-shift": 12, "H-shift": 13}


_SHIFT_READERS = ["golden-tables", "shifted-positivity", "reciprocity", "q-specializations",
                  "census-imp-rooted", "census-imp-unrooted"]


def _assert_shifted_rows_are_shifts(monkeypatch, config):
    """Run the checks that read shifted rows at `config`; every shifted
    row handed to them is its row at x - 1 by `shift`, the oracle."""
    seen = []
    real = suite_module._shifted_rows

    def recorded(family, rows):
        got = real(family, rows)
        seen.append((family, rows, got))
        return got
    monkeypatch.setattr(suite_module, "_shifted_rows", recorded)
    run_suite(config, only=_SHIFT_READERS)
    assert {family for family, _, _ in seen} == set(_BUNDLE_FAMILIES)
    for family, rows, got in seen:
        assert got == tuple(shift(row, -1) for row in rows), family
    return seen


@pytest.mark.parametrize("corrupt", [None] + [f"{family}:{row}" for family in _BUNDLE_FAMILIES
                                              for row in (1, 2, 25, 50)])
def test_every_shifted_row_a_check_reads_is_its_shift(monkeypatch, corrupt):
    _assert_shifted_rows_are_shifts(monkeypatch, replace(SuiteConfig(), corrupt=corrupt))


def test_shifted_rows_survive_zero_and_overlong_rows(monkeypatch):
    """Row 10 of each family zero; rows 20, 29 and 49 longer than their
    index (x^30, x^29 and x^49 added), the last two one entry past it in
    the last step of a 30-row and a 50-row pass, and the rows after them:
    each is shifted whole or stepped, with no step on a ring too short for
    it, and every shifted row a check reads is still the shift of its row."""
    for family in _BUNDLE_FAMILIES:
        gen = getattr(suite_module, f"gen_{family}")

        def damaged(n_max, gen=gen):
            rows = gen(n_max)
            rows[9] = Poly()
            for row, power in ((20, 30), (29, 29), (49, 49)):
                if row <= n_max:
                    rows[row - 1] = rows[row - 1] + X ** power
            return rows
        monkeypatch.setattr(suite_module, f"gen_{family}", damaged)
    seen = _assert_shifted_rows_are_shifts(monkeypatch, SuiteConfig())
    assert {(family, len(rows)) for family, rows, _ in seen} == {
        ("F", 50), ("G", 50), ("H", 50), ("P", 30)}
    assert all(not rows[9] and rows[19].degree == 30 and rows[28].degree == 29
               for _, rows, _ in seen)
    # a first row longer than its index, and a zero first row
    for rows in ((Poly((1, 2)), Poly((2, 1)), Poly((9, 10, 3))), (Poly(), Poly((2, 1)))):
        assert suite_module._shifted_rows("G", rows) == tuple(shift(row, -1) for row in rows)


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
