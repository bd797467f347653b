"""CLI contract tests: frozen outputs, exit codes, determinism, schemas."""

import ast
import decimal
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest

import gregtrees
from gregtrees import cli, polys, wfunc
from gregtrees.cli import _json_rows, main
from gregtrees.polys import Poly
from gregtrees.suite import CHECK_NAMES, SuiteConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── frozen text outputs ───────────────────────────────────────────────────

def _indented(payload) -> str:
    """The CLI's JSON layout: two-space indent, one trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


FROZEN = [
    (("polys", "G", "3"), "1\nx+2\n3x^2+10x+9\n"),
    (("polys", "H-shift", "4", "--format", "bfile"),
     "1 1\n2 1\n3 2\n4 1\n5 6\n6 7\n7 3\n"),
    (("polys", "Q", "3"), "1\nx+1 | 1\nx^2+3x+2 | 3x+4 | 3\n"),
    (("series", "T1", "6"), "0\n1\n1\n3/2\n8/3\n125/24\n54/5\n"),
    (("trees", "rooted", "2", "census-unl", "--format", "csv"),
     "u,count\n0,2\n1,1\n"),
    (("trees", "rooted", "3", "census-imp"), "0 2\n1 4\n2 3\n"),
    (("trees", "unrooted", "3", "list"),
     "3 0 -\n1 2\n1 3\n\n"
     "3 0 -\n1 2\n2 3\n\n"
     "3 0 -\n1 3\n2 3\n\n"
     "3 1 -\n1 4\n2 4\n3 4\n"),
    # one serializer per root-slot count: none, one, a pair
    (("trees", "relaxed", "1", "list"), "1 0 1\n\n1 1 2\n1 2\n"),
    (("trees", "birooted", "1", "list"),
     "1 0 1,1\n\n"
     "1 1 1,2\n1 2\n\n"
     "1 1 2,1\n1 2\n\n"
     "1 1 2,2\n1 2\n\n"
     "1 2 2,3\n1 2\n1 3\n\n"
     "1 2 2,3\n1 2\n2 3\n\n"
     "1 2 3,2\n1 2\n2 3\n\n"
     "1 3 3,4\n1 2\n2 3\n2 4\n"),
    (("trees", "relaxed", "1", "list", "--format", "json"),
     _indented([{"n": 1, "u": 0, "root": 1, "edges": []},
                {"n": 1, "u": 1, "root": 2, "edges": [[1, 2]]}])),
    (("trees", "birooted", "1", "list", "--format", "json"),
     _indented([{"n": 1, "u": 0, "roots": [1, 1], "edges": []},
                {"n": 1, "u": 1, "roots": [1, 2], "edges": [[1, 2]]},
                {"n": 1, "u": 1, "roots": [2, 1], "edges": [[1, 2]]},
                {"n": 1, "u": 1, "roots": [2, 2], "edges": [[1, 2]]},
                {"n": 1, "u": 2, "roots": [2, 3], "edges": [[1, 2], [1, 3]]},
                {"n": 1, "u": 2, "roots": [2, 3], "edges": [[1, 2], [2, 3]]},
                {"n": 1, "u": 2, "roots": [3, 2], "edges": [[1, 2], [2, 3]]},
                {"n": 1, "u": 3, "roots": [3, 4], "edges": [[1, 2], [2, 3], [2, 4]]}])),
    (("trees", "unrooted", "2", "list", "--format", "json"),
     _indented([{"n": 2, "u": 0, "root": None, "edges": [[1, 2]]}])),
]


@pytest.mark.parametrize("argv,expected", FROZEN, ids=[" ".join(a) for a, _ in FROZEN])
def test_frozen_output(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


# SHA-256 of outputs too long to freeze inline, taken at commit 24d06fe;
# the first is also the digest `perfbench` checks for suite-default
PINNED = [
    (("check", "all", "--format", "json"),
     "51376f0060208d2caa245932aebf81a68ce0cad13ce98385005d28d7009ae1cc"),
    (("check", "all"), "c64d01478da7d205395bbf3371e70e39591fcff83b4c22ff594e0712f58704ae"),
    (("series", "T0", "40", "--format", "json"),
     "dc2a341cf170bb89f66512b16cc9ad975240c19527fbdb522a7dffb9245eec97"),
    (("series", "T1", "40", "--format", "json"),
     "d4ff140f8d6eecdc4547b8c1f768586eaca40602f5d58df9431949963ebf5e95"),
    (("series", "T2", "40", "--format", "json"),
     "a8c3b4e7079ef0133859aa27acfdb96dc870d3a309ba5c1fd03182b97a1afb4a"),
    (("series", "W", "40", "--format", "json"),
     "914119513b9d5be43388572ae4f45029601f63fd14638c7f5775b0eaef7b6301"),
    # the Q triangle at depth, taken at commit 762e46d
    (("polys", "Q", "30"), "db212f932a54584b48a4fc0e0756a7ddc70c0f56c3577d111f50302ca3aa0a6f"),
    (("polys", "Q", "30", "--format", "json"),
     "3067bd3b143687f488f1cce1224927ba65fa5475dd48ff1937af7ee2285ceec1"),
    (("polys", "Q", "30", "--format", "csv"),
     "f76e01425047eccae1bb925c976dbc265e549b0ae56a25c2e9d64ac129598867"),
    # the formats the benchmark does not hash, at depth, taken at commit ac69cfb
    (("polys", "F", "200"), "1af352c7a3987f176a8bdca2b19a57e6df8e94171990986501f5952897c3ad67"),
    (("polys", "P", "200"), "c76b376f8149c104adde81e808d2044c05806a9e9fb8947a0c16c453947a6491"),
    (("polys", "H", "200", "--format", "csv"),
     "6915b45ab0a0f0c329153b275f8c537f192faa309aff12627c08221d50a5fcb8"),
]


@pytest.mark.parametrize("argv,digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_pinned_output_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _bench_digests() -> list[tuple[tuple[str, ...], str]]:
    """(argv, SHA-256 of stdout) the benchmark gates on, read from the
    source of ``perfbench/workloads.py`` without importing it."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    classes = {node.name: node for node in ast.parse(source.read_text()).body
               if isinstance(node, ast.ClassDef)}

    def attrs(name):
        return {target.id: ast.literal_eval(node.value) for node in classes[name].body
                if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name) and target.id in ("argv", "digest", "tables")}
    suite = attrs("SuiteDefault")
    return [(suite["argv"], suite["digest"]), *attrs("ExactSeries")["tables"]]


def test_outputs_match_the_bench_digests(capsys):
    """The report and the tables the benchmark checks hash to the digests
    it holds, so a change that would fail its gate fails here first."""
    pinned = _bench_digests()
    assert len(pinned) == 7
    for argv, digest in pinned:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", [("check", "all"), ("check", "all", "--format", "json")],
                         ids=["text", "json"])
def test_timings_leave_stdout_alone(capsys, argv):
    """--timings writes one 'name seconds' line per check to stderr, each
    check of CHECK_NAMES once, and stdout keeps its pinned bytes."""
    digest = dict(PINNED)[argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, timed, err = run(capsys, *argv, "--timings")
    assert code == 0 and timed == out
    lines = [line.split(" ") for line in err.splitlines()]
    assert [name for name, _ in lines] == list(CHECK_NAMES)
    assert all(float(seconds) >= 0 for _, seconds in lines)


def test_wfun_text(capsys):
    code, out, _ = run(capsys, "wfun", "1.0", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "W(1.0) = 0.5671432904097838"
    assert lines[3] == "d^1 W = 0.3618962566348892"
    assert len(lines) == 5


def test_wfun_solves_W_once(capsys, monkeypatch):
    """The printed solve feeds the derivatives; output bytes stay put."""
    calls = []

    def counting(solve):
        def counted(z):
            calls.append(z)
            return solve(z)
        return counted
    monkeypatch.setattr(wfunc, "eval_W", counting(wfunc.eval_W))
    monkeypatch.setattr(cli, "eval_W", counting(cli.eval_W))
    wfunc._solved_W.cache_clear()
    code, _, _ = run(capsys, "wfun", "1.0", "--n-max", "5")
    assert code == 0
    assert len(calls) == 1
    code, out, _ = run(capsys, "wfun", "1.0", "--n-max", "2")
    assert code == 0
    assert out == ("W(1.0) = 0.5671432904097838\n"
                   "residual = 0.000e+00\n"
                   "iterations = 4\n"
                   "d^1 W = 0.3618962566348892\n"
                   "d^2 W = -0.21454064628214375\n")


def test_wfun_complex_json(capsys):
    code, out, _ = run(capsys, "wfun", "1+2j", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["z"] == [1.0, 2.0]
    assert len(payload["w"]) == 2
    assert payload["derivatives"] == []  # not real positive


@pytest.mark.parametrize("z", ["1e308", "1.7976931348623157e308"])
def test_wfun_solves_largest_floats(capsys, z):
    """w e^w overflows past 1e307; the solve there runs on w + log w = log z."""
    code, out, err = run(capsys, "wfun", z, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    with mpmath.workdps(30):
        want = mpmath.lambertw(mpmath.mpf(z))
        assert abs(payload["w"] - want) <= 1e-15 * want
    assert payload["residual"] <= 1e-13 * float(z)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_wfun_derivative_overflow_is_one_error_line(capsys, fmt):
    """d^184 W(1) is past the float range: one stderr line, no traceback."""
    code, out, err = run(capsys, "wfun", "1.0", "--n-max", "200", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == ("gregtrees wfun: error: d^184 W at z=1.0 is past the float range "
                   "(math range error)\n")
    code, out, err = run(capsys, "wfun", "1.0", "--n-max", "183", "--format", fmt)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_bernstein_overflow_is_one_error_line(capsys, fmt):
    """d^150 W(0.1) is past the float range: one stderr line, no report."""
    code, out, err = run(capsys, "check", "bernstein-signs", "--n-max", "150", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == ("gregtrees check: error: W: d^150 at z=0.1 is past the float range "
                   "(math range error)\n")


# ── json schemas ──────────────────────────────────────────────────────────

def test_polys_json(capsys):
    code, out, _ = run(capsys, "polys", "G", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [["1"], ["2", "1"]]


@pytest.mark.parametrize("family", ["F", "G", "H", "P", "F-shift", "G-shift", "H-shift"])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_polys_json_matches_json_module(capsys, family, n):
    """The tables are joined by hand; the json module's indented layout is the oracle."""
    base = family.removesuffix("-shift")
    gen = getattr(gregtrees, f"gen_{base}")
    rows = gen(n) if base == family else gen(n, shifted=True)
    code, out, _ = run(capsys, "polys", family, str(n), "--format", "json")
    assert code == 0
    assert out == _indented([p.to_json() for p in rows])


def test_json_rows_lays_out_zero_and_negative_rows():
    rows = [Poly(), Poly((1, -2)), Poly()]
    assert "".join(_json_rows(rows)) == _indented([p.to_json() for p in rows])
    triangle = [(Poly(),), (Poly((1, -2)), Poly(), Poly((3,)))]
    assert "".join(_json_rows(triangle)) == _indented(
        [[q.to_json() for q in row] for row in triangle])


def test_q_json_matches_json_module(capsys):
    """The Q triangle as json, rows 1..N for every N <= 40, against the json
    module's indented layout of the same rows."""
    triangle = gregtrees.gen_Q(40)
    for n in range(1, 41):
        code, out, _ = run(capsys, "polys", "Q", str(n), "--format", "json")
        assert code == 0
        assert out == _indented([[q.to_json() for q in row] for row in triangle[:n]]), n


def test_q_json_streams_rows(tmp_path):
    """The Q triangle as json is written one row at a time: the traced peak,
    the triangle's Polys included, stays below twice the file (building the
    whole text first took over five times)."""
    path = tmp_path / "rows"
    tracemalloc.start()
    try:
        code = main(["polys", "Q", "40", "--format", "json", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * path.stat().st_size


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "T2", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"series": "T2", "order": 3,
                               "coefficients": ["0", "1", "1/2", "1/2"]}


def test_trees_census_json(capsys):
    code, out, _ = run(capsys, "trees", "rooted", "2", "census-unl",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "variant": "rooted", "statistic": "unl",
                               "counts": [2, 1]}


def test_trees_list_json(capsys):
    code, out, _ = run(capsys, "trees", "rooted", "2", "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    assert payload[-1] == {"n": 2, "u": 1, "root": 3, "edges": [[1, 3], [2, 3]]}


# ── check subcommand ──────────────────────────────────────────────────────

def test_check_single_passes(capsys):
    code, out, _ = run(capsys, "check", "reciprocity", "--quick")
    assert code == 0
    lines = out.splitlines()
    assert "PASS reciprocity" in lines
    assert lines[-1] == "1 passed, 0 failed, 24 skipped"


def test_check_alias_and_overrides(capsys):
    code, out, _ = run(capsys, "check", "egf", "--quick", "--x", "1", "--x", "1/3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["budget"]["egf_x_samples"] == ["1", "1/3"]
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["egf-theorem"]["passed"] is True


def test_check_n_max_override(capsys):
    code, out, _ = run(capsys, "check", "reciprocity", "--quick", "--n-max", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["budget"]["reciprocity_rows"] == 5


def test_check_n_max_zero_skips(capsys):
    code, out, _ = run(capsys, "check", "reciprocity", "--n-max", "0")
    assert code == 0
    lines = out.splitlines()
    assert "SKIP reciprocity" in lines
    assert lines[-1] == "0 passed, 0 failed, 25 skipped"


# a negative number is a value wherever it stands, as it is after `=` or `--`
NEGATIVE_VALUES = [
    (("check", "egf", "--quick", "--x", "-1/2", "--format", "json"),
     ("check", "egf", "--quick", "--x=-1/2", "--format", "json")),
    (("check", "egf", "--quick", "--x", "1", "--x", "-2/3"),
     ("check", "egf", "--quick", "--x", "1", "--x=-2/3")),
    (("wfun", "-1e-3"), ("wfun", "--", "-1e-3")),
    (("wfun", "-0.3+0.1j", "--format", "json"), ("wfun", "--format", "json", "--", "-0.3+0.1j")),
    (("wfun", "-0.001"), ("wfun", "--", "-0.001")),
]


@pytest.mark.parametrize("argv, spelled", NEGATIVE_VALUES, ids=[" ".join(a) for a, _ in NEGATIVE_VALUES])
def test_negative_number_is_a_value(capsys, argv, spelled):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *spelled)


# the SuiteConfig field each check option sets; every other (check, option)
# pair, and any option with `all`, is a usage error
OPTION_FIELDS = {
    ("shifted-positivity", "--n-max"): "positivity_rows",
    ("interconversion", "--n-max"): "poly_rows",
    ("reciprocity", "--n-max"): "reciprocity_rows",
    ("q-specializations", "--n-max"): "q_rows",
    **{(f"def-identity-{family}", "--n-max"): "series_n_max" for family in "FGHP"},
    ("egf-theorem", "--n-max"): "egf_n_max",
    ("egf-theorem", "--x"): "egf_x_samples",
    ("bernstein-signs", "--n-max"): "bernstein_n_max",
    ("halfplane", "--samples"): "halfplane_samples",
    ("halfplane", "--seed"): "halfplane_seed",
}
# option -> (argument, the value the JSON budget then shows)
OPTION_VALUES = {"--n-max": ("3", 3), "--x": ("1/3", ["1/3"]),
                 "--samples": ("7", 7), "--seed": ("5", 5)}


@pytest.mark.parametrize("option", OPTION_VALUES)
@pytest.mark.parametrize("name", ("all", *CHECK_NAMES))
def test_check_option_routing(capsys, name, option):
    argument, shown = OPTION_VALUES[option]
    code, out, err = run(capsys, "check", name, "--quick", option, argument,
                         "--format", "json")
    field = OPTION_FIELDS.get((name, option))
    if field is None:
        assert (code, out) == (2, "")
        assert err != ""
        return
    assert code == 0
    assert json.loads(out)["budget"] == {**SuiteConfig.quick().budget_dict(), field: shown}


def test_check_corruption_fails_with_exit_1(capsys):
    code, out, _ = run(capsys, "check", "golden", "--quick", "--corrupt", "G:3")
    assert code == 1
    assert "FAIL golden-tables" in out


def test_check_quick_all(capsys):
    code, out, _ = run(capsys, "check", "all", "--quick")
    assert code == 0
    assert out.splitlines()[-1] == "25 passed, 0 failed, 0 skipped"


def test_quick_budget(capsys):
    code, out, _ = run(capsys, "check", "golden", "--quick", "--format", "json")
    assert code == 0
    assert json.loads(out)["budget"]["halfplane_samples"] == 200


# ── usage errors exit 2 ───────────────────────────────────────────────────

USAGE_ERRORS = [
    ("polys", "Q", "3", "--format", "bfile"),
    ("polys", "P", "3", "--format", "bfile"),
    ("polys", "G", "0"),
    ("trees", "unrooted", "0", "list"),
    ("series", "T0", "5", "--format", "bfile"),
    ("series", "T0", "-1"),
    ("trees", "unrooted", "3", "list", "--format", "csv"),
    ("trees", "unrooted", "7", "list"),          # 7 + 5 vertices beats the cap
    ("trees", "relaxed", "3", "census-imp"),
    ("trees", "rooted", "8", "census-imp"),
    ("check", "nope"),
    ("check", "halfplane", "--n-max", "5"),
    ("check", "all", "--x", "1"),
    ("check", "golden", "--samples", "10"),
    ("check", "all", "--jobs", "1"),            # --jobs was removed
    ("check", "all", "--corrupt", "Z:1", "--quick"),
    ("wfun", "-1"),
    ("wfun", "abc"),
    ("wfun", "1.0", "--n-max", "-1"),
    ("check", "reciprocity", "--n-max", "-5"),   # depths are counts
    ("check", "def-identity-F", "--n-max", "30"),   # series_order 20 is too low
    ("check", "halfplane", "--samples", "-3"),
    ("check", "egf", "--x", "-q"),              # not a number: an option, so --x has no value
    ("check", "egf", "--x", "-1"),              # outside the substitution's domain
    ("check", "all", "--bogus"),
    ("--bogus",),
    ("wfun", "nan"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) for a in USAGE_ERRORS])
def test_usage_error(capsys, argv):
    """Exit 2, nothing on stdout, and a usage line that names the subcommand
    the error belongs to, whether argparse or the runner raised it."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    command = argv[0] if argv[0] in {"polys", "trees", "series", "check", "wfun"} else None
    prog = f"gregtrees {command}" if command else "gregtrees"
    assert err.splitlines()[0].startswith(f"usage: {prog} [-h]"), err
    assert f"\n{prog}: error: " in err, err


# ── determinism and --out ─────────────────────────────────────────────────

def test_out_writes_same_bytes(capsys, tmp_path):
    """Every polys family in every format it takes, at N = 40."""
    path = tmp_path / "rows"
    for family in ("F", "G", "H", "P", "Q", "F-shift", "G-shift", "H-shift"):
        for fmt in ("text", "json", "csv", "bfile"):
            if fmt == "bfile" and family in ("P", "Q"):
                continue
            argv = ("polys", family, "40", "--format", fmt)
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            code2, out2, _ = run(capsys, *argv, "--out", str(path))
            assert code2 == 0, argv
            assert out2 == "", argv  # everything went to the file
            assert path.read_text() == out, argv


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "bfile"])
def test_out_streams_rows(tmp_path, fmt):
    """Tables are written one row at a time: the traced peak of writing one,
    its rows included, stays below the size of the file written.  The Q
    triangle, which has no b-file form, is stepped row by row too."""
    path = tmp_path / "rows"
    for family, n in (("F", "150"), ("Q", "60")):
        if (family, fmt) == ("Q", "bfile"):
            continue
        tracemalloc.start()
        try:
            code = main(["polys", family, n, "--format", fmt, "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, family
        assert peak < path.stat().st_size, family


# every F, G, H and P table in every format it takes: P has mixed signs, no b-file
TABLE_FORMATS = [(family, fmt) for family in ("F", "G", "H", "P", "F-shift", "G-shift", "H-shift")
                 for fmt in ("text", "json", "csv", "bfile") if (family, fmt) != ("P", "bfile")]


def _expected_table(family: str, n: int, fmt: str) -> str:
    """The table as the CLI writes it, formatted here from the int rows of
    ``gen_*``: coefficients of F_60 run past the 28 digits of the default
    decimal context."""
    base = family.removesuffix("-shift")
    gen = getattr(gregtrees, f"gen_{base}")
    rows = gen(n) if base == family else gen(n, shifted=True)
    if fmt == "text":
        return "".join(f"{p}\n" for p in rows)
    if fmt == "json":
        return _indented([p.to_json() for p in rows])
    if fmt == "csv":
        return "n,k,coefficient\n" + "".join(
            f"{m},{k},{c}\n" for m, p in enumerate(rows, start=1) for k, c in enumerate(p.coeffs))
    values = [c for p in rows for c in p.coeffs]
    return "".join(f"{i} {c}\n" for i, c in enumerate(values, start=1))


@pytest.mark.parametrize("family,fmt", TABLE_FORMATS)
def test_tables_at_depth_match_int_rows(capsys, family, fmt):
    code, out, _ = run(capsys, "polys", family, "60", "--format", fmt)
    assert code == 0
    # the first differing line, not pytest's diff of two large texts
    got, want = out.splitlines(), _expected_table(family, 60, fmt).splitlines()
    assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b), None) is None
    assert len(got) == len(want)


class _Recorder:
    """A stdout that notes, for each chunk written, how many rows had been
    stepped by then."""

    def __init__(self, steps: list[int]):
        self.steps = steps
        self.log: list[int] = []

    def write(self, chunk: str) -> int:
        self.log.append(self.steps[0])
        return len(chunk)

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("family,fmt", TABLE_FORMATS + [("Q", f) for f in ("text", "json", "csv")])
def test_rows_are_written_as_they_are_stepped(monkeypatch, family, fmt):
    """Row k's chunk is written after k - 1 steps of the recurrence, before
    row k + 1 is stepped; the csv header and the json close come first
    and last."""
    steps = [0]
    step = polys._row_step

    def counting(*args):
        steps[0] += 1
        return step(*args)
    monkeypatch.setattr(polys, "_row_step", counting)
    out = _Recorder(steps)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["polys", family, "6", "--format", fmt]) == 0
    rows = list(range(6))
    assert out.log == {"csv": [0] + rows, "json": rows + [5]}.get(fmt, rows)


def _decimal_state():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)


@pytest.mark.parametrize("argv", [
    ("polys", "F", "60"),
    ("polys", "P", "40", "--format", "csv"),
    ("series", "W", "60"),
    ("polys", "F", "3", "--out", "{missing}"),
], ids=["polys text", "polys csv", "series", "unwritable out"])
def test_decimal_context_is_left_as_it_was(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing" / "rows") for a in argv]
    before = _decimal_state()
    code = main(argv)
    capsys.readouterr()
    assert code == (2 if "--out" in argv else 0)
    assert _decimal_state() == before


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="str(int) has no digit limit before Python 3.11")
def test_output_has_no_int_digit_limit(capsys):
    """polys and series write coefficients longer than the interpreter's
    limit on str(int), byte for byte as with the limit lifted."""
    argvs = [("series", "W", "400"), ("polys", "F", "260", "--format", "bfile")]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        lifted = [run(capsys, *argv) for argv in argvs]
        sys.set_int_max_str_digits(640)
        limited = [run(capsys, *argv) for argv in argvs]
    finally:
        sys.set_int_max_str_digits(limit)
    for argv, (code, want, _), (code2, got, err) in zip(argvs, lifted, limited):
        assert code == code2 == 0, (argv, err)
        assert max(map(len, re.split(r"[\s/]", want))) > 640, argv
        # digests, not pytest's diff of two large texts
        assert hashlib.sha256(got.encode()).digest() == hashlib.sha256(want.encode()).digest(), argv


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_unwritable_is_one_error_line(capsys, tmp_path, where):
    path = tmp_path / "missing" / "rows" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "polys", "F", "3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"gregtrees: error: cannot write {path}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_check_json_byte_deterministic(capsys):
    _, a, _ = run(capsys, "check", "all", "--quick", "--format", "json")
    _, b, _ = run(capsys, "check", "all", "--quick", "--format", "json")
    assert a == b


# ── declared entry point ──────────────────────────────────────────────────

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_script(name):
    """(module, function) that pyproject's [project.scripts] binds to `name`.

    Parsed with a regex because Python 3.10 has no tomllib.
    """
    table = re.search(r"^\[project\.scripts\][ \t]*$(.*?)(?=^\[|\Z)",
                      PYPROJECT.read_text(), re.M | re.S)
    assert table is not None, "pyproject.toml has no [project.scripts] table"
    entry = re.search(rf"^{re.escape(name)}\s*=\s*[\"']([\w.]+):(\w+)[\"']",
                      table.group(1), re.M)
    assert entry is not None, f"[project.scripts] declares no {name!r}"
    return entry.groups()


def console_script(tmp_path, *argv, popen=subprocess.run, **kwargs):
    """Run the declared `gregtrees` target as a setuptools wrapper script does.

    The child imports the package from the directory this process imported it
    from, by absolute path, and runs in a scratch directory, so neither a
    relative PYTHONPATH nor the working directory can supply it.
    """
    module, func = declared_script("gregtrees")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ,
               PYTHONPATH=str(Path(gregtrees.__file__).resolve().parent.parent))
    return popen([sys.executable, "-c", wrapper, *argv], cwd=tmp_path, env=env, **kwargs)


def run_console_script(tmp_path, *argv):
    return console_script(tmp_path, *argv, capture_output=True, text=True)


def test_console_script(tmp_path):
    proc = run_console_script(tmp_path, "polys", "G", "3")
    assert proc.returncode == 0
    assert proc.stdout == "1\nx+2\n3x^2+10x+9\n"
    # A usage error must reach the exit status through sys.exit(main()).
    proc = run_console_script(tmp_path, "check", "nope")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr != ""


def test_closed_pipe_is_quiet(tmp_path):
    """A reader that stops early (``| head -c 20``) ends the run quietly: exit 0,
    nothing on stderr, though the table is far larger than the pipe holds."""
    proc = console_script(tmp_path, "polys", "F", "200", "--format", "json",
                          popen=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head == b'[\n  [\n    "1"\n  ],\n '
    assert err == b""


@pytest.mark.skipif(shutil.which("gregtrees") is None,
                    reason="no installed gregtrees script on PATH")
def test_installed_console_script():
    proc = subprocess.run([shutil.which("gregtrees"), "polys", "G", "3"],
                          capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == b"1\nx+2\n3x^2+10x+9\n"
