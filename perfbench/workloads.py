"""The three workloads: fixed inputs, a timed body and a correctness gate.

Each workload builds its inputs in ``__init__`` (that is what ``setup_s``
times), does its oracle work in ``prepare`` (untimed), runs one iteration
of the timed body in ``body`` and judges that iteration's outputs in
``verify``.  The body reaches the program only through module attributes
(``cli.main``, ``series.check_*``, ``wfunc.eval_W``), so the tracer can
replace them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from gregtrees import cli, series, suite, wfunc

import wgrid
from marks import mark

# W and derivative calls between two checkpoints of the wfunc-grid body
CHUNK = 256


@dataclass
class Verdict:
    """Correctness of one iteration.  ``failures`` names the operations
    that failed; ``unexpected`` lists the failures outside the defect
    classes recorded at commit fe21b2f."""

    failures: set = field(default_factory=set)
    unexpected: list[str] = field(default_factory=list)
    output_bytes: int = 0
    counters: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)     # defect class -> failures


def clear_program_caches() -> None:
    """Empty every ``functools`` cache in the package, so each iteration
    does the work of a fresh ``gregtrees`` process."""
    for name in ("polys", "series", "trees", "wfunc", "suite", "cli", "report"):
        module = importlib.import_module(f"gregtrees.{name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _sha256(text: str) -> tuple[str, int]:
    data = text.encode()
    return hashlib.sha256(data).hexdigest(), len(data)


class FixedInputs:
    """A workload whose inputs do not depend on the seed.  Each iteration
    starts from empty program caches, as a fresh process would."""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        clear_program_caches()
        gc.collect()


class SuiteDefault(FixedInputs):
    """``gregtrees check all --format json`` at default budgets: the run
    users and Tier-1 pay for; ``trees`` does most of its work."""

    name = "suite-default"
    argv = ("check", "all", "--format", "json")
    checks = 25
    # SHA-256 of the report bytes, taken at commit fe21b2f; the report is
    # byte-deterministic
    digest = "51376f0060208d2caa245932aebf81a68ce0cad13ce98385005d28d7009ae1cc"
    ops = checks + 1                # every check, and the report bytes

    def body(self):
        return run_cli(self.argv)

    def verify(self, out) -> Verdict:
        code, text = out
        digest, size = _sha256(text)
        v = Verdict(output_bytes=size)
        if code != 0 or digest != self.digest:
            v.failures.add("report")
            v.unexpected.append(f"check all: exit {code}, sha256 {digest}")
        try:
            reports = json.loads(text)["checks"]
        except (ValueError, KeyError, TypeError):
            reports = []
        passed = {r.get("name") for r in reports if r.get("passed") is True}
        if len(reports) != self.checks:
            v.unexpected.append(f"{len(reports)} checks reported, want {self.checks}")
        # a check missing from the report counts as not passed
        not_passed = set(suite.CHECK_NAMES) - passed
        v.failures |= not_passed
        if not_passed:
            v.unexpected.append(f"checks did not pass: {sorted(not_passed)}")
        return v


class ExactSeries(FixedInputs):
    """Exact ``polys`` and ``series`` work at depth; never calls ``trees``.

    The integer-coefficient tables and identities sit beside the
    rational-x ``RatSeries`` checks (``egf-theorem``, ``gh-functional``), so
    a change that speeds one path and slows the other shows.
    """

    name = "exact-series"
    # (argv, SHA-256 of stdout at commit fe21b2f)
    tables = (
        (("polys", "F", "200", "--format", "json"),
         "f29624f2c66a0e51bdcbcef2ab9d726ed8837aef6e6652074605d8c0c4aa6df3"),
        (("polys", "G", "200", "--format", "json"),
         "d284f83be4fcb5fbb7c1de86cfe5f80c8de2cd1ec5ca0f01c25b9e9944de73b1"),
        (("polys", "H", "200", "--format", "json"),
         "1af923daeb56b5b2ed480b270ce50aa7203dbd12f2b6ef29eca77d48714ef735"),
        (("polys", "P", "200", "--format", "json"),
         "cdab8139c0cdc8e27c2d09217dd8f699f0f6ab2db8796b969bb9516b892556b7"),
        (("polys", "G-shift", "200", "--format", "bfile"),
         "00ed769ec048b0279d4ab43ecce2eb7345a435bc90c7d29a99537ca0182f5510"),
        (("polys", "H-shift", "200", "--format", "bfile"),
         "f0c58a978654b0aa7e7f6debd0585ee95d1710e1390bf2f2c491da92f4d8ebe4"),
    )
    def_families = ("F", "G", "H", "P")
    def_n_max, def_order = 8, 25
    reversion_order = 30
    # sized so egf-theorem and gh-functional take over a tenth of the body
    x_samples = (0, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7),
                 Fraction(-2, 3), Fraction(5, 3), Fraction(-7, 5), Fraction(11, 13))
    egf_n_max = 30
    gh_order = 100
    ops = len(tables) + len(def_families) + 3

    def body(self):
        out = []
        for argv, _ in self.tables:
            out.append(run_cli(argv))
            mark()
        for family in self.def_families:
            out.append(series.check_def_identity(family, self.def_n_max, self.def_order))
        out.append(series.check_reversion_lemma(self.reversion_order))
        out.append(series.check_egf_theorem(self.x_samples, self.egf_n_max))
        out.append(series.check_gh_functional(self.x_samples, self.gh_order))
        return out

    def verify(self, out) -> Verdict:
        v = Verdict()
        for (argv, want), (code, text) in zip(self.tables, out):
            digest, size = _sha256(text)
            v.output_bytes += size
            if code != 0 or digest != want:
                v.failures.add(" ".join(argv))
                v.unexpected.append(f"{' '.join(argv)}: exit {code}, sha256 {digest}")
        for i, report in enumerate(out[len(self.tables):]):
            if report.passed is not True:
                v.failures.add(f"report {i}")
                v.unexpected.append(f"{report.name}: {report.witness}")
        return v


class WfuncGrid:
    """A seeded grid of ``eval_W`` and ``family_derivative`` calls, each
    judged against mpmath; see ``wgrid`` for the grid and the oracle."""

    name = "wfunc-grid"

    def __init__(self, seed: int):
        self.seed = seed
        self.zs, self.derivs = wgrid.build_grid(seed)
        self.ops = len(self.zs) + len(self.derivs)
        self._reference = None      # (output keys, verdict) of a judged pass

    def prepare(self) -> None:
        """Oracle values, and one warm-up pass judged in full."""
        self.oracle = wgrid.Oracle(self.zs, self.derivs)
        self.verify(self.body())

    def reset(self) -> None:
        # family_derivative's row cache persists across calls in one
        # process, as it does for users; only garbage is cleared
        gc.collect()

    def body(self):
        eval_W, derivative = wfunc.eval_W, wfunc.family_derivative
        out = []
        append = out.append
        for start in range(0, len(self.zs), CHUNK):
            for z in self.zs[start:start + CHUNK]:
                try:
                    append(eval_W(z))
                except Exception as exc:    # judged by the gate
                    append(exc)
            mark()
        for start in range(0, len(self.derivs), CHUNK):
            for family, z, n in self.derivs[start:start + CHUNK]:
                try:
                    append(derivative(family, z, n))
                except Exception as exc:
                    append(exc)
            mark()
        return out

    @staticmethod
    def _key(value) -> str:
        if isinstance(value, Exception):
            return "!" + type(value).__name__
        return repr(getattr(value, "w", value))

    def verify(self, out) -> Verdict:
        """Judge every output.  A pass whose outputs equal those of the
        first judged pass, value for value, gets that pass's verdict."""
        keys = [self._key(o) for o in out]
        if self._reference is not None and keys == self._reference[0]:
            return self._reference[1]
        verdict = self._judge(out)
        if self._reference is None:
            self._reference = (keys, verdict)
        return verdict

    def _judge(self, out) -> Verdict:
        kinds = Counter()
        defects = Counter()
        failures = set()
        unexpected = []
        max_w = max_d = 0.0
        n_w = len(self.zs)
        for i, z in enumerate(self.zs):
            kind, err = wgrid.judge_W(self.oracle, i, z, out[i])
            if err is not None:
                max_w = max(max_w, err)
            if kind:
                kinds[kind] += 1
                failures.add(i)
                cls = wgrid.known_defect(("W", z), kind)
                defects[cls] += 1
                if cls is None:
                    unexpected.append(f"eval_W({z!r}): {kind}, got {out[i]!r}")
        for j, (family, z, n) in enumerate(self.derivs):
            kind, err = wgrid.judge_deriv(self.oracle, j, out[n_w + j])
            if err is not None:
                max_d = max(max_d, err)
            if kind:
                kinds[kind] += 1
                failures.add(n_w + j)
                cls = wgrid.known_defect(("deriv", family, z, n), kind)
                defects[cls] += 1
                if cls is None:
                    unexpected.append(f"family_derivative({family!r}, {z!r}, {n}): {kind}, "
                                      f"got {out[n_w + j]!r}, want {self.oracle.d_ref[j]!r}")
        counters = {f"wfunc.failed_{k}": kinds[k] for k in wgrid.KINDS}
        counters["wfunc.max_rel_err_W"] = max_w
        counters["wfunc.max_rel_err_deriv"] = max_d
        return Verdict(failures=failures, unexpected=unexpected, counters=counters,
                       defects=dict(defects))


WORKLOADS = {w.name: w for w in (SuiteDefault, ExactSeries, WfuncGrid)}
