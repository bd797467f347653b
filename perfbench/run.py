"""gregtrees benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads: suite-default, exact-series, wfunc-grid (see NOTES.md).

With ``--trace 0`` the run times iterations of the workload body for S
seconds (at least three iterations), untraced, and reports the end-to-end
metrics, their times scaled to a reference speed (``marks.py``).  With
``--trace 1`` it times untraced iterations for S/3 seconds, then at least
two traced iterations for 2S/3 more, and reports the per-layer metrics and
the tracing overhead; the spans of the first traced iteration go to
``.bench_spans/``.
Either way every output is checked, human-readable lines come first, and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``attempted`` counts the
distinct operations of one iteration, and ``failed`` those that failed in
any iteration, so both depend on the seed and the program, not on how many
iterations fit in S seconds.

Only ``time.perf_counter`` and ``resource.getrusage`` measure; nothing
traces outside this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".bench_spans"
SETUP_SPAWNS = 15
# untraced iterations a run makes at the least, however short --seconds is
MIN_ITERATIONS = 3


def import_program():
    """Import gregtrees from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import gregtrees
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gregtrees from {SRC}: {exc}")
    if not Path(gregtrees.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: gregtrees came from {gregtrees.__file__}, not {SRC}")
    # default budgets, whatever the caller's environment says
    os.environ.pop("GREGTREES_PROFILE", None)
    import workloads
    return workloads


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from a fresh interpreter to gregtrees imported and the
    workload's inputs built, once per spawn, at the reference speed."""
    import marks
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times, procs = [], []

    def spawn():
        procs.append(subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True, timeout=120))
    for _ in range(SETUP_SPAWNS):
        times.append(marks.timed_at_reference(spawn))
        if procs[-1].returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed: {procs[-1].stderr.strip()}")
    return times


def iterate(workload, seconds: float, min_iterations: int = 1, on_traced=None, marker=None):
    """Run body iterations until ``seconds`` have passed and at least
    ``min_iterations`` ran.  With ``on_traced``, each iteration runs under
    a fresh ``spans.Tracer``, handed with its verdict to ``on_traced``.
    With ``marker`` (an installed ``marks.Marker``), each iteration is cut
    into segments.  Returns (walls, verdicts)."""
    walls, verdicts = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_iterations or time.perf_counter() < deadline:
        workload.reset()
        tracer = None
        if on_traced:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        try:
            if marker:
                marker.start()
                out = workload.body()
                walls.append(marker.stop())
            else:
                start = time.perf_counter()
                out = workload.body()
                walls.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.uninstall()
        verdicts.append(workload.verify(out))
        del out
        if tracer:
            on_traced(tracer, verdicts[-1])
    return walls, verdicts


class Candidates:
    """Sum of ``degree_filtered_count`` over the (n, variant) pairs that
    ``enumerate_greg`` was called with: the configurations it scanned."""

    def __init__(self):
        from gregtrees import trees
        self.trees = trees
        self.memo: dict[tuple[int, str], int] = {}

    def __call__(self, greg_calls) -> int:
        trees = self.trees
        total = 0
        for n, variant, _ in greg_calls:
            if (n, variant) not in self.memo:
                self.memo[(n, variant)] = sum(
                    trees.degree_filtered_count(n, u, variant)
                    for u in range(trees.u_bound(n, variant) + 1))
            total += self.memo[(n, variant)]
        return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds: float, setup: list[float]):
    import marks
    marker = marks.Marker()
    marker.install()
    try:
        walls, verdicts = iterate(workload, seconds, MIN_ITERATIONS, marker=marker)
    finally:
        marker.uninstall()
    wall = statistics.median(marker.scaled)
    metrics = {
        "wall_s": (wall, "s"),
        "evals_per_s": (workload.ops / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    cals = [c * 1e6 for c in marker.cal_times]
    notes = [f"{len(walls)} iterations of {marker.segments} segments; at the reference speed "
             f"min {min(marker.scaled):.4f} s, max {max(marker.scaled):.4f}; as measured "
             f"median {statistics.median(walls):.4f} s, min {min(walls):.4f}, max {max(walls):.4f}",
             f"{len(cals)} calibrations: median {statistics.median(cals):.1f} us, "
             f"min {min(cals):.1f}, max {max(cals):.1f} (reference {marks.REF_CAL_S * 1e6:g} us)",
             f"setup_s over {len(setup)} spawns, min {min(setup):.4f} max {max(setup):.4f}"]
    return metrics, verdicts, notes


PER_LAYER_UNITS = {"_s": "s", "_us_p50": "us", "_us_p99": "us", "_bytes": "bytes",
                   "_ratio": "ratio", "_err_W": "ratio", "_err_deriv": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_traced(workload, seconds: float, spans_path: Path):
    import spans
    candidates = Candidates()
    times, counters = [], []

    def reduce(tracer, verdict):
        # reduce each traced iteration at once, so spans do not pile up
        t, c = spans.layer_metrics(tracer, candidates(tracer.greg_calls), verdict.output_bytes)
        c.update(verdict.counters)
        times.append(t)
        counters.append(c)
        if len(times) == 1:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path)

    plain, verdicts = iterate(workload, seconds / 3)
    walls, traced_verdicts = iterate(workload, 2 * seconds / 3, min_iterations=2,
                                     on_traced=reduce)
    verdicts += traced_verdicts
    notes = [f"{len(plain)} untraced and {len(walls)} traced iterations; "
             f"spans of the first traced iteration in {spans_path}"]
    repeat_ok = all(c == counters[0] for c in counters[1:])
    if not repeat_ok:
        diff = {k: [c.get(k) for c in counters] for k in counters[0]
                if any(c.get(k) != counters[0][k] for c in counters[1:])}
        notes.append(f"counters differ between traced iterations: {diff}")
    metrics = {k: (statistics.median(t[k] for t in times), _unit(k)) for k in times[0]}
    for k, v in counters[0].items():
        metrics[k] = (v, _unit(k))
    for k in ("wfunc.failed_raise", "wfunc.failed_residual", "wfunc.failed_accuracy",
              "wfunc.failed_domain", "wfunc.max_rel_err_W", "wfunc.max_rel_err_deriv"):
        metrics.setdefault(k, (0, _unit(k)))
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")
    return metrics, verdicts, notes, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-default", "exact-series", "wfunc-grid"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        workloads = import_program()
        workloads.WORKLOADS[args.workload](args.seed)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    if args.trace:
        metrics, verdicts, notes, repeat_ok = run_traced(
            workload, args.seconds, SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, verdicts, notes = run_untraced(workload, args.seconds, setup)
        repeat_ok = True

    # each distinct operation counts once, failed if it failed in any
    # iteration; repeats are judged too
    attempted = workload.ops
    failed = len(set().union(*(v.failures for v in verdicts)))
    unexpected = sorted({u for v in verdicts for u in v.unexpected})
    correct = repeat_ok and not unexpected
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: correct={correct} attempted={attempted} failed={failed} "
          f"fail_share={failed / attempted:.6g}")
    for line in notes:
        print(f"  {line}")
    defects = verdicts[0].defects
    if defects:
        print("  failures by defect class (one pass): "
              + ", ".join(f"{k}={v}" for k, v in sorted(defects.items(), key=str)))
    for line in unexpected[:20]:
        print(f"  UNEXPECTED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, _) in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExit(f"perfbench: {name} is {value}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
