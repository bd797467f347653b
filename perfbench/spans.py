"""Spans around the calls into each gregtrees layer, recorded from outside.

``Tracer.install`` replaces each traced function at the module attribute
its caller reads (``cli`` and ``suite`` import ``gen_*`` and
``run_suite`` by name; ``family_derivative`` reaches ``eval_W`` through the
``wfunc`` globals), and ``uninstall`` puts the originals back.  A span is
(name, start, end, busy, parent); spans stay in memory and are reduced to
per-layer metrics once the traced iteration ends.  For a generator, busy
time is the time spent inside ``next``, so the consumer's work between
items is not charged to it.

Work counters are read off arguments and results after the iteration, not
inside the timed spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

POLYS_GEN = ("gen_F", "gen_G", "gen_H", "gen_P", "gen_Q")
SERIES_CHECKS = {
    "check_def_identity": "series.def_identity",
    "check_basic_identities": "series.basic_identities",
    "check_reversion_lemma": "series.reversion_lemma",
    "check_egf_theorem": "series.egf_theorem",
    "check_gh_functional": "series.gh_functional",
    "check_imp_census_series": "series.imp_census_series",
}

# span name -> layer is the prefix before the first dot
LAYERS = ("cli", "suite", "polys", "series", "trees", "wfunc")


def patch(module, attr, make, restore: list) -> None:
    """Replace ``module.attr`` with ``make(original)``, and append to
    ``restore`` the steps that undo it.  Nothing happens when the module
    has no such attribute."""
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapped = make(original)
    setattr(module, attr, wrapped)
    restore.append(functools.partial(setattr, module, attr, original))
    # tables built at import time (cli's family dicts) hold the function
    # itself, not the module attribute
    for table in vars(module).values():
        if isinstance(table, dict):
            for key, value in table.items():
                if value is original:
                    table[key] = wrapped
                    restore.append(functools.partial(table.__setitem__, key, original))


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return arguments


class Tracer:
    """Spans and counter inputs of one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, busy, parent]
        self._stack = [-1]
        self._restore: list = []          # undo steps, applied in reverse
        self.gen_results: list = []       # rows returned by gen_*
        self.eval_iterations: list[int] = []
        self.suite_results: list = []
        self.series_orders: list[int] = []
        self.greg_calls: list[tuple[int, str, int]] = []   # (n, variant, kept)
        self.cayley_visited = 0

    # ── wrappers ──────────────────────────────────────────────────────────

    def _call(self, fn, name, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label(args, kwargs) if label else name, 0.0, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                rec[3] = end - start
                stack.pop()
            if hook is not None:
                hook(result, args, kwargs)
            return result
        return wrapper

    def _generator(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, None, 0.0, 0.0, stack[-1]]
            spans.append(rec)
            inner = fn(*args, **kwargs)

            def run():
                count = 0
                try:
                    while True:
                        stack.append(idx)
                        start = clock()
                        if rec[1] is None:
                            rec[1] = start
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec[2] = end = clock()
                            rec[3] += end - start
                            stack.pop()
                        count += 1
                        yield item
                finally:
                    hook(count, args, kwargs)
            return run()
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                self.cayley_visited += count
        return wrapper

    def _set(self, module, attr, make):
        patch(module, attr, make, self._restore)

    def install(self) -> None:
        mod = {name: importlib.import_module(f"gregtrees.{name}")
               for name in ("cli", "suite", "series", "trees", "wfunc")}

        def keep_rows(result, args, kwargs):
            self.gen_results.append(result)

        def keep_order(report, args, kwargs):
            order = getattr(report, "params", {}).get("order")
            if isinstance(order, int):
                self.series_orders.append(order)

        for consumer in ("cli", "suite", "series", "wfunc"):
            for attr in POLYS_GEN:
                self._set(mod[consumer], attr,
                          lambda fn, a=attr: self._call(fn, f"polys.{a}", keep_rows))
            self._set(mod[consumer], "shift", lambda fn: self._call(fn, "polys.shift"))
        self._set(mod["cli"], "main", lambda fn: self._call(fn, "cli.main"))
        self._set(mod["cli"], "run_suite", lambda fn: self._call(
            fn, "suite.run_suite", lambda r, a, k: self.suite_results.append(r)))
        for attr, name in SERIES_CHECKS.items():
            self._set(mod["series"], attr, lambda fn, n=name: self._call(fn, n, keep_order))

        trees = mod["trees"]
        for consumer in (trees, mod["cli"]):
            self._set(consumer, "unl_polynomial", self._unl_wrapper)
            self._set(consumer, "imp_polynomial",
                      lambda fn: self._call(fn, "trees.imp_polynomial"))
            self._set(consumer, "enumerate_greg", self._greg_wrapper)
        self._set(trees, "restriction_census",
                  lambda fn: self._call(fn, "trees.restriction_census"))
        self._set(trees, "enumerate_cayley", self._counted)

        wfunc = mod["wfunc"]

        def keep_iterations(res, args, kwargs):
            self.eval_iterations.append(res.iterations)
        for consumer in (wfunc, mod["cli"]):
            self._set(consumer, "eval_W",
                      lambda fn: self._call(fn, "wfunc.eval_W", keep_iterations))
        for attr in ("family_derivative", "check_bernstein", "check_halfplane"):
            self._set(wfunc, attr, lambda fn, a=attr: self._call(fn, f"wfunc.{a}"))

    def _unl_wrapper(self, fn):
        arguments = _bound(fn)
        return self._call(fn, lambda a, k: "trees.unl_" + str(arguments(a, k)["variant"]))

    def _greg_wrapper(self, fn):
        arguments = _bound(fn)

        def keep(count, args, kwargs):
            bound = arguments(args, kwargs)
            self.greg_calls.append((bound["n"], bound["variant"], count))
        return self._generator(fn, "trees.enumerate_greg", keep)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ── reduction ─────────────────────────────────────────────────────────

    def busy(self) -> dict[str, float]:
        """Busy seconds per span name, over the spans that have no ancestor
        of the same name."""
        spans, out = self.spans, {}
        for rec in spans:
            name, p = rec[0], rec[4]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][4]
            if p < 0:
                out[name] = out.get(name, 0.0) + rec[3]
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: busy time minus the busy time of child spans."""
        own = [rec[3] for rec in self.spans]
        for rec in self.spans:
            if rec[4] >= 0:
                own[rec[4]] -= rec[3]
        out = dict.fromkeys(LAYERS, 0.0)
        for rec, t in zip(self.spans, own):
            layer = rec[0].partition(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, busy seconds, parent
        index (-1 for none)."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def durations_us(self, name: str) -> list[float]:
        return [rec[3] * 1e6 for rec in self.spans if rec[0] == name]



def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def _digits(rows) -> tuple[int, int]:
    """Row count and total decimal digits of the coefficients of one
    ``gen_*`` result (a list of polynomials, or a triangle of them)."""
    n_rows = digits = 0
    for row in rows:
        n_rows += 1
        for p in ([row] if hasattr(row, "coeffs") else row):
            digits += sum(len(str(abs(c))) for c in p.coeffs)
    return n_rows, digits


def layer_metrics(tracer: Tracer, candidates: int, output_bytes: int) -> tuple[dict, dict]:
    """Per-layer times and work counters of one traced iteration.

    Returns (times, counters); counters must repeat exactly across
    iterations, times need not.
    """
    selfs = tracer.self_times()
    busy = tracer.busy()

    def b(name: str) -> float:
        return busy.get(name, 0.0)

    times = {
        "cli.main_s": b("cli.main"),
        "cli.self_s": selfs["cli"],
        "suite.run_suite_s": b("suite.run_suite"),
        "suite.self_s": selfs["suite"],
        "polys.gen_s": sum(b(f"polys.{g}") for g in POLYS_GEN),
        "polys.gen_P_s": b("polys.gen_P"),
        "polys.shift_s": b("polys.shift"),
        "series.def_identity_s": b("series.def_identity"),
        "series.reversion_lemma_s": b("series.reversion_lemma"),
        "series.egf_theorem_s": b("series.egf_theorem"),
        "series.gh_functional_s": b("series.gh_functional"),
        "series.imp_census_series_s": b("series.imp_census_series"),
        "trees.unl_unrooted_s": b("trees.unl_unrooted"),
        "trees.unl_rooted_s": b("trees.unl_rooted"),
        "trees.unl_relaxed_s": b("trees.unl_relaxed"),
        "trees.unl_birooted_s": b("trees.unl_birooted"),
        "trees.imp_polynomial_s": b("trees.imp_polynomial"),
        "trees.restriction_census_s": b("trees.restriction_census"),
        "trees.enumerate_greg_s": b("trees.enumerate_greg"),
        "wfunc.eval_W_s": b("wfunc.eval_W"),
        "wfunc.family_derivative_s": b("wfunc.family_derivative"),
        "wfunc.check_bernstein_s": b("wfunc.check_bernstein"),
        "wfunc.check_halfplane_s": b("wfunc.check_halfplane"),
    }
    eval_us = tracer.durations_us("wfunc.eval_W")
    n_derivative = len(tracer.durations_us("wfunc.family_derivative"))
    times["wfunc.eval_W_us_p50"] = quantile(eval_us, 0.50)
    times["wfunc.eval_W_us_p99"] = quantile(eval_us, 0.99)

    rows = digits = 0
    for result in tracer.gen_results:
        r, d = _digits(result)
        rows += r
        digits += d
    kept = sum(c for _, _, c in tracer.greg_calls)
    iters = tracer.eval_iterations
    counters = {
        "cli.output_bytes": output_bytes,
        "suite.checks_passed": sum(r.counts["pass"] for r in tracer.suite_results),
        "suite.checks_failed": sum(r.counts["fail"] for r in tracer.suite_results),
        "polys.rows": rows,
        "polys.coeff_digits": digits,
        "series.max_order": max(tracer.series_orders, default=0),
        "trees.kept": kept,
        "trees.candidates": candidates,
        "trees.keep_ratio": kept / candidates if candidates else 0.0,
        "trees.cayley_visited": tracer.cayley_visited,
        "wfunc.eval_W_calls": len(eval_us),
        "wfunc.family_derivative_calls": n_derivative,
        "wfunc.halley_iters_mean": sum(iters) / len(iters) if iters else 0.0,
        "wfunc.halley_iters_max": max(iters, default=0),
    }
    return times, counters
