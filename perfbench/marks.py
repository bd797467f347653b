"""Times at a reference speed: checkpoints, calibration and scaling.

A shared machine does not run one core at a steady speed.  On the 2-vCPU
sandbox the baseline was taken on, single-threaded Python drifted between
spells about 1.5 times apart, over seconds and over minutes, so a raw time,
even a median over a run, moves with the machine more than with the program.

So every time this benchmark gates on is scaled to a reference speed.  A
calibration loop (``spin``: fixed pure-Python integer work, sharing no code
with the program) is timed over and over while the workload runs, and each
stretch of work is scaled by ``REF_CAL_S`` over the calibration time
measured around it: a stretch that ran while the calibration loop took
twice its reference time counts half its wall time.

The stretches are segments: the work between two checkpoints.  Checkpoints
sit at fixed points of the work (entry to and exit from the calls below,
every so many items of the tree generators and calls of the polynomial and
series products, every chunk of the W grid), so no stretch is long and the
speed measured around it is the speed it ran at.  A calibration is taken at
a checkpoint at most every ``CAL_EVERY`` seconds, and its time is left out
of the segments.  The checkpoints are placed from this file at module
attributes, like the spans of ``spans.py``; a function a later program
lacks is simply not marked.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import spans

_clock = time.perf_counter

CAL_EVERY = 0.005           # seconds of marked work between calibrations, at least
CAL_LOOPS = 500             # one calibration: about 25-45 us on the baseline machine
REF_CAL_S = 30e-6           # the calibration time that defines the reference speed

# calls marked at entry and exit: module -> attributes; a name ending in
# "*" marks every function whose name starts with the rest
CALLS = {
    "suite": ("_check_*", "gen_F", "gen_G", "gen_H", "gen_P", "gen_Q", "shift"),
    "cli": ("gen_F", "gen_G", "gen_H", "gen_P", "gen_Q", "shift"),
    "polys": ("gen_G",),
    "series": ("check_*", "gen_F", "gen_G", "gen_H", "gen_P", "gen_Q", "shift"),
    "trees": ("unl_polynomial", "imp_polynomial", "restriction_census"),
    "wfunc": ("check_bernstein", "check_halfplane"),
}
# generators marked every so many items: (module, attribute) -> items
ITEMS = {
    ("trees", "_constrained_prufer"): 128,   # Pruefer sequences behind enumerate_greg
    ("trees", "enumerate_cayley"): 512,      # about 15 us an item at n = 7
}
# methods marked every so many calls: (module, class, method) -> calls
CALLED = {
    ("polys", "Poly", "__mul__"): 64,        # 270,000 calls in exact-series
    ("series", "RatSeries", "__mul__"): 1,   # about a millisecond a call at order 30
}

_durations: list[float] | None = None    # segment times of the marked iteration
_cals: list[tuple[int, float]] = []      # (segments before it, seconds) per calibration
_state = [0.0, 0.0]                      # start of the open segment, last calibration
_counts: list[list[int]] = []            # items or calls seen by each counted mark point


def spin() -> float:
    """Seconds one calibration loop takes now."""
    start = _clock()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return _clock() - start


def at_reference(seconds: float, cal: float) -> float:
    """``seconds`` of work done while a calibration took ``cal`` seconds,
    scaled to the reference speed."""
    return seconds * REF_CAL_S / cal


def timed_at_reference(fn, spins: int = 16) -> float:
    """Run ``fn`` once; its wall time at the reference speed, scaled by the
    median of ``spins`` calibrations taken before it and as many after."""
    cals = [spin() for _ in range(spins)]
    start = _clock()
    fn()
    seconds = _clock() - start
    cals += [spin() for _ in range(spins)]
    return at_reference(seconds, statistics.median(cals))


def mark() -> None:
    """A checkpoint; nothing happens while no iteration is being marked."""
    durations = _durations
    if durations is None:
        return
    now = _clock()
    durations.append(now - _state[0])
    if now - _state[1] >= CAL_EVERY:
        _calibrate(len(durations))
    else:
        _state[0] = now


def _calibrate(position: int) -> None:
    _cals.append((position, spin()))
    _state[0] = _state[1] = _clock()


def _call(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        mark()
        try:
            return fn(*args, **kwargs)
        finally:
            mark()
    return wrapper


def _counter() -> list[int]:
    count = [0]
    _counts.append(count)
    return count


def _every_item(items: int):
    def make(fn):
        count = _counter()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                count[0] += 1
                if count[0] == items:
                    count[0] = 0
                    mark()
                yield item
        return wrapper
    return make


def _every_call(calls: int):
    def make(fn):
        count = _counter()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            if count[0] == calls:
                count[0] = 0
                mark()
            return fn(*args, **kwargs)
        return wrapper
    return make


def _scaled_total(durations: list[float], cals: list[tuple[int, float]]) -> float:
    """Sum of the segment times, each scaled by the median of the two
    calibrations before it and the two after."""
    times = [c for _, c in cals]
    local = [statistics.median(times[max(0, j - 1):j + 3]) for j in range(len(times))]
    total, j = 0.0, 0
    for s, d in enumerate(durations):
        while j + 1 < len(cals) and cals[j + 1][0] <= s:
            j += 1
        total += at_reference(d, local[j])
    return total


class Marker:
    """Checkpoints for untraced iterations: ``install`` places them,
    ``start`` and ``stop`` bracket one iteration, ``uninstall`` removes
    them."""

    def __init__(self):
        self._restore: list = []
        self._began = 0.0
        self.segments = 0               # of the last iteration
        self.scaled: list[float] = []   # per iteration, at the reference speed
        self.cal_times: list[float] = []

    def install(self) -> None:
        for name, attrs in CALLS.items():
            module = importlib.import_module(f"gregtrees.{name}")
            for attr in attrs:
                names = ([a for a in vars(module) if a.startswith(attr[:-1])
                          and callable(getattr(module, a))]
                         if attr.endswith("*") else [attr])
                for a in names:
                    spans.patch(module, a, _call, self._restore)
        for (name, attr), items in ITEMS.items():
            spans.patch(importlib.import_module(f"gregtrees.{name}"), attr,
                        _every_item(items), self._restore)
        for (name, cls, attr), calls in CALLED.items():
            owner = getattr(importlib.import_module(f"gregtrees.{name}"), cls, None)
            if owner is not None:
                spans.patch(owner, attr, _every_call(calls), self._restore)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        _counts.clear()

    def start(self) -> None:
        global _durations
        for count in _counts:
            count[0] = 0
        _durations = []
        _cals.clear()
        self._began = _clock()
        _calibrate(0)

    def stop(self) -> float:
        """End the iteration; returns its wall time, and keeps the time of
        its segments at the reference speed in ``scaled``."""
        global _durations
        now = _clock()
        durations, _durations = _durations, None
        durations.append(now - _state[0])
        _calibrate(len(durations))
        self.segments = len(durations)
        self.cal_times.extend(c for _, c in _cals)
        self.scaled.append(_scaled_total(durations, _cals))
        return now - self._began
