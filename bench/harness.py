"""Timing one case: cold caches, an interval-timer wall cap, host speed, tail statistics."""

import gc
import random
import signal
import statistics
import time

# Per-case wall cap.  The slowest case that finishes at the default budgets
# takes 2.85 s (regcheck seed 2034 takes 2.2 s, its witness re-check as
# long again); stalled cases still run after 30 s.  5 s sits clear of both.
CAP_S = 5.0

# Module-level lru_caches keyed on whole pdas; cleared before every timed
# call so each case pays the cost a fresh command-line run pays.
CACHES = (
    ("pdabisim.pda", "_rule_index"),
    ("pdabisim.pda", "cached_normalized"),
    ("pdabisim.transformers", "cached_transformers"),
    ("pdabisim.reachability", "cached_poststar"),
    ("pdabisim.reachability", "cached_truncations"),
)


# Host speed.  On the shared 2-vCPU VM the reference numbers come from, the
# same work takes up to twice as long from one second to the next, and a
# slow phase can outlast a whole run, so even a case's fastest pass drifts
# by a third between runs.  Each timed call is therefore divided by the
# host's speed measured right next to it: the median of three runs of a
# fixed pure-Python loop that does not touch the library, taken just before
# the call and, for a call longer than SPEED_STALE_S, just after it too.
# Times are reported in seconds at the speed where that loop takes
# REFERENCE_S, about the fast phase of that VM.
REFERENCE_S = 0.009
SPEED_STALE_S = 0.2


def reference_loop():
    """Fixed work of the kind the library does: tuple keys, dicts, sets, small allocations."""
    rng = random.Random(5)
    table = {}
    seen = set()
    acc = 0
    for i in range(9000):
        key = (i % 613, rng.randrange(40))
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset(key))
        acc += len(table) & 3
    return acc


class Speed:
    """How slow the host runs now: the reference loop's time over REFERENCE_S."""

    def __init__(self):
        self.factor = 1.0
        self.measured_at = None
        self.history = []

    def measure(self):
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            runs.append(time.perf_counter() - start)
        self.factor = statistics.median(runs) / REFERENCE_S
        self.history.append(self.factor)
        self.measured_at = time.perf_counter()
        return self.factor

    def current(self):
        if self.measured_at is None or time.perf_counter() - self.measured_at > SPEED_STALE_S:
            return self.measure()
        return self.factor


SPEED = Speed()


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so library handlers let it pass."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def install_cap():
    signal.signal(signal.SIGALRM, _on_alarm)


def capped(fn, cap=CAP_S):
    """(result, seconds, capped) for fn() run under a wall cap.

    ``seconds`` is the call's wall time at reference speed.  A capped call
    reports exactly ``cap`` seconds and no result.  Exceptions other than
    the timeout propagate.
    """
    before = SPEED.current()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return (None, cap, True)
    seconds = time.perf_counter() - start
    factor = before if seconds <= SPEED_STALE_S else (before + SPEED.measure()) / 2
    return (result, min(seconds / factor, cap), False)


def existing_caches(modules):
    """(name, lru_cache) for each cache that still exists in the loaded library."""
    out = []
    for (module, name) in CACHES:
        fn = getattr(modules.get(module), name, None)
        if fn is not None and hasattr(fn, "cache_clear"):
            out.append((name, fn))
    return out


def go_cold(caches, on_clear=None):
    """Empty every cache and collect garbage; not timed."""
    for (name, fn) in caches:
        if on_clear is not None:
            on_clear(name, fn.cache_info())
        fn.cache_clear()
    gc.collect()


def tail(times):
    """(value, percentile, n): the highest percentile with ten cases beyond it.

    With fewer than 21 cases that percentile falls below the median, so the
    median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return (statistics.median(ordered), 50.0, n)
    return (ordered[n - 11], 100.0 * (n - 10) / n, n)
