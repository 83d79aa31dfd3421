"""The host's speed, sampled while the untraced passes run.

The benchmark runs on a few cores of a shared host, where the same
pure-Python code runs at speeds up to about 1.6 times apart, switching
within seconds as the host's other tenants come and go.  A 36-second run
sees an unpredictable mix of speeds, and on a 2-vCPU host that mix, not
the program, set most of the spread between runs: within one run, eight
passes of ``random-qf`` took 8.0 to 11.5 s.

``HostSpeed`` takes that mix out.  While it is installed, a SIGALRM
handler runs a fixed slice of interpreter work every ``INTERVAL_S`` and
records how long the slice took.  A planner call's time, less the time
the handler took during the call, is multiplied by the host's mean
speed over the call: the mean of ``SLICE_S`` over each slice time.
Samples fall evenly in wall time, so that mean is the share of nominal
speed the call got, and the product is the call's time at a steady
nominal speed, in seconds.  A call too short to hold ``MIN_SAMPLES``
samples uses the latest ``MIN_SAMPLES``.  In the run above the scaled
pass times were 7.9 to 8.2 s.

The slice does the program's kind of work, because a slice of plain
integer arithmetic tracked the program's speed less well.
"""
from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# one sample per this many seconds of wall time
INTERVAL_S = 0.02

# the slice's time at nominal speed: its median on the 2-vCPU host the
# benchmark was built on, a constant scale that comparisons do not depend on
SLICE_S = 0.00058

MIN_SAMPLES = 5


def _fixed_nfa(states=12, letters=2, density=0.2):
    rng = random.Random(5)
    return {(q, a): frozenset(r for r in range(states) if rng.random() < density)
            for q in range(states) for a in range(letters)}


_NFA = _fixed_nfa()
_EMPTY = frozenset()


def reference_slice() -> int:
    """A fixed piece of interpreter work of the program's kind: the subset
    construction of a fixed 12-state automaton and Moore's partition
    refinement of the result, hashing frozensets and tuples through
    dictionaries.  Returns the number of classes."""
    delta = _NFA
    start = frozenset([0])
    seen, todo, moves = {start: 0}, [start], {}
    while todo:
        subset = todo.pop()
        for letter in (0, 1):
            target = _EMPTY.union(*(delta[q, letter] for q in subset))
            if target not in seen:
                seen[target] = len(seen)
                todo.append(target)
            moves[seen[subset], letter] = seen[target]
    block = {i: int(11 in subset) for subset, i in seen.items()}
    while True:
        keys = {i: (block[i], block[moves[i, 0]], block[moves[i, 1]]) for i in block}
        ids: dict = {}
        refined = {i: ids.setdefault(key, len(ids)) for i, key in keys.items()}
        if len(ids) == len(set(block.values())):
            return len(ids)
        block = refined


def timed_slice() -> float:
    """The slice's time, with garbage collection held off: the slice's own
    objects are freed by reference counting, and a collection started
    inside it would time the program's heap instead."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_slice()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the host's speed on a timer for as long as it is installed.

    Use as a context manager around the timed passes; only one may be
    installed at a time, and only in the main thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        took = timed_slice()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples.extend(timed_slice() for _ in range(MIN_SAMPLES))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """Where the samples stand; pass it to ``scaled`` after the call."""
        return len(self.samples), self.spent

    def scaled(self, elapsed: float, mark: tuple[int, float]) -> float:
        """``elapsed`` seconds since ``mark``, less the sampler's own time,
        at nominal speed."""
        first, spent = mark
        window = self.samples[first:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        speed = statistics.fmean(SLICE_S / took for took in window)
        return (elapsed - (self.spent - spent)) * speed

