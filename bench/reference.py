"""A fixed reference workload that tracks how fast the machine runs right now.

On a shared host the same pure-Python pass can run a third slower or faster
from one minute to the next, because other tenants contend for the cores
and caches. The harness times a slice of reference work beside every pass
and scales its timings to the speed at which the slice takes NOMINAL_S
seconds, so host drift cancels while a change to the package does not: the
reference is the harness's own code and imports nothing from the package.

Contention slows kinds of code unequally, so the slice mimics all three
routes: backtracking over perfect matchings (like `tilings`), fraction-free
elimination on big integers and over Z[omega6] with Fraction coordinates
(like `lgv`), and a product of Fractions (like `formulas`).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

# Every timing in the benchmark is CPU time of the benchmark's own process
# (user and system). The cases run serially in one thread and do no I/O, so
# on an idle machine this is their wall time; on a shared host it leaves out
# the time the vCPU is taken away, which made a fixed case's wall time vary
# three times as much as its CPU time. Pacing (--seconds, INTERVAL_S) stays
# on the wall clock.
clock = time.process_time

# seconds one reference slice takes on a 2-vCPU Intel Xeon virtual machine (CPython
# 3.11) in a quiet minute; it only sets the scale of the reported figures
NOMINAL_S = 0.018


def _matchings(rows: int, cols: int) -> int:
    """Domino tilings of a rows x cols board, by the same branching rule as
    the package's search: cover the first free cell."""
    n = rows * cols
    neighbours = [[j for j in ((i + 1) if (i + 1) % cols else -1, i + cols) if 0 <= j < n]
                  for i in range(n)]
    used = [False] * n
    count = 0

    def place(i: int) -> None:
        nonlocal count
        while i < n and used[i]:
            i += 1
        if i == n:
            count += 1
            return
        used[i] = True
        for j in neighbours[i]:
            if not used[j]:
                used[j] = True
                place(i + 1)
                used[j] = False
        used[i] = False

    place(0)
    return count


def _bareiss(n: int) -> int:
    m = [[comb(40 + i + j, j) for j in range(n)] for i in range(n)]
    previous = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return m[-1][-1]


def _fractions(n: int) -> Fraction:
    value = Fraction(1)
    for i in range(1, n):
        value = value * Fraction(3 * i + 1, 2 * i + 3) * Fraction(i + 7, i + 2)
    return value


@dataclass(frozen=True)
class _Pair:
    """c0 + c1*t with t^2 = t - 1 and Fraction coordinates, like the
    package's elements of Z[omega6]."""

    c0: Fraction
    c1: Fraction

    def __sub__(self, other):
        return _Pair(self.c0 - other.c0, self.c1 - other.c1)

    def __mul__(self, other):
        return _Pair(self.c0 * other.c0 - self.c1 * other.c1,
                     self.c0 * other.c1 + self.c1 * other.c0 + self.c1 * other.c1)

    def __truediv__(self, other):
        norm = other.c0 * other.c0 + other.c0 * other.c1 + other.c1 * other.c1
        quotient = self * _Pair(other.c0 + other.c1, -other.c1)
        return _Pair(quotient.c0 / norm, quotient.c1 / norm)


def _ring_bareiss(n: int) -> _Pair:
    m = [[_Pair(Fraction(comb(10 + i + j, j) + (i == j)), Fraction(int(i == j)))
          for j in range(n)] for i in range(n)]
    previous = _Pair(Fraction(1), Fraction(0))
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / previous
        previous = m[k][k]
    return m[-1][-1]


def _slice() -> float:
    began = clock()
    _matchings(6, 6)
    _bareiss(24)
    _ring_bareiss(6)
    _fractions(600)
    return clock() - began


class Gauge:
    """Times reference slices before, between and after the cases of a
    pass, at most one per INTERVAL_S of work, so the samples span the pass
    and follow drift within it."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        # (cases timed so far, slices taken so far) at each tick
        self.marks: list[tuple[int, int]] = []
        self.spent = 0.0
        self._last = 0.0

    def begin(self) -> None:
        self.samples = [_slice()]
        self.marks = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def tick(self, done: int = 0) -> None:
        """Take a slice if INTERVAL_S has passed since the last one; its
        time is added to `spent`, for the caller to take off the pass.
        `done` counts the cases timed so far, for `case_scales`."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            began = clock()
            self.samples.append(_slice())
            self.spent += clock() - began
            self._last = time.perf_counter()
        self.marks.append((done, len(self.samples)))

    def case_scales(self, count: int) -> list[float]:
        """After `end`, the factor from wall time to time at the reference
        speed for each of the `count` cases timed since `begin`, from the
        two slices that bracket the case. Drift within a pass is faster
        than a pass is long, so this tracks a case better than `end`'s
        factor does."""
        scales = []
        bounds = [done for done, _ in self.marks[1:]] + [count]
        for (done, taken), until in zip(self.marks, bounds):
            around = (self.samples[taken - 1] + self.samples[taken]) / 2
            scales += [NOMINAL_S / around] * (until - done)
        return scales

    def end(self) -> float:
        """The factor from wall time to time at the reference speed."""
        self.samples.append(_slice())
        return NOMINAL_S / statistics.mean(self.samples)
