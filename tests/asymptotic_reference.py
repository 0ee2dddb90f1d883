"""Test reference for `formulas.asymptotic_k`: the growth constant as the
former per-argument log sum, one `mpmath.log` per distinct scaled argument
of the count's term table.

`asymptotic_k` forms the same sum over the logarithms of primes.  The two
must print alike at digits - 5 and lie within 10^-(digits-3) of each other.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

import mpmath

from cored_hexagons.formulas import _count_table, asymptotic_k


def reference_asymptotic_k(a: int, b: int, c: int, m: int, digits: int = 50) -> mpmath.mpf:
    """k = sum_t w_t log t / 32 over the arguments t = 4x of the table at
    doubled sides, with w_t the integer weights merged by argument."""
    weights: dict[int, int] = {}
    for ts, mult in _count_table(2 * a, 2 * b, 2 * c, 2 * m, False):
        t = ts[0]
        weights[t] = weights.get(t, 0) + t * t * mult * len(ts)
    assert sum(weights.values()) == 0, "x^2 terms must cancel for a finite constant"
    with mpmath.workdps(digits):
        return mpmath.fsum(w * mpmath.log(t) for t, w in weights.items() if w) / 32


def disagreements(max_entry: int, digits_list: Iterable[int]) -> Iterator[tuple]:
    """(shape, digits, k, reference) wherever `asymptotic_k` and the
    reference disagree, over every shape (a, b, c, m) with entries up to
    max_entry and every precision in digits_list."""
    for shape in product(range(max_entry + 1), repeat=4):
        for digits in digits_list:
            k = asymptotic_k(*shape, digits=digits)
            reference = reference_asymptotic_k(*shape, digits=digits)
            if mpmath.nstr(k, digits - 5) != mpmath.nstr(reference, digits - 5) or abs(
                k - reference
            ) >= mpmath.mpf(10) ** (3 - digits):
                yield shape, digits, k, reference
