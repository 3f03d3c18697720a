"""Whole tables checked against an enumerator that shares no code with zrel.

The oracle works on sets, not compositions: a subset of Z_n is an n-bit
mask, its T/I class is represented by the least of its 2n rotated and
reflected masks, and the count of interval class d is the popcount of the
mask ANDed with itself rotated by d (halved for d = n / 2, where each pair
is seen from both ends).  Only the comparison below imports zrel.
"""

from __future__ import annotations

from functools import cache

import pytest

from zrel.enumeration import SummaryRow, realization_table


def _rotate(mask: int, i: int, n: int) -> int:
    return ((mask >> i) | (mask << (n - i))) & ((1 << n) - 1)


def _orbit_min(mask: int, n: int) -> int:
    mirror = int(format(mask, f"0{n}b")[::-1], 2)
    return min(_rotate(m, i, n) for m in (mask, mirror) for i in range(n))


def _vector(mask: int, n: int) -> tuple[int, ...]:
    counts = [(mask & _rotate(mask, d, n)).bit_count() for d in range(1, n // 2 + 1)]
    if n % 2 == 0:
        counts[-1] //= 2
    return tuple(counts)


@cache
def _oracle(n: int) -> dict[int, dict[tuple[int, ...], set[int]]]:
    """{k: {interval vector: orbit minima of its classes}} over all of Z_n."""
    # Every orbit minimum contains 0: a mask without bit 0 rotates to half itself.
    table: dict[int, dict[tuple[int, ...], set[int]]] = {}
    for mask in range(1, 1 << n, 2):
        if mask == _orbit_min(mask, n):
            by_vector = table.setdefault(mask.bit_count(), {})
            by_vector.setdefault(_vector(mask, n), set()).add(mask)
    return table


def _mask(parts: tuple[int, ...]) -> int:
    # The set a step composition encodes: its partial sums, rooted at 0.
    mask = at = 0
    for part in parts:
        mask |= 1 << at
        at += part
    return mask


@pytest.mark.parametrize("n", range(3, 17))
def test_tables_match_a_set_based_oracle(n):
    for k in range(1, n + 1):
        want = _oracle(n)[k]
        r = {vector: len(classes) for vector, classes in want.items()}
        table = realization_table(n, k)
        assert SummaryRow.of(n, k, table) == SummaryRow(
            n, k, sum(r.values()), len(r), sum(1 for x in r.values() if x >= 2)
        ), (n, k)
        assert {rc.mu.counts: rc.realization_number for rc in table} == r, (n, k)
        # Every class, not only the Z-groups: a singleton filed under the
        # wrong vector would leave the R of each vector unchanged.
        for rc in table:
            members = {_orbit_min(_mask(parts), n) for parts in rc.parts}
            assert members == want[rc.mu.counts], (n, k, rc.mu.counts)
