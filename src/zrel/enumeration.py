"""Exhaustive enumeration of composition classes and Z-relation detection.

A canonical composition starts with its minimum part and ends with a part
no smaller than its second, so for each first part s1, second part s2 >= s1
and last part >= s2 the pipeline streams only the middle parts, each at
least s1: far fewer than all C(n-1, k-1) compositions.  It keeps the ones
that equal their own canonical form (rejection canonicalization, one
survivor per rotation/reversal class), checks their number against the
closed-form bracelet count, and groups them by interval vector, packed as
`bytes` while k <= 255.  A class whose vector is shared by two or more
inequivalent compositions is a Z-group: its realizations are pairwise
Z-related.

The stream is partitioned by first part, so the map phase shares nothing
and can run across worker processes.  Each task sorts its classes of two or
more members, and no two tasks share an interval vector, so the reduction
merges the task results in first-part order and sorts only the vector keys;
the output is identical for any worker count.  The table keeps the kernel's
raw keys and tuples: `Composition` and `IntervalVector` objects are built,
and validated, only when a caller reads them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Iterator

from .core import Composition, IntervalVector, _interval_counts, check_modulus
from .dihedral import is_canonical_parts

# Largest composition stream any single enumeration may process, and largest
# grouping store (interval-class counts in the vector keys) of one cardinality.
# Covers desk scale (n <= 40, k <= 8); larger requests are refused up front.
COMPOSITION_BUDGET = 20_000_000


class BudgetExceededError(Exception):
    """An enumeration request would stream more compositions than the budget."""


@dataclass(frozen=True, slots=True)
class RealizationClass:
    """All inequivalent canonical compositions realizing one interval vector.

    Holds the enumeration's raw data: the modulus `n`, the interval-class
    `counts` (the kernel's key: `bytes`, or a tuple of ints when k > 255)
    and the `parts` tuple of each realization, sorted.  `mu` and
    `realizations` build their value objects through the validating
    constructors on every access, so counting classes builds none.
    """

    n: int
    counts: bytes | tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    @property
    def mu(self) -> IntervalVector:
        """The shared interval vector."""
        return IntervalVector(self.n, self.counts)

    @property
    def realizations(self) -> tuple[Composition, ...]:
        """The realizations as compositions, in lexicographic order."""
        return tuple(Composition(self.n, p) for p in self.parts)

    @property
    def realization_number(self) -> int:
        """R: how many inequivalent compositions share this vector."""
        return len(self.parts)


@dataclass(frozen=True)
class SummaryRow:
    """One table row: class/vector counts for a single (n, k)."""

    n: int
    k: int
    ti_classes: int
    multisets: int
    nonreconstructible: int

    @classmethod
    def of(cls, n: int, k: int, table: list[RealizationClass]) -> SummaryRow:
        """The row of the realization table of (n, k)."""
        return cls(
            n=n,
            k=k,
            ti_classes=sum(rc.realization_number for rc in table),
            multisets=len(table),
            nonreconstructible=sum(1 for rc in table if rc.realization_number >= 2),
        )


def composition_count(n: int, k: int) -> int:
    """Number of compositions of n into k positive parts: C(n-1, k-1)."""
    return math.comb(n - 1, k - 1)


def _check_k(n: int, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
        raise ValueError(f"cardinality must be an integer in [1, {n}], got {k!r}")


def check_budget(n: int, ks: Iterable[int]) -> None:
    """The one guard of an enumeration request: refuse it before any work.

    Checks the modulus, then every cardinality, then the running total of
    the composition stream against `COMPOSITION_BUDGET`.  The same budget
    bounds each k's grouping store, at most one key of n // 2 counts per
    class; per k, because each k's table is dropped before the next is built.
    """
    check_modulus(n)
    ks = list(ks)
    for k in ks:
        _check_k(n, k)
    for total in accumulate(composition_count(n, k) for k in ks):
        if total > COMPOSITION_BUDGET:
            raise BudgetExceededError(
                f"enumerating n={n}, k={ks} would stream at least {total} compositions "
                f"(budget {COMPOSITION_BUDGET}); narrow the cardinality range"
            )
    for k in ks:
        cells = _bracelet_count(n, k) * (n // 2)
        if cells > COMPOSITION_BUDGET:
            raise BudgetExceededError(
                f"grouping n={n}, k={k} could store {cells} interval-class counts "
                f"in its vector keys (budget {COMPOSITION_BUDGET}); lower n or k"
            )


def check_workers(workers: int) -> None:
    """Refuse a worker count that is not an integer >= 1, before any work."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _bracelet_count(n: int, k: int) -> int:
    """Rotation/reversal classes of k-subsets of Z_n: binary bracelets (Burnside).

    Burnside's lemma averages the fixed subsets over the 2n symmetries.
    Rotation by i splits Z_n into g = gcd(i, n) cycles of length n / g, so
    it fixes C(g, k g / n) subsets when n / g divides k, and none otherwise.
    """
    gs = [math.gcd(i, n) for i in range(n)]
    rotations = sum(math.comb(g, k * g // n) for g in gs if k % (n // g) == 0)
    # Every reflection fixes C(n // 2, k // 2) subsets, except for odd k on
    # even n: then the n / 2 axes through two beads fix 2 C(n/2 - 1, k // 2)
    # subsets each (one of those beads set) and the other axes fix none.
    reflections = n * math.comb(n // 2 - (k % 2 > n % 2), k // 2)
    return (rotations + reflections) // (2 * n)


def _raw_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # Cut-point bijection: (k-1)-subsets of 1..n-1 in lexicographic order
    # map to compositions in lexicographic order; k = 1 has one, empty, cut set.
    for cuts in combinations(range(1, n), k - 1):
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(n - prev)
        yield tuple(parts)


def enumerate_compositions(n: int, k: int) -> Iterator[Composition]:
    """Every composition of n into k positive parts, once, in lex order."""
    check_modulus(n)
    _check_k(n, k)
    for parts in _raw_compositions(n, k):
        yield Composition(n, parts)


# ── map phase ─────────────────────────────────────────────────────────────
# Workers receive one first part each.  A canonical composition starts with
# its minimum part, so every survivor belongs to exactly one worker and the
# reduce phase never sees duplicates.  First parts above n // k cannot start
# a canonical composition at all and are skipped outright.  Its last part is
# also at least its second, or the reversal read back from the first part
# would be smaller, so worker s1 loops over the second part s2 >= s1 and the
# last part last >= s2 and streams only the k - 3 middle parts, each >= s1:
# the compositions of n - s1 - s2 - last - (k-3)(s1-1) into k - 3 parts,
# each raised by s1 - 1.  That order is not lexicographic, so a class with
# more than one member is sorted at the end.


def _groups_for_first_part(
    task: tuple[int, int, int]
) -> dict[bytes | tuple[int, ...], tuple[tuple[int, ...], ...]]:
    n, k, s1 = task
    if k == 2:  # the second part is the last, and (s1, n - s1) is canonical
        return {_interval_counts((s1, n - s1), n): ((s1, n - s1),)}
    shift = s1 - 1
    middle = k - 3
    groups: dict[bytes | tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    for s2 in range(s1, (n - (k - 2) * s1) // 2 + 1):
        head = (s1, s2)
        room = n - s1 - s2 - middle * s1  # the largest possible last part
        # With no middle parts the last part is whatever the first two leave.
        for last in range(s2, room + 1) if middle else (room,):
            tail = (last,)
            rests = _raw_compositions(room - last + middle, middle) if middle else [()]
            for rest in rests:
                if shift:
                    rest = tuple([r + shift for r in rest])
                parts = head + rest + tail
                if is_canonical_parts(parts):
                    key = _interval_counts(parts, n)
                    groups[key] = groups.get(key, ()) + (parts,)
    for key, group in groups.items():
        if len(group) > 1:
            groups[key] = tuple(sorted(group))
    return groups


def _run_tasks(tasks: list[tuple[int, int, int]], workers: int) -> list:
    # The default fork start method starts every worker up front, so the
    # pool never exceeds the task count or the CPUs this process may use.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    size = min(workers, len(tasks), cpus)
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            return list(pool.map(_groups_for_first_part, tasks))
    return [_groups_for_first_part(task) for task in tasks]


def _class_groups(
    n: int, k: int, workers: int
) -> dict[bytes | tuple[int, ...], tuple[tuple[int, ...], ...]]:
    if k == 1:
        return {bytes(n // 2): ((n,),)}
    tasks = [(n, k, s1) for s1 in range(1, n // k + 1)]
    # A canonical composition starts with its smallest step, which is also
    # the smallest interval class its vector counts, so no two tasks share a
    # vector: each class comes whole from one task, which sorted it, and the
    # tasks merge into the first, largest one; realization_table sorts the
    # keys.  (A shared key would lose classes, and the bracelet check in
    # realization_table would refuse the result.)
    merged, *others = _run_tasks(tasks, workers)
    for groups in others:
        merged.update(groups)
    return merged


# ── public operations ─────────────────────────────────────────────────────


def enumerate_classes(n: int, k: int, workers: int = 1) -> list[Composition]:
    """One canonical representative per rotation/reversal class, sorted."""
    table = realization_table(n, k, workers)
    return [Composition(n, p) for p in sorted(p for rc in table for p in rc.parts)]


def realization_table(n: int, k: int, workers: int = 1) -> list[RealizationClass]:
    """Canonical composition classes grouped by interval vector.

    Classes are sorted by vector (lexicographic on the count sequence, which
    is also the order of the `bytes` keys) and each class's realizations are
    sorted lexicographically, so the result is deterministic and independent
    of the worker count.
    """
    check_budget(n, [k])
    check_workers(workers)
    groups = _class_groups(n, k, workers)
    found, expected = sum(map(len, groups.values())), _bracelet_count(n, k)
    if found != expected:
        raise RuntimeError(
            f"enumeration of n={n}, k={k} kept {found} classes, "
            f"but the closed-form bracelet count is {expected}"
        )
    return [RealizationClass(n, key, groups[key]) for key in sorted(groups)]


def z_groups(n: int, k: int, workers: int = 1) -> list[RealizationClass]:
    """Realization classes with two or more members: the Z-related ones."""
    return [rc for rc in realization_table(n, k, workers) if rc.realization_number >= 2]


def summary(n: int, ks: Iterable[int], workers: int = 1) -> list[SummaryRow]:
    """Class/vector/Z counts per cardinality; the budget covers the whole range."""
    ks = list(ks)
    check_budget(n, ks)
    return [SummaryRow.of(n, k, realization_table(n, k, workers)) for k in ks]


def z_pair_count(n: int, k: int, workers: int = 1) -> int:
    """Number of unordered Z-related pairs at (n, k): sum of C(R, 2) over groups."""
    return sum(
        math.comb(rc.realization_number, 2) for rc in z_groups(n, k, workers)
    )


def k_min_search(
    n: int, k_max: int | None = None, workers: int = 1
) -> tuple[int | None, int, RealizationClass | None]:
    """(k_min or None, highest k searched, first Z-group at k_min or None).

    Cardinality 3 is never probed: a trichord's interval vector always
    determines it up to T/I.  The default bound k_max = n // 2 relies on the
    complement symmetry of the Z-relation (cardinalities k and n - k behave
    identically), which this tool assumes rather than verifies; pass an
    explicit k_max in [1, n] to search further.  All k searched share one budget.
    """
    check_modulus(n)
    hi = n // 2 if k_max is None else k_max
    if type(hi) is not int:
        raise ValueError(f"kmax must be an integer, got {hi!r}")
    if hi < 1:
        raise ValueError(f"kmax must be at least 1, got {hi}")
    if hi > n:
        raise ValueError(f"kmax cannot exceed n={n}, got {hi}")
    spent = 0
    for k in range(4, hi + 1):
        spent += composition_count(n, k)
        if spent > COMPOSITION_BUDGET:
            searched = (
                f"searched k=4..{k - 1} of 4..{hi}"
                if k > 4
                else f"nothing searched, k range 4..{hi}"
            )
            raise BudgetExceededError(
                f"composition budget exhausted before k={k} ({searched}); "
                "lower --kmax"
            )
        groups = z_groups(n, k, workers)
        if groups:
            return k, k, groups[0]
    return None, hi, None


def k_min(n: int, k_max: int | None = None, workers: int = 1) -> int | None:
    """Smallest cardinality in [4, k_max] admitting a Z-pair, or None."""
    return k_min_search(n, k_max, workers)[0]
