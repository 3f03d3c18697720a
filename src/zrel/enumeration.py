"""Exhaustive enumeration of composition classes and Z-relation detection.

The pipeline streams all C(n-1, k-1) compositions of n into k positive
parts, keeps the ones that equal their own canonical form (rejection
canonicalization, one survivor per rotation/reversal class), and groups
the survivors by interval vector.  A class whose vector is shared by two
or more inequivalent compositions is a Z-group: its realizations are
pairwise Z-related.

The stream is partitioned by first part, so the map phase shares nothing
and can run across worker processes; the reduction is an order-independent
dict merge followed by a global sort, making the output identical for any
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .core import Composition, IntervalVector, _interval_counts, check_modulus
from .dihedral import is_canonical_parts

# Largest composition stream any single enumeration may process.  Covers
# desk scale (n <= 40, k <= 8); larger requests are refused up front so the
# grouping store cannot grow past a few million entries.
COMPOSITION_BUDGET = 20_000_000


class BudgetExceededError(Exception):
    """An enumeration request would stream more compositions than the budget."""


@dataclass(frozen=True)
class RealizationClass:
    """All inequivalent canonical compositions realizing one interval vector."""

    mu: IntervalVector
    realizations: tuple[Composition, ...]

    @property
    def realization_number(self) -> int:
        """R: how many inequivalent compositions share this vector."""
        return len(self.realizations)


@dataclass(frozen=True)
class SummaryRow:
    """One table row: class/vector counts for a single (n, k)."""

    n: int
    k: int
    ti_classes: int
    multisets: int
    nonreconstructible: int


def composition_count(n: int, k: int) -> int:
    """Number of compositions of n into k positive parts: C(n-1, k-1)."""
    return math.comb(n - 1, k - 1)


def check_budget(n: int, ks: Iterable[int], budget: int = COMPOSITION_BUDGET) -> None:
    """Refuse an enumeration whose total stream exceeds the budget."""
    ks = list(ks)
    total = 0
    for k in ks:
        total += composition_count(n, k)
        if total > budget:
            raise BudgetExceededError(
                f"enumerating n={n}, k={ks} would stream at least {total} "
                f"compositions (budget {budget}); narrow the cardinality range"
            )


def _check_k(n: int, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
        raise ValueError(f"cardinality must be an integer in [1, {n}], got {k!r}")


def _raw_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # Cut-point bijection: (k-1)-subsets of 1..n-1 in lexicographic order
    # map to compositions in lexicographic order.
    if k == 1:
        yield (n,)
        return
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
# a canonical composition at all and are skipped outright.


def _groups_for_first_part(
    task: tuple[int, int, int]
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    n, k, s1 = task
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rest in _raw_compositions(n - s1, k - 1):
        if min(rest) < s1:
            continue
        parts = (s1, *rest)
        if is_canonical_parts(parts):
            groups.setdefault(_interval_counts(parts, n), []).append(parts)
    return groups


def _run_tasks(tasks: list[tuple[int, int, int]], workers: int) -> list:
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_groups_for_first_part, tasks))
    return [_groups_for_first_part(task) for task in tasks]


def _class_groups(
    n: int, k: int, workers: int
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    if k == 1:
        return {(0,) * (n // 2): [(n,)]}
    tasks = [(n, k, s1) for s1 in range(1, n // k + 1)]
    merged: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for groups in _run_tasks(tasks, workers):
        for key, comps in groups.items():
            merged.setdefault(key, []).extend(comps)
    return {key: sorted(comps) for key, comps in sorted(merged.items())}


# ── public operations ─────────────────────────────────────────────────────


def enumerate_classes(n: int, k: int, workers: int = 1) -> list[Composition]:
    """One canonical representative per rotation/reversal class, sorted."""
    return sorted(
        comp for rc in realization_table(n, k, workers) for comp in rc.realizations
    )


def realization_table(n: int, k: int, workers: int = 1) -> list[RealizationClass]:
    """Canonical composition classes grouped by interval vector.

    Classes are sorted by vector (lexicographic on the count sequence) and
    each class's realizations are sorted lexicographically, so the result is
    deterministic and independent of the worker count.
    """
    check_modulus(n)
    _check_k(n, k)
    check_budget(n, [k])
    groups = _class_groups(n, k, max(1, workers))
    return [
        RealizationClass(
            IntervalVector(n, key),
            tuple(Composition(n, parts) for parts in comps),
        )
        for key, comps in groups.items()
    ]


def z_groups(n: int, k: int, workers: int = 1) -> list[RealizationClass]:
    """Realization classes with two or more members: the Z-related ones."""
    return [rc for rc in realization_table(n, k, workers) if rc.realization_number >= 2]


def summary(n: int, ks: Iterable[int], workers: int = 1) -> list[SummaryRow]:
    """Class/vector/Z counts per cardinality; the budget covers the whole range."""
    check_modulus(n)
    ks = list(ks)
    check_budget(n, ks)
    rows = []
    for k in ks:
        table = realization_table(n, k, workers)
        rows.append(
            SummaryRow(
                n=n,
                k=k,
                ti_classes=sum(rc.realization_number for rc in table),
                multisets=len(table),
                nonreconstructible=sum(
                    1 for rc in table if rc.realization_number >= 2
                ),
            )
        )
    return rows


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
