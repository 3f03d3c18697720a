"""Exhaustive enumeration of composition classes and Z-relation detection.

The least rotation or reversal of a composition is the canonical form of its
T/I class.  `realization_table` lists the classes of k <= 3 directly.  For
k >= 4 the kernel visits only compositions that start with their minimum
part s1 <= n // k, end with a part no smaller than their second part s2 (or
the reversal read back from the first part would be smaller), and have each
part at least the part one period back, as every prefix of a least rotation
is a prenecklace (Ruskey and Sawada, 1999).  It counts their interval
classes in place as it fixes each part, keeps the ones that equal their own
canonical form (rejection canonicalization, one survivor per class), checks
their number against the closed-form bracelet count, and groups them by
interval vector, packed as `bytes` while k <= 255.  A class whose vector is
shared by two or more inequivalent compositions is a Z-group: its
realizations are pairwise Z-related.

The work is partitioned by first part, so the map phase shares nothing and
can run across worker processes.  A canonical composition starts with its
least part s1.  Each of its intervals spans whole parts either way round
the circle, so it is at least s1, and s1 itself occurs: the vector counts
nothing below interval class s1 and something at s1.  Hence no two tasks
share a vector, and a larger first part has more leading zero counts, so
its keys sort first, as `bytes` and as tuples.  Each task visits its
compositions in lexicographic order, so every class is already sorted; the
reduction sorts each task's keys on their own, clears its dict before
building its classes, and concatenates the tasks, largest first part first.
The output is identical for any worker count.  The table keeps the kernel's
raw keys and tuples: `Composition` and `IntervalVector` objects are built,
and validated, only when a caller reads them.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import accumulate, combinations, combinations_with_replacement, repeat

from .core import Composition, IntervalVector, _interval_counts, check_int, check_modulus
from .core import Record, _ic_index, _key_type
from .dihedral import is_canonical_parts

# Largest cost any single enumeration may incur, and largest grouping store
# (interval-class counts in the vector keys) of one cardinality.  Covers desk
# scale (n <= 40, k <= 8); larger requests are refused up front.
COMPOSITION_BUDGET = 20_000_000


class BudgetExceededError(Exception):
    """An enumeration request would cost more than the budget."""


class RealizationClass(Record):
    """All inequivalent canonical compositions realizing one interval vector.

    Holds the enumeration's raw data: the modulus `n`, the interval-class
    `counts` (the kernel's key: `bytes`, or a tuple of ints when k > 255)
    and the `parts` tuple of each realization, sorted.  `mu` and
    `realizations` build their value objects through the validating
    constructors on every access, so counting classes builds none.
    """

    __slots__ = ("n", "counts", "parts")

    def __init__(self, n: int, counts: bytes | tuple[int, ...], parts: tuple[tuple[int, ...], ...]):
        # Each field set by name, not by `_set`'s loop: this runs once per class of a table.
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "parts", parts)

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


class SummaryRow(Record):
    """One table row: class/vector counts for a single (n, k)."""

    __slots__ = ("n", "k", "ti_classes", "multisets", "nonreconstructible")

    def __init__(self, n: int, k: int, ti_classes: int, multisets: int, nonreconstructible: int):
        self._set(n, k, ti_classes, multisets, nonreconstructible)

    @classmethod
    def of(cls, n: int, k: int, table: list[RealizationClass]) -> SummaryRow:
        """The row of the realization table of (n, k)."""
        sizes = [len(rc.parts) for rc in table]
        return cls(
            n=n, k=k, ti_classes=sum(sizes), multisets=len(sizes),
            nonreconstructible=sum(1 for r in sizes if r >= 2),
        )


def check_budget(n: int, ks: Iterable[int]) -> None:
    """The one guard of an enumeration request: refuse it before any work.

    Checks the modulus, then every cardinality, then the running total of
    the cost against `COMPOSITION_BUDGET`.  Each composition of k parts costs
    one unit, and (k / 13) ** 3 units when k > 13: the kernel spends O(k)
    building a candidate and up to O(k^2) canonicalizing it.  No request
    with 13 < k <= n // 2 fits anyway, since C(27, 13) exceeds the budget.
    The same budget bounds each k's grouping store, at most one key of n // 2
    counts per class; per k, because each k's table is dropped before the
    next is built.
    """
    check_modulus(n)
    ks = [check_int("cardinality", k, 1, n) for k in ks]
    costs = (math.comb(n - 1, k - 1) * max(k, 13) ** 3 // 13**3 for k in ks)
    for total in accumulate(costs):
        if total > COMPOSITION_BUDGET:
            raise BudgetExceededError(
                f"enumerating n={n}, k={ks} would cost at least {total} units, at "
                f"max(1, (k/13)**3) per composition (budget {COMPOSITION_BUDGET}); "
                "narrow the cardinality range"
            )
    for k in ks:
        cells = _bracelet_count(n, k) * (n // 2)
        if cells > COMPOSITION_BUDGET:
            raise BudgetExceededError(
                f"grouping n={n}, k={k} could store {cells} interval-class counts "
                f"in its vector keys (budget {COMPOSITION_BUDGET}); lower n or k"
            )


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


# ── map phase ─────────────────────────────────────────────────────────────
# Task s1 loops over the second part s2.  Per s2, `_raw_compositions` streams
# the leading middle parts and a slack part for the rest, each lowered so that
# its least value is 1; a stem (s1, s2, leading parts) that is no prenecklace
# is skipped.  Loops choose the last d = min(2, k - 3) middle parts, each adding
# its element's pair counts to one list and taking them out after its
# iterations; the last element's pairs go onto a copy only when
# `is_canonical_parts` accepts the leaf.


def _prenecklace_period(parts: tuple[int, ...]) -> int:
    # The period of a prenecklace (a prefix of a necklace), or 0 for none: each
    # part is at least the one p back, and a larger one makes p the whole prefix.
    p = 1
    for i in range(1, len(parts)):
        if parts[i] != parts[i - p]:
            if parts[i] < parts[i - p]:
                return 0
            p = i + 1
    return p


def _groups_for_first_part(
    task: tuple[int, int, int]
) -> dict[bytes | tuple[int, ...], tuple[tuple[int, ...], ...]]:
    n, k, s1 = task
    shift, d = s1 - 1, min(2, k - 3)
    index, pack = _ic_index(n), _key_type(k)
    groups: dict[bytes | tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def place(stem, p, elems, counts, slack):
        # The middle part at index t: elems are the stem's t + 1 elements,
        # counts their pairs, slack the sum of the parts from t on.
        t, e = len(stem), elems[-1]
        floor = stem[t - p]
        for a in range(floor, slack - (k - 2 - t) * s1 - s2 + 1):
            if t < k - 2:
                for x in elems:
                    counts[index[e + a - x]] += 1
                place(stem + (a,), p if a == floor else t + 1, elems + [e + a], counts, slack - a)
                for x in elems:
                    counts[index[e + a - x]] -= 1
                continue
            parts = (*stem, a, slack - a)
            if is_canonical_parts(parts):
                leaf = counts.copy()
                for x in elems:
                    leaf[index[e + a - x]] += 1
                key = pack(leaf)
                groups[key] = groups.get(key, ()) + (parts,)

    for s2 in range(s1, (n - (k - 2) * s1) // 2 + 1):
        lift = (d - 1) * s1 + s2
        for rest in _raw_compositions(n - s1 - s2 - (k - 2 - d) * shift - lift, k - 2 - d):
            prefix = (s1, s2, *[r + shift for r in rest]) if shift else (s1, s2, *rest)
            stem, slack = prefix[:-1], prefix[-1] + lift
            p = _prenecklace_period(stem)
            if p:
                place(stem, p, [0, *accumulate(stem)], list(_interval_counts(prefix, n)), slack)
    return groups


def __getattr__(name: str):
    # PEP 562: the pool class is imported the first time it is asked for, so a
    # call that starts no pool never loads concurrent.futures or multiprocessing.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _run_tasks(tasks: list[tuple[int, int, int]], workers: int) -> list:
    # The default fork start method starts every worker up front, so the
    # pool never exceeds the task count or the CPUs this process may use.
    # The pool class is read off the module at start: imported late, replaceable.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    size = min(workers, len(tasks), cpus)
    if size > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=size) as pool:
            return list(pool.map(_groups_for_first_part, tasks))
    return [_groups_for_first_part(task) for task in tasks]


# ── public operations ─────────────────────────────────────────────────────


def realization_table(n: int, k: int, workers: int = 1) -> list[RealizationClass]:
    """Canonical composition classes grouped by interval vector.

    Classes are sorted by vector (lexicographic on the count sequence, which
    is also the order of the `bytes` keys) and each class's realizations are
    sorted lexicographically, so the result is deterministic and independent
    of the worker count.  k <= 3 is listed directly, so it starts no pool.
    """
    check_budget(n, [k])
    check_int("workers", workers, 1)
    if k <= 3:
        # Rotations and reversals put k <= 3 parts in every order, so each class is
        # one partition of n: k - 1 ascending parts h, then a last part no smaller.
        # No two share a vector (the k = 3 theorem; a lost class fails the bracelet
        # check below): steps a <= b <= c give {ic(a), ic(b), ic(c)}, which is
        # {a, b, c} when c <= n / 2 and {a, b, a + b} otherwise, so its two least
        # entries are a and b.
        heads = combinations_with_replacement(range(1, n // 2 + 1), k - 1)
        parts = [(*h, n - sum(h)) for h in heads if n - sum(h) >= max(h, default=0)]
        results = [{_interval_counts(p, n): (p,) for p in parts}]
    else:
        results = _run_tasks([(n, k, s1) for s1 in range(1, n // k + 1)], workers)
    table: list[RealizationClass] = []
    found, expected = 0, _bracelet_count(n, k)
    while results:  # The largest first part first: its keys sort first.
        groups = results.pop()
        keys = sorted(groups)
        values = [groups[key] for key in keys]
        groups.clear()  # Frees the dict's table before any class is built.
        if table and table[-1].counts >= keys[0]:
            raise RuntimeError(
                f"enumeration of n={n}, k={k}: two first-part tasks share or "
                f"misorder interval vector {list(keys[0])}"
            )
        found += sum(map(len, values))
        table.extend(map(RealizationClass, repeat(n), keys, values))
    if found != expected:
        raise RuntimeError(
            f"enumeration of n={n}, k={k} kept {found} classes, "
            f"but the closed-form bracelet count is {expected}"
        )
    return table


def z_groups(n: int, k: int, workers: int = 1) -> list[RealizationClass]:
    """Realization classes with two or more members: the Z-related ones."""
    return [rc for rc in realization_table(n, k, workers) if rc.realization_number >= 2]


def summary(n: int, ks: Iterable[int], workers: int = 1) -> list[SummaryRow]:
    """Class/vector/Z counts per cardinality; the budget covers the whole range."""
    ks = list(ks)
    check_budget(n, ks)
    return [SummaryRow.of(n, k, realization_table(n, k, workers)) for k in ks]


def k_min_bound(n: int, k_max: int | None = None) -> int:
    """The highest cardinality `k_min_search(n, k_max)` probes: k_max, by default n // 2."""
    check_modulus(n)
    return check_int("kmax", n // 2 if k_max is None else k_max, 1, n)


def k_min_search(
    n: int, k_max: int | None = None, workers: int = 1
) -> tuple[int | None, int, RealizationClass | None]:
    """(k_min or None, highest k searched, first Z-group at k_min or None).

    Cardinality 3 is never probed: `realization_table` proves, and checks,
    that a trichord's interval vector determines it up to T/I.  The default
    bound k_max = n // 2 relies on the complement symmetry of the Z-relation
    (cardinalities k and n - k behave identically), which this tool assumes
    rather than verifies; pass an explicit k_max in [1, n] to search further.
    All k searched share one budget.
    """
    hi = k_min_bound(n, k_max)
    for k in range(4, hi + 1):
        try:
            check_budget(n, range(4, k + 1))
        except BudgetExceededError as exc:
            searched = f"searched k=4..{k - 1} of" if k > 4 else "nothing searched, k range"
            raise BudgetExceededError(
                f"budget exhausted before k={k} ({searched} 4..{hi}): {exc}"
            ) from None
        groups = z_groups(n, k, workers)
        if groups:
            return k, k, groups[0]
    return None, hi, None
