from __future__ import annotations

import math
from itertools import combinations

import pytest

from zrel import enumeration
from zrel.core import Composition, interval_multiset
from zrel.dihedral import equivalent, is_canonical
from zrel.enumeration import (
    BudgetExceededError,
    check_budget,
    composition_count,
    enumerate_classes,
    enumerate_compositions,
    k_min,
    k_min_search,
    realization_table,
    summary,
    z_groups,
    z_pair_count,
)

GOLDEN_Z12 = [
    (3, 12, 12, 0),
    (4, 29, 28, 1),
    (5, 38, 35, 3),
    (6, 50, 35, 15),
    (7, 38, 35, 3),
    (8, 29, 28, 1),
    (9, 12, 12, 0),
]


# ── enumerate_compositions ─────────────────────────────────────────────────


def test_composition_stream_counts():
    assert sum(1 for _ in enumerate_compositions(12, 3)) == 55
    assert composition_count(19, 6) == 8568
    assert sum(1 for _ in enumerate_compositions(19, 6)) == 8568


def test_composition_stream_small_listing():
    got = [c.parts for c in enumerate_compositions(4, 2)]
    assert got == [(1, 3), (2, 2), (3, 1)]


def test_composition_stream_lex_order_unique():
    seen = [c.parts for c in enumerate_compositions(9, 4)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen)) == composition_count(9, 4)


def test_composition_stream_rejects_bad_k():
    with pytest.raises(ValueError):
        list(enumerate_compositions(12, 0))
    with pytest.raises(ValueError):
        list(enumerate_compositions(12, 13))


# ── enumerate_classes ──────────────────────────────────────────────────────


@pytest.mark.parametrize("n,k,count", [(12, 3, 12), (12, 6, 50), (19, 5, 324)])
def test_class_counts(n, k, count):
    assert len(enumerate_classes(n, k)) == count


def _totient(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def _bracelet_count(n: int, k: int) -> int:
    """Binary bracelets of length n with k beads, by Burnside's lemma."""
    rotations = sum(
        _totient(d) * math.comb(n // d, k // d)
        for d in range(1, math.gcd(n, k) + 1)
        if math.gcd(n, k) % d == 0
    )
    if n % 2:  # every axis passes through one bead
        reflections = n * math.comb((n - 1) // 2, k // 2)
    elif k % 2:  # only axes through two beads fix a coloring, one bead set
        reflections = n // 2 * 2 * math.comb((n - 2) // 2, (k - 1) // 2)
    else:  # axes through two beads (both set or both clear), axes through edges
        pairs = (n - 2) // 2
        reflections = n // 2 * (
            math.comb(pairs, k // 2) + math.comb(pairs, k // 2 - 1) + math.comb(n // 2, k // 2)
        )
    return (rotations + reflections) // (2 * n)


def test_class_counts_match_bracelet_closed_form():
    # T/I classes of k-subsets of Z_n are the fixed-density binary bracelets.
    mismatches = [
        (n, k)
        for n in range(3, 19)
        for k in range(1, n + 1)
        if len(enumerate_classes(n, k)) != _bracelet_count(n, k)
    ]
    assert mismatches == []


def test_classes_are_canonical_sorted_and_complete():
    classes = enumerate_classes(10, 4)
    assert all(is_canonical(c) for c in classes)
    assert classes == sorted(classes)
    # every composition is equivalent to exactly one representative
    for comp in enumerate_compositions(10, 4):
        hits = [rep for rep in classes if equivalent(comp, rep)]
        assert len(hits) == 1


def test_degenerate_cardinalities():
    assert [c.parts for c in enumerate_classes(12, 1)] == [(12,)]
    assert len(enumerate_classes(12, 2)) == 6
    row = summary(12, [1])[0]
    assert (row.ti_classes, row.multisets, row.nonreconstructible) == (1, 1, 0)
    assert z_groups(12, 2) == []


# ── realization_table ──────────────────────────────────────────────────────


def test_table_conserves_classes_and_sorts():
    for n, k in [(12, 4), (12, 6), (10, 5)]:
        table = realization_table(n, k)
        assert sum(rc.realization_number for rc in table) == len(
            enumerate_classes(n, k)
        )
        keys = [rc.mu.counts for rc in table]
        assert keys == sorted(keys)
        for rc in table:
            assert list(rc.realizations) == sorted(rc.realizations)
            for comp in rc.realizations:
                assert interval_multiset(comp) == rc.mu


def test_table_z12_shape():
    table3 = realization_table(12, 3)
    assert len(table3) == 12
    assert all(rc.realization_number == 1 for rc in table3)
    table4 = realization_table(12, 4)
    assert len(table4) == 28
    assert sum(1 for rc in table4 if rc.realization_number >= 2) == 1
    table6 = realization_table(12, 6)
    assert len(table6) == 35
    assert sum(1 for rc in table6 if rc.realization_number >= 2) == 15


def test_group_members_are_pairwise_z_related():
    for rc in z_groups(12, 6):
        for a, b in combinations(rc.realizations, 2):
            assert interval_multiset(a) == interval_multiset(b) == rc.mu
            assert not equivalent(a, b)


# ── z_groups / summary / z_pair_count ─────────────────────────────────────


def test_unique_z12_tetrachord_group():
    groups = z_groups(12, 4)
    assert len(groups) == 1
    assert tuple(c.parts for c in groups[0].realizations) == (
        (1, 2, 4, 5),
        (1, 3, 2, 6),
    )


def test_z19_group_counts():
    assert z_groups(19, 5) == []
    assert len(z_groups(19, 6)) == 21


def test_summary_golden_z12():
    rows = summary(12, range(3, 10))
    assert [
        (r.k, r.ti_classes, r.multisets, r.nonreconstructible) for r in rows
    ] == GOLDEN_Z12


def test_summary_invariant_ordering():
    for row in summary(14, range(2, 8)):
        assert row.multisets <= row.ti_classes
        assert row.nonreconstructible <= row.multisets


def test_z_pair_counts():
    assert z_pair_count(12, 6) == 15
    assert sum(z_pair_count(12, k) for k in range(3, 10)) == 23
    # every group at (19, 7) turned out to have exactly two members
    assert z_pair_count(19, 7) == 57
    assert all(rc.realization_number == 2 for rc in z_groups(19, 7))


# ── k_min ──────────────────────────────────────────────────────────────────


def test_k_min_values():
    assert k_min(12) == 4
    assert k_min(19) == 6
    assert k_min(10) == 5
    assert k_min(30, k_max=4) is None
    assert k_min(6) is None  # searches k=4..3, i.e. nothing


def test_k_min_search_reports_the_searched_range_and_witness():
    assert k_min_search(12) == (4, 4, z_groups(12, 4)[0])
    assert k_min_search(10, 4) == (None, 4, None)
    assert k_min_search(12, 2) == (None, 2, None)
    with pytest.raises(ValueError, match="cannot exceed"):
        k_min_search(12, 13)
    for k_max in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            k_min_search(12, k_max)


# ── parallel determinism ───────────────────────────────────────────────────


def test_worker_count_does_not_change_results():
    single = realization_table(19, 6, workers=1)
    assert realization_table(19, 6, workers=2) == single
    assert realization_table(19, 6, workers=3) == single
    assert enumerate_classes(14, 5, workers=2) == enumerate_classes(14, 5, workers=1)


# ── budget ─────────────────────────────────────────────────────────────────


def test_budget_check():
    check_budget(19, range(3, 8))
    with pytest.raises(BudgetExceededError):
        check_budget(100, [50])
    with pytest.raises(BudgetExceededError):
        check_budget(40, [9], budget=1000)
    assert composition_count(12, 3) == math.comb(11, 2)


def test_library_entry_points_refuse_over_budget_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated despite the budget")

    monkeypatch.setattr(enumeration, "_class_groups", refuse)
    with pytest.raises(BudgetExceededError, match="nothing searched"):
        k_min(65535)
    with pytest.raises(BudgetExceededError):
        z_groups(100, 50)
    # k = 8 alone fits (15.4M), the range 8..9 does not (76.9M).
    check_budget(40, [8])
    with pytest.raises(BudgetExceededError):
        summary(40, range(8, 10))
