from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import combinations

import pytest

from zrel import enumeration
from zrel.core import (
    Composition,
    IntervalVector,
    interval_multiset,
    interval_multiset_brute,
    set_from_composition,
)
from zrel.dihedral import canonical, equivalent, is_canonical_parts
from zrel.enumeration import (
    BudgetExceededError,
    RealizationClass,
    check_budget,
    composition_count,
    k_min_search,
    realization_table,
    summary,
    z_groups,
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


def all_compositions(n: int, k: int) -> list[Composition]:
    # Test-local oracle: the cut-point bijection, in lexicographic order.
    comps = []
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        comps.append(Composition(n, tuple(b - a for a, b in zip(bounds, bounds[1:]))))
    return comps


def table_classes(n: int, k: int, workers: int = 1) -> list[Composition]:
    """Every class representative of (n, k): the realization table, flattened."""
    table = realization_table(n, k, workers)
    return [Composition(n, p) for rc in table for p in rc.parts]


def z_pair_count(n: int, k: int) -> int:
    return sum(math.comb(rc.realization_number, 2) for rc in z_groups(n, k))


# ── the kernel's composition stream ────────────────────────────────────────


def test_composition_stream_counts():
    assert sum(1 for _ in enumeration._raw_compositions(12, 3)) == 55
    assert composition_count(19, 6) == 8568
    assert sum(1 for _ in enumeration._raw_compositions(19, 6)) == 8568


def test_composition_stream_small_listing():
    assert list(enumeration._raw_compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(enumeration._raw_compositions(4, 1)) == [(4,)]


def test_composition_stream_lex_order_unique():
    seen = list(enumeration._raw_compositions(9, 4))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen)) == composition_count(9, 4)
    assert seen == [c.parts for c in all_compositions(9, 4)]


# ── class representatives ──────────────────────────────────────────────────


@pytest.mark.parametrize("n,k,count", [(12, 3, 12), (12, 6, 50), (19, 5, 324)])
def test_class_counts(n, k, count):
    assert len(table_classes(n, k)) == count


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
        if len(table_classes(n, k)) != _bracelet_count(n, k)
    ]
    assert mismatches == []


def test_library_bracelet_count_matches_burnside_oracle():
    # Closed forms only, no enumeration, so the range reaches well past the
    # enumeration check above.
    mismatches = [
        (n, k)
        for n in range(3, 61)
        for k in range(1, n + 1)
        if enumeration._bracelet_count(n, k) != _bracelet_count(n, k)
    ]
    assert mismatches == []


def test_classes_match_canonical_forms_of_the_full_stream():
    # Oracle without the pruned stream: canonicalize every composition.
    for n in range(3, 17):
        for k in range(1, n + 1):
            want = sorted({canonical(c) for c in all_compositions(n, k)})
            assert sorted(table_classes(n, k)) == want, (n, k)


def test_table_refuses_a_kernel_that_drops_a_class(monkeypatch):
    kernel = enumeration.is_canonical_parts
    monkeypatch.setattr(
        enumeration, "is_canonical_parts", lambda parts: parts != (1, 2, 4, 5) and kernel(parts)
    )
    with pytest.raises(RuntimeError, match="kept 28 classes.*bracelet count is 29"):
        realization_table(12, 4)
    with pytest.raises(RuntimeError):
        summary(12, range(3, 10))
    assert len(realization_table(12, 5)) == 35  # other cardinalities are unaffected


def test_classes_are_canonical_sorted_and_complete():
    classes = table_classes(10, 4)
    assert all(is_canonical_parts(c.parts) for c in classes)
    assert len(set(classes)) == len(classes)
    # every composition is equivalent to exactly one representative
    for comp in all_compositions(10, 4):
        hits = [rep for rep in classes if equivalent(comp, rep)]
        assert len(hits) == 1


def test_degenerate_cardinalities():
    assert [c.parts for c in table_classes(12, 1)] == [(12,)]
    assert len(table_classes(12, 2)) == 6
    row = summary(12, [1])[0]
    assert (row.ti_classes, row.multisets, row.nonreconstructible) == (1, 1, 0)
    assert z_groups(12, 2) == []


# ── realization_table ──────────────────────────────────────────────────────


def test_table_conserves_classes_and_sorts():
    for n, k in [(12, 4), (12, 6), (10, 5)]:
        table = realization_table(n, k)
        assert sum(rc.realization_number for rc in table) == _bracelet_count(n, k)
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


@cache
def _eager_table(n: int, k: int) -> list[tuple[IntervalVector, tuple[Composition, ...]]]:
    # Oracle: canonicalize the full stream, group by vector, sort everything here.
    groups: dict[IntervalVector, list[Composition]] = {}
    for comp in {canonical(c) for c in all_compositions(n, k)}:
        mu = interval_multiset(comp) if k > 1 else IntervalVector(n, (0,) * (n // 2))
        groups.setdefault(mu, []).append(comp)
    return [(mu, tuple(sorted(comps))) for mu, comps in sorted(groups.items())]


@pytest.mark.parametrize(
    ("n", "workers"), [(n, 1) for n in range(3, 17)] + [(12, 2), (16, 2)]
)
def test_table_matches_an_eager_oracle(n, workers):
    # The reduce phase does not sort within a class; the oracle sorts itself.
    for k in range(1, n + 1):
        table = realization_table(n, k, workers)
        assert [(rc.mu, rc.realizations) for rc in table] == _eager_table(n, k), (n, k)
        assert all(rc.realization_number == len(rc.realizations) for rc in table)
        # Why no two first-part tasks share a vector: every member of a class
        # starts with the smallest interval class that the vector counts.
        for rc in table if k > 1 else ():
            smallest = next(ic for ic, c in enumerate(rc.counts, start=1) if c)
            assert {p[0] for p in rc.parts} == {smallest}


def test_counting_builds_no_value_objects(monkeypatch):
    calls = {Composition: 0, IntervalVector: 0}
    for cls in calls:

        def counted(self, cls=cls, post_init=cls.__post_init__):
            calls[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    summary(20, range(3, 11))
    assert calls == {Composition: 0, IntervalVector: 0}
    groups = z_groups(12, 6)
    assert calls == {Composition: 0, IntervalVector: 0}
    for rc in groups:
        rc.realizations
    r_total = sum(rc.realization_number for rc in groups)
    assert calls == {Composition: r_total, IntervalVector: 0}


def test_realization_class_validates_on_access():
    counts = realization_table(12, 4)[0].counts
    with pytest.raises(ValueError, match="sum to 6, not 12"):
        RealizationClass(12, counts, ((1, 2, 3),)).realizations
    with pytest.raises(ValueError, match="expected 6 interval-class counts"):
        RealizationClass(12, counts[:-1], ((1, 1, 1, 9),)).mu


def test_vector_keys_fall_back_to_tuples_above_255_parts(run_cli):
    # Z_258 minus one point: 256 intervals in each class 1..128, too many for
    # a byte, and the budget admits it.
    (rc,) = realization_table(258, 257)
    assert rc.parts == ((1,) * 256 + (2,),)
    assert isinstance(rc.counts, tuple) and max(rc.counts) == 256
    assert rc.mu == interval_multiset_brute(set_from_composition(rc.realizations[0]))
    assert rc.mu.counts == (256,) * 128 + (128,)
    (rc,) = realization_table(256, 255)
    assert rc.counts == bytes((254,) * 127 + (127,))
    code, out, err = run_cli("table", 258, "--kmin", 257, "--kmax", 257)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].split() == ["257", "1", "1", "0"]


# ── z_groups / summary / Z-pair counts ─────────────────────────────────────


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


# ── k_min_search ───────────────────────────────────────────────────────────


def test_k_min_values():
    assert k_min_search(12)[0] == 4
    assert k_min_search(19)[0] == 6
    assert k_min_search(10)[0] == 5
    assert k_min_search(30, k_max=4)[0] is None
    assert k_min_search(6)[0] is None  # searches k=4..3, i.e. nothing


def test_k_min_search_reports_the_searched_range_and_witness():
    assert k_min_search(12) == (4, 4, z_groups(12, 4)[0])
    assert k_min_search(10, 4) == (None, 4, None)
    assert k_min_search(12, 2) == (None, 2, None)
    for k_max in (13, 0, -5):
        message = rf"^kmax must be an integer in \[1, 12\], got {k_max}$"
        with pytest.raises(ValueError, match=message):
            k_min_search(12, k_max)


@pytest.mark.parametrize("k_max", [True, 5.5, "6"])
def test_k_min_search_refuses_a_non_integer_bound(k_max):
    with pytest.raises(ValueError, match="kmax must be an integer"):
        k_min_search(12, k_max)


# ── parallel determinism ───────────────────────────────────────────────────


def test_worker_count_does_not_change_results():
    single = realization_table(19, 6, workers=1)
    assert realization_table(19, 6, workers=2) == single
    assert realization_table(19, 6, workers=3) == single
    assert table_classes(14, 5, workers=2) == table_classes(14, 5, workers=1)


def test_pool_size_is_capped_by_tasks_and_cpus(monkeypatch, run_cli):
    sizes = []

    class InlinePool:
        """Records the requested pool size and runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    want = realization_table(20, 4)  # 5 first-part tasks
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool)
    for cpus, workers, size in [(64, 5000, 5), (64, 3, 3), (2, 5000, 2), (1, 5000, None)]:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False
        )
        sizes.clear()
        assert realization_table(20, 4, workers) == want
        assert sizes == ([] if size is None else [size])
    # The CLI passes --threads straight through; the library caps it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sizes.clear()
    code, _, _ = run_cli("table", 20, "--kmin", 4, "--kmax", 4, "--threads", 5000)
    assert code == 0 and sizes == [2]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_process_start_method_does_not_change_results(monkeypatch, method):
    built = []

    class MethodPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers, mp_context=multiprocessing.get_context(method))

    want = realization_table(19, 6, workers=1)
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", MethodPool)
    # Two CPUs, so a real two-worker pool starts even on a one-CPU host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert realization_table(19, 6, workers=2) == want
    assert built == [2]


@pytest.mark.parametrize("workers", [0, -3, True, 2.0])
def test_library_refuses_a_bad_worker_count_before_enumerating(monkeypatch, workers):
    from zrel.verify import run_suite

    def refuse(*args):
        raise AssertionError("enumerated before refusing the worker count")

    monkeypatch.setattr(enumeration, "_class_groups", refuse)
    with pytest.raises(ValueError, match=rf"workers must be an integer >= 1, got {workers!r}"):
        realization_table(12, 4, workers)
    with pytest.raises(ValueError, match="workers must be"):
        run_suite("z12", workers)


# ── budget ─────────────────────────────────────────────────────────────────


def test_budget_check():
    check_budget(19, range(3, 8))
    with pytest.raises(BudgetExceededError):
        check_budget(100, [50])
    with pytest.raises(BudgetExceededError):
        check_budget(40, [9])
    assert composition_count(12, 3) == math.comb(11, 2)


def test_library_entry_points_refuse_over_budget_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated despite the budget")

    monkeypatch.setattr(enumeration, "_class_groups", refuse)
    with pytest.raises(BudgetExceededError, match="nothing searched"):
        k_min_search(65535)
    with pytest.raises(BudgetExceededError):
        z_groups(100, 50)
    # k = 8 alone fits (15.4M), the range 8..9 does not (76.9M).
    check_budget(40, [8])
    with pytest.raises(BudgetExceededError):
        summary(40, range(8, 10))


def test_budget_bounds_the_grouping_store_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated despite the budget")

    monkeypatch.setattr(enumeration, "_class_groups", refuse)
    # Few compositions, but up to classes x n // 2 interval-class counts.
    for call in (
        lambda: realization_table(65535, 2),
        lambda: summary(2000, [3]),
        lambda: z_groups(495, 4),
        lambda: k_min_search(300),
    ):
        with pytest.raises(BudgetExceededError, match="vector keys"):
            call()
    # The largest admitted store at each of k = 8, 6, 5, 4.
    for n, k in [(40, 8), (64, 6), (101, 5), (210, 4)]:
        check_budget(n, [k])


@pytest.mark.parametrize("ks", [[4, 13], [0]])
def test_summary_refuses_a_bad_cardinality_before_enumerating(monkeypatch, ks):
    def refuse(*args):
        raise AssertionError("enumerated before refusing the request")

    monkeypatch.setattr(enumeration, "_class_groups", refuse)
    with pytest.raises(ValueError, match=rf"cardinality .* in \[1, 12\], got {ks[-1]}$"):
        summary(12, ks)
