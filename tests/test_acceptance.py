"""Acceptance suite: every criterion as one test with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are pinned here: table and count checks are exact
integer comparisons; spectral agreement uses an absolute 1e-9 bound.
"""

from __future__ import annotations

import json
import math
import time
from itertools import combinations

from zrel.construct import classify_pair, k4_pair, scale_set
from zrel.core import (
    PitchClassSet,
    dft_magnitudes,
    interval_multiset,
    interval_multiset_brute,
    normalize_to_zero,
    set_from_composition,
    steps,
)
from zrel.dihedral import ti_equivalent
from zrel.enumeration import k_min_search, realization_table, z_groups

GOLDEN_Z12 = [
    (3, 12, 12, 0),
    (4, 29, 28, 1),
    (5, 38, 35, 3),
    (6, 50, 35, 15),
    (7, 38, 35, 3),
    (8, 29, 28, 1),
    (9, 12, 12, 0),
]
GOLDEN_Z19 = [
    (3, 30, 30, 0),
    (4, 120, 120, 0),
    (5, 324, 324, 0),
    (6, 756, 735, 21),
    (7, 1368, 1311, 57),
]
DFT_TOLERANCE = 1e-9

# Frozen after first discovery by enumeration at (13, 4).
Z13_FIXTURE_COMPS = ((1, 2, 6, 4), (1, 3, 2, 7))
Z13_FIXTURE_SETS = ((0, 1, 3, 9), (0, 1, 4, 6))


def test_criterion_01_z12_golden_table(run_cli):
    start = time.perf_counter()
    code, out, _ = run_cli(
        "table", 12, "--kmin", 3, "--kmax", 9, "--format", "json", "--threads", 1
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [
        (r["k"], r["ti_classes"], r["multisets"], r["nonreconstructible"])
        for r in rows
    ] == GOLDEN_Z12
    total = sum(
        math.comb(rc.realization_number, 2) for k in range(3, 10) for rc in z_groups(12, k)
    )
    assert total == 23
    assert elapsed < 1.0
    print(f"PASS criterion 1: Z12 golden table exact, 23 pairs, {elapsed:.3f}s")


def test_criterion_02_z12_group_size_bound():
    sizes = [
        rc.realization_number for k in range(3, 10) for rc in z_groups(12, k)
    ]
    assert sizes and max(sizes) == 2
    print("PASS criterion 2: no Z12 vector has three or more realizations")


def test_criterion_03_z12_k4_witness():
    groups = z_groups(12, 4)
    assert len(groups) == 1
    group = groups[0]
    assert tuple(c.parts for c in group.realizations) == ((1, 2, 4, 5), (1, 3, 2, 6))
    assert group.mu.as_multiset() == (1, 2, 3, 4, 5, 6)
    print("PASS criterion 3: unique (12,4) group is (1,2,4,5)/(1,3,2,6), all-interval")


def test_criterion_04_z19_golden_table(run_cli):
    start = time.perf_counter()
    code, out, _ = run_cli(
        "table", 19, "--kmin", 3, "--kmax", 7, "--format", "json", "--threads", 1
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [
        (r["k"], r["ti_classes"], r["multisets"], r["nonreconstructible"])
        for r in rows
    ] == GOLDEN_Z19
    assert elapsed < 10.0
    print(f"PASS criterion 4: Z19 golden table exact, {elapsed:.3f}s single-threaded")


def test_criterion_05_z19_witness_pair():
    w1 = PitchClassSet(19, (0, 1, 2, 3, 6, 10))
    w2 = PitchClassSet(19, (0, 1, 2, 4, 5, 11))
    sharing = [
        rc
        for rc in z_groups(19, 6)
        if {w1, w2} <= {set_from_composition(c) for c in rc.realizations}
    ]
    assert len(sharing) == 1
    assert not ti_equivalent(w1, w2)
    print("PASS criterion 5: Z19 witness sets share a group and are T/I-inequivalent")


def test_criterion_06_no_trichord_z_relation():
    for n in range(3, 25):
        for rc in realization_table(n, 3):
            assert rc.realization_number == 1
    print("PASS criterion 6: every trichord vector has a unique realization, n <= 24")


def test_criterion_07_oracle_equivalence():
    checked = 0
    for n in range(3, 17):
        for k in range(2, min(6, n) + 1):
            for elements in combinations(range(n), k):
                pcs = PitchClassSet(n, elements)
                via_steps = interval_multiset(steps(normalize_to_zero(pcs)))
                assert via_steps == interval_multiset_brute(pcs)
                checked += 1
    print(f"PASS criterion 7: additivity equals pairwise oracle on {checked} subsets")


def test_criterion_08_scaling_suite():
    checked = 0
    for m in range(3, 15):
        for k in range(2, min(6, m) + 1):
            for group in z_groups(m, k):
                members = [set_from_composition(c) for c in group.realizations]
                for s1, s2 in combinations(members, 2):
                    for d in (2, 3):
                        t1, t2 = scale_set(s1, d), scale_set(s2, d)
                        assert interval_multiset_brute(t1) == interval_multiset_brute(t2)
                        assert not ti_equivalent(t1, t2)
                        checked += 1
    assert checked > 0
    print(f"PASS criterion 8: {checked} scaled pairs keep equal vectors, inequivalent")


def test_criterion_09_k4_construction_sweep():
    start = time.perf_counter()
    checked = 0
    for n in range(8, 65, 4):
        m = n // 2
        for a in range(1, m // 2):
            pair = k4_pair(n, a)
            c1 = steps(pair.set1)
            c2 = steps(pair.set2)
            assert c1.parts == (a, m // 2 - a, m // 2 + a, m - a)
            assert c2.parts == (a, m // 2, m // 2 - a, m)
            assert sum(c1.parts) == sum(c2.parts) == n
            want_mu = tuple(sorted((a, m // 2 - a, m // 2, m // 2 + a, m - a, m)))
            assert pair.mu.as_multiset() == want_mu
            assert interval_multiset_brute(pair.set1).as_multiset() == want_mu
            assert not ti_equivalent(pair.set1, pair.set2)
            assert pair.is_primitive == (math.gcd(a, m // 2) == 1)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 9: k=4 sweep valid for {checked} pairs, {elapsed:.3f}s")


def test_criterion_10_k_min_spot_checks():
    for n in (8, 12, 16, 20, 24, 26):
        assert k_min_search(n)[0] == 4
    for n in (10, 14, 18, 22, 30):
        assert k_min_search(n, k_max=4)[0] is None
    assert k_min_search(19)[0] == 6
    print("PASS criterion 10: k_min spot checks (4 | n plus 26; none at k=4 for 2 mod 4; 19 -> 6)")


def test_criterion_11_primitive_discovery_z13():
    groups = z_groups(13, 4)
    assert len(groups) >= 1
    group = groups[0]
    sets = [set_from_composition(c) for c in group.realizations]
    pair = classify_pair(sets[0], sets[1])
    assert pair.is_primitive
    assert tuple(c.parts for c in group.realizations) == Z13_FIXTURE_COMPS
    assert tuple(s.elements for s in sets) == Z13_FIXTURE_SETS
    print("PASS criterion 11: (13,4) enumeration finds the primitive pair, fixture stable")


def test_criterion_12_dft_cross_check():
    worst = 0.0
    pairs = 0
    for k in range(3, 10):
        for rc in z_groups(12, k):
            spectra = [dft_magnitudes(set_from_composition(c)) for c in rc.realizations]
            for a, b in combinations(spectra, 2):
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
                pairs += 1
    assert pairs == 23
    assert worst <= DFT_TOLERANCE
    print(f"PASS criterion 12: 23 Z12 pairs agree spectrally (max dev {worst:.2e})")


def test_criterion_13_parallel_determinism(run_cli):
    outputs = []
    for threads in (1, 2, 8):
        code, out, _ = run_cli(
            "table", 19, "--kmin", 6, "--kmax", 7, "--format", "json",
            "--threads", threads,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 13: JSON byte-identical for 1, 2, and 8 workers")
