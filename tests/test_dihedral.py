from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from zrel.core import (
    Composition,
    PitchClassSet,
    interval_multiset,
    set_from_composition,
    steps,
)
from zrel.dihedral import (
    canonical,
    canonical_parts,
    is_canonical_parts,
    ti_equivalent,
)


def dihedral_orbit(elements, n):
    # Test-local oracle: apply all 2n transpositions/inversions to the raw set.
    orbit = set()
    for s in range(n):
        orbit.add(tuple(sorted((p + s) % n for p in elements)))
        orbit.add(tuple(sorted((s - p) % n for p in elements)))
    return orbit


def all_compositions(n, k):
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def compositions(draw):
    n = draw(st.integers(3, 24))
    k = draw(st.integers(1, n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, n]
    return Composition(n, tuple(b - a for a, b in zip(bounds, bounds[1:])))


def orbit(parts):
    # Test-local oracle: the k rotations, then the k rotations of the reversal.
    k = len(parts)
    rotations = [parts[i:] + parts[:i] for i in range(k)]
    return rotations + [r[::-1] for r in rotations]


# ── the 2k orbit candidates ────────────────────────────────────────────────


def test_orbit_of_triad_composition():
    assert set(orbit((3, 4, 5))) == {
        (3, 4, 5), (4, 5, 3), (5, 3, 4), (5, 4, 3), (4, 3, 5), (3, 5, 4),
    }
    assert canonical_parts((5, 3, 4)) == (3, 4, 5)
    assert canonical_parts((5, 4, 3)) == (3, 4, 5)


def test_orbit_of_symmetric_composition_collapses():
    assert orbit((4, 4, 4)) == [(4, 4, 4)] * 6
    assert canonical_parts((4, 4, 4)) == (4, 4, 4)


def test_orbit_of_asymmetric_tetrachord():
    # All eight candidates listed by hand; none coincide.
    candidates = [
        (1, 2, 4, 5), (2, 4, 5, 1), (4, 5, 1, 2), (5, 1, 2, 4),
        (5, 4, 2, 1), (4, 2, 1, 5), (2, 1, 5, 4), (1, 5, 4, 2),
    ]
    assert sorted(orbit((1, 2, 4, 5))) == sorted(candidates)
    for parts in candidates:
        assert canonical_parts(parts) == (1, 2, 4, 5)


def test_orbit_size_divides_2k():
    for n in range(3, 13):
        for k in range(1, n + 1):
            for parts in all_compositions(n, k):
                distinct = set(orbit(parts))
                assert (2 * k) % len(distinct) == 0
                assert canonical_parts(parts) == min(distinct)


# ── canonical ──────────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "parts,want",
    [
        ((4, 5, 1, 2), (1, 2, 4, 5)),
        ((6, 2, 3, 1), (1, 3, 2, 6)),  # the reversal branch wins here
        ((4, 4, 4), (4, 4, 4)),
    ],
)
def test_canonical_examples(parts, want):
    assert canonical(Composition(12, parts)).parts == want


@given(compositions())
def test_canonical_idempotent_and_in_orbit(comp):
    rep = canonical(comp)
    assert canonical(rep) == rep
    assert is_canonical_parts(rep.parts)
    assert rep.parts == min(orbit(comp.parts))


# Small parts make repeated minima, ties between rotations and palindromes
# common; the first part is often not the minimum.
part_tuples = st.lists(st.integers(1, 4), min_size=1, max_size=10).map(tuple)


@given(part_tuples)
def test_is_canonical_parts_agrees_with_orbit_minimum(parts):
    assert is_canonical_parts(parts) == (parts == canonical_parts(parts))


def test_is_canonical_parts_exhaustive_over_small_parts():
    # Every tuple of parts 1..3 up to length 7 (3,279 tuples), canonical or not.
    for k in range(1, 8):
        for parts in product(range(1, 4), repeat=k):
            assert is_canonical_parts(parts) == (parts == canonical_parts(parts)), parts


@pytest.mark.parametrize(
    "parts,want",
    [
        ((1, 1, 2, 1, 1, 3), True),  # the reversal read back from index 4 ties
        ((1, 2, 1, 1, 3, 1), False),  # its rotation (1, 1, 2, 1, 1, 3) is smaller
        ((1, 1, 3, 1, 1, 2), False),  # rotated by three it is (1, 1, 2, 1, 1, 3)
        ((1, 2, 1, 2), True),  # rotations starting at 1 all tie
        ((1, 3, 1, 2), False),  # rotation (1, 2, 1, 3) is smaller
        ((1, 3, 2), False),  # only the reversal (1, 2, 3) is smaller
        ((2, 1, 3), False),  # the first part is not the minimum
        ((5,), True),
    ],
)
def test_is_canonical_parts_examples(parts, want):
    assert is_canonical_parts(parts) is want


# ── ti_equivalent ──────────────────────────────────────────────────────────


def pcs_of(n, parts):
    return set_from_composition(Composition(n, parts))


def test_equivalent_examples():
    # compositions are equivalent exactly when their sets are
    assert ti_equivalent(pcs_of(12, (1, 2, 4, 5)), pcs_of(12, (5, 4, 2, 1)))
    assert not ti_equivalent(pcs_of(12, (1, 2, 4, 5)), pcs_of(12, (1, 3, 2, 6)))
    assert ti_equivalent(pcs_of(12, (3, 4, 5)), pcs_of(12, (4, 5, 3)))


def test_equivalent_total_on_mismatches():
    assert not ti_equivalent(pcs_of(12, (3, 4, 5)), pcs_of(13, (3, 4, 6)))
    assert not ti_equivalent(pcs_of(12, (3, 4, 5)), pcs_of(12, (3, 4, 4, 1)))


def test_ti_equivalent_examples():
    assert ti_equivalent(PitchClassSet(12, (0, 3, 7)), PitchClassSet(12, (0, 4, 9)))
    assert not ti_equivalent(
        PitchClassSet(12, (0, 1, 3, 7)), PitchClassSet(12, (0, 1, 4, 6))
    )
    assert not ti_equivalent(
        PitchClassSet(19, (0, 1, 2, 3, 6, 10)), PitchClassSet(19, (0, 1, 2, 4, 5, 11))
    )


def test_ti_equivalent_false_on_different_cardinality():
    assert not ti_equivalent(PitchClassSet(12, (0, 3)), PitchClassSet(12, (0, 3, 7)))
    # the same elements in Z_12 and Z_13
    assert not ti_equivalent(PitchClassSet(12, (0, 3, 7)), PitchClassSet(13, (0, 3, 7)))


def test_ti_equivalent_matches_group_orbit_oracle():
    # The composition route must induce the same partition of k-subsets as
    # acting with all 2n dihedral group elements on the raw sets.
    for n in range(3, 13):
        for k in range(1, min(5, n) + 1):
            fast_to_brute = {}
            brute_seen = set()
            for elements in combinations(range(n), k):
                pcs = PitchClassSet(n, elements)
                fast_key = canonical(steps(pcs)).parts
                brute_key = min(dihedral_orbit(elements, n))
                if fast_key in fast_to_brute:
                    assert fast_to_brute[fast_key] == brute_key
                else:
                    assert brute_key not in brute_seen
                    fast_to_brute[fast_key] = brute_key
                    brute_seen.add(brute_key)
                # the predicate agrees with orbit membership on a sample
                for other in sorted(dihedral_orbit(elements, n))[:2]:
                    assert ti_equivalent(pcs, PitchClassSet(n, other))


def test_trichord_interval_content_determines_class():
    # Two three-part compositions with equal interval multisets always share
    # a canonical form, for every modulus up to 24.
    for n in range(3, 25):
        by_mu = {}
        for parts in all_compositions(n, 3):
            comp = Composition(n, parts)
            by_mu.setdefault(interval_multiset(comp).counts, []).append(comp)
        for comps in by_mu.values():
            for other in comps[1:]:
                assert canonical(comps[0]) == canonical(other)
