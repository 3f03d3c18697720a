from __future__ import annotations

import math
import re
from itertools import combinations

import pytest

from zrel import construct, core
from zrel.construct import (
    ZPair,
    classify_pair,
    inherit,
    k4_pair,
    scale_set,
    scale_zpair,
    zpairs_of,
)
from zrel.core import PitchClassSet, interval_multiset_brute, set_from_composition
from zrel.dihedral import ti_equivalent
from zrel.enumeration import z_groups

Z12_PAIR = (PitchClassSet(12, (0, 1, 3, 7)), PitchClassSet(12, (0, 1, 4, 6)))

# Discovered by enumeration at (13, 4): the unique Z-group there, frozen as a
# regression fixture.
Z13_GROUP_COMPS = ((1, 2, 6, 4), (1, 3, 2, 7))
Z13_SETS = ((0, 1, 3, 9), (0, 1, 4, 6))


def brute_counts(elements, n):
    counts = [0] * (n // 2)
    for p, q in combinations(sorted(elements), 2):
        d = abs(p - q)
        counts[min(d, n - d) - 1] += 1
    return tuple(counts)


def dihedral_orbit(elements, n):
    orbit = set()
    for s in range(n):
        orbit.add(tuple(sorted((p + s) % n for p in elements)))
        orbit.add(tuple(sorted((s - p) % n for p in elements)))
    return orbit


def group_member_pairs(n, k):
    for group in z_groups(n, k):
        members = [set_from_composition(c) for c in group.realizations]
        for s1, s2 in combinations(members, 2):
            yield s1, s2


# ── scale_set ──────────────────────────────────────────────────────────────


def test_scale_set_doubles_triad():
    scaled = scale_set(PitchClassSet(12, (0, 3, 7)), 2)
    assert scaled.n == 24
    assert scaled.elements == (0, 6, 14)
    assert interval_multiset_brute(scaled).as_multiset() == (6, 8, 10)


def test_scale_set_identity():
    pcs = PitchClassSet(12, (0, 1, 3, 7))
    assert scale_set(pcs, 1) == pcs


def test_scale_set_triples_tetrachord():
    scaled = scale_set(PitchClassSet(12, (0, 1, 3, 7)), 3)
    assert scaled.n == 36
    assert scaled.elements == (0, 3, 9, 21)
    assert brute_counts(scaled.elements, 36) == interval_multiset_brute(scaled).counts
    assert interval_multiset_brute(scaled).as_multiset() == (3, 6, 9, 12, 15, 18)


def test_scale_set_rejects_bad_factor():
    with pytest.raises(ValueError):
        scale_set(PitchClassSet(12, (0, 3, 7)), 0)


# ── ZPair construction ─────────────────────────────────────────────────────


def test_zpair_rejects_non_z_related():
    with pytest.raises(ValueError):
        ZPair(
            PitchClassSet(12, (0, 1, 3, 7)),
            PitchClassSet(12, (0, 1, 2, 3)),
            interval_multiset_brute(PitchClassSet(12, (0, 1, 3, 7))),
        )
    with pytest.raises(ValueError):
        # transposed copy: same vector but T/I-equivalent
        ZPair(
            PitchClassSet(12, (0, 1, 3, 7)),
            PitchClassSet(12, (1, 2, 4, 8)),
            interval_multiset_brute(PitchClassSet(12, (0, 1, 3, 7))),
        )


Z24_DERIVED = (PitchClassSet(24, (0, 2, 6, 14)), PitchClassSet(24, (0, 2, 8, 12)))
Z12_BASE = classify_pair(*Z12_PAIR)


def _derived_claim(sets, scale, base):
    return ZPair(*sets, interval_multiset_brute(sets[0]), scale, base)


def test_zpair_accepts_a_true_derived_claim():
    assert _derived_claim(Z24_DERIVED, 2, Z12_BASE) == classify_pair(*Z24_DERIVED)


SCALED_BASE = "scaling the base pair does not give the members"
BASE_RULE = "scale 1 carries no base; scale >= 2 requires one"


@pytest.mark.parametrize(
    "sets, scale, base",
    [
        # the steps of {0,1,6,13} are odd, so no doubled set has them
        ((PitchClassSet(24, (0, 1, 6, 13)), PitchClassSet(24, (0, 1, 7, 12))), 2, Z12_BASE),
        # 8 * 2 != 24: the doubled base lives in Z_16, not Z_24
        (Z24_DERIVED, 2, k4_pair(8, 1)),
        # the base lists the members the other way round
        (Z24_DERIVED, 2, classify_pair(Z12_PAIR[1], Z12_PAIR[0])),
        (Z24_DERIVED, 1, Z12_BASE),
        (Z24_DERIVED, 2, None),
        # 8 * 30000 is above the modulus bound, so the base cannot be scaled at all
        (Z24_DERIVED, 30000, k4_pair(8, 1)),
    ],
)
def test_zpair_refuses_a_bad_derived_claim(sets, scale, base):
    # The scale/base rule is checked before the base is scaled up.
    message = BASE_RULE if (scale == 1) != (base is None) else SCALED_BASE
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _derived_claim(sets, scale, base)


@pytest.mark.parametrize(
    "sets, scale, base",
    [
        (Z12_PAIR, True, None),
        (Z12_PAIR, 1.0, None),
        (Z24_DERIVED, 2.0, Z12_BASE),
        (Z12_PAIR, 0, None),
    ],
)
def test_zpair_scale_takes_the_one_integer_guard(sets, scale, base):
    want = f"scale must be an integer >= 1, got {scale!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        _derived_claim(sets, scale, base)


# ── scale_zpair ────────────────────────────────────────────────────────────


def test_scale_zpair_doubles_z12_pair():
    pair = classify_pair(*Z12_PAIR)
    scaled = scale_zpair(pair, 2)
    assert scaled.set1.elements == (0, 2, 6, 14)
    assert scaled.set2.elements == (0, 2, 8, 12)
    assert scaled.scale == 2 and scaled.base == pair
    # the scaled members show up in the same group by direct enumeration
    groups = [
        g
        for g in z_groups(24, 4)
        if {scaled.set1, scaled.set2}
        <= {set_from_composition(c) for c in g.realizations}
    ]
    assert len(groups) == 1


def test_scale_zpair_identity(monkeypatch):
    def refuse(*args):
        raise AssertionError("scaled the members for d == 1")

    monkeypatch.setattr(construct, "scale_set", refuse)
    pair = classify_pair(*Z12_PAIR)
    assert scale_zpair(pair, 1) is pair


@pytest.mark.parametrize("d", [0, -2, True, 2.0])
def test_scale_zpair_rejects_bad_factor(d):
    with pytest.raises(ValueError, match="scale factor"):
        scale_zpair(classify_pair(*Z12_PAIR), d)


def test_scale_zpair_from_z13_fixture():
    base = classify_pair(
        PitchClassSet(13, Z13_SETS[0]), PitchClassSet(13, Z13_SETS[1])
    )
    assert base.is_primitive
    scaled = scale_zpair(base, 2)
    assert scaled.n == 26 and scaled.scale == 2 and scaled.base == base
    assert not scaled.is_primitive


def test_scaling_preserves_z_relation_small_sweep():
    for m in range(3, 11):
        for k in range(2, min(6, m) + 1):
            for s1, s2 in group_member_pairs(m, k):
                pair = classify_pair(s1, s2)
                for d in (2, 3):
                    scaled = scale_zpair(pair, d)
                    assert scaled.mu.as_multiset() == tuple(
                        d * ic for ic in pair.mu.as_multiset()
                    )
                    assert not ti_equivalent(scaled.set1, scaled.set2)


# ── k4_pair ────────────────────────────────────────────────────────────────


def test_k4_pair_z12():
    pair = k4_pair(12, 1)
    assert pair.set1.elements == (0, 1, 3, 7)
    assert pair.set2.elements == (0, 1, 4, 6)
    assert pair.is_primitive


def test_k4_pair_z20():
    pair = k4_pair(20, 1)
    assert pair.set1.elements == (0, 1, 5, 11)
    assert pair.set2.elements == (0, 1, 6, 10)


def test_k4_pair_z8():
    pair = k4_pair(8, 1)
    assert pair.set1.elements == (0, 1, 2, 5)
    assert pair.set2.elements == (0, 1, 3, 4)
    assert pair.mu.as_multiset() == (1, 1, 2, 3, 3, 4)
    assert brute_counts((0, 1, 2, 5), 8) == pair.mu.counts


def test_k4_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        k4_pair(14, 1)
    with pytest.raises(ValueError):
        k4_pair(4, 1)
    with pytest.raises(ValueError):
        k4_pair(12, 0)
    with pytest.raises(ValueError):
        k4_pair(12, 3)  # a must stay below m/2 = 3


def test_four_m_family():
    # Offset 1 in Z_4q: {0, 1, q, 2q + 1} against {0, 1, q + 1, 2q}.
    for q in range(2, 12):
        pair = k4_pair(4 * q, 1)
        assert pair.set1.elements == (0, 1, q, 2 * q + 1)
        assert pair.set2.elements == (0, 1, q + 1, 2 * q)
        assert pair.is_primitive


# ── classify_pair ──────────────────────────────────────────────────────────


def test_classify_primitive_z12():
    pair = classify_pair(*Z12_PAIR)
    assert pair.is_primitive and pair.scale == 1 and pair.base is None


def test_classify_derived_k4_16_2():
    pair = k4_pair(16, 2)
    assert pair.scale == 2
    assert pair.base.n == 8
    assert pair.base.set1.elements == (0, 1, 2, 5)
    assert pair.base.set2.elements == (0, 1, 3, 4)
    assert pair.base.is_primitive


def test_classify_derived_z24():
    pair = classify_pair(
        PitchClassSet(24, (0, 2, 6, 14)), PitchClassSet(24, (0, 2, 8, 12))
    )
    assert pair.scale == 2
    assert pair.base.set1.elements == (0, 1, 3, 7)
    assert pair.base.set2.elements == (0, 1, 4, 6)


def test_classify_rejects_non_z_related():
    with pytest.raises(ValueError):
        classify_pair(PitchClassSet(12, (0, 1, 3, 7)), PitchClassSet(12, (1, 2, 4, 8)))
    with pytest.raises(ValueError):
        classify_pair(PitchClassSet(12, (0, 1, 3, 7)), PitchClassSet(13, (0, 1, 3, 7)))


def test_classify_checks_the_additivity_rule_against_the_pairwise_scan(monkeypatch):
    counts = core._interval_counts

    def miscount(parts, n):
        first, *rest = counts(parts, n)
        return (first + 1, *rest)

    monkeypatch.setattr(core, "_interval_counts", miscount)
    with pytest.raises(ValueError, match="stated interval vector"):
        classify_pair(*Z12_PAIR)


def test_classify_rejects_equivalent_pair_with_common_step_factor():
    # Steps (2, 4, 6) and (4, 2, 6) share the factor 2; the error must name
    # the sets given, not their downscaled images in Z_6.
    with pytest.raises(ValueError, match="not Z-related") as err:
        classify_pair(PitchClassSet(12, (0, 2, 6)), PitchClassSet(12, (0, 4, 6)))
    assert "(0, 2, 6)" in str(err.value)


def test_classify_matches_brute_downscale_oracle():
    # classify's scale factor g must admit exactly the divisors d >= 2 of g
    # as downscale factors, verified against all dihedral images.
    for n in range(3, 25):
        for k in range(2, min(6, n) + 1):
            for s1, s2 in group_member_pairs(n, k):
                pair = classify_pair(s1, s2)
                want = {d for d in range(2, pair.scale + 1) if pair.scale % d == 0}
                assert brute_downscale_factors(s1, s2) == want


def brute_downscale_factors(p1, p2):
    n = p1.n
    factors = set()
    for d in range(2, n + 1):
        if n % d or n // d < 3:
            continue
        img1 = _orbit_image_of_multiples(p1.elements, n, d)
        img2 = _orbit_image_of_multiples(p2.elements, n, d)
        if img1 is None or img2 is None:
            continue
        m = n // d
        q1 = tuple(e // d for e in img1)
        q2 = tuple(e // d for e in img2)
        if brute_counts(q1, m) == brute_counts(q2, m) and q2 not in dihedral_orbit(
            q1, m
        ):
            factors.add(d)
    return factors


def _orbit_image_of_multiples(elements, n, d):
    for image in sorted(dihedral_orbit(elements, n)):
        if all(e % d == 0 for e in image):
            return image
    return None


def test_primitive_first_appearance():
    # Primitive 4-element Z-pairs exist at n = 8, 12, 13 and nowhere below.
    for n in range(4, 14):
        primitives = [
            classify_pair(s1, s2).is_primitive for s1, s2 in group_member_pairs(n, 4)
        ]
        if n in (8, 12, 13):
            assert primitives and all(primitives)
        else:
            assert not primitives


def test_z13_discovery_fixture():
    groups = z_groups(13, 4)
    assert len(groups) == 1
    assert tuple(c.parts for c in groups[0].realizations) == Z13_GROUP_COMPS
    sets = [set_from_composition(c) for c in groups[0].realizations]
    assert tuple(s.elements for s in sets) == Z13_SETS


# ── inherit ────────────────────────────────────────────────────────────────


def test_inherit_z26_from_z13():
    pairs = inherit(26, 13, 4)
    assert len(pairs) == 1
    assert pairs[0].scale == 2
    assert pairs[0].base.is_primitive
    assert pairs[0].set1.elements == (0, 2, 6, 18)
    assert pairs[0].set2.elements == (0, 2, 8, 12)


def test_inherit_z24_from_z12():
    pairs = inherit(24, 12, 4)
    assert len(pairs) == 1
    assert pairs[0].set1.elements == (0, 2, 6, 14)
    assert pairs[0].set2.elements == (0, 2, 8, 12)


def test_inherit_empty_from_z10():
    assert inherit(20, 10, 4) == []


def test_zpairs_of_lists_each_group_pair_once_in_order():
    for n, k in [(12, 4), (12, 6), (16, 5), (19, 6)]:
        pairs = zpairs_of(n, k)
        assert [(p.set1, p.set2) for p in pairs] == list(group_member_pairs(n, k))
        assert [scale_zpair(p, 2) for p in pairs] == inherit(2 * n, n, k)
        assert inherit(n, n, k) == pairs


def test_derived_pair_base_is_primitive_and_equals_its_classification():
    derived = [p for k in range(5, 8) for p in zpairs_of(24, k) if not p.is_primitive]
    assert derived
    for pair in derived:
        assert pair.base.is_primitive
        assert pair.base == classify_pair(pair.base.set1, pair.base.set2)


def test_inherit_rejects_non_divisor():
    with pytest.raises(ValueError):
        inherit(20, 7, 4)


def test_inherit_refuses_a_modulus_above_the_bound():
    # 3 divides 90000, so only the modulus check can refuse this request.
    with pytest.raises(ValueError, match=r"modulus must be an integer in \[3, 65535\], got 90000$"):
        inherit(90000, 3, 3)


# ── k_min consequences of the constructions ───────────────────────────────


def test_k4_primitivity_criterion_sweep():
    for n in range(8, 33, 4):
        m = n // 2
        for a in range(1, m // 2):
            assert k4_pair(n, a).is_primitive == (math.gcd(a, m // 2) == 1)
