"""Closed-form Z-pair machinery: scaling, the k=4 construction, classification.

Two complementary sources of Z-pairs live here.  Scaling propagates any
Z-pair in Z_m to Z_{d*m} for every d >= 1 (multiply elements and modulus
alike), which partitions all Z-pairs into derived ones (proper scalings)
and primitive ones.  The explicit k=4 construction produces a primitive
pair for every n divisible by 4, and `classify_pair` decides the
primitive/derived status of any Z-pair via the gcd of its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core import (
    IntervalVector,
    PitchClassSet,
    check_int,
    check_modulus,
    interval_multiset,
    interval_multiset_brute,
    normalize_to_zero,
    set_from_composition,
    steps,
)
from .dihedral import ti_equivalent
from .enumeration import RealizationClass, z_groups


@dataclass(frozen=True)
class ZPair:
    """Two sets sharing an interval vector without being T/I-equivalent.

    scale == 1 marks a primitive pair.  scale == d >= 2 marks a derived
    pair: each member is `base`'s corresponding member multiplied by d into
    Z_{d * base.n}.  Construction re-verifies the Z-relation and, for
    derived pairs, that dividing out the scale recovers the base.
    """

    set1: PitchClassSet
    set2: PitchClassSet
    mu: IntervalVector
    scale: int = 1
    base: ZPair | None = None

    def __post_init__(self) -> None:
        if self.set1.n != self.set2.n or len(self.set1) != len(self.set2):
            raise ValueError("Z-pair members must share modulus and cardinality")
        mu1 = interval_multiset_brute(self.set1)
        if mu1 != interval_multiset_brute(self.set2):
            raise ValueError(
                f"not Z-related: interval vectors of {self.set1.elements} and "
                f"{self.set2.elements} differ"
            )
        if mu1 != self.mu:
            raise ValueError("stated interval vector does not match the members")
        if ti_equivalent(self.set1, self.set2):
            raise ValueError(
                f"not Z-related: {self.set1.elements} and {self.set2.elements} "
                "are T/I-equivalent"
            )
        if self.scale < 1 or (self.scale == 1) != (self.base is None):
            raise ValueError("scale 1 carries no base; scale >= 2 requires one")
        if self.base is not None:
            for mine, theirs in ((self.set1, self.base.set1), (self.set2, self.base.set2)):
                if not ti_equivalent(_downscale(mine, self.scale), theirs):
                    raise ValueError(
                        "dividing out the scale does not recover the base pair"
                    )

    @property
    def n(self) -> int:
        return self.set1.n

    @property
    def is_primitive(self) -> bool:
        return self.scale == 1


def scale_set(pcs: PitchClassSet, d: int) -> PitchClassSet:
    """Map each element p to d*p inside Z_{d*n}.

    Every interval class scales by exactly d, so the interval vector of the
    image is the original vector with classes multiplied by d.
    """
    check_int("scale factor", d, 1)
    return PitchClassSet(pcs.n * d, tuple(p * d for p in pcs.elements))


def _scaled_vector(mu: IntervalVector, d: int) -> IntervalVector:
    counts = [0] * (mu.n * d // 2)
    for ic, c in enumerate(mu.counts, start=1):
        counts[ic * d - 1] = c
    return IntervalVector(mu.n * d, tuple(counts))


def scale_zpair(pair: ZPair, d: int) -> ZPair:
    """Scale both members by d into Z_{d*n}; a derived pair for d >= 2.

    The result is re-checked (equal interval vectors, T/I-inequivalent)
    before being returned; a failure would mean the scaling property itself
    is broken and is raised as an internal error, not bad input.
    """
    s1 = scale_set(pair.set1, d)
    s2 = scale_set(pair.set2, d)
    if d == 1:
        return pair
    try:
        return ZPair(s1, s2, _scaled_vector(pair.mu, d), d, pair)
    except ValueError as exc:
        raise RuntimeError(
            f"scaled pair failed its Z-relation check (d={d}, base n={pair.n}): {exc}"
        ) from exc


def classify_pair(set1: PitchClassSet, set2: PitchClassSet) -> ZPair:
    """Classify a Z-related pair as primitive or derived.

    The candidate scale is the gcd g of all steps of both compositions: the
    pair is a d-scaling exactly for the divisors d of g, because steps are
    transposition-invariant and reversal merely permutes them.  Dividing out
    the full g recovers the primitive pair the input scales up from.  The
    stated vector comes from the steps by the additivity rule; `ZPair`
    checks it and the Z-relation against the direct pairwise scan, so the
    caller's pair is refused, by name, before any base is built.
    """
    c1 = steps(set1)
    c2 = steps(set2)
    pair = ZPair(set1, set2, interval_multiset(c1))
    g = math.gcd(*c1.parts, *c2.parts)
    if g == 1:
        return pair
    base = classify_pair(_downscale(set1, g), _downscale(set2, g))
    return ZPair(set1, set2, pair.mu, g, base)


def _downscale(pcs: PitchClassSet, d: int) -> PitchClassSet:
    """`pcs` rooted at 0, each element divided by d, in Z_{n/d}; d must divide every step."""
    rooted = normalize_to_zero(pcs)
    if pcs.n % d or any(e % d for e in rooted.elements):
        raise ValueError(f"scale {d} does not divide every step of {pcs.elements}")
    return PitchClassSet(pcs.n // d, tuple(e // d for e in rooted.elements))


def k4_pair(n: int, a: int) -> ZPair:
    """The explicit 4-element Z-pair over Z_n, for n divisible by 4.

    With m = n/2, the members are {0, a, m/2, m+a} and {0, a, a+m/2, m} for
    any offset 1 <= a < m/2.  Their step sequences differ, but swapping the
    middle partial sums m/2 and m/2+a leaves every pairwise interval class
    unchanged.  The pair is primitive exactly when gcd(a, m/2) == 1; the
    classification is computed from the sets rather than assumed.
    """
    if type(n) is not int or n % 4 != 0 or n < 8:
        raise ValueError(f"construction requires n divisible by 4 with n >= 8, got {n!r}")
    m = n // 2
    check_int("offset a", a, 1, m // 2 - 1)
    p1 = PitchClassSet(n, (0, a, m // 2, m + a))
    p2 = PitchClassSet(n, (0, a, a + m // 2, m))
    return classify_pair(p1, p2)


def group_zpairs(group: RealizationClass) -> list[tuple[int, int, ZPair]]:
    """(i, j, classified pair) for each pair i < j of realizations, in combinations order."""
    pairs = combinations(enumerate(map(set_from_composition, group.realizations)), 2)
    return [(i, j, classify_pair(s1, s2)) for (i, s1), (j, s2) in pairs]


def zpairs_of(m: int, k: int, workers: int = 1) -> list[ZPair]:
    """Every Z-pair found by enumeration at (m, k), classified, in enumeration order."""
    return [pair for group in z_groups(m, k, workers) for _, _, pair in group_zpairs(group)]


def inherit(n: int, m: int, k: int, workers: int = 1) -> list[ZPair]:
    """Scale every Z-pair found by enumeration at (m, k) up to Z_n by n/m.

    Returns one derived pair per pair of `zpairs_of(m, k)`, in its order.
    """
    check_modulus(n)
    if type(m) is not int or not 3 <= m < n or n % m != 0:
        raise ValueError(f"m must be a proper divisor of n with m >= 3, got m={m!r}, n={n}")
    return [scale_zpair(pair, n // m) for pair in zpairs_of(m, k, workers)]
