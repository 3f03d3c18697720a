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
from collections.abc import Iterable
from itertools import combinations

from .core import (
    Composition,
    IntervalVector,
    PitchClassSet,
    Record,
    check_int,
    check_modulus,
    interval_multiset,
    interval_multiset_brute,
    set_from_composition,
    steps,
)
from .dihedral import ti_equivalent
from .enumeration import z_groups


class ZPair(Record):
    """Two sets sharing an interval vector without being T/I-equivalent.

    scale == 1 marks a primitive pair.  scale == d >= 2 marks a derived
    pair: each member is T/I-equivalent to `base`'s corresponding member
    multiplied by d into Z_{d * base.n}.  Construction re-verifies the
    Z-relation and, for derived pairs, that scaling the base up gives the
    members, the Scaling Theorem's own direction.
    """

    __slots__ = ("set1", "set2", "mu", "scale", "base")

    def __init__(
        self, set1: PitchClassSet, set2: PitchClassSet, mu: IntervalVector,
        scale: int = 1, base: ZPair | None = None,
    ):
        self._set(set1, set2, mu, scale, base)
        self.__post_init__()

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
        if (check_int("scale", self.scale, 1) == 1) != (self.base is None):
            raise ValueError("scale 1 carries no base; scale >= 2 requires one")
        if self.base is not None:
            for mine, theirs in ((self.set1, self.base.set1), (self.set2, self.base.set2)):
                # Checked first, n keeps scale_set within MAX_MODULUS for a wrong base.
                if theirs.n * self.scale != self.n or not ti_equivalent(
                    mine, scale_set(theirs, self.scale)
                ):
                    raise ValueError("scaling the base pair does not give the members")

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
    """Scale both members by d into Z_{d*n}: a derived pair for d >= 2, `pair` for d == 1.

    The result is re-checked (equal interval vectors, T/I-inequivalent)
    before being returned; a failure would mean the scaling property itself
    is broken and is raised as an internal error, not bad input.
    """
    if check_int("scale factor", d, 1) == 1:
        return pair
    s1 = scale_set(pair.set1, d)
    s2 = scale_set(pair.set2, d)
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
    transposition-invariant and reversal merely permutes them.  Dividing
    every step by the full g gives the primitive pair, rooted at 0, that the
    input scales up from.  The stated vector comes from the steps by the
    additivity rule; `ZPair` checks it and the Z-relation against the direct
    pairwise scan, so the caller's pair is refused, by name, before any base
    is built.
    """
    c1, c2 = steps(set1), steps(set2)
    pair = ZPair(set1, set2, interval_multiset(c1))
    g = math.gcd(*c1.parts, *c2.parts)
    if g == 1:
        return pair
    down = [Composition(c.n // g, tuple(p // g for p in c.parts)) for c in (c1, c2)]
    # Steps divided by their full gcd have gcd 1: the base is primitive by construction.
    base = ZPair(*map(set_from_composition, down), interval_multiset(down[0]))
    return ZPair(set1, set2, pair.mu, g, base)


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


def group_zpairs(sets: Iterable[PitchClassSet]) -> list[tuple[int, int, ZPair]]:
    """(i, j, classified pair) for each pair i < j of the member sets, in combinations order."""
    return [(i, j, classify_pair(s1, s2)) for (i, s1), (j, s2) in combinations(enumerate(sets), 2)]


def zpairs_of(m: int, k: int, workers: int = 1) -> list[ZPair]:
    """Every Z-pair found by enumeration at (m, k), classified, in enumeration order."""
    groups = (map(set_from_composition, g.realizations) for g in z_groups(m, k, workers))
    return [pair for sets in groups for _, _, pair in group_zpairs(sets)]


def inherit(n: int, m: int, k: int, workers: int = 1) -> list[ZPair]:
    """Scale every Z-pair found by enumeration at (m, k) up to Z_n by d = n/m.

    Returns one pair per pair of `zpairs_of(m, k)`, in its order: derived
    for d >= 2, and the enumerated pair itself for d == 1.  The target
    modulus is checked before anything is enumerated.
    """
    check_modulus(n)
    if type(m) is not int or m < 3 or n % m != 0:
        raise ValueError(f"m must be a divisor of n with m >= 3, got m={m!r}, n={n}")
    return [scale_zpair(pair, n // m) for pair in zpairs_of(m, k, workers)]
