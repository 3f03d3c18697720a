"""Interval-class arithmetic over the cyclic group Z_n.

Value types for pitch-class sets, their step compositions, and interval
vectors, plus the conversions between them.  Two independent routes compute
the interval content of a set: the additivity rule over a composition's
partial sums (`interval_multiset`) and the direct pairwise scan
(`interval_multiset_brute`).  `dft_magnitudes` gives a third, spectral
fingerprint used only for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

# All arithmetic stays within 64-bit signed range for n up to this bound.
MAX_MODULUS = 65535


def check_int(name: str, value: int, lo: int, hi: int | None = None) -> int:
    """The one argument-range guard: a plain int (never a bool) in [lo, hi], or >= lo."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def check_modulus(n: int) -> int:
    """Validate a cyclic group order: an integer with 3 <= n <= 65535."""
    return check_int("modulus", n, 3, MAX_MODULUS)


@dataclass(frozen=True, order=True)
class PitchClassSet:
    """Distinct residues mod n, stored as a strictly increasing tuple."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        check_modulus(self.n)
        given = tuple(self.elements)
        if any(type(e) is not int for e in given):
            raise ValueError(f"pitch classes must be integers, got {given!r}")
        elems = tuple(sorted(given))
        if not elems:
            raise ValueError("pitch-class set must be nonempty")
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate pitch classes in {given!r}")
        if elems[0] < 0 or elems[-1] >= self.n:
            raise ValueError(f"pitch classes must lie in [0, {self.n}), got {given!r}")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True, order=True)
class Composition:
    """Ordered positive parts summing to n: the steps of a set from its least element.

    The sum constraint is the closure property; the last part is the
    wraparound step back to the first element.
    """

    n: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        check_modulus(self.n)
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("composition must have at least one part")
        if any(type(p) is not int or p < 1 for p in parts):
            raise ValueError(f"all parts must be positive integers, got {parts!r}")
        if sum(parts) != self.n:
            raise ValueError(f"parts {parts!r} sum to {sum(parts)}, not {self.n}")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True, order=True)
class IntervalVector:
    """Counts of interval classes 1..n//2; the grouping key for realizations.

    Two sets share an interval multiset exactly when their vectors are equal,
    so equality/hashing of this type is multiset equality of the intervals.
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        check_modulus(self.n)
        counts = tuple(self.counts)
        if len(counts) != self.n // 2:
            raise ValueError(
                f"expected {self.n // 2} interval-class counts for n={self.n}, "
                f"got {len(counts)}"
            )
        if any(type(c) is not int or c < 0 for c in counts):
            raise ValueError(f"counts must be non-negative integers, got {counts!r}")
        object.__setattr__(self, "counts", counts)

    def total(self) -> int:
        """Number of intervals counted; C(k, 2) for a set of cardinality k."""
        return sum(self.counts)

    def as_multiset(self) -> tuple[int, ...]:
        """Expand the counts into the sorted multiset of interval classes."""
        return tuple(
            ic for ic, c in enumerate(self.counts, start=1) for _ in range(c)
        )


def normalize_to_zero(pcs: PitchClassSet) -> PitchClassSet:
    """Transpose so the least element maps to 0."""
    lo = pcs.elements[0]
    if lo == 0:
        return pcs
    return PitchClassSet(pcs.n, tuple((e - lo) % pcs.n for e in pcs.elements))


def steps(pcs: PitchClassSet) -> Composition:
    """Consecutive differences read from the least element, with the wraparound step.

    Transposition leaves them unchanged, so any set and its rooted form
    `normalize_to_zero(pcs)` have the same steps.
    """
    elems = pcs.elements
    parts = tuple(b - a for a, b in zip(elems, elems[1:])) + (pcs.n - elems[-1] + elems[0],)
    return Composition(pcs.n, parts)


def set_from_composition(comp: Composition) -> PitchClassSet:
    """Inverse of steps: the partial sums of the parts, rooted at 0."""
    return PitchClassSet(comp.n, (0, *accumulate(comp.parts[:-1])))


@lru_cache(maxsize=8)
def _ic_index(n: int) -> tuple[int, ...]:
    # Entry d (1 <= d < n) is the count index of interval class min(d, n - d);
    # the small bound keeps a caller sweeping many moduli from growing it.
    return tuple(min(d, n - d) - 1 for d in range(n))


def _interval_counts(parts: tuple[int, ...], n: int) -> bytes | tuple[int, ...]:
    # Additivity rule on raw tuples; shared with the enumeration fast path.
    # Each element has at most two partners at any one distance, so no count
    # exceeds k: up to k = 255 the counts pack as bytes, whose order is the
    # order of the count sequences, and larger sets keep a tuple.
    index = _ic_index(n)
    counts = [0] * (n // 2)
    for a, b in combinations((0, *accumulate(parts[:-1])), 2):
        counts[index[b - a]] += 1
    return bytes(counts) if len(parts) <= 255 else tuple(counts)


def interval_multiset(comp: Composition) -> IntervalVector:
    """Interval content of a composition via the additivity rule.

    The interval class between any two elements of the encoded set is the
    interval class of the sum of the steps between them, so one pass over
    the partial sums yields all C(k, 2) intervals.
    """
    if len(comp) < 2:
        raise ValueError("interval multiset needs at least two parts")
    return IntervalVector(comp.n, _interval_counts(comp.parts, comp.n))


def interval_multiset_brute(pcs: PitchClassSet) -> IntervalVector:
    """Pairwise oracle: ic over every unordered element pair, bypassing steps.

    The set's constructor is its one validation: it has checked the modulus
    and that the elements are distinct integers in [0, n), and sorted them,
    so each pair p < q has 0 < q - p < n and its class is read off inline.
    """
    if len(pcs) < 2:
        raise ValueError("interval multiset needs at least two pitch classes")
    n = pcs.n
    counts = [0] * (n // 2)
    for p, q in combinations(pcs.elements, 2):
        d = q - p
        counts[min(d, n - d) - 1] += 1
    return IntervalVector(n, tuple(counts))


def dft_magnitudes(pcs: PitchClassSet) -> list[float]:
    """Squared DFT magnitudes of the set's characteristic function.

    Returns |sum_p exp(-2*pi*i*p*j/n)|^2 for j = 0..n-1 by direct O(n*k)
    trigonometric summation; index 0 equals k^2.  Sets with equal interval
    vectors have identical magnitude sequences, which makes this an
    independent cross-check on the combinatorial routes.
    """
    n = pcs.n
    out = []
    for j in range(n):
        re = 0.0
        im = 0.0
        for p in pcs.elements:
            angle = -2.0 * math.pi * p * j / n
            re += math.cos(angle)
            im += math.sin(angle)
        out.append(re * re + im * im)
    return out
