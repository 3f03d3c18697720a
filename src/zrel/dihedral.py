"""Equivalence of compositions under cyclic rotation and reversal.

Rotating a step composition corresponds to transposing the underlying
pitch-class set; reversing it corresponds to inversion.  The orbit of a
composition under these moves is therefore exactly the T/I class of the
set it encodes, and a canonical orbit representative gives O(1) equality
testing for T/I classes.
"""

from __future__ import annotations

from .core import Composition, PitchClassSet, steps


def canonical_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least of the 2k rotations and reflections."""
    # One min over one list of all 2k slices: a generator of nested mins is slower.
    k = len(parts)
    doubled = parts + parts
    reversed_doubled = doubled[::-1]
    rotations = [doubled[i : i + k] for i in range(k)]
    return min(rotations + [reversed_doubled[i : i + k] for i in range(k)])


def is_canonical_parts(parts: tuple[int, ...]) -> bool:
    # The canonical form starts with the minimum part, so a first part above
    # the minimum is rejected by this O(k) scan alone.  Otherwise only the
    # rotations of parts and of its reversal that start at a part equal to
    # parts[0] can be smaller than parts; they are compared one at a time,
    # the reversal read backwards from each such part first, and the first
    # smaller one rejects.
    first = parts[0]
    if first != min(parts):
        return False
    k = len(parts)
    doubled = parts + parts
    reversed_doubled = doubled[::-1]
    i = 0
    while True:
        if reversed_doubled[k - 1 - i : 2 * k - 1 - i] < parts:
            return False
        try:
            i = parts.index(first, i + 1)
        except ValueError:
            return True
        if doubled[i : i + k] < parts:
            return False


def canonical(comp: Composition) -> Composition:
    """Orbit representative: the lexicographic minimum over all 2k candidates.

    Idempotent, and equal for two compositions exactly when they lie in the
    same rotation/reversal orbit.
    """
    return Composition(comp.n, canonical_parts(comp.parts))


def ti_equivalent(p1: PitchClassSet, p2: PitchClassSet) -> bool:
    """Transposition/inversion equivalence of sets, decided on their steps.

    Sets of other moduli or sizes have steps of other sums or lengths: never equal.
    """
    return canonical_parts(steps(p1).parts) == canonical_parts(steps(p2).parts)
