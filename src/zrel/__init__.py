"""Z-relation toolkit: enumeration and construction over cyclic groups.

Detects pitch-class sets that share an interval vector without being
related by transposition or inversion, counts how many inequivalent step
compositions realize each vector, and builds Z-pairs in closed form via
scaling and the k=4 construction.
"""

from .construct import (
    ZPair,
    classify_pair,
    four_m_family,
    inherit,
    k4_pair,
    scale_set,
    scale_zpair,
    zpairs_of,
)
from .core import (
    MAX_MODULUS,
    Composition,
    IntervalVector,
    PitchClassSet,
    check_modulus,
    dft_magnitudes,
    interval_class,
    interval_multiset,
    interval_multiset_brute,
    normalize_to_zero,
    set_from_composition,
    steps,
)
from .dihedral import (
    canonical,
    equivalent,
    is_canonical,
    rotations_and_reversals,
    ti_equivalent,
)
from .enumeration import (
    BudgetExceededError,
    RealizationClass,
    SummaryRow,
    composition_count,
    enumerate_classes,
    enumerate_compositions,
    k_min,
    realization_table,
    summary,
    z_groups,
    z_pair_count,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Composition",
    "IntervalVector",
    "MAX_MODULUS",
    "PitchClassSet",
    "RealizationClass",
    "SummaryRow",
    "ZPair",
    "canonical",
    "check_modulus",
    "classify_pair",
    "composition_count",
    "dft_magnitudes",
    "enumerate_classes",
    "enumerate_compositions",
    "equivalent",
    "four_m_family",
    "inherit",
    "interval_class",
    "interval_multiset",
    "interval_multiset_brute",
    "is_canonical",
    "k4_pair",
    "k_min",
    "normalize_to_zero",
    "realization_table",
    "rotations_and_reversals",
    "scale_set",
    "scale_zpair",
    "set_from_composition",
    "steps",
    "summary",
    "ti_equivalent",
    "z_groups",
    "z_pair_count",
    "zpairs_of",
]
