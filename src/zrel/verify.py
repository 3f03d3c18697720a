"""Built-in verification suites over golden enumeration data.

Each suite recomputes a block of known results from scratch and reports one
CheckResult per check.  The Z_12 data is the classical landscape of 12-tone
set theory (23 Z-related pairs, a single all-interval tetrachord group at
k=4, a palindromic class distribution); the Z_19 data and the construction
sweeps pin down the behavior of the scaling and k=4 machinery.  A
construction that `ZPair` refuses, or an enumeration that fails its own
count check, becomes one failing result for its suite instead of an error.
"""

from __future__ import annotations

import math

from .construct import k4_pair, scale_zpair, zpairs_of
from .core import PitchClassSet, Record, check_int, dft_magnitudes, set_from_composition
from .dihedral import ti_equivalent
from .enumeration import SummaryRow, realization_table, summary, z_groups

DFT_TOLERANCE = 1e-9

# (ti_classes, multisets, nonreconstructible) by cardinality.
GOLDEN_Z12 = {
    3: (12, 12, 0),
    4: (29, 28, 1),
    5: (38, 35, 3),
    6: (50, 35, 15),
    7: (38, 35, 3),
    8: (29, 28, 1),
    9: (12, 12, 0),
}
GOLDEN_Z19 = {
    3: (30, 30, 0),
    4: (120, 120, 0),
    5: (324, 324, 0),
    6: (756, 735, 21),
    7: (1368, 1311, 57),
}
Z12_PAIR_TOTAL = 23
Z12_K4_WITNESS = ((1, 2, 4, 5), (1, 3, 2, 6))
Z19_WITNESS = ((0, 1, 2, 3, 6, 10), (0, 1, 2, 4, 5, 11))


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set(name, passed, detail)


def _table_rows(label: str, rows: list[SummaryRow], golden: dict) -> tuple[dict, list]:
    """(ti_classes, multisets, nonreconstructible) by k, and each row's golden check."""
    stats = {r.k: (r.ti_classes, r.multisets, r.nonreconstructible) for r in rows}
    checks = [
        CheckResult(f"{label} table row k={k}", got == golden[k], f"got {got}, want {golden[k]}")
        for k, got in stats.items()
    ]
    return stats, checks


def suite_z12(workers: int = 1) -> list[CheckResult]:
    stats, results = _table_rows("z12", summary(12, range(3, 10), workers), GOLDEN_Z12)

    groups = {k: z_groups(12, k, workers) for k in range(3, 10)}
    total = sum(
        math.comb(rc.realization_number, 2) for gs in groups.values() for rc in gs
    )
    results.append(
        CheckResult("z12 pair total = 23", total == Z12_PAIR_TOTAL, f"got {total}")
    )

    palindrome = all(stats[k] == stats[12 - k] for k in range(3, 10))
    results.append(CheckResult("z12 palindrome k <-> 12-k", palindrome))

    max_r = max(
        (rc.realization_number for gs in groups.values() for rc in gs), default=0
    )
    results.append(CheckResult("z12 max group size = 2", max_r == 2, f"got {max_r}"))

    groups4 = groups[4]
    witness_ok = (
        len(groups4) == 1
        and tuple(c.parts for c in groups4[0].realizations) == Z12_K4_WITNESS
        and groups4[0].mu.as_multiset() == (1, 2, 3, 4, 5, 6)
    )
    results.append(CheckResult("z12 k=4 witness group", witness_ok))

    worst = 0.0
    for gs in groups.values():
        for rc in gs:
            spectra = [dft_magnitudes(set_from_composition(c)) for c in rc.realizations]
            for other in spectra[1:]:
                worst = max(
                    worst, max(abs(x - y) for x, y in zip(spectra[0], other))
                )
    results.append(
        CheckResult(
            f"z12 dft agreement within {DFT_TOLERANCE}",
            worst <= DFT_TOLERANCE,
            f"max deviation {worst:.3e}",
        )
    )
    return results


def suite_z19(workers: int = 1) -> list[CheckResult]:
    tables = {k: realization_table(19, k, workers) for k in range(3, 8)}
    rows = [SummaryRow.of(19, k, table) for k, table in tables.items()]
    _, results = _table_rows("z19", rows, GOLDEN_Z19)

    w1 = PitchClassSet(19, Z19_WITNESS[0])
    w2 = PitchClassSet(19, Z19_WITNESS[1])
    sharing = [
        rc
        for rc in tables[6]
        if {w1, w2} <= {set_from_composition(c) for c in rc.realizations}
    ]
    witness_ok = len(sharing) == 1 and not ti_equivalent(w1, w2)
    results.append(CheckResult("z19 k=6 witness pair shares a group", witness_ok))
    return results


def suite_scaling(workers: int = 1) -> list[CheckResult]:
    # scale_zpair re-checks each scaled pair against the pairwise scan and
    # raises RuntimeError when one fails; run_suite reports that as a FAIL.
    pairs = [
        pair
        for m in range(3, 15)
        for k in range(2, min(6, m) + 1)
        for pair in zpairs_of(m, k, workers)
    ]
    results = [
        CheckResult("scaling sweep found base pairs", bool(pairs), f"{len(pairs)} pairs")
    ]
    for d in (2, 3):
        for pair in pairs:
            scale_zpair(pair, d)
        name = f"scaling d={d} preserves Z-relation over m<=14, k<=6"
        results.append(CheckResult(name, True, f"{len(pairs)} pairs checked"))
    return results


def suite_k4(workers: int = 1) -> list[CheckResult]:
    results = []
    for n in range(8, 65, 4):
        m = n // 2
        detail = ""
        for a in range(1, m // 2):
            pair = k4_pair(n, a)
            want_mu = tuple(sorted((a, m // 2 - a, m // 2, m // 2 + a, m - a, m)))
            if not (
                pair.set1.elements == (0, a, m // 2, m + a)
                and pair.set2.elements == (0, a, a + m // 2, m)
                and pair.mu.as_multiset() == want_mu
                and pair.is_primitive == (math.gcd(a, m // 2) == 1)
            ):
                detail = f"failure at a={a}"
                break
        results.append(CheckResult(f"k4 construction sweep n={n}", not detail, detail))
    return results


SUITES = {
    "z12": suite_z12,
    "z19": suite_z19,
    "scaling": suite_scaling,
    "k4": suite_k4,
}


def run_suite(name: str, workers: int = 1) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order.

    A suite that raises ValueError or RuntimeError, such as a construction
    that `ZPair` refuses or an enumeration that fails its bracelet count,
    adds one failing result named after the suite, and the others still run.
    """
    check_int("workers", workers, 1)
    if name != "all" and name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}"
        )
    results = []
    for key in SUITES if name == "all" else [name]:
        try:
            results.extend(SUITES[key](workers))
        except (ValueError, RuntimeError) as exc:
            results.append(CheckResult(f"{key} suite", False, str(exc)))
    return results
