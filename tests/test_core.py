from __future__ import annotations

import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import assume, example, given, strategies as st

from zrel import core
from zrel.core import (
    Composition,
    IntervalVector,
    PitchClassSet,
    dft_magnitudes,
    interval_multiset,
    interval_multiset_brute,
    set_from_composition,
    steps,
)
from zrel.construct import ZPair, k4_pair
from zrel.enumeration import RealizationClass, SummaryRow, realization_table
from zrel.verify import CheckResult


def brute_counts(elements, n):
    # Test-local oracle: direct pairwise circular distances.
    counts = [0] * (n // 2)
    for p, q in combinations(sorted(elements), 2):
        d = abs(p - q)
        counts[min(d, n - d) - 1] += 1
    return tuple(counts)


@st.composite
def compositions(draw):
    n = draw(st.integers(3, 32))
    k = draw(st.integers(1, n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, n]
    return Composition(n, tuple(b - a for a, b in zip(bounds, bounds[1:])))


# ── value types ────────────────────────────────────────────────────────────


def test_modulus_bounds():
    with pytest.raises(ValueError):
        PitchClassSet(2, (0,))
    with pytest.raises(ValueError):
        PitchClassSet(65536, (0,))
    assert PitchClassSet(65535, (0,)).n == 65535


def test_pitch_class_set_sorts_and_validates():
    assert PitchClassSet(12, (7, 3, 0)).elements == (0, 3, 7)
    with pytest.raises(ValueError):
        PitchClassSet(12, ())
    with pytest.raises(ValueError):
        PitchClassSet(12, (0, 0, 3))
    with pytest.raises(ValueError):
        PitchClassSet(12, (0, 12))
    with pytest.raises(ValueError):
        PitchClassSet(12, (-1, 3))


@pytest.mark.parametrize("elements", [(0, 1.5, 3), (True, 3), (0, 3.0)])
def test_pitch_class_set_refuses_non_integer_elements(elements):
    with pytest.raises(ValueError, match="pitch classes must be integers"):
        PitchClassSet(12, elements)


def test_pitch_class_set_reads_a_one_shot_iterable_once():
    assert PitchClassSet(12, (e for e in (7, 0, 4))).elements == (0, 4, 7)
    with pytest.raises(ValueError, match=r"must lie in \[0, 12\), got \(0, 12\)"):
        PitchClassSet(12, (e for e in (0, 12)))


def test_composition_validates_closure():
    with pytest.raises(ValueError):
        Composition(12, (3, 4, 4))
    with pytest.raises(ValueError):
        Composition(12, (0, 12))
    with pytest.raises(ValueError):
        Composition(12, ())


def test_interval_vector_shape():
    iv = IntervalVector(12, (1, 1, 1, 1, 1, 1))
    assert sum(iv.counts) == 6
    assert iv.as_multiset() == (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        IntervalVector(12, (1, 1, 1))
    with pytest.raises(ValueError):
        IntervalVector(12, (1, -1, 0, 0, 0, 0))


_A, _B = PitchClassSet(12, (0, 1, 3, 7)), PitchClassSet(12, (0, 1, 4, 6))
_MU = IntervalVector(12, (1, 1, 1, 1, 1, 1))
# (value, its fields by name, its repr), one for each of the seven value types.
VALUES = [
    (_A, {"n": 12, "elements": (0, 1, 3, 7)}, "PitchClassSet(n=12, elements=(0, 1, 3, 7))"),
    (
        Composition(12, (1, 2, 9)),
        {"n": 12, "parts": (1, 2, 9)},
        "Composition(n=12, parts=(1, 2, 9))",
    ),
    (_MU, {"n": 12, "counts": (1,) * 6}, "IntervalVector(n=12, counts=(1, 1, 1, 1, 1, 1))"),
    (
        RealizationClass(12, b"\x01" * 6, ((1, 2, 4, 5), (1, 3, 2, 6))),
        {"n": 12, "counts": b"\x01" * 6, "parts": ((1, 2, 4, 5), (1, 3, 2, 6))},
        r"RealizationClass(n=12, counts=b'\x01\x01\x01\x01\x01\x01', "
        "parts=((1, 2, 4, 5), (1, 3, 2, 6)))",
    ),
    (
        SummaryRow.of(12, 4, realization_table(12, 4)),
        {"n": 12, "k": 4, "ti_classes": 29, "multisets": 28, "nonreconstructible": 1},
        "SummaryRow(n=12, k=4, ti_classes=29, multisets=28, nonreconstructible=1)",
    ),
    (
        ZPair(_A, _B, _MU),
        {"set1": _A, "set2": _B, "mu": _MU, "scale": 1, "base": None},
        "ZPair(set1=PitchClassSet(n=12, elements=(0, 1, 3, 7)), "
        "set2=PitchClassSet(n=12, elements=(0, 1, 4, 6)), "
        "mu=IntervalVector(n=12, counts=(1, 1, 1, 1, 1, 1)), scale=1, base=None)",
    ),
    (
        CheckResult("z12 palindrome k <-> 12-k", True),
        {"name": "z12 palindrome k <-> 12-k", "passed": True, "detail": ""},
        "CheckResult(name='z12 palindrome k <-> 12-k', passed=True, detail='')",
    ),
]


@pytest.mark.parametrize(
    ("value", "fields", "text"), VALUES, ids=[type(v[0]).__name__ for v in VALUES]
)
def test_value_types_are_immutable_records_of_their_fields(value, fields, text):
    assert repr(value) == text
    assert {name: getattr(value, name) for name in fields} == fields
    assert hash(value) == hash(tuple(fields.values()))
    assert type(value)(**fields) == value == type(value)(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == fields
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def test_value_types_order_and_compare_only_within_one_type():
    comps = [Composition(12, (3, 9)), Composition(12, (1, 2, 9)), Composition(8, (8,))]
    want = [Composition(8, (8,)), Composition(12, (1, 2, 9)), Composition(12, (3, 9))]
    assert sorted(comps) == want and sorted(comps, reverse=True) == want[::-1]
    assert Composition(12, (1, 2, 9)) <= Composition(12, (1, 2, 9)) < Composition(12, (1, 11))
    comp, pcs = Composition(12, (1, 2, 9)), PitchClassSet(12, (1, 2, 9))
    assert (comp.n, comp.parts) == (pcs.n, pcs.elements)
    assert comp != pcs and not comp == pcs and len({comp, pcs}) == 2
    with pytest.raises(TypeError):
        comp < pcs


def test_value_types_take_keywords_and_defaults():
    pair = ZPair(set1=_A, set2=_B, mu=_MU)
    assert (pair.scale, pair.base, pair.is_primitive) == (1, None, True)
    derived = k4_pair(16, 2)
    assert ZPair(derived.set1, derived.set2, derived.mu, scale=2, base=derived.base) == derived
    assert CheckResult("x", False).detail == ""
    assert CheckResult("x", False, detail="y").detail == "y"
    row = SummaryRow(n=12, k=4, ti_classes=29, multisets=28, nonreconstructible=1)
    assert SummaryRow.of(12, 4, realization_table(12, 4)) == row


# ── steps / set_from_composition ──────────────────────────────────────────


@pytest.mark.parametrize(
    "n,elements,want",
    [
        (12, (0, 1, 3, 7), (1, 2, 4, 5)),
        (12, (0, 3, 7), (3, 4, 5)),
        (19, (0, 1, 2, 3, 6, 10), (1, 1, 1, 3, 4, 9)),
    ],
)
def test_steps_examples(n, elements, want):
    assert steps(PitchClassSet(n, elements)).parts == want


@st.composite
def pitch_class_sets(draw):
    n = draw(st.integers(3, 40))
    return PitchClassSet(n, draw(st.sets(st.integers(0, n - 1), min_size=1)))


@given(pitch_class_sets())
@example(PitchClassSet(12, (3, 6, 10)))
def test_steps_read_any_set_from_its_least_element(pcs):
    lo = pcs.elements[0]
    rooted = PitchClassSet(pcs.n, tuple((e - lo) % pcs.n for e in pcs.elements))
    assert steps(pcs) == steps(rooted)


@pytest.mark.parametrize(
    "n,parts,want",
    [
        (12, (1, 2, 4, 5), (0, 1, 3, 7)),
        (12, (12,), (0,)),
        (19, (1, 1, 2, 1, 6, 8), (0, 1, 2, 4, 5, 11)),
    ],
)
def test_set_from_composition_examples(n, parts, want):
    assert set_from_composition(Composition(n, parts)).elements == want


@given(compositions())
def test_closure_round_trip(comp):
    assert steps(set_from_composition(comp)) == comp


def test_set_from_steps_roots_a_set_at_zero():
    def rooted(n, elements):
        return set_from_composition(steps(PitchClassSet(n, elements))).elements

    assert rooted(12, (3, 6, 10)) == (0, 3, 7)
    assert rooted(12, (0, 1, 4, 6)) == (0, 1, 4, 6)
    # 0 is the least residue of {11, 0, 1}, so the set is already rooted.
    assert rooted(12, (11, 0, 1)) == (0, 1, 11)


# ── interval multisets ─────────────────────────────────────────────────────


@given(compositions())
def test_interval_counts_match_pairwise_oracle(comp):
    assume(len(comp) >= 2)
    want = interval_multiset_brute(set_from_composition(comp)).counts
    # The kernel's key packs the counts as bytes up to 255 parts.
    assert core._interval_counts(comp.parts, comp.n) == bytes(want)


def test_interval_class_table_cache_is_bounded():
    for n in range(3, 40):
        core._interval_counts((1, 1, n - 2), n)
    assert core._ic_index.cache_info().currsize <= 8


def test_interval_multiset_all_interval_tetrachord():
    mu = interval_multiset(Composition(12, (1, 2, 4, 5)))
    assert mu.as_multiset() == (1, 2, 3, 4, 5, 6)


def test_interval_multiset_triad():
    mu = interval_multiset(Composition(12, (3, 4, 5)))
    assert mu.as_multiset() == (3, 4, 5)


def test_interval_multiset_z19_coincidence():
    # Expected counts frozen from the pairwise oracle over {0,1,2,3,6,10}.
    want = brute_counts((0, 1, 2, 3, 6, 10), 19)
    assert want == (3, 2, 2, 2, 1, 1, 1, 1, 2)
    assert interval_multiset(Composition(19, (1, 1, 1, 3, 4, 9))).counts == want
    assert interval_multiset(Composition(19, (1, 1, 2, 1, 6, 8))).counts == want


def test_interval_multiset_of_one_part_is_the_zero_vector():
    # A k-set has C(k, 2) intervals, so a one-element set has none, on every route.
    for n in range(3, 21):
        zero = IntervalVector(n, (0,) * (n // 2))
        assert interval_multiset(Composition(n, (n,))) == zero
        assert interval_multiset_brute(PitchClassSet(n, (0,))) == zero
        assert realization_table(n, 1)[0].mu == zero


def test_interval_multiset_brute_examples():
    assert interval_multiset_brute(
        PitchClassSet(12, (0, 1, 3, 7))
    ).as_multiset() == (1, 2, 3, 4, 5, 6)
    assert interval_multiset_brute(PitchClassSet(12, (0, 6))).as_multiset() == (6,)
    assert interval_multiset_brute(
        PitchClassSet(19, (0, 1, 2, 4, 5, 11))
    ).counts == (3, 2, 2, 2, 1, 1, 1, 1, 2)
    assert interval_multiset_brute(PitchClassSet(12, (5,))).counts == (0,) * 6


@st.composite
def pitch_class_sets(draw):
    n = draw(st.integers(3, 64))
    elements = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
    return n, elements


@given(pitch_class_sets())
@example((64, {0, 32}))
@example((12, {0, 3, 6, 9}))
@example((3, {0, 1, 2}))
def test_interval_multiset_brute_matches_a_written_out_pairwise_count(case):
    # The even-n examples hold the n/2 class, counted once per pair.
    n, elements = case
    got = interval_multiset_brute(PitchClassSet(n, tuple(elements)))
    assert got.counts == brute_counts(elements, n)


def test_oracle_equivalence_small_exhaustive():
    # Additivity-rule route equals the pairwise route for every subset.
    for n in range(3, 11):
        for k in range(2, min(6, n) + 1):
            for elements in combinations(range(n), k):
                pcs = PitchClassSet(n, elements)
                via_steps = interval_multiset(steps(pcs))
                assert via_steps == interval_multiset_brute(pcs)


def test_interval_counts_total():
    for n in range(3, 10):
        for k in range(2, n + 1):
            for elements in combinations(range(n), k):
                mu = interval_multiset_brute(PitchClassSet(n, elements))
                assert sum(mu.counts) == k * (k - 1) // 2


def test_ti_invariance_of_interval_content():
    # Transpositions and inversions never change the interval multiset.
    for n in range(3, 10):
        for k in range(2, min(4, n) + 1):
            for elements in combinations(range(n), k):
                mu = brute_counts(elements, n)
                for s in range(n):
                    transposed = [(p + s) % n for p in elements]
                    inverted = [(s - p) % n for p in elements]
                    assert brute_counts(transposed, n) == mu
                    assert brute_counts(inverted, n) == mu


# ── dft_magnitudes ─────────────────────────────────────────────────────────


def test_dft_tritone_alternates():
    mags = dft_magnitudes(PitchClassSet(12, (0, 6)))
    for j, m in enumerate(mags):
        assert m == pytest.approx(4.0 if j % 2 == 0 else 0.0, abs=1e-12)


def test_dft_singleton_all_ones():
    assert dft_magnitudes(PitchClassSet(7, (3,))) == pytest.approx([1.0] * 7)


def test_dft_index_zero_is_k_squared():
    mags = dft_magnitudes(PitchClassSet(12, (0, 1, 4, 6)))
    assert mags[0] == pytest.approx(16.0, abs=1e-12)


def test_dft_agrees_for_z_related_sets():
    a = dft_magnitudes(PitchClassSet(12, (0, 1, 3, 7)))
    b = dft_magnitudes(PitchClassSet(12, (0, 1, 4, 6)))
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_dft_matches_interval_content_partition():
    # Equal interval vectors <=> equal magnitude spectra, exhaustively.
    for n in range(3, 13):
        for k in range(2, min(5, n) + 1):
            by_mu = {}
            for elements in combinations(range(n), k):
                pcs = PitchClassSet(n, elements)
                by_mu.setdefault(interval_multiset_brute(pcs).counts, []).append(
                    dft_magnitudes(pcs)
                )
            reps = []
            for spectra in by_mu.values():
                first = spectra[0]
                for other in spectra[1:]:
                    assert max(abs(x - y) for x, y in zip(first, other)) < 1e-9
                reps.append(first)
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert (
                        max(abs(x - y) for x, y in zip(reps[i], reps[j])) > 1e-6
                    )
