"""Workload generation: a workload name and a seed become CLI invocations.

An invocation is the argument tuple handed to ``zrel`` without ``--threads``
(its *key*, which also indexes the recorded stdout digests) plus the worker
count passed explicitly as ``--threads``.  The CLI default is
``os.cpu_count()``, so the benchmark never relies on it.

Every input a seed can pick comes from a finite candidate list, so the
digests of all of them can be recorded ahead of time (``record.py``).  The
seed varies only choices that leave the amount of work nearly unchanged:
run-to-run spread must stay below the benchmark's bounds across seeds, and
one step of n changes the cost of ``table n --kmin 8 --kmax 8`` by about 30%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (n, k) for table-1w: the enumeration kernel does nearly all the work
# (about 3 s at one worker on a 2-core x86 VM with Python 3.11).
TABLE_N, TABLE_K = 28, 8

# Z-group listings with thousands of groups (2,532 at (24, 8)); every group
# becomes Composition/IntervalVector objects and every pair is classified.
ZPAIRS_CASES = ((24, 8), (26, 7), (30, 6))

# small-batch: short invocations dominated by interpreter and pool start-up.
# The kmin window stops at n = 26: kmin 27 peaks at 22.6 MB against at most
# 20.9 MB for every other call here, which would make peak_rss_mb depend on
# the seed.
KMIN_WINDOW = 14
KMIN_STARTS = range(10, 14)
K4_CASES = tuple((n, a) for n in range(8, 65, 4) for a in range(1, n // 4))
K4_PICKS = 12
CLASSIFY_PICKS = 12


@dataclass(frozen=True)
class Invocation:
    key: tuple[str, ...]
    threads: int

    def argv(self) -> list[str]:
        return [*self.key, "--threads", str(self.threads)]


def _fmt(elements) -> str:
    return ",".join(str(e) for e in elements)


def _k4_sets(n: int, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m = n // 2
    return (0, a, m // 2, m + a), (0, a, a + m // 2, m)


def _classify_cases() -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    # Z-pairs built in closed form, never by enumeration: the k=4 pairs for
    # n <= 32 (primitive and derived), each also with its first member
    # inverted and its second transposed, plus the Z_19 hexachord witness.
    cases = []
    for n, a in K4_CASES:
        if n > 32:
            continue
        s1, s2 = _k4_sets(n, a)
        cases.append((n, s1, s2))
        cases.append(
            (n, tuple(sorted(-e % n for e in s1)), tuple(sorted((e + 5) % n for e in s2)))
        )
    w1, w2 = (0, 1, 2, 3, 6, 10), (0, 1, 2, 4, 5, 11)
    cases.append((19, w1, w2))
    cases.append((19, tuple(sorted((e + 7) % 19 for e in w1)), w2))
    return tuple(cases)


CLASSIFY_CASES = _classify_cases()


def _table_key(n: int, k: int) -> tuple[str, ...]:
    return ("table", str(n), "--kmin", str(k), "--kmax", str(k), "--format", "json")


def _zpairs_key(n: int, k: int) -> tuple[str, ...]:
    return ("zpairs", str(n), str(k), "--format", "json")


def _kmin_key(n: int) -> tuple[str, ...]:
    return ("kmin", str(n), "--format", "json")


def _k4_key(n: int, a: int) -> tuple[str, ...]:
    return ("k4", str(n), str(a), "--format", "json")


def _classify_key(n: int, s1, s2) -> tuple[str, ...]:
    return ("classify", str(n), _fmt(s1), _fmt(s2), "--format", "json")


VERIFY_KEY = ("verify", "all", "--format", "json")
SCALE_KEY = ("scale", "13", "2", "4", "--format", "json")


def _table(seed: int) -> list[Invocation]:
    return [Invocation(_table_key(TABLE_N, TABLE_K), 1)]


def _zpairs(seed: int) -> list[Invocation]:
    cases = list(ZPAIRS_CASES)
    random.Random(seed).shuffle(cases)
    return [Invocation(_zpairs_key(n, k), 1) for n, k in cases]


def _small_batch(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    start = rng.choice(KMIN_STARTS)
    keys = [VERIFY_KEY, SCALE_KEY]
    keys += [_kmin_key(n) for n in range(start, start + KMIN_WINDOW)]
    keys += [_k4_key(n, a) for n, a in rng.sample(K4_CASES, K4_PICKS)]
    keys += [_classify_key(*c) for c in rng.sample(CLASSIFY_CASES, CLASSIFY_PICKS)]
    rng.shuffle(keys)
    return [Invocation(key, 2) for key in keys]


WORKLOADS = {
    "table-1w": _table,
    "zpairs-json": _zpairs,
    "small-batch": _small_batch,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations one pass of the workload runs, in order."""
    return WORKLOADS[workload](seed)


def all_keys() -> list[tuple[str, ...]]:
    """Every invocation key any seed can produce, for recording digests."""
    keys = [_table_key(TABLE_N, TABLE_K)]
    keys += [_zpairs_key(n, k) for n, k in ZPAIRS_CASES]
    keys += [VERIFY_KEY, SCALE_KEY]
    keys += [_kmin_key(n) for n in range(KMIN_STARTS[0], KMIN_STARTS[-1] + KMIN_WINDOW)]
    keys += [_k4_key(n, a) for n, a in K4_CASES]
    keys += [_classify_key(*c) for c in CLASSIFY_CASES]
    return keys
