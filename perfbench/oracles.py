"""Output oracles that do not use zrel's enumerator.

Each ``check_*`` function takes a parsed JSON document (and the invocation
key that produced it) and returns a list of problems; an empty list means
the output passed.  The checks recompute everything they compare against
from first principles:

- ``table``: ``ti_classes`` equals the Burnside count of binary bracelets
  with n beads, k of them black (rotation/reversal classes of k-subsets of
  Z_n are exactly those bracelets);
- Z-groups (``zpairs`` rows, the ``kmin`` witness) and Z-pairs (``k4``,
  ``classify``, ``scale``): each member's interval vector by a brute
  pairwise scan, members pairwise rotation/reversal inequivalent, and the
  primitive/derived classification from the gcd of the steps;
- ``verify``: every row passes (the exit code is checked by the runner).

On top of these the runner compares the sha256 of every stdout with the
digest recorded at the commit that defined the benchmark (``digests.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import accumulate, combinations
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


# ── closed forms and brute-force references ───────────────────────────────


def bracelets(n: int, k: int) -> int:
    """Binary bracelets of length n with k black beads, by Burnside's lemma.

    Sums the fixed colourings of every rotation and reflection of the n-gon
    and divides by the group order 2n.
    """
    fixed = 0
    for r in range(n):
        cycles = math.gcd(n, r)  # rotation by r: gcd(n, r) cycles of n/gcd
        length = n // cycles
        if k % length == 0:
            fixed += math.comb(cycles, k // length)
    for r in range(n):
        # reflection x -> r - x: fixed points x with 2x = r mod n, the rest
        # in 2-cycles
        ones = sum(1 for x in range(n) if (2 * x - r) % n == 0)
        twos = (n - ones) // 2
        fixed += sum(
            math.comb(ones, k - 2 * j) * math.comb(twos, j) for j in range(k // 2 + 1)
        )
    if fixed % (2 * n):
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return fixed // (2 * n)


def interval_counts(elements, n: int) -> list[int]:
    """Interval-class counts 1..n//2 over every unordered pair of elements."""
    counts = [0] * (n // 2)
    for p, q in combinations(elements, 2):
        d = abs(p - q)
        counts[min(d, n - d) - 1] += 1
    return counts


def steps_of(elements, n: int) -> list[int]:
    """Step composition of a set after transposing its least element to 0."""
    lo = min(elements)
    rooted = sorted((e - lo) % n for e in elements)
    return [b - a for a, b in zip(rooted, rooted[1:])] + [n - rooted[-1]]


def dihedral_canonical(parts) -> tuple[int, ...]:
    """Least rotation of the parts or of their reversal."""
    parts = tuple(parts)
    k = len(parts)
    candidates = []
    for seq in (parts, parts[::-1]):
        candidates.extend(seq[i:] + seq[:i] for i in range(k))
    return min(candidates)


def expand(counts) -> list[int]:
    return [ic for ic, c in enumerate(counts, start=1) for _ in range(c)]


# ── document checks ───────────────────────────────────────────────────────


def _check_set(elements, n: int, where: str) -> list[str]:
    if len(set(elements)) != len(elements) or list(elements) != sorted(elements):
        return [f"{where}: set {elements} is not strictly increasing"]
    if elements[0] < 0 or elements[-1] >= n:
        return [f"{where}: set {elements} leaves [0, {n})"]
    return []


def _check_pair(row: dict, where: str) -> list[str]:
    n = row["n"]
    s1, s2 = row["set1"], row["set2"]
    problems = _check_set(s1, n, where) + _check_set(s2, n, where)
    if problems:
        return problems
    mu = interval_counts(s1, n)
    if interval_counts(s2, n) != mu:
        problems.append(f"{where}: {s1} and {s2} have different interval vectors")
    if row["mu_counts"] != mu or row["mu_multiset"] != expand(mu):
        problems.append(f"{where}: stated interval vector is not that of {s1}")
    c1, c2 = steps_of(s1, n), steps_of(s2, n)
    if row["composition1"] != c1 or row["composition2"] != c2:
        problems.append(f"{where}: compositions do not match the sets")
    if dihedral_canonical(c1) == dihedral_canonical(c2):
        problems.append(f"{where}: {s1} and {s2} are T/I-equivalent")
    return problems + _check_classification(
        row["classification"], n, s1, s2, c1 + c2, where
    )


def _check_classification(cls: dict, n, s1, s2, parts, where: str) -> list[str]:
    g = math.gcd(*parts)
    if g == 1:
        return [] if cls == {"kind": "primitive"} else [f"{where}: pair is primitive"]
    if cls.get("kind") != "derived" or cls.get("d") != g:
        return [f"{where}: pair is derived with d={g}"]
    base = cls["base"]
    problems = []
    for mine, theirs in ((s1, base["set1"]), (s2, base["set2"])):
        lo = min(mine)
        shrunk = sorted(((e - lo) % n) // g for e in mine)
        if base["n"] != n // g or dihedral_canonical(
            steps_of(shrunk, n // g)
        ) != dihedral_canonical(steps_of(theirs, n // g)):
            problems.append(f"{where}: base pair is not the downscaled pair")
    return problems + _check_pair(base, f"{where} base")


def _check_group(row: dict, n: int, k: int, where: str) -> list[str]:
    members = row["members"]
    if len(members) < 2:
        return [f"{where}: a Z-group needs two or more members"]
    if row["n"] != n or row["k"] != k or row["mu_multiset"] != expand(row["mu_counts"]):
        return [f"{where}: header does not match n={n}, k={k}"]
    problems = []
    for m in members:
        comp, elements = m["composition"], m["set"]
        if len(comp) != k or sum(comp) != n or min(comp) < 1:
            problems.append(f"{where}: {comp} is not a composition of {n} into {k}")
            continue
        if elements != [0, *accumulate(comp[:-1])] or m["step_gcd"] != math.gcd(*comp):
            problems.append(f"{where}: member {comp} and its set disagree")
        if tuple(comp) != dihedral_canonical(comp):
            problems.append(f"{where}: {comp} is not its canonical form")
        if interval_counts(elements, n) != row["mu_counts"]:
            problems.append(f"{where}: interval vector of {elements} differs")
    canon = [dihedral_canonical(m["composition"]) for m in members]
    if len(set(canon)) != len(canon):
        problems.append(f"{where}: members are not pairwise inequivalent")
    pairs = [p["members"] for p in row["pairs"]]
    if pairs != [list(p) for p in combinations(range(len(members)), 2)]:
        problems.append(f"{where}: pair list does not cover every member pair")
    elif not problems:
        for p in row["pairs"]:
            i, j = p["members"]
            a, b = members[i], members[j]
            problems += _check_classification(
                p["classification"], n, a["set"], b["set"],
                a["composition"] + b["composition"], f"{where} pair {i}-{j}",
            )
    return problems


def check_table(doc: dict, key) -> list[str]:
    n, kmin, kmax = int(key[1]), int(key[3]), int(key[5])
    rows = doc["rows"]
    if [r["k"] for r in rows] != list(range(kmin, kmax + 1)):
        return ["table: rows do not cover kmin..kmax"]
    problems = []
    for r in rows:
        want = bracelets(n, r["k"])
        if r["n"] != n or r["ti_classes"] != want:
            problems.append(f"table k={r['k']}: ti_classes {r['ti_classes']} != {want}")
        if not 0 <= r["nonreconstructible"] <= r["multisets"] <= r["ti_classes"]:
            problems.append(f"table k={r['k']}: counts are not nested")
    return problems


def check_zpairs(doc: dict, key) -> list[str]:
    n, k = int(key[1]), int(key[2])
    rows = doc["rows"]
    problems = []
    if [r["index"] for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("zpairs: group indices are not 1..G")
    vectors = [r["mu_counts"] for r in rows]
    if vectors != sorted(vectors) or len(set(map(tuple, vectors))) != len(vectors):
        problems.append("zpairs: groups are not sorted by distinct vectors")
    for r in rows:
        problems += _check_group(r, n, k, f"zpairs group {r['index']}")
    return problems


def check_kmin(doc: dict, key) -> list[str]:
    n = int(key[1])
    (row,) = doc["rows"]
    if row["k_min"] is None:
        return [] if row["witness"] is None else ["kmin: witness without k_min"]
    if not 4 <= row["k_min"] == row["k_max_searched"] <= n // 2:
        return [f"kmin: k_min {row['k_min']} outside 4..{n // 2}"]
    return _check_group(row["witness"], n, row["k_min"], "kmin witness")


def check_pairs(doc: dict, key) -> list[str]:
    rows = doc["rows"]
    if not rows:
        return [f"{key[0]}: no pairs"]
    problems = []
    for i, row in enumerate(rows):
        problems += _check_pair(row, f"{key[0]} row {i}")
    if key[0] == "k4":
        n, a = int(key[1]), int(key[2])
        m = n // 2
        if rows[0]["set1"] != [0, a, m // 2, m + a] or rows[0]["set2"] != [0, a, a + m // 2, m]:
            problems.append("k4: members are not the closed-form pair")
    elif key[0] == "classify":
        if (rows[0]["set1"], rows[0]["set2"]) != tuple(
            sorted(int(e) for e in s.split(",")) for s in key[2:4]
        ):
            problems.append("classify: row does not hold the given sets")
    elif key[0] == "scale":
        d = int(key[2])
        if any(r["classification"].get("d") != d for r in rows):
            problems.append(f"scale: not every pair is derived with d={d}")
    return problems


def check_verify(doc: dict, key) -> list[str]:
    rows = doc["rows"]
    failed = [r["check"] for r in rows if r["status"] != "pass"]
    if not rows or failed:
        return [f"verify: failing checks {failed}" if failed else "verify: no checks"]
    return []


CHECKS = {
    "table": check_table,
    "zpairs": check_zpairs,
    "kmin": check_kmin,
    "k4": check_pairs,
    "classify": check_pairs,
    "scale": check_pairs,
    "verify": check_verify,
}


def check_output(key, stdout: bytes) -> list[str]:
    """Parse one invocation's stdout and run the oracle for its command."""
    try:
        doc = json.loads(stdout)
        if doc["command"] != key[0]:
            return [f"output is for command {doc['command']!r}, not {key[0]!r}"]
        return CHECKS[key[0]](doc, key)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{key[0]}: malformed output ({type(exc).__name__}: {exc})"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def digest_key(key) -> str:
    return " ".join(key)
