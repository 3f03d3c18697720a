"""Tests of the benchmark itself: workload generation and the output oracles.

The fixtures are CLI outputs captured at ``--threads 1``; each corruption
below must be caught by the oracle for its command, and the unmodified
captures must pass.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads
from run import Proc, Runner

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

KEYS = {
    "table-12": ("table", "12", "--kmin", "3", "--kmax", "9", "--format", "json"),
    "zpairs-12-6": ("zpairs", "12", "6", "--format", "json"),
    "kmin-12": ("kmin", "12", "--format", "json"),
    "k4-24-2": ("k4", "24", "2", "--format", "json"),
    "classify-19": ("classify", "19", "0,1,2,3,6,10", "0,1,2,4,5,11", "--format", "json"),
    "scale-13-2-4": ("scale", "13", "2", "4", "--format", "json"),
    "verify-all": ("verify", "all", "--format", "json"),
}


def _load(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _bump_ti_classes(doc):
    doc["rows"][1]["ti_classes"] += 1


def _shift_set_element(doc):
    member = doc["rows"][0]["members"][1]
    member["set"][-1] -= 1


def _move_interval_count(doc):
    counts = doc["rows"][0]["mu_counts"]
    counts[0] += 1
    counts[1] -= 1


def _duplicate_member(doc):
    members = doc["rows"][0]["members"]
    members[1] = copy.deepcopy(members[0])


def _flip_group_classification(doc):
    doc["rows"][0]["pairs"][0]["classification"] = {"kind": "derived", "d": 2, "base": {}}


def _rotate_witness(doc):
    member = doc["rows"][0]["witness"]["members"][0]
    member["composition"] = member["composition"][1:] + member["composition"][:1]


def _wrong_scale(doc):
    doc["rows"][0]["classification"]["d"] = 3


def _equivalent_second_set(doc):
    row = doc["rows"][0]
    n = row["n"]
    row["set2"] = sorted((e + 3) % n for e in row["set1"])
    row["composition2"] = oracles.steps_of(row["set2"], n)


def _perturb_scaled_member(doc):
    doc["rows"][0]["set2"][1] += 1


def _fail_a_check(doc):
    doc["rows"][3]["status"] = "fail"


CORRUPTIONS = [
    ("table-12", _bump_ti_classes),
    ("zpairs-12-6", _shift_set_element),
    ("zpairs-12-6", _move_interval_count),
    ("zpairs-12-6", _duplicate_member),
    ("zpairs-12-6", _flip_group_classification),
    ("kmin-12", _rotate_witness),
    ("k4-24-2", _wrong_scale),
    ("classify-19", _equivalent_second_set),
    ("scale-13-2-4", _perturb_scaled_member),
    ("verify-all", _fail_a_check),
]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_generation_is_deterministic_and_recorded(workload):
    digests = oracles.load_digests()
    for seed in range(20):
        invs = workloads.invocations(workload, seed)
        assert invs == workloads.invocations(workload, seed)
        assert all(oracles.digest_key(inv.key) in digests for inv in invs)
        assert all(1 <= inv.threads <= 2 for inv in invs)


def test_seed_changes_small_batch_inputs():
    runs = {tuple(workloads.invocations("small-batch", seed)) for seed in range(5)}
    assert len(runs) == 5
    assert all(len(run) == 40 for run in runs)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_captured_outputs_pass(name):
    assert oracles.check_output(KEYS[name], (FIXTURES / f"{name}.json").read_bytes()) == []


@pytest.mark.parametrize(
    "name, corrupt", CORRUPTIONS, ids=[f"{n}-{c.__name__[1:]}" for n, c in CORRUPTIONS]
)
def test_oracle_rejects_corrupted_output(name, corrupt):
    doc = _load(name)
    corrupt(doc)
    assert oracles.check_output(KEYS[name], json.dumps(doc).encode()) != []


def test_malformed_output_is_rejected():
    text = (FIXTURES / "zpairs-12-6.json").read_bytes()
    assert oracles.check_output(KEYS["zpairs-12-6"], text[: len(text) // 2]) != []


def test_digest_mismatch_is_rejected():
    runner = Runner(0.0, oracles.load_digests())
    inv = workloads.Invocation(KEYS["k4-24-2"], 2)
    stdout = (FIXTURES / "k4-24-2.json").read_bytes()
    assert runner.check(inv, Proc(0.1, 0.1, 1.0, 0, stdout, b"")) == []
    problems = runner.check(inv, Proc(0.1, 0.1, 1.0, 0, stdout + b" ", b""))
    assert problems and "sha256" in problems[0]
    assert runner.check(inv, Proc(0.1, 0.1, 1.0, 1, stdout, b"")) != []


def _traced(*argv: str) -> tuple[bytes, dict]:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), "run", *argv],
        capture_output=True, env=env, check=True, timeout=120,
    )
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_traced_run_keeps_output_and_sees_every_importing_module():
    stdout, record = _traced("zpairs", "12", "6", "--format", "json", "--threads", "1")
    assert stdout == (FIXTURES / "zpairs-12-6.json").read_bytes()
    assert record["absent"] == {}
    spans = record["spans"]
    parents = {(name, spans[p][0] if p is not None else None) for name, p, *_ in spans}
    # cli.z_groups and construct.classify_pair are `from . import` copies.
    assert ("enumeration.z_groups", "cli.command") in parents
    assert ("enumeration.realization_table", "enumeration.z_groups") in parents
    assert ("construct.classify_pair", "cli.command") in parents
    assert record["counts"]["zpair_inits"] > 0

    _, record = _traced("verify", "z12", "--format", "json", "--threads", "2")
    parents = {(name, record["spans"][p][0] if p is not None else None)
               for name, p, *_ in record["spans"]}
    assert ("verify.z12", "cli.command") in parents  # patched in verify.SUITES
    assert ("enumeration.summary", "verify.z12") in parents
    assert ("enumeration.z_groups", "verify.z12") in parents
    assert record["counts"]["pools"] > 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_bracelet_count_matches_closed_forms():
    # Necklace/bracelet counts from the literature: all 3-subsets of Z_12
    # up to T/I (12), hexachords (50), and Z_19 heptachords (1368).
    assert [oracles.bracelets(12, k) for k in (3, 6)] == [12, 50]
    assert oracles.bracelets(19, 7) == 1368
    assert oracles.bracelets(7, 0) == 1 and oracles.bracelets(7, 7) == 1
