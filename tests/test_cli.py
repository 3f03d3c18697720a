from __future__ import annotations

import argparse
import csv
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from zrel import cli, enumeration
from zrel.construct import classify_pair
from zrel.core import PitchClassSet

GOLDEN_Z12 = [
    (3, 12, 12, 0),
    (4, 29, 28, 1),
    (5, 38, 35, 3),
    (6, 50, 35, 15),
    (7, 38, 35, 3),
    (8, 29, 28, 1),
    (9, 12, 12, 0),
]


# ── table ──────────────────────────────────────────────────────────────────


def test_table_text_matches_golden_numbers(run_cli):
    code, out, _ = run_cli("table", 12, "--kmin", 3, "--kmax", 9, "--threads", 1)
    assert code == 0
    lines = out.strip().splitlines()
    body = [line.split() for line in lines[2:]]
    assert [tuple(int(x) for x in row) for row in body] == [
        (k, a, b, c) for k, a, b, c in GOLDEN_Z12
    ]


def test_table_json_content_and_round_trip(run_cli):
    code, out, _ = run_cli(
        "table", 12, "--kmin", 3, "--kmax", 9, "--format", "json", "--threads", 1
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "table"
    assert doc["parameters"] == {"n": 12, "kmin": 3, "kmax": 9}
    assert [
        (r["k"], r["ti_classes"], r["multisets"], r["nonreconstructible"])
        for r in doc["rows"]
    ] == GOLDEN_Z12
    assert json.dumps(doc, indent=2) + "\n" == out


def test_table_csv_content_and_round_trip(run_cli):
    code, out, _ = run_cli(
        "table", 12, "--kmin", 3, "--kmax", 9, "--format", "csv", "--threads", 1
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "ti_classes", "multisets", "nonreconstructible"]
    assert [tuple(int(x) for x in row[1:]) for row in rows[1:]] == GOLDEN_Z12
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == out


def test_table_defaults_and_dyads(run_cli):
    code, out, _ = run_cli(
        "table", 12, "--kmin", 2, "--kmax", 2, "--format", "json", "--threads", 1
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [
        {"n": 12, "k": 2, "ti_classes": 6, "multisets": 6, "nonreconstructible": 0}
    ]


def test_table_usage_errors(run_cli):
    code, _, err = run_cli("table", 12, "--kmin", 1, "--kmax", 3)
    assert code == 2 and "kmin" in err
    code, _, err = run_cli("table", 12, "--kmin", 5, "--kmax", 3)
    assert code == 2
    code, _, err = run_cli("table", 2)
    assert code == 2


@pytest.mark.parametrize(
    ("argv", "ks"), [(("table", 3), [2]), (("table", 12, "--kmin", 8), [8])]
)
def test_table_kmax_defaults_to_at_least_kmin(run_cli, argv, ks):
    code, out, err = run_cli(*argv, "--format", "json")
    assert (code, err) == (0, "")
    assert [row["k"] for row in json.loads(out)["rows"]] == ks


def test_table_budget_refusal(run_cli):
    code, _, err = run_cli("table", 100, "--kmin", 40, "--kmax", 50)
    assert code == 3
    assert "budget" in err


def test_table_refuses_an_oversized_grouping_store(run_cli, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated despite the budget")

    monkeypatch.setattr(enumeration, "_run_tasks", refuse)
    monkeypatch.setattr(enumeration, "_interval_counts", refuse)  # k <= 2 runs no task
    code, out, err = run_cli("table", 65535, "--kmin", 2, "--kmax", 2)
    assert (code, out) == (3, "")
    assert "vector keys" in err


def test_unknown_command_exits_2(run_cli):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", 12)
    assert exc.value.code == 2


def test_bad_threads_rejected(run_cli):
    code, _, _ = run_cli("table", 12, "--threads", 0)
    assert code == 2


@pytest.mark.parametrize(
    "argv", [("k4", 12, 1), ("classify", 12, "0,1,3,7", "0,1,4,6")]
)
def test_bad_threads_get_the_library_refusal(run_cli, argv):
    code, out, err = run_cli(*argv, "--threads", 0)
    assert (code, out) == (2, "")
    assert err == "error: workers must be an integer >= 1, got 0\n"


def test_threads_default_to_one_worker():
    assert cli.build_parser().parse_args(["table", "12"]).threads == 1


# ── zpairs ─────────────────────────────────────────────────────────────────


def test_zpairs_z12_k4(run_cli):
    code, out, _ = run_cli("zpairs", 12, 4, "--format", "json", "--threads", 1)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    group = rows[0]
    assert group["mu_multiset"] == [1, 2, 3, 4, 5, 6]
    assert [m["set"] for m in group["members"]] == [[0, 1, 3, 7], [0, 1, 4, 6]]
    assert [m["composition"] for m in group["members"]] == [
        [1, 2, 4, 5],
        [1, 3, 2, 6],
    ]
    assert group["pairs"] == [
        {"members": [0, 1], "classification": {"kind": "primitive"}}
    ]


def test_zpairs_rows_number_every_pair_of_a_larger_group(run_cli):
    code, out, _ = run_cli("zpairs", 16, 6, "--format", "json", "--threads", 1)
    assert code == 0
    groups = [g for g in json.loads(out)["rows"] if len(g["members"]) == 3]
    assert len(groups) == 3
    for group in groups:
        assert [p["members"] for p in group["pairs"]] == [[0, 1], [0, 2], [1, 2]]
        sets = [PitchClassSet(16, tuple(m["set"])) for m in group["members"]]
        for pair in group["pairs"]:
            i, j = pair["members"]
            want = cli._classification_row(classify_pair(sets[i], sets[j]))
            assert pair["classification"] == want


def test_zpairs_text_shows_sets(run_cli):
    code, out, _ = run_cli("zpairs", 12, 4, "--threads", 1)
    assert code == 0
    assert "{0,1,3,7}" in out and "{0,1,4,6}" in out and "primitive" in out


def test_zpairs_empty_is_success(run_cli):
    code, out, _ = run_cli("zpairs", 19, 4, "--format", "json", "--threads", 1)
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_zpairs_z19_k6(run_cli):
    code, out, _ = run_cli("zpairs", 19, 6, "--format", "json", "--threads", 1)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 21
    member_sets = {tuple(m["set"]) for r in rows for m in r["members"]}
    assert (0, 1, 2, 3, 6, 10) in member_sets
    assert (0, 1, 2, 4, 5, 11) in member_sets


def test_zpairs_csv_one_record_per_member(run_cli):
    code, out, _ = run_cli("zpairs", 12, 5, "--format", "csv", "--threads", 1)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    # three groups at (12, 5), two members each
    assert len(rows) == 1 + 6
    assert rows[0][:4] == ["n", "k", "group", "member"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == out


# ── kmin ───────────────────────────────────────────────────────────────────


def test_kmin_z12(run_cli):
    code, out, _ = run_cli("kmin", 12, "--format", "json", "--threads", 1)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["k_min"] == 4
    assert row["witness"]["members"][0]["set"] == [0, 1, 3, 7]


def test_kmin_z10_text(run_cli):
    code, out, _ = run_cli("kmin", 10, "--threads", 1)
    assert code == 0
    assert "k_min(10) = 5" in out


def test_kmin_z19(run_cli):
    code, out, _ = run_cli("kmin", 19, "--threads", 1)
    assert code == 0
    assert "k_min(19) = 6" in out


def test_kmin_none_up_to_bound(run_cli):
    code, out, _ = run_cli("kmin", 10, "--kmax", 4, "--threads", 1)
    assert code == 0
    assert "none up to k=4" in out


@pytest.mark.parametrize("kmax", [0, -5])
def test_kmin_rejects_kmax_below_one(run_cli, kmax):
    code, out, err = run_cli("kmin", 12, "--kmax", kmax, "--threads", 1)
    assert (code, out) == (2, "")
    assert err == f"error: kmax must be an integer in [1, 12], got {kmax}\n"


def test_kmin_budget_refusal(run_cli):
    code, _, err = run_cli("kmin", 65535)
    assert code == 3 and "budget" in err


# ── k4 / scale / classify ─────────────────────────────────────────────────


def test_k4_command(run_cli):
    code, out, _ = run_cli("k4", 12, 1, "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["set1"] == [0, 1, 3, 7] and row["set2"] == [0, 1, 4, 6]
    assert row["classification"] == {"kind": "primitive"}


def test_k4_rejects_bad_modulus(run_cli):
    code, _, err = run_cli("k4", 14, 1)
    assert code == 2 and "divisible by 4" in err


def test_scale_command_z26(run_cli):
    code, out, _ = run_cli("scale", 13, 2, 4, "--format", "json", "--threads", 1)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 26
    assert row["set1"] == [0, 2, 6, 18] and row["set2"] == [0, 2, 8, 12]
    cls = row["classification"]
    assert cls["kind"] == "derived" and cls["d"] == 2
    assert cls["base"]["n"] == 13
    assert cls["base"]["classification"] == {"kind": "primitive"}


def test_scale_identity_keeps_base(run_cli):
    code, out, _ = run_cli("scale", 12, 1, 4, "--format", "json", "--threads", 1)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["n"] == 12


@pytest.mark.parametrize("base_n, d, k", [(13, 6000, 3), (30000, 3, 4)])
def test_scale_checks_the_target_modulus_before_enumerating(run_cli, base_n, d, k):
    # (30000, 4) alone is over budget, so the modulus check must come first.
    want = f"error: modulus must be an integer in [3, 65535], got {base_n * d}\n"
    assert run_cli("scale", base_n, d, k) == (2, "", want)


def test_classify_command(run_cli):
    code, out, _ = run_cli("classify", 12, "0,1,3,7", "0,1,4,6")
    assert code == 0
    assert "classification: primitive" in out


def test_classify_derived_text_provenance(run_cli):
    code, out, _ = run_cli("classify", 24, "0,2,6,14", "0,2,8,12")
    assert code == 0
    assert "derived d=2 from Z12 {0,1,3,7}/{0,1,4,6} [primitive]" in out


def test_classify_rejects_non_z_related(run_cli):
    code, _, err = run_cli("classify", 12, "0,1,3,7", "1,2,4,8")
    assert code == 2 and "not Z-related" in err
    # One-element sets share the zero vector, and are T-equivalent.
    code, out, err = run_cli("classify", 12, "0", "1")
    assert (code, out) == (2, "")
    assert err == "error: not Z-related: (0,) and (1,) are T/I-equivalent\n"


def test_classify_rejects_malformed_set(run_cli):
    # Only ASCII decimal tokens are read: int() alone would take "1_1" as 11.
    for text in ("0,1,x", "0,1_1", "0, 1", " 1", "0,+1", "0,\u0663", "0,-1", "0,", ""):
        code, out, err = run_cli("classify", 12, text, "0,1")
        assert (code, out) == (2, ""), text
        message = f"sets are comma-separated residues without whitespace, got {text!r}"
        assert err == f"error: {message}\n"


# ── verify ─────────────────────────────────────────────────────────────────


def test_verify_z19_passes(run_cli):
    code, out, _ = run_cli("verify", "z19", "--threads", 1)
    assert code == 0
    assert "FAIL" not in out
    assert "6/6 checks passed" in out


def test_verify_json_rows(run_cli):
    code, out, _ = run_cli("verify", "k4", "--format", "json", "--threads", 1)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 15
    assert all(r["status"] == "pass" for r in rows)


def test_verify_z12_passes(run_cli):
    code, out, _ = run_cli("verify", "z12", "--threads", 1)
    assert code == 0
    assert "PASS z12 pair total = 23" in out
    assert "PASS z12 palindrome" in out
    assert "12/12 checks passed" in out


def test_verify_all_passes(run_cli):
    code, out, _ = run_cli("verify", "all", "--threads", 1)
    assert code == 0
    assert "36/36 checks passed" in out


def test_verify_z19_enumerates_each_cardinality_once(run_cli, monkeypatch):
    from zrel import enumeration, verify

    calls = []
    table = enumeration.realization_table

    def counted(n, k, workers=1):
        calls.append((n, k))
        return table(n, k, workers)

    for module in (enumeration, verify):
        monkeypatch.setattr(module, "realization_table", counted)
    code, out, _ = run_cli("verify", "z19", "--threads", 1)
    assert code == 0
    assert "6/6 checks passed" in out
    assert calls == [(19, k) for k in range(3, 8)]


def test_verify_failure_sets_exit_code(run_cli, monkeypatch):
    from zrel import cli as cli_module
    from zrel.verify import CheckResult

    monkeypatch.setattr(
        cli_module,
        "run_suite",
        lambda name, workers=1: [CheckResult("stub check", False, "boom")],
    )
    code, out, _ = run_cli("verify", "z12", "--threads", 1)
    assert code == 1
    assert "FAIL stub check  (boom)" in out
    assert "0/1 checks passed" in out


def _shift_one_count(counts):
    # Move one interval-class count to the next class: same total, wrong vector.
    i = next(i for i, c in enumerate(counts) if c)
    moved = list(counts)
    moved[i] -= 1
    moved[(i + 1) % len(moved)] += 1
    return tuple(moved)


def _refuse_scaled_vectors(monkeypatch):
    from zrel import construct
    from zrel.core import IntervalVector

    scaled = construct._scaled_vector
    monkeypatch.setattr(
        construct,
        "_scaled_vector",
        lambda mu, d: IntervalVector(mu.n * d, _shift_one_count(scaled(mu, d).counts)),
    )


def test_verify_reports_a_refused_scaling_as_a_failed_check(run_cli, monkeypatch):
    _refuse_scaled_vectors(monkeypatch)
    code, out, err = run_cli("verify", "scaling", "--threads", 1)
    assert (code, err) == (1, "")
    assert out.startswith("FAIL scaling suite  (scaled pair failed its Z-relation check")
    assert out.endswith("0/1 checks passed\n")


def test_verify_all_runs_every_suite_past_a_failing_one(run_cli, monkeypatch):
    _refuse_scaled_vectors(monkeypatch)
    code, out, err = run_cli("verify", "all", "--threads", 1)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL scaling suite  (")
    for check in ("z12 pair total = 23", "z19 k=6 witness pair", "k4 construction sweep n=64"):
        assert any(line.startswith(f"PASS {check}") for line in lines)
    assert lines[-1] == "33/34 checks passed"


def test_verify_reports_a_refused_k4_pair_as_a_failed_check(run_cli, monkeypatch):
    from zrel import core

    counts = core._interval_counts
    monkeypatch.setattr(
        core, "_interval_counts", lambda parts, n: _shift_one_count(counts(parts, n))
    )
    code, out, err = run_cli("verify", "k4", "--threads", 1)
    assert (code, err) == (1, "")
    assert out == (
        "FAIL k4 suite  (stated interval vector does not match the members)\n"
        "0/1 checks passed\n"
    )


def test_verify_reports_a_failed_class_count_as_a_failed_check(run_cli, monkeypatch):
    from zrel import enumeration

    run_tasks = enumeration._run_tasks

    def drop_one_class(tasks, workers):
        results = run_tasks(tasks, workers)
        found = results[0]
        first = next(iter(found))
        found[first] = found[first][1:]
        return results

    monkeypatch.setattr(enumeration, "_run_tasks", drop_one_class)
    code, out, err = run_cli("verify", "z12", "--format", "json", "--threads", 1)
    assert (code, err) == (1, "")
    [row] = json.loads(out)["rows"]
    assert (row["check"], row["status"]) == ("z12 suite", "fail")
    assert "bracelet count is 29" in row["detail"]


def test_verify_rejects_unknown_suite(run_cli):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "nonsense")
    assert exc.value.code == 2


# ── JSON rendering ─────────────────────────────────────────────────────────


def _document(*argv):
    args = cli.build_parser().parse_args([str(a) for a in argv])
    doc, _ = cli.COMMANDS[args.command](args)
    return doc


@pytest.mark.parametrize(
    "argv",
    [
        ("table", 12, "--kmin", 3, "--kmax", 9),
        ("zpairs", 16, 6),  # groups with R = 3
        ("zpairs", 12, 3),  # no rows: no Z-pair at k = 3
        ("scale", 13, 2, 4),  # nested base rows
        ("kmin", 12),
        ("kmin", 10, "--kmax", 4),  # a null witness
        ("k4", 24, 2),
        ("classify", 19, "0,1,2,3,6,10", "0,1,2,4,5,11"),
        ("verify", "all"),
    ],
)
def test_json_render_is_the_stdlib_indented_dump(argv):
    doc = _document(*argv)
    assert cli.render(doc, "json") == json.dumps(doc, indent=2) + "\n"


def test_json_render_matches_the_stdlib_on_every_value_kind():
    doc = {
        "empty": [[], {}, ""],
        "scalars": [0, -1, 2.5, 1e300, True, False, None, "a\"b\u00e9\n"],
        "tuple": (1, (2, 3), {"x": ()}),
        "flat": {"n": 1, "s": "t", "f": 0.1},
        "mixed": [1, [2], {"k": [None]}],
    }
    assert cli.render(doc, "json") == json.dumps(doc, indent=2) + "\n"
    with pytest.raises(TypeError):
        cli.render({1: [2]}, "json")


def test_json_render_peak_memory_stays_near_the_output_size():
    # json.dumps(indent=2) keeps every token in a list: 6.8x the output.
    doc = _document("zpairs", 30, 6)
    tracemalloc.start()
    try:
        out = cli.render(doc, "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) > 500_000
    assert peak <= 3.5 * len(out)


# ── determinism ────────────────────────────────────────────────────────────


def test_json_output_independent_of_threads(run_cli):
    outputs = {
        run_cli(
            "table", 12, "--kmin", 3, "--kmax", 6, "--format", "json",
            "--threads", t,
        )[1]
        for t in (1, 2, 4)
    }
    assert len(outputs) == 1


# ── text and CSV snapshots ─────────────────────────────────────────────────

GOLDEN = Path(__file__).parent / "golden"

SNAPSHOTS = {
    "table-12": ("table", 12, "--kmin", 3, "--kmax", 9),
    "zpairs-12-4": ("zpairs", 12, 4),
    "kmin-10": ("kmin", 10),
    "kmin-10-kmax-4": ("kmin", 10, "--kmax", 4),
    "scale-13-2-4": ("scale", 13, 2, 4),
    "scale-12-1-3": ("scale", 12, 1, 3),
    "classify-24": ("classify", 24, "0,2,6,14", "0,2,8,12"),
    "k4-24-5": ("k4", 24, 5),
    "verify-k4": ("verify", "k4"),
    "verify-all": ("verify", "all"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("name", SNAPSHOTS)
def test_output_matches_snapshot(run_cli, name, fmt, threads):
    code, out, err = run_cli(*SNAPSHOTS[name], "--format", fmt, "--threads", threads)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_text()


def test_every_command_has_one_builder_and_one_renderer():
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) == set(cli.COMMANDS) == set(cli.RENDERERS)
