"""zrel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload table-1w --seed 1 --seconds 42 --trace 0

Runs the ``zrel`` CLI of this checkout (``src/`` on ``PYTHONPATH``; the
package need not be installed) as fresh subprocesses, one at a time, from
this single process.  Each invocation gets an explicit ``--threads``.  A
*pass* runs the workload's invocations in sequence; passes repeat until
``--seconds`` is used up (at least three).  Every stdout is checked against
the digest recorded in ``digests.json`` and against the oracles in
``oracles.py``; an invocation that exits non-zero or fails a check counts as
failed.

``--trace 0`` reports the end-to-end metrics (medians over passes):
``wall_s`` and ``cpu_s`` of a pass, ``peak_rss_mb`` of the largest
invocation, ``setup_s`` (a fresh interpreter importing ``zrel.cli`` and
calling ``build_parser()``, median over probes spread across the run) and
``ok_frac`` (1 - failed/attempted).  CPU and peak RSS come from each
invocation's own ``os.wait4`` rusage, which includes its reaped pool
workers.

``--trace 1`` reports the per-layer metrics: each round runs the pass
untraced, then traced through ``traced.py run``, then replays the pass's
``realization_table`` calls through ``traced.py replay``; values are
medians over rounds.  A metric whose zrel function is gone prints
``"value": null`` and an ``"absent"`` reason instead of a number.

The last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Without this checkout's
``src/zrel`` the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED = HERE / "traced.py"

RUN_LIMIT_S = 170.0  # every child is killed once the run has taken this long
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import zrel.cli; "
    "zrel.cli.build_parser(); print(time.perf_counter() - t)"
)
ENV_CODE = (
    "import json, sys, zrel; "
    "print(json.dumps({'zrel': zrel.__file__, 'python': sys.version.split()[0]}))"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
# The traced spans or replay parts (see traced.py) each per-layer metric is
# computed from; if one of them is gone the metric is reported absent.
RT = "enumeration.realization_table"
MAP = "enumeration.map"
REPLAY = ("stream", "canonical", "intervals")
SUITE_SPANS = ("verify.z12", "verify.z19", "verify.scaling", "verify.k4")
PER_LAYER = {
    "enumeration.realization_table_s": ("s", (RT,)),
    "enumeration.stream_s": ("s", REPLAY),
    "enumeration.streamed": ("count", REPLAY),
    "dihedral.canonical_filter_s": ("s", REPLAY),
    "dihedral.canonical_calls": ("count", REPLAY),
    "enumeration.classes": ("count", (RT,)),
    "enumeration.canonical_yield": ("ratio", (RT, *REPLAY)),
    "core.interval_vectors_s": ("s", REPLAY),
    "enumeration.map_s": ("s", (MAP,)),
    "enumeration.task_max_share": ("ratio", REPLAY),
    "enumeration.reduce_s": ("s", (RT, MAP)),
    "enumeration.vectors": ("count", (RT,)),
    "enumeration.z_groups": ("count", (RT,)),
    "enumeration.pools_started": ("count", ("pools",)),
    "enumeration.pool_startup_s": ("s", ("pool_startup",)),
    "construct.classify_calls": ("count", ("construct.classify_pair",)),
    "construct.classify_s": ("s", ("construct.classify_pair",)),
    "construct.zpair_inits": ("count", ("zpair_inits",)),
    **{f"{span}_s": ("s", (span,)) for span in SUITE_SPANS},
    "cli.command_s": ("s", ("cli.command",)),
    "cli.doc_s": ("s", ("cli.command",)),
    "cli.render_s": ("s", ("cli.render",)),
    "cli.output_bytes": ("bytes", ("cli.render",)),
    "trace.overhead_s": ("s", ()),
    "trace.replay_share": ("ratio", (RT, MAP, *REPLAY)),
}


class SetupError(Exception):
    """The checkout cannot run the code under test; no result is printed."""


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns children one at a time and checks every zrel output."""

    def __init__(self, deadline: float, digests: dict[str, str]) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.digests = digests
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, cmd: list[str], stdin: bytes = b"") -> Proc:
        """Run cmd to completion; rusage covers it and its reaped children."""
        with tempfile.TemporaryFile(dir=HERE) as fin, tempfile.TemporaryFile(
            dir=HERE
        ) as fout, tempfile.TemporaryFile(dir=HERE) as ferr:
            fin.write(stdin)
            fin.seek(0)
            start = perf_counter()
            pid = os.posix_spawn(
                cmd[0], cmd, self.env,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, fin.fileno(), 0),
                    (os.POSIX_SPAWN_DUP2, fout.fileno(), 1),
                    (os.POSIX_SPAWN_DUP2, ferr.fileno(), 2),
                ],
                setsid=True,
            )
            timer = threading.Timer(
                max(self.deadline - monotonic(), 0.0), _kill_group, (pid,)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:  # interrupted or terminated: take the child along
                _kill_group(pid)
                os.waitpid(pid, 0)
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
            _kill_group(pid)  # pool workers orphaned by a crash, if any
            fout.seek(0)
            ferr.seek(0)
            return Proc(
                wall=wall,
                cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024,
                code=os.waitstatus_to_exitcode(status),
                stdout=fout.read(),
                stderr=ferr.read(),
            )

    def zrel(self, inv: workloads.Invocation, traced: bool = False) -> Proc:
        """Run one CLI invocation, plain or traced, and check its output."""
        if traced:
            cmd = [sys.executable, str(TRACED), "run", *inv.argv()]
        else:
            cmd = [sys.executable, "-m", "zrel.cli", *inv.argv()]
        proc = self.spawn(cmd)
        self.record(" ".join(inv.argv()), self.check(inv, proc))
        return proc

    def check(self, inv: workloads.Invocation, proc: Proc) -> list[str]:
        if proc.code != 0:
            return [f"exit code {proc.code}: {proc.stderr[-500:].decode(errors='replace')}"]
        digest = oracles.sha256(proc.stdout)
        want = self.digests.get(oracles.digest_key(inv.key))
        if want is None:
            return ["no digest recorded for this invocation"]
        problems = [] if digest == want else [f"stdout sha256 {digest} != recorded {want}"]
        if (inv.key, digest) not in self.verdicts:
            self.verdicts[inv.key, digest] = oracles.check_output(inv.key, proc.stdout)
        return problems + self.verdicts[inv.key, digest]

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)[:500]}")

    def python(self, code: str) -> str:
        proc = self.spawn([sys.executable, "-c", code])
        if proc.code != 0:
            raise SetupError(proc.stderr.decode(errors="replace").strip())
        return proc.stdout.decode()

    def setup_time(self) -> float:
        return float(self.python(SETUP_CODE))


def pin_code_under_test(runner: Runner) -> dict:
    """Check that children import zrel from this checkout's src/."""
    if not (SRC / "zrel" / "__init__.py").is_file():
        raise SetupError(f"{SRC / 'zrel'} is missing; run from a full checkout")
    env = json.loads(runner.python(ENV_CODE))
    if Path(env["zrel"]).resolve().parent != (SRC / "zrel").resolve():
        raise SetupError(f"children import zrel from {env['zrel']}, not {SRC}")
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


def _keep_going(durations: list[float], started: float, seconds: float, least: int) -> bool:
    if monotonic() >= started + RUN_LIMIT_S - 5:
        return False
    if len(durations) < least:
        return True
    return monotonic() - started + statistics.median(durations) <= seconds


def measure_end_to_end(runner: Runner, invs, seconds: float, started: float):
    """End-to-end metrics, plus the per-pass samples they are medians of."""
    walls, cpus, setups, durations = [], [], [], []
    peak_rss = 0.0
    while _keep_going(durations, started, seconds, MIN_PASSES):
        begun = monotonic()
        setups += [runner.setup_time() for _ in range(SETUP_PROBES_PER_PASS)]
        procs = [runner.zrel(inv) for inv in invs]
        walls.append(sum(p.wall for p in procs))
        cpus.append(sum(p.cpu for p in procs))
        peak_rss = max(peak_rss, *(p.rss_mb for p in procs))
        durations.append(monotonic() - begun)
    setups.append(runner.setup_time())
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setups),
        "ok_frac": 1 - runner.failed / runner.attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}


# ── per-layer run ─────────────────────────────────────────────────────────


def _span_totals(records: list[dict]) -> dict:
    """Sum the traced spans of one pass into per-layer values."""
    t = dict.fromkeys(
        ["rt", "map", "reduce", "vectors", "classes", "z_groups", "classify_calls",
         "classify_s", "command", "doc", "render", "bytes", "pools", "zpair_inits"],
        0.0,
    )
    t.update(dict.fromkeys(SUITE_SPANS, 0.0))
    for record in records:
        spans = record["spans"]
        children = [0.0] * len(spans)
        map_children = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent is not None:
                children[parent] += end - start
                if name == MAP:
                    map_children[parent] += end - start
        for i, (name, parent, start, end, detail) in enumerate(spans):
            took = end - start
            if name == RT:
                t["rt"] += took
                t["reduce"] += took - map_children[i]
                for key in ("vectors", "classes", "z_groups"):
                    t[key] += detail[key]
            elif name == MAP:
                t["map"] += took
            elif name == "construct.classify_pair":
                if parent is None or spans[parent][0] != name:
                    t["classify_calls"] += 1
                    t["classify_s"] += took
            elif name in SUITE_SPANS:
                t[name] += took
            elif name == "cli.command":
                t["command"] += took
                t["doc"] += took - children[i]
            elif name == "cli.render":
                t["render"] += took
                t["bytes"] += detail["bytes"]
        t["pools"] += record["counts"].get("pools", 0)
        t["zpair_inits"] += record["counts"].get("zpair_inits", 0)
    return t


def _trace_round(runner: Runner, invs, absent: dict[str, str]) -> dict | None:
    """One untraced pass, one traced pass and a replay; None if any failed."""
    plain = [runner.zrel(inv) for inv in invs]
    traced = [runner.zrel(inv, traced=True) for inv in invs]
    records = [json.loads(p.stderr.splitlines()[-1]) for p in traced if p.code == 0]
    if len(records) < len(invs):
        return None  # the failed invocations are already counted
    for record in records:
        absent.update(record["absent"])
    totals = _span_totals(records)
    calls = [[s[4]["n"], s[4]["k"]] for r in records for s in r["spans"] if s[0] == RT]
    proc = runner.spawn(
        [sys.executable, str(TRACED), "replay"], json.dumps({"calls": calls}).encode()
    )
    if proc.code != 0:
        runner.record("replay", [f"exit code {proc.code}"])
        return None
    replay = json.loads(proc.stdout)
    absent.update(replay["absent"])
    if replay.get("survivors", totals["classes"]) != totals["classes"]:
        runner.record("replay", [
            f"replay kept {replay['survivors']} classes, traced run {totals['classes']}"
        ])
        return None
    runner.record("replay", [])
    return _layer_values(totals, replay, plain, traced)


def measure_layers(runner: Runner, invs, seconds: float, started: float) -> dict:
    rounds, durations = [], []
    absent: dict[str, str] = {}
    while _keep_going(durations, started, seconds, 1):
        begun = monotonic()
        values = _trace_round(runner, invs, absent)
        if values is not None:
            rounds.append(values)
        durations.append(monotonic() - begun)
    metrics = {}
    for name, (unit, needs) in PER_LAYER.items():
        missing = [absent[dep] for dep in needs if dep in absent]
        values = [r[name] for r in rounds if r.get(name) is not None]
        if missing or not values:
            reason = "; ".join(missing) or "no traced round completed"
            metrics[name] = {"value": None, "unit": unit, "absent": reason}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def _layer_values(t: dict, replay: dict, plain, traced) -> dict:
    values = {
        "enumeration.realization_table_s": t["rt"],
        "enumeration.classes": t["classes"],
        "enumeration.vectors": t["vectors"],
        "enumeration.z_groups": t["z_groups"],
        "enumeration.map_s": t["map"],
        "enumeration.reduce_s": t["reduce"],
        "enumeration.pools_started": t["pools"],
        "enumeration.pool_startup_s": replay["pool_startup_s"],
        "construct.classify_calls": t["classify_calls"],
        "construct.classify_s": t["classify_s"],
        "construct.zpair_inits": t["zpair_inits"],
        "cli.command_s": t["command"],
        "cli.doc_s": t["doc"],
        "cli.render_s": t["render"],
        "cli.output_bytes": t["bytes"],
        "trace.overhead_s": sum(p.wall for p in traced) - sum(p.wall for p in plain),
    }
    for name in SUITE_SPANS:
        values[f"{name}_s"] = t[name]
    if "stream_s" in replay:
        split = replay["stream_s"] + replay["canonical_filter_s"] + replay["interval_vectors_s"]
        values.update({
            "enumeration.stream_s": replay["stream_s"],
            "enumeration.streamed": replay["streamed"],
            "dihedral.canonical_filter_s": replay["canonical_filter_s"],
            "dihedral.canonical_calls": replay["canonical_calls"],
            "core.interval_vectors_s": replay["interval_vectors_s"],
            "enumeration.task_max_share": replay["task_max_share"],
            "enumeration.canonical_yield": (
                t["classes"] / replay["streamed"] if replay["streamed"] else None
            ),
            "trace.replay_share": (split + t["reduce"]) / t["rt"] if t["rt"] else None,
        })
    return values


# ── entry point ───────────────────────────────────────────────────────────


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = monotonic()
    runner = Runner(started + RUN_LIMIT_S, oracles.load_digests())
    try:
        env = pin_code_under_test(runner)
        runner.setup_time()  # compile bytecode caches before anything is timed
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    invs = workloads.invocations(args.workload, args.seed)
    if args.trace:
        metrics, samples = measure_layers(runner, invs, args.seconds, started), None
    else:
        metrics, samples = measure_end_to_end(runner, invs, args.seconds, started)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "invocations": len(invs), "samples": samples, **env,
        "failed_frac": runner.failed / max(runner.attempted, 1),
    }))
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        value = f"absent ({m['absent']})" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"{name:34s} {value}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
