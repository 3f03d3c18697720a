"""Traced child process for the benchmark's per-layer run.

Two modes, both run in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``:

``traced.py run ARGS...``
    Wraps coarse zrel calls (at most thousands per invocation, never a
    per-composition function) in spans, runs ``zrel.cli.main(ARGS)`` with
    its stdout untouched, and writes one JSON line to stderr holding the
    spans (name, parent, start, end, detail), counters and the layers whose
    functions are gone.

``traced.py replay``
    Reads ``{"calls": [[n, k], ...]}`` from stdin: the ``realization_table``
    calls a traced pass made.  Replays each one's map phase by calling the
    layer functions directly (composition stream and prune, canonical
    filter, interval vectors), timing each layer per first-part task, and
    times the start-up of one two-worker process pool.  Writes one JSON
    line to stdout.

A wrapped name is replaced in every zrel module and module-level dict that
holds it (``from . import`` copies, ``cli.COMMANDS``, ``verify.SUITES``),
so a call is seen whichever module makes it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

def _module(name: str):
    """zrel.<name>, or None if a refactor removed it."""
    try:
        return importlib.import_module(f"zrel.{name}")
    except ModuleNotFoundError:
        return None


def _replace(orig, new) -> None:
    loaded = [m for n, m in list(sys.modules.items()) if n == "zrel" or n.startswith("zrel.")]
    for mod in loaded:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = new


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, detail]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: dict[str, str] = {}

    def wrap(self, module: str, attr: str, span: str, detail=None, key=None) -> None:
        """Record a span around every call of zrel.<module>.<attr>.

        ``key`` looks the function up in a module-level dict instead (the
        CLI's command table, the verify suite table).
        """
        mod = _module(module)
        holder = vars(mod) if mod else {}
        where = f"zrel.{module}.{attr}" + ("" if key is None else f"[{key!r}]")
        if key is not None:
            holder = holder.get(attr, {})
        fn = holder.get(attr if key is None else key)
        if not callable(fn):
            self.absent[span] = f"{where} no longer exists"
            return
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [span, stack[-1] if stack else None, perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if detail is not None:
                record[4] = detail(args, result)
            return result

        _replace(fn, wrapper)

    def count_pools(self) -> None:
        pool = getattr(_module("enumeration"), "ProcessPoolExecutor", None)
        if pool is None:
            self.absent["pools"] = "zrel.enumeration no longer uses ProcessPoolExecutor"
            return
        counts = self.counts
        counts["pools"] = 0

        class CountingPool(pool):
            def __init__(self, *args, **kwargs):
                counts["pools"] += 1
                super().__init__(*args, **kwargs)

        _replace(pool, CountingPool)

    def count_zpairs(self) -> None:
        zpair = getattr(_module("construct"), "ZPair", None)
        post_init = getattr(zpair, "__post_init__", None)
        if post_init is None:
            self.absent["zpair_inits"] = "zrel.construct.ZPair.__post_init__ no longer exists"
            return
        counts = self.counts
        counts["zpair_inits"] = 0

        def counted(self, *args, **kwargs):
            counts["zpair_inits"] += 1
            return post_init(self, *args, **kwargs)

        zpair.__post_init__ = counted


def _table_detail(args, result) -> dict:
    n, k = args[0], args[1]
    sizes = [rc.realization_number for rc in result]
    return {
        "n": n,
        "k": k,
        "vectors": len(sizes),
        "classes": sum(sizes),
        "z_groups": sum(1 for r in sizes if r >= 2),
    }


def _render_detail(args, result) -> dict:
    return {"bytes": len(result.encode())}


SUITE_NAMES = ("z12", "z19", "scaling", "k4")


def install(tracer: Tracer) -> None:
    cli = importlib.import_module("zrel.cli")  # imports every module the CLI uses
    tracer.wrap("enumeration", "realization_table", "enumeration.realization_table",
                detail=_table_detail)
    tracer.wrap("enumeration", "_run_tasks", "enumeration.map")
    for name in ("summary", "z_groups"):
        tracer.wrap("enumeration", name, f"enumeration.{name}")
    for name in ("classify_pair", "k4_pair", "inherit"):
        tracer.wrap("construct", name, f"construct.{name}")
    for name in SUITE_NAMES:
        tracer.wrap("verify", "SUITES", f"verify.{name}", key=name)
    commands = getattr(cli, "COMMANDS", None)
    if commands is None:
        tracer.absent["cli.command"] = "zrel.cli.COMMANDS no longer exists"
    for name in commands or ():
        tracer.wrap("cli", "COMMANDS", "cli.command", key=name)
    tracer.wrap("cli", "render", "cli.render", detail=_render_detail)
    tracer.count_pools()
    tracer.count_zpairs()


def run(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("zrel.cli")
    code = cli.main(argv)
    sys.stdout.flush()
    record = {"spans": tracer.spans, "counts": tracer.counts, "absent": tracer.absent}
    sys.stderr.write(json.dumps(record) + "\n")
    return code


# ── replay ────────────────────────────────────────────────────────────────


def _hot_names() -> set[str]:
    """Names reachable from realization_table through zrel.enumeration code."""
    enumeration = _module("enumeration")
    namespace = vars(enumeration) if enumeration else {}
    seen: set[str] = set()
    todo = ["realization_table"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = namespace.get(name)
        if getattr(fn, "__module__", None) == "zrel.enumeration":
            todo.extend(n for n in _code_names(getattr(fn, "__code__", None)) if n in namespace)
    return seen


def _code_names(code) -> set[str]:
    """Global and attribute names a code object and its nested code use."""
    if code is None:
        return set()
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


LAYER_FUNCTIONS = {
    "stream": ("enumeration", "_raw_compositions"),
    "canonical": ("dihedral", "is_canonical_parts"),
    "intervals": ("core", "_interval_counts"),
}


def _layer_functions() -> tuple[dict, dict]:
    hot = _hot_names()
    found, absent = {}, {}
    for layer, (module, attr) in LAYER_FUNCTIONS.items():
        fn = getattr(_module(module), attr, None)
        if fn is None:
            absent[layer] = f"zrel.{module}.{attr} no longer exists"
        elif attr not in hot:
            absent[layer] = (
                f"zrel.{module}.{attr} is no longer called on the path from "
                "realization_table, so replaying it would not measure the program"
            )
        else:
            found[layer] = fn
    return found, absent


def _pool_startup() -> float | None:
    pool = getattr(_module("enumeration"), "ProcessPoolExecutor", None)
    if pool is None:
        return None
    times = []
    for _ in range(5):
        start = perf_counter()
        with pool(max_workers=2) as executor:
            list(executor.map(abs, (0, 0)))
        times.append(perf_counter() - start)
    return statistics.median(times)


def replay(calls: list[list[int]]) -> dict:
    layers, absent = _layer_functions()
    out: dict = {"absent": absent, "pool_startup_s": _pool_startup()}
    if out["pool_startup_s"] is None:
        absent["pool_startup"] = "zrel.enumeration no longer uses ProcessPoolExecutor"
    if absent.keys() & LAYER_FUNCTIONS.keys():
        return out
    raw, is_canonical, counts = layers["stream"], layers["canonical"], layers["intervals"]
    stream_s = filter_s = vectors_s = 0.0
    streamed = checked = survivors = 0
    critical = total = 0.0
    for n, k in calls:
        if k < 2:
            continue
        tasks = []
        for s1 in range(1, n // k + 1):
            t0 = perf_counter()
            rests = list(raw(n - s1, k - 1))
            pruned = [(s1, *rest) for rest in rests if min(rest) >= s1]
            t1 = perf_counter()
            kept = [p for p in pruned if is_canonical(p)]
            t2 = perf_counter()
            for p in kept:
                counts(p, n)
            t3 = perf_counter()
            stream_s += t1 - t0
            filter_s += t2 - t1
            vectors_s += t3 - t2
            streamed += len(rests)
            checked += len(pruned)
            survivors += len(kept)
            tasks.append(t3 - t0)
        if tasks:
            critical += max(tasks)
            total += sum(tasks)
    out.update(
        stream_s=stream_s,
        canonical_filter_s=filter_s,
        interval_vectors_s=vectors_s,
        streamed=streamed,
        canonical_calls=checked,
        survivors=survivors,
        task_max_share=critical / total if total else None,
    )
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["run"]:
        return run(argv[1:])
    if argv == ["replay"]:
        calls = json.loads(sys.stdin.read())["calls"]
        sys.stdout.write(json.dumps(replay(calls)) + "\n")
        return 0
    sys.stderr.write("usage: traced.py run ARGS... | traced.py replay\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
