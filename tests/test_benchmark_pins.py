"""The names the benchmark's traced run needs from the enumeration.

`perfbench/traced.py` replays `_raw_compositions`, `is_canonical_parts` and
`_interval_counts` only while they are reachable from `realization_table`,
wraps `_run_tasks` and counts pools through `enumeration.ProcessPoolExecutor`.
A refactor that takes one of them off that path prints its per-layer metric
as null; these tests show it here first.  The script is loaded as it is.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from zrel import enumeration

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_replayed_layer_is_on_the_path_from_realization_table():
    found, absent = _traced()._layer_functions()
    assert absent == {}
    assert set(found) == {"stream", "canonical", "intervals"}


def test_the_traced_run_finds_the_pool_and_the_map_phase():
    assert callable(enumeration._run_tasks)
    assert "_run_tasks" in _traced()._hot_names()
    assert isinstance(enumeration.ProcessPoolExecutor, type)
