"""Smoke test of the layer benchmark, collected by ``pytest benchmarks/``.

Each workload runs once at a tiny size untraced and once traced, each
in its own child process, exactly as the benchmark runs it.  A child
reports an error when its verdict is wrong, when the durable workload's
first counterexample no longer replays to a failure, or when a seam the
workload must pass through never fired.  The metric and workload
names in ``BENCHMARK.json`` must match the harness.
"""

import json

import pytest

from benchmarks.layers.child import WORKLOADS
from benchmarks.layers.harness import (
    END_TO_END,
    MAX_RESIDUAL,
    PER_LAYER,
    ROOT,
    UNGATED,
    prepare,
    spawn,
)
from benchmarks.layers.seams import SeamError, Tracer, check_fired, layer_metrics


@pytest.fixture(scope="module", autouse=True)
def _compiled():
    prepare()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name):
    plain = spawn(name, 0, smoke=True)
    assert "error" not in plain, plain["error"]
    assert plain["setup_s"] > 0 and plain["sched_ms"]

    traced = spawn(name, 0, traced=True, smoke=True)
    assert "error" not in traced, traced["error"]
    assert layer_metrics(traced["trace"], traced["wall_s"])["residual_share"] < MAX_RESIDUAL


def test_seam_check_names_silent_layers():
    with pytest.raises(SeamError, match="substrate.runtime"):
        check_fired(Tracer(), ["substrate.runtime"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    gated = [(name, unit) for name, unit in END_TO_END if name not in UNGATED]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == gated
    reported = [(name, unit) for name, unit in END_TO_END if name in UNGATED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == reported + list(PER_LAYER)
