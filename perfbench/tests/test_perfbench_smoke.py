"""Tiny-size runs of every workload, untraced and traced."""

import io
import json

import pytest

import run
import workloads as wl


@pytest.mark.parametrize("workload", ["verify", "atlas", "query"])
def test_smoke_untraced(workload):
    log = io.StringIO()
    result = run.measure(workload, 3, 0.1, False, sizes=wl.SMOKE, log=log)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_BATCHES
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {"wall_s", "op_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in metrics.values())
    assert "tail_percentile" in log.getvalue()


@pytest.mark.parametrize("workload", ["verify", "atlas", "query"])
def test_smoke_traced(workload):
    result = run.measure(workload, 3, 0.1, True, sizes=wl.SMOKE, log=io.StringIO())
    metrics = result["metrics"]
    assert result["correct"] is True
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["classes.is_valid_class.calls"]["value"] > 0
    busy = {"verify": "oracle.verify_minimal_levi", "atlas": "cli.main",
            "query": "richardson.parabolic_from_blocks"}[workload]
    assert metrics[f"{busy}.calls"]["value"] > 0
    assert metrics[f"{busy}.self_s"]["value"] > 0


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    plain = run.measure("verify", 3, 0.1, False, sizes=wl.SMOKE, log=io.StringIO())
    traced = run.measure("verify", 3, 0.1, True, sizes=wl.SMOKE, log=io.StringIO())
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for group, result in (("end_to_end", plain), ("per_layer", traced)):
        for m in spec[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _query_job(warmup):
    pool = wl.load_goldens()["pool"]
    job = run.make_job("query", 5, 0, wl.SMOKE, pool)
    job["warmup"] = job["queries"] if warmup else []
    return job


def test_query_cache_counters_leave_out_the_warm_up():
    cold = run.run_worker(_query_job(warmup=False), True, 120)
    warm = run.run_worker(_query_job(warmup=True), True, 120)
    # answering the queries cold misses the caches ...
    assert sum(c["misses"] for c in cold["caches"].values()) > 0
    # ... but after a warm-up on the same queries the counters of the timed
    # region, which the hit ratios are read from, show no misses
    for module, counters in warm["caches"].items():
        assert counters["misses"] == 0, module
    assert warm["caches"]["richardson"]["hits"] > 0
