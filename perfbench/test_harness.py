"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Kept beside the benchmark, outside the package's ``tests/``, so the
package's own suite neither runs nor depends on them.  The last test runs
the traced ``validate_small_n`` workload twice (about half a minute).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Jitter  # noqa: E402

MAIN, WORKER = 1, 2


def span(id_, name, start, end, parent=None, thread=MAIN, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "run": "synthetic", "attrs": attrs}


def test_self_time_subtracts_same_thread_children_only():
    tree = [
        span("root", "a", 0.0, 10.0),
        span("c1", "b", 1.0, 4.0, "root"),
        span("c2", "b", 3.0, 6.0, "root"),  # overlaps c1: the union counts once
        span("c3", "b", 9.0, 11.0, "root"),  # runs past its parent: clipped
        span("g", "c", 2.0, 3.0, "c1"),
        span("w", "job", 2.0, 9.0, "root", WORKER),  # other thread: not subtracted
        span("x", "c", 3.0, 5.0, "w", WORKER),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx(
        {"root": 4.0, "c1": 2.0, "c2": 3.0, "c3": 2.0, "g": 1.0, "w": 5.0, "x": 2.0}
    )


def test_pool_metrics_from_worker_spans():
    tree = [
        span("p", "cli.pool", 0.0, 10.0, workers=2),
        span("j1", "cli.pool.job", 0.0, 8.0, "p", WORKER),
        span("j2", "cli.pool.job", 1.0, 9.0, "p", WORKER + 1),
        span("d1", "decoherence.decoherence_factor", 1.0, 7.0, "j1", WORKER,
             mode_samples=3_000_000_000),
        span("d2", "decoherence.decoherence_factor", 2.0, 8.0, "j2", WORKER + 1,
             mode_samples=3_000_000_000),
        span("d3", "decoherence.decoherence_factor", 10.0, 12.0),  # outside the pool
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.pool.utilization"] == pytest.approx(16.0 / 20.0)
    assert metrics["decoherence.pool_busy_share"] == pytest.approx(12.0 / 16.0)
    assert metrics["decoherence.decoherence_factor.calls"] == 3
    assert metrics["decoherence.decoherence_factor.ns_per_mode_sample"] == pytest.approx(
        1e9 * 14.0 / 6e9
    )


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics([])) | {"cli.process.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seeded_configs(tmp_path):
    for name, workload in WORKLOADS.items():
        runs = []
        for seed in (0, 7, 7):
            target = tmp_path / f"{name}-{seed}-{len(runs)}"
            target.mkdir()
            workload.make(Jitter(seed), target)
            runs.append({p.name: p.read_text() for p in target.iterdir()})
        assert runs[1] == runs[2], name
        assert runs[0] != runs[1], name
    assert Jitter(0)(0.25) == 0.25


def test_count_metrics_repeat_between_traced_runs():
    runs = [run.measure("validate_small_n", 0, 0.0, True) for _ in range(2)]
    for details, result in runs:
        assert result["correct"], details["failures"]
    first, second = (r["metrics"] for _, r in runs)
    counts = [k for k, m in first.items() if m["unit"] in ("count", "B")]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
