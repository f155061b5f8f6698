"""The benchmark's trace hooks still reach the package.

``perfbench/pb_bench.instrument`` wraps package functions by module and
name.  A move that takes a function out from under its hook, such as an
SGD step inlined into the training loop, leaves the wrapper on a name
nothing calls, and its metric silently reads zero.  Each workload runs
only part of the pipeline, so each declared per-layer metric must be
non-zero on at least one of the two.  The ``proc.*`` metrics are not hooks:
they read ``getrusage``, and in a process that has run other tests first a
smoke round can take no new page fault.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_per_layer_metric_is_nonzero_on_some_workload(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import pb_bench
    from pb_workloads import SMOKE

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    hooked = [name for name in declared if not name.startswith("proc.")]
    zero = {}
    for workload in ("ingest", "cnn_lstm"):
        result, record = pb_bench.run(workload, seed=5, seconds=0, trace=1,
                                      work_dir=tmp_path / workload, size=SMOKE)
        assert record["problems"] == [] and result["failed"] == 0, workload
        metrics = result["metrics"]
        assert sorted(metrics) == sorted(declared)
        zero[workload] = {name for name in hooked if metrics[name]["value"] == 0}
    always_zero = sorted(zero["ingest"] & zero["cnn_lstm"])
    assert not always_zero, f"per-layer metrics zero on both workloads: {always_zero}"
