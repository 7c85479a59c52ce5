"""The benchmark's own rules: percentiles need a tail, warm-up is not timed,
and a missing scipy drops only the yardstick metrics.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from common import MIN_TAIL_SAMPLES, REPO_ROOT, Spans, percentile, summarize_ops
import layers
import run


def _spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("q, needed", [(90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, needed):
    assert percentile(range(needed - 1), q) is None
    value = percentile(range(needed), q)
    assert value is not None
    assert sum(1 for x in range(needed) if x > value) >= MIN_TAIL_SAMPLES


def test_median_needs_no_tail():
    assert percentile([3.0], 50) == 3.0
    assert percentile([], 50) is None


def test_summary_reports_only_supported_percentiles():
    short = summarize_ops([0.01] * 999, window_s=10.0)
    assert set(short) == {"ops_per_s", "op_p50_ms", "op_p90_ms"}
    long = summarize_ops([0.01] * 1000, window_s=10.0)
    assert "op_p99_ms" in long
    assert long["ops_per_s"] == pytest.approx(100.0)


@pytest.mark.parametrize("workload", ["sweep", "ingest"])
def test_warm_up_ops_are_not_timed(workload):
    # A zero-second run still sets up, which includes one warm-up op; no
    # op may be counted or timed.
    module = __import__(workload)
    result = module.run(seed=3, seconds=0.0, trace=False)
    assert result["attempted"] == 0
    assert result["metrics"]["ops_per_s"] == 0.0
    assert "op_p50_ms" not in result["metrics"]
    assert result["metrics"]["setup_s"] > 0.0


def test_missing_scipy_drops_only_the_yardstick(monkeypatch):
    import numpy as np

    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.spatial", None)
    points = np.random.default_rng(0).random((50, 2))
    assert layers.yardstick(points, [[0.1]], lambda dcs: None, Spans()) == {}

    spec = _spec()
    names = [m["name"] for m in spec["per_layer"]]
    kept = [n for n in names if not n.startswith("yardstick.")]
    reported = run.select_metrics(spec, dict.fromkeys(kept, 1.0), trace=True)
    assert list(reported) == kept


@pytest.mark.parametrize("trace", [False, True])
def test_an_unmeasured_metric_fails_the_run(trace):
    spec = _spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    with pytest.raises(SystemExit):
        run.select_metrics(spec, dict.fromkeys(names[1:], 1.0), trace=trace)


def test_counts_that_do_not_repeat_fail_the_check():
    calls = iter([{"distance_evals": 1}, {"distance_evals": 2}])
    assert layers.repeat_counts(lambda: next(calls)) == ({"distance_evals": 1}, False)


def test_stop_children_leaves_no_process():
    # In a child interpreter, so that no process of the test session is
    # stopped: a plain child and multiprocessing's resource tracker, which
    # ignores SIGTERM, must both be gone once stop_children returns, and
    # well before the grace period would have let SIGKILL end the tracker.
    import subprocess

    script = (
        "import subprocess, sys, time\n"
        "from multiprocessing import resource_tracker\n"
        "from common import _child_pids, stop_children\n"
        "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "resource_tracker.ensure_running()\n"
        "assert len(_child_pids()) == 2, _child_pids()\n"
        "start = time.monotonic()\n"
        "stop_children(grace_s=30.0)\n"
        "assert time.monotonic() - start < 10.0\n"
        "print(_child_pids())\n"
    )
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=bench_dir, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=bench_dir),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
