"""``sweep``: multi-dc ``quantities_multi`` calls on a fitted kd-tree.

One kd-tree (serial backend) is fitted once over S1 blobs, n=3000; each op
is one ``quantities_multi`` over 3 seeded cut-offs from S1's range.  The
tree kernels do nearly all the work, and serving and deltas are bypassed.
The serial backend is used because the process backend is too unsteady to
gate on two shared CPUs.
"""

from __future__ import annotations

import time

import numpy as np

from common import Spans, median, same_quantities, summarize_ops, vm_hwm_mb
import layers

N_POINTS = 3000
DCS_PER_OP = 3
DC_RANGE = (5_000.0, 60_000.0)
SETUP_REPEATS = 5
MAX_OPS = 100_000  # seeded ops drawn per run, far more than a run completes


def _fit(seed: int):
    from repro.datasets import s1
    from repro.indexes import KDTreeIndex

    points = s1(n=N_POINTS, seed=seed).points
    return points, KDTreeIndex(backend="serial").fit(points)


def _op_dcs(seed: int, count: int) -> np.ndarray:
    """Seeded cut-offs, one from each of ``DCS_PER_OP`` equal slices of
    ``DC_RANGE`` per op: every op sweeps the range, so op costs (and the
    run's median) depend little on the seed."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = DC_RANGE
    slices = np.arange(DCS_PER_OP) + rng.random((count, DCS_PER_OP))
    return lo + (hi - lo) * slices / DCS_PER_OP


def _setup(seed: int, warm_dcs):
    start = time.perf_counter()
    points, index = _fit(seed)
    index.quantities_multi(warm_dcs)
    return time.perf_counter() - start, points, index


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.core.baseline import naive_quantities

    lo, hi = DC_RANGE
    warm_dcs = lo + (hi - lo) * (np.arange(DCS_PER_OP) + 0.5) / DCS_PER_OP
    setups = [_setup(seed, warm_dcs) for _ in range(1 if trace else SETUP_REPEATS)]
    setup_s = median(s[0] for s in setups)
    _, points, index = setups[-1]
    fit_ms = median(1e3 * s[2].build_seconds for s in setups)
    del setups

    plan = _op_dcs(seed, MAX_OPS)
    if trace:
        return _traced(seed, seconds, points, index, plan, fit_ms)

    # Ops whose (ρ, δ, μ) are compared with the naive oracle after the run.
    checked = {0, int(np.random.default_rng([seed, 2]).integers(1, 60))}

    latencies, kept, failed = [], {}, 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            qs = index.quantities_multi(plan[i])
        except Exception:  # an op that raises counts as failed
            failed += 1
        else:
            latencies.append(time.perf_counter() - t0)
            if i in checked:
                kept[i] = qs
        i += 1
    window = time.perf_counter() - start
    peak = vm_hwm_mb()

    for j, qs in kept.items():
        failed += not all(
            same_quantities(q, naive_quantities(points, dc)) for dc, q in zip(plan[j], qs)
        )
    metrics = {**summarize_ops(latencies, window), "setup_s": setup_s, "peak_rss_mb": peak}
    return {
        "attempted": i,
        "failed": failed,
        "checks_ok": len(kept) > 0,
        "metrics": metrics,
        "record": {"checked_ops": sorted(kept), "ops": len(latencies)},
    }


def _traced(seed, seconds, points, index, plan, fit_ms) -> dict:
    from repro.core.quantities import DensityOrder

    spans = Spans()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        dcs = plan[attempted]
        try:
            with spans.span("op", op=attempted):
                with spans.span("engine.rho", op=attempted):
                    rhos = index.rho_all_multi(dcs)
                orders = [DensityOrder(rho) for rho in rhos]
                with spans.span("engine.delta", op=attempted):
                    index.delta_all_multi(orders)
        except Exception:
            failed += 1
        attempted += 1

    probe = plan[: layers.PROBE_OPS]

    def counted():
        fresh = _fit(seed)[1]
        for dcs in probe:
            fresh.quantities_multi(dcs)
        return fresh.stats().as_dict()

    totals, counts_ok = layers.repeat_counts(counted)
    metrics = {
        "engine.rho_ms": median(spans.durations_ms("engine.rho")),
        "engine.delta_ms": median(spans.durations_ms("engine.delta")),
        **layers.kernel_counts(totals, len(probe)),
        "indexes.fit_ms": fit_ms,
        "indexes.memory_mb": index.memory_bytes() / 2**20,
        **layers.yardstick(points, probe, index.rho_all_multi, spans),
        "obs.overhead_share": layers.obs_overhead(
            lambda: [index.quantities_multi(dcs) for dcs in probe[: layers.OBS_OPS]]
        ),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "checks_ok": counts_ok,
        "metrics": metrics,
        "record": {"spans": spans.records},
    }
