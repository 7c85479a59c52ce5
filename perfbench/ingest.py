"""``ingest``: writes beside reads on a streaming R-tree.

The run is a sequence of episodes that cycles through a few seeded
check-in streams.  Each episode fits a 1,500-point base into
:class:`StreamingDPC` (default R-tree), then runs 30 steps of "add 30
points, then ``quantities(dc)``"; one step is one op.  Repeating fixed
episodes keeps the op mix independent of how fast the program runs, which
an ever-growing stream would not; cycling through several streams keeps
the figures from hinging on one stream's city layout.  The workload
exercises delta ingest, compaction and the delta-aware kernels.
"""

from __future__ import annotations

import time

import numpy as np

from common import Spans, median, same_quantities, summarize_ops, vm_hwm_mb
import layers

BASE_BATCHES = 50
STEPS = 30
BATCH = 30  # points per add; the base is BASE_BATCHES * BATCH points
DC_RANGE = (0.2, 1.0)  # degrees, over a 59 x 25 degree box
STREAMS = 4
SETUP_REPEATS = 5


def _episode(seed: int, k: int):
    """Stream ``k`` of a run: its base, its batches and one cut-off per
    step, stratified over ``DC_RANGE`` so every stream reads alike."""
    from repro.datasets.checkins import simulate_checkin_stream

    stream_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    batches, _ = simulate_checkin_stream(
        n_batches=BASE_BATCHES + STEPS, batch_size=BATCH, seed=stream_seed
    )
    points = [b[0] for b in batches]
    base = np.concatenate(points[:BASE_BATCHES])
    rng = np.random.default_rng([seed, k, 1])
    lo, hi = DC_RANGE
    dcs = lo + (hi - lo) * (rng.permutation(STEPS) + rng.random(STEPS)) / STEPS
    return base, points[BASE_BATCHES:], dcs


def _stream(base):
    from repro.extras.streaming import StreamingDPC

    stream = StreamingDPC()
    stream.add(base)
    return stream


def _setup(seed: int):
    start = time.perf_counter()
    episodes = [_episode(seed, k) for k in range(STREAMS)]
    base, adds, dcs = episodes[0]
    stream = _stream(base)
    stream.add(adds[0])
    stream.quantities(dcs[0])
    return time.perf_counter() - start, episodes


def run(seed: int, seconds: float, trace: bool) -> dict:
    setups = [_setup(seed) for _ in range(1 if trace else SETUP_REPEATS)]
    setup_s = median(s[0] for s in setups)
    episodes = setups[-1][1]
    del setups
    if trace:
        return _traced(seconds, episodes)

    latencies, failed, attempted, done = [], 0, 0, 0
    first_last = {}  # stream -> (last read of its first episode, its points)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        k = done % STREAMS
        base, adds, dcs = episodes[k]
        stream = _stream(base)
        q = None
        for step in range(STEPS):
            if time.perf_counter() >= deadline:
                break
            attempted += 1
            t0 = time.perf_counter()
            try:
                stream.add(adds[step])
                q = stream.quantities(dcs[step])
            except Exception:  # an op that raises counts as failed
                failed += 1
                q = None
                continue
            latencies.append(time.perf_counter() - t0)
        else:
            # A finished episode's last read must equal its stream's first.
            done += 1
            if k not in first_last:
                first_last[k] = (q, stream.points())
            elif q is None or not same_quantities(q, first_last[k][0]):
                failed += 1
    window = time.perf_counter() - start
    peak = vm_hwm_mb()

    # ... and each stream's first last read must equal a fresh fit.
    from repro.indexes import RTreeIndex

    for k, (q, points) in first_last.items():
        fresh = RTreeIndex().fit(points).quantities(episodes[k][2][-1])
        failed += q is None or not same_quantities(q, fresh)
    metrics = {**summarize_ops(latencies, window), "setup_s": setup_s, "peak_rss_mb": peak}
    return {
        "attempted": attempted,
        "failed": failed,
        "checks_ok": bool(first_last),
        "metrics": metrics,
        "record": {"episodes": done, "ops": len(latencies)},
    }


def _episode_counts(base, adds, dcs) -> dict:
    """Probe counters and compactions of one full episode's reads."""
    stream = _stream(base)
    totals: dict = {}
    for step in range(STEPS):
        stream.add(adds[step])
        index = stream.index  # a snapshot copy with its own fresh counters
        index.quantities(dcs[step])
        for name, value in index.stats().as_dict().items():
            totals[name] = totals.get(name, 0) + value
    totals["compactions"] = stream.rebuild_count - 1
    return totals


def _traced(seconds, episodes) -> dict:
    from repro.core.quantities import DensityOrder

    spans = Spans()
    attempted = failed = done = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        base, adds, dcs = episodes[done % STREAMS]
        done += 1
        stream = _stream(base)
        for step in range(STEPS):
            if time.perf_counter() >= deadline:
                break
            try:
                with spans.span("op", op=attempted):
                    before = stream.rebuild_count
                    with spans.span("ingest.add", op=attempted) as sp:
                        stream.add(adds[step])
                    sp["compacted"] = stream.rebuild_count != before
                    index = stream.index
                    read = "ingest.read_delta" if index.has_delta else "ingest.read_base"
                    with spans.span(read, op=attempted):
                        with spans.span("engine.rho", op=attempted):
                            rho = index.rho_all(float(dcs[step]))
                        order = DensityOrder(rho)
                        with spans.span("engine.delta", op=attempted):
                            index.delta_all(order)
            except Exception:
                failed += 1
            attempted += 1

    base, adds, dcs = episodes[0]
    totals, counts_ok = layers.repeat_counts(lambda: _episode_counts(base, adds, dcs))
    compactions = totals.pop("compactions")
    stream = _stream(base)
    for batch in adds:
        stream.add(batch)
    index = stream.index
    probe = [dcs[i : i + 1] for i in range(layers.PROBE_OPS)]
    engine_rho = lambda d: index.rho_all(float(d[0]))  # noqa: E731
    metrics = {
        "engine.rho_ms": median(spans.durations_ms("engine.rho")),
        "engine.delta_ms": median(spans.durations_ms("engine.delta")),
        **layers.kernel_counts(totals, STEPS),
        "indexes.fit_ms": 1e3 * _stream(base).index.build_seconds,
        "indexes.memory_mb": index.memory_bytes() / 2**20,
        "ingest.add_ms": median(spans.durations_ms("ingest.add", compacted=False)),
        "ingest.compact_ms": median(spans.durations_ms("ingest.add", compacted=True) or [0.0]),
        "ingest.compactions": compactions,
        "ingest.read_delta_ms": median(spans.durations_ms("ingest.read_delta") or [0.0]),
        "ingest.read_base_ms": median(spans.durations_ms("ingest.read_base") or [0.0]),
        **layers.yardstick(index.points, probe, engine_rho, spans),
        "obs.overhead_share": layers.obs_overhead(
            lambda: [index.quantities(float(d[0])) for d in probe[: layers.OBS_OPS]]
        ),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "checks_ok": counts_ok,
        "metrics": metrics,
        "record": {"spans": spans.records},
    }
