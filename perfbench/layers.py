"""Per-layer measurements shared by the traced runs of every workload."""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from common import Spans, median

#: Seeded ops whose probe counters are reported; a fixed set, so the counts
#: do not depend on how many ops a run completed.
PROBE_OPS = 4
OBS_REPEATS = 4
OBS_OPS = 2  # probe ops timed per repeat, with repro.obs on and off


def repeat_counts(run_once: Callable[[], Dict[str, int]]) -> Tuple[Dict[str, int], bool]:
    """Run a counted piece of work twice from scratch.

    ``run_once`` builds its own fresh state and returns exact counts.  The
    counts must repeat exactly; the second value says whether they did.
    """
    first = run_once()
    second = run_once()
    return first, first == second


def kernel_counts(totals: Dict[str, int], ops: int) -> Dict[str, float]:
    """``kernel.*`` per op from an index's :class:`IndexStats` totals."""
    return {f"kernel.{name}": value / ops for name, value in totals.items()}


def yardstick(points, dcs_per_op, engine_rho: Callable, spans: Spans) -> Dict[str, float]:
    """ρ time of scipy's ``cKDTree`` for the same cut-offs, interleaved
    with the engine's ρ; empty when scipy is not installed."""
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return {}
    tree = cKDTree(points)
    for i, dcs in enumerate(dcs_per_op):
        with spans.span("yardstick.engine_rho", op=i):
            engine_rho(dcs)
        with spans.span("yardstick.ckdtree_rho", op=i):
            for dc in dcs:
                tree.query_ball_point(points, r=float(dc), return_length=True)
    ckd = median(spans.durations_ms("yardstick.ckdtree_rho"))
    return {
        "yardstick.ckdtree_rho_ms": ckd,
        "yardstick.rho_ratio": median(spans.durations_ms("yardstick.engine_rho")) / ckd,
    }


def obs_overhead(work: Callable[[], object]) -> float:
    """Relative cost of ``repro.obs`` capture on ``work``: on against off,
    interleaved in alternating order, as a share of the off median."""
    from repro.obs.runtime import enabled_scope

    times: Dict[bool, list] = {False: [], True: []}
    for r in range(OBS_REPEATS):
        for flag in (False, True) if r % 2 == 0 else (True, False):
            with enabled_scope(flag):
                start = time.perf_counter()
                work()
                times[flag].append(time.perf_counter() - start)
    return median(times[True]) / median(times[False]) - 1.0
