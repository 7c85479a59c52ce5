"""Shared pieces of the benchmark: percentile rules, spans, memory, records.

Nothing here imports the ``repro`` package; the workload modules do.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

#: Fewest samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")


def percentile(samples: Iterable[float], q: int) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it.

    With nearest rank ``k = ceil(q·n/100)`` the samples beyond the
    percentile are the ``n - k`` above rank ``k``: p90 needs 100 samples,
    p99 needs 1,000.  The median (``q=50``) is reported from one sample on.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None
    k = max(1, -(-q * n // 100))
    if q > 50 and n - k < MIN_TAIL_SAMPLES:
        return None
    return values[k - 1]


def summarize_ops(latencies_s: List[float], window_s: float) -> Dict[str, float]:
    """Throughput and latency percentiles of the timed ops of one run.

    Only percentiles with enough samples beyond them are present;
    ``op_p99_ms`` therefore appears only from 1,000 ops on.
    """
    out = {"ops_per_s": len(latencies_s) / window_s}
    for q in (50, 90, 99):
        value = percentile(latencies_s, q)
        if value is not None:
            out[f"op_p{q}_ms"] = value * 1e3
    return out


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def same_quantities(a, b) -> bool:
    """Bit-identical (ρ, δ, μ) of two :class:`DPCQuantities`."""
    import numpy as np

    return (
        np.array_equal(a.rho, b.rho)
        and np.array_equal(a.delta, b.delta)
        and np.array_equal(a.mu, b.mu)
    )


class Spans:
    """In-memory span recorder, written out once when the run ends.

    Each span has a name, start and end (ns, ``perf_counter_ns``), the id
    of the op (request) it belongs to and its parent span's index, so a
    layer's self time can be recovered from the file.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None, **attrs) -> Iterator[dict]:
        record = {
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            **attrs,
        }
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int, op: Optional[int] = None, **attrs) -> None:
        """Record an already-timed span (e.g. from a client thread)."""
        self.records.append(
            {
                "name": name, "op": op, "parent": None,
                "start_ns": start_ns, "end_ns": end_ns, **attrs,
            }
        )

    def durations_ms(self, name: str, **match) -> List[float]:
        return [
            (r["end_ns"] - r["start_ns"]) / 1e6
            for r in self.records
            if r["name"] == name and all(r.get(k) == v for k, v in match.items())
        ]


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _child_pids() -> List[int]:
    """Children of this process, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while listed
            continue
        fields = stat[stat.rindex(")") + 2 :].split()  # after "pid (comm) "
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started, and wait for each to end.

    The serving worker pool starts multiprocessing's resource tracker,
    which ignores SIGTERM and otherwise outlives the benchmark by a moment;
    it is stopped the way multiprocessing stops it, by closing its pipe and
    waiting.  Any other child still running is sent SIGTERM, then SIGKILL
    after ``grace_s``.
    """
    import signal
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    children = _child_pids()
    for pid in children:
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in children:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def write_record(name: str, record: dict) -> str:
    """Write one run record under the benchmark's ignored work directory."""
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")
    return path
