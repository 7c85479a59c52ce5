"""``serve``: ``python -m repro serve`` driven over HTTP.

The server runs at the CLI defaults (CH index, the default front-end,
``--workers 0``, the result cache on), with only the data and port flags
plus ``--no-observability``.  The snapshot is S1 with n=2000, written to a
CSV the server reads.  Two persistent keep-alive connections send
``cluster`` requests in a closed loop: 70% hot requests over 4 fixed
cut-offs, answered from the result cache, and 30% cold requests with unique
cut-offs, which reach the engine.  The front-end and serialization set the
median; the CH engine and the coalescer set the tail.  Clients keep their
connections open so that a keep-alive stall of the front-end shows.  Each
client reopens its connection every ``REQUESTS_PER_CONNECTION`` requests:
whether that stall hits a request depends on state that lasts as long as
the connection, so a run averages over many connections rather than
resting on two.

The traced run replays the same request sequence in-process, layer by
layer, and also through a one-worker pool, which measures the worker pipe
and shared-memory image that the untraced workload bypasses.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from common import REPO_ROOT, SRC_DIR, WORK_DIR, Spans, median, summarize_ops, vm_hwm_mb
import layers

N_POINTS = 2000
DC_RANGE = (5_000.0, 60_000.0)
HOT_DCS = 4
HOT_SHARE = 0.7
CLIENTS = 2
REQUESTS_PER_CONNECTION = 10
SETUP_REPEATS = 3
EXACT_CHECKS = 4  # sampled cold ops compared with an in-process fit
HEALTHZ_PROBES = 30
REPLAY_OPS = 120  # requests replayed in-process by the traced run
BOOT_TIMEOUT_S = 120.0
_VALUE_END = b', "op": "cluster", "meta": '


class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, csv_path: str) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--input", csv_path, "--port", "0", "--no-observability",
        ]
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            cmd, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
        )
        self.startup: List[str] = []
        self.port: Optional[int] = None
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        buf = b""
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server did not start: {self.startup}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                continue
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                text = line.decode(errors="replace").strip()
                self.startup.append(text)
                if text.startswith("serving on http://"):
                    address = text.split()[2][len("http://"):]
                    self.port = int(address.rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get_json(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server plus that of its worker children."""
        workers = self.get_json("/healthz")["health"].get("workers", {}).get("workers", [])
        pids = [self.proc.pid] + [w["pid"] for w in workers if w.get("pid")]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def query(conn: http.client.HTTPConnection, dc: float) -> bytes:
    body = json.dumps({"snapshot": "default", "op": "cluster", "dc": dc})
    conn.request("POST", "/v1/query", body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    if resp.status != 200:
        raise RuntimeError(f"HTTP {resp.status}: {data[:200]!r}")
    return data


def _value_bytes(body: bytes) -> bytes:
    return body[: body.index(_VALUE_END)]


class Plan:
    """The seeded inputs of one run."""

    def __init__(self, seed: int) -> None:
        from repro.datasets import s1

        self.seed = seed
        self.points = s1(n=N_POINTS, seed=seed).points
        self.hot = np.random.default_rng([seed, 3]).uniform(*DC_RANGE, size=HOT_DCS)

    def ops(self, client: int):
        """Endless ``(hot slot or None, dc)`` sequence of one client."""
        rng = np.random.default_rng([self.seed, 4, client])
        while True:
            if rng.random() < HOT_SHARE:
                slot = int(rng.integers(HOT_DCS))
                yield slot, float(self.hot[slot])
            else:
                yield None, float(rng.uniform(*DC_RANGE))

    def write_csv(self) -> str:
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"points-{os.getpid()}.csv")
        np.savetxt(path, self.points, delimiter=",", fmt="%.17g")  # round-trips float64
        return path


def _boot(seed: int):
    """Set-up: data generation, server boot and one warm-up request per hot
    cut-off, which fills the cache and gives the reference bodies."""
    start = time.perf_counter()
    plan = Plan(seed)
    csv_path = plan.write_csv()
    try:
        server = Server(csv_path)
    finally:
        os.unlink(csv_path)  # read once, at start-up
    try:
        conn = server.connect()
        warm = {slot: _value_bytes(query(conn, float(dc))) for slot, dc in enumerate(plan.hot)}
        conn.close()
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - start, plan, server, warm


def _client_loop(
    server: Server, plan: Plan, client: int, deadline: float, stop: threading.Event, out: list
) -> None:
    """Closed loop on a keep-alive connection, reopened every
    ``REQUESTS_PER_CONNECTION`` requests, until ``deadline`` or ``stop``."""
    conn = server.connect()
    try:
        for i, (slot, dc) in enumerate(plan.ops(client)):
            if time.perf_counter() >= deadline or stop.is_set():
                break
            t0 = time.perf_counter_ns()
            if i and i % REQUESTS_PER_CONNECTION == 0:
                conn.close()
                conn = server.connect()
            try:
                body = query(conn, dc)
            except (OSError, RuntimeError, http.client.HTTPException) as exc:
                out.append((t0, time.perf_counter_ns(), slot, dc, exc))
                conn.close()
                conn = server.connect()
                continue
            out.append((t0, time.perf_counter_ns(), slot, dc, body))
    finally:
        conn.close()


def _drive(server: Server, plan: Plan, seconds: float):
    outs: List[list] = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds
    stop = threading.Event()
    threads = [
        threading.Thread(target=_client_loop, args=(server, plan, c, deadline, stop, outs[c]))
        for c in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join()
    finally:  # an interrupted run stops its clients too
        stop.set()
        for t in threads:
            t.join()
    return [op for out in outs for op in out], time.perf_counter() - start


def _matches(body: bytes, result) -> bool:
    """Is a response body bit-identical to an in-process ``DPCResult``?"""
    got = json.loads(body)
    q = result.quantities
    return (
        np.array_equal(np.asarray(got["rho"]), q.rho)
        and np.array_equal(np.asarray(got["delta"], dtype=np.float64), q.delta)
        and np.array_equal(np.asarray(got["mu"]), q.mu)
        and np.array_equal(np.asarray(got["centers"]), result.centers)
        and np.array_equal(np.asarray(got["labels"]), result.labels)
    )


def _check(ops, plan: Plan, warm: Dict, fingerprint: str) -> int:
    """Count wrong or failed ops among the timed ones."""
    failed = 0
    cold = []
    for i, (_, _, slot, dc, body) in enumerate(ops):
        if isinstance(body, Exception):
            failed += 1
        elif slot is not None:
            failed += _value_bytes(body) != warm[slot]
        else:
            got = json.loads(body)
            ok = len(got["labels"]) == N_POINTS and got["meta"]["fingerprint"] == fingerprint
            failed += not ok
            if ok:
                cold.append(i)
    # Exactness over HTTP: the warm-up bodies and a seeded sample of cold
    # bodies against an in-process fit of the same points.
    from repro.indexes import KDTreeIndex

    reference = KDTreeIndex().fit(plan.points)
    rng = np.random.default_rng([plan.seed, 5])
    sample = rng.choice(cold, size=min(EXACT_CHECKS, len(cold)), replace=False) if cold else []
    for i in sample:
        _, _, _, dc, body = ops[int(i)]
        failed += not _matches(body, reference.cluster(dc))
    for slot, value in warm.items():
        body = value + b"}"  # the value part alone is a JSON object once closed
        failed += not _matches(body, reference.cluster(float(plan.hot[slot])))
    return failed


def run(seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if setups:
                setups[-1][2].stop()
            setups.append(_boot(seed))
        setup_s = median(s[0] for s in setups)
        _, plan, server, warm = setups[-1]
        fingerprint = server.get_json("/v1/snapshots")["snapshots"][0]["fingerprint"]
        if trace:
            return _traced(seconds, plan, server, fingerprint)
        ops, window = _drive(server, plan, seconds)
        peak = server.peak_rss_mb()
    finally:
        if setups:
            setups[-1][2].stop()

    failed = _check(ops, plan, warm, fingerprint)
    latencies = [(t1 - t0) / 1e9 for t0, t1, _, _, body in ops if not isinstance(body, Exception)]
    metrics = {**summarize_ops(latencies, window), "setup_s": setup_s, "peak_rss_mb": peak}
    return {
        "attempted": len(ops),
        "failed": failed,
        "checks_ok": len(latencies) > 0,
        "metrics": metrics,
        "record": {
            "server_startup": server.startup,
            "fingerprint": fingerprint,
            "ops": len(latencies),
        },
    }


def _traced(seconds: float, plan: Plan, server: Server, fingerprint: str) -> dict:
    spans = Spans()
    conn = server.connect()
    for i in range(HEALTHZ_PROBES):
        with spans.span("frontend.healthz", op=i):
            conn.request("GET", "/healthz")
            conn.getresponse().read()
    conn.close()
    ops, _ = _drive(server, plan, seconds)
    for i, (t0, t1, slot, dc, body) in enumerate(ops):
        kind = "error" if isinstance(body, Exception) else "cold" if slot is None else "hot"
        spans.add("http.request", t0, t1, op=i, kind=kind, dc=dc)
    stats = server.get_json("/v1/stats")
    server.stop()

    replay, submit_cold, replay_failed, checks_ok = _replay(plan, spans, fingerprint)
    http_hot = spans.durations_ms("http.request", kind="hot")
    http_cold = median(spans.durations_ms("http.request", kind="cold"))
    healthz = median(spans.durations_ms("frontend.healthz"))
    serialize = replay["serialize.cluster_ms"]
    cache = stats["cache"]
    coalescer = stats["coalescer"]
    metrics = {
        **replay,
        "frontend.healthz_ms": healthz,
        "frontend.self_ms": http_cold - submit_cold - serialize,
        "cache.hit_share": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "coalescer.batch_size_mean": coalescer["requests"] / max(1, coalescer["batches"]),
        "coalescer.dedup_share": coalescer["deduped_dcs"] / max(1, coalescer["requests"]),
        "split.cold_gap_share": (http_cold - healthz - submit_cold - serialize) / http_cold,
    }
    if http_hot:
        hot = median(http_hot)
        layers_hot = healthz + replay["service.hit_ms"] + serialize
        metrics["split.hot_gap_share"] = (hot - layers_hot) / hot
    errors = sum(1 for op in ops if isinstance(op[4], Exception))
    return {
        "attempted": len(ops),
        "failed": errors + replay_failed,
        "checks_ok": checks_ok,
        "metrics": metrics,
        "record": {
            "server_startup": server.startup,
            "fingerprint": fingerprint,
            "server_stats": stats,
            "spans": spans.records,
        },
    }


def _service(points, workers: int):
    """An in-process service configured as the CLI configures it."""
    from repro.serving import ClusteringService

    service = ClusteringService(workers=workers)
    start = time.perf_counter()
    snapshot = service.fit_snapshot("default", points, index="ch")
    return service, snapshot, time.perf_counter() - start


def _replay(plan: Plan, spans: Spans, fingerprint: str):
    """Replay client 0's request sequence in-process, one layer at a time.

    Each request goes through ``ClusteringService.submit`` and
    ``serialize_value``; a cold one also through a one-worker service and
    through ``DPCIndex`` directly (ρ, δ, assignment).  Returns the layer
    metrics, the median cold submit (ms), the wrong answers and whether the
    counts repeated and the fingerprint matched the server's.
    """
    from repro.core.quantities import DensityOrder, DPCQuantities
    from repro.serving.http import serialize_value

    service, snapshot, fit_s = _service(plan.points, 0)
    pooled = _service(plan.points, 1)[0]
    index = snapshot.index
    failed = 0
    cold_dcs = []
    try:
        sequence = plan.ops(0)
        for i in range(REPLAY_OPS):
            slot, dc = next(sequence)
            kind = "cold" if slot is None else "hot"
            with spans.span("service.submit", op=i, kind=kind, workers=0):
                result = service.submit("default", "cluster", dc).result()
            with spans.span("serialize", op=i):
                payload = serialize_value(result.value)
                payload["op"] = "cluster"
                payload["meta"] = result.meta
                body = json.dumps(payload).encode()
            spans.records[-1]["bytes"] = len(body)
            if slot is not None:
                continue
            cold_dcs.append(dc)
            with spans.span("service.submit", op=i, kind=kind, workers=1):
                via_worker = pooled.submit("default", "cluster", dc).result()
            with spans.span("engine.cluster", op=i):
                with spans.span("engine.rho", op=i):
                    rho = index.rho_all(dc)
                order = DensityOrder(rho)
                with spans.span("engine.delta", op=i):
                    delta, mu = index.delta_all(order)
                q = DPCQuantities(dc=dc, rho=rho, delta=delta, mu=mu, density_order=order)
                with spans.span("engine.assign", op=i):
                    direct = index.cluster_from_quantities(q)
            failed += not (
                np.array_equal(direct.labels, result.value.labels)
                and np.array_equal(direct.labels, via_worker.value.labels)
            )
        pool = pooled.health()["workers"]
    finally:
        service.close()
        pooled.close()

    probe = [[dc] for dc in cold_dcs[: layers.PROBE_OPS]]

    def counted():
        fresh, snap, _ = _service(plan.points, 0)
        try:
            for dcs in probe:
                snap.index.quantities(dcs[0])
            return snap.index.stats().as_dict()
        finally:
            fresh.close()

    totals, counts_ok = layers.repeat_counts(counted)
    submit_cold = median(spans.durations_ms("service.submit", kind="cold", workers=0))
    engine_cluster = median(spans.durations_ms("engine.cluster"))
    metrics = {
        "engine.rho_ms": median(spans.durations_ms("engine.rho")),
        "engine.delta_ms": median(spans.durations_ms("engine.delta")),
        "engine.cluster_ms": engine_cluster,
        "engine.assign_ms": median(spans.durations_ms("engine.assign")),
        **layers.kernel_counts(totals, len(probe)),
        "indexes.fit_ms": 1e3 * fit_s,
        "indexes.memory_mb": index.memory_bytes() / 2**20,
        "serialize.cluster_ms": median(spans.durations_ms("serialize")),
        "serialize.response_bytes": median(
            r["bytes"] for r in spans.records if r["name"] == "serialize"
        ),
        "service.hit_ms": median(spans.durations_ms("service.submit", kind="hot")),
        "coalescer.wait_ms": submit_cold - engine_cluster,
        "workers.pipe_ms": median(spans.durations_ms("service.submit", workers=1)) - submit_cold,
        "workers.failovers": pool["failovers"],
        "workers.inline_fallbacks": pool["inline_fallbacks"],
        **layers.yardstick(plan.points, probe, lambda dcs: index.rho_all(dcs[0]), spans),
        "obs.overhead_share": layers.obs_overhead(
            lambda: [index.cluster(d[0]) for d in probe[: layers.OBS_OPS]]
        ),
    }
    return metrics, submit_cold, failed, counts_ok and index.fingerprint() == fingerprint
