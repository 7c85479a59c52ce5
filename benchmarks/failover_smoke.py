"""Failover drill against a real `python -m repro serve` process.

The end-to-end acceptance check for the replicated serving tier, driven the
way an operator would see it:

1. boot the server as a subprocess with ``--workers 2`` (supervised
   shared-memory serving workers) and a deterministic dataset,
2. hammer it with concurrent clients while SIGKILLing serving workers
   mid-load until ``/metrics`` records a failover,
3. assert **zero failed requests** and every response **bit-identical** to a
   local ``quantities_multi`` on the same points,
4. SIGTERM the server under load and assert a clean drain: exit code 0
   within the drain deadline, and no leaked ``/dev/shm`` segments.

Usage:
    PYTHONPATH=src python benchmarks/failover_smoke.py [--out BENCH.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.indexes.parallel import SHM_PREFIX  # noqa: E402
from repro.indexes.registry import make_index  # noqa: E402
from repro.obs.export import parse_prometheus  # noqa: E402
from repro.obs.provenance import append_record  # noqa: E402


def shard_segments():
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith(SHM_PREFIX))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def get_json(base, path, timeout=30):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return json.load(response)


def post_query(base, payload, timeout=60):
    request = urllib.request.Request(
        base + "/v1/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def read_failovers(base):
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        samples = parse_prometheus(response.read().decode())
    return sum(
        value for _, value in samples.get("repro_serving_failovers_total", [])
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1500, help="dataset size")
    parser.add_argument("--workers", type=int, default=2, help="serving workers")
    parser.add_argument("--clients", type=int, default=4, help="client threads")
    parser.add_argument(
        "--kill-rounds", type=int, default=20,
        help="max mid-load SIGKILLs before giving up on seeing a failover",
    )
    parser.add_argument(
        "--drain-timeout-s", type=float, default=15.0,
        help="drain budget handed to the server (and waited on here)",
    )
    parser.add_argument("--out", default=None, help="append a JSON record here")
    args = parser.parse_args()

    rng = np.random.default_rng(20260808)
    points = np.concatenate(
        [
            rng.normal([0.0, 0.0], 0.5, size=(args.n // 2, 2)),
            rng.normal([3.0, 3.0], 0.7, size=(args.n - args.n // 2, 2)),
        ]
    )
    spread = float(np.ptp(points, axis=0).max())
    dcs = [round(spread * f, 6) for f in (0.05, 0.1, 0.2)]
    references = {
        dc: q
        for dc, q in zip(dcs, make_index("ch").fit(points).quantities_multi(dcs))
    }

    shm_before = set(shard_segments())
    workdir = tempfile.mkdtemp(prefix="repro-failover-")
    csv_path = os.path.join(workdir, "points.csv")
    np.savetxt(csv_path, points, delimiter=",")

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    server = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--input", csv_path, "--index", "ch", "--snapshot", "main",
            "--workers", str(args.workers), "--heartbeat-s", "0.1",
            "--port", "0", "--cache-entries", "0",
            "--linger-ms", "2",
            "--drain-timeout-s", str(args.drain_timeout_s),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )

    base = None
    lines = []
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = re.search(r"serving on (http://[\w.:]+)", line)
            if match:
                base = match.group(1)
                break
        if base is None:
            raise RuntimeError("server never announced its address:\n" + "".join(lines))
        # Drain the server's stdout in the background so prints can't block it.
        tail: list = []
        threading.Thread(
            target=lambda: tail.extend(iter(server.stdout.readline, "")),
            daemon=True,
        ).start()

        health = get_json(base, "/healthz")["health"]
        pool = health.get("workers") or {}
        assert len(pool.get("workers", [])) == args.workers, (
            f"healthz shows {pool} — expected {args.workers} workers"
        )

        # -- load + kills ----------------------------------------------------
        stop = threading.Event()
        counts = {"ok": 0}
        failures: list = []
        lock = threading.Lock()

        def client(slot: int) -> None:
            crng = np.random.default_rng(slot)
            while not stop.is_set():
                dc = dcs[int(crng.integers(0, len(dcs)))]
                try:
                    out = post_query(base, {
                        "snapshot": "main", "op": "quantities", "dc": dc,
                        "use_cache": False,
                    })
                    reference = references[dc]
                    assert out["rho"] == reference.rho.tolist()
                    assert out["mu"] == reference.mu.tolist()
                    assert np.array_equal(
                        np.asarray(out["delta"]), reference.delta
                    )
                except Exception as exc:  # noqa: BLE001 - the drill's verdict
                    with lock:
                        failures.append(f"{type(exc).__name__}: {exc}")
                    return
                with lock:
                    counts["ok"] += 1

        threads = [
            threading.Thread(target=client, args=(slot,), daemon=True)
            for slot in range(args.clients)
        ]
        for thread in threads:
            thread.start()

        kills = 0
        failovers = 0.0
        for _ in range(args.kill_rounds):
            time.sleep(0.25)
            if failures:
                break
            health = get_json(base, "/healthz")["health"]
            rows = (health.get("workers") or {}).get("workers", [])
            live = [r for r in rows if r["state"] in ("busy", "healthy") and r["pid"]]
            # Prefer a busy worker: that kill is the mid-batch one.
            live.sort(key=lambda r: r["state"] != "busy")
            if not live:
                continue
            try:
                os.kill(int(live[0]["pid"]), signal.SIGKILL)
                kills += 1
            except (ProcessLookupError, PermissionError):
                continue
            time.sleep(0.25)
            failovers = read_failovers(base)
            if failovers >= 1:
                break
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)

        assert not failures, f"client-visible failures under worker kills: {failures}"
        assert counts["ok"] > 0, "the drill never completed a request"
        assert failovers >= 1, (
            f"no failover recorded in /metrics after {kills} kills "
            f"({counts['ok']} requests served)"
        )

        # -- graceful drain --------------------------------------------------
        # One last burst in flight while SIGTERM lands.  A request that
        # arrives after the drain began is *refused* (503 / connection
        # refused) — that's the design (clients fail over to a replica), so
        # only admitted requests assert anything.
        def burst_query() -> None:
            try:
                out = post_query(
                    base,
                    {"snapshot": "main", "op": "quantities", "dc": dcs[0],
                     "use_cache": False},
                )
            except Exception:  # noqa: BLE001 - refused by the drain
                return
            assert out["rho"] == references[dcs[0]].rho.tolist()

        burst = [
            threading.Thread(target=burst_query, daemon=True) for _ in range(2)
        ]
        for thread in burst:
            thread.start()
        server.send_signal(signal.SIGTERM)
        returncode = server.wait(timeout=args.drain_timeout_s + 30.0)
        assert returncode == 0, (
            f"drain was not clean: exit {returncode}\n" + "".join(tail)
        )

        leaked = sorted(set(shard_segments()) - shm_before)
        assert not leaked, f"serving images leaked into /dev/shm: {leaked}"

        print(
            f"failover smoke OK: {counts['ok']} requests bit-identical, "
            f"0 failures, {kills} kill(s), {failovers:g} failover(s) in "
            f"/metrics, drain exit 0 ({args.workers} workers)"
        )
        if args.out:
            append_record(
                {
                    "benchmark": "failover_smoke",
                    "workers": args.workers,
                    "clients": args.clients,
                    "n": args.n,
                    "requests_ok": counts["ok"],
                    "failures": len(failures),
                    "kills": kills,
                    "failovers": failovers,
                    "drain_exit": returncode,
                },
                args.out,
            )
            print(f"wrote {args.out}")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10.0)
        try:
            os.unlink(csv_path)
            os.rmdir(workdir)
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
