"""HTTP front-end: routes, JSON fidelity, error codes, CLI serve wiring."""

import gc
import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.indexes.persist import save_index
from repro.indexes.registry import make_index
from repro.serving.http import make_server, serialize_value
from repro.serving.service import ClusteringService


@pytest.fixture
def served(blobs):
    """A live server over one published snapshot; yields (base_url, service)."""
    with ClusteringService(linger_ms=1.0) as service:
        service.fit_snapshot("main", blobs, index="kdtree")
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield f"http://{host}:{port}", service
        finally:
            server.shutdown()
            server.server_close()


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


def post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def delete(base, path):
    request = urllib.request.Request(base + path, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


class TestRoutes:
    def test_healthz(self, served):
        base, _ = served
        out = get(base, "/healthz")
        assert out["status"] == "ok"
        assert out["snapshots"] == 1
        health = out["health"]
        assert health["state"] == "healthy"
        assert health["shedding"] is False
        assert health["snapshots"]["main"]["state"] == "healthy"

    def test_snapshots_listing(self, served):
        base, service = served
        rows = get(base, "/v1/snapshots")["snapshots"]
        assert rows[0]["name"] == "main"
        assert rows[0]["fingerprint"] == service.store.get("main").fingerprint

    def test_query_bit_identical_through_json(self, served, blobs):
        base, _ = served
        out = post(base, "/v1/query", {
            "snapshot": "main", "op": "cluster", "dc": 0.5,
            "n_centers": 3, "halo": True,
        })
        reference = make_index("kdtree").fit(blobs).cluster(0.5, n_centers=3, halo=True)
        assert out["labels"] == reference.labels.tolist()
        assert out["rho"] == reference.rho.tolist()
        assert out["centers"] == reference.centers.tolist()
        assert out["halo"] == reference.halo.tolist()
        # JSON floats are repr-based shortest round-trip: bit-identical δ.
        np.testing.assert_array_equal(np.asarray(out["delta"]), reference.delta)
        assert out["n_clusters"] == reference.n_clusters
        assert out["meta"]["cache_hit"] is False

    def test_quantities_op(self, served, blobs):
        base, _ = served
        out = post(base, "/v1/query", {"snapshot": "main", "op": "quantities", "dc": 0.5})
        reference = make_index("kdtree").fit(blobs).quantities(0.5)
        assert out["mu"] == reference.mu.tolist()
        assert "labels" not in out

    def test_cache_hit_over_http(self, served):
        base, _ = served
        body = {"snapshot": "main", "op": "cluster", "dc": 0.4, "n_centers": 3}
        first = post(base, "/v1/query", body)
        second = post(base, "/v1/query", body)
        assert not first["meta"]["cache_hit"]
        assert second["meta"]["cache_hit"]
        assert second["labels"] == first["labels"]

    def test_publish_points_then_query(self, served, rng):
        base, _ = served
        points = rng.normal(size=(60, 2))
        published = post(base, "/v1/snapshots/extra", {
            "points": points.tolist(), "index": "grid",
            "params": {"target_occupancy": 4},
        })["published"]
        assert published["n"] == 60
        out = post(base, "/v1/query", {"snapshot": "extra", "op": "cluster", "dc": 0.8})
        reference = make_index("grid", target_occupancy=4).fit(points).cluster(0.8)
        assert out["labels"] == reference.labels.tolist()

    def test_publish_from_persisted_path(self, served, blobs, tmp_path):
        base, _ = served
        path = str(tmp_path / "saved.npz")
        fitted = make_index("ch", bin_width=0.4).fit(blobs)
        save_index(fitted, path)
        published = post(base, "/v1/snapshots/loaded", {"path": path})["published"]
        assert published["fingerprint"] == fitted.fingerprint()

    def test_delete_snapshot(self, served):
        base, _ = served
        assert delete(base, "/v1/snapshots/main") == {"dropped": "main"}
        assert get(base, "/healthz")["snapshots"] == 0

    def test_stats(self, served):
        base, _ = served
        post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5})
        stats = get(base, "/v1/stats")
        assert stats["coalescer"]["requests"] >= 1
        assert stats["cache"]["misses"] >= 1


class TestErrors:
    def expect_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        return json.load(excinfo.value)

    def test_unknown_route_404(self, served):
        base, _ = served
        body = self.expect_error(lambda: get(base, "/v1/nope"), 404)
        assert "no route" in body["error"]

    def test_unknown_snapshot_404(self, served):
        base, _ = served
        body = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "ghost", "op": "cluster", "dc": 1.0}),
            404,
        )
        assert "no snapshot" in body["error"]

    def test_bad_dc_400(self, served):
        base, _ = served
        self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": -1}),
            400,
        )

    def test_missing_dc_400(self, served):
        base, _ = served
        body = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster"}), 400
        )
        assert "dc" in body["error"]

    def test_bad_op_400(self, served):
        base, _ = served
        self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "explode", "dc": 1.0}),
            400,
        )

    def test_missing_body_400_closes_connection(self, served):
        # The unread body would desync a keep-alive socket; the server must
        # end the connection with the error.
        base, _ = served
        request = urllib.request.Request(base + "/v1/query", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert excinfo.value.headers.get("Connection") == "close"

    def test_invalid_json_400(self, served):
        base, _ = served
        request = urllib.request.Request(base + "/v1/query", data=b"{nope")
        body = self.expect_error(lambda: urllib.request.urlopen(request, timeout=30), 400)
        assert "invalid JSON" in body["error"]

    def test_publish_without_points_or_path_400(self, served):
        base, _ = served
        self.expect_error(lambda: post(base, "/v1/snapshots/x", {"index": "ch"}), 400)

    def test_publish_bad_index_name_400(self, served, rng):
        base, _ = served
        self.expect_error(
            lambda: post(base, "/v1/snapshots/x", {
                "points": rng.normal(size=(10, 2)).tolist(), "index": "warp-drive",
            }),
            400,
        )

    def test_delete_unknown_404(self, served):
        base, _ = served
        self.expect_error(lambda: delete(base, "/v1/snapshots/ghost"), 404)

    def test_unexpected_failure_returns_500_not_reset(self, served):
        # e.g. a request racing service shutdown: the client must still get
        # an HTTP status, never a bare connection reset.
        base, service = served
        service.coalescer.close()
        body = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5}),
            500,
        )
        assert "closed" in body["error"]


def exchange(base, request: bytes) -> bytes:
    """Send raw request bytes; return everything read until the server's EOF."""
    host, port = base[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestWire:
    """Request framing on a raw socket, where a client library cannot hide it."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"33\r\n" + b'{"snapshot": "main", "op": "cluster", "dc": 0.5}   ' + b"\r\n0\r\n\r\n",
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["chunked", "bodiless-post", "too-many-headers", "header-too-long"],
    )
    def test_unframeable_request_gets_one_400_then_eof(self, served, request_bytes):
        base, _ = served
        reply = exchange(base, request_bytes)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply

    def test_http10_request_closes_after_the_response(self, served):
        base, _ = served
        reply = exchange(base, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["status"] == "ok"

    def test_expect_100_continue_is_answered_before_the_body(self, served, blobs):
        base, _ = served
        host, port = base[len("http://"):].rsplit(":", 1)
        body = json.dumps({"snapshot": "main", "op": "quantities", "dc": 0.5}).encode()
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            received = b""
            while len(received) < len(interim):
                chunk = sock.recv(len(interim) - len(received))
                assert chunk, "connection closed before 100 Continue"
                received += chunk
            assert received == interim
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            out = json.loads(response.read())
        reference = make_index("kdtree").fit(blobs).quantities(0.5)
        assert out["mu"] == reference.mu.tolist()


class TestLifecycle:
    def test_drain_with_open_keep_alive_is_clean_and_quiet(self, blobs, caplog):
        with ClusteringService(linger_ms=1.0) as service:
            service.fit_snapshot("main", blobs, index="kdtree")
            server = make_server(service, observability=False)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            conn = http.client.HTTPConnection(*server.server_address, timeout=30)
            try:
                with caplog.at_level(logging.INFO, logger="asyncio"):
                    conn.request("GET", "/healthz")
                    assert conn.getresponse().read()
                    # The keep-alive connection is still open here.
                    assert server.drain(timeout_s=10.0) is True
                    server.server_close()
                    thread.join(timeout=10.0)
                    gc.collect()  # a task destroyed while pending logs here
            finally:
                conn.close()
        assert not thread.is_alive()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_drain_waits_for_an_inflight_publish(self, blobs, monkeypatch):
        with ClusteringService(linger_ms=1.0) as service:
            server = make_server(service, observability=False)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            base = "http://%s:%s" % server.server_address
            started = threading.Event()
            fit = service.fit_snapshot

            def slow_fit(*args, **kwargs):
                started.set()
                time.sleep(0.3)
                return fit(*args, **kwargs)

            monkeypatch.setattr(service, "fit_snapshot", slow_fit)
            results = []
            client = threading.Thread(target=lambda: results.append(
                post(base, "/v1/snapshots/late", {"points": blobs.tolist(), "index": "grid"})
            ))
            client.start()
            assert started.wait(timeout=10.0)
            assert server.drain(timeout_s=10.0) is True
            client.join(timeout=10.0)
            server.server_close()
            thread.join(timeout=10.0)
        assert not client.is_alive() and not thread.is_alive()
        assert results[0]["published"]["n"] == len(blobs)

    def test_shutdown_before_serving_returns(self, blobs):
        with ClusteringService() as service:
            server = make_server(service, observability=False)
            server.shutdown()
            server.serve_forever()  # returns at once: shutdown was requested
            server.server_close()


class TestOverload:
    """Shed/deadline → 503 + Retry-After + typed JSON body; healthz states."""

    def expect_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        return excinfo.value

    def test_shed_returns_503_with_retry_after(self, served):
        base, service = served
        service.coalescer.max_queue = 0  # drain mode: shed every admission
        error = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5}),
            503,
        )
        assert int(error.headers["Retry-After"]) >= 1
        body = json.load(error)
        assert body["type"] == "LoadShedError"
        assert body["retry_after_s"] > 0
        assert "full" in body["error"]

    def test_healthz_reports_shedding_state(self, served):
        base, service = served
        service.coalescer.max_queue = 0
        out = get(base, "/healthz")
        assert out["status"] == "shedding"
        assert out["health"]["state"] == "shedding"
        service.coalescer.max_queue = None
        assert get(base, "/healthz")["status"] == "ok"

    def test_expired_deadline_returns_503(self, served):
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        base, _ = served
        plan = FaultPlan(
            [FaultSpec("coalescer.dispatch", mode="sleep", times=1, delay_s=0.2)]
        )
        with faults.inject(plan):
            error = self.expect_error(
                lambda: post(base, "/v1/query", {
                    "snapshot": "main", "op": "cluster", "dc": 0.9,
                    "timeout_s": 0.05, "use_cache": False,
                }),
                503,
            )
        assert "Retry-After" in error.headers
        assert json.load(error)["type"] == "DeadlineExceededError"


class TestSerialize:
    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialise"):
            serialize_value(object())


class TestCLIServe:
    def test_build_server_and_query(self, tmp_path, blobs):
        import argparse

        from repro.__main__ import build_server

        csv = tmp_path / "points.csv"
        np.savetxt(csv, blobs, delimiter=",")
        args = argparse.Namespace(
            input=str(csv), delimiter=",", dataset=None, n=None, profile="test",
            load=None, index="grid", snapshot="cli", tau=None, bin_width=None,
            backend="serial", n_jobs=None, chunk_size=None,
            host="127.0.0.1", port=0, dispatch="coalesce", max_batch=16,
            linger_ms=1.0, cache_entries=16, cache_ttl=None, verbose=False, seed=0,
        )
        service, server, snapshot = build_server(args)
        try:
            assert snapshot.name == "cli"
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address
            out = post(f"http://{host}:{port}", "/v1/query", {
                "snapshot": "cli", "op": "cluster", "dc": 0.5, "n_centers": 3,
            })
            reference = make_index("grid").fit(blobs).cluster(0.5, n_centers=3)
            assert out["labels"] == reference.labels.tolist()
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_load_applies_execution_flags(self, blobs, tmp_path):
        """--backend/--n-jobs must reach a --load'ed index: persistence
        deliberately drops execution config, so the CLI re-applies it."""
        import argparse

        from repro.__main__ import build_server

        path = str(tmp_path / "x.npz")
        save_index(make_index("kdtree").fit(blobs), path)
        args = argparse.Namespace(
            input=None, delimiter=",", dataset=None, n=None, profile="test",
            load=path, index="ch", snapshot="x", tau=None, bin_width=None,
            backend="threads", n_jobs=2, chunk_size=64,
            host="127.0.0.1", port=0, dispatch="serial", max_batch=1,
            linger_ms=0.0, cache_entries=0, cache_ttl=None, verbose=False, seed=0,
        )
        service, server, snapshot = build_server(args)
        try:
            assert snapshot.index.backend == "threads"
            assert snapshot.index.n_jobs == 2
            assert snapshot.index.chunk_size == 64
        finally:
            server.server_close()
            service.close()

    def test_load_conflicts_with_dataset(self, blobs, tmp_path):
        import argparse

        from repro.__main__ import build_server

        path = str(tmp_path / "x.npz")
        save_index(make_index("kdtree").fit(blobs), path)
        args = argparse.Namespace(
            input=None, delimiter=",", dataset="s1", n=None, profile="test",
            load=path, index="ch", snapshot="x", tau=None, bin_width=None,
            backend="serial", n_jobs=None, chunk_size=None,
            host="127.0.0.1", port=0, dispatch="serial", max_batch=1,
            linger_ms=0.0, cache_entries=0, cache_ttl=None, verbose=False, seed=0,
        )
        with pytest.raises(SystemExit, match="--load"):
            build_server(args)

    def test_serve_parser_registered(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--port", "not-a-number"])
