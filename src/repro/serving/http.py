"""Stdlib HTTP/JSON front-end over :class:`ClusteringService`.

No framework, no third-party deps: one asyncio event loop multiplexes every
connection — idle keep-alives cost a socket, not a thread — and parses a
deliberately minimal HTTP/1.1 dialect: request line, headers,
``Content-Length`` bodies (``Expect: 100-continue`` is answered) and
keep-alive.  A request whose body cannot be framed (a POST without a
positive ``Content-Length``, any ``Transfer-Encoding``) gets ``400`` and
the connection closes, because its unread bytes would otherwise be parsed
as the next request.

Numeric fidelity note: arrays go out via :mod:`json`, whose float encoding
is ``repr``-based shortest round-trip — a float64 parsed back with
``json.loads`` is *bit-identical* to the served value (``±Infinity``
included, via Python's permissive JSON dialect), so even HTTP clients keep
the exactness contract.

Overload and failure are part of the contract, not exceptions to it: a
query that is shed at admission or misses its deadline gets ``503`` with a
``Retry-After`` header and a typed JSON error body (``{"error": …,
"type": "LoadShedError"|"DeadlineExceededError", "retry_after_s": …}``); a
dispatcher crash (restarted underneath, request safe to retry) gets
``500`` with ``"type": "DispatcherCrashError"``.  Policies applied before
any work is admitted:

* **Admission control** — with ``max_inflight`` set, at most that many
  requests that do work (queries, publishes, deletes) are in flight;
  excess gets ``503`` + ``Retry-After`` without touching the dispatch
  queue.  ``GET`` routes are never shed: operators must see a saturated
  server.
* **Per-request deadlines** — a query without its own ``timeout_s`` gets
  ``default_timeout_s``, and the await itself is bounded too, so a client
  never waits unboundedly on a wedged backend.
* **Graceful drain** — :meth:`ClusteringServer.drain` stops accepting,
  refuses new requests with ``503`` (clients fail over to a replica) and
  flushes in-flight requests under a deadline.  ``GET /healthz`` and
  ``GET /metrics`` are exempt: operators must see a draining server.

Routes
------
* ``GET  /healthz`` — liveness + snapshot count + health states, with the
  front-end's own ``edge`` block (in-flight requests, cap, draining).
* ``GET  /v1/snapshots`` — published snapshots (name, fingerprint, version…).
* ``POST /v1/snapshots/<name>`` — publish: body ``{"points": [[…]…],
  "index": "ch", "params": {…}}`` fits in-process; ``{"path": "…"}`` loads
  a persisted index (fingerprint-verified) instead.
* ``DELETE /v1/snapshots/<name>`` — drop a snapshot (and its cache entries).
* ``POST /v1/query`` — body ``{"snapshot": …, "op": "quantities"|"cluster",
  "dc": …, "tie_break"?, "n_centers"?, "rho_min"?, "delta_min"?, "halo"?,
  "use_cache"?, "timeout_s"?}``; responds with the arrays plus the serving
  ``meta`` (fingerprint, cache_hit, batch_size, trace_id, …) and, when
  tracing is on, an ``X-Trace-Id`` header naming the request's span tree.
* ``GET  /v1/stats`` — store / cache / coalescer counters.
* ``GET  /metrics`` — Prometheus text exposition of the obs registry.
* ``GET  /trace/<id>`` — one finished span tree from the trace ring buffer.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.quantities import DPCQuantities, DPCResult
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.obs.export import render_prometheus
from repro.serving.errors import (
    DeadlineExceededError,
    LoadShedError,
    ServiceDrainingError,
    ServingError,
)
from repro.serving.service import ClusteringService

__all__ = ["ClusteringServer", "make_server", "serialize_value"]

_MAX_BODY_BYTES = 256 * 1024 * 1024  # refuse absurd uploads outright
_MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def serialize_value(value: Any) -> Dict[str, Any]:
    """JSON-friendly payload for a served DPCQuantities / DPCResult."""
    if isinstance(value, DPCResult):
        payload = serialize_value(value.quantities)
        payload.update(
            centers=value.centers.tolist(),
            labels=value.labels.tolist(),
            n_clusters=int(value.n_clusters),
            halo=None if value.halo is None else value.halo.tolist(),
        )
        return payload
    if isinstance(value, DPCQuantities):
        return {
            "dc": float(value.dc),
            "rho": value.rho.tolist(),
            "delta": value.delta.tolist(),
            "mu": value.mu.tolist(),
        }
    raise TypeError(f"cannot serialise {type(value).__name__}")


class _BadRequest(Exception):
    """A malformed request: answered with ``400``."""


class ClusteringServer:
    """An asyncio HTTP server bound to one :class:`ClusteringService`.

    Shaped like :class:`socketserver.TCPServer`: the constructor binds
    (``server_address`` holds the bound address), :meth:`serve_forever`
    runs the event loop on the calling thread until :meth:`shutdown` is
    called from another thread, and :meth:`server_close` releases the
    socket.  A server serves once; it is not restarted after a shutdown.

    Observability (:mod:`repro.obs`) is switched on for the whole process by
    default — a server exists to be watched, and ``/metrics`` / ``/trace``
    would otherwise serve empty registries.  Pass ``observability=False`` to
    keep instrumentation on its no-op path (e.g. overhead benchmarks).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        service: ClusteringService,
        max_inflight: Optional[int] = None,
        default_timeout_s: Optional[float] = None,
        observability: bool = True,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.service = service
        self.max_inflight = max_inflight
        self.default_timeout_s = default_timeout_s
        self._loop = asyncio.new_event_loop()
        try:
            self._listener = self._loop.run_until_complete(
                asyncio.start_server(self._serve_connection, *address)
            )
        except BaseException:
            self._loop.close()
            raise
        self.server_address: Tuple[str, int] = self._listener.sockets[0].getsockname()[:2]
        self._draining = False
        self._inflight = 0  # non-GET requests being served (loop thread only)
        self._conn_tasks: "set[asyncio.Task]" = set()
        self.stats: Dict[str, int] = {"shed": 0}
        self._state = threading.Lock()
        self._shutdown_request = False
        self._idle = threading.Event()  # set while serve_forever is not running
        self._idle.set()
        # Enabled only once bound, so a failed bind leaves obs as it was.
        self._obs_enabled_here = observability and not obs.enabled()
        if observability:
            obs.enable()

    # -- lifecycle ------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` is called."""
        with self._state:
            if self._shutdown_request:
                return
            self._idle.clear()
        try:
            self._loop.run_forever()
            self._loop.run_until_complete(self._close_connections())
        finally:
            self._idle.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        with self._state:
            if not self._shutdown_request and not self._idle.is_set():
                self._loop.call_soon_threadsafe(self._loop.stop)
            self._shutdown_request = True
        self._idle.wait()

    async def _close_connections(self) -> None:
        # Await the cancelled connection tasks so each closes its socket
        # before the loop closes; a task abandoned while pending is reported
        # as "Task was destroyed but it is pending!" when collected.
        self._listener.close()
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop accepting, flush in-flight requests, stop serving.

        New requests are refused with ``503`` (``ServiceDrainingError``) from
        the moment this is called and the listening socket closes, so
        clients fail over to a replica; requests already admitted run to
        completion.  Returns ``True`` when they finished inside
        ``timeout_s`` (a *clean* drain), ``False`` when some were still
        running when time ran out (callers should exit non-zero).  Call it
        from a thread other than the one in :meth:`serve_forever`, then
        call :meth:`server_close` as usual.
        """
        self._draining = True
        self._loop.call_soon_threadsafe(self._listener.close)
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        clean = True
        while self._inflight > 0:
            if time.monotonic() >= deadline:
                clean = False
                break
            time.sleep(0.01)
        self.shutdown()
        return clean

    def server_close(self) -> None:
        """Stop serving and release the socket and event loop (idempotent)."""
        self.shutdown()
        self._listener.close()
        self._loop.close()
        # Only undo an enable *this* server performed — a process that was
        # already observing (CLI flag, another live server) keeps observing.
        if self._obs_enabled_here:
            obs.disable()
            self._obs_enabled_here = False

    # -- wire -----------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader, writer)
                except _BadRequest as exc:
                    # The request could not be framed, so the bytes after it
                    # cannot be trusted to start the next one.
                    await self._respond(writer, 400, {"error": str(exc)}, close=True)
                    break
                if request is None:
                    break  # EOF between requests: clean keep-alive close
                method, path, keep_alive, body = request
                try:
                    await self._dispatch(writer, method, path, body)
                except _BadRequest as exc:
                    # A malformed body was read in full: still in sync.
                    await self._respond(writer, 400, {"error": str(exc)})
                except Exception as exc:  # never drop the socket without a status
                    await self._respond(
                        writer, 500, {"error": f"{type(exc).__name__}: {exc}"}, close=True
                    )
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away
        except asyncio.CancelledError:
            # Only _close_connections cancels these tasks.  End normally:
            # Python 3.11's start_server logs a task that ends cancelled.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bool, bytes]]:
        """``(method, path, keep_alive, body)``, or None on EOF before a request."""
        try:
            line = await reader.readline()
            if not line:
                return None
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                raise _BadRequest(f"malformed request line: {line!r}")
            method, path, version = parts
            headers: Dict[str, str] = {}
            for _ in range(_MAX_HEADERS + 1):  # the headers and the blank line
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                key, sep, value = raw.decode("latin-1").partition(":")
                if sep:
                    headers[key.strip().lower()] = value.strip()
            else:
                raise _BadRequest(f"more than {_MAX_HEADERS} headers")
        except ValueError:  # a line longer than the stream's buffer limit
            raise _BadRequest("request line or header too long") from None
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("invalid Content-Length") from None
        if "transfer-encoding" in headers or (method == "POST" and length == 0):
            raise _BadRequest("a JSON body with Content-Length is required")
        if not 0 <= length <= _MAX_BODY_BYTES:
            raise _BadRequest("Content-Length out of bounds")
        if length and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = connection == "keep-alive" or (
            connection != "close" and version != "HTTP/1.0"
        )
        return method, path, keep_alive, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str = "application/json",
        retry_after: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for key, value in (extra_headers or {}).items():
            head.append(f"{key}: {value}")
        if retry_after is not None:
            # Integer seconds per RFC 9110; round up so a compliant client
            # never retries before the hint.
            head.append(f"Retry-After: {max(1, int(-(-retry_after // 1)))}")
        if close:
            head.append("Connection: close")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()

    async def _serving_error(
        self, writer: asyncio.StreamWriter, exc: ServingError, close: bool = False
    ) -> None:
        """Typed overload/failure → status code + Retry-After + JSON body."""
        transient = isinstance(exc, (LoadShedError, DeadlineExceededError))
        await self._respond(
            writer,
            503 if transient else 500,
            {
                "error": str(exc),
                "type": type(exc).__name__,
                "retry_after_s": exc.retry_after_s,
            },
            retry_after=exc.retry_after_s,
            close=close,
        )

    # -- routes ---------------------------------------------------------------

    def _parse_body(self, body: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("the JSON body must be an object")
        return payload

    async def _dispatch(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if self._draining and not (method == "GET" and path in ("/healthz", "/metrics")):
            # Closing the refused connection sends the client to a replica.
            await self._serving_error(writer, ServiceDrainingError(), close=True)
            return
        if method == "GET":
            await self._handle_get(writer, path)
            return
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            self.stats["shed"] += 1
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_edge_shed_total",
                    "Requests refused by front-end admission control (inflight cap)",
                ).inc()
            await self._serving_error(
                writer,
                LoadShedError(
                    f"server at capacity ({self._inflight} in flight, "
                    f"max_inflight={self.max_inflight}); retry later",
                    retry_after_s=0.2,
                ),
            )
            return
        # Counted until the response is written, so drain() waits for it.
        self._set_inflight(self._inflight + 1)
        try:
            prefix = "/v1/snapshots/"
            name = path[len(prefix):] if path.startswith(prefix) else ""
            if method == "POST" and path == "/v1/query":
                await self._handle_query(writer, body)
            elif name and method == "POST":
                await self._handle_publish(writer, name, body)
            elif name and method == "DELETE":
                if name in self.service.store:
                    self.service.drop_snapshot(name)
                    await self._respond(writer, 200, {"dropped": name})
                else:
                    await self._respond(writer, 404, {"error": f"no snapshot named {name!r}"})
            else:
                await self._respond(writer, 404, {"error": f"no route {method} {path}"})
        finally:
            self._set_inflight(self._inflight - 1)

    async def _handle_get(self, writer: asyncio.StreamWriter, path: str) -> None:
        if path == "/healthz":
            health = self.service.health()
            if self._draining:
                health["state"] = "draining"
                health["draining"] = True
            health["edge"] = {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "draining": self._draining,
            }
            await self._respond(
                writer,
                200,
                {
                    # "ok" when healthy keeps the liveness contract of plain
                    # probes; degraded/shedding states ride in verbatim.
                    "status": "ok" if health["state"] == "healthy" else health["state"],
                    "snapshots": len(self.service.store),
                    "health": health,
                },
            )
        elif path == "/metrics":
            await self._respond(
                writer,
                200,
                render_prometheus().encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/v1/snapshots":
            await self._respond(writer, 200, {"snapshots": self.service.store.describe()})
        elif path == "/v1/stats":
            await self._respond(writer, 200, self.service.stats())
        elif path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            tree = obs_trace.get_trace(trace_id) if trace_id else None
            if tree is None:
                await self._respond(
                    writer,
                    404,
                    {
                        "error": f"no trace {trace_id!r} in the ring buffer",
                        "recent": list(obs_trace.recent_trace_ids()),
                    },
                )
            else:
                await self._respond(writer, 200, {"trace": tree})
        else:
            await self._respond(writer, 404, {"error": f"no route GET {path}"})

    async def _handle_publish(
        self, writer: asyncio.StreamWriter, name: str, raw: bytes
    ) -> None:
        body = self._parse_body(raw)

        def publish():
            if "path" in body:
                return self.service.load_snapshot(name, str(body["path"]))
            if "points" in body:
                points = np.asarray(body["points"], dtype=np.float64)
                return self.service.fit_snapshot(
                    name,
                    points,
                    index=str(body.get("index", "ch")),
                    **dict(body.get("params") or {}),
                )
            raise _BadRequest('publish needs "points" (fit) or "path" (load)')

        try:
            # A fit can take a while; run it off the loop so health checks
            # and other connections keep being served meanwhile.
            snapshot = await asyncio.get_running_loop().run_in_executor(None, publish)
        except (ValueError, TypeError, KeyError, OSError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        await self._respond(writer, 200, {"published": snapshot.info()})

    def _set_inflight(self, value: int) -> None:
        self._inflight = value
        if obs_runtime._ENABLED:
            obs_metrics.gauge(
                "repro_edge_inflight", "Requests in flight at the HTTP front-end"
            ).set(value)

    async def _handle_query(self, writer: asyncio.StreamWriter, raw: bytes) -> None:
        body = self._parse_body(raw)
        name = body.get("snapshot")
        if not isinstance(name, str):
            raise _BadRequest('the query body needs a "snapshot" name')
        if "dc" not in body:
            raise _BadRequest('the query body needs a "dc" cut-off')
        timeout_s = body.get("timeout_s", self.default_timeout_s)
        try:
            future = self.service.submit(
                name,
                op=str(body.get("op", "cluster")),
                dc=body["dc"],
                tie_break=body.get("tie_break", "id"),
                n_centers=body.get("n_centers"),
                rho_min=body.get("rho_min"),
                delta_min=body.get("delta_min"),
                halo=bool(body.get("halo", False)),
                use_cache=bool(body.get("use_cache", True)),
                timeout_s=timeout_s,
            )
            # The dispatcher enforces the deadline while queued; this bound
            # also covers a wedged engine call, so the client's wait is
            # limited no matter where time is lost.
            result = await asyncio.wait_for(
                asyncio.wrap_future(future),
                None if timeout_s is None else float(timeout_s) + 1.0,
            )
        except KeyError as exc:
            await self._respond(
                writer, 404, {"error": str(exc.args[0]) if exc.args else str(exc)}
            )
            return
        except asyncio.TimeoutError:
            await self._serving_error(
                writer,
                DeadlineExceededError(f"deadline exceeded at the server (timeout_s={timeout_s})"),
            )
            return
        except ServingError as exc:
            # Shed/deadline → 503 + Retry-After, dispatcher crash → 500;
            # all retryable overload, never a client mistake (400).
            await self._serving_error(writer, exc)
            return
        except (ValueError, TypeError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        payload = serialize_value(result.value)
        payload["op"] = result.meta["op"]
        payload["meta"] = result.meta
        trace_id = result.meta.get("trace_id")
        payload["trace_id"] = trace_id
        await self._respond(
            writer,
            200,
            payload,
            extra_headers={"X-Trace-Id": trace_id} if trace_id else None,
        )


def make_server(
    service: ClusteringService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: Optional[int] = None,
    default_timeout_s: Optional[float] = None,
    observability: bool = True,
) -> ClusteringServer:
    """Bind (``port=0`` picks a free one; read ``server.server_address``)."""
    return ClusteringServer(
        (host, port),
        service,
        max_inflight=max_inflight,
        default_timeout_s=default_timeout_s,
        observability=observability,
    )
