"""The HTTP/JSON availability-forecast server.

Two layers, split for testability:

* :class:`ServeApp` — a pure request router: ``(method, path, params,
  body) -> (status, payload, headers)``.  All endpoint logic, parameter
  parsing, and error mapping lives here, exercisable without sockets.
* :class:`ServeHandler` + :func:`start_server` — the thin
  :mod:`http.server` shell: a :class:`~http.server.ThreadingHTTPServer`
  speaking HTTP/1.1 keep-alive (persistent connections are what make
  four-digit QPS reachable from a handful of client threads), one
  daemon thread per connection, JSON in/out with ``Content-Length``.

The same app serves three roles: the single-process daemon (PR 8), a
scale-out **shard worker** owning a machine range (``worker_id`` set,
state built with a ``shard_range``), and — through
:class:`~repro.serve.router.RouterApp`, which subclasses none of this
but speaks the same wire protocol — the front-end the workers sit
behind.

Endpoints (see ``docs/serving.md`` for the full API):

====== ========================= ==========================================
Method Path                      Answer
====== ========================= ==========================================
GET    ``/healthz``              liveness + readiness + owned machine range
GET    ``/v1/availability``      P(machine available ≥ duration) + count
GET    ``/v1/capacity``          fleet machines forecast free for a window
GET    ``/v1/rank``              top-k machines by survival probability
GET    ``/v1/stats``             tier/paging/ingest/request counters
POST   ``/v1/ingest``            stream events (JSON array or JSONL body;
                                 ``?dry=1`` validates without applying)
POST   ``/v1/flush``             block until queued ingest is applied
POST   ``/v1/shutdown``          graceful stop
====== ========================= ==========================================

Error contract: unknown machine → 404; a machine outside this worker's
range → 421 (misdirected; the router owns the machine→worker map);
malformed or missing parameters (including an invalid window, via
:class:`~repro.errors.PredictionError`) → 400; queries before any data
exists → 503; ingest ordering violations → 409; ingest-queue
backpressure → 429 with a ``Retry-After`` header and ``retry_after`` in
the body; a window with no same-type history yet → 422.  Every error
body is ``{"error": <human message>}``.

Telemetry: per-request counters and latency histograms on the injected
:class:`~repro.obs.metrics.MetricsRegistry` (``serve.requests``,
``serve.request_seconds``, per-endpoint ``serve.request_seconds.<name>``,
``serve.status.{2,4,5}xx``).  Histograms and counters take the registry
lock, so recording from handler threads is safe; spans are
single-threaded by design and deliberately not used per request.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    IngestBackpressureError,
    IngestOrderError,
    NoHistoryError,
    PredictionError,
    ServeError,
    WorkerRangeError,
)
from ..obs.metrics import MetricsRegistry
from ..prediction.base import PredictionQuery
from .ingest import AsyncIngester
from .state import ServeState

__all__ = ["ServeApp", "ServeHandle", "start_server"]


class _BadRequest(ServeError):
    """Parameter-level 400 (internal to the router)."""


def _one(params: dict, name: str) -> Optional[str]:
    values = params.get(name)
    return values[-1] if values else None


def _require(params: dict, name: str) -> str:
    value = _one(params, name)
    if value is None:
        raise _BadRequest(f"missing required parameter {name!r}")
    return value


def _as_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _BadRequest(f"parameter {name!r} must be an integer, got {value!r}")


def _as_float(name: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise _BadRequest(f"parameter {name!r} must be a number, got {value!r}")
    if out != out or out in (float("inf"), float("-inf")):
        raise _BadRequest(f"parameter {name!r} must be finite, got {value!r}")
    return out


class ServeApp:
    """Routes parsed requests against a :class:`ServeState`.

    Pure: no sockets, no threads of its own — the HTTP shell and the
    test suite both drive :meth:`handle`.  With an
    :class:`~repro.serve.ingest.AsyncIngester` attached, ``POST
    /v1/ingest`` validates synchronously but applies through the queue
    (and can 429); without one it applies inline, exactly as before.
    """

    def __init__(
        self,
        state: ServeState,
        registry: Optional[MetricsRegistry] = None,
        *,
        ingester: Optional[AsyncIngester] = None,
        worker_id: Optional[int] = None,
    ) -> None:
        self.state = state
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.ingester = ingester
        self.worker_id = worker_id
        self._started = time.time()

    # -- plumbing -------------------------------------------------------------

    def handle(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict]:
        """Dispatch one request; returns ``(http_status, json_payload)``."""
        status, payload, _ = self.handle_full(method, target, body)
        return status, payload

    def handle_full(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        """Dispatch one request; returns ``(status, payload, headers)``."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = parse_qs(split.query)
        headers: dict[str, str] = {}
        t0 = time.perf_counter()
        try:
            status, payload = self._route(method, path, params, body)
        except _BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except PredictionError as exc:
            status, payload = 400, {"error": str(exc)}
        except IngestOrderError as exc:
            status, payload = 409, {"error": str(exc)}
        except IngestBackpressureError as exc:
            status = 429
            payload = {"error": str(exc), "retry_after": exc.retry_after}
            headers["Retry-After"] = f"{exc.retry_after:g}"
            self.registry.inc("serve.ingest_backpressure")
        except NoHistoryError as exc:
            message = str(exc)
            if "no data ingested" in message:
                status, payload = 503, {"error": message}
            else:
                status, payload = 422, {"error": message}
        except WorkerRangeError as exc:
            status, payload = 421, {"error": str(exc)}
        except ServeError as exc:
            message = str(exc)
            if "unknown machine" in message:
                status, payload = 404, {"error": message}
            else:
                status, payload = 400, {"error": message}
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t0
        name = path.rsplit("/", 1)[-1] or "root"
        self.registry.inc("serve.requests")
        self.registry.inc(f"serve.status.{status // 100}xx")
        self.registry.observe("serve.request_seconds", dt)
        self.registry.observe(f"serve.request_seconds.{name}", dt)
        return status, payload, headers

    def _route(
        self, method: str, path: str, params: dict, body: bytes
    ) -> tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return self.healthz()
        if path == "/v1/availability" and method == "GET":
            return self.availability(params)
        if path == "/v1/capacity" and method == "GET":
            return self.capacity(params)
        if path == "/v1/rank" and method == "GET":
            return self.rank(params)
        if path == "/v1/stats" and method == "GET":
            return self.stats()
        if path == "/v1/ingest" and method == "POST":
            return self.ingest(body, params)
        if path == "/v1/flush" and method == "POST":
            return self.flush()
        if path == "/v1/shutdown" and method == "POST":
            return 200, {"stopping": True}
        known = {
            "/healthz",
            "/v1/availability",
            "/v1/capacity",
            "/v1/rank",
            "/v1/stats",
            "/v1/ingest",
            "/v1/flush",
            "/v1/shutdown",
        }
        if path in known:
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint {path!r}"}

    # -- window parsing -------------------------------------------------------

    def _window(self, params: dict) -> tuple[int, float, float]:
        """(day, start_hour, duration_hours) from request parameters.

        ``duration`` is required; ``day``/``hour`` default to "now" —
        midnight of the first unobserved day, the earliest window whose
        history is complete.
        """
        duration = _as_float("duration", _require(params, "duration"))
        day_raw = _one(params, "day")
        hour_raw = _one(params, "hour")
        day = (
            self.state.horizon_day
            if day_raw is None
            else _as_int("day", day_raw)
        )
        if day < 0:
            raise _BadRequest(f"parameter 'day' must be >= 0, got {day}")
        hour = 0.0 if hour_raw is None else _as_float("hour", hour_raw)
        return day, hour, duration

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> tuple[int, dict]:
        payload = {
            "ok": True,
            "ready": self.state.ready,
            "n_machines": self.state.n_machines,
            "machine_lo": self.state.machine_lo,
            "machine_hi": self.state.machine_hi,
            "horizon_day": self.state.horizon_day,
            "uptime_seconds": time.time() - self._started,
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return 200, payload

    def availability(self, params: dict) -> tuple[int, dict]:
        machine = _as_int("machine", _require(params, "machine"))
        day, hour, duration = self._window(params)
        query = PredictionQuery(
            machine_id=machine,
            day=day,
            start_hour=hour,
            duration_hours=duration,
        )
        survival, expected = self.state.forecast(query)
        return 200, {
            "machine": machine,
            "day": day,
            "hour": hour,
            "duration_hours": duration,
            "survival": survival,
            "expected_events": expected,
        }

    def capacity(self, params: dict) -> tuple[int, dict]:
        day, hour, duration = self._window(params)
        threshold_raw = _one(params, "threshold")
        threshold = (
            0.5 if threshold_raw is None else _as_float("threshold", threshold_raw)
        )
        result = self.state.capacity(day, hour, duration, threshold=threshold)
        result.update({"day": day, "hour": hour, "duration_hours": duration})
        return 200, result

    def rank(self, params: dict) -> tuple[int, dict]:
        day, hour, duration = self._window(params)
        k_raw = _one(params, "k")
        k = 10 if k_raw is None else _as_int("k", k_raw)
        ranked = self.state.rank(day, hour, duration, k=k)
        return 200, {
            "day": day,
            "hour": hour,
            "duration_hours": duration,
            "machines": [
                {"machine": m, "survival": s} for m, s in ranked
            ],
        }

    def stats(self) -> tuple[int, dict]:
        tiers = self.state.tier_stats()
        payload = {
            "n_machines": self.state.n_machines,
            "machine_lo": self.state.machine_lo,
            "machine_hi": self.state.machine_hi,
            "base_days": self.state.base_n_days,
            "horizon_day": self.state.horizon_day,
            "ready": self.state.ready,
            "history_days": self.state.history_days,
            "statistic": self.state.statistic,
            "laplace": self.state.laplace,
            "tier": {
                "hot_entries": tiers.hot_entries,
                "resident_bytes": tiers.resident_bytes,
                "hits": tiers.hits,
                "rebuilds": tiers.rebuilds,
                "evictions": tiers.evictions,
                "n_blocks": tiers.n_blocks,
                "block_machines": tiers.block_machines,
            },
            "ingest": {
                "streamed_events": tiers.streamed_events,
                "deduplicated_events": tiers.deduplicated_events,
                "overlay_cells": tiers.overlay_cells,
            },
            "requests": self.registry.counter_value("serve.requests"),
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        if self.ingester is not None:
            q = self.ingester.stats()
            payload["ingest"]["queue"] = {
                "depth_events": q.depth_events,
                "depth_batches": q.depth_batches,
                "capacity_events": q.capacity_events,
                "enqueued_batches": q.enqueued_batches,
                "applied_batches": q.applied_batches,
                "backpressure_rejections": q.backpressure_rejections,
                "snapshots": q.snapshots,
                "snapshot_failures": q.snapshot_failures,
            }
        hist = self.registry.histogram("serve.request_seconds")
        if hist is not None and len(hist):
            payload["latency"] = hist.summary()
        status_counts = {
            band: self.registry.counter_value(f"serve.status.{band}")
            for band in ("2xx", "4xx", "5xx")
        }
        if any(status_counts.values()):
            payload["status"] = status_counts
        return 200, payload

    def _decode_events(self, body: bytes) -> list:
        if not body:
            raise _BadRequest("ingest body is empty")
        text = body.decode("utf-8", errors="replace").strip()
        if text.startswith("["):
            try:
                events = json.loads(text)
            except ValueError as exc:
                raise _BadRequest(f"invalid JSON body: {exc}")
            if not isinstance(events, list):
                raise _BadRequest("ingest JSON body must be an array")
            return events
        return self.state.parse_jsonl(text.splitlines())

    def ingest(self, body: bytes, params: Optional[dict] = None) -> tuple[int, dict]:
        events = self._decode_events(body)
        dry = _one(params or {}, "dry") in ("1", "true")
        # horizon must cover queued-but-unapplied events, so take the
        # batch's own projection where the async path has one.
        horizon = self.state.horizon_day
        if self.ingester is not None:
            batch = (
                self.ingester.validate_only(events)
                if dry
                else self.ingester.submit(events)
            )
            result = batch.result()
            horizon = max(horizon, batch.horizon_day)
        elif dry:
            batch = self.state.validate_events(events)
            result = batch.result()
            horizon = max(horizon, batch.horizon_day)
        else:
            result = self.state.ingest(events)
            horizon = self.state.horizon_day
        if not dry:
            self.registry.inc("serve.ingested_events", result.accepted)
            self.registry.inc("serve.ingest_batches")
        return 200, {
            "accepted": result.accepted,
            "deduplicated": result.deduplicated,
            "dry": dry,
            "horizon_day": horizon,
        }

    def flush(self) -> tuple[int, dict]:
        if self.ingester is not None:
            self.ingester.flush()
            applied = self.ingester.stats().applied_batches
        else:
            applied = self.registry.counter_value("serve.ingest_batches")
        return 200, {"flushed": True, "applied_batches": applied}


class _Handler(BaseHTTPRequestHandler):
    """The socket-facing shell around :class:`ServeApp`."""

    protocol_version = "HTTP/1.1"
    # One buffered write per response + no Nagle: without these, the
    # status line / headers / body go out as separate small segments and
    # Nagle + delayed-ACK adds ~40ms per keep-alive round trip, capping
    # a persistent client at ~25 QPS no matter how fast the handler is.
    wbufsize = -1
    disable_nagle_algorithm = True
    app: ServeApp  # set by start_server on the subclass

    def _respond(
        self, status: int, payload: dict, extra: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        status, payload, headers = self.app.handle_full(method, self.path, body)
        self._respond(status, payload, headers)
        if method == "POST" and self.path.split("?")[0].rstrip("/") == "/v1/shutdown":
            # shutdown() must run off the serve thread or it deadlocks.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # per-request lines go to the metrics registry, not stderr


class ServeHandle:
    """A running server: its address, app, and lifecycle."""

    def __init__(self, server: ThreadingHTTPServer, app: ServeApp, thread: threading.Thread):
        self.server = server
        self.app = app
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the serve loop exits (shutdown endpoint/close)."""
        self.thread.join(timeout)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        if self.app.ingester is not None:
            self.app.ingester.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server(
    state: ServeState,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    ingester: Optional[AsyncIngester] = None,
    worker_id: Optional[int] = None,
) -> ServeHandle:
    """Start the daemon on a background thread; ``port=0`` picks a free one."""
    app = ServeApp(state, registry, ingester=ingester, worker_id=worker_id)
    handler = type("ServeHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="fgcs-serve", daemon=True
    )
    thread.start()
    return ServeHandle(server, app, thread)
