"""The serving front: one route table and HTTP shell over two backends.

``repro-fgcs serve`` and ``serve --workers N`` answer through the same
front, so they cannot drift apart:

* :class:`ServeApp` — a pure request router: ``(method, path, params,
  body) -> (status, payload, headers)``.  The route table
  (:data:`ROUTES`), parameter and window parsing, the ingest body
  decoder (:func:`decode_events`), the exception → status map and the
  request telemetry all live here, exercisable without sockets.  What
  an endpoint *answers from* is the backend's business:

  - :class:`LocalBackend` — a :class:`~repro.serve.state.ServeState`
    plus its :class:`~repro.serve.ingest.AsyncIngester`: the
    single-process daemon, and each scale-out worker (``worker_id``
    set, state built with a ``shard_range``);
  - :class:`~repro.serve.router.FleetBackend` — the worker fleet behind
    ``--workers N``: point queries forwarded to the owner, fleet sweeps
    scattered and merged exactly.

* :class:`_Handler` + :func:`serve_app` — the thin :mod:`http.server`
  shell: a :class:`~http.server.ThreadingHTTPServer` speaking HTTP/1.1
  keep-alive (persistent connections are what make four-digit QPS
  reachable from a handful of client threads), one daemon thread per
  connection, JSON in/out with ``Content-Length``.  :func:`start_server`
  runs it over a local backend, :func:`~repro.serve.router.start_router`
  over the fleet; both return a :class:`ServeHandle`.

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
                                 ``?dry=1`` validates without applying,
                                 ``?horizon=H`` marks days < H observed)
POST   ``/v1/flush``             block until queued ingest is applied
POST   ``/v1/shutdown``          graceful stop
====== ========================= ==========================================

"Now" — the default ``day`` — is resolved once, by the front, from the
backend's horizon: the first day after every accepted event.  For the
fleet that is the whole fleet's horizon, not the answering worker's, and
every worker is told it (``POST /v1/ingest?horizon=H``) before it
answers, so a day one worker has events for is observed on all of them.

Writes have one path: ``POST /v1/ingest`` validates synchronously and
applies through the ingest queue; read-your-writes is ingest +
``POST /v1/flush``.

Error contract: unknown machine → 404; a machine outside this worker's
range → 421 (misdirected; the router owns the machine→worker map);
malformed or missing parameters (including an invalid window, via
:class:`~repro.errors.PredictionError`) → 400; queries before any data
exists → 503; a scale-out worker's range down → 503 with
``Retry-After``; ingest ordering violations → 409; ingest-queue
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
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    IngestBackpressureError,
    IngestOrderError,
    NoHistoryError,
    PredictionError,
    RangeUnavailableError,
    ServeError,
    WorkerRangeError,
)
from ..obs.metrics import MetricsRegistry
from ..prediction.base import PredictionQuery
from .ingest import AsyncIngester
from .state import ServeState

__all__ = [
    "LocalBackend",
    "PATHS",
    "ROUTES",
    "Reply",
    "ServeApp",
    "ServeHandle",
    "decode_events",
    "serve_app",
    "start_server",
]

#: The one route table: path -> (method, endpoint name).
ROUTES = {
    "/healthz": ("GET", "healthz"),
    "/v1/availability": ("GET", "availability"),
    "/v1/capacity": ("GET", "capacity"),
    "/v1/rank": ("GET", "rank"),
    "/v1/stats": ("GET", "stats"),
    "/v1/ingest": ("POST", "ingest"),
    "/v1/flush": ("POST", "flush"),
    "/v1/shutdown": ("POST", "shutdown"),
}
#: Endpoint name -> path, for backends that forward requests.
PATHS = {name: path for path, (_, name) in ROUTES.items()}


class _BadRequest(ServeError):
    """Parameter-level 400 (internal to the front)."""


class Reply(ServeError):
    """A complete response a backend has already decided — an upstream
    worker's non-200 answer, passed through verbatim."""

    def __init__(self, status: int, payload: dict, headers: Optional[dict] = None):
        super().__init__(payload.get("error", f"upstream status {status}"))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


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


def decode_events(body: bytes) -> list:
    """An ingest body's events: a JSON array, or JSONL (one event per
    non-blank line; a bad line is reported by its 1-based number)."""
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
    events = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError as exc:
            raise _BadRequest(f"ingest line {i}: invalid JSON: {exc}")
    return events


class LocalBackend:
    """Answers from one in-process :class:`ServeState`; writes go through
    its :class:`AsyncIngester` (one is made if none is given)."""

    def __init__(
        self,
        state: ServeState,
        ingester: Optional[AsyncIngester] = None,
        worker_id: Optional[int] = None,
    ) -> None:
        self.state = state
        self.ingester = ingester if ingester is not None else AsyncIngester(state)
        self.worker_id = worker_id

    @property
    def n_machines(self) -> int:
        return self.state.n_machines

    @property
    def horizon_day(self) -> int:
        return self.ingester.horizon_day

    def _tagged(self, payload: dict) -> dict:
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return payload

    def health(self) -> dict:
        return self._tagged(
            {
                "ready": self.state.ready,
                "n_machines": self.state.n_machines,
                "machine_lo": self.state.machine_lo,
                "machine_hi": self.state.machine_hi,
                "horizon_day": self.horizon_day,
            }
        )

    def availability(self, machine: int, day: int, hour: float, duration: float) -> dict:
        survival, expected = self.state.forecast(
            PredictionQuery(
                machine_id=machine, day=day, start_hour=hour, duration_hours=duration
            )
        )
        return {"survival": survival, "expected_events": expected}

    def capacity(self, day: int, hour: float, duration: float, threshold: float) -> dict:
        return self.state.capacity(day, hour, duration, threshold=threshold)

    def rank(self, day: int, hour: float, duration: float, k: int) -> list:
        return [
            {"machine": m, "survival": s}
            for m, s in self.state.rank(day, hour, duration, k=k)
        ]

    def stats(self) -> dict:
        tier = asdict(self.state.tier_stats())
        ingest = {
            key: tier.pop(key)
            for key in ("streamed_events", "deduplicated_events", "overlay_cells")
        }
        ingest["queue"] = asdict(self.ingester.stats())
        return self._tagged(
            {
                "n_machines": self.state.n_machines,
                "machine_lo": self.state.machine_lo,
                "machine_hi": self.state.machine_hi,
                "base_days": self.state.base_n_days,
                "horizon_day": self.horizon_day,
                "ready": self.state.ready,
                "history_days": self.state.history_days,
                "statistic": self.state.statistic,
                "laplace": self.state.laplace,
                "tier": tier,
                "ingest": ingest,
            }
        )

    def ingest(self, events: list, dry: bool, horizon: int) -> dict:
        submit = self.ingester.validate_only if dry else self.ingester.submit
        batch = submit(events, horizon)
        return {
            "accepted": batch.n_accepted,
            "deduplicated": batch.deduplicated,
            "dry": dry,
            "horizon_day": max(self.horizon_day, batch.horizon_day),
        }

    def flush(self) -> dict:
        self.ingester.flush()
        return {"flushed": True, "applied_batches": self.ingester.stats().applied_batches}

    def close(self) -> None:
        self.ingester.close()

    def summary(self, duration_s: float) -> dict:
        """The manifest's role-specific ``serve`` keys (after :meth:`close`)."""
        stats = self.stats()
        return {key: stats[key] for key in ("horizon_day", "tier", "ingest")}


class ServeApp:
    """Routes parsed requests to a backend.

    No sockets of its own — the HTTP shell, the ``--stdin`` reader and
    the test suite all drive :meth:`handle`.  ``ServeApp(state)`` serves
    one :class:`ServeState` through a :class:`LocalBackend` (with
    ``ingester`` as its write queue, or a new one); any other first
    argument is taken as the backend itself.
    """

    def __init__(
        self,
        backend,
        registry: Optional[MetricsRegistry] = None,
        *,
        ingester: Optional[AsyncIngester] = None,
        worker_id: Optional[int] = None,
    ) -> None:
        if isinstance(backend, ServeState):
            backend = LocalBackend(backend, ingester, worker_id)
        self.backend = backend
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._started = time.time()
        self._routes = {
            path: (method, getattr(self, f"_{name}"))
            for path, (method, name) in ROUTES.items()
        }

    def close(self) -> None:
        self.backend.close()

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
        except Reply as exc:
            status, payload, headers = exc.status, exc.payload, exc.headers
        except (_BadRequest, PredictionError) as exc:
            status, payload = 400, {"error": str(exc)}
        except IngestOrderError as exc:
            status, payload = 409, {"error": str(exc)}
        except IngestBackpressureError as exc:
            status, payload, headers = self._retry_later(
                429, exc, "serve.ingest_backpressure"
            )
        except RangeUnavailableError as exc:
            status, payload, headers = self._retry_later(
                503, exc, "serve.range_unavailable"
            )
        except NoHistoryError as exc:
            message = str(exc)
            status = 503 if "no data ingested" in message else 422
            payload = {"error": message}
        except WorkerRangeError as exc:
            status, payload = 421, {"error": str(exc)}
        except ServeError as exc:
            message = str(exc)
            status = 404 if "unknown machine" in message else 400
            payload = {"error": message}
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t0
        name = path.rsplit("/", 1)[-1] or "root"
        self.registry.inc("serve.requests")
        self.registry.inc(f"serve.status.{status // 100}xx")
        self.registry.observe("serve.request_seconds", dt)
        self.registry.observe(f"serve.request_seconds.{name}", dt)
        return status, payload, headers

    def _retry_later(self, status: int, exc, counter: str) -> tuple[int, dict, dict]:
        """A transient refusal: ``retry_after`` in the body and header."""
        self.registry.inc(counter)
        payload = {"error": str(exc), "retry_after": exc.retry_after}
        return status, payload, {"Retry-After": f"{exc.retry_after:g}"}

    def _route(
        self, method: str, path: str, params: dict, body: bytes
    ) -> tuple[int, dict]:
        route = self._routes.get(path)
        if route is None:
            return 404, {"error": f"no such endpoint {path!r}"}
        if method != route[0]:
            return 405, {"error": f"{method} not allowed on {path}"}
        return 200, route[1](params, body)

    # -- window parsing -------------------------------------------------------

    def _window(self, params: dict) -> tuple[int, float, float]:
        """(day, start_hour, duration_hours) from request parameters.

        ``duration`` is required; ``day``/``hour`` default to "now" —
        midnight of the backend's first unobserved day, the earliest
        window whose history is complete.
        """
        duration = _as_float("duration", _require(params, "duration"))
        day_raw = _one(params, "day")
        hour_raw = _one(params, "hour")
        day = (
            self.backend.horizon_day
            if day_raw is None
            else _as_int("day", day_raw)
        )
        if day < 0:
            raise _BadRequest(f"parameter 'day' must be >= 0, got {day}")
        hour = 0.0 if hour_raw is None else _as_float("hour", hour_raw)
        return day, hour, duration

    # -- endpoints ------------------------------------------------------------

    def _healthz(self, params: dict, body: bytes) -> dict:
        return {
            "ok": True,
            **self.backend.health(),
            "uptime_seconds": time.time() - self._started,
        }

    def _availability(self, params: dict, body: bytes) -> dict:
        machine = _as_int("machine", _require(params, "machine"))
        day, hour, duration = self._window(params)
        return {
            "machine": machine,
            "day": day,
            "hour": hour,
            "duration_hours": duration,
            **self.backend.availability(machine, day, hour, duration),
        }

    def _capacity(self, params: dict, body: bytes) -> dict:
        day, hour, duration = self._window(params)
        threshold_raw = _one(params, "threshold")
        threshold = (
            0.5 if threshold_raw is None else _as_float("threshold", threshold_raw)
        )
        result = self.backend.capacity(day, hour, duration, threshold)
        result.update({"day": day, "hour": hour, "duration_hours": duration})
        return result

    def _rank(self, params: dict, body: bytes) -> dict:
        day, hour, duration = self._window(params)
        k_raw = _one(params, "k")
        k = 10 if k_raw is None else _as_int("k", k_raw)
        return {
            "day": day,
            "hour": hour,
            "duration_hours": duration,
            "machines": self.backend.rank(day, hour, duration, k),
        }

    def _stats(self, params: dict, body: bytes) -> dict:
        payload = self.backend.stats()
        payload["requests"] = self.registry.counter_value("serve.requests")
        hist = self.registry.histogram("serve.request_seconds")
        if hist is not None and len(hist):
            payload["latency"] = hist.summary()
        status_counts = {
            band: self.registry.counter_value(f"serve.status.{band}")
            for band in ("2xx", "4xx", "5xx")
        }
        if any(status_counts.values()):
            payload["status"] = status_counts
        return payload

    def _ingest(self, params: dict, body: bytes) -> dict:
        events = decode_events(body)
        dry = _one(params, "dry") in ("1", "true")
        horizon_raw = _one(params, "horizon")
        horizon = 0 if horizon_raw is None else _as_int("horizon", horizon_raw)
        payload = self.backend.ingest(events, dry, horizon)
        if not dry:
            self.registry.inc("serve.ingested_events", payload["accepted"])
            self.registry.inc("serve.ingest_batches")
        return payload

    def _flush(self, params: dict, body: bytes) -> dict:
        return self.backend.flush()

    def _shutdown(self, params: dict, body: bytes) -> dict:
        return {"stopping": True}  # the HTTP shell stops after replying


class _Handler(BaseHTTPRequestHandler):
    """The socket-facing shell around :class:`ServeApp`."""

    protocol_version = "HTTP/1.1"
    # One buffered write per response + no Nagle: without these, the
    # status line / headers / body go out as separate small segments and
    # Nagle + delayed-ACK adds ~40ms per keep-alive round trip, capping
    # a persistent client at ~25 QPS no matter how fast the handler is.
    wbufsize = -1
    disable_nagle_algorithm = True
    app: ServeApp  # set by serve_app on the subclass

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
        if (
            method == "POST"
            and self.path.split("?")[0].rstrip("/") == PATHS["shutdown"]
        ):
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
    """A running front: its address, app (and so backend), and lifecycle."""

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
        """Stop serving, then close the backend (drain the ingest queue,
        or stop the worker fleet)."""
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.app.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_app(app: ServeApp, *, host: str = "127.0.0.1", port: int = 0) -> ServeHandle:
    """Serve ``app`` over HTTP on a background thread; ``port=0`` picks a
    free one."""
    handler = type("ServeHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="fgcs-serve", daemon=True
    )
    thread.start()
    return ServeHandle(server, app, thread)


def start_server(
    state: ServeState,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    ingester: Optional[AsyncIngester] = None,
    worker_id: Optional[int] = None,
) -> ServeHandle:
    """Start the daemon over one :class:`ServeState` on a background
    thread; ``port=0`` picks a free one."""
    app = ServeApp(state, registry, ingester=ingester, worker_id=worker_id)
    return serve_app(app, host=host, port=port)
