"""Horizontal scale-out: the fleet backend and its worker supervision.

A single serve process tops out on one GIL: the accept loop, the JSON
codec, and the fleet sweeps all contend for the same interpreter, so
throughput saturates long before the hardware does (the classic
single-process collapse the multicore-OS literature documents).
``serve --workers N`` keeps the front — the route table, parsing, error
contract and telemetry of :class:`~repro.serve.server.ServeApp` — and
spreads the *state* across processes behind it:

* ``start_router(store, n_workers=N)`` partitions the store's shards
  into N contiguous runs and **spawns one worker process per run** —
  each a :func:`~repro.serve.server.start_server` daemon whose
  :class:`~repro.serve.state.ServeState` owns exactly that machine
  range (the per-shard count blocks are already independent, so the
  partition is free).  Workers use the ``spawn`` start method: a fresh
  interpreter, picklable specs, and safe respawn while router threads
  run.
* :class:`FleetBackend` is the front's backend over the workers: point
  queries (``availability``, single-owner ``ingest``) go to the owning
  worker over persistent per-thread upstream connections; fleet-wide
  ``capacity``/``rank`` scatter to every worker in parallel and merge
  vectorized (integer partial sums and a global ``(-survival, machine)``
  sort — exactly the single-process answer, see ``docs/serving.md``).
  It holds *no* predictor state; its "now" is the fleet horizon, and
  every forwarded query names its day explicitly.
* A **supervisor thread** watches worker processes.  A dead worker
  (crash, SIGKILL) marks its machine range down — requests for it get
  503 + ``Retry-After`` *for that range only*; everything else keeps
  serving — and is respawned from the store (plus its overlay snapshot,
  when snapshots are on).  Worker ports and boot horizons are handed
  back over a pipe, so respawns rebind freely.

Cross-worker ingest batches keep the atomic-batch contract by a
two-phase protocol under a router-wide ingest lock: every owner
validates its slice (``?dry=1``) against its effective tails, and only
when all slices pass does the router commit them (retrying transient
429s).  A worker that dies *between* the phases can leave a batch
partially applied across workers — the same window a crashed
single-process daemon has between accepting and snapshotting — but
per-machine ordering can never be violated.  Single-owner batches (the
common case when producers shard their streams the same way) skip the
lock and both phases.
"""

from __future__ import annotations

import bisect
import json
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence
from urllib.parse import urlencode

import numpy as np

from ..errors import RangeUnavailableError, ServeError
from ..obs.metrics import MetricsRegistry
from ..traces.shards import ShardedTraceDataset
from .server import PATHS, ROUTES, Reply, ServeApp, ServeHandle, serve_app
from .state import parse_event

__all__ = [
    "FleetBackend",
    "WorkerSpec",
    "start_router",
    "worker_main",
]

#: How long a worker gets to bind its port and report back.
_BOOT_TIMEOUT_S = 60.0
#: Supervisor poll cadence.
_POLL_S = 0.2
#: Retry-After hint the router sends for a down machine range.
_DOWN_RETRY_AFTER = 1.0


# -- worker process ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    worker_id: int
    store_root: str
    shard_lo: int
    shard_hi: int
    host: str = "127.0.0.1"
    block_machines: Optional[int] = None
    hot_shards: Optional[int] = None
    hot_bytes: Optional[int] = None
    history_days: int = 8
    statistic: str = "mean"
    laplace: float = 0.5
    verify: bool = True
    ingest_queue: int = 100_000
    snapshot_dir: Optional[str] = None
    snapshot_every: Optional[int] = None

    @property
    def snapshot_path(self) -> Optional[str]:
        if self.snapshot_dir is None:
            return None
        return f"{self.snapshot_dir}/worker{self.worker_id}.npz"


def worker_main(spec: WorkerSpec, conn) -> None:
    """Entry point of one spawned shard worker (blocks until shutdown)."""
    from pathlib import Path

    from ..traces.shards import open_shards
    from .ingest import AsyncIngester
    from .server import start_server
    from .state import ServeState

    store = open_shards(spec.store_root, verify=spec.verify)
    state = ServeState.from_store(
        store,
        shard_range=(spec.shard_lo, spec.shard_hi),
        hot_shards=spec.hot_shards,
        hot_bytes=spec.hot_bytes,
        block_machines=spec.block_machines,
        history_days=spec.history_days,
        statistic=spec.statistic,
        laplace=spec.laplace,
        verify=spec.verify,
    )
    snapshot_fn = None
    if spec.snapshot_path is not None:
        snap = Path(spec.snapshot_path)
        if snap.exists():
            state.restore_overlay_snapshot(snap)
        snapshot_fn = lambda: state.save_overlay_snapshot(snap)  # noqa: E731
    ingester = AsyncIngester(
        state,
        max_pending_events=spec.ingest_queue,
        snapshot_every=spec.snapshot_every,
        snapshot_fn=snapshot_fn,
    )
    registry = MetricsRegistry()
    handle = start_server(
        state,
        host=spec.host,
        port=0,
        registry=registry,
        ingester=ingester,
        worker_id=spec.worker_id,
    )
    conn.send((handle.port, state.horizon_day))
    conn.close()
    try:
        handle.wait()  # until POST /v1/shutdown stops the serve loop
    finally:
        handle.close()


# -- upstream connections ------------------------------------------------------


class _Upstream:
    """One persistent raw-socket HTTP/1.1 connection to a worker.

    ``http.client`` parses response headers through ``email.parser`` —
    measurable milliseconds per response, which a one-GIL router paying
    it on *every* forwarded request cannot afford.  This speaks just the
    subset the workers emit: status line, ``\\r\\n`` headers,
    ``Content-Length`` bodies over a buffered socket file.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")
        self._host_header = f"{host}:{port}".encode("ascii")

    def close(self) -> None:
        try:
            self._rfile.close()
            self.sock.close()
        except OSError:
            pass

    def request(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, bytes]:
        """Returns ``(status, lowercased_headers, body_bytes)``."""
        head = (
            f"{method} {target} HTTP/1.1\r\n".encode("ascii")
            + b"Host: " + self._host_header + b"\r\n"
            + b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
            + (b"Content-Type: application/json\r\n" if body else b"")
            + b"\r\n"
        )
        self.sock.sendall(head + body)
        status_line = self._rfile.readline()
        if not status_line:
            raise ConnectionError("upstream closed the connection")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed upstream status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("upstream closed mid-headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        length = int(headers.get("content-length") or 0)
        payload = self._rfile.read(length) if length else b""
        if length and len(payload) < length:
            raise ConnectionError("upstream closed mid-body")
        return status, headers, payload


def _range_down(worker: "WorkerHandle") -> RangeUnavailableError:
    """The 503 for a worker's machine range while it is down."""
    return RangeUnavailableError(
        f"machine range [{worker.machine_lo}, {worker.machine_hi}) is "
        f"temporarily unavailable (worker {worker.spec.worker_id} "
        "restarting); retry shortly",
        retry_after=_DOWN_RETRY_AFTER,
    )


# -- supervision ---------------------------------------------------------------


class WorkerHandle:
    """One worker's process, address, and up/down status."""

    def __init__(self, spec: WorkerSpec, machine_lo: int, machine_hi: int):
        self.spec = spec
        self.machine_lo = machine_lo
        self.machine_hi = machine_hi
        self.process = None
        self.port: Optional[int] = None
        #: The horizon the worker is known to hold: its boot horizon,
        #: raised by its ingest answers and by horizon syncs.
        self.horizon_day = 0
        #: Bumped on every (re)spawn so pooled connections self-invalidate.
        self.generation = 0
        self.down = True
        self.respawns = -1  # first spawn brings it to 0
        self.lock = threading.Lock()


class WorkerSupervisor:
    """Spawns the worker fleet, watches it, respawns the fallen."""

    def __init__(self, specs: Sequence[WorkerSpec], ranges: Sequence[tuple]):
        self._ctx = multiprocessing.get_context("spawn")
        self.workers = [
            WorkerHandle(spec, lo, hi)
            for spec, (lo, hi) in zip(specs, ranges)
        ]
        self._machine_los = [w.machine_lo for w in self.workers]
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        for worker in self.workers:
            self._spawn(worker)
        self._thread = threading.Thread(
            target=self._watch, name="fgcs-supervisor", daemon=True
        )
        self._thread.start()

    def _spawn(self, worker: WorkerHandle) -> None:
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker.spec, child),
            name=f"fgcs-worker-{worker.spec.worker_id}",
            daemon=True,
        )
        process.start()
        child.close()
        if not parent.poll(_BOOT_TIMEOUT_S):
            process.terminate()
            raise ServeError(
                f"worker {worker.spec.worker_id} did not report a port "
                f"within {_BOOT_TIMEOUT_S:.0f}s"
            )
        port, horizon_day = parent.recv()
        parent.close()
        with worker.lock:
            worker.process = process
            worker.port = port
            worker.horizon_day = horizon_day
            worker.generation += 1
            worker.respawns += 1
            worker.down = False

    def _watch(self) -> None:
        while not self._closing.is_set():
            for worker in self.workers:
                if self._closing.is_set():
                    break
                process = worker.process
                if process is not None and not process.is_alive():
                    with worker.lock:
                        worker.down = True
                    try:
                        self._spawn(worker)
                    except Exception:
                        # Boot failed; stays down, retried next poll.
                        with worker.lock:
                            worker.down = True
            self._closing.wait(_POLL_S)

    def worker_for_machine(self, machine_id: int) -> WorkerHandle:
        lo = self.workers[0].machine_lo
        hi = self.workers[-1].machine_hi
        if not lo <= machine_id < hi:
            raise ServeError(
                f"unknown machine {machine_id} (fleet is [{lo}, {hi}))"
            )
        return self.workers[bisect.bisect_right(self._machine_los, machine_id) - 1]

    def close(self, timeout: float = 10.0) -> None:
        self._closing.set()
        if self._thread is not None:
            self._thread.join(timeout)
        for worker in self.workers:
            process, port = worker.process, worker.port
            if process is None or not process.is_alive():
                continue
            try:
                up = _Upstream("127.0.0.1", port, timeout=5.0)
                up.request("POST", PATHS["shutdown"], b"")
                up.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            process = worker.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)


# -- the fleet backend ---------------------------------------------------------


def _target(name: str, **params) -> str:
    """A worker request target for endpoint ``name``."""
    return f"{PATHS[name]}?{urlencode(params)}" if params else PATHS[name]


def _ok(reply: tuple[int, dict, dict]) -> dict:
    """A worker's 200 payload; any other answer is passed through."""
    status, payload, headers = reply
    if status != 200:
        raise Reply(status, payload, headers)
    return payload


class FleetBackend:
    """Answers from the worker fleet (the ``--workers N`` backend of
    :class:`~repro.serve.server.ServeApp`).

    Holds no predictor state: point queries go to the owning worker over
    persistent per-thread upstream connections, fleet sweeps scatter to
    every worker in parallel and merge exactly.

    Its "now" is the fleet horizon — the max of every worker's boot-time
    horizon and every ingest answer's.  A worker's answers depend on its
    horizon too (it bounds the history days), so before a request goes
    to a worker that is behind, the worker is told the fleet horizon
    through its ingest queue (``POST /v1/ingest?horizon=H``, no events);
    every forwarded query also names its ``day`` explicitly.
    """

    def __init__(self, supervisor: WorkerSupervisor, n_machines: int) -> None:
        self.supervisor = supervisor
        self.n_machines = n_machines
        self._local = threading.local()
        self._ingest_lock = threading.Lock()
        self._horizon_lock = threading.Lock()
        self._horizon = max(w.horizon_day for w in supervisor.workers)
        self._final_stats: Optional[dict] = None

    @property
    def horizon_day(self) -> int:
        return self._horizon

    def _advance(self, horizon: int) -> None:
        with self._horizon_lock:
            self._horizon = max(self._horizon, horizon)

    def _learned(self, worker: WorkerHandle, horizon: int) -> None:
        with worker.lock:
            worker.horizon_day = max(worker.horizon_day, horizon)

    # -- forwarding -----------------------------------------------------------

    def _upstream(self, worker: WorkerHandle) -> _Upstream:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        cached = pool.get(worker.spec.worker_id)
        if cached is not None and cached[0] == worker.generation:
            return cached[1]
        if cached is not None:
            cached[1].close()
        upstream = _Upstream("127.0.0.1", worker.port)
        pool[worker.spec.worker_id] = (worker.generation, upstream)
        return upstream

    def _drop_upstream(self, worker: WorkerHandle) -> None:
        pool = getattr(self._local, "pool", None)
        if pool is not None:
            cached = pool.pop(worker.spec.worker_id, None)
            if cached is not None:
                cached[1].close()

    def forward(
        self, worker: WorkerHandle, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        """Forward one request to a worker, first bringing the worker up
        to the fleet horizon if it is behind (after an ingest elsewhere,
        or a respawn)."""
        horizon = self._horizon
        if worker.horizon_day < horizon:
            sync = _target("ingest", horizon=horizon)
            _ok(self._send(worker, "POST", sync, b"[]"))
            self._learned(worker, horizon)
        return self._send(worker, method, target, body)

    def _send(
        self, worker: WorkerHandle, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        """One request to a worker; reconnect once, then mark the range
        down."""
        with worker.lock:
            down = worker.down
        if down:
            raise _range_down(worker)
        for attempt in (0, 1):
            try:
                upstream = self._upstream(worker)
                status, headers, payload = upstream.request(method, target, body)
                break
            except (OSError, ConnectionError):
                self._drop_upstream(worker)
                if attempt:
                    # Two strikes: the worker is gone (the supervisor
                    # will notice the corpse and respawn it); fail only
                    # this machine range.
                    with worker.lock:
                        worker.down = True
                    raise _range_down(worker)
        try:
            decoded = json.loads(payload) if payload else {}
        except ValueError:
            decoded = {"error": payload.decode("utf-8", errors="replace")}
        out_headers = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        return status, decoded, out_headers

    def _gather(self, name: str, **params) -> list[dict]:
        """Ask every worker in parallel; every range must answer 200
        (fleet answers are whole or not at all)."""
        target = _target(name, **params)
        method = ROUTES[PATHS[name]][0]
        workers = self.supervisor.workers
        results: list = [None] * len(workers)

        def fetch(i: int, worker: WorkerHandle) -> None:
            try:
                results[i] = self.forward(worker, method, target)
            except ServeError as exc:
                results[i] = exc

        if len(workers) == 1:
            fetch(0, workers[0])
        else:
            threads = [
                threading.Thread(target=fetch, args=(i, w), daemon=True)
                for i, w in enumerate(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for result in results:
            if isinstance(result, ServeError):
                raise result
        return [_ok(result) for result in results]

    # -- endpoints ------------------------------------------------------------

    def health(self) -> dict:
        workers = []
        for w in self.supervisor.workers:
            with w.lock:
                down, respawns = w.down, w.respawns
            workers.append(
                {
                    "worker": w.spec.worker_id,
                    "up": not down,
                    "machine_lo": w.machine_lo,
                    "machine_hi": w.machine_hi,
                    "respawns": respawns,
                }
            )
        return {
            "ready": all(w["up"] for w in workers),
            "role": "router",
            "n_machines": self.n_machines,
            "horizon_day": self.horizon_day,
            "workers": workers,
        }

    def availability(self, machine: int, day: int, hour: float, duration: float) -> dict:
        worker = self.supervisor.worker_for_machine(machine)
        target = _target(
            "availability", machine=machine, day=day, hour=hour, duration=duration
        )
        return _ok(self.forward(worker, "GET", target))

    def capacity(self, day: int, hour: float, duration: float, threshold: float) -> dict:
        parts = self._gather(
            "capacity", day=day, hour=hour, duration=duration, threshold=threshold
        )
        available = sum(p["available"] for p in parts)
        survival_sum = sum(p["survival_sum"] for p in parts)
        return {
            "available": available,
            "n_machines": self.n_machines,
            "owned": self.n_machines,
            "machine_lo": 0,
            "machine_hi": self.n_machines,
            "fraction": available / self.n_machines,
            "threshold": parts[0]["threshold"],
            "mean_survival": survival_sum / self.n_machines,
            "survival_sum": survival_sum,
            "workers": len(parts),
        }

    def rank(self, day: int, hour: float, duration: float, k: int) -> list:
        parts = self._gather("rank", day=day, hour=hour, duration=duration, k=k)
        machines = np.array(
            [m["machine"] for p in parts for m in p["machines"]], dtype=np.int64
        )
        survivals = np.array(
            [m["survival"] for p in parts for m in p["machines"]], dtype=float
        )
        # The global top-k is inside the union of per-worker top-ks;
        # lexsort's last key is primary: descending survival, then
        # ascending machine id — the single-process tie-break.
        order = np.lexsort((machines, -survivals))[:k]
        return [
            {"machine": int(machines[i]), "survival": float(survivals[i])}
            for i in order
        ]

    def stats(self) -> dict:
        lanes = []
        totals = {
            "requests": 0,
            "streamed_events": 0,
            "deduplicated_events": 0,
            "queue_depth_events": 0,
            "backpressure_rejections": 0,
            "rebuilds": 0,
            "evictions": 0,
            "hits": 0,
            "resident_bytes": 0,
        }
        for worker in self.supervisor.workers:
            try:
                status, payload, _ = self.forward(worker, "GET", PATHS["stats"])
            except ServeError:
                status = None
            if status != 200:
                lanes.append({"worker": worker.spec.worker_id, "up": False})
                continue
            lanes.append({**payload, "up": True})
            totals["requests"] += payload.get("requests", 0)
            tier = payload.get("tier", {})
            for key in ("rebuilds", "evictions", "hits", "resident_bytes"):
                totals[key] += tier.get(key, 0)
            ingest = payload.get("ingest", {})
            totals["streamed_events"] += ingest.get("streamed_events", 0)
            totals["deduplicated_events"] += ingest.get(
                "deduplicated_events", 0
            )
            queue = ingest.get("queue", {})
            totals["queue_depth_events"] += queue.get("depth_events", 0)
            totals["backpressure_rejections"] += queue.get(
                "backpressure_rejections", 0
            )
        return {
            "role": "router",
            "n_machines": self.n_machines,
            "horizon_day": self.horizon_day,
            "workers": lanes,
            "totals": totals,
        }

    def ingest(self, events: list, dry: bool, horizon: int) -> dict:
        slices: dict[WorkerHandle, list] = {}
        for event in events:
            owner = self.supervisor.worker_for_machine(
                parse_event(event, self.n_machines).machine_id
            )
            slices.setdefault(owner, []).append(event)
        bodies = {
            worker: json.dumps(part).encode("utf-8")
            for worker, part in slices.items()
        }
        dry_target = _target("ingest", dry=1)
        if len(bodies) == 1:
            # Single owner: the worker's own validate+enqueue is already
            # atomic; its 409s and 429 backpressure pass straight through.
            [(worker, body)] = bodies.items()
            target = dry_target if dry else PATHS["ingest"]
            parts = [_ok(self.forward(worker, "POST", target, body))]
        else:
            # Cross-worker batch: two phases under the ingest lock so
            # concurrent batches cannot interleave between validate and
            # commit.  Phase 1 dry-runs every slice; any rejection
            # rejects the whole batch with nothing applied anywhere.
            with self._ingest_lock:
                parts = [
                    _ok(self.forward(worker, "POST", dry_target, body))
                    for worker, body in bodies.items()
                ]
                if not dry:
                    parts = [
                        _ok(self._commit_slice(worker, body))
                        for worker, body in bodies.items()
                    ]
        horizon = max([horizon, *(p["horizon_day"] for p in parts)])
        if not dry:
            for worker, part in zip(bodies, parts):
                self._learned(worker, part["horizon_day"])
            self._advance(horizon)
        return {
            "accepted": sum(p["accepted"] for p in parts),
            "deduplicated": sum(p["deduplicated"] for p in parts),
            "dry": dry,
            "horizon_day": max(self.horizon_day, horizon),
            "workers": len(parts),
        }

    def _commit_slice(
        self, worker: WorkerHandle, slice_body: bytes, deadline_s: float = 30.0
    ) -> tuple[int, dict, dict]:
        """Commit one validated slice, waiting out transient 429s."""
        deadline = time.monotonic() + deadline_s
        while True:
            status, payload, headers = self.forward(
                worker, "POST", PATHS["ingest"], slice_body
            )
            if status != 429 or time.monotonic() >= deadline:
                return status, payload, headers
            time.sleep(
                min(float(payload.get("retry_after", 0.25)), 1.0)
            )

    def flush(self) -> dict:
        parts = self._gather("flush")
        return {
            "flushed": True,
            "applied_batches": sum(p.get("applied_batches", 0) for p in parts),
        }

    def close(self) -> None:
        """Record the workers' final lanes, then stop the fleet."""
        try:
            self._final_stats = self.stats()
        except Exception:
            self._final_stats = {"workers": [], "totals": {}}
        self.supervisor.close()

    def summary(self, duration_s: float) -> dict:
        """The manifest's role-specific ``serve`` keys (after :meth:`close`)."""
        final = self._final_stats or {"workers": [], "totals": {}}
        lanes = []
        for lane in final["workers"]:
            requests = lane.get("requests", 0)
            entry = {
                "worker": lane.get("worker"),
                "up": lane.get("up", False),
                "machine_lo": lane.get("machine_lo"),
                "machine_hi": lane.get("machine_hi"),
                "requests": requests,
                "qps": round(requests / duration_s, 3) if duration_s > 0 else 0.0,
            }
            for key in ("latency", "tier", "ingest"):
                if lane.get(key):
                    entry[key] = lane[key]
            lanes.append(entry)
        return {
            "role": "router",
            "horizon_day": final.get("horizon_day", self._horizon),
            "n_workers": len(self.supervisor.workers),
            "workers": lanes,
            "totals": final["totals"],
        }


# -- lifecycle -----------------------------------------------------------------


def partition_shards(n_shards: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous shard runs, sizes differing by at most one."""
    if n_workers < 1:
        raise ServeError("n_workers must be >= 1")
    n_workers = min(n_workers, n_shards)
    base, extra = divmod(n_shards, n_workers)
    runs = []
    lo = 0
    for w in range(n_workers):
        hi = lo + base + (1 if w < extra else 0)
        runs.append((lo, hi))
        lo = hi
    return runs


def start_router(
    store: ShardedTraceDataset,
    store_root: str,
    *,
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    block_machines: Optional[int] = None,
    hot_shards: Optional[int] = None,
    hot_bytes: Optional[int] = None,
    history_days: int = 8,
    statistic: str = "mean",
    laplace: float = 0.5,
    verify: bool = True,
    ingest_queue: int = 100_000,
    snapshot_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
) -> ServeHandle:
    """Spawn the worker fleet and start the front over it on a thread.

    ``n_workers`` is clamped to the shard count (a worker needs at least
    one shard).  Workers always bind loopback; only the router binds
    ``host``.
    """
    runs = partition_shards(store.n_shards, n_workers)
    specs = []
    ranges = []
    for worker_id, (lo, hi) in enumerate(runs):
        specs.append(
            WorkerSpec(
                worker_id=worker_id,
                store_root=str(store_root),
                shard_lo=lo,
                shard_hi=hi,
                block_machines=block_machines,
                hot_shards=hot_shards,
                hot_bytes=hot_bytes,
                history_days=history_days,
                statistic=statistic,
                laplace=laplace,
                verify=verify,
                ingest_queue=ingest_queue,
                snapshot_dir=snapshot_dir,
                snapshot_every=snapshot_every,
            )
        )
        ranges.append(
            (
                store.manifest.shards[lo].machine_lo,
                store.manifest.shards[hi - 1].machine_hi,
            )
        )
    supervisor = WorkerSupervisor(specs, ranges)
    supervisor.start()
    app = ServeApp(FleetBackend(supervisor, store.n_machines), registry)
    try:
        return serve_app(app, host=host, port=port)
    except BaseException:
        supervisor.close()
        raise
