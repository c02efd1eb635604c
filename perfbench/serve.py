"""The serve workloads: a ``repro-fgcs serve`` daemon under load.

Every daemon serves the same seeded 1000-machine x 14-day fleet (8 binary
shards) and differs in its shape and the traffic mix:

* ``serve-point`` — one process, unbounded hot tier, 2 closed-loop
  connections of point ``/v1/availability`` queries, no ingest.
* ``serve-fleet-ingest`` — one process whose ``--hot-mb`` holds half of
  the 8 count blocks; 1 closed-loop reader alternating point and fleet
  (``rank``/``capacity``) queries, plus 1 open-loop ingest connection.
* the router (traced runs of ``serve-fleet-ingest`` only) —
  ``--workers 2`` with every block hot, the same read mix and ingest
  stream; every batch spans both workers.

Answers are checked ``==`` against the batch predictor before load and,
after a final ``/v1/flush``, against the predictor refit over the fleet
plus every acknowledged ingest batch.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field

import fleet as fleet_mod
from harness import (
    Conn,
    Daemon,
    check,
    cli,
    import_seconds,
    median,
    percentile,
    tail_supported,
)

N_MACHINES = 1000
N_DAYS = 14
N_SHARDS = 8
INGEST_RATE = 20  # batches per second, open loop
INGEST_BATCH = 50  # events per batch
SETUP_REPEATS = 3
#: Traced runs of ingest workloads load for at least this long, so the
#: generator-lateness p99 has ten samples beyond it.
TRACE_INGEST_SECONDS = 55.0
POINT_PATH = "/v1/availability?machine={m}&duration=6"
#: Timed runs report medians over windows of this length, so a burst of
#: CPU steal from the host's other tenants moves a few windows, not the run.
WINDOW_S = 1.0
FLEET_PATHS = ("/v1/rank?duration=6&k=10", "/v1/capacity?duration=6")


@dataclass(frozen=True)
class Spec:
    workers: int
    half_budget: bool
    readers: int
    mixed: bool
    ingest: bool


SPECS = {
    "serve-point": Spec(workers=1, half_budget=False, readers=2, mixed=False, ingest=False),
    "serve-fleet-ingest": Spec(workers=1, half_budget=True, readers=1, mixed=True, ingest=True),
}
#: ``--workers 2`` with every block hot, the fleet-ingest read mix and
#: ingest stream.  Not a timed workload: on 2 vCPUs the router, its two
#: workers and the load generator oversubscribe the machine and its
#: figures do not repeat.  Its layer is traced inside the
#: ``serve-fleet-ingest`` traced run instead.
ROUTER = Spec(workers=2, half_budget=False, readers=1, mixed=True, ingest=True)
ROUTER_TRACE_SECONDS = 12.0


@dataclass
class Phase:
    """Operations attempted and failed in one phase of a run."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Load:
    seconds: float
    t_start: float = 0.0
    reads: list = field(default_factory=list)  # (op, t0, t1, status)
    ingests: list = field(default_factory=list)  # (due, sent, acked, status)
    acked: list = field(default_factory=list)  # acknowledged request bodies
    queue_depth_max: int = 0
    steal: list = field(default_factory=list)  # host steal ticks per window

    @property
    def read_qps(self) -> float:
        return sum(len(w) for w in self.windows()) / self.seconds

    @property
    def n_windows(self) -> int:
        return int(self.seconds // WINDOW_S)

    def windows(self) -> list:
        """Successful reads by the whole second of the window they ended in."""
        out = [[] for _ in range(self.n_windows)]
        for read in self.reads:
            k = int((read[2] - self.t_start) // WINDOW_S)
            if read[3] == 200 and 0 <= k < len(out):
                out[k].append(read)
        return out

    def latencies_ms(self, ops) -> list:
        return [1e3 * (t1 - t0) for op, t0, t1, status in self.reads if op in ops and status == 200]

    def ingest_ms(self) -> list:
        """Acknowledged batches, timed from when each was due."""
        return [1e3 * (acked - due) for due, _, acked, status in self.ingests if status == 200]

    def failures(self) -> int:
        bad_reads = sum(1 for r in self.reads if r[3] != 200)
        return bad_reads + sum(1 for i in self.ingests if i[3] != 200)


def host_steal() -> int:
    """Ticks the hypervisor has stolen from this machine's CPUs so far."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def block_bytes(machines_per_shard: int) -> int:
    return machines_per_shard * N_DAYS * 24 * 8


def daemon_argv(spec: Spec) -> list[str]:
    argv = cli("serve", "fleet", "--port", "0", "--workers", str(spec.workers))
    if spec.half_budget:
        half = (N_SHARDS // 2) * block_bytes(N_MACHINES // N_SHARDS) + 512
        argv += ["--hot-mb", f"{half / (1 << 20):.9f}"]
    return argv


def queue_depth(stats: dict) -> int:
    if "totals" in stats:
        return stats["totals"]["queue_depth_events"]
    return stats["ingest"]["queue"]["depth_events"]


# -- load generation -------------------------------------------------------------


def run_load(
    url: str,
    spec: Spec,
    seed: int,
    seconds: float,
    readers: int,
    bodies: list,
    tracer=None,
) -> Load:
    """Closed-loop readers plus, where the spec asks, one open-loop ingest
    connection; every thread has its own persistent connection."""
    stop = threading.Event()
    rids = itertools.count(1)
    t0 = time.perf_counter() + 0.05
    t_end = t0 + seconds
    load = Load(seconds, t0)

    def reader(slot: int) -> None:
        conn = Conn(url)
        rng = random.Random(f"{seed}/{slot}")
        out = []
        time.sleep(max(0.0, t0 - time.perf_counter()))
        for i in itertools.count():
            if stop.is_set():
                break
            if spec.mixed and i % 2:
                path = FLEET_PATHS[(i // 2) % 2]
                op = "rank" if "rank" in path else "capacity"
            else:
                path, op = POINT_PATH.format(m=rng.randrange(N_MACHINES)), "point"
            a = time.perf_counter()
            try:
                status, _ = conn.request("GET", path)
            except (OSError, ValueError) as exc:
                status = 0
                print(f"reader {slot}: {exc!r}", file=sys.stderr)
                conn.close()
            b = time.perf_counter()
            out.append((op, a, b, status))
            if tracer is not None:
                tracer.record(f"loadgen.{op}", a, b, next(rids))
        conn.close()
        load.reads.extend(out)

    def ingester() -> None:
        conn = Conn(url)
        for b, body in enumerate(bodies):
            due = t0 + b / INGEST_RATE
            if due >= t_end or stop.wait(max(0.0, due - time.perf_counter())):
                break
            sent = time.perf_counter()
            try:
                status, _ = conn.request("POST", "/v1/ingest", body)
            except (OSError, ValueError) as exc:
                status = 0
                print(f"ingest: {exc!r}", file=sys.stderr)
                conn.close()
            acked = time.perf_counter()
            load.ingests.append((due, sent, acked, status))
            if status == 200:
                load.acked.append(body)
            if tracer is not None:
                tracer.record("loadgen.ingest", due, acked, next(rids))
            # Sample queue depth twice a second, in the gap before the
            # next batch is due, so sampling never delays the schedule.
            next_due = t0 + (b + 1) / INGEST_RATE
            if b % (INGEST_RATE // 2) == 0 and next_due - time.perf_counter() > 0.02:
                try:
                    status, stats = conn.request("GET", "/v1/stats")
                except (OSError, ValueError):
                    status = 0
                    conn.close()
                if status == 200:
                    load.queue_depth_max = max(load.queue_depth_max, queue_depth(stats))
        conn.close()

    threads = [threading.Thread(target=reader, args=(s,), daemon=True) for s in range(readers)]
    if spec.ingest:
        needed = int(seconds * INGEST_RATE) + 1
        check(len(bodies) >= needed, f"ingest stream holds {len(bodies)} < {needed} batches")
        threads.append(threading.Thread(target=ingester, daemon=True))
    for t in threads:
        t.start()
    try:
        # The main thread reads the host's steal counter at each window
        # boundary while the load threads run.
        marks = []
        for k in range(load.n_windows + 1):
            stop.wait(max(0.0, t0 + k * WINDOW_S - time.perf_counter()))
            marks.append(host_steal())
        load.steal = [b - a for a, b in zip(marks, marks[1:])]
        stop.wait(max(0.0, t_end - time.perf_counter()))
    finally:
        stop.set()
        for t in threads:
            t.join(60.0)
    check(not any(t.is_alive() for t in threads), "load threads did not stop")
    return load


# -- the run ---------------------------------------------------------------------


class ServeRun:
    """Shared set-up: the seeded fleet, its store and the reference."""

    def __init__(self, ctx, spec: Spec, traced: bool) -> None:
        self.ctx, self.spec = ctx, spec
        self.phases: dict[str, Phase] = {}
        self.fleet = fleet_mod.make_fleet(ctx.seed, N_MACHINES, N_DAYS)
        fleet_mod.write_store(self.fleet, ctx.work / "fleet", N_SHARDS)
        load_s = max(ctx.seconds, TRACE_INGEST_SECONDS) if traced and spec.ingest else ctx.seconds
        n_batches = int(load_s * INGEST_RATE) + INGEST_RATE
        self.bodies = (
            fleet_mod.make_ingest_stream(ctx.seed, self.fleet, n_batches, INGEST_BATCH)
            if spec.ingest
            else []
        )
        self.predictor, _ = fleet_mod.fit_reference(self.fleet, [])
        rng = random.Random(f"{ctx.seed}/checks")
        self.check_machines = rng.sample(range(N_MACHINES), 60)
        self.load_seconds = load_s

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def start(self, spec: Spec) -> tuple[Daemon, float]:
        """A daemon up and ready, with its spawn-to-ready seconds."""
        daemon = Daemon(
            self.ctx.reaper,
            daemon_argv(spec),
            self.ctx.work / "daemon.log",
            env=self.ctx.env,
            cwd=self.ctx.work,
        )
        self.phase("setup").attempted += 1
        return daemon, daemon.start()

    def check_before(self, conn) -> None:
        days = [N_DAYS, N_DAYS - 3, 9]
        self.phase("check-before").attempted += fleet_mod.check_points(
            conn, self.predictor, self.check_machines, days
        )

    def warm(self, conn) -> dict:
        """Touch every block, then settle the connection; returns stats."""
        ph = self.phase("warm-up")
        for path in FLEET_PATHS * 2:
            conn.get(path)
            ph.attempted += 1
        for m in range(0, N_MACHINES, 5):
            conn.get(POINT_PATH.format(m=m))
            ph.attempted += 1
        ph.attempted += 1
        return conn.get("/v1/stats")

    def check_budget(self, spec: Spec, stats: dict) -> None:
        if spec.half_budget:
            held = stats["tier"]["hot_entries"]
            check(held == N_SHARDS // 2, f"half budget holds {held} blocks, not {N_SHARDS // 2}")

    def account(self, load: Load) -> None:
        ph = self.phase("load")
        ph.attempted += len(load.reads) + len(load.ingests)
        ph.failed += load.failures()

    def finish(self, conn, daemon: Daemon, spec: Spec) -> tuple[float, dict, float, float]:
        """Flush, scrape stats and RSS, run the post-load checks.

        Returns ``(flush_s, final stats, peak_rss_mb, survival_sum_err)``.
        """
        self.phase("flush").attempted += 1
        t0 = time.perf_counter()
        status, _ = conn.request("POST", "/v1/flush")
        flush_s = time.perf_counter() - t0
        check(status == 200, f"/v1/flush -> {status}")
        self.phase("stats").attempted += 1
        stats = conn.get("/v1/stats")
        peak_rss = daemon.peak_rss_mb()

        predictor, horizon = fleet_mod.fit_reference(self.fleet, self.loaded_bodies)
        lanes = stats.get("workers") or [stats]
        served_horizon = max(lane["horizon_day"] for lane in lanes)
        check(served_horizon == horizon, f"horizon {served_horizon} != batch {horizon}")
        ph = self.phase("check-after")
        ph.attempted += 1
        days = sorted({horizon, horizon - 1, N_DAYS})
        ph.attempted += fleet_mod.check_points(conn, predictor, self.check_machines, days)
        made, err = fleet_mod.check_fleet(
            conn, predictor, N_MACHINES, horizon, router=spec.workers > 1
        )
        ph.attempted += made
        return flush_s, stats, peak_rss, err

    def totals(self) -> tuple[int, int]:
        for name, ph in self.phases.items():
            print(f"  phase {name:13s} attempted {ph.attempted:7d} failed {ph.failed}", file=sys.stderr)
        return (
            sum(p.attempted for p in self.phases.values()),
            sum(p.failed for p in self.phases.values()),
        )


def _window_p50(windows: list, ops) -> float:
    """Median over windows of each window's median latency of ``ops``."""
    per_window = [[1e3 * (t1 - t0) for op, t0, t1, _ in w if op in ops] for w in windows]
    return median([median(ms) for ms in per_window if ms])


def _load_metrics(loads: list, spec: Spec) -> dict:
    """End-to-end latency of a timed run's loads (one per daemon): the
    median over one-second windows of each window's median latency of the
    workload's main query (point on ``serve-point``, ``rank`` and
    ``capacity`` on ``serve-fleet-ingest``).

    Each load's first window is warm-up (threads starting, the ingest
    overlay filling).  Of the rest, only the calmer half by host steal
    counts: a window in which the hypervisor took CPU from this machine
    measured the other tenants, and on the fleet mix such windows ran up
    to 40 % slower.

    Only the medians of the whole mix's main query repeat run to run on a
    2-vCPU host whose other tenants steal CPU for minutes at a time: read
    throughput, the tails and the ingest latency moved by 0.24-0.44 of
    their medians between runs, so they are traced-run numbers instead.
    """
    windows = [pair for load in loads for pair in list(zip(load.steal, load.windows()))[1:]]
    calm = median([steal for steal, _ in windows])
    ops = {"rank", "capacity"} if spec.mixed else {"point"}
    return {"op_p50_ms": (_window_p50([w for steal, w in windows if steal <= calm], ops), "ms")}


def timed(ctx, workload: str) -> dict:
    """The run's seconds are split over :data:`SETUP_REPEATS` daemons, each
    started (timed), checked, loaded, checked again and stopped, so one
    process's luck in thread placement does not set the run's figures."""
    spec = SPECS[workload]
    run = ServeRun(ctx, spec, traced=False)
    setups, rss, loads = [], [], []
    for i in range(SETUP_REPEATS):
        daemon, setup_s = run.start(spec)
        setups.append(setup_s)
        conn = Conn(daemon.url)
        try:
            run.check_before(conn)
            run.check_budget(spec, run.warm(conn))
            load = run_load(
                daemon.url, spec, ctx.seed + i, ctx.seconds / SETUP_REPEATS,
                spec.readers, run.bodies,
            )
            run.account(load)
            run.loaded_bodies = load.acked
            _, _, peak_rss, _ = run.finish(conn, daemon, spec)
        finally:
            conn.close()
            daemon.stop()
        rss.append(peak_rss)
        loads.append(load)
        op = _load_metrics([load], spec)["op_p50_ms"][0]
        print(f"  daemon {i}: setup {setup_s:.3f} s, op p50 {op:.3f} ms", file=sys.stderr)
    metrics = {"setup_s": (median(setups), "s"), "peak_rss_mb": (median(rss), "MB")}
    metrics.update(_load_metrics(loads, spec))
    attempted, failed = run.totals()
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# -- traced run --------------------------------------------------------------------


def _in_app_us(app, paths, repeats: int) -> list:
    out = []
    for i in range(repeats):
        path = paths[i % len(paths)]
        t0 = time.perf_counter()
        status, _ = app.handle("GET", path)
        out.append(1e6 * (time.perf_counter() - t0))
        check(status == 200, f"in-app GET {path} -> {status}")
    return out


def install_serve_wrappers(tracer, open_columns: bool = True) -> None:
    """Spans around the serve layers' public entry points."""
    import repro.traces.binio as binio
    from repro.serve import AsyncIngester, ServeApp, ServeState
    from repro.serve.paging import BlockPager

    tracer.wrap(ServeApp, "handle_full", "serve.app.handle")
    tracer.wrap(ServeState, "history_counts", "serve.state.history_counts")
    tracer.wrap(ServeState, "survival_fleet", "serve.state.survival_fleet")
    tracer.wrap(BlockPager, "counts", "serve.paging.counts")
    tracer.wrap(AsyncIngester, "submit", "serve.ingest.submit")
    if open_columns:
        tracer.wrap(binio, "open_columns", "traces.open")


def in_process_layers(run: ServeRun, tracer) -> dict:
    """Serve layers timed in this process, with no HTTP in the way."""
    from repro.serve import AsyncIngester, ServeApp, ServeState
    from repro.traces.shards import open_shards

    root = run.ctx.work / "fleet"
    m = {}
    from_store = []
    for _ in range(3):
        t0 = time.perf_counter()
        ServeState.from_store(open_shards(root))
        from_store.append(time.perf_counter() - t0)
    m["serve.state.from_store_s"] = (median(from_store), "s")

    rng = random.Random(f"{run.ctx.seed}/in-app")
    points = [POINT_PATH.format(m=rng.randrange(N_MACHINES)) for _ in range(500)]
    hot = ServeApp(ServeState.from_store(open_shards(root)))
    _in_app_us(hot, FLEET_PATHS, 2)  # page every block in
    plain = _in_app_us(hot, points, 3000)
    m["serve.app.availability_p50_us"] = (median(plain), "us")
    m["serve.app.availability_p99_us"] = (percentile(plain, 99), "us")
    m["serve.app.rank_p50_us"] = (median(_in_app_us(hot, FLEET_PATHS[:1], 30)), "us")
    m["serve.app.capacity_p50_us"] = (median(_in_app_us(hot, FLEET_PATHS[1:], 30)), "us")

    half_bytes = (N_SHARDS // 2) * block_bytes(N_MACHINES // N_SHARDS)
    half = ServeApp(ServeState.from_store(open_shards(root), hot_bytes=half_bytes))
    _in_app_us(half, FLEET_PATHS, 2)
    m["serve.app.rank_half_budget_p50_us"] = (median(_in_app_us(half, FLEET_PATHS[:1], 30)), "us")
    m["serve.app.capacity_half_budget_p50_us"] = (median(_in_app_us(half, FLEET_PATHS[1:], 30)), "us")

    # Counted passes with spans on: calls per query, opens per fleet query.
    install_serve_wrappers(tracer)
    try:
        # 500 queries: each records ~100 spans (96 of them paging lookups).
        before = tracer.counts["serve.state.history_counts.calls"]
        traced = _in_app_us(hot, points, 500)
        m["serve.state.history_counts_per_query"] = (
            (tracer.counts["serve.state.history_counts.calls"] - before) / 500, "count"
        )
        budget_app = half if run.spec.half_budget else hot
        opens0 = tracer.counts["traces.open.calls"]
        _in_app_us(budget_app, FLEET_PATHS, 20)
        m["serve.paging.opens_per_fleet_query"] = (
            (tracer.counts["traces.open.calls"] - opens0) / 20, "count"
        )
        if run.spec.ingest:
            ingester = AsyncIngester(ServeState.from_store(open_shards(root)))
            submit = []
            try:
                for body in run.bodies[:200]:
                    events = json.loads(body)
                    t0 = time.perf_counter()
                    ingester.submit(events)
                    submit.append(1e6 * (time.perf_counter() - t0))
                ingester.flush()
            finally:
                ingester.close()
            m["serve.ingest.submit_p50_us"] = (median(submit), "us")
    finally:
        tracer.restore()
    m["trace.overhead_ratio"] = (median(traced) / median(plain), "ratio")
    return m


def _traced_daemon(run: ServeRun, spec: Spec, tracer, in_app_p50_us: float) -> dict:
    """The workload's own daemon under its own mix, with client spans."""
    seed = run.ctx.seed
    m = {}
    daemon, _ = run.start(spec)
    conn = Conn(daemon.url)
    try:
        with tracer.span("loadgen.check_before"):
            run.check_before(conn)
        warm_stats = run.warm(conn)
        run.check_budget(spec, warm_stats)
        if not spec.mixed:
            with tracer.span("loadgen.one_connection"):
                one = run_load(daemon.url, spec, seed, run.load_seconds / 2, 1, [], tracer)
            run.account(one)
            with tracer.span("loadgen.two_connections"):
                load = run_load(daemon.url, spec, seed + 1, run.load_seconds / 2, 2, [], tracer)
            m["serve.collapse_ratio"] = (load.read_qps / one.read_qps, "ratio")
        else:
            with tracer.span("loadgen.load"):
                load = run_load(
                    daemon.url, spec, seed, run.load_seconds, spec.readers, run.bodies, tracer
                )
        run.account(load)
        run.loaded_bodies = load.acked
        flush_s, stats, _, _ = run.finish(conn, daemon, spec)
    finally:
        conn.close()
        daemon.stop()

    point = load.latencies_ms({"point"})
    m["loadgen.read_qps"] = (load.read_qps, "1/s")
    m["serve.http.overhead_p50_ms"] = (median(point) - in_app_p50_us / 1e3, "ms")
    if not spec.mixed:
        check(tail_supported(len(point), 99), f"only {len(point)} point samples for p99")
    if tail_supported(len(point), 99):
        m["loadgen.point_p99_ms"] = (percentile(point, 99), "ms")
    bands = stats.get("status", {})
    m["serve.http.status_4xx"] = (bands.get("4xx", 0), "count")
    m["serve.http.status_5xx"] = (bands.get("5xx", 0), "count")
    t0, t1 = warm_stats["tier"], stats["tier"]
    hits, rebuilds = t1["hits"] - t0["hits"], t1["rebuilds"] - t0["rebuilds"]
    m["serve.paging.hits"] = (hits, "count")
    m["serve.paging.rebuilds"] = (rebuilds, "count")
    m["serve.paging.evictions"] = (t1["evictions"] - t0["evictions"], "count")
    m["serve.paging.hit_ratio"] = (hits / (hits + rebuilds) if hits + rebuilds else 1.0, "ratio")
    m["serve.paging.resident_bytes"] = (t1["resident_bytes"], "bytes")
    if spec.mixed:
        fleet_lat = load.latencies_ms({"rank", "capacity"})
        check(tail_supported(len(fleet_lat), 95), f"only {len(fleet_lat)} fleet samples for p95")
        m["loadgen.fleet_p95_ms"] = (percentile(fleet_lat, 95), "ms")
        m["serve.paging.rebuilds_per_fleet_query"] = (rebuilds / len(fleet_lat), "count")
    if spec.ingest:
        queue = stats["ingest"]["queue"]
        m["serve.ingest.flush_s"] = (flush_s, "s")
        m["serve.ingest.applied_batches"] = (queue["applied_batches"], "count")
        m["serve.ingest.backpressure_rejections"] = (queue["backpressure_rejections"], "count")
        m["serve.ingest.queue_depth_max"] = (load.queue_depth_max, "count")
        m["serve.ingest.overlay_cells"] = (stats["ingest"]["overlay_cells"], "count")
        ingest = load.ingest_ms()
        check(tail_supported(len(ingest), 95), f"only {len(ingest)} ingest samples for p95")
        m["loadgen.ingest_p50_ms"] = (median(ingest), "ms")
        m["loadgen.ingest_p95_ms"] = (percentile(ingest, 95), "ms")
        lateness = [1e3 * (sent - due) for due, sent, _, _ in load.ingests]
        check(tail_supported(len(lateness), 99), f"only {len(lateness)} ingest batches for p99")
        m["loadgen.ingest_lateness_p99_ms"] = (percentile(lateness, 99), "ms")
    return m


def _traced_router(run: ServeRun, tracer) -> dict:
    """The ``repro.serve.router`` layer: ``--workers 2``, every block hot,
    the fleet-ingest read mix and ingest stream."""
    seed = run.ctx.seed
    daemon, _ = run.start(ROUTER)
    conn = Conn(daemon.url)
    try:
        run.warm(conn)
        # Point-only traffic first, so the worker lanes' cumulative latency
        # histograms are dominated by point queries.
        with tracer.span("serve.router.points"):
            solo = run_load(daemon.url, SPECS["serve-point"], seed + 2, 6.0, 1, [], tracer)
        run.account(solo)
        lanes = conn.get("/v1/stats")["workers"]
        lane_p50_ms = median([1e3 * lane["latency"]["p50"] for lane in lanes])
        with tracer.span("serve.router.load"):
            load = run_load(daemon.url, ROUTER, seed, ROUTER_TRACE_SECONDS, 1, run.bodies, tracer)
        run.account(load)
        run.loaded_bodies = load.acked
        _, stats, _, sum_err = run.finish(conn, daemon, ROUTER)
    finally:
        conn.close()
        daemon.stop()
    counts = [lane["requests"] for lane in stats["workers"]]
    return {
        "serve.router.overhead_p50_ms": (median(solo.latencies_ms({"point"})) - lane_p50_ms, "ms"),
        "serve.router.lane_skew": (max(counts) / min(counts), "ratio"),
        "serve.router.survival_sum_abs_err": (sum_err, "abs"),
    }


def traced(ctx, workload: str, tracer) -> dict:
    spec = SPECS[workload]
    run = ServeRun(ctx, spec, traced=True)
    m = {}
    with tracer.span("import.cli"):
        m["import.cli_s"] = (import_seconds(ctx, "repro.cli"), "s")
    with tracer.span("import.serve"):
        m["import.serve_s"] = (import_seconds(ctx, "repro.serve"), "s")
    with tracer.span("serve.in_process"):
        m.update(in_process_layers(run, tracer))
    m.update(_traced_daemon(run, spec, tracer, m["serve.app.availability_p50_us"][0]))
    if spec.ingest:
        m.update(_traced_router(run, tracer))
    attempted, failed = run.totals()
    return {"attempted": attempted, "failed": failed, "metrics": m}
