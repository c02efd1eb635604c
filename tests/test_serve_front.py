"""One front, two backends: ``serve`` and ``serve --workers N`` answer alike.

The single-process daemon and the scale-out router share one route
table, parameter parser, error map and ingest decoder
(:class:`repro.serve.server.ServeApp`); only the backend differs.  These
tests pin that promise from the outside:

* the same request list — every endpoint, every error class — gets the
  same statuses and payloads from a one-process front and a two-worker
  front;
* "now" (the default day) is the fleet horizon: after an ingest that
  extends only one worker's range, default-day answers from the other
  worker still match the single process;
* ``--stdin`` feeds the same ingest queue as HTTP, for both roles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import cli
from repro.config import FgcsConfig, TestbedConfig
from repro.errors import IngestOrderError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeApp, ServeClient, ServeState, start_router, start_server
from repro.traces.records import EventColumns
from repro.traces.shards import generate_shards, open_shards
from repro.units import DAY

N_MACHINES = 12
N_DAYS = 21
N_SHARDS = 4
BASE = N_DAYS * DAY
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=N_MACHINES, duration=N_DAYS * DAY),
        seed=42,
    )
    root = tmp_path_factory.mktemp("front") / "fleet"
    generate_shards(config, root, N_SHARDS, format="binary")
    return root, open_shards(root)


@contextlib.contextmanager
def _fronts(fleet):
    """A one-process front and a two-worker front over the same store."""
    root, store = fleet
    with start_server(
        ServeState.from_store(store), registry=MetricsRegistry()
    ) as local, start_router(
        store, str(root), n_workers=2, registry=MetricsRegistry()
    ) as routed:
        with ServeClient(local.url) as one, ServeClient(routed.url) as two:
            yield one, two


def _events(*rows) -> bytes:
    return json.dumps(
        [
            {"machine_id": m, "start": start, "end": start + 600.0, "state": code}
            for m, start, code in rows
        ]
    ).encode()


#: Machines 0-5 live on worker 0, 6-11 on worker 1.
REQUESTS = [
    ("GET", "/healthz", None),
    ("GET", "/v1/availability?machine=3&duration=6", None),
    ("GET", "/v1/availability?machine=9&duration=2&day=14&hour=9.5", None),
    ("GET", "/v1/capacity?duration=6", None),
    ("GET", "/v1/capacity?duration=2&hour=2&threshold=0.3", None),
    ("GET", "/v1/rank?duration=6", None),
    ("GET", "/v1/rank?duration=4&k=12&day=14", None),
    ("GET", "/v1/stats", None),
    # missing, non-integer and non-finite parameters
    ("GET", "/v1/availability?duration=6", None),
    ("GET", "/v1/availability?machine=1", None),
    ("GET", "/v1/availability?machine=one&duration=6", None),
    ("GET", "/v1/availability?machine=1&duration=oops", None),
    ("GET", "/v1/availability?machine=1&duration=nan", None),
    ("GET", "/v1/availability?machine=1&duration=inf", None),
    ("GET", "/v1/availability?machine=1&duration=6&day=x", None),
    ("GET", "/v1/availability?machine=1&duration=6&day=-1", None),
    ("GET", "/v1/availability?machine=1&duration=6&hour=-inf", None),
    ("GET", "/v1/availability?machine=1&duration=-4", None),
    ("GET", "/v1/availability?machine=1&duration=6&hour=25", None),
    ("GET", "/v1/availability?machine=7&duration=6&day=0", None),
    ("GET", "/v1/capacity", None),
    ("GET", "/v1/capacity?duration=6&threshold=2", None),
    ("GET", "/v1/capacity?duration=6&threshold=nan", None),
    ("GET", "/v1/rank?duration=6&k=ten", None),
    ("GET", "/v1/rank?duration=6&k=0", None),
    # unknown machine, unknown path, wrong method
    ("GET", f"/v1/availability?machine={N_MACHINES}&duration=6", None),
    ("GET", "/v1/availability?machine=-1&duration=6", None),
    ("GET", "/v1/nope", None),
    ("POST", "/v1/availability?machine=1&duration=6", b""),
    ("GET", "/v1/ingest", None),
    ("GET", "/v1/flush", None),
    # empty, non-array and bad-JSONL ingest bodies, bad events
    ("POST", "/v1/ingest", b""),
    ("POST", "/v1/ingest", b"[1, 2"),
    ("POST", "/v1/ingest", b'"x"'),
    ("POST", "/v1/ingest", b'{"machine_id": 0}'),
    (
        "POST",
        "/v1/ingest",
        b'{"machine_id": 0, "start": 1, "end": 2, "state": 3}\n{oops',
    ),
    ("POST", "/v1/ingest", _events((N_MACHINES, BASE, 3))),
    ("POST", "/v1/ingest", b"[]"),
    # writes: dry run, single owner, cross-worker with a duplicate
    ("POST", "/v1/ingest?dry=1", _events((0, BASE + 60.0, 3))),
    ("POST", "/v1/ingest", _events((0, BASE + 60.0, 3))),
    (
        "POST",
        "/v1/ingest",
        _events(
            (2, BASE + DAY + 60.0, 4),
            (9, BASE + 120.0, 5),
            (2, BASE + DAY + 60.0, 4),
        ),
    ),
    # stale events: 409, whole batch, also when only one slice is stale
    ("POST", "/v1/ingest", _events((0, 10.0, 3))),
    ("POST", "/v1/ingest", _events((1, BASE + 60.0, 3), (9, 30.0, 5))),
    ("POST", "/v1/flush", b""),
    # default-day reads after ingest
    ("GET", "/v1/availability?machine=11&duration=6", None),
    ("GET", "/v1/availability?machine=1&duration=6", None),
    ("GET", "/v1/capacity?duration=2&hour=2", None),
    ("GET", "/v1/rank?duration=6&k=12", None),
    ("GET", "/healthz", None),
    ("GET", "/v1/stats", None),
    ("GET", "/v1/shutdown", None),
    ("POST", "/v1/shutdown", b""),
]

#: Keys both roles report in the role-specific payloads.
SHARED_KEYS = {
    "/healthz": ("ok", "ready", "n_machines", "horizon_day"),
    "/v1/stats": ("n_machines", "horizon_day", "requests"),
}
#: Per-process counts: how many workers answered, how many batches the
#: processes applied (a cross-worker batch is one batch per worker).
FAN_OUT_KEYS = {"workers", "applied_batches"}


def _comparable(target: str, payload: dict, *, expected: bool) -> dict:
    path = target.split("?")[0]
    if path in SHARED_KEYS and "error" not in payload:
        return {key: payload[key] for key in SHARED_KEYS[path]}
    out = {k: v for k, v in payload.items() if k not in FAN_OUT_KEYS}
    if expected:
        # The router adds partial sums in worker order, not numpy's
        # pairwise order: exact counts, 1-ulp-close float aggregates.
        for key in ("survival_sum", "mean_survival"):
            if key in out:
                out[key] = pytest.approx(out[key], rel=1e-12)
    return out


class TestParity:
    def test_same_requests_same_answers(self, fleet):
        seen = set()
        with _fronts(fleet) as (one, two):
            for method, target, body in REQUESTS:
                s1, p1 = one.request_raw(method, target, body)
                s2, p2 = two.request_raw(method, target, body)
                assert s2 == s1, (method, target, p1, p2)
                assert _comparable(target, p2, expected=False) == _comparable(
                    target, p1, expected=True
                ), (method, target)
                seen.add((s1, target.split("?")[0]))
        statuses = {status for status, _ in seen}
        assert {200, 400, 404, 405, 409, 422} <= statuses
        endpoints = {path for status, path in seen if status == 200}
        assert endpoints == {
            "/healthz", "/v1/availability", "/v1/capacity", "/v1/rank",
            "/v1/stats", "/v1/ingest", "/v1/flush", "/v1/shutdown",
        }


class TestFleetHorizon:
    def test_default_day_is_the_fleet_horizon(self, fleet):
        """One event for a worker-0 machine on the first unobserved day
        moves "now" for worker 1's machines too."""
        with _fronts(fleet) as (one, two):
            for client in (one, two):
                result = client.ingest(
                    [{"machine_id": 0, "start": BASE + 60.0,
                      "end": BASE + 660.0, "state": 3}]
                )
                assert result["horizon_day"] == N_DAYS + 1
                client.flush()
            for machine in (0, N_MACHINES - 1):
                single = one.availability(machine, 6.0)
                routed = two.availability(machine, 6.0)
                assert single["day"] == N_DAYS + 1
                assert routed == single
            single = one.rank(6.0, k=N_MACHINES)
            routed = two.rank(6.0, k=N_MACHINES)
            assert routed["day"] == single["day"] == N_DAYS + 1
            assert routed["machines"] == single["machines"]
            single = one.capacity(2.0, hour=2.0)
            routed = two.capacity(2.0, hour=2.0)
            assert routed["day"] == single["day"] == N_DAYS + 1
            assert routed["available"] == single["available"]
            assert routed["survival_sum"] == pytest.approx(
                single["survival_sum"], rel=1e-12
            )
            assert two.healthz()["horizon_day"] == N_DAYS + 1


def _event(machine: int, start: float) -> dict:
    return {"machine_id": machine, "start": start, "end": start + 300.0, "state": 3}


class TestStdinIngest:
    def test_lines_queue_behind_http_batches(self, capsys):
        """A stdin line is judged against the queued batches, not only
        the applied ones: an older event 409s and a copy dedupes."""
        state = ServeState(4, 7)
        gate = threading.Event()
        real_apply = state.apply_batch

        def gated_apply(batch):
            assert gate.wait(30.0), "test gate never opened"
            return real_apply(batch)

        state.apply_batch = gated_apply
        registry = MetricsRegistry()
        app = ServeApp(state, registry)
        queued = _event(0, 7 * DAY + 600.0)
        older = _event(0, 7 * DAY + 60.0)
        try:
            status, _ = app.handle("POST", "/v1/ingest", json.dumps([queued]).encode())
            assert status == 200  # accepted, held in the queue
            cli._ingest_lines(app, [json.dumps(older), "", json.dumps(queued)], registry)
            gate.set()
            assert app.handle("POST", "/v1/flush")[0] == 200
        finally:
            gate.set()
            app.close()
        assert registry.counter_value("serve.ingest_errors") == 1
        assert "ingest error (409)" in capsys.readouterr().err
        replay = ServeState(4, 7)
        replay.ingest([queued])
        with pytest.raises(IngestOrderError):
            replay.ingest([older])
        assert replay.ingest([queued]).deduplicated == 1
        got, want = state.tier_stats(), replay.tier_stats()
        assert (got.streamed_events, got.deduplicated_events) == (1, 1)
        assert (got.streamed_events, got.deduplicated_events) == (
            want.streamed_events,
            want.deduplicated_events,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serve_stdin_matches_replay(self, fleet, workers):
        root, store = fleet
        lines = [
            json.dumps(_event(1, BASE + 60.0)),
            json.dumps(_event(8, BASE + 90.0)),
            "",
            json.dumps(_event(1, BASE + 30.0)),  # stale: rejected
            json.dumps(_event(1, BASE + 60.0)),  # duplicate: deduplicated
            "{oops",
            json.dumps(_event(11, BASE + DAY + 120.0)),
        ]
        reference = ServeState.from_columns(
            EventColumns.from_dataset(store.load_full())
        )
        for line in lines:
            try:
                reference.ingest([json.loads(line)])
            except (ValueError, IngestOrderError):
                pass
        expected = reference.tier_stats().streamed_events
        ref_app = ServeApp(reference)

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(root), "--port", "0",
             "--stdin", "--workers", str(workers)],
            stdin=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            proc.stdin.write("\n".join(lines) + "\n")
            proc.stdin.close()
            for line in proc.stderr:
                match = re.search(r" on (http://\S+) ", line)
                if match:
                    break
            else:
                pytest.fail("serve exited before listening")
            with ServeClient(match.group(1)) as client:
                deadline = time.monotonic() + 60.0
                while True:
                    client.flush()
                    stats = client.stats()
                    streamed = stats.get("totals", stats.get("ingest"))[
                        "streamed_events"
                    ]
                    if streamed == expected:
                        break
                    assert time.monotonic() < deadline, (streamed, expected)
                    time.sleep(0.05)
                for target in (
                    "/v1/availability?machine=1&duration=6",
                    "/v1/availability?machine=8&duration=6",
                    "/v1/availability?machine=11&duration=2&hour=1",
                    "/v1/rank?duration=6&k=12",
                    "/v1/capacity?duration=6",
                ):
                    status, want = ref_app.handle("GET", target)
                    got = client._request("GET", target)
                    assert status == 200
                    assert _comparable(target, got, expected=False) == _comparable(
                        target, want, expected=True
                    ), target
                assert got["day"] == N_DAYS + 2
                client.shutdown()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
            assert "ingest error (409)" in err
            assert "ingest error (400): ingest line 1: invalid JSON" in err
        finally:
            proc.kill()
            proc.wait()
            ref_app.close()
