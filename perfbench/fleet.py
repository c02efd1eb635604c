"""Seeded serve-side inputs and the reference answers they must produce.

The fleet and the ingest stream are drawn here, in the benchmark's own
process, from ``--seed``; the daemon only ever sees the binary shard store
and the HTTP ingest batches.  The reference is the batch
:class:`~repro.prediction.history.HistoryWindowPredictor` fit on exactly
the same events, so every served answer must compare ``==`` to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.events import UnavailabilityEvent
from repro.prediction.base import PredictionQuery
from repro.prediction.history import HistoryWindowPredictor
from repro.traces.dataset import TraceDataset
from repro.traces.records import CODE_TO_STATE
from repro.traces.shards import write_shards
from repro.units import DAY

from harness import check

EVENTS_PER_MACHINE_DAY = 4.0
STATE_CODES = np.array(sorted(CODE_TO_STATE), dtype=np.int64)


@dataclass
class Fleet:
    n_machines: int
    n_days: int
    events: list  # base UnavailabilityEvent objects, (machine, start)-sorted

    @property
    def span(self) -> float:
        return float(self.n_days * DAY)


def make_fleet(seed: int, n_machines: int, n_days: int) -> Fleet:
    """About four unavailability events per machine-day, uniform in time."""
    rng = np.random.default_rng([seed, 1])
    span = float(n_days * DAY)
    per_machine = rng.poisson(EVENTS_PER_MACHINE_DAY * n_days, n_machines)
    machine = np.repeat(np.arange(n_machines), per_machine)
    start = rng.uniform(0.0, span - 3600.0, machine.size)
    order = np.lexsort((start, machine))
    machine, start = machine[order], start[order]
    end = start + rng.uniform(60.0, 3600.0, machine.size)
    codes = rng.choice(STATE_CODES, machine.size)
    events = [
        UnavailabilityEvent(
            machine_id=m, start=s, end=e, state=CODE_TO_STATE[c]
        )
        for m, s, e, c in zip(
            machine.tolist(), start.tolist(), end.tolist(), codes.tolist()
        )
    ]
    return Fleet(n_machines, n_days, events)


def write_store(fleet: Fleet, out_dir: Path, n_shards: int) -> None:
    dataset = TraceDataset.from_validated(
        fleet.events, n_machines=fleet.n_machines, span=fleet.span
    )
    write_shards(dataset, out_dir, n_shards, format="binary")


def make_ingest_stream(
    seed: int, fleet: Fleet, n_batches: int, batch_size: int
) -> list[bytes]:
    """Time-ordered events in the day after the base horizon, as JSON
    request bodies.

    Starts increase globally, so every machine's streamed starts are
    non-decreasing (the ingest ordering contract); each event ends inside
    that day.  However many batches there are, they all land in that one
    day: the horizon moves once, on the first batch, and then stays.  A
    stream that advanced the simulated clock would make fleet-query cost
    depend on how far the load had got (how many streamed days sit in the
    history window, and whether the query day is a weekday), not on the
    program.
    """
    rng = np.random.default_rng([seed, 2])
    n = n_batches * batch_size
    start = fleet.span + np.sort(rng.uniform(0.0, DAY - 1.0, n))
    end = np.minimum(start + rng.uniform(60.0, 3600.0, n), fleet.span + DAY - 1e-3)
    machine = rng.integers(0, fleet.n_machines, n)
    codes = rng.choice(STATE_CODES, n)
    rows = list(zip(machine.tolist(), start.tolist(), end.tolist(), codes.tolist()))
    return [
        json.dumps(rows[i : i + batch_size]).encode()
        for i in range(0, n, batch_size)
    ]


def fit_reference(fleet: Fleet, acked_bodies: list[bytes]) -> tuple[HistoryWindowPredictor, int]:
    """The batch predictor over the fleet plus every acknowledged batch;
    returns it with the horizon day the daemon must report."""
    events = list(fleet.events)
    horizon = fleet.n_days
    for body in acked_bodies:
        for m, s, e, c in json.loads(body):
            events.append(
                UnavailabilityEvent(machine_id=m, start=s, end=e, state=CODE_TO_STATE[c])
            )
            horizon = max(horizon, int(s // DAY) + 1)
    events.sort(key=lambda ev: (ev.machine_id, ev.start))
    dataset = TraceDataset.from_validated(
        events, n_machines=fleet.n_machines, span=float(horizon * DAY)
    )
    return HistoryWindowPredictor().fit(dataset), horizon


# -- checks ----------------------------------------------------------------------

#: Window shapes the checks sample: (hour, duration_hours).
CHECK_WINDOWS = ((0.0, 6.0), (9.5, 2.0), (20.0, 7.5))


def _query(machine: int, day: int, hour: float, duration: float) -> PredictionQuery:
    return PredictionQuery(
        machine_id=machine, day=day, start_hour=hour, duration_hours=duration
    )


def check_points(conn, predictor, machines, days) -> int:
    """Served point answers ``==`` the predictor; returns requests made."""
    made = 0
    for i, machine in enumerate(machines):
        day = days[i % len(days)]
        hour, duration = CHECK_WINDOWS[i % len(CHECK_WINDOWS)]
        got = conn.get(
            f"/v1/availability?machine={machine}&day={day}&hour={hour}&duration={duration}"
        )
        query = _query(machine, day, hour, duration)
        made += 1
        check(
            got["survival"] == predictor.predict_survival(query),
            f"machine {machine} day {day}: served survival {got['survival']} "
            f"!= batch {predictor.predict_survival(query)}",
        )
        check(
            got["expected_events"] == predictor.predict_count(query),
            f"machine {machine} day {day}: served count {got['expected_events']} "
            f"!= batch {predictor.predict_count(query)}",
        )
    return made


def check_fleet(conn, predictor, n_machines: int, day: int, *, router: bool) -> tuple[int, float]:
    """Capacity counts, rank order and every machine's survival ``==`` the
    predictor.  Returns ``(requests made, largest survival_sum error)``;
    the router's float ``survival_sum`` is summed in another order, so its
    error is measured rather than required to be zero."""
    made, worst = 0, 0.0
    for hour, duration in CHECK_WINDOWS:
        survival = np.array(
            [
                predictor.predict_survival(_query(m, day, hour, duration))
                for m in range(n_machines)
            ]
        )
        ranked = conn.get(f"/v1/rank?day={day}&hour={hour}&duration={duration}&k={n_machines}")
        made += 1
        order = np.argsort(-survival, kind="stable")
        expected = [(int(m), float(survival[m])) for m in order]
        got = [(e["machine"], e["survival"]) for e in ranked["machines"]]
        check(got == expected, f"rank day {day} hour {hour}: order or survival differs from batch")
        for threshold in (0.3, 0.5, 0.7):
            cap = conn.get(
                f"/v1/capacity?day={day}&hour={hour}&duration={duration}&threshold={threshold}"
            )
            made += 1
            available = int(np.count_nonzero(survival >= threshold))
            check(
                cap["available"] == available,
                f"capacity day {day} hour {hour} >= {threshold}: served "
                f"{cap['available']} != batch {available}",
            )
            error = abs(cap["survival_sum"] - float(survival.sum()))
            if not router:
                check(error == 0.0, f"capacity survival_sum off by {error}")
            worst = max(worst, error)
    return made, worst
