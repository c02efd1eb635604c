"""Run manifests: one JSON document recording what a run did.

A :class:`RunManifest` is written at the end of every CLI command when
``--metrics-out PATH`` is given.  It records enough to account for (and
reproduce) the run: the command and argv, package and schema versions,
the root seed, the config fingerprint (the same one that keys the
dataset cache), wall-clock start/duration, the exit code, the nested
phase spans, and the full metrics snapshot.

The manifest is *derived from* a run but never feeds back into one:
fingerprints, cache keys, and dataset equality ignore it entirely, so
telemetry can never perturb results.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from .metrics import MetricsRegistry

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "build_manifest"]

#: Version of the manifest document layout itself.  v2 added the
#: ``faults`` / ``retries`` sections (fault injection, retry, and
#: quarantine accounting); v3 added the ``shards`` section (sharded
#: generation / streaming-analysis accounting); v4 added the ``io``
#: section (trace bytes read/written and encode/decode timings per
#: on-disk format); v5 added the ``generation`` section (synthesis vs
#: detection time split and random variates drawn per stream); v6 added
#: the ``resources`` section (the background sampler's bounded RSS /
#: CPU / fd / I/O time series with peaks, plus per-worker-process
#: resource peaks merged from worker telemetry); v7 added the ``serve``
#: section (the forecast daemon's request/QPS/latency/tier accounting);
#: v8 added the ``scenario`` section (the declarative scenario a
#: ``generate --scenario`` / ``scenario diff`` run was driven by, with
#: its compiled fingerprint); v9 extended the ``serve`` section for the
#: scale-out front (``workers`` — per-worker QPS/latency/tier lanes and
#: a ``totals`` roll-up — plus block-paging counters
#: (``tier.n_blocks``/``tier.block_machines``) and the bounded ingest
#: queue's ``ingest.queue`` depth/backpressure accounting); v10 added the
#: ``startup`` section (the ``process.import`` / ``process.boot`` phases
#: that run before and around the command's root span).
MANIFEST_SCHEMA_VERSION = 10


@dataclass
class RunManifest:
    """The JSON-serializable record of one run."""

    #: CLI command (``generate``, ``analyze``, ...) or a caller-chosen label.
    command: str
    #: Exact argv the run was invoked with.
    argv: list[str]
    #: ``repro`` package version.
    version: str
    #: Schema versions: ``{"manifest": .., "trace": .., "code": ..}``.
    schema: dict
    #: Root RNG seed, when the command has one.
    seed: Optional[int]
    #: :func:`repro.parallel.cache.config_fingerprint` of the resolved
    #: config, when the command builds one (``None`` for e.g. thresholds).
    config_fingerprint: Optional[str]
    #: ISO-8601 UTC timestamp of run start.
    started_at: str
    #: Total wall-clock duration, seconds.
    duration_s: float
    #: Process exit code of the command.
    exit_code: int
    #: Nested phase spans (the ``spans`` part of the metrics snapshot).
    spans: list = field(default_factory=list)
    #: Counters/gauges/histograms recorded during the run.
    metrics: dict = field(default_factory=dict)
    #: Fault accounting (schema v2): injected faults by site, failure
    #: counts by kind, and the quarantined units with their errors.
    faults: dict = field(default_factory=dict)
    #: Retry accounting (schema v2): attempts, successes after retry,
    #: and exhausted units.
    retries: dict = field(default_factory=dict)
    #: Shard accounting (schema v3): one summary per sharded phase
    #: (``generate`` / ``analyze``) with shard and event counts.
    shards: list = field(default_factory=list)
    #: Trace I/O accounting (schema v4): per-format bytes read/written
    #: plus encode/decode timing summaries, keyed
    #: ``{"jsonl": {...}, "binary": {...}}``.
    io: dict = field(default_factory=dict)
    #: Trace-generation accounting (schema v5): per-machine synthesis and
    #: detection timing summaries (``synth_seconds`` / ``detect_seconds``)
    #: plus the random variates drawn per stream
    #: (``rng_draws["signal"]``, ...).
    generation: dict = field(default_factory=dict)
    #: Resource accounting (schema v6): the background sampler's bounded
    #: time series (``samples["t_s"]`` / ``["rss_bytes"]`` / ...) with
    #: ``peak`` values and the process-lifetime ``max_rss_bytes``, plus
    #: ``workers`` — per-pool-worker resource peaks
    #: (``{"<pid>": {"max_rss_bytes": ..., "cpu_seconds": ...,
    #: "units": ...}}``) merged from worker telemetry.
    resources: dict = field(default_factory=dict)
    #: Serving accounting (schema v7, extended v9): the forecast
    #: daemon's lifetime summary — ``requests``/``qps``/``duration_s``,
    #: per-class status counts, the ``latency`` histogram summary of
    #: ``serve.request_seconds``, and the hot/cold ``tier`` + ``ingest``
    #: counters, now including block-paging counters and the async
    #: ingest queue; scale-out runs add per-worker lanes under
    #: ``workers`` and a ``totals`` roll-up (see ``docs/serving.md``).
    serve: dict = field(default_factory=dict)
    #: Scenario accounting (schema v8): the declarative scenario the run
    #: was driven by — ``scenario`` (name), compiled ``fingerprint``,
    #: ``classes``, and the resolved frame.  ``scenario diff`` runs list
    #: every compared scenario under ``compared``.
    scenario: dict = field(default_factory=dict)
    #: Startup phases (schema v10), as span records on the ``spans``
    #: timeline: ``process.import`` runs from interpreter start (or the
    #: CLI module's first line where ``/proc`` is unreadable) to
    #: ``main()`` entry, so its ``start_s`` is negative; ``serve`` adds
    #: ``process.boot``, from ``main()`` entry to the listening socket.
    startup: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        # Tolerate v1–v9 documents, which predate the faults/retries,
        # shards, io, generation, resources, serve, scenario and startup
        # sections.
        data = dict(data)
        data.setdefault("faults", {})
        data.setdefault("retries", {})
        data.setdefault("shards", [])
        data.setdefault("io", {})
        data.setdefault("generation", {})
        data.setdefault("resources", {})
        data.setdefault("serve", {})
        data.setdefault("scenario", {})
        data.setdefault("startup", [])
        return cls(**data)

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize to ``path`` as stable, human-diffable JSON."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def build_manifest(
    *,
    command: str,
    argv: list[str],
    registry: MetricsRegistry,
    duration_s: float,
    started_at: str,
    exit_code: int = 0,
    seed: Optional[int] = None,
    config_fingerprint: Optional[str] = None,
    resources: Optional[dict] = None,
) -> RunManifest:
    """Assemble a manifest from a finished run's registry and metadata.

    Package/schema versions are read here so every manifest carries them;
    the imports are deferred to keep :mod:`repro.obs` free of import
    cycles with the pipeline packages it instruments.
    """
    from .._version import __version__
    from ..parallel.cache import CODE_SCHEMA_VERSION
    from ..traces.io import SCHEMA_VERSION

    snapshot = registry.snapshot()
    spans = snapshot.pop("spans")
    events = snapshot.pop("events", [])
    # Worker lanes: resource peaks go to the resources section; the full
    # per-worker span trees stay out of the manifest (they are the
    # Chrome-trace export's payload) to keep the document lean.
    worker_lanes = snapshot.pop("workers", {})
    counters = snapshot.get("counters", {})

    def _strip(prefix: str) -> dict:
        return {
            k[len(prefix):]: v
            for k, v in counters.items()
            if k.startswith(prefix) and v
        }

    # The faults/retries sections duplicate the underlying counters in a
    # consumer-friendly shape; the raw counters stay in ``metrics`` too.
    faults: dict = {}
    injected = _strip("faults.injected.")
    failures = {
        k: v
        for k, v in _strip("faults.").items()
        if not k.startswith("injected.")
    }
    quarantined = [
        {k: v for k, v in e.items() if k != "name"}
        for e in events
        if e.get("name") == "faults.quarantine"
    ]
    if injected:
        faults["injected"] = injected
    if failures:
        faults["failures"] = failures
    if quarantined:
        faults["quarantined"] = quarantined
    retries = _strip("retries.")
    shards = [
        {k: v for k, v in e.items() if k != "name"}
        for e in events
        if e.get("name") == "shards"
    ]
    # Per-format trace I/O: join the io.* counters and timing histograms
    # into one section keyed by format (``io["binary"]["bytes_read"]``).
    histograms = snapshot.get("histograms", {})
    io: dict = {}

    def _io_put(fmt: str, field_name: str, value: object) -> None:
        io.setdefault(fmt, {})[field_name] = value

    for counter_field in ("bytes_read", "bytes_written"):
        for fmt, v in _strip(f"io.{counter_field}.").items():
            _io_put(fmt, counter_field, v)
    for hist_field in ("encode_seconds", "decode_seconds"):
        prefix = f"io.{hist_field}."
        for name, summary in histograms.items():
            if name.startswith(prefix) and summary.get("count"):
                _io_put(name[len(prefix):], hist_field, summary)
    # Generation accounting: the synthesis/detection split (one histogram
    # sample per machine, or per shard for sharded runs) and the random
    # variates drawn per stream.
    generation: dict = {}
    for hist_field in ("synth_seconds", "detect_seconds"):
        summary = histograms.get(f"generate.{hist_field}")
        if summary and summary.get("count"):
            generation[hist_field] = summary
    rng_draws = _strip("rng.draws.")
    if rng_draws:
        generation["rng_draws"] = rng_draws
    # Serving: the daemon records one "serve" event at shutdown with its
    # lifetime summary; the request-latency histogram summary rides along
    # (the raw serve.* counters/histograms stay in ``metrics`` too).
    serve: dict = {}
    for e in events:
        if e.get("name") == "serve":
            serve = {k: v for k, v in e.items() if k != "name"}
    if serve:
        latency = histograms.get("serve.request_seconds")
        if latency and latency.get("count"):
            serve["latency"] = latency
        serve["status"] = {
            cls_: counters[f"serve.status.{cls_}"]
            for cls_ in ("2xx", "3xx", "4xx", "5xx")
            if counters.get(f"serve.status.{cls_}")
        }
    # Scenario: `generate --scenario` records one "scenario" event with
    # the compiled identity; `scenario diff` records one per compared
    # scenario, which nest under "compared" (baseline first).
    scenario_events = [
        {k: v for k, v in e.items() if k != "name"}
        for e in events
        if e.get("name") == "scenario"
    ]
    scenario: dict = {}
    if len(scenario_events) == 1:
        scenario = scenario_events[0]
    elif scenario_events:
        scenario = {"compared": scenario_events}
    # Startup: the CLI records each process.* phase as one event.
    startup = [e for e in events if e.get("name", "").startswith("process.")]
    # Resources: the sampler's bounded series (when one ran) plus the
    # per-worker peaks merged from worker telemetry.
    resources_section: dict = dict(resources) if resources else {}
    if worker_lanes:
        resources_section["workers"] = {
            pid: {
                "max_rss_bytes": lane.get("max_rss_bytes", 0),
                "cpu_seconds": round(lane.get("cpu_seconds", 0.0), 6),
                "units": lane.get("units", 0),
            }
            for pid, lane in worker_lanes.items()
        }
    return RunManifest(
        command=command,
        argv=list(argv),
        version=__version__,
        schema={
            "manifest": MANIFEST_SCHEMA_VERSION,
            "trace": SCHEMA_VERSION,
            "code": CODE_SCHEMA_VERSION,
        },
        seed=seed,
        config_fingerprint=config_fingerprint,
        started_at=started_at,
        duration_s=round(duration_s, 6),
        exit_code=exit_code,
        spans=spans,
        metrics=snapshot,
        faults=faults,
        retries=retries,
        shards=shards,
        io=io,
        generation=generation,
        resources=resources_section,
        serve=serve,
        scenario=scenario,
        startup=startup,
    )
