"""Run-manifest performance reports and run-to-run regression diffs.

Two consumers of :class:`~repro.obs.manifest.RunManifest` documents:

* :func:`render_manifest_report` — one manifest as a human performance
  report: phase breakdown (from the span tree), work-unit throughput and
  latency quantiles, cache hit rate, fault/retry summary, trace I/O, and
  resource peaks (parent + workers);
* :func:`compare_manifests` — two manifests diffed metric by metric with
  a configurable regression threshold (``--max-regress`` percent).  Each
  metric knows which direction is *bad* (latency up = regression,
  throughput down = regression); a metric missing from either manifest
  is reported but never fails the comparison, so older-schema baselines
  stay usable.  The CLI exit code is the CI contract: 0 when nothing
  regressed beyond the threshold, 1 otherwise — ``repro-fgcs report
  --compare baseline.json current.json --max-regress 20`` is a perf
  gate.

Self-compare is exactly neutral: every delta is 0%, exit code 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .manifest import RunManifest

__all__ = [
    "ComparisonResult",
    "MetricDelta",
    "compare_manifests",
    "extract_metrics",
    "render_manifest_report",
]


# -- shared helpers -----------------------------------------------------------


def _hist(manifest: RunManifest, name: str) -> dict:
    return manifest.metrics.get("histograms", {}).get(name, {})


def _counter(manifest: RunManifest, name: str) -> Optional[float]:
    counters = manifest.metrics.get("counters", {})
    return counters.get(name)


def _hist_total(summary: dict) -> Optional[float]:
    if not summary.get("count"):
        return None
    return summary["mean"] * summary["count"]


def _throughput(manifest: RunManifest) -> Optional[float]:
    """Work units per second of mapped wall-clock time."""
    units = _counter(manifest, "parallel.units")
    total = _hist_total(_hist(manifest, "parallel.map_seconds"))
    if not units or not total:
        return None
    return units / total


def _cache_hit_rate(manifest: RunManifest) -> Optional[float]:
    hits = _counter(manifest, "cache.hit") or 0
    misses = _counter(manifest, "cache.miss") or 0
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def _peak_rss(manifest: RunManifest) -> Optional[float]:
    res = manifest.resources or {}
    peak = res.get("peak", {}).get("rss_bytes")
    if peak is None:
        peak = res.get("max_rss_bytes")
    return float(peak) if peak else None


def _serve_field(key: str):
    def get(manifest: RunManifest) -> Optional[float]:
        return (manifest.serve or {}).get(key)

    return get


def _serve_latency(key: str):
    def get(manifest: RunManifest) -> Optional[float]:
        latency = (manifest.serve or {}).get("latency") or {}
        return latency.get(key) if latency.get("count") else None

    return get


def _fmt(value: Optional[float], unit: str = "") -> str:
    if value is None:
        return "-"
    if unit == "bytes":
        return _fmt_bytes(value)
    if unit == "s":
        return f"{value:.3f}s"
    if unit == "%":
        return f"{100 * value:.1f}%"
    if unit == "/s":
        return f"{value:.2f}/s"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def _fmt_bytes(n: float) -> str:
    for factor, suffix in ((1 << 30, "GiB"), (1 << 20, "MiB"), (1 << 10, "KiB")):
        if n >= factor:
            return f"{n / factor:.1f} {suffix}"
    return f"{int(n)} B"


# -- the metric catalogue -----------------------------------------------------


@dataclass(frozen=True)
class _MetricSpec:
    """One comparable metric: how to read it and which way is worse."""

    name: str
    getter: Callable[[RunManifest], Optional[float]]
    #: ``"lower"`` — smaller is better (latency, RSS); ``"higher"`` —
    #: bigger is better (throughput, hit rate).
    better: str
    unit: str = ""


def _quantile_getter(hist_name: str, key: str):
    def get(manifest: RunManifest) -> Optional[float]:
        summary = _hist(manifest, hist_name)
        return summary.get(key) if summary.get("count") else None

    return get


METRICS: tuple[_MetricSpec, ...] = (
    _MetricSpec("duration_s", lambda m: m.duration_s, "lower", "s"),
    _MetricSpec("throughput_units_per_s", _throughput, "higher", "/s"),
    _MetricSpec(
        "unit_seconds.p50",
        _quantile_getter("parallel.unit_seconds", "p50"),
        "lower",
        "s",
    ),
    _MetricSpec(
        "unit_seconds.p95",
        _quantile_getter("parallel.unit_seconds", "p95"),
        "lower",
        "s",
    ),
    _MetricSpec(
        "unit_seconds.p99",
        _quantile_getter("parallel.unit_seconds", "p99"),
        "lower",
        "s",
    ),
    _MetricSpec("cache_hit_rate", _cache_hit_rate, "higher", "%"),
    _MetricSpec("peak_rss_bytes", _peak_rss, "lower", "bytes"),
    _MetricSpec(
        "retries.exhausted",
        lambda m: _counter(m, "retries.exhausted"),
        "lower",
    ),
    # Serving-daemon metrics (manifest schema v7); skipped — never
    # failing — for manifests from commands without a serve section.
    _MetricSpec("serve.qps", _serve_field("qps"), "higher", "/s"),
    _MetricSpec(
        "serve.request_seconds.p50", _serve_latency("p50"), "lower", "s"
    ),
    _MetricSpec(
        "serve.request_seconds.p99", _serve_latency("p99"), "lower", "s"
    ),
)


def extract_metrics(manifest: RunManifest) -> dict:
    """Every comparable metric of one manifest (``None`` = unavailable)."""
    return {spec.name: spec.getter(manifest) for spec in METRICS}


# -- compare ------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline→current movement."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    #: Percent change, sign following the raw value (``None`` when either
    #: side is missing or the baseline is 0).
    change_pct: Optional[float]
    #: ``"ok"`` | ``"improved"`` | ``"regressed"`` | ``"skipped"``.
    status: str
    unit: str = ""


@dataclass
class ComparisonResult:
    """The full diff of two manifests under one threshold."""

    baseline_command: str
    current_command: str
    max_regress_pct: float
    deltas: list[MetricDelta]

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        rows = [("metric", "baseline", "current", "change", "status")]
        for d in self.deltas:
            change = "-" if d.change_pct is None else f"{d.change_pct:+.1f}%"
            rows.append(
                (
                    d.name,
                    _fmt(d.baseline, d.unit),
                    _fmt(d.current, d.unit),
                    change,
                    d.status.upper() if d.status == "regressed" else d.status,
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
            for r in rows
        ]
        lines.insert(1, "  ".join("-" * w for w in widths))
        verdict = (
            f"OK: no metric regressed beyond {self.max_regress_pct:g}%"
            if self.ok
            else (
                f"REGRESSION: {len(self.regressions)} metric(s) beyond "
                f"{self.max_regress_pct:g}%: "
                + ", ".join(d.name for d in self.regressions)
            )
        )
        header = (
            f"run comparison ({self.baseline_command} baseline vs "
            f"{self.current_command} current, --max-regress "
            f"{self.max_regress_pct:g})"
        )
        return "\n".join([header, ""] + lines + ["", verdict])


def compare_manifests(
    baseline: RunManifest,
    current: RunManifest,
    *,
    max_regress_pct: float = 10.0,
) -> ComparisonResult:
    """Diff two manifests metric by metric against a regression budget.

    A metric regresses when it moved in its *bad* direction by more than
    ``max_regress_pct`` percent of the baseline.  Metrics missing on
    either side (older schema, command without that subsystem) are
    ``skipped`` and never fail the comparison; a zero baseline can't
    express a percentage and is skipped too.
    """
    if max_regress_pct < 0:
        raise ValueError("max_regress_pct must be >= 0")
    deltas: list[MetricDelta] = []
    for spec in METRICS:
        b, c = spec.getter(baseline), spec.getter(current)
        if b is None or c is None or b == 0:
            deltas.append(
                MetricDelta(spec.name, b, c, None, "skipped", spec.unit)
            )
            continue
        change_pct = 100.0 * (c - b) / abs(b)
        bad_pct = change_pct if spec.better == "lower" else -change_pct
        if bad_pct > max_regress_pct:
            status = "regressed"
        elif bad_pct < 0:
            status = "improved"
        else:
            status = "ok"
        deltas.append(
            MetricDelta(spec.name, b, c, round(change_pct, 2), status, spec.unit)
        )
    return ComparisonResult(
        baseline_command=baseline.command,
        current_command=current.command,
        max_regress_pct=max_regress_pct,
        deltas=deltas,
    )


# -- single-manifest report ---------------------------------------------------


def _phase_lines(spans: list, total_s: float, depth: int, out: list) -> None:
    for rec in spans:
        dur = rec.get("duration_s")
        share = f"{100 * dur / total_s:5.1f}%" if total_s and dur else "     -"
        dur_s = f"{dur:9.3f}s" if dur is not None else "        -"
        out.append(f"  {dur_s}  {share}  {'  ' * depth}{rec['name']}")
        _phase_lines(rec.get("children", []), total_s, depth + 1, out)


def render_manifest_report(manifest: RunManifest) -> str:
    """One manifest as a human performance report."""
    m = manifest
    lines = [
        f"run report: {m.command} (repro {m.version}, manifest schema "
        f"v{m.schema.get('manifest', '?')})",
        f"  started   {m.started_at}",
        f"  duration  {m.duration_s:.3f}s    exit code {m.exit_code}",
    ]
    if m.seed is not None:
        lines.append(f"  seed      {m.seed}")
    if m.config_fingerprint:
        lines.append(f"  config    {m.config_fingerprint[:16]}…")
    scenario = getattr(m, "scenario", None) or {}
    for entry in scenario.get("compared", [scenario] if scenario else []):
        frame = (
            f"{entry.get('machines', '?')}m x {entry.get('days', '?')}d, "
            f"seed {entry.get('seed', '?')}"
        )
        lines.append(
            f"  scenario  {entry.get('scenario', '?')} ({frame}) "
            f"{str(entry.get('fingerprint', ''))[:16]}…"
        )

    if m.startup:
        lines += ["", "startup (wall clock, before and around the command):"]
        _phase_lines(m.startup, 0.0, 0, lines)

    if m.spans:
        lines += ["", "phase breakdown (wall clock, % of command):"]
        root_total = m.spans[0].get("duration_s") or m.duration_s
        _phase_lines(m.spans, root_total, 0, lines)

    units = _counter(m, "parallel.units")
    if units:
        lines += ["", "parallel execution:"]
        lines.append(
            f"  units     {int(units)}    workers "
            f"{m.metrics.get('gauges', {}).get('parallel.workers', '-')}"
        )
        tp = _throughput(m)
        if tp is not None:
            lines.append(f"  throughput  {_fmt(tp, '/s')}")
        summary = _hist(m, "parallel.unit_seconds")
        if summary.get("count"):
            quantiles = "  ".join(
                f"{k}={_fmt(summary[k], 's')}"
                for k in ("p50", "p95", "p99")
                if k in summary
            )
            lines.append(
                f"  unit latency  mean={_fmt(summary['mean'], 's')}  "
                f"{quantiles}  max={_fmt(summary['max'], 's')}"
            )

    rate = _cache_hit_rate(m)
    if rate is not None:
        lines += ["", "dataset cache:"]
        lines.append(
            f"  hit rate  {_fmt(rate, '%')}  "
            f"(hits {int(_counter(m, 'cache.hit') or 0)}, "
            f"misses {int(_counter(m, 'cache.miss') or 0)}, "
            f"writes {int(_counter(m, 'cache.write') or 0)})"
        )

    if m.faults or (_counter(m, "retries.attempts") or 0) > 0:
        lines += ["", "faults and retries:"]
        injected = m.faults.get("injected", {})
        if injected:
            lines.append(
                "  injected  "
                + ", ".join(f"{k}={v}" for k, v in sorted(injected.items()))
            )
        retries = m.retries or {}
        lines.append(
            f"  retries   attempts={retries.get('attempts', 0)} "
            f"succeeded={retries.get('succeeded', 0)} "
            f"exhausted={retries.get('exhausted', 0)}"
        )
        quarantined = m.faults.get("quarantined", [])
        if quarantined:
            lines.append(f"  quarantined  {len(quarantined)} unit(s)")

    if m.io:
        lines += ["", "trace I/O:"]
        for fmt, section in sorted(m.io.items()):
            parts = []
            for key in ("bytes_read", "bytes_written"):
                if key in section:
                    parts.append(f"{key} {_fmt_bytes(section[key])}")
            lines.append(f"  {fmt}: " + ", ".join(parts) if parts else f"  {fmt}")

    serve = m.serve or {}
    if serve:
        lines += ["", "serving:"]
        lines.append(
            f"  requests  {int(serve.get('requests', 0))}    "
            f"QPS {_fmt(serve.get('qps'), '/s')}    "
            f"over {_fmt(serve.get('duration_s'), 's')}"
        )
        latency = serve.get("latency") or {}
        if latency.get("count"):
            quantiles = "  ".join(
                f"{k}={_fmt(latency[k], 's')}"
                for k in ("p50", "p95", "p99")
                if k in latency
            )
            lines.append(
                f"  latency   mean={_fmt(latency['mean'], 's')}  "
                f"{quantiles}  max={_fmt(latency['max'], 's')}"
            )
        status = serve.get("status") or {}
        if status:
            lines.append(
                "  status    "
                + ", ".join(f"{k}={v}" for k, v in sorted(status.items()))
            )
        tier = serve.get("tier") or {}
        if tier:
            block = tier.get("block_machines")
            paging = (
                f" blocks={tier.get('n_blocks', 1)}"
                + (f"×{block}m" if block else "")
            )
            lines.append(
                f"  tier      hot={tier.get('hot_entries', 0)} "
                f"resident={_fmt_bytes(tier.get('resident_bytes', 0))} "
                f"hits={tier.get('hits', 0)} "
                f"rebuilds={tier.get('rebuilds', 0)} "
                f"evictions={tier.get('evictions', 0)}"
                + paging
            )
        ingest = serve.get("ingest") or {}
        if ingest.get("streamed_events"):
            lines.append(
                f"  ingest    streamed={ingest['streamed_events']} "
                f"deduplicated={ingest.get('deduplicated_events', 0)}"
            )
        queue = ingest.get("queue") or {}
        if queue:
            lines.append(
                f"  queue     applied={queue.get('applied_batches', 0)} "
                f"depth={queue.get('depth_events', 0)}"
                f"/{queue.get('capacity_events', 0)} "
                f"backpressure={queue.get('backpressure_rejections', 0)} "
                f"snapshots={queue.get('snapshots', 0)}"
            )
        # Scale-out runs (schema v9): one lane per shard worker.
        for lane in serve.get("workers") or []:
            latency = lane.get("latency") or {}
            p99 = (
                f"  p99={_fmt(latency['p99'], 's')}"
                if latency.get("count")
                else ""
            )
            span = (
                f"[{lane.get('machine_lo')}, {lane.get('machine_hi')})"
                if lane.get("machine_lo") is not None
                else "?"
            )
            state = "up" if lane.get("up") else "DOWN"
            lines.append(
                f"  worker {lane.get('worker')}  {state}  machines {span}  "
                f"requests={lane.get('requests', 0)}  "
                f"QPS {_fmt(lane.get('qps'), '/s')}"
                + p99
            )
        totals = serve.get("totals") or {}
        if totals:
            lines.append(
                f"  fleet     upstream_requests={totals.get('requests', 0)} "
                f"rebuilds={totals.get('rebuilds', 0)} "
                f"evictions={totals.get('evictions', 0)} "
                f"streamed={totals.get('streamed_events', 0)} "
                f"backpressure={totals.get('backpressure_rejections', 0)}"
            )

    res = m.resources or {}
    if res:
        lines += ["", "resources:"]
        peak = res.get("peak", {})
        if peak.get("rss_bytes"):
            lines.append(f"  peak RSS (sampled)  {_fmt_bytes(peak['rss_bytes'])}")
        if res.get("max_rss_bytes"):
            lines.append(f"  max RSS (rusage)    {_fmt_bytes(res['max_rss_bytes'])}")
        if peak.get("cpu_seconds") is not None:
            lines.append(f"  CPU time            {peak['cpu_seconds']:.2f}s")
        if peak.get("open_fds"):
            lines.append(f"  peak open fds       {int(peak['open_fds'])}")
        if res.get("n_samples"):
            lines.append(
                f"  sampler             {res['n_samples']} sample(s) at "
                f"{res.get('interval_s', 0):.3g}s"
            )
        workers = res.get("workers", {})
        if workers:
            lines.append(f"  workers             {len(workers)} process(es)")
            for pid, lane in sorted(workers.items(), key=lambda kv: int(kv[0])):
                lines.append(
                    f"    pid {pid}: peak RSS "
                    f"{_fmt_bytes(lane.get('max_rss_bytes', 0))}, "
                    f"CPU {lane.get('cpu_seconds', 0.0):.2f}s, "
                    f"{lane.get('units', 0)} unit(s)"
                )
    return "\n".join(lines)
