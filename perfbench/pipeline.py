"""``pipeline-paper``: the paper's testbed generated and analysed by the CLI.

Timed run: fresh ``repro-fgcs generate`` (20 machines x 92 days, 4 binary
shards, ``--jobs 2``) and ``repro-fgcs analyze --streaming`` processes,
repeated for the run's seconds; ``op_p50_ms`` is the median wall time of
one generate + analyze round.  Every repeat must write identical shard
bytes and print an identical report; for :data:`DEFAULT_SEED` both must
also equal the digests pinned below.

Traced run: the same commands in process at ``--jobs 1`` with spans
around synth, detect, encode, shard open, ``generate_shards`` and
``analyze_shards``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

from harness import check, cli, import_seconds, median

DEFAULT_SEED = 2006

#: Shard sha256s and report sha256 for ``--seed`` :data:`DEFAULT_SEED`.
PINNED = {
    "shards": [
        "2479e75fb49ae4e2a51d293ca7c8d58988ff9a5bea379f9795752958db6d0c32",
        "f87ce8cb30be5a141ff17f8d2ca4fe1f02d4037e99d78550fe0e8441e3ea9c80",
        "2bbcc6fd3b5a826ad2a1c2988068b99880a745dfbc47212bd3c42eb682a8359c",
        "c8ed332d31c904c0f1747868741f5e0af77c3d1c4455fde5960cb86d8850d763",
    ],
    "report": "3ab7b330a93cfd9da35e7a9d527258418d70d5ecae7f653727ceb9705eb19cf1",
}

SETUP_REPEATS = 3
MIN_REPEATS = 2


def generate_argv(out: str, seed: int, jobs: int) -> list[str]:
    return [
        "generate", out, "--machines", "20", "--days", "92", "--seed", str(seed),
        "--shards", "4", "--format", "binary", "--jobs", str(jobs),
    ]


def analyze_argv(trace: str) -> list[str]:
    return ["analyze", "--trace", trace, "--streaming"]


def shard_digests(trace_dir: Path) -> list[str]:
    manifest = json.loads((trace_dir / "manifest.json").read_text())
    return [shard["sha256"] for shard in manifest["shards"]]


def check_digests(seed: int, shards: list[str], report: str) -> None:
    if seed == DEFAULT_SEED:
        check(shards == PINNED["shards"], f"shard sha256s {shards} != pinned")
        check(report == PINNED["report"], f"report sha256 {report} != pinned")


def run_cli_pair(ctx, jobs: int) -> tuple[float, float, float, list[str], str]:
    """One generate + analyze repeat as fresh CLI processes."""
    trace = ctx.work / "trace"
    shutil.rmtree(trace, ignore_errors=True)
    gen_s, gen_rss = ctx.reaper.run_timed(
        cli(*generate_argv("trace", ctx.seed, jobs)), env=ctx.env, cwd=ctx.work
    )
    report_path = ctx.work / "report.txt"
    ana_s, ana_rss = ctx.reaper.run_timed(
        cli(*analyze_argv("trace")), env=ctx.env, cwd=ctx.work, stdout_path=report_path
    )
    report = hashlib.sha256(report_path.read_bytes()).hexdigest()
    return gen_s, ana_s, max(gen_rss, ana_rss), shard_digests(trace), report


def timed(ctx) -> dict:
    """Fresh CLI processes only.  This process imports neither numpy nor
    the program here: ``ru_maxrss`` of a child counts the parent's peak at
    exec time, so a lean parent keeps ``peak_rss_mb`` the CLI's own."""
    setup_s = import_seconds(ctx, "repro.cli")
    attempted = 1 + SETUP_REPEATS
    gens, anas, rss, outputs = [], [], [], set()
    t0 = time.perf_counter()
    while len(gens) < MIN_REPEATS or time.perf_counter() - t0 < ctx.seconds:
        gen_s, ana_s, peak, shards, report = run_cli_pair(ctx, jobs=2)
        attempted += 2
        gens.append(gen_s)
        anas.append(ana_s)
        rss.append(peak)
        outputs.add((tuple(shards), report))
        check_digests(ctx.seed, shards, report)
    check(len(outputs) == 1, f"repeats disagree: {len(outputs)} distinct outputs")
    print(
        f"pipeline-paper: {len(gens)} repeats, generate median {median(gens):.3f} s, "
        f"analyze median {median(anas):.3f} s, digests {outputs}",
        file=sys.stderr,
    )
    return {
        "attempted": attempted,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1e3 * median([g + a for g, a in zip(gens, anas)]), "ms"),
            "peak_rss_mb": (median(rss), "MB"),
        },
    }


def _in_process(ctx, tracer=None) -> tuple[float, list[str], str]:
    """generate + analyze through ``repro.cli.main`` in this process."""
    from repro import cli as repro_cli

    trace = ctx.work / "trace-inproc"
    shutil.rmtree(trace, ignore_errors=True)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with (tracer.span("cli.generate") if tracer else contextlib.nullcontext()):
            rc_gen = repro_cli.main(generate_argv(str(trace), ctx.seed, jobs=1))
        mark = out.tell()
        with (tracer.span("cli.analyze") if tracer else contextlib.nullcontext()):
            rc_ana = repro_cli.main(analyze_argv(str(trace)))
    wall = time.perf_counter() - t0
    check(rc_gen == 0 and rc_ana == 0, f"in-process CLI exited {rc_gen}/{rc_ana}")
    report = hashlib.sha256(out.getvalue()[mark:].encode()).hexdigest()
    return wall, shard_digests(trace), report


def _install_wrappers(tracer) -> None:
    """Batch-layer spans, plus the serve layers' entry points so that a
    serve call on the batch path would show up as a span."""
    import repro.analysis
    import repro.traces
    import repro.traces.binio as binio
    import repro.traces.generate as generate
    from repro.core.detector import BatchDetector
    from serve import install_serve_wrappers

    tracer.wrap(generate, "synthesize_samples_columns", "workloads.synth")
    tracer.wrap(
        BatchDetector, "detect_columns", "core.detect",
        lambda a, k, rows: tracer.count("core.events_out", len(rows)),
    )
    tracer.wrap(
        binio, "save_columns_binary", "traces.encode",
        lambda a, k, _: tracer.count("traces.bytes_written", os.path.getsize(a[1])),
    )
    tracer.wrap(binio, "open_columns", "traces.open")
    install_serve_wrappers(tracer, open_columns=False)
    tracer.wrap(repro.traces, "generate_shards", "traces.generate_shards")
    tracer.wrap(
        repro.analysis, "analyze_shards", "analysis.analyze_shards",
        lambda a, k, result: tracer.count("analysis.events", a[0].n_events),
    )


ROUNDS = 2


def traced(ctx, tracer) -> dict:
    """Layer figures are per traced round: totals over :data:`ROUNDS`
    rounds divided by the round count."""
    with tracer.span("import.cli"):
        import_cli = import_seconds(ctx, "repro.cli")
    with tracer.span("import.serve"):
        import_serve = import_seconds(ctx, "repro.serve")
    with tracer.span("parallel.cli_generate_jobs2"):
        gen_s, _, _, shards, report = run_cli_pair(ctx, jobs=2)
    check_digests(ctx.seed, shards, report)

    # Warm-up: fills the in-process caches a CLI process fills on its
    # first machine, so the plain and traced rounds below compare alike.
    _in_process(ctx)
    plain, with_spans = [], []
    for _ in range(ROUNDS):
        wall, s, r = _in_process(ctx)
        check((s, r) == (shards, report), "in-process jobs=1 output != CLI jobs=2 output")
        plain.append(wall)
        _install_wrappers(tracer)
        try:
            wall, s, r = _in_process(ctx, tracer)
        finally:
            tracer.restore()
        check((s, r) == (shards, report), "traced output != untraced output")
        with_spans.append(wall)

    serve_spans = [s for s in tracer.spans if s[2].startswith("serve.")]
    check(not serve_spans, f"pipeline-paper recorded {len(serve_spans)} serve-layer spans")
    synth = tracer.total("workloads.synth") / ROUNDS
    detect = tracer.total("core.detect") / ROUNDS
    encode = tracer.total("traces.encode") / ROUNDS
    analyze_s = tracer.total("analysis.analyze_shards") / ROUNDS
    c = {name: n / ROUNDS for name, n in tracer.counts.items()}
    return {
        "attempted": 2 * (1 + SETUP_REPEATS) + 2 + 2 * (1 + 2 * ROUNDS),
        "metrics": {
            "import.cli_s": (import_cli, "s"),
            "import.serve_s": (import_serve, "s"),
            "workloads.synth_s": (synth, "s"),
            "workloads.synth_calls": (c["workloads.synth.calls"], "count"),
            "core.detect_s": (detect, "s"),
            "core.detect_calls": (c["core.detect.calls"], "count"),
            "core.events_out": (c["core.events_out"], "count"),
            "traces.encode_s": (encode, "s"),
            "traces.bytes_written": (c["traces.bytes_written"], "bytes"),
            "traces.open_s": (tracer.total("traces.open") / ROUNDS, "s"),
            "traces.open_calls": (c["traces.open.calls"], "count"),
            "traces.generate_shards_self_s": (
                tracer.self_times()["traces.generate_shards"] / ROUNDS, "s"
            ),
            "parallel.efficiency": ((synth + detect + encode) / (2 * (gen_s - import_cli)), "ratio"),
            "analysis.analyze_shards_s": (analyze_s, "s"),
            "analysis.events_per_s": (c["analysis.events"] / analyze_s, "1/s"),
            "trace.overhead_ratio": (median(with_spans) / median(plain), "ratio"),
        },
    }
