"""The repository benchmark: one command over three named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from that checkout's
``src/``.  Workloads:

* ``pipeline-paper`` — ``repro-fgcs generate`` at the paper's scale and
  ``repro-fgcs analyze --streaming``, as fresh CLI processes.
* ``serve-point``, ``serve-fleet-ingest`` — a ``repro-fgcs serve`` daemon
  under two traffic mixes (the ``--workers 2`` router is traced inside
  the ``serve-fleet-ingest`` traced run).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that prints the per-layer metrics and writes a span trace to
``.perfbench/traces/``.  Every workload prints every metric that
``BENCHMARK.json`` names for its mode: the end-to-end ones are measured on
each workload, and a per-layer metric whose layer does no work in a
workload (the serve layers in ``pipeline-paper``, say) reads 0 there.  Every output is checked; a failed check exits 1
and prints no result.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files live under ``.perfbench/`` in the checkout and are removed
when the run ends; every child process is started in its own process
group and killed and reaped on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    CheckFailed,
    Deadline,
    Reaper,
    install_signal_handlers,
    python_env,
)

WORKLOADS = ("pipeline-paper", "serve-point", "serve-fleet-ingest")
#: Hard per-run deadline, inside the 180 s a run may take.
DEADLINE_S = 170


@dataclass
class Context:
    root: Path
    work: Path
    env: dict
    reaper: Reaper
    seed: int
    seconds: float


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(ctx: Context, workload: str, trace: bool) -> dict:
    if workload == "pipeline-paper":
        import pipeline

        if not trace:
            return pipeline.timed(ctx)
        from tracing import Tracer

        tracer = Tracer()
        result = pipeline.traced(ctx, tracer)
    else:
        import serve

        if not trace:
            return serve.timed(ctx, workload)
        from tracing import Tracer

        tracer = Tracer()
        result = serve.traced(ctx, workload, tracer)
    out = ctx.root / ".perfbench" / "traces" / f"{workload}-seed{ctx.seed}.json"
    tracer.write(out, {k: v[0] for k, v in result["metrics"].items()})
    print(f"trace written to {out.relative_to(ctx.root)}", file=sys.stderr)
    return result


def manifest_units(trace: bool) -> dict:
    """Metric name -> unit that a run in this mode must print."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def complete(metrics: dict, units: dict, trace: bool) -> dict:
    """The workload's metrics in manifest order, per-layer gaps as 0."""
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {unknown}")
    wrong = sorted(n for n, (_, unit) in metrics.items() if unit != units[n])
    if wrong:
        raise ValueError(f"metrics in a unit other than BENCHMARK.json's: {wrong}")
    missing = [n for n in units if n not in metrics]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    if missing:
        print(f"layers idle in this workload, reported as 0: {missing}", file=sys.stderr)
    return {n: metrics.get(n, (0.0, unit)) for n, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/repro: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = manifest_units(bool(args.trace))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    reaper = Reaper(work)
    ctx = Context(ROOT, work, python_env(ROOT, work), reaper, args.seed, args.seconds)
    started = time.perf_counter()
    try:
        install_signal_handlers(DEADLINE_S)
        result = run_workload(ctx, args.workload, bool(args.trace))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        signal.alarm(0)
        reaper.close()
        shutil.rmtree(work, ignore_errors=True)
    survivors = reaper.survivors()
    if survivors:
        print(f"error: processes survived teardown: {survivors}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    try:
        metrics = complete(result["metrics"], units, bool(args.trace))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result.get("failed", 0)),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
