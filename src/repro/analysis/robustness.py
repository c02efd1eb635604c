"""Seed-robustness of the reproduction.

The landmark checks pass on the default seed; this harness reruns the
whole generate→detect→analyze pipeline over many seeds and reports, per
landmark, how often it holds — distinguishing a calibrated model from one
tuned to a lucky random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import FgcsConfig
from ..errors import ReproError
from ..faults import FaultContext
from ..parallel.backend import get_backend
from ..traces.generate import generate_dataset
from ..workloads.loadmodel import preload_filter
from .compare import LandmarkCheck, check_paper_landmarks

__all__ = ["RobustnessReport", "seed_sweep"]


@dataclass(frozen=True)
class RobustnessReport:
    """Per-landmark pass rates over a seed sweep."""

    seeds: tuple[int, ...]
    #: landmark name -> (passes, total, worst measured value).
    results: dict[str, tuple[int, int, float]]

    def pass_rate(self, name: str) -> float:
        passes, total, _ = self.results[name]
        return passes / total

    def fragile_landmarks(self, threshold: float = 1.0) -> list[str]:
        """Landmarks passing on fewer than ``threshold`` of the seeds."""
        return [
            name
            for name in self.results
            if self.pass_rate(name) < threshold
        ]

    def render(self) -> str:
        from .report import render_table

        rows = []
        for name, (passes, total, worst) in sorted(self.results.items()):
            rows.append([name, f"{passes}/{total}", f"{worst:.3f}"])
        return render_table(
            ["landmark", "passes", "worst measured"],
            rows,
            title=f"Seed robustness over {len(self.seeds)} seeds",
        )


def _seed_landmarks(
    payload: tuple[FgcsConfig, int],
) -> list[LandmarkCheck]:
    """One seed's full generate→detect→check run (the parallel work unit).

    Generation inside the worker is forced serial — the sweep is the
    parallel axis here, and pools must not nest — while any configured
    dataset cache is still honored.
    """
    import dataclasses

    base, seed = payload
    cfg = base.with_seed(seed)
    dataset = generate_dataset(
        cfg,
        keep_hourly_load=False,
        execution=dataclasses.replace(cfg.execution, jobs=1),
    )
    return check_paper_landmarks(dataset)


def seed_sweep(
    seeds: Sequence[int],
    *,
    base_config: FgcsConfig | None = None,
    jobs: int = 1,
    faults: FaultContext | None = None,
) -> RobustnessReport:
    """Run the full pipeline per seed and tally landmark outcomes.

    Seeds are independent reruns of the whole pipeline, so ``jobs > 1``
    fans them out over worker processes; tallies are merged in seed order
    and are identical for every ``jobs`` value.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ReproError("need at least one seed")
    base = base_config or FgcsConfig()
    results: dict[str, tuple[int, int, float]] = {}
    preload_filter()
    per_seed = get_backend(jobs).map(
        _seed_landmarks, [(base, seed) for seed in seeds], faults=faults
    )
    for checks in per_seed:
        for check in checks:
            passes, total, worst = results.get(
                check.name, (0, 0, check.measured)
            )
            # "Worst" = farthest outside (or closest to) the band.
            mid = (check.lo + check.hi) / 2
            if abs(check.measured - mid) > abs(worst - mid):
                worst = check.measured
            results[check.name] = (
                passes + (1 if check.ok else 0),
                total + 1,
                worst,
            )
    return RobustnessReport(seeds=seeds, results=results)
