"""Benchmark workloads: inputs made from a seed, then the pipeline stages.

Every workload writes a demo corpus with ``leadkin.demo.make_demo_events``
and runs ``fit -> combine -> model -> generate -> validate`` through the
public ``leadkin.cli.stage_*`` functions.

The workload seed is the pipeline's seed (``PipelineConfig.seed``): it sets
the fit restarts, the synthetic draws and the KS permutations.  The corpus
seed is a constant, because the corpus decides which marginals are
exponentially-modified normal, whose inverse CDF dominates sampling: on a
2-core Xeon, corpus seeds 1-7 at x1 moved the generate stage between 2.7 s
and 6.9 s, a spread no run length can steady.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from leadkin import cli, demo, ingest

BASE_GROUP_SIZES = (10, 8, 14, 20)  # CISS_sc, SHRP2_sc, SHRP2_nsc, SHRP2_nc at scale x1
CORPUS_SEED = 7
PROFILE_DT = 0.1
STAGES = ("fit", "combine", "model", "generate", "validate")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int  # demo corpus size as a multiple of BASE_GROUP_SIZES
    n_synth: int
    n_perm: int
    profiles: bool = False  # generate also writes per-event speed profiles

    def config(self, seed: int, workdir: Path) -> cli.PipelineConfig:
        return cli.PipelineConfig(
            n_synth=self.n_synth,
            n_perm=self.n_perm,
            profile_dt=PROFILE_DT,
            seed=seed,
            workdir=str(workdir),
        )

    @property
    def profile_points(self) -> int:
        return round(5.0 / PROFILE_DT) + 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("synth-x1", scale=1, n_synth=2000, n_perm=2000, profiles=True),
        Workload("fit-x3", scale=3, n_synth=500, n_perm=500),
    )
}


def artifact_paths(workdir: Path) -> Dict[str, Path]:
    names = {
        "events": "events.csv",
        "params": "params.csv",
        "counts": "params.counts.json",
        "combined": "combined.csv",
        "model": "model.json",
        "synthetic": "synthetic.csv",
        "profiles": "profiles.csv",
        "report": "report.json",
    }
    return {k: workdir / v for k, v in names.items()}


def setup(workload: Workload, workdir: Path) -> int:
    """Write the workload's input corpus; returns its event count."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = artifact_paths(workdir)["events"]
    sizes = tuple(workload.scale * n for n in BASE_GROUP_SIZES)
    written = demo.make_demo_events(path, seed=CORPUS_SEED, events_per_group=sizes)
    loaded = len(ingest.load_events(path))
    if loaded != written:
        raise RuntimeError(f"demo corpus has {loaded} events, {written} were written")
    return written


def stage_calls(workload: Workload, seed: int, workdir: Path) -> List[Tuple[str, Callable[[], None]]]:
    """(stage name, call) pairs of one iteration, in pipeline order."""
    p = artifact_paths(workdir)
    cfg = workload.config(seed, workdir)
    # looked up on the module at call time, so a tracer's wrappers apply
    calls = {
        "fit": lambda: cli.stage_fit(cfg, p["events"], p["params"], p["counts"]),
        "combine": lambda: cli.stage_combine(cfg, p["params"], p["combined"], p["counts"]),
        "model": lambda: cli.stage_model(cfg, p["combined"], p["model"]),
        "generate": lambda: cli.stage_generate(
            cfg, p["model"], p["synthetic"], p["profiles"] if workload.profiles else None, PROFILE_DT
        ),
        "validate": lambda: cli.stage_validate(cfg, p["combined"], p["synthetic"], p["report"]),
    }
    return [(name, calls[name]) for name in STAGES]


def timed(call: Callable[[], None]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start
