#!/usr/bin/env python3
"""Run one leadkin benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload synth-x1 --seed 7 --seconds 60 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run repeats the pipeline's stages for about ``--seconds`` (at least three
times; an iteration starts only if one as long as the longest so far still
ends in time), checking every iteration's artifacts.  The first iteration
is a warm-up: it is checked but not timed.  Before the first iteration
and after each one it sets up the workload's inputs a few times, so the
``setup_s`` median samples the whole run.

``--trace 0`` reports the end-to-end metrics as medians over the untraced
iterations after the warm-up.  ``--trace 1`` alternates untraced and traced
iterations after the warm-up and reports the per-layer metrics from the
traced ones, plus the tracing overhead (traced minus untraced iteration
wall time).

The last stdout line is the result object; the line before it carries the
environment, per-iteration samples, artifact hashes and failure reasons,
which are also written with the spans to ``.bench_results/``.  Stage
artifacts go to ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # set-ups before the first iteration and after each one
WARMUP_ITERATIONS = 1  # checked, not timed: lazy imports and first-call set-up
MIN_ITERATIONS = WARMUP_ITERATIONS + 2  # one untraced and one traced after the warm-up


def _limit_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))


def _import_program() -> None:
    """Import leadkin from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import leadkin
    except ImportError as exc:
        raise SystemExit(f"error: cannot import leadkin from {src}: {exc}") from None
    if Path(leadkin.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: leadkin was imported from {leadkin.__file__}, not {src}")


_limit_threads()
_import_program()

import checks  # noqa: E402  (needs leadkin on the path)
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_SEED,
    STAGES,
    WORKLOADS,
    Workload,
    artifact_paths,
    setup,
    stage_calls,
    timed,
)

REFERENCE_FILE = BENCH_DIR / "reference.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

# artifacts each stage writes, hashed for the determinism check and the
# byte-identity report
STAGE_ARTIFACTS = {
    "fit": ("params", "counts"),
    "combine": ("combined",),
    "model": ("model",),
    "generate": ("synthetic", "profiles"),
    "validate": ("report",),
}


# --- environment -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "leadkin").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --- one iteration --------------------------------------------------------------


def stage_checks(workload: Workload, paths, n_events: int):
    return {
        "fit": lambda: checks.check_fit(paths["params"], paths["counts"], n_events),
        "combine": lambda: checks.check_combine(paths["combined"]),
        "model": lambda: checks.check_model(paths["model"]),
        "generate": lambda: checks.check_generate(
            paths["model"],
            paths["synthetic"],
            workload.n_synth,
            paths["profiles"] if workload.profiles else None,
            workload.profile_points,
        ),
        "validate": lambda: checks.check_validate(paths["report"]),
    }


class Run:
    """Iterations of one workload, with the failed-operation ledger."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, n_events: int, reference):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.paths = artifact_paths(workdir)
        self.n_events = n_events
        self.reference = reference
        self.attempted = 0
        self.failures = []  # "iteration i: reason"
        self.stage_s = {name: [] for name in STAGES}
        self.walls = {False: [], True: []}  # keyed by traced
        self.hashes = None
        self.failed_ops = 0

    def iteration(self, index: int, tracer=None) -> None:
        stage_s, errors = {}, {}
        if tracer is not None:
            tracer.iteration = index
            tracer.install()
        start = time.perf_counter()
        try:
            for name, call in stage_calls(self.workload, self.seed, self.workdir):
                try:
                    if tracer is None:
                        stage_s[name] = timed(call)
                    else:
                        with tracer.span(f"cli.stage_{name}"):
                            stage_s[name] = timed(call)
                except Exception as exc:  # a stage that raises is a failed operation
                    traceback.print_exc(file=sys.stderr)
                    errors[name] = f"{name} raised {type(exc).__name__}: {exc}"
                    break
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.walls[tracer is not None].append(wall)
        for name, seconds in stage_s.items():
            self.stage_s[name].append(seconds)
        self._check(index, stage_s, errors)

    def _check(self, index: int, ran, errors) -> None:
        reasons = {name: [] for name in STAGES}
        for name, reason in errors.items():
            reasons[name].append(reason)
        run_checks = stage_checks(self.workload, self.paths, self.n_events)
        for name in STAGES:
            if name not in ran and name not in errors:
                reasons[name].append(f"{name} not run after an earlier stage failed")
            elif name in ran:
                reasons[name].extend(run_checks[name]())
        if not errors:
            for name, found in checks.check_reference(self.paths, self.reference).items():
                reasons[name].extend(found)
            hashes = self.artifact_hashes()
            if self.hashes is None:
                self.hashes = hashes
            for name in STAGES:
                for artifact in STAGE_ARTIFACTS[name]:
                    if artifact in hashes and hashes[artifact] != self.hashes[artifact]:
                        reasons[name].append(f"{artifact} differs from iteration 0's")
        self.attempted += len(STAGES)
        for name in STAGES:
            for reason in reasons[name]:
                self.failures.append(f"iteration {index}: {reason}")
        self.failed_ops += sum(1 for r in reasons.values() if r)

    def artifact_hashes(self) -> dict:
        return {
            artifact: checks.sha256(self.paths[artifact])
            for name in STAGES
            for artifact in STAGE_ARTIFACTS[name]
            if self.paths[artifact].exists()
        }


# --- a whole run ----------------------------------------------------------------


def load_reference(workload: str, seed: int):
    if not REFERENCE_FILE.exists():
        return None
    doc = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return doc.get(workload, {}).get(str(seed))


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for ``section``."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path, reference=None):
    """Returns (result, info, tracer or None)."""
    setup_s = []

    def set_up() -> int:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            n_events = setup(workload, workdir)
            setup_s.append(time.perf_counter() - began)
        return n_events

    start = time.perf_counter()
    bench = Run(workload, seed, workdir, set_up(), reference)
    tracer = tracing.Tracer() if trace else None
    index = 0
    longest = 0.0
    while index < MIN_ITERATIONS or time.perf_counter() - start + longest <= seconds:
        traced = trace and index >= WARMUP_ITERATIONS and (index - WARMUP_ITERATIONS) % 2 == 1
        began = time.perf_counter()
        bench.iteration(index, tracer if traced else None)
        set_up()
        longest = max(longest, time.perf_counter() - began)
        index += 1

    untraced = bench.walls[False][WARMUP_ITERATIONS:]  # warm-ups are never traced
    if trace:
        metrics = tracer.summary(len(bench.walls[True]))
        metrics["trace.wall_s"] = statistics.median(bench.walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
        units = declared_units("per_layer")
    else:
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(units))} are not both measured and declared"
        )

    failed = bench.failed_ops
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    hashes = bench.hashes or {}
    info = {
        "workload": workload.name,
        "seed": seed,
        "corpus_seed": CORPUS_SEED,
        "trace": int(trace),
        "seconds": seconds,
        "iterations": index,
        "warmup_iterations": WARMUP_ITERATIONS,
        "traced_iterations": len(bench.walls[True]),
        "samples": {
            "setup_s": setup_s,
            "warmup_wall_s": bench.walls[False][:WARMUP_ITERATIONS],
            "wall_s": untraced,
            "traced_wall_s": bench.walls[True],
            **{f"{name}_s": v[WARMUP_ITERATIONS:] for name, v in bench.stage_s.items()},
        },
        "reference": "checked" if reference is not None else "absent for this seed",
        "sha256": hashes,
        "byte_identical_to_reference": (
            {k: v == reference["sha256"].get(k) for k, v in hashes.items()} if reference else None
        ),
        "failures": bench.failures,
        "environment": environment(),
    }
    return result, info, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="the pipeline's seed")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, info, tracer = run(
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            load_reference(args.workload, args.seed),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    for reason in info["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
