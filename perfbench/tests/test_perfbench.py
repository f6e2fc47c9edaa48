"""Tests of the benchmark harness itself (not part of the program's suite).

    python3 -m pytest perfbench/tests -q

A tiny-size run of each workload must pass its checks (the runner itself
refuses to report metrics BENCHMARK.json does not declare); corrupted
artifacts must be counted as failed operations, never raised or ignored.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402  (first: puts the checkout's src/ on the path)
import checks  # noqa: E402
from workloads import STAGES, WORKLOADS, setup  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "synth-x1": replace(WORKLOADS["synth-x1"], n_synth=200, n_perm=50),
    "fit-x3": replace(WORKLOADS["fit-x3"], scale=1, n_synth=100, n_perm=20),
}


def test_spec_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert set(WORKLOADS) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run(name, tmp_path):
    workload = TINY[name]
    result, info, tracer = bench.run(workload, seed=7, seconds=0, trace=True, workdir=tmp_path)
    assert info["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.MIN_ITERATIONS * len(STAGES)
    metrics = result["metrics"]
    assert metrics["pwl.fit_event_calls"]["value"] == 52 * workload.scale
    assert metrics["synth.draws"]["value"] >= workload.n_synth
    assert metrics["pwl.lstsq_calls"]["value"] > 0
    assert metrics["marginals.nm_nfev"]["value"] > 0
    # every span closed, nested under a stage span
    assert all(s.end >= s.start for s in tracer.spans)
    roots = {s.name for s in tracer.spans if s.parent < 0}
    assert roots == {f"cli.stage_{stage}" for stage in STAGES}


def test_tiny_untraced_run_reports_end_to_end_metrics(tmp_path):
    result, info, tracer = bench.run(TINY["synth-x1"], seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert tracer is None and result["correct"]
    metrics = result["metrics"]
    assert all(v["value"] > 0 for v in metrics.values())
    assert len(info["samples"]["setup_s"]) == bench.SETUP_REPEATS * (1 + info["iterations"])
    assert info["environment"]["nproc"] >= 1


@pytest.fixture
def finished(tmp_path):
    """A tiny synth-x1 iteration that passed every check."""
    workload = TINY["synth-x1"]
    run = bench.Run(workload, 7, tmp_path, setup(workload, tmp_path), reference=None)
    run.iteration(0)
    assert run.failed_ops == 0
    return run


def _recheck(run):
    run._check(1, {stage: 0.0 for stage in STAGES}, {})


def test_constraint_violating_row_is_a_failed_operation(finished):
    path = finished.paths["synthetic"]
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[5]["v_c"] = "-1.0"  # negative speed at time zero: a range violation
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _recheck(finished)
    assert finished.failed_ops == 1
    assert any("violate their bundle's constraints" in f and "range" in f for f in finished.failures)


def test_truncated_model_is_a_failed_operation(finished):
    path = finished.paths["model"]
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    _recheck(finished)
    # the model check and the generate check (which loads the model) both fail
    assert finished.failed_ops == 2
    assert sum("unreadable artifact: JSONDecodeError" in f for f in finished.failures) == 2


def test_stage_that_raises_is_a_failed_operation(finished):
    finished.paths["events"].write_text("not,a,corpus\n", encoding="utf-8")
    finished.iteration(1)
    assert finished.attempted == 2 * len(STAGES)
    assert finished.failed_ops == len(STAGES)  # fit raised, the rest never ran
    assert any("fit raised" in f for f in finished.failures)


def test_reference_drift_is_reported_per_stage(finished):
    reference = json.loads(json.dumps(checks.summarize(finished.paths)))
    assert checks.check_reference(finished.paths, reference) == {}
    mean, sd = reference["describe"]["synthetic"]["v_c"]
    reference["describe"]["synthetic"]["v_c"] = [mean + 0.5 * sd, sd]
    reference["counts"]["combined_rows"] += 1
    drift = checks.check_reference(finished.paths, reference)
    assert sorted(drift) == ["combine", "generate"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-x1", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
