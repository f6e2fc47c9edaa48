"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure); tolerances are fixed here, not tuned at runtime.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from groundtruth import ground_truth_corpus, recovery_corpus
from leadkin.cli import PipelineConfig, run_pipeline
from leadkin.combine import (
    GroupCounts,
    build_plan,
    merge_near_crashes,
    preprocess,
    reweight_combine,
)
from leadkin.demo import make_demo_events
from leadkin.events import EventParams, PARAM_NAMES, ParamTable, Severity, SourceGroup
from leadkin.mvdist import build_all
from leadkin.pwl import fit_event
from leadkin.synth import assemble_synthetic
from leadkin.validate import describe, weighted_ks_test


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# --- shared fixtures -------------------------------------------------------------


@pytest.fixture(scope="module")
def distribution_corpus():
    return ground_truth_corpus(seed=2024, counts=(90, 120, 90))


@pytest.fixture(scope="module")
def full_synthetic(distribution_corpus):
    bundles = build_all(distribution_corpus)
    synthetic, _ = assemble_synthetic(bundles, 10000, seed=777)
    return bundles, synthetic


# --- criteria --------------------------------------------------------------------


def test_c1_combination_algebra_oracle():
    with criterion("1 combination algebra"):
        rng = np.random.default_rng(0)

        def crash(event_id, group, severity, v_c, native=None):
            return EventParams(
                event_id, v_c, -1.0, -1.0, 0.0, 5.0, 0.0,
                source_group=group, severity=severity, native_weight=native,
            )

        events = []
        for i in range(49):
            events.append(crash(f"c{i}", SourceGroup.CISS_SC, Severity.SEVERE,
                                float(rng.uniform(0, 30.4)), native=float(rng.lognormal(3, 1))))
        for i in range(20):
            events.append(crash(f"s{i}", SourceGroup.SHRP2_SC, Severity.SEVERE,
                                float(rng.uniform(0, 7.9))))
        for i in range(63):
            events.append(crash(f"n{i}", SourceGroup.SHRP2_NSC, Severity.NON_SEVERE,
                                float(rng.uniform(0, 6))))
        counts = GroupCounts(
            raw={SourceGroup.CISS_SC: 52, SourceGroup.SHRP2_SC: 24, SourceGroup.SHRP2_NSC: 106},
            valid={SourceGroup.CISS_SC: 49, SourceGroup.SHRP2_SC: 20, SourceGroup.SHRP2_NSC: 63},
        )
        start = time.perf_counter()
        pre = preprocess(ParamTable.from_rows(events), counts)
        plan = build_plan(pre, counts)
        combined = reweight_combine(pre, plan)
        elapsed = time.perf_counter() - start

        assert abs(plan.nonsevere_share - 106 / 130) < 1e-9
        assert plan.combined_size == 132.0
        assert abs(combined.weight.sum() - 132.0) < 1e-9
        assert elapsed < 1.0


def test_c2_fit_recovery():
    with criterion("2 fit recovery"):
        corpus = recovery_corpus(500, seed=91, noise=0.05)
        config = PipelineConfig()
        start = time.perf_counter()
        n_match = 0
        breakpoint_errors = []
        adj_ok = 0
        for i, (true_bks, profile) in enumerate(corpus):
            fit = fit_event(profile, config, np.random.default_rng(10_000 + i))
            adj_ok += fit.r_squared_adj > 0.9
            if fit.n_b == len(true_bks):
                n_match += 1
                if true_bks.size:
                    err = np.abs(np.sort(np.asarray(fit.breakpoints)) - true_bks)
                    breakpoint_errors.append(err.max())
        elapsed = time.perf_counter() - start

        assert n_match / len(corpus) >= 0.95
        assert max(breakpoint_errors) <= 0.15
        assert adj_ok / len(corpus) >= 0.98
        assert elapsed < 60.0


def test_c3_loss_formula_oracle():
    with criterion("3 selection loss oracle"):
        from leadkin.events import SpeedProfile
        from leadkin.pwl import PwlFit, loss

        rng = np.random.default_rng(7)
        config = PipelineConfig()
        cases = []
        for _ in range(99):
            v_lo = rng.uniform(0, 10)
            v_hi = v_lo + rng.uniform(0.01, 20)
            cases.append((v_lo, v_hi, int(rng.integers(0, 4)), float(rng.uniform(-0.2, 1))))
        cases.append((0.0, 0.0, 2, 0.0))  # standstill boundary

        for v_lo, v_hi, n_b, r2 in cases:
            times = np.array([-5.0, -2.5, 0.0])
            speeds = np.array([v_lo, (v_lo + v_hi) / 2, v_hi])
            profile = SpeedProfile("x", times, speeds)
            edges = (-5.0, *np.linspace(-4, -1, n_b), 0.0)
            fit = PwlFit(edges, (v_hi,) * len(edges), r2, r2)

            v_max = max(v_lo, v_hi)
            dv = abs(v_hi - v_lo)
            expected = (config.epsilon + config.penalty * v_max / (dv + config.epsilon)) * n_b - r2
            assert abs(loss(fit, profile, config) - expected) <= 1e-12


def test_c4_round_trip_distribution_fidelity(distribution_corpus, full_synthetic):
    with criterion("4 round-trip distribution fidelity"):
        start = time.perf_counter()
        bundles, synthetic = full_synthetic
        raw = distribution_corpus

        raw_stats = describe(raw)
        syn_stats = describe(synthetic)
        rng = np.random.default_rng(4242)
        for name in PARAM_NAMES:
            result = weighted_ks_test(
                raw[name], raw.weight, synthetic.events[name], None,
                config=PipelineConfig(n_perm=2000), seed=rng.integers(2**63),
            )
            assert result.p_value >= 0.10, f"{name}: p={result.p_value:.4f} D={result.statistic:.4f}"
            for k in (0, 1):  # mean and SD within 15% relative
                rel = abs(syn_stats[name][k] - raw_stats[name][k]) / abs(raw_stats[name][k])
                assert rel < 0.15, f"{name}: stat {k} off by {rel:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0


def test_c5_bootstrap_robustness(distribution_corpus):
    with criterion("5 bootstrap robustness"):
        from leadkin.validate import bootstrap_robustness

        start = time.perf_counter()
        report = bootstrap_robustness(
            distribution_corpus,
            fractions=(0.9, 0.8),
            reps=20,
            n_synth=1000,
            n_reference=10000,
            config=PipelineConfig(alpha_ks=0.1, seed=909, n_perm=200),
        )
        elapsed = time.perf_counter() - start
        for fraction in (0.9, 0.8):
            for name in PARAM_NAMES:
                assert report.proportions[fraction][name] > 0.1, (
                    f"fraction {fraction}, {name}: {report.proportions[fraction][name]}"
                )
        assert elapsed < 900.0


def test_c6_merge_weight_conservation():
    with criterion("6 near-crash merge conservation"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_crash = int(rng.integers(5, 25))
            crashes = []
            for i in range(n_crash):
                crashes.append(
                    EventParams(
                        f"crash-{i:03d}",
                        rng.uniform(0, 10),
                        rng.normal(-2, 1),
                        rng.normal(-1, 1),
                        rng.uniform(0, 2),
                        rng.uniform(0.5, 4),
                        rng.uniform(0, 2),
                        weight=float(rng.uniform(0.2, 3.0)),
                        source_group=SourceGroup.SHRP2_NSC,
                        severity=Severity.NON_SEVERE,
                    )
                )
            dataset = ParamTable.from_rows(crashes)
            ncs = []
            for k in range(int(rng.integers(5, 40))):
                host = dataset.values[int(rng.integers(0, n_crash))]
                jitter = rng.uniform(0, 0.4)
                ncs.append(
                    EventParams(
                        f"nc-{k:03d}",
                        *(host + jitter * rng.normal(size=6)),
                        weight=1.0,
                        source_group=SourceGroup.SHRP2_NC,
                        severity=Severity.NONE,
                    )
                )
            merged, result = merge_near_crashes(dataset, ParamTable.from_rows(ncs), config=PipelineConfig(d_thd=0.78))

            assert abs(merged.weight.sum() - dataset.weight.sum()) < 1e-9
            original = {e.event_id: e.weight for e in crashes}
            merged_by_id = {e.event_id: e.weight for e in merged}
            attached = {}
            for nc_id, crash_id, _ in result.selected:
                attached.setdefault(crash_id, []).append(merged_by_id[nc_id])
            for crash_id, nc_weights in attached.items():
                total = math.fsum([merged_by_id[crash_id], *nc_weights])
                assert total == original[crash_id]


def test_c7_ks_null_calibration():
    with criterion("7 weighted KS null calibration"):
        rejections = 0
        for trial in range(100):
            rng = np.random.default_rng(31_000 + trial)
            a = rng.normal(size=200)
            b = rng.normal(size=200)
            result = weighted_ks_test(a, None, b, None, config=PipelineConfig(n_perm=500), seed=trial)
            rejections += result.p_value < 0.10
        rate = rejections / 100
        assert 0.04 <= rate <= 0.18, f"null rejection rate {rate}"


PUBLISHED = os.environ.get("LEADKIN_PUBLISHED_DATASET", "data/combined_incident.csv")


@pytest.mark.skipif(
    not Path(PUBLISHED).exists(),
    reason="published combined incident dataset not available "
    "(set LEADKIN_PUBLISHED_DATASET to its CSV path)",
)
def test_c8_published_dataset_reproduction():
    with criterion("8 published dataset reproduction"):
        from leadkin.tables import read_combined_csv

        dataset = read_combined_csv(PUBLISHED).events
        stats = describe(dataset)
        reference = {
            "v_c": (2.01, 4.69),
            "a1": (-1.37, 1.82),
            "tau_s": (1.73, 2.07),
        }
        for name, (mean, sd) in reference.items():
            assert stats[name][0] == pytest.approx(mean, abs=0.02)
            assert stats[name][1] == pytest.approx(sd, abs=0.02)

        bundles = build_all(dataset)
        synthetic, _ = assemble_synthetic(bundles, 10000, seed=1)
        for j, name in enumerate(PARAM_NAMES):
            result = weighted_ks_test(
                dataset[name], dataset.weight, synthetic.events[name], None,
                config=PipelineConfig(n_perm=2000), seed=j,
            )
            assert result.p_value > 0.10


def test_c9_pipeline_determinism(tmp_path):
    with criterion("9 pipeline determinism"):
        events_csv = tmp_path / "events.csv"
        make_demo_events(events_csv, seed=7)
        outputs = []
        for run in ("one", "two"):
            config = PipelineConfig(
                input=str(events_csv),
                workdir=str(tmp_path / run),
                seed=2025,
                n_synth=500,
                n_perm=200,
            )
            outputs.append(run_pipeline(config))
        for a, b in zip(*outputs):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
