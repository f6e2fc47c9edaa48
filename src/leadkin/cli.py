"""Command-line pipeline: fit, combine, model, generate, validate, bootstrap.

Each stage reads and writes plain CSV/JSON artifacts so any stage can be
re-run or replaced in isolation.  Exit codes: 0 success, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import math
import multiprocessing
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import combine as combine_mod
from . import ingest, pwl, tables
from . import validate as validate_mod
from .config import PipelineConfig
from .errors import BadArgument, InputError, LeadkinError, NumericalError
from .events import PARAM_NAMES, ParamTable
from .jsonio import read_json, write_json
from .marginals import fit_tally
from .mvdist import build_all, bundles_from_json, bundles_to_json
from .synth import assemble_synthetic, params_to_profile
from .validate import bootstrap_robustness, check_bootstrap_args, compare_datasets

log = logging.getLogger(__name__)

STAGES = ("fit", "combine", "model", "generate", "validate")


def event_rng(master_seed: int, event_id: str) -> np.random.Generator:
    """Per-event generator that is stable under event reordering."""
    digest = hashlib.sha256(f"{master_seed}:{event_id}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# --- stages --------------------------------------------------------------------


_FIT_CHUNK = 16  # most events in one batch sent to a fit worker


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the platform has none."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _fit_batch(config: PipelineConfig, profiles: list) -> Tuple[List[pwl.PwlFit], float]:
    """One batch's fits and its elapsed seconds.  Each event's generator
    depends only on the seed and the event id, and its fit never on the
    other events of the batch, so a fit is the same in any batch and any
    process."""
    began = time.perf_counter()
    fits = pwl.fit_events(profiles, config, [event_rng(config.seed, p.event_id) for p in profiles])
    return fits, time.perf_counter() - began


def _fit_all(config: PipelineConfig, profiles: list) -> Tuple[int, List[pwl.PwlFit], List[float]]:
    """(worker count, fits in input order, seconds of each batch).

    The profiles are cut, in order, into batches of at most ``_FIT_CHUNK``
    events, the same number of batches for each worker and sizes that
    differ by at most one.  Batches run in forked workers, one per usable
    CPU and at most one per profile, or in this process when that is one
    or fork is unavailable.  Forked, not spawned: a worker starts with the
    parent's imported modules and state, where a spawned one would import
    numpy and scipy again on every call.  The pool forks every worker
    before it starts its own threads.  Only an error with the default
    constructor (``FitDiverged``) can be raised here, so it reaches the
    caller as itself; ``with`` joins every worker
    whether the map returns or raises.
    """
    n = len(profiles)
    workers = max(min(_usable_cpus(), n), 1)
    n_batches = workers * math.ceil(n / (workers * _FIT_CHUNK))
    batches = [profiles[i * n // n_batches : (i + 1) * n // n_batches] for i in range(n_batches)]
    fit = partial(_fit_batch, config)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        workers, done = 1, list(map(fit, batches))
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            done = list(pool.map(fit, batches))
    return workers, [f for fits, _ in done for f in fits], [seconds for _, seconds in done]


def stage_fit(config: PipelineConfig, input_path, params_out, counts_out=None) -> None:
    events = ingest.load_events(input_path)
    raw_counts = Counter(event.source_group for event in events)
    skipped: Counter = Counter()
    windowed = []  # (event, profile) of every event with samples in the window
    for event in events:
        try:
            profile = ingest.window_event(event)
        except LeadkinError as exc:
            log.warning("skipping event %s: %s", event.event_id, exc)
            skipped[type(exc).__name__] += 1
            continue
        windowed.append((event, profile))
    began = time.perf_counter()
    workers, fits, batch_s = _fit_all(config, [profile for _, profile in windowed])
    fit_s = time.perf_counter() - began
    events = [event for event, _ in windowed]
    valid = [ingest.validate_event(profile, fit) for (_, profile), fit in zip(windowed, fits)]
    table = ParamTable(
        np.reshape([pwl.extract_params(fit, config) for fit in fits], (-1, len(PARAM_NAMES))),
        event_id=[event.event_id for event in events],
        source_group=[event.source_group for event in events],
        severity=[event.severity for event in events],
        native_weight=[event.native_weight for event in events],
    )
    tables.write_params_csv(params_out, table, [fit.r_squared for fit in fits], [fit.n_b for fit in fits], valid)
    valid_groups = [event.source_group for event, ok in zip(events, valid) if ok]
    counts = combine_mod.GroupCounts.from_groups(valid_groups, raw_counts=raw_counts)
    if counts_out is None:
        counts_out = Path(params_out).with_suffix(".counts.json")
    tables.write_counts_json(counts_out, counts)
    log.info(
        "fit: %d events, %d valid, %d invalid; n_b histogram %s; "
        "%d non-negativity repairs; skipped %s",
        len(fits),
        len(valid_groups),
        len(fits) - len(valid_groups),
        dict(sorted(Counter(fit.n_b for fit in fits).items())),
        sum(fit.modified_for_nonnegativity for fit in fits),
        dict(sorted(skipped.items())),
    )
    p50, p90 = np.percentile(batch_s, [50, 90]) if batch_s else (math.nan, math.nan)
    # its own prefix: the summary above stays the one line that starts "fit: "
    log.info(
        "fit timing: %d workers, %d batches, %.2f s; per-batch fit s p50 %.3f p90 %.3f",
        workers, len(batch_s), fit_s, p50, p90,
    )


def stage_combine(
    config: PipelineConfig,
    params_path,
    combined_out,
    counts_path=None,
    threshold_quantile=None,
) -> None:
    if threshold_quantile is not None and not 0.0 <= threshold_quantile <= 1.0:  # also rejects NaN
        raise InputError(f"similarity threshold quantile must be in [0, 1], got {threshold_quantile}")
    events = tables.read_params_csv(params_path)
    if counts_path is None:
        sidecar = Path(params_path).with_suffix(".counts.json")
        counts_path = sidecar if sidecar.exists() else None
    if counts_path is not None:
        counts = tables.read_counts_json(counts_path)
    else:
        log.warning("no counts sidecar; deriving raw counts from the parameter table")
        counts = combine_mod.GroupCounts.from_groups(events.source_group)
    _, ncs = combine_mod.split_near_crashes(events)
    preprocessed = combine_mod.preprocess(events, counts)
    plan = combine_mod.build_plan(preprocessed, counts)
    combined_crash = combine_mod.reweight_combine(preprocessed, plan)
    if threshold_quantile is not None:
        threshold = combine_mod.distance_threshold_from_quantile(
            combined_crash, threshold_quantile
        )
        log.info("similarity threshold from quantile %.2f: %.4f", threshold_quantile, threshold)
        config = dataclasses.replace(config, d_thd=threshold)
    merged, merge_result = combine_mod.merge_near_crashes(combined_crash, ncs, config)
    tables.write_combined_csv(combined_out, merged, merge_result)
    log.info(
        "combine: %d crashes + %d/%d near-crashes, total weight %.6f",
        len(combined_crash),
        len(merge_result.selected),
        len(ncs),
        merged.weight.sum(),
    )


def stage_model(config: PipelineConfig, combined_path, model_out) -> None:
    table = tables.read_combined_csv(combined_path).events
    with fit_tally() as tally:
        bundles = build_all(table, config)
    write_json(model_out, bundles_to_json(bundles))
    log.info(
        "model: %d bundles; %d univariate fits, %d Nelder-Mead runs, %d evaluations; "
        "chosen families by role %s; families without a fit %s",
        len(bundles),
        tally.univariate_fits,
        tally.nm_runs,
        tally.nm_nfev,
        _chosen_families(bundles),
        dict(sorted(tally.failed.items())),
    )


def _chosen_families(bundles) -> Dict[str, Dict[str, int]]:
    """Counts of the fitted marginal family per parameter role, over all bundles."""
    chosen: Dict[str, Counter] = {}
    for bundle in bundles:
        for name, role in bundle.roles().items():
            if role == "correlated":
                dist = bundle.correlated.marginals[bundle.correlated.names.index(name)]
            elif role in ("uncorrelated", "point-mass"):
                dist = bundle.uncorrelated[name]
                dist = getattr(dist, "continuous", dist)  # a hurdle's continuous part
            else:
                continue  # constants and copies have no marginal
            family = "none" if dist is None else dist.family
            chosen.setdefault(role, Counter())[family] += 1
    return {role: dict(sorted(c.items())) for role, c in sorted(chosen.items())}


def stage_generate(
    config: PipelineConfig, model_path, synthetic_out, profiles_out=None, dt=None
) -> None:
    if dt is not None:
        config = dataclasses.replace(config, profile_dt=dt)  # checked by the profile_dt rule
    doc = read_json(model_path, "model artifact")
    try:
        bundles = bundles_from_json(doc)
    except InputError as exc:
        raise InputError(f"model artifact {model_path}: {exc}") from None
    began = time.perf_counter()
    dataset, rejections = assemble_synthetic(bundles, config.n_synth, seed=config.seed)
    sample_s = time.perf_counter() - began
    accepted = Counter(dataset.bundle_ids)
    for bundle_id, rejected in rejections.items():
        log.info("generate: bundle %s: %d accepted, rejected %s", bundle_id, accepted[bundle_id], rejected)
    began = time.perf_counter()
    tables.write_synthetic_csv(synthetic_out, dataset)
    profile_rows = 0
    if profiles_out is not None:
        profiles = params_to_profile(dataset.events, config)
        profile_rows = sum(len(p.times) for p in profiles)
        tables.write_profiles_csv(profiles_out, profiles)
    log.info("generate: %d events", len(dataset.events))
    log.info("generate timing: sample %.3f s, write %.3f s; %d synthetic rows, %d profile rows",
             sample_s, time.perf_counter() - began, len(dataset.events), profile_rows)


def stage_validate(config: PipelineConfig, combined_path, synthetic_path, report_out) -> None:
    raw = tables.read_combined_csv(combined_path).events
    synthetic = tables.read_synthetic_csv(synthetic_path).events
    report = compare_datasets(raw, synthetic, config, seed=config.seed)
    ecdf_points = {}
    for name in PARAM_NAMES:
        raw_ecdf = validate_mod.weighted_ecdf(raw[name], raw.weight)
        syn_ecdf = validate_mod.weighted_ecdf(synthetic[name])
        ecdf_points[name] = {
            "raw": np.column_stack([raw_ecdf.support, raw_ecdf.cumulative]).tolist(),
            "synthetic": np.column_stack([syn_ecdf.support, syn_ecdf.cumulative]).tolist(),
        }
    write_json(report_out, {"alpha": config.alpha_ks, "parameters": report, "ecdf": ecdf_points})
    worst = min(report.values(), key=lambda r: r["p_value"])
    log.info("validate: smallest p-value %.4f", worst["p_value"])


def run_pipeline(config: PipelineConfig, stage: Optional[str] = None) -> List[Path]:
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "params": workdir / "params.csv",
        "counts": workdir / "params.counts.json",
        "combined": workdir / "combined.csv",
        "model": workdir / "model.json",
        "synthetic": workdir / "synthetic.csv",
        "report": workdir / "report.json",
    }
    stages = STAGES if stage is None else (stage,)
    if stage is not None and stage not in STAGES:
        raise InputError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    for name in stages:
        if name == "fit":
            stage_fit(config, config.input, paths["params"], paths["counts"])
        elif name == "combine":
            stage_combine(config, paths["params"], paths["combined"], paths["counts"])
        elif name == "model":
            stage_model(config, paths["combined"], paths["model"])
        elif name == "generate":
            stage_generate(config, paths["model"], paths["synthetic"])
        elif name == "validate":
            stage_validate(config, paths["combined"], paths["synthetic"], paths["report"])
    return [paths[k] for k in ("params", "combined", "model", "synthetic", "report")]


# --- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadkin",
        description="Lead-vehicle speed-profile parameterization, dataset "
        "combination, distribution modeling, and synthetic generation.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--verbose", action="store_true")
    # the global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit piecewise-linear models to raw speed series")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="params.csv")
    p.add_argument("--counts-out", default=None)
    p.add_argument("--lambda", dest="penalty", type=float, default=None)
    p.add_argument("--nb-max", dest="n_b_max", type=int, default=None)

    p = sub.add_parser("combine", parents=[common], help="combine crash sources and merge near-crashes")
    p.add_argument("--params", required=True)
    p.add_argument("--counts", default=None)
    p.add_argument("--d-thd", type=float, default=None)
    p.add_argument(
        "--d-thd-quantile",
        type=float,
        default=None,
        help="derive the similarity threshold from this quantile of the "
        "crash-to-crash minimum-distance CDF instead of --d-thd",
    )
    p.add_argument("--output", default="combined.csv")

    p = sub.add_parser("model", parents=[common], help="build per-pattern distribution models")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="model.json")
    p.add_argument("--mass-threshold", type=float, default=None)
    p.add_argument("--corr-threshold", type=float, default=None)
    p.add_argument("--alpha-corr", type=float, default=None)

    p = sub.add_parser("generate", parents=[common], help="sample a synthetic dataset from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", dest="n_synth", type=int, default=None)
    p.add_argument("--output", default="synthetic.csv")
    p.add_argument("--profiles-out", default=None)
    p.add_argument("--dt", dest="profile_dt", type=float, default=None)

    p = sub.add_parser("validate", parents=[common], help="compare synthetic output against the raw dataset")
    p.add_argument("--raw", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--alpha", dest="alpha_ks", type=float, default=None)
    p.add_argument("--output", default="report.json")

    p = sub.add_parser("bootstrap", parents=[common], help="subsampling robustness study")
    p.add_argument("--input", required=True)
    p.add_argument("--fractions", default="0.9,0.8")
    p.add_argument("--reps", type=int, default=100)
    # the per-rep sample size, not the n_synth setting
    p.add_argument("--n-synth", dest="rep_n_synth", type=int, default=1000)
    p.add_argument("--n-perm", type=int, default=None)
    p.add_argument("--output", default="bootstrap.json")

    p = sub.add_parser("pipeline", parents=[common], help="run every stage in order")
    p.add_argument("--input", default=None)
    p.add_argument("--workdir", default=None)
    p.add_argument("--stage", default=None, choices=STAGES)
    return parser


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    """The config with every given flag whose destination is a field's name."""
    updates = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(PipelineConfig)
        if getattr(args, field.name, None) is not None
    }
    return dataclasses.replace(config, **updates) if updates else config


def _bootstrap_fractions(text: str) -> Tuple[float, ...]:
    """The comma-separated resampling fractions, as numbers; their range is
    checked by ``check_bootstrap_args``."""
    fractions = []
    for item in text.split(","):
        try:
            fractions.append(float(item))
        except ValueError:
            raise InputError(f"--fractions: {item.strip()!r} is not a number") from None
    return tuple(fractions)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
        config = _apply_overrides(config, args)
        if args.command == "fit":
            stage_fit(config, args.input, args.output, args.counts_out)
        elif args.command == "combine":
            stage_combine(
                config, args.params, args.output, args.counts,
                threshold_quantile=args.d_thd_quantile,
            )
        elif args.command == "model":
            stage_model(config, args.input, args.output)
        elif args.command == "generate":
            stage_generate(config, args.model, args.output, args.profiles_out)
        elif args.command == "validate":
            stage_validate(config, args.raw, args.synthetic, args.output)
        elif args.command == "bootstrap":
            fractions = _bootstrap_fractions(args.fractions)
            try:
                check_bootstrap_args(fractions, args.reps, args.rep_n_synth)
                dataset = tables.read_combined_csv(args.input).events
                report = bootstrap_robustness(
                    dataset, fractions=fractions, reps=args.reps, n_synth=args.rep_n_synth, config=config
                )
            except BadArgument as exc:  # name the parameter by its command-line flag
                raise InputError(f"--{exc.name.replace('_', '-')} {exc.problem}") from None
            write_json(args.output, {
                "alpha": report.alpha,
                "reps": report.reps,
                "failures": {str(k): v for k, v in report.failures.items()},
                "proportions": {str(k): v for k, v in report.proportions.items()},
            })
        elif args.command == "pipeline":
            run_pipeline(config, stage=args.stage)
    except (InputError, OSError) as exc:  # OSError: unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except LeadkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
