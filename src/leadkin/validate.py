"""Weighted descriptive statistics, two-sample KS testing, and the
bootstrap robustness study.

The KS p-value comes from a label-permutation null: events keep their
weights (normalized per sample so rescaling one sample's weights changes
nothing), labels are reshuffled, and the weighted ECDF sup-distance is
recomputed for each permutation.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from .combine import WeightedDataset
from .config import MAX_COUNT, PipelineConfig
from .errors import BadArgument, EmptyInput, EmptyReps, InputError, LeadkinError
from .events import PARAM_NAMES
from .mvdist import build_all
from .synth import SyntheticDataset, assemble_synthetic
from .wstats import describe

log = logging.getLogger(__name__)

_PERM_CHUNK = 256


@dataclass(frozen=True)
class WeightedEcdf:
    """Step function F(x) = sum of normalized weights at values <= x."""

    support: np.ndarray  # sorted distinct values
    cumulative: np.ndarray  # nondecreasing, ends at 1

    def evaluate(self, x) -> np.ndarray:
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.cumulative))
        return padded[idx]


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n_permutations: int


@dataclass(frozen=True)
class BootstrapReport:
    """Per-parameter non-significance proportions by resampling fraction."""

    proportions: Dict[float, Dict[str, float]]
    reps: int
    failures: Dict[float, int]
    per_rep: Dict[float, List[Dict[str, float]]]
    alpha: float


def weighted_ecdf(values, weights=None) -> WeightedEcdf:
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyInput("cannot build an ECDF from an empty sample")
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise EmptyInput("total weight must be positive")
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    support, start = np.unique(v, return_index=True)
    mass = np.add.reduceat(w, start)
    return WeightedEcdf(support=support, cumulative=np.cumsum(mass) / total)


def _ks_distance(w1, w2, step_idx) -> float:
    t1, t2 = w1.sum(), w2.sum()
    c1 = np.cumsum(w1) / t1
    c2 = np.cumsum(w2) / t2
    return float(np.abs(c1[step_idx] - c2[step_idx]).max())


def _perm_distances(positions, weights, cumulative, after, before) -> np.ndarray:
    """KS distance of each permutation, from the sorted positions (one row
    per permutation) that the smaller sample takes in it.

    Between two consecutive positions the smaller sample's cumulative weight
    S is constant, and the other sample's ECDF is (C_i - S) / (T - t), with
    C the fixed cumulative sum of all weights, T its total and t the smaller
    sample's total.  So the gap is monotone on each such stretch, and its
    largest value over the step indices is at the stretch's first or last
    step index: after[i] and before[i] are the first step index at or after
    i and the last at or before it.  That is O(m) per permutation once the
    positions are found, instead of two length-N cumulative sums.
    """
    n = cumulative.size
    rows = positions.shape[0]
    held = np.cumsum(weights[positions], axis=1)
    small_total = held[:, -1:]
    other_total = cumulative[-1] - small_total
    # stretch j covers [starts[j], ends[j]] and holds S = level[j]
    starts = np.hstack([np.zeros((rows, 1), dtype=positions.dtype), positions])
    ends = np.hstack([positions - 1, np.full((rows, 1), n - 1, dtype=positions.dtype)])
    level = np.hstack([np.zeros((rows, 1)), held])
    own = level / small_total
    first = after[starts]
    gap = np.maximum(
        np.abs(own - (cumulative[first] - level) / other_total),
        np.abs(own - (cumulative[before[ends]] - level) / other_total),
    )
    # a stretch with no step index (an empty one, or one inside a run of ties) adds nothing
    return np.where(first <= ends, gap, 0.0).max(axis=1)


def _permutation_positions(rng: np.random.Generator, n: int, m: int, rows: int) -> np.ndarray:
    """The sorted positions, among n pooled values, that the smaller sample
    (m values) takes in each of ``rows`` label permutations: m positions
    drawn without replacement per row, not a shuffle of all n labels."""
    return np.sort(np.stack([rng.choice(n, m, replace=False) for _ in range(rows)]), axis=1)


def weighted_ks_test(x, wx, y, wy, config: PipelineConfig = PipelineConfig(), seed=None) -> KsResult:
    """Two-sample weighted KS test with ``config.n_perm`` permutations for
    its p-value; a weight array of None gives unit weights."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptyInput("both samples must be non-empty")
    wx = np.ones_like(x) if wx is None else np.asarray(wx, dtype=float)
    wy = np.ones_like(y) if wy is None else np.asarray(wy, dtype=float)
    if not all(np.isfinite(w).all() and (w > 0).all() for w in (wx, wy)):
        # a zero weight could leave a permuted sample with no weight at all,
        # and its NaN distance would never count as exceeding the observed one
        raise InputError("sample weights must be finite and positive")

    # per-sample normalization makes the test invariant to weight rescaling
    wx = wx * (x.size / wx.sum())
    wy = wy * (y.size / wy.sum())

    values = np.concatenate([x, y])
    weights = np.concatenate([wx, wy])
    labels = np.concatenate([np.ones(x.size, dtype=bool), np.zeros(y.size, dtype=bool)])

    order = np.argsort(values, kind="stable")
    values, weights, labels = values[order], weights[order], labels[order]
    n = values.size
    step_idx = np.flatnonzero(np.concatenate([values[1:] != values[:-1], [True]]))

    observed = _ks_distance(weights * labels, weights * ~labels, step_idx)

    # each permutation is scored from the positions of the smaller sample
    m = min(x.size, y.size)
    cumulative = np.cumsum(weights)
    index = np.arange(n)
    after = step_idx[np.searchsorted(step_idx, index, side="left")]
    before = step_idx[np.maximum(np.searchsorted(step_idx, index, side="right") - 1, 0)]
    n_perm = config.n_perm
    rng = np.random.default_rng(seed)
    exceed = 0
    done = 0
    while done < n_perm:
        chunk = min(_PERM_CHUNK, n_perm - done)
        positions = _permutation_positions(rng, n, m, chunk)
        d = _perm_distances(positions, weights, cumulative, after, before)
        exceed += int((d >= observed - 1e-12).sum())
        done += chunk

    p = (1.0 + exceed) / (1.0 + n_perm)
    return KsResult(statistic=observed, p_value=float(min(p, 1.0)), n_permutations=n_perm)


def compare_datasets(
    raw: WeightedDataset,
    synthetic: SyntheticDataset,
    config: PipelineConfig = PipelineConfig(),
    seed=None,
) -> Dict[str, dict]:
    """Per-parameter mean/SD plus weighted KS statistic and p-value, each
    test with ``config.n_perm`` permutations and judged at ``config.alpha_ks``."""
    raw_stats = describe(raw)
    syn_stats = describe(synthetic)
    rng = np.random.default_rng(seed)
    report = {}
    for name in PARAM_NAMES:
        ks = weighted_ks_test(
            raw.events[name],
            raw.events.weight,
            synthetic.events[name],
            None,
            config,
            seed=rng.integers(2**63),
        )
        report[name] = {
            "raw_mean": raw_stats[name][0],
            "raw_sd": raw_stats[name][1],
            "synthetic_mean": syn_stats[name][0],
            "synthetic_sd": syn_stats[name][1],
            "statistic": ks.statistic,
            "p_value": ks.p_value,
            "significant": ks.p_value < config.alpha_ks,
        }
    return report


def check_bootstrap_args(fractions: Sequence[float], reps: int, n_synth: int) -> None:
    """Raise BadArgument, naming the parameter, unless every fraction is a
    number in (0, 1] and reps and n_synth are integers in [1, MAX_COUNT];
    EmptyReps for fewer than one rep."""
    for fraction in fractions:
        if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real) or not 0.0 < fraction <= 1.0:
            raise BadArgument("fractions", f"must each be a number in (0, 1], got {fraction!r}")
    for name, value in (("reps", reps), ("n_synth", n_synth)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise BadArgument(name, f"must be an integer, got {value!r}")
        if not 1 <= value <= MAX_COUNT:
            error = EmptyReps if name == "reps" and value < 1 else BadArgument
            raise error(name, f"must be >= 1 and <= {MAX_COUNT}, got {value}")


def bootstrap_robustness(
    dataset: WeightedDataset,
    fractions: Sequence[float] = (0.9, 0.8),
    reps: int = 100,
    n_synth: int = 1000,
    n_reference: int = 10000,
    config: PipelineConfig = PipelineConfig(),
) -> BootstrapReport:
    """Stability of the modeling chain under subsampling.

    Each rep subsamples the dataset without replacement, rebuilds every
    sub-dataset model, generates a synthetic sample, and KS-tests each
    parameter against the synthetic reference built from the full dataset.
    Reported values are the proportions of reps with p > ``config.alpha_ks``;
    failed reps are excluded from the denominator and counted separately.
    Arguments outside their domain raise before any work, by
    :func:`check_bootstrap_args`.
    The models, the KS tests and the random streams (from ``config.seed``)
    all take their settings from ``config``.
    """
    check_bootstrap_args(fractions, reps, n_synth)
    root = np.random.SeedSequence(config.seed)
    ref_seed, *rep_seeds = root.spawn(1 + len(fractions) * reps)

    bundles_full = build_all(dataset, config)
    reference, _ = assemble_synthetic(bundles_full, n_reference, seed=ref_seed)

    n = len(dataset.events)
    proportions: Dict[float, Dict[str, float]] = {}
    failures: Dict[float, int] = {}
    per_rep: Dict[float, List[Dict[str, float]]] = {}
    seed_iter = iter(rep_seeds)
    for fraction in fractions:
        size = int(np.floor(fraction * n))
        outcomes: List[Dict[str, float]] = []
        failed = 0
        for _ in range(reps):
            stream = next(seed_iter)
            rng = np.random.default_rng(stream)
            idx = rng.choice(n, size=size, replace=False)
            sub = replace(dataset, events=dataset.events.take(np.sort(idx)))
            try:
                bundles = build_all(sub, config)
                syn, _ = assemble_synthetic(bundles, n_synth, seed=rng)
            except LeadkinError as exc:
                log.warning("bootstrap rep failed (fraction %.2f): %s", fraction, exc)
                failed += 1
                continue
            # the synthetic sample's unit weights test as no weights do
            report = compare_datasets(syn, reference, config, seed=rng)
            outcomes.append({name: report[name]["p_value"] for name in PARAM_NAMES})
        per_rep[fraction] = outcomes
        failures[fraction] = failed
        if outcomes:
            proportions[fraction] = {
                name: float(np.mean([o[name] > config.alpha_ks for o in outcomes]))
                for name in PARAM_NAMES
            }
        else:
            proportions[fraction] = {name: float("nan") for name in PARAM_NAMES}
    return BootstrapReport(
        proportions=proportions,
        reps=reps,
        failures=failures,
        per_rep=per_rep,
        alpha=config.alpha_ks,
    )
