"""Synthetic ground-truth builders shared by the test suite.

Two corpora:
  * a fit-recovery corpus of noisy piecewise-linear speed profiles with
    known breakpoints, kept identifiable by an analytic merge-cost margin;
  * a parameter corpus drawn from hand-built generative bundles (one
    constant-acceleration shape, one increasing-, one decreasing-pattern
    shape) used for round-trip distribution checks.
"""

from __future__ import annotations

import numpy as np

from leadkin.config import PipelineConfig
from leadkin.events import ParamTable, SpeedProfile
from leadkin.marginals import FittedDist
from leadkin.mvdist import (
    LABELS,
    CorrelatedBlock,
    HurdleDist,
    SubmodelBundle,
)
from leadkin.pwl import sample_weights
from leadkin.synth import ConstraintSet, filter_valid, sample_submodel

GRID = np.round(np.arange(-5.0, 0.01, 0.1), 10)
GRID_W = sample_weights(GRID)


# --- fit-recovery corpus ------------------------------------------------------


def _merge_margin_ok(edges, vs, config: PipelineConfig, factor: float) -> bool:
    """Require that merging any adjacent segment pair costs enough R^2.

    An independent, fit-free identifiability check: if absorbing a kink into
    one line is cheaper than the per-breakpoint selection penalty, the true
    breakpoint count is not recoverable by any fitter.
    """
    v = np.interp(GRID, edges, vs)
    mean_w = np.dot(GRID_W, v) / GRID_W.sum()
    sst = np.dot(GRID_W, np.square(v - mean_w))
    per_bp = config.epsilon + config.penalty * v.max() / (v.max() - v.min() + config.epsilon)
    sqrt_w = np.sqrt(GRID_W)
    for i in range(1, len(edges) - 1):
        mask = (GRID >= edges[i - 1] - 1e-9) & (GRID <= edges[i + 1] + 1e-9)
        tt, vv, ww = GRID[mask], v[mask], sqrt_w[mask]
        design = np.vstack([np.ones_like(tt), tt]).T * ww[:, None]
        coef, *_ = np.linalg.lstsq(design, vv * ww, rcond=None)
        resid = vv - (coef[0] + coef[1] * tt)
        if np.dot(resid * ww, resid * ww) / sst < factor * per_bp:
            return False
    return True


def make_recovery_profile(rng: np.random.Generator, n_b: int, noise: float = 0.05,
                          config: PipelineConfig = PipelineConfig(), margin: float = 3.0):
    """One noisy profile with exactly n_b identifiable breakpoints."""
    while True:
        if n_b == 0:
            bks = np.array([])
        else:
            bks = np.sort(rng.uniform(-4.0, -0.9, n_b))
            if n_b > 1 and np.diff(bks).min() < 1.15:
                continue
        slopes = [rng.uniform(-6, 6)]
        ok = True
        for _ in range(n_b):
            for _ in range(80):
                s = rng.uniform(-6, 6)
                if abs(s - slopes[-1]) >= 3.5:
                    slopes.append(s)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        v0 = rng.uniform(3, 12)
        edges = np.concatenate([[-5.0], bks, [0.0]])
        vs = [v0]
        for i in range(len(edges) - 1, 0, -1):
            vs.append(vs[-1] - slopes[i - 1] * (edges[i] - edges[i - 1]))
        vs = np.asarray(vs[::-1])
        if vs.min() < 0.5 or vs.max() > 28:
            continue
        if (vs.max() - vs.min()) < vs.max() / 2:
            continue
        if n_b and not _merge_margin_ok(edges, vs, config, margin):
            continue
        v = np.interp(GRID, edges, vs)
        v = np.maximum(v + rng.normal(0.0, noise, GRID.size), 0.0)
        return bks, v


def recovery_corpus(n: int, seed: int, noise: float = 0.05):
    """List of (true_breakpoints, SpeedProfile), true n_b cycling 0..3."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        bks, v = make_recovery_profile(rng, i % 4, noise=noise)
        out.append((bks, SpeedProfile(f"rec-{i:04d}", GRID, v)))
    return out


# --- parameter-distribution corpus ---------------------------------------------


def _normal(loc, scale):
    return FittedDist(family="normal", params={"loc": loc, "scale": scale})


def _gamma(shape, scale):
    return FittedDist(family="gamma", params={"shape": shape, "scale": scale})


def ground_truth_bundles():
    """Three generative bundles: constant-pattern, increasing, decreasing."""
    s2 = SubmodelBundle(
        label=LABELS["S2"],
        splits=(),
        constants={"tau_s": 0.0, "tau_1": 5.0, "tau_2": 0.0},
        copies={"a2": "a1"},
        transforms=(),
        correlated=CorrelatedBlock(
            names=("v_c", "a1"),
            marginals=(_gamma(2.0, 1.5), _normal(-1.8, 0.5)),
            sigma=np.array([[1.0, 0.4], [0.4, 1.0]]),
        ),
        uncorrelated={},
        train_weight_share=0.30,
        train_weight=90.0,
    )
    s4 = SubmodelBundle(
        label=LABELS["S4"],
        splits=(),
        constants={},
        copies={},
        transforms=(),
        correlated=CorrelatedBlock(
            names=("a1", "a2"),
            marginals=(_normal(-2.0, 0.45), _normal(-4.5, 0.55)),
            sigma=np.array([[1.0, 0.5], [0.5, 1.0]]),
        ),
        uncorrelated={
            "v_c": _gamma(2.5, 1.2),
            "tau_s": HurdleDist(mass_value=0.0, mass_probability=0.4, continuous=_gamma(2.0, 0.7)),
            "tau_1": _gamma(2.5, 0.6),
            "tau_2": _gamma(2.0, 0.5),
        },
        train_weight_share=0.40,
        train_weight=120.0,
    )
    s7 = SubmodelBundle(
        label=LABELS["S7"],
        splits=(),
        constants={},
        copies={},
        transforms=(),
        correlated=CorrelatedBlock(
            names=("v_c", "a1"),
            marginals=(_gamma(2.2, 1.4), _normal(-2.8, 0.5)),
            sigma=np.array([[1.0, -0.4], [-0.4, 1.0]]),
        ),
        uncorrelated={
            "a2": _normal(0.8, 0.35),
            "tau_s": _gamma(2.0, 0.7),
            "tau_1": _gamma(2.5, 0.6),
            "tau_2": _gamma(1.8, 0.55),
        },
        train_weight_share=0.30,
        train_weight=90.0,
    )
    return [s2, s4, s7]


def ground_truth_corpus(seed: int = 20240, counts=(90, 120, 90)) -> ParamTable:
    """A weighted training corpus drawn from the ground-truth bundles.

    Events are rejection-filtered through the same constraints applied at
    generation time, so a rebuilt model sees a self-consistent population.
    """
    rng = np.random.default_rng(seed)
    bundles = ground_truth_bundles()
    events = []
    for bundle, n in zip(bundles, counts):
        constraints = ConstraintSet(bundle=bundle)
        accepted = []
        sub_rng = np.random.default_rng(rng.integers(2**63))
        while len(accepted) < n:
            draws = sample_submodel(bundle, 2 * n, seed=sub_rng)
            ok, _ = filter_valid(draws, constraints)
            accepted.extend(ok)
        events.extend(accepted[:n])
    weighted = []
    for i, e in enumerate(events):
        from dataclasses import replace

        weighted.append(
            replace(e, event_id=f"gt-{i:04d}", weight=float(rng.uniform(0.5, 1.5)))
        )
    return ParamTable.from_rows(weighted)
