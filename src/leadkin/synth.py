"""Generate synthetic six-parameter events and reconstruct speed profiles.

Sampling inverts the model-building chain: draw the correlated block from
its Gaussian copula and map through the marginal quantiles, draw hurdle and
independent parameters directly, add back any decorrelation regression, and
finally restore copies and constants.  Draws that violate the range,
physical, or categorization constraints are rejected and replaced.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as sstats

from .errors import RejectionCapExceeded
from .events import GRAVITY, MODEL_T_MIN, PARAM_NAMES, EventParams, ParamTable, SpeedProfile
from .mvdist import HurdleDist, SubmodelBundle, classify
from .pwl import sample_weights

log = logging.getLogger(__name__)

_RETRY_FACTOR = 100  # draws allowed per target row (at least 1000) before a bundle gives up
_REASONS = ("range", "physical", "categorization")


@dataclass(frozen=True)
class ConstraintSet:
    """Range, physical, and categorization constraints for one bundle.

    ``full_window`` controls whether the non-negative-speed check covers the
    whole [-5, 0] window including the back-extension (default) or only the
    modeled phases.
    """

    bundle: SubmodelBundle
    g_limit: float = GRAVITY
    full_window: bool = True

    def rejection_reasons(self, table: ParamTable) -> np.ndarray:
        """The failing constraint family of every row, "" where none fails.

        Checked in order: range, |a| > g, negative reconstructed speed, then
        the label and the bundle's splits; a row gets the first that fails.
        The speed check reconstructs each profile, so it runs only on the
        rows that pass the first two.
        """
        reasons = np.full(len(table), "", dtype=object)
        nonnegative = np.column_stack([table[name] for name in ("v_c", "tau_s", "tau_1", "tau_2")])
        reasons[(nonnegative < 0).any(axis=1)] = "range"
        too_hard = (np.abs(table["a1"]) > self.g_limit) | (np.abs(table["a2"]) > self.g_limit)
        reasons[(reasons == "") & too_hard] = "physical"
        left = np.flatnonzero(reasons == "")
        below = [min_profile_speed(row, self.full_window) < 0.0 for row in table.values[left].tolist()]
        reasons[left[np.array(below, dtype=bool)]] = "physical"
        left = np.flatnonzero(reasons == "")
        rest = table.take(left)
        fits = classify(rest) == self.bundle.label.id
        for cond in self.bundle.splits:
            fits &= cond.mask(rest)
        reasons[left[~fits]] = "categorization"
        return reasons

    def rejection_reason(self, e: EventParams) -> Optional[str]:
        """None when the event is acceptable, else the failing constraint family."""
        return self.rejection_reasons(ParamTable.from_rows([e]))[0] or None


@dataclass(frozen=True)
class SyntheticDataset:
    events: ParamTable
    per_bundle_counts: Dict[str, int]
    rejections: Dict[str, Dict[str, int]]  # bundle_id -> reason -> count
    seed: Optional[int]
    bundle_ids: tuple  # the bundle each event was drawn from, parallel to events


# --- profile reconstruction ---------------------------------------------------


def _profile_vertices(v_c, a1, a2, tau_s, tau_1, tau_2) -> Tuple[np.ndarray, np.ndarray]:
    """Polyline knots of the reconstructed speed profile on [-5, 0].

    Built backward from time zero; the earliest modeled segment's slope is
    extended back to -5 s when the phases do not fill the window, and the
    polyline is truncated at -5 s when they exceed it.
    """
    ts = [0.0, -tau_s]
    vs = [v_c, v_c]
    v = v_c
    if tau_1 > 0:
        v = v - a1 * tau_1
        ts.append(-(tau_s + tau_1))
        vs.append(v)
    if tau_2 > 0:
        v = v - a2 * tau_2
        ts.append(-(tau_s + tau_1 + tau_2))
        vs.append(v)

    # extend the earliest slope back to the window start
    if ts[-1] > MODEL_T_MIN:
        if tau_2 > 0:
            slope = a2
        elif tau_1 > 0:
            slope = a1
        else:
            slope = 0.0
        vs.append(vs[-1] - slope * (ts[-1] - MODEL_T_MIN))
        ts.append(MODEL_T_MIN)

    ts = np.asarray(ts[::-1], dtype=float)
    vs = np.asarray(vs[::-1], dtype=float)

    # truncate anything before the window start
    if ts[0] < MODEL_T_MIN:
        keep = ts >= MODEL_T_MIN
        v_at_start = float(np.interp(MODEL_T_MIN, ts, vs))
        ts = np.concatenate(([MODEL_T_MIN], ts[keep]))
        vs = np.concatenate(([v_at_start], vs[keep]))
        if ts.size > 1 and ts[0] == ts[1]:
            ts, vs = ts[1:], vs[1:]
    return ts, vs


def min_profile_speed(params: Sequence[float], full_window: bool = True) -> float:
    """Minimum reconstructed speed of the six parameters (in ``PARAM_NAMES``
    order), over the whole modeling window by default or over the modeled
    phases only."""
    ts, vs = _profile_vertices(*params)
    if not full_window:
        _, _, _, tau_s, tau_1, tau_2 = params
        start = max(-(tau_s + tau_1 + tau_2), MODEL_T_MIN)
        keep = ts >= start - 1e-12
        vs = vs[keep]
    return float(vs.min())


def params_to_profile(e: EventParams, dt: float = 0.1) -> SpeedProfile:
    """Sample the reconstructed profile on a dt grid over [-5, 0]."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ts, vs = _profile_vertices(e.v_c, e.a1, e.a2, e.tau_s, e.tau_1, e.tau_2)
    steps = int(np.floor(-MODEL_T_MIN / dt + 1e-9))
    grid = MODEL_T_MIN + dt * np.arange(steps + 1)
    speeds = np.interp(grid, ts, vs)
    return SpeedProfile(
        event_id=e.event_id,
        source_group=e.source_group,
        severity=e.severity,
        times=grid,
        speeds=speeds,
        weights=sample_weights(grid),
    )


# --- sampling -------------------------------------------------------------------


def _copula_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor A with A A^T = sigma; tolerates singular PSD matrices."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(sigma, dtype=float))
    eigvals = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(eigvals)


def sample_submodel(
    bundle: SubmodelBundle,
    n: int,
    seed=None,
) -> ParamTable:
    """Draw n raw parameter vectors from a bundle (no constraint filtering)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    columns: Dict[str, np.ndarray] = {}

    if bundle.correlated is not None:
        block = bundle.correlated
        z = rng.standard_normal((n, len(block.names))) @ _copula_factor(block.sigma).T
        for j, name in enumerate(block.names):
            u = np.clip(sstats.norm.cdf(z[:, j]), 1e-10, 1.0 - 1e-10)
            columns[name] = np.asarray(block.marginals[j].ppf(u), dtype=float)

    for name in PARAM_NAMES:
        dist = bundle.uncorrelated.get(name)
        if dist is None:
            continue
        if isinstance(dist, HurdleDist):
            columns[name] = dist.sample(rng, n)
        else:
            columns[name] = np.asarray(dist.sample(rng, n), dtype=float)

    # undo decorrelation using the sampled point-mass columns
    for spec in bundle.transforms:
        columns[spec.parameter] = columns[spec.parameter] + spec.predict(columns)

    for name, source in bundle.copies.items():
        columns[name] = columns[source].copy()
    for name, value in bundle.constants.items():
        columns[name] = np.full(n, value)

    return ParamTable(np.column_stack([columns[name] for name in PARAM_NAMES]))


def filter_valid(draws: ParamTable, constraints: ConstraintSet) -> Tuple[ParamTable, Counter]:
    """Split draws into the accepted rows (in draw order) and per-reason
    rejection tallies."""
    reasons = constraints.rejection_reasons(draws)
    return draws.take(reasons == ""), Counter(reasons[reasons != ""].tolist())


def _apportion(shares: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment of total into integer counts."""
    raw = shares * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def assemble_synthetic(
    bundles: Sequence[SubmodelBundle],
    n_total: int,
    seed=None,
) -> SyntheticDataset:
    """Build a synthetic dataset with per-bundle counts proportional to the
    training weight shares, rejection-sampling each bundle to its target."""
    shares = np.array([b.train_weight_share for b in bundles], dtype=float)
    if shares.size == 0:
        raise ValueError("no bundles to sample from")
    if abs(shares.sum() - 1.0) > 1e-6:
        raise ValueError(f"bundle weight shares must sum to 1, got {shares.sum():.6f}")
    shares = shares / shares.sum()
    targets = _apportion(shares, int(n_total))

    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(len(bundles))

    accepted: List[np.ndarray] = []  # parameter rows, bundle by bundle
    bundle_ids: List[str] = []
    per_bundle: Dict[str, int] = {}
    rejections: Dict[str, Dict[str, int]] = {}
    for bundle, target, stream in zip(bundles, targets, streams):
        rng = np.random.default_rng(stream)
        constraints = ConstraintSet(bundle=bundle)
        cap = max(_RETRY_FACTOR * int(target), 1000)
        tally: Counter = Counter()
        drawn = got = 0
        while got < target:
            batch = min(max(64, 2 * (target - got)), cap - drawn)
            if batch <= 0:
                dominant = tally.most_common(1)[0][0] if tally else "none"
                raise RejectionCapExceeded(bundle.bundle_id, dominant, drawn, got)
            draws = sample_submodel(bundle, batch, seed=rng)
            ok, rej = filter_valid(draws, constraints)
            accepted.append(ok.values[: target - got])
            got += len(accepted[-1])
            tally.update(rej)
            drawn += batch
        per_bundle[bundle.bundle_id] = int(target)
        rejections[bundle.bundle_id] = {r: int(tally.get(r, 0)) for r in _REASONS}
        bundle_ids.extend([bundle.bundle_id] * got)

    values = np.concatenate(accepted) if accepted else np.empty((0, len(PARAM_NAMES)))
    return SyntheticDataset(
        events=ParamTable(values, event_id=[f"syn-{i:06d}" for i in range(len(values))]),
        per_bundle_counts=per_bundle,
        rejections=rejections,
        seed=seed if isinstance(seed, int) else None,
        bundle_ids=tuple(bundle_ids),
    )
