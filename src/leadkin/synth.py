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
from scipy import special

from .config import PipelineConfig
from .errors import RejectionCapExceeded
from .events import GRAVITY, MODEL_T_MIN, PARAM_NAMES, EventParams, ParamTable, SpeedProfile
from .marginals import _CLIP_HI, _CLIP_LO
from .mvdist import SubmodelBundle, classify

log = logging.getLogger(__name__)

_RETRY_FACTOR = 100  # draws allowed per target row (at least 1000) before a bundle gives up
_REASONS = ("range", "physical", "categorization")
_WINDOW = -MODEL_T_MIN  # s, length of the modeling window before time zero


@dataclass(frozen=True)
class ConstraintSet:
    """Range, physical, and categorization constraints for one bundle."""

    bundle: SubmodelBundle

    def rejection_reasons(self, table: ParamTable) -> np.ndarray:
        """The failing constraint family of every row, "" where none fails.

        Checked in order: range (a non-finite value, or a negative speed or
        duration), |a| > g, a negative reconstructed speed anywhere in the
        window, then the label and the bundle's splits; a row gets the
        first that fails.
        """
        reasons = np.full(len(table), "", dtype=object)
        nonnegative = np.column_stack([table[name] for name in ("v_c", "tau_s", "tau_1", "tau_2")])
        reasons[(nonnegative < 0).any(axis=1) | ~np.isfinite(table.values).all(axis=1)] = "range"
        too_hard = (np.abs(table["a1"]) > GRAVITY) | (np.abs(table["a2"]) > GRAVITY)
        reasons[(reasons == "") & too_hard] = "physical"
        # the profile is linear between its knots, so its minimum over the window is at one of them
        tau_s, tau_1, n = table["tau_s"], table["tau_1"], len(table)
        knots = np.column_stack([np.zeros(n), tau_s, tau_s + tau_1, np.full(n, _WINDOW)])
        with np.errstate(invalid="ignore"):  # rows with inf are "range" already
            below = speeds_at(table.values, np.minimum(knots, _WINDOW)).min(axis=1) < 0.0
        reasons[(reasons == "") & below] = "physical"
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
    bundle_ids: tuple  # the bundle each event was drawn from, parallel to events


# --- profile reconstruction ---------------------------------------------------


def speeds_at(values: np.ndarray, s) -> np.ndarray:
    """Reconstructed speed of every parameter row (an (n, 6) array in
    ``PARAM_NAMES`` order) at s seconds before time zero.

    ``s`` broadcasts against one row per parameter vector: a shared grid of
    shape (k,) or per-row times of shape (n, k).  Counted backward from
    time zero, the speed holds v_c for tau_s, then changes at slope a1 for
    tau_1 and at slope a2 for tau_2; the earliest modeled slope continues
    without end, so the profile covers the whole window:

        v = v_c - a1 clip(s - tau_s, 0, e1) - a2 clip(s - tau_s - tau_1, 0, e2)

    with e1 = tau_1 when tau_2 > 0 or tau_1 = 0 (else unbounded), and e2
    unbounded when tau_2 > 0 (else 0).
    """
    v_c, a1, a2, tau_s, tau_1, tau_2 = (values[:, j, None] for j in range(len(PARAM_NAMES)))
    second = tau_2 > 0
    e1 = np.where(second | (tau_1 == 0), tau_1, np.inf)
    e2 = np.where(second, np.inf, 0.0)
    since_steady = s - tau_s
    return v_c - a1 * np.clip(since_steady, 0.0, e1) - a2 * np.clip(since_steady - tau_1, 0.0, e2)


def params_to_profile(table: ParamTable, config: PipelineConfig = PipelineConfig()) -> List[SpeedProfile]:
    """The reconstructed profile of every row, sampled every
    ``config.profile_dt`` seconds over [-5, 0]."""
    dt = config.profile_dt
    steps = int(np.floor(-MODEL_T_MIN / dt + 1e-9))
    grid = MODEL_T_MIN + dt * np.arange(steps + 1)
    speeds = speeds_at(table.values, -grid)
    return [SpeedProfile(event_id, grid, row) for event_id, row in zip(table.event_id, speeds)]


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
    rng = np.random.default_rng(seed)
    columns: Dict[str, np.ndarray] = {}

    if bundle.correlated is not None:
        block = bundle.correlated
        z = rng.standard_normal((n, len(block.names))) @ _copula_factor(block.sigma).T
        for j, name in enumerate(block.names):
            u = np.clip(special.ndtr(z[:, j]), _CLIP_LO, _CLIP_HI)
            columns[name] = np.asarray(block.marginals[j].ppf(u), dtype=float)

    for name in PARAM_NAMES:
        dist = bundle.uncorrelated.get(name)
        if dist is None:
            continue
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
) -> Tuple[SyntheticDataset, Dict[str, Dict[str, int]]]:
    """Build a synthetic dataset with per-bundle counts proportional to the
    training weight shares, rejection-sampling each bundle to its target.

    Also returns the rejection tallies: bundle_id -> reason -> count.
    """
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
        rejections[bundle.bundle_id] = {r: int(tally.get(r, 0)) for r in _REASONS}
        bundle_ids.extend([bundle.bundle_id] * got)

    values = np.concatenate(accepted) if accepted else np.empty((0, len(PARAM_NAMES)))
    events = ParamTable(values, event_id=[f"syn-{i:06d}" for i in range(len(values))])
    return SyntheticDataset(events, tuple(bundle_ids)), rejections
