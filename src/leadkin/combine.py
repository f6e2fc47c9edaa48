"""Combine weighted crash sources and merge similar near-crashes.

The two crash sources are made compatible (survey-weight trimming and
scaling for CISS, uniform group weights for SHRP2), reweighted into a
single combined crash dataset that keeps CISS's speed distribution for
severe crashes and SHRP2's severe/non-severe mix, and finally enlarged by
attaching sufficiently similar near-crashes as variations of their nearest
crash with the crash's weight split equally among the group.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from fractions import Fraction
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSplit, EmptyGroup, InputError, ZeroVariance
from .events import (
    PARAM_NAMES,
    EventParams,
    SourceGroup,
    event_weights,
    params_matrix,
)
from .wstats import weighted_mean, weighted_sd

log = logging.getLogger(__name__)

DEFAULT_DISTANCE_THRESHOLD = 0.78
TRIM_FACTOR = 3.5

CRASH_GROUPS = (SourceGroup.CISS_SC, SourceGroup.SHRP2_SC, SourceGroup.SHRP2_NSC)


class Stage(str, Enum):
    PREPROCESSED = "Preprocessed"
    COMBINED_CRASH = "CombinedCrash"
    COMBINED_INCIDENT = "CombinedIncident"


@dataclass(frozen=True)
class GroupCounts:
    """Raw and valid event counts per source group."""

    raw: Mapping[SourceGroup, int]
    valid: Mapping[SourceGroup, int]

    def raw_of(self, group: SourceGroup) -> int:
        return int(self.raw.get(group, 0))

    def valid_of(self, group: SourceGroup) -> int:
        return int(self.valid.get(group, 0))

    @staticmethod
    def from_events(
        valid_events: Sequence[EventParams],
        raw_counts: Optional[Mapping[SourceGroup, int]] = None,
    ) -> "GroupCounts":
        valid: Dict[SourceGroup, int] = {}
        for e in valid_events:
            if e.source_group is not None:
                valid[e.source_group] = valid.get(e.source_group, 0) + 1
        raw = dict(raw_counts) if raw_counts is not None else dict(valid)
        return GroupCounts(raw=raw, valid=valid)


@dataclass(frozen=True)
class WeightedDataset:
    events: tuple
    stage: Stage
    counts: Optional[GroupCounts] = None
    provenance: Optional[Mapping[str, Mapping[str, float]]] = None

    def weights(self) -> np.ndarray:
        return event_weights(self.events)

    def param_matrix(self) -> np.ndarray:
        return params_matrix(self.events)

    @property
    def total_weight(self) -> float:
        return float(self.weights().sum())

    def group_events(self, group: SourceGroup) -> list:
        return [e for e in self.events if e.source_group is group]

    def subset(self, indices) -> "WeightedDataset":
        picked = tuple(self.events[i] for i in indices)
        return replace(self, events=picked)


@dataclass(frozen=True)
class CombinePlan:
    """Targets and normalizers for fusing the two crash sources."""

    nonsevere_share: float  # share of non-severe crashes among raw SHRP2 crashes
    highspeed_share: float  # weight share of high-speed severe crashes in CISS
    speed_split: float  # m/s, max v_c among SHRP2 severe crashes
    highspeed_weight: float  # total preprocessed CISS weight above the split
    lowspeed_weight: float  # total preprocessed weight at or below the split
    combined_size: float  # target sum of weights after combination
    target_nonsevere: float
    target_highspeed: float
    target_lowspeed: float


@dataclass(frozen=True)
class MergeResult:
    """Which near-crashes were attached to which crash, and the weight splits."""

    selected: tuple  # (near_crash_id, most_similar_crash_id, d_min)
    distance_threshold: float
    attachment_counts: Mapping[str, int]  # crash_id -> number of attached near-crashes
    min_distances: Mapping[str, float]  # near_crash_id -> d_min (all near-crashes)


# --- weight preprocessing ---------------------------------------------------


def trim_cutpoint(weights) -> float:
    """Trimming cut-point, 3.5 * sqrt(1 + CV^2) * median.

    CV uses the sample (n-1) standard deviation.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise InputError("cannot trim an empty weight list")
    if w.size == 1:
        cv2 = 0.0
    else:
        mean = w.mean()
        cv2 = float(w.std(ddof=1) / mean) ** 2 if mean > 0 else 0.0
    return float(TRIM_FACTOR * np.sqrt(1.0 + cv2) * np.median(w))


def trim_weights(weights) -> np.ndarray:
    """Cap weights at the cut-point; everything below passes unchanged."""
    w = np.asarray(weights, dtype=float)
    return np.minimum(w, trim_cutpoint(w))


def scale_weights(trimmed, n_valid: float) -> np.ndarray:
    """Rescale so the weights sum to the valid sample size."""
    w = np.asarray(trimmed, dtype=float)
    total = w.sum()
    if total <= 0:
        raise InputError("trimmed weights must have positive sum")
    return w * (float(n_valid) / total)


def shrp2_group_weight(n2: int, n3: int, n2_valid: int, n3_valid: int, group: SourceGroup) -> float:
    """Uniform weight for a SHRP2 crash group.

    Keeps the severe/non-severe proportions of the raw SHRP2 crashes while
    making the group weights sum to the total valid SHRP2 crash count.
    """
    if min(n2, n3, n2_valid, n3_valid) <= 0:
        raise InputError("all SHRP2 crash counts must be positive")
    if group is SourceGroup.SHRP2_SC:
        n_i, n_i_valid = n2, n2_valid
    elif group is SourceGroup.SHRP2_NSC:
        n_i, n_i_valid = n3, n3_valid
    else:
        raise InputError(f"group {group} is not a SHRP2 crash group")
    return (n2_valid + n3_valid) * (n_i / (n2 + n3)) / n_i_valid


def split_near_crashes(events: Sequence[EventParams]) -> Tuple[list, list]:
    """Partition events into (crashes, near-crashes)."""
    crashes = [e for e in events if e.source_group in CRASH_GROUPS]
    ncs = [e for e in events if e.source_group is SourceGroup.SHRP2_NC]
    return crashes, ncs


def preprocess(events: Sequence[EventParams], counts: GroupCounts) -> WeightedDataset:
    """Make the crash sources' weights compatible.

    CISS native weights are trimmed and scaled to sum to the CISS valid
    count; each SHRP2 crash group gets one uniform weight.  Near-crashes are
    excluded here (they enter at the merge step).
    """
    crashes, _ = split_near_crashes(events)
    by_group: Dict[SourceGroup, list] = {g: [] for g in CRASH_GROUPS}
    for e in crashes:
        by_group[e.source_group].append(e)
    for group in CRASH_GROUPS:
        if not by_group[group]:
            raise EmptyGroup(group.value)
        expected = counts.valid_of(group)
        if expected and expected != len(by_group[group]):
            raise InputError(
                f"valid count mismatch for {group.value}: counts say {expected}, "
                f"got {len(by_group[group])} events"
            )

    provenance: Dict[str, Dict[str, float]] = {}
    out: List[EventParams] = []

    ciss = by_group[SourceGroup.CISS_SC]
    native = []
    for e in ciss:
        if e.native_weight is None:
            raise InputError(f"CISS event {e.event_id!r} is missing its native weight")
        native.append(e.native_weight)
    trimmed = trim_weights(native)
    scaled = scale_weights(trimmed, len(ciss))
    for e, w_raw, w_trim, w in zip(ciss, native, trimmed, scaled):
        provenance[e.event_id] = {
            "original": float(w_raw),
            "trimmed": float(w_trim),
            "preprocessed": float(w),
        }
        out.append(e.with_weight(float(w)))

    n2 = counts.raw_of(SourceGroup.SHRP2_SC)
    n3 = counts.raw_of(SourceGroup.SHRP2_NSC)
    n2_valid = len(by_group[SourceGroup.SHRP2_SC])
    n3_valid = len(by_group[SourceGroup.SHRP2_NSC])
    for group in (SourceGroup.SHRP2_SC, SourceGroup.SHRP2_NSC):
        w = shrp2_group_weight(n2, n3, n2_valid, n3_valid, group)
        for e in by_group[group]:
            provenance[e.event_id] = {"original": 1.0, "preprocessed": float(w)}
            out.append(e.with_weight(float(w)))

    return WeightedDataset(
        events=tuple(out),
        stage=Stage.PREPROCESSED,
        counts=counts,
        provenance=provenance,
    )


# --- reweighting into the combined crash dataset ----------------------------


def build_plan(dataset: WeightedDataset) -> CombinePlan:
    """Derive the combination targets from a preprocessed dataset."""
    if dataset.stage is not Stage.PREPROCESSED:
        raise InputError("build_plan requires a Preprocessed dataset")
    counts = dataset.counts
    if counts is None:
        raise InputError("preprocessed dataset is missing group counts")
    for group in CRASH_GROUPS:
        if not dataset.group_events(group):
            raise EmptyGroup(group.value)

    n2 = counts.raw_of(SourceGroup.SHRP2_SC)
    n3 = counts.raw_of(SourceGroup.SHRP2_NSC)
    nonsevere_share = n3 / (n2 + n3)

    shrp2_sc = dataset.group_events(SourceGroup.SHRP2_SC)
    speed_split = max(e.v_c for e in shrp2_sc)

    ciss = dataset.group_events(SourceGroup.CISS_SC)
    n1_valid = len(ciss)
    highspeed_weight = sum(e.weight for e in ciss if e.v_c > speed_split)
    highspeed_share = highspeed_weight / n1_valid

    lowspeed_weight = sum(e.weight for e in shrp2_sc) + sum(
        e.weight for e in ciss if e.v_c <= speed_split
    )

    n2_valid = len(shrp2_sc)
    n3_valid = len(dataset.group_events(SourceGroup.SHRP2_NSC))
    combined_size = float(n1_valid + n2_valid + n3_valid)

    target_nonsevere = combined_size * nonsevere_share
    target_highspeed = combined_size * (1.0 - nonsevere_share) * highspeed_share
    target_lowspeed = combined_size * (1.0 - nonsevere_share) * (1.0 - highspeed_share)

    return CombinePlan(
        nonsevere_share=float(nonsevere_share),
        highspeed_share=float(highspeed_share),
        speed_split=float(speed_split),
        highspeed_weight=float(highspeed_weight),
        lowspeed_weight=float(lowspeed_weight),
        combined_size=combined_size,
        target_nonsevere=float(target_nonsevere),
        target_highspeed=float(target_highspeed),
        target_lowspeed=float(target_lowspeed),
    )


def reweight_combine(dataset: WeightedDataset, plan: CombinePlan) -> WeightedDataset:
    """Apply the plan's weights, producing the combined crash dataset."""
    if dataset.stage is not Stage.PREPROCESSED:
        raise InputError("reweight_combine requires a Preprocessed dataset")
    if plan.lowspeed_weight <= 0 and plan.target_lowspeed > 0:
        raise DegenerateSplit("low-speed branch has zero weight but a positive target")
    if plan.highspeed_weight <= 0 and plan.target_highspeed > 0:
        raise DegenerateSplit("high-speed branch has zero weight but a positive target")

    n3_valid = len(dataset.group_events(SourceGroup.SHRP2_NSC))
    out = []
    for e in dataset.events:
        if e.source_group is SourceGroup.SHRP2_NSC:
            w = plan.target_nonsevere / n3_valid
        elif e.source_group is SourceGroup.SHRP2_SC:
            w = plan.target_lowspeed * e.weight / plan.lowspeed_weight
        elif e.source_group is SourceGroup.CISS_SC:
            if e.v_c > plan.speed_split:
                w = plan.target_highspeed * e.weight / plan.highspeed_weight
            else:
                w = plan.target_lowspeed * e.weight / plan.lowspeed_weight
        else:
            raise InputError(f"unexpected group {e.source_group} at combine stage")
        out.append(e.with_weight(float(w)))
    return WeightedDataset(
        events=tuple(out),
        stage=Stage.COMBINED_CRASH,
        counts=dataset.counts,
        provenance=dataset.provenance,
    )


# --- near-crash merging -----------------------------------------------------


def param_stats(
    events: Sequence[EventParams], weights: Optional[np.ndarray] = None
) -> Dict[str, Tuple[float, float]]:
    """Weighted mean and SD per parameter (frequency-weight convention)."""
    matrix = params_matrix(events)
    w = event_weights(events) if weights is None else np.asarray(weights, dtype=float)
    stats = {}
    for j, name in enumerate(PARAM_NAMES):
        stats[name] = (weighted_mean(matrix[:, j], w), weighted_sd(matrix[:, j], w))
    return stats


def standardized_distance(
    a: EventParams,
    b: EventParams,
    stats: Mapping[str, Tuple[float, float]],
    param_weights: Optional[Mapping[str, float]] = None,
) -> float:
    """Euclidean distance between the z-scored six-parameter vectors."""
    total = 0.0
    for name in PARAM_NAMES:
        mean, sd = stats[name]
        if not sd > 0:
            raise ZeroVariance(f"parameter {name} has zero variance")
        pw = 1.0 if param_weights is None else float(param_weights.get(name, 1.0))
        za = (a.value(name) - mean) / sd
        zb = (b.value(name) - mean) / sd
        total += pw * (za - zb) ** 2
    return float(np.sqrt(total))


def _zscore_matrix(events, stats, names):
    matrix = params_matrix(events)
    cols = []
    for name in names:
        j = PARAM_NAMES.index(name)
        mean, sd = stats[name]
        cols.append((matrix[:, j] - mean) / sd)
    return np.column_stack(cols)


def merge_near_crashes(
    crashes: WeightedDataset,
    near_crashes: Sequence[EventParams],
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
    param_weights: Optional[Mapping[str, float]] = None,
) -> Tuple[WeightedDataset, MergeResult]:
    """Attach similar near-crashes as variations of their nearest crash.

    Standardization statistics come from the combined crash dataset.  A
    crash hosting n near-crashes shares its weight equally among the n+1
    events; the host keeps the exact remainder so the split sums back to
    the original weight.
    """
    if not crashes.events:
        raise InputError("combined crash dataset is empty")
    if crashes.stage is not Stage.COMBINED_CRASH:
        raise InputError("merge_near_crashes requires a CombinedCrash dataset")

    stats = param_stats(crashes.events)
    usable = [name for name in PARAM_NAMES if stats[name][1] > 0]
    skipped = [name for name in PARAM_NAMES if name not in usable]
    if skipped:
        log.warning("distance skips zero-variance parameters: %s", ", ".join(skipped))
    if not usable:
        raise ZeroVariance("every parameter is constant across crashes")

    crash_events = sorted(crashes.events, key=lambda e: e.event_id)
    z_crash = _zscore_matrix(crash_events, stats, usable)
    if param_weights is not None:
        pw = np.array([float(param_weights.get(n, 1.0)) for n in usable])
    else:
        pw = np.ones(len(usable))

    selected = []
    min_distances: Dict[str, float] = {}
    attach: Dict[str, int] = {}
    nearest: Dict[str, str] = {}
    for nc in near_crashes:
        z = _zscore_matrix([nc], stats, usable)[0]
        d2 = np.square(z_crash - z) @ pw
        i = int(np.argmin(d2))  # crash_events sorted by id; first wins ties
        d_min = float(np.sqrt(d2[i]))
        min_distances[nc.event_id] = d_min
        if d_min <= distance_threshold:
            crash_id = crash_events[i].event_id
            nearest[nc.event_id] = crash_id
            attach[crash_id] = attach.get(crash_id, 0) + 1
            selected.append((nc.event_id, crash_id, d_min))

    out = []
    for e in crash_events:
        n_nc = attach.get(e.event_id, 0)
        if n_nc == 0:
            out.append(e)
        else:
            share = e.weight / (1 + n_nc)
            # host keeps the residual, computed exactly so the group sums
            # back to the original weight under compensated summation
            host = float(Fraction(e.weight) - n_nc * Fraction(share))
            out.append(e.with_weight(host))
    crash_weight = {e.event_id: e.weight for e in crash_events}
    for nc in near_crashes:
        crash_id = nearest.get(nc.event_id)
        if crash_id is None:
            continue
        share = crash_weight[crash_id] / (1 + attach[crash_id])
        out.append(nc.with_weight(share))

    merged = WeightedDataset(
        events=tuple(out),
        stage=Stage.COMBINED_INCIDENT,
        counts=crashes.counts,
        provenance=crashes.provenance,
    )
    result = MergeResult(
        selected=tuple(selected),
        distance_threshold=float(distance_threshold),
        attachment_counts=attach,
        min_distances=min_distances,
    )
    return merged, result


def distance_threshold_from_quantile(
    crashes: WeightedDataset, quantile: float = 0.6
) -> float:
    """Data-driven threshold: a quantile of the crash-to-crash minimum
    distances, weighted by crash weights.

    Approximates picking the elbow of the minimum-distance CDF when a new
    corpus ships without a calibrated threshold.
    """
    stats = param_stats(crashes.events)
    usable = [name for name in PARAM_NAMES if stats[name][1] > 0]
    if not usable:
        raise ZeroVariance("every parameter is constant across crashes")
    z = _zscore_matrix(crashes.events, stats, usable)
    n = z.shape[0]
    if n < 2:
        raise InputError("need at least two crashes")
    d2 = np.square(z[:, None, :] - z[None, :, :]).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    d_min = np.sqrt(d2.min(axis=1))
    w = crashes.weights()
    order = np.argsort(d_min)
    cum = np.cumsum(w[order]) / w.sum()
    idx = int(np.searchsorted(cum, quantile))
    idx = min(idx, n - 1)
    return float(d_min[order][idx])
