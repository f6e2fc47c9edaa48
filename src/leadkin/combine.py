"""Combine weighted crash sources and merge similar near-crashes.

The two crash sources are made compatible (survey-weight trimming and
scaling for CISS, uniform group weights for SHRP2), reweighted into a
single combined crash dataset that keeps CISS's speed distribution for
severe crashes and SHRP2's severe/non-severe mix, and finally enlarged by
attaching sufficiently similar near-crashes as variations of their nearest
crash with the crash's weight split equally among the group.  Every step
takes and returns ``ParamTable``s; the group counts are passed to both
``preprocess`` and ``build_plan``.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Tuple

import numpy as np

from .config import PipelineConfig
from .errors import DegenerateSplit, EmptyGroup, InputError, NumericalError, ZeroVariance
from .events import PARAM_NAMES, ParamTable, SourceGroup
from .wstats import describe

log = logging.getLogger(__name__)

TRIM_FACTOR = 3.5

CRASH_GROUPS = (SourceGroup.CISS_SC, SourceGroup.SHRP2_SC, SourceGroup.SHRP2_NSC)


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
    def from_groups(
        valid_groups: Iterable[Optional[SourceGroup]],
        raw_counts: Optional[Mapping[SourceGroup, int]] = None,
    ) -> "GroupCounts":
        """Valid counts from the source group of each valid event."""
        valid = Counter(group for group in valid_groups if group is not None)
        raw = dict(raw_counts) if raw_counts is not None else dict(valid)
        return GroupCounts(raw=raw, valid=valid)


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
    """Which near-crashes were attached to which crash, and at what distance."""

    selected: tuple  # (near_crash_id, most_similar_crash_id, d_min)


# --- weight preprocessing ---------------------------------------------------


def trim_cutpoint(weights) -> float:
    """Trimming cut-point, 3.5 * sqrt(1 + CV^2) * median.

    CV uses the sample (n-1) standard deviation; a CV that overflows (from
    weights of about 1e155 up) raises ``NumericalError``, since an infinite
    cut-point would skip the trim.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise InputError("cannot trim an empty weight list")
    if w.size == 1:
        cv2 = 0.0
    else:
        mean = w.mean()
        with np.errstate(over="ignore", invalid="ignore"):
            cv2 = float(w.std(ddof=1) / mean) ** 2 if mean > 0 else 0.0
        if not np.isfinite(cv2):
            raise NumericalError(f"coefficient of variation of the weights is not finite (mean {mean:.6g})")
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


def in_groups(table: ParamTable, *groups: SourceGroup) -> np.ndarray:
    """Mask of the rows whose source group is one of ``groups``."""
    return np.array([g in groups for g in table.source_group], dtype=bool)


def split_near_crashes(events: ParamTable) -> Tuple[ParamTable, ParamTable]:
    """Partition events into (crashes, near-crashes)."""
    crashes = in_groups(events, *CRASH_GROUPS)
    return events.take(crashes), events.take(in_groups(events, SourceGroup.SHRP2_NC))


def preprocess(events: ParamTable, counts: GroupCounts) -> ParamTable:
    """Make the crash sources' weights compatible.

    CISS native weights are trimmed and scaled to sum to the CISS valid
    count; each SHRP2 crash group gets one uniform weight.  Near-crashes are
    excluded here (they enter at the merge step).  Rows come out grouped
    CISS, SHRP2 severe, SHRP2 non-severe, each in input order.
    """
    rows = {g: np.flatnonzero(in_groups(events, g)) for g in CRASH_GROUPS}
    for group in CRASH_GROUPS:
        n = rows[group].size
        if not n:
            raise EmptyGroup(group.value)
        # a group missing from the counts is unknown; one that is given must agree
        valid, raw = counts.valid.get(group), counts.raw.get(group)
        if valid is not None and valid != n:
            raise InputError(f"valid count mismatch for {group.value}: counts say {valid}, got {n} events")
        if raw is not None and raw < n:
            raise InputError(
                f"raw count below the valid count for {group.value}: counts say {raw}, got {n} valid events"
            )

    ciss = events.take(rows[SourceGroup.CISS_SC])
    for event_id, native in zip(ciss.event_id, ciss.native_weight):
        if native is None:
            raise InputError(f"CISS event {event_id!r} is missing its native weight")
    native = ciss.native_weight.astype(float)
    trimmed = trim_weights(native)
    weights = [scale_weights(trimmed, len(ciss))]

    n2 = counts.raw_of(SourceGroup.SHRP2_SC)
    n3 = counts.raw_of(SourceGroup.SHRP2_NSC)
    n2_valid = rows[SourceGroup.SHRP2_SC].size
    n3_valid = rows[SourceGroup.SHRP2_NSC].size
    for group in (SourceGroup.SHRP2_SC, SourceGroup.SHRP2_NSC):
        w = shrp2_group_weight(n2, n3, n2_valid, n3_valid, group)
        weights.append(np.full(rows[group].size, w))

    order = np.concatenate([rows[g] for g in CRASH_GROUPS])
    return events.take(order).with_weights(np.concatenate(weights))


# --- reweighting into the combined crash dataset ----------------------------


def build_plan(events: ParamTable, counts: GroupCounts) -> CombinePlan:
    """Derive the combination targets from the preprocessed crashes and the
    counts ``preprocess`` was given."""
    ciss, shrp2_sc, shrp2_nsc = (in_groups(events, g) for g in CRASH_GROUPS)
    for group, rows in zip(CRASH_GROUPS, (ciss, shrp2_sc, shrp2_nsc)):
        if not rows.any():
            raise EmptyGroup(group.value)

    n2 = counts.raw_of(SourceGroup.SHRP2_SC)
    n3 = counts.raw_of(SourceGroup.SHRP2_NSC)
    nonsevere_share = n3 / (n2 + n3)

    speed_split = events["v_c"][shrp2_sc].max()
    fast = events["v_c"] > speed_split

    # Python sums in row order, so the targets do not depend on numpy's
    # pairwise summation
    n1_valid = int(ciss.sum())
    highspeed_weight = sum(events.weight[ciss & fast].tolist())
    highspeed_share = highspeed_weight / n1_valid

    lowspeed_weight = sum(events.weight[shrp2_sc].tolist()) + sum(events.weight[ciss & ~fast].tolist())

    combined_size = float(n1_valid + shrp2_sc.sum() + shrp2_nsc.sum())

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


def reweight_combine(events: ParamTable, plan: CombinePlan) -> ParamTable:
    """Apply the plan's weights to the preprocessed crashes, producing the
    combined crash dataset."""
    if plan.lowspeed_weight <= 0 and plan.target_lowspeed > 0:
        raise DegenerateSplit("low-speed branch has zero weight but a positive target")
    if plan.highspeed_weight <= 0 and plan.target_highspeed > 0:
        raise DegenerateSplit("high-speed branch has zero weight but a positive target")

    ciss, shrp2_sc, shrp2_nsc = (in_groups(events, g) for g in CRASH_GROUPS)
    unexpected = ~(ciss | shrp2_sc | shrp2_nsc)
    if unexpected.any():
        group = events.source_group[unexpected][0]
        raise InputError(f"unexpected group {group} at combine stage")
    high = ciss & (events["v_c"] > plan.speed_split)
    low = ~shrp2_nsc & ~high
    w = events.weight
    weights = np.empty(len(events))
    weights[shrp2_nsc] = plan.target_nonsevere / int(shrp2_nsc.sum()) if shrp2_nsc.any() else 0.0
    weights[high] = plan.target_highspeed * w[high] / plan.highspeed_weight
    weights[low] = plan.target_lowspeed * w[low] / plan.lowspeed_weight
    return events.with_weights(weights)


# --- near-crash merging -----------------------------------------------------


def _crash_zscores(crashes: ParamTable) -> Callable[[ParamTable], np.ndarray]:
    """A table's z-score matrix on the crashes' weighted mean and SD, over
    the parameters that vary across the crashes."""
    stats = describe(crashes)
    usable = [name for name in PARAM_NAMES if stats[name][1] > 0]
    skipped = [name for name in PARAM_NAMES if name not in usable]
    if skipped:
        log.warning("distance skips zero-variance parameters: %s", ", ".join(skipped))
    if not usable:
        raise ZeroVariance("every parameter is constant across crashes")
    return lambda events: np.column_stack([(events[name] - stats[name][0]) / stats[name][1] for name in usable])


def _check_weights(table: ParamTable) -> None:
    """``NumericalError`` naming the first event whose weight is not finite
    and positive."""
    bad = np.flatnonzero(~(np.isfinite(table.weight) & (table.weight > 0)))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(f"event {table.event_id[i]!r}: weight {float(table.weight[i])!r} "
                             "is not finite and positive")


def merge_near_crashes(
    crashes: ParamTable,
    near_crashes: ParamTable,
    config: PipelineConfig = PipelineConfig(),
) -> Tuple[ParamTable, MergeResult]:
    """Attach similar near-crashes as variations of their nearest crash, when
    its z-score distance is at most ``config.d_thd``.

    Standardization statistics come from the combined crash dataset.  A
    crash hosting n near-crashes shares its weight equally among the n+1
    events; the host keeps the exact remainder so the split sums back to
    the original weight.  The merged rows are the crashes sorted by id,
    then the attached near-crashes in input order.  A crash or merged
    weight that is not finite and positive raises ``NumericalError``
    naming its event.
    """
    if not len(crashes):
        raise InputError("combined crash dataset is empty")
    _check_weights(crashes)  # a weight that over- or underflowed in scaling

    zscores = _crash_zscores(crashes)
    ids = crashes.event_id
    sorted_crashes = crashes.take(sorted(range(len(ids)), key=ids.__getitem__))
    crash_ids = sorted_crashes.event_id.tolist()
    z_crash = zscores(sorted_crashes)
    z_nc = zscores(near_crashes)
    ones = np.ones(z_crash.shape[1])  # a dot product sums in another order than .sum(axis=1)

    selected = []
    host = np.full(len(near_crashes), -1)  # index into sorted_crashes, -1 when not attached
    for k, nc_id in enumerate(near_crashes.event_id.tolist()):
        d2 = np.square(z_crash - z_nc[k]) @ ones
        i = int(np.argmin(d2))  # crashes sorted by id; first wins ties
        d_min = float(np.sqrt(d2[i]))
        if d_min <= config.d_thd:
            host[k] = i
            selected.append((nc_id, crash_ids[i], d_min))

    attachments = np.bincount(host[host >= 0], minlength=len(crash_ids)).tolist()
    crash_weight = sorted_crashes.weight.tolist()
    share = [w / (1 + n) for w, n in zip(crash_weight, attachments)]
    # the host keeps the residual, computed exactly so the group sums back to
    # the original weight under compensated summation
    host_weight = [
        w if n == 0 else float(Fraction(w) - n * Fraction(s))
        for w, n, s in zip(crash_weight, attachments, share)
    ]
    attached = np.flatnonzero(host >= 0)
    merged = ParamTable.concat([
        sorted_crashes.with_weights(host_weight),
        near_crashes.take(attached).with_weights([share[i] for i in host[attached]]),
    ])
    _check_weights(merged)  # a share of the smallest subnormal weight rounds to 0
    return merged, MergeResult(selected=tuple(selected))


def distance_threshold_from_quantile(crashes: ParamTable, quantile: float = 0.6) -> float:
    """Data-driven threshold: a quantile of the crash-to-crash minimum
    distances, weighted by crash weights.

    Approximates picking the elbow of the minimum-distance CDF when a new
    corpus ships without a calibrated threshold.
    """
    z = _crash_zscores(crashes)(crashes)
    n = z.shape[0]
    if n < 2:
        raise InputError("need at least two crashes")
    d2 = np.square(z[:, None, :] - z[None, :, :]).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    d_min = np.sqrt(d2.min(axis=1))
    w = crashes.weight
    order = np.argsort(d_min)
    cum = np.cumsum(w[order]) / w.sum()
    idx = int(np.searchsorted(cum, quantile))
    idx = min(idx, n - 1)
    return float(d_min[order][idx])
