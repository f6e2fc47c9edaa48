"""Test-only oracle: the per-row speed-profile polyline before the closed form.

``_profile_vertices``, ``min_profile_speed``, ``params_to_profile`` and the
speed check of ``ConstraintSet.rejection_reasons`` are kept here verbatim
from the version of ``leadkin.synth`` that rebuilt each profile one row at a
time, so ``speeds_at`` and the table-wide speed check can be checked against
them.  The helpers that did not change are imported from the package.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from leadkin.events import GRAVITY, MODEL_T_MIN, EventParams, ParamTable, SpeedProfile
from leadkin.mvdist import classify
from leadkin.pwl import sample_weights


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


def rejection_reasons(bundle, table: ParamTable) -> np.ndarray:
    """``ConstraintSet.rejection_reasons`` with the per-row speed check."""
    reasons = np.full(len(table), "", dtype=object)
    nonnegative = np.column_stack([table[name] for name in ("v_c", "tau_s", "tau_1", "tau_2")])
    reasons[(nonnegative < 0).any(axis=1)] = "range"
    too_hard = (np.abs(table["a1"]) > GRAVITY) | (np.abs(table["a2"]) > GRAVITY)
    reasons[(reasons == "") & too_hard] = "physical"
    left = np.flatnonzero(reasons == "")
    below = [min_profile_speed(row) < 0.0 for row in table.values[left].tolist()]
    reasons[left[np.array(below, dtype=bool)]] = "physical"
    left = np.flatnonzero(reasons == "")
    rest = table.take(left)
    fits = classify(rest) == bundle.label.id
    for cond in bundle.splits:
        fits &= cond.mask(rest)
    reasons[left[~fits]] = "categorization"
    return reasons
