"""Test-only oracle: the scalar piecewise-linear fitter before batching.

``_iterate_breakpoints``, ``_polish_breakpoints``, ``_grid_search`` and
``fit_candidates`` (with the scalar ``_project_separated`` and
``_min_separation`` they call) are kept here verbatim from the version of
``leadkin.pwl`` that solved one ``np.linalg.lstsq`` per trial point, so the
batched fitter can be checked against them.  The helpers that did not
change are imported from the package.

``segments_from_coef`` and ``vertices`` keep the conversion of hinge
coefficients into (t_start, t_end, slope, intercept) segments and back to
knots from the version of ``leadkin.pwl`` that stored a fit as segments.
"""

from __future__ import annotations

import itertools
import logging
from typing import Optional

import numpy as np

from leadkin.config import PipelineConfig
from leadkin.errors import FitDiverged
from leadkin.events import MODEL_T_MAX, MODEL_T_MIN, SpeedProfile
from leadkin.pwl import (
    _MAX_ITER,
    _MIN_SAMPLES_PER_SEGMENT,
    _breakpoint_bounds,
    _build_fit,
    _separated,
    _wls,
    sample_weights,
)

log = logging.getLogger(__name__)


def segments_from_coef(coef, breakpoints) -> tuple:
    """Convert basis coefficients into contiguous segments over [-5, 0]."""
    beta0, beta1 = coef[0], coef[1]
    gammas = coef[2:]
    edges = [MODEL_T_MIN, *breakpoints, MODEL_T_MAX]
    segments = []
    slope = beta1
    intercept = beta0
    for i in range(len(edges) - 1):
        if i > 0:
            slope = slope + gammas[i - 1]
            intercept = intercept - gammas[i - 1] * breakpoints[i - 1]
        segments.append((float(edges[i]), float(edges[i + 1]), float(slope), float(intercept)))
    return tuple(segments)


def vertices(segments) -> tuple:
    """(t, v) knots of the polyline, endpoints included."""
    t_start, _, slope, intercept = segments[0]
    ts = [t_start]
    vs = [slope * t_start + intercept]
    for _, t_end, slope, intercept in segments:
        ts.append(t_end)
        vs.append(slope * t_end + intercept)
    return np.array(ts), np.array(vs)


def _min_separation(t: np.ndarray) -> float:
    return 2.5 * float(np.median(np.diff(t)))


def _project_separated(bks, lo, hi, min_sep):
    """Sort and push breakpoints apart to at least min_sep inside [lo, hi]."""
    k = len(bks)
    if lo + (k - 1) * min_sep > hi:
        return None
    out = np.sort(np.asarray(bks, dtype=float))
    out[0] = max(out[0], lo)
    for i in range(1, k):
        out[i] = max(out[i], out[i - 1] + min_sep)
    out[-1] = min(out[-1], hi)
    for i in range(k - 2, -1, -1):
        out[i] = min(out[i], out[i + 1] - min_sep)
    if out[0] < lo - 1e-12:
        return None
    return out


def _iterate_breakpoints(t, v, w, init, tol):
    """Breakpoint refinement by iterative linearization.

    Augments the design with jump indicator columns; the ratio of the
    indicator coefficient to the slope-change coefficient estimates how far
    each breakpoint should move.  A shrinking-step line search keeps the
    updates from oscillating around sharp kinks; breakpoints are projected
    back onto the minimum-separation set after every step.
    """
    sqrt_w = np.sqrt(w)
    lo, hi = _breakpoint_bounds(t)
    min_sep = _min_separation(t)
    bks = _project_separated(np.asarray(init, dtype=float), lo, hi, min_sep)
    if bks is None:
        return None
    k = len(bks)
    _, best_sse = _wls(t, v, sqrt_w, bks)
    best_bks = bks.copy()
    for _ in range(_MAX_ITER):
        relu = np.maximum(t - bks[:, None], 0.0)
        ind = (t > bks[:, None]).astype(float)
        X = np.column_stack([np.ones_like(t), t, relu.T, ind.T])
        coef, *_ = np.linalg.lstsq(X * sqrt_w[:, None], v * sqrt_w, rcond=None)
        gamma = coef[2 : 2 + k]
        beta_ind = coef[2 + k :]
        if np.any(np.abs(gamma) < 1e-12):
            break  # a slope change vanished; keep the best point so far
        delta = beta_ind / gamma
        stepped = None
        for step in (1.0, 0.5, 0.25, 0.1):
            cand = _project_separated(bks - step * delta, lo, hi, min_sep)
            if cand is None:
                continue
            _, sse = _wls(t, v, sqrt_w, cand)
            if stepped is None or sse < stepped[1]:
                stepped = (cand, sse)
        if stepped is None:
            break
        bks = stepped[0]
        if stepped[1] < best_sse:
            improved = best_sse - stepped[1] > tol * (best_sse + tol)
            best_bks, best_sse = bks.copy(), stepped[1]
            if not improved:
                break
        else:
            break

    coef, sse = _wls(t, v, sqrt_w, best_bks)
    return coef, best_bks, sse


def _polish_breakpoints(t, v, sqrt_w, bks, sse, lo, hi):
    """Coordinate-wise fine-grid refinement around each breakpoint."""
    if len(bks) == 0:
        return bks, sse
    dt = float(np.median(np.diff(t)))
    min_sep = _min_separation(t)
    offsets = np.linspace(-1.5 * dt, 1.5 * dt, 31)
    bks = np.asarray(bks, dtype=float)
    for _ in range(2):
        moved = False
        for i in range(len(bks)):
            left = lo if i == 0 else bks[i - 1] + min_sep
            right = hi if i == len(bks) - 1 else bks[i + 1] - min_sep
            for off in offsets:
                b = bks[i] + off
                if b < left or b > right or off == 0.0:
                    continue
                cand = bks.copy()
                cand[i] = b
                _, sse_c = _wls(t, v, sqrt_w, cand)
                if sse_c < sse:
                    bks, sse = cand, sse_c
                    moved = True
        if not moved:
            break
    return bks, sse


def _grid_search(t, v, w, k):
    """Exhaustive search over sample-midpoint breakpoints (fallback)."""
    sqrt_w = np.sqrt(w)
    mids = (t[:-1] + t[1:]) / 2.0
    best = None
    for combo in itertools.combinations(range(len(mids)), k):
        bks = mids[list(combo)]
        if not _separated(bks, t):
            continue
        coef, sse = _wls(t, v, sqrt_w, bks)
        if best is None or sse < best[2]:
            best = (coef, bks, sse)
    return best


def fit_candidates(
    profile: SpeedProfile,
    config: PipelineConfig = PipelineConfig(),
    rng: Optional[np.random.Generator] = None,
) -> list:
    """Fit one candidate per breakpoint count, 0..n_b_max.

    Each candidate minimizes the weighted squared error for its breakpoint
    count.  Counts that cannot converge are dropped with a warning; the
    zero-breakpoint candidate always exists.
    """
    rng = rng or np.random.default_rng(0)
    t = np.asarray(profile.times, dtype=float)
    v = np.asarray(profile.speeds, dtype=float)
    if t.size < 2:
        raise FitDiverged(f"event {profile.event_id!r}: need at least two samples")
    w = sample_weights(t)
    sqrt_w = np.sqrt(w)

    candidates = []
    coef, sse = _wls(t, v, sqrt_w, np.empty(0))
    candidates.append(_build_fit(coef, np.empty(0), v, w, sse, t.size))
    if t.size < 2 * _MIN_SAMPLES_PER_SEGMENT:
        return candidates  # no room for any breakpoint

    lo, hi = _breakpoint_bounds(t)
    span = hi - lo
    for k in range(1, config.n_b_max + 1):
        if t.size < _MIN_SAMPLES_PER_SEGMENT * (k + 1):
            log.warning(
                "event %r: too few samples for %d breakpoints", profile.event_id, k
            )
            continue
        best = None
        inits = [lo + span * np.arange(1, k + 1) / (k + 1)]
        for _ in range(max(config.max_restarts - 1, 0)):
            draw = np.sort(rng.uniform(lo, hi, size=k))
            inits.append(draw)
        for init in inits:
            result = _iterate_breakpoints(t, v, w, init, config.convergence_tol)
            if result is None:
                continue
            if best is None or result[2] < best[2]:
                best = result
        if best is None:
            best = _grid_search(t, v, w, k)
        if best is None:
            log.warning(
                "event %r: no converged fit with %d breakpoints", profile.event_id, k
            )
            continue
        _, bks, sse = best
        bks, sse = _polish_breakpoints(t, v, sqrt_w, bks, sse, lo, hi)
        if not _separated(bks, t):
            log.warning(
                "event %r: %d-breakpoint fit lost separation", profile.event_id, k
            )
            continue
        coef, sse = _wls(t, v, sqrt_w, bks)
        candidates.append(_build_fit(coef, bks, v, w, sse, t.size))
    return candidates
