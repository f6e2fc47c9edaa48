"""Weighted piecewise-linear fitting of lead-vehicle speed profiles.

A profile is approximated by consecutive straight lines joined at
breakpoints.  Candidates with 0..n_b_max breakpoints are fit by weighted
least squares, scored by a loss that trades fit accuracy against breakpoint
count, repaired to keep the predicted speed non-negative, and reduced to
the six-parameter event description.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .config import PipelineConfig
from .errors import FitDiverged
from .events import MODEL_T_MAX, MODEL_T_MIN, SpeedProfile

log = logging.getLogger(__name__)

_MAX_ITER = 30
_MIN_SAMPLES_PER_SEGMENT = 2


@dataclass(frozen=True)
class PwlFit:
    """A fitted piecewise-linear speed model covering [-5, 0] s, stored as
    its knots: ``times`` from -5 s to 0 s and the speed at each.  Slopes
    and durations are knot differences."""

    times: tuple
    speeds: tuple
    r_squared: float
    r_squared_adj: float
    modified_for_nonnegativity: bool = False

    @property
    def breakpoints(self) -> tuple:
        """The knots inside the window."""
        return self.times[1:-1]

    @property
    def n_b(self) -> int:
        return len(self.times) - 2

    def vertices(self) -> tuple:
        """(t, v) knots of the polyline as arrays, endpoints included."""
        return np.array(self.times), np.array(self.speeds)

    def predict(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.times, self.speeds)

    def slopes(self) -> np.ndarray:
        return np.diff(self.speeds) / np.diff(self.times)


def sample_weights(times) -> np.ndarray:
    """Fit weight for each sample time, w = (0.1 - t)^(-1/2).

    Samples near time zero carry more weight so the fit prioritizes the
    speed changes closest to the event.
    """
    t = np.asarray(times, dtype=float)
    if t.size and (t.min() < MODEL_T_MIN - 1e-9 or t.max() > MODEL_T_MAX + 1e-9):
        raise ValueError("sample times must lie in [-5, 0] s")
    return np.power(0.1 - t, -0.5)


# --- weighted segmented least squares --------------------------------------


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_rows(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of each matrix of the (B, n, p)
    stack a against the matching row of b, (B, n) or one shared (n,).

    One call of the ``gelsd`` gufunc that ``np.linalg.lstsq`` wraps, with
    its rcond and its error hook: each row is bit for bit
    ``np.linalg.lstsq(a[i], b[i], rcond=None)[0]``, and a failed SVD raises
    ``LinAlgError``.
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x, _, _, _ = _umath_linalg.lstsq(a, b[..., None], rcond, signature="ddd->ddid")
    return x[..., 0]


def _weighted_designs(t, sqrt_w, bks, extra=0) -> np.ndarray:
    """(B, n, 2 + k + extra) stack of designs, columns 1, t and
    max(t - b_i, 0) each scaled by sqrt_w, one per row of the (B, k) bks,
    then ``extra`` unset columns for the caller to fill.

    t and sqrt_w are one profile's (n,) samples or (B, n), a profile per
    row, as for every stacked solve below.  Each design is stored column
    by column, a transposed (B, 2 + k + extra, n) array, so the hinge
    columns broadcast along the sample axis and LAPACK copies each column
    in one piece.
    """
    k = bks.shape[1]
    X = np.empty((bks.shape[0], 2 + k + extra, t.shape[-1]))
    X[:, 0] = sqrt_w
    X[:, 1] = t * sqrt_w
    X[:, 2 : 2 + k] = np.maximum(t[..., None, :] - bks[:, :, None], 0.0) * sqrt_w[..., None, :]
    return X.mT


def _wls_rows(t, v, sqrt_w, bks):
    """Weighted least squares at each row of a (B, k) stack of breakpoint
    vectors; returns (coef, sse_w), (B, 2 + k) and (B,)."""
    # unweighted, so the residual is v - X coef; row-major, so that product
    # rounds as the one-row matmul does
    X = np.ascontiguousarray(_weighted_designs(t, np.ones_like(t), bks))
    coef = _lstsq_rows(X * sqrt_w[..., :, None], v * sqrt_w)
    resid = v - (X @ coef[:, :, None])[:, :, 0]
    return coef, np.vecdot(sqrt_w * resid, sqrt_w * resid)


def _wls(t, v, sqrt_w, breakpoints):
    """Weighted least squares at fixed breakpoints; returns (coef, sse_w)."""
    coef, sse = _wls_rows(t, v, sqrt_w, np.asarray(breakpoints, dtype=float)[None, :])
    return coef[0], float(sse[0])


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _sse_batch(t, v, sqrt_w, bks) -> np.ndarray:
    """Weighted SSE at each row of a (B, k) stack of breakpoint vectors.

    One stacked Householder QR of the augmented designs [X | yw], the
    ``qr_r_raw`` gufunc that ``np.linalg.qr`` wraps, with its error hook;
    Q is never formed.  The last diagonal entry of R is the norm of yw's
    part outside the span of X (Golub & Van Loan, Matrix Computations,
    5.3), so its square is the SSE.  Rows need n > 2 + k samples.  A row
    whose R of X has a diagonal entry at or below 1e-10 * max|diag R| is
    rank deficient and is solved again by ``_wls`` (the minimum-norm lstsq
    solution).
    """
    bks = np.asarray(bks, dtype=float)
    p = 2 + bks.shape[1]
    a = _weighted_designs(t, sqrt_w, bks, extra=1)
    a[:, :, p] = v * sqrt_w
    with np.errstate(call=_qr_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        _umath_linalg.qr_r_raw(a, signature="d->d")  # R into a's upper triangle
    sse = a[:, p, p] ** 2
    diag = np.abs(np.diagonal(a[:, :p, :p], axis1=1, axis2=2))
    for row in np.flatnonzero((diag <= 1e-10 * diag.max(axis=1, keepdims=True)).any(axis=1)):
        t_row, v_row, w_row = (np.broadcast_to(x, a.shape[:2])[row] for x in (t, v, sqrt_w))
        sse[row] = _wls(t_row, v_row, w_row, bks[row])[1]
    return sse


def _directions(t, v, sqrt_w, bks) -> np.ndarray:
    """Estimated breakpoint moves for each row of a (B, k) stack.

    Augments the design with jump indicator columns 1[t > b]; the ratio of
    each indicator coefficient to its slope-change coefficient estimates
    how far that breakpoint should move.  Rows where a slope change
    vanished (|gamma| < 1e-12) come back as NaN.  Each row is its own
    minimum-norm ``gelsd`` solve, stacked in one gufunc call: the ratio is
    ill-conditioned when a slope change is small, and a stacked QR solve
    there sends restarts down other paths.
    """
    k = bks.shape[1]
    X = _weighted_designs(t, sqrt_w, bks, extra=k)
    X.mT[:, 2 + k :] = (t[..., None, :] > bks[:, :, None]) * sqrt_w[..., None, :]
    coef = _lstsq_rows(X, v * sqrt_w)
    gamma = coef[:, 2 : 2 + k]
    moving = ~(np.abs(gamma) < 1e-12).any(axis=1)
    delta = np.full(bks.shape, np.nan)
    delta[moving] = coef[moving, 2 + k :] / gamma[moving]
    return delta


def _separated(breakpoints: np.ndarray, t: np.ndarray) -> bool:
    """Each segment must keep at least a couple of samples."""
    edges = np.concatenate(([t[0]], breakpoints, [t[-1]]))
    counts = np.histogram(t, bins=edges)[0]
    return bool((counts >= _MIN_SAMPLES_PER_SEGMENT).all())


def _breakpoint_bounds(t: np.ndarray):
    """Range that leaves at least two samples in each end segment."""
    lo = (t[1] + t[2]) / 2.0
    hi = (t[-3] + t[-2]) / 2.0
    return lo, hi


def _project_separated(bks, lo, hi, min_sep):
    """Sort each row of a (M, k) stack and push its breakpoints apart to at
    least min_sep inside [lo, hi].  lo, hi and min_sep are scalars or one
    per row, with room for k breakpoints: lo + (k - 1) min_sep <= hi."""
    out = np.sort(np.asarray(bks, dtype=float), axis=1)
    k = out.shape[1]
    out[:, 0] = np.maximum(out[:, 0], lo)
    for i in range(1, k):
        out[:, i] = np.maximum(out[:, i], out[:, i - 1] + min_sep)
    out[:, -1] = np.minimum(out[:, -1], hi)
    for i in range(k - 2, -1, -1):
        out[:, i] = np.minimum(out[:, i], out[:, i + 1] - min_sep)
    return out


_STEPS = np.array([1.0, 0.5, 0.25, 0.1])


def _refine_rows(t, v, sqrt_w, inits, lo, hi, min_sep, owner, tol) -> dict:
    """Breakpoint refinement by iterative linearization, every restart of
    every profile in lockstep.

    Row i of the (R, k) ``inits`` is one start for the profile whose
    samples are row i of the (R, n) t, v and sqrt_w, with the limits lo[i],
    hi[i] and min_sep[i]; owner[i] names that profile.  Each iteration moves
    the breakpoints by the ``_directions`` estimate.  A shrinking-step line
    search keeps the updates from oscillating around sharp kinks;
    breakpoints are projected back onto the minimum-separation set after
    every step.

    Each iteration scores every step of every active row in one stacked
    solve.  A row stops when a slope change vanishes, the best step does
    not lower its SSE, the decrease is below ``tol``, or after
    ``_MAX_ITER`` iterations.  Rows never mix, so a profile's result does
    not depend on the others in the stack.  Returns {owner: (bks, sse)} of
    each owner's restart with the lowest final SSE.
    """
    bks = _project_separated(inits, lo, hi, min_sep)
    k = bks.shape[1]
    best_bks = bks.copy()
    best_sse = _sse_batch(t, v, sqrt_w, bks)
    active = np.arange(len(bks))
    for _ in range(_MAX_ITER):
        if not len(active):
            break
        delta = _directions(t[active], v[active], sqrt_w[active], bks[active])
        # a vanished slope change stops the restart at its best point so far
        moving = ~np.isnan(delta[:, 0])
        active, delta = active[moving], delta[moving]
        trial = bks[active][:, None, :] - _STEPS[:, None] * delta[:, None, :]
        rows = np.repeat(active, _STEPS.size)
        cand = _project_separated(trial.reshape(-1, k), lo[rows], hi[rows], min_sep[rows])
        sse = _sse_batch(t[rows], v[rows], sqrt_w[rows], cand).reshape(len(active), _STEPS.size)
        cand = cand.reshape(len(active), _STEPS.size, k)
        pick = np.argmin(sse, axis=1)  # first minimum: ties go to the longer step
        new_sse = sse[np.arange(len(active)), pick]
        bks[active] = cand[np.arange(len(active)), pick]
        old_sse = best_sse[active]
        lower = new_sse < old_sse
        best_bks[active[lower]] = bks[active[lower]]
        best_sse[active[lower]] = new_sse[lower]
        active = active[lower & (old_sse - new_sse > tol * (old_sse + tol))]

    best = {}
    _, sse = _wls_rows(t, v, sqrt_w, best_bks)
    for row, i in enumerate(owner.tolist()):
        if i not in best or sse[row] < best[i][1]:
            best[i] = (best_bks[row], float(sse[row]))
    return best


def _polish_breakpoints(t, v, sqrt_w, bks, sse, lo, hi, spacing, min_sep):
    """Coordinate-wise fine-grid refinement around each breakpoint.

    A greedy scan: each offset in turn moves breakpoint i when it lowers
    the SSE.  The offsets still to try are scored from the current position
    in one stacked solve; the first that improves is taken, and only the
    later offsets are scored again from the new position.
    """
    offsets = np.linspace(-1.5 * spacing, 1.5 * spacing, 31)
    bks = np.asarray(bks, dtype=float)
    for _ in range(2):
        moved = False
        for i in range(len(bks)):
            left = lo if i == 0 else bks[i - 1] + min_sep
            right = hi if i == len(bks) - 1 else bks[i + 1] - min_sep
            rest = offsets
            while rest.size:
                b = bks[i] + rest
                idx = np.flatnonzero((b >= left) & (b <= right) & (rest != 0.0))
                if not idx.size:
                    break
                cand = np.repeat(bks[None, :], idx.size, axis=0)
                cand[:, i] = b[idx]
                sse_c = _sse_batch(t, v, sqrt_w, cand)
                better = np.flatnonzero(sse_c < sse)
                if not better.size:
                    break
                j = better[0]
                bks, sse = cand[j], float(sse_c[j])
                moved = True
                rest = rest[idx[j] + 1 :]
        if not moved:
            break
    return bks, sse


def _r_squared(v, w, sse_w):
    sw = w.sum()
    mean_w = np.dot(w, v) / sw
    sst_w = float(np.dot(w, np.square(v - mean_w)))
    if sst_w <= 0.0:
        return 1.0 if sse_w <= 1e-18 else 0.0
    return 1.0 - sse_w / sst_w


def _adjusted(r2: float, n: int, n_b: int) -> float:
    p = 2 * (n_b + 1)
    if n - p - 1 <= 0:
        return r2
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


class _ProfileFit:
    """One profile's samples and breakpoint limits, its starts, and its
    candidates so far: the zero-breakpoint one, then one per count that was
    refined and kept its separation.

    The starts of every count are drawn from the profile's own generator
    here, in k order, whether or not the count is refined later.
    Refinement and the polish never draw, so the stream is the same
    whichever profiles are fit with it and whichever counts are skipped.  A
    count gets starts only if its segments keep two samples each and its
    breakpoints fit min_sep apart in [lo, hi].  Both rules only tighten as
    k grows, so the counts without starts come last and the draws of the
    others are unchanged by skipping them.
    """

    def __init__(self, profile: SpeedProfile, config: PipelineConfig, rng: np.random.Generator):
        self.profile = profile
        self.t = np.asarray(profile.times, dtype=float)
        self.v = np.asarray(profile.speeds, dtype=float)
        if self.t.size < 2:
            raise FitDiverged(f"event {profile.event_id!r}: need at least two samples")
        self.w = sample_weights(self.t)
        self.sqrt_w = np.sqrt(self.w)
        coef, sse = _wls(self.t, self.v, self.sqrt_w, np.empty(0))
        self.candidates = [_build_fit(coef, np.empty(0), self.v, self.w, sse, self.t.size)]
        self.starts = {}  # k -> (restarts, k) starts; none for a k that does not fit
        if not self.has_room:
            return
        self.lo, self.hi = _breakpoint_bounds(self.t)
        span = self.hi - self.lo
        self.spacing = float(np.median(np.diff(self.t)))  # s, between samples
        self.min_sep = 2.5 * self.spacing
        for k in range(1, config.n_b_max + 1):
            if self.t.size >= _MIN_SAMPLES_PER_SEGMENT * (k + 1) and self.lo + (k - 1) * self.min_sep <= self.hi:
                even = self.lo + span * np.arange(1, k + 1) / (k + 1)
                draws = rng.uniform(self.lo, self.hi, size=(max(config.max_restarts - 1, 0), k))
                self.starts[k] = np.vstack([even, draws])

    @property
    def has_room(self) -> bool:
        """Whether any breakpoint fits between the end segments."""
        return self.t.size >= 2 * _MIN_SAMPLES_PER_SEGMENT

    def add(self, k: int, bks, sse) -> None:
        """Polish the best refined k-breakpoint start into the k candidate;
        one whose breakpoints lose separation is dropped with a warning."""
        t, v, sqrt_w = self.t, self.v, self.sqrt_w
        bks, sse = _polish_breakpoints(t, v, sqrt_w, bks, sse, self.lo, self.hi, self.spacing, self.min_sep)
        if not _separated(bks, t):
            log.warning("event %r: %d-breakpoint fit lost separation", self.profile.event_id, k)
            return
        coef, sse = _wls(t, v, sqrt_w, bks)
        self.candidates.append(_build_fit(coef, bks, v, self.w, sse, t.size))


def _refine_all(fits: Sequence[_ProfileFit], k: int, tol: float) -> None:
    """Refine the k-breakpoint starts of every profile, one ``_refine_rows``
    stack per sample count, and add each profile's k candidate."""
    by_size = {}
    for fit in fits:
        by_size.setdefault(fit.t.size, []).append(fit)
    for group in by_size.values():
        owner = np.repeat(np.arange(len(group)), [len(fit.starts[k]) for fit in group])
        t, v, sqrt_w, lo, hi, min_sep = (
            np.array([getattr(fit, name) for fit in group])[owner]
            for name in ("t", "v", "sqrt_w", "lo", "hi", "min_sep")
        )
        inits = np.concatenate([fit.starts[k] for fit in group])
        for i, (bks, sse) in _refine_rows(t, v, sqrt_w, inits, lo, hi, min_sep, owner, tol).items():
            group[i].add(k, bks, sse)


@dataclass
class SearchTally:
    """Breakpoint-search work counted inside a :func:`search_tally` block:
    the (profile, k) pairs refined, and the pairs with starts that the loss
    bound of ``fit_events`` skipped."""

    refined: int = 0
    skipped: int = 0


_TALLY: ContextVar[Optional[SearchTally]] = ContextVar("leadkin_search_tally", default=None)


@contextmanager
def search_tally() -> Iterator[SearchTally]:
    """Count the refined and skipped (profile, k) pairs of every fit made
    inside the block."""
    tally = SearchTally()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


def _search(profiles, config, rngs, can_win=None) -> list:
    """Every profile's candidates, found count by count.

    For each k = 1..n_b_max, the profiles with k-breakpoint starts for which
    ``can_win(profile, k, candidates so far)`` holds (every one when
    ``can_win`` is None) are refined in one lockstep ``_refine_all``, and
    each is polished into its k candidate before k + 1 is refined.  A count
    without starts is skipped with a warning, whatever ``can_win`` says.
    """
    rngs = [None] * len(profiles) if rngs is None else rngs
    fits = [_ProfileFit(p, config, rng or np.random.default_rng(0)) for p, rng in zip(profiles, rngs)]
    tally = _TALLY.get()
    for k in range(1, config.n_b_max + 1):
        running, skipped = [], 0
        for fit in fits:
            if not fit.has_room:
                continue
            if k not in fit.starts:
                log.warning("event %r: too few samples for %d breakpoints", fit.profile.event_id, k)
            elif can_win is None or can_win(fit.profile, k, fit.candidates):
                running.append(fit)
            else:
                skipped += 1
        if tally is not None:
            tally.refined += len(running)
            tally.skipped += skipped
        _refine_all(running, k, config.convergence_tol)
    return [fit.candidates for fit in fits]


def fit_candidates(
    profiles: Sequence[SpeedProfile],
    config: PipelineConfig = PipelineConfig(),
    rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
) -> list:
    """The candidates of every profile, one list each: one candidate per
    breakpoint count, 0..n_b_max.

    Each candidate minimizes the weighted squared error for its breakpoint
    count.  Counts with too few samples or too little room for their
    breakpoints, or whose polished breakpoints lose separation, are dropped
    with a warning; the zero-breakpoint candidate always exists.  Every
    restart of every profile for one breakpoint count is refined in one
    lockstep stack per sample count, so a batch costs a few stacked solves
    per iteration instead of a few per profile; the greedy polish runs per
    profile.  Every count is refined: this is ``fit_events``' search
    without its loss bound.
    """
    return _search(profiles, config, rngs)


def _build_fit(coef, breakpoints, v, w, sse, n) -> PwlFit:
    """The candidate of hinge coefficients (beta0, beta1, gamma_1..k) at
    its breakpoints.  Each knot speed is the value there of the line of the
    piece ending at it (of the first piece, at -5 s), whose slope and
    intercept are running sums of the coefficients."""
    times = (MODEL_T_MIN, *np.asarray(breakpoints, dtype=float).tolist(), MODEL_T_MAX)
    intercept, slope, *gammas = np.asarray(coef, dtype=float).tolist()
    speeds = [slope * times[0] + intercept, slope * times[1] + intercept]
    for gamma, b, t in zip(gammas, times[1:-1], times[2:]):
        slope, intercept = slope + gamma, intercept - gamma * b
        speeds.append(slope * t + intercept)
    r2 = _r_squared(v, w, sse)
    return PwlFit(
        times=times,
        speeds=tuple(speeds),
        r_squared=float(r2),
        r_squared_adj=float(_adjusted(r2, n, len(breakpoints))),
    )


def loss(candidate: PwlFit, profile: SpeedProfile, config: PipelineConfig = PipelineConfig()) -> float:
    """Selection loss: breakpoint penalty minus fit accuracy.

    The penalty per breakpoint grows with max(v)/(max(v) - min(v)), both
    taken from the observed samples, so barely-perceptible speed changes do
    not earn extra segments.  Of the candidate, the loss reads only ``n_b``
    and ``r_squared``, and it does not increase as ``r_squared`` grows:
    ``fit_events`` relies on both to skip the counts that cannot win.
    """
    v = np.asarray(profile.speeds, dtype=float)
    v_max = float(v.max())
    dv = float(v.max() - v.min())
    per_bp = config.epsilon + config.penalty * v_max / (dv + config.epsilon)
    return per_bp * candidate.n_b - candidate.r_squared


def _without_redundant_knots(ts: list, vs: list) -> tuple:
    """The knots without degenerate pieces (under 1e-12 s, such as a
    crossing at an existing knot) and without the interior knot between
    two exactly collinear pieces (such as the zero runs clamping leaves).
    A degenerate piece loses its later knot, or its earlier one when the
    later is the window end."""
    kept_t, kept_v = ts[:1], vs[:1]
    for t, v in zip(ts[1:], vs[1:]):
        if t - kept_t[-1] < 1e-12:
            if t == ts[-1]:
                kept_t[-1], kept_v[-1] = t, v
            continue
        if len(kept_t) > 1:
            before = (kept_v[-1] - kept_v[-2]) / (kept_t[-1] - kept_t[-2])
            if abs((v - kept_v[-1]) / (t - kept_t[-1]) - before) < 1e-12:
                kept_t.pop()
                kept_v.pop()
        kept_t.append(t)
        kept_v.append(v)
    return tuple(kept_t), tuple(kept_v)


def enforce_nonnegative(fit: PwlFit) -> PwlFit:
    """Repair a fit so the predicted speed is non-negative on [-5, 0].

    Negative stretches at either end of the modeling window are replaced by
    zero speed from the crossing point outward; negative interior breakpoint
    values are raised to zero and the neighbouring lines reconnected.
    """
    if all(v >= 0.0 for v in fit.speeds):
        return fit

    ts = list(fit.times)
    vs = list(fit.speeds)

    def _cross(t0, v0, t1, v1):
        return t0 + (t1 - t0) * (0.0 - v0) / (v1 - v0)

    # start side: zero speed up to the first crossing into >= 0
    if vs[0] < 0.0:
        i = 0
        while i + 1 < len(vs) and vs[i + 1] < 0.0:
            i += 1
        if i + 1 == len(vs):  # never recovers; all-zero profile
            ts, vs = [ts[0], ts[-1]], [0.0, 0.0]
        else:
            tc = _cross(ts[i], vs[i], ts[i + 1], vs[i + 1])
            ts = [ts[0], tc] + ts[i + 1 :]
            vs = [0.0, 0.0] + vs[i + 1 :]

    # end side, mirrored; vs[0] >= 0 now, so the scan stops at j >= 1
    if vs[-1] < 0.0:
        j = len(vs) - 1
        while vs[j - 1] < 0.0:
            j -= 1
        tc = _cross(ts[j - 1], vs[j - 1], ts[j], vs[j])
        ts = ts[:j] + [tc, ts[-1]]
        vs = vs[:j] + [0.0, 0.0]

    # interior breakpoints: clamp to zero, lines reconnect implicitly
    vs = [max(v, 0.0) for v in vs]

    ts, vs = _without_redundant_knots(ts, vs)
    return replace(fit, times=ts, speeds=vs, modified_for_nonnegativity=True)


def extract_params(fit: PwlFit, config: PipelineConfig = PipelineConfig()) -> Tuple[float, ...]:
    """Reduce a repaired fit to the six-parameter event description, in
    ``PARAM_NAMES`` order.

    The final segment counts as the steady-speed phase when its |slope| is
    within ``steady_slope_tol``; at most the three (with steady phase) or
    two (without) segments nearest time zero are kept, earlier ones are
    dropped.  Slopes and durations are knot differences.
    """
    slopes = fit.slopes().tolist()
    durations = np.diff(fit.times).tolist()
    tau_s = 0.0
    if abs(slopes[-1]) <= config.steady_slope_tol:
        slopes.pop()
        tau_s = durations.pop()
    a1, tau_1 = (slopes[-1], durations[-1]) if slopes else (0.0, 0.0)
    a2, tau_2 = (slopes[-2], durations[-2]) if len(slopes) >= 2 else (a1, 0.0)
    return float(fit.speeds[-1]), a1, a2, tau_s, tau_1, tau_2


class _Floor(NamedTuple):
    """What ``loss`` reads of a candidate, at the best fit any k-breakpoint
    candidate can have."""

    n_b: int
    r_squared: float = 1.0


def fit_events(
    profiles: Sequence[SpeedProfile],
    config: PipelineConfig = PipelineConfig(),
    rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
) -> list:
    """Full fitting chain for each profile: candidates, selection, repair.

    The chosen candidate has the least ``loss``; a tie goes to the fewer
    breakpoints.  ``rngs`` holds one generator per profile (each
    ``default_rng(0)`` when left out).  A profile's fit depends only on the
    profile and its own generator, never on the others in the list.

    A k-breakpoint candidate has r^2 <= 1, so its loss is at least the
    loss of ``_Floor(k)``.  A count whose floor is above a loss already
    found for the profile cannot win, so it is not refined (the bounding
    step of branch and bound, Land & Doig 1960); the choice is the one
    among all of ``fit_candidates``.  A NaN floor or loss skips nothing.
    """

    def can_win(profile, k, candidates):
        floor = loss(_Floor(k), profile, config)
        return not any(floor > loss(c, profile, config) for c in candidates)

    return [
        enforce_nonnegative(min(candidates, key=lambda c: (loss(c, profile, config), c.n_b)))
        for profile, candidates in zip(profiles, _search(profiles, config, rngs, can_win))
    ]


def fit_event(
    profile: SpeedProfile,
    config: PipelineConfig = PipelineConfig(),
    rng: Optional[np.random.Generator] = None,
) -> PwlFit:
    """Full fitting chain for one profile: ``fit_events`` on a list of one."""
    return fit_events([profile], config, [rng])[0]
