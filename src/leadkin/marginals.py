"""Weighted maximum-likelihood marginal fitting with AIC model selection.

Families with positive support (gamma, generalized gamma, exponential) are
fit through a recorded affine pre-transformation (optional reflection, then
a shift just past the minimum) whenever the data contains non-positive
values; the transformation has unit Jacobian so log-likelihoods stay
comparable across families.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from .errors import AllFitsFailed, InputError, NumericalError
from .jsonio import _checked, _field, _mapping
from .tally import current_tally
from .wstats import effective_sample_size, normalize_to_effective, weighted_mean, weighted_var_mle

log = logging.getLogger(__name__)

SHIFT_MARGIN = 1e-6  # gap kept between the support edge and the data minimum

CONTINUOUS_FAMILIES = ("normal", "skewnormal", "expnormal", "gamma")
HURDLE_FAMILIES = ("gamma", "gengamma", "exponential")

_CLIP_LO = 1e-10  # bounds of the probabilities mapped to normal scores and back
_CLIP_HI = 1.0 - 1e-10
_MIN_EFFECTIVE = 5.0  # fewest effective samples a marginal is fit or a point mass sought on


@dataclass(frozen=True)
class AffinePre:
    """Optional reflection followed by a shift, y = (+-x) - shift."""

    shift: float = 0.0
    reflect: bool = False

    def forward(self, x):
        y = np.negative(x) if self.reflect else np.asarray(x, dtype=float)
        return y - self.shift

    def inverse(self, y):
        x = np.asarray(y, dtype=float) + self.shift
        return np.negative(x) if self.reflect else x


@dataclass(frozen=True)
class FittedDist:
    """A fitted marginal: family, parameters, and the pre-transformation.

    The loglik is computed with weights normalized to the effective sample
    size; NaN for a marginal that was never scored.
    """

    family: str
    params: Dict[str, float]
    affine: AffinePre = field(default_factory=AffinePre)
    loglik: float = float("nan")

    @property
    def k(self) -> int:
        return len(_FAMILIES[self.family].names)

    @property
    def aic(self) -> float:
        """2 k - 2 loglik, with k the family's parameter count."""
        return 2 * self.k - 2 * self.loglik

    def _standard(self, x):
        """The family row, the shapes, loc and scale, and the standard
        variable z = (y - loc) / scale at y = affine.forward(x)."""
        spec = _FAMILIES[self.family]
        shapes, loc, scale = spec.split(self.params)
        return spec, shapes, scale, (self.affine.forward(x) - loc) / scale

    def logpdf(self, x) -> np.ndarray:
        spec, shapes, scale, z = self._standard(x)
        lp = np.where(np.isnan(z), np.nan, -np.inf)
        inside = z >= spec.lower
        lp[inside] = spec.logpdf(z[inside], *shapes) - np.log(scale)
        return lp

    def cdf(self, x) -> np.ndarray:
        spec, shapes, _, z = self._standard(x)
        p = np.where(np.isnan(z), np.nan, np.where(z < np.inf, 0.0, 1.0))
        inside = (z > spec.lower) & (z < np.inf)
        p[inside] = spec.cdf(z[inside], *shapes)
        # y = -x - shift is decreasing in x
        return 1.0 - p if self.affine.reflect else p

    def ppf(self, u) -> np.ndarray:
        """Quantiles at u: loc + scale times the family's standard quantile,
        mapped back through the affine; the support's ends at 0 and 1.
        Parameters outside the family's domain, or a NaN quantile of some
        u in (0, 1) (u itself NaN, or a Newton inverse that did not
        converge), raise ``NumericalError``."""
        spec = _FAMILIES[self.family]
        shapes, loc, scale = spec.split(self.params)
        if not (np.isfinite(list(self.params.values())).all() and spec.admits(self.params)):
            raise NumericalError(f"{self.family} ppf with {dict(self.params)}: invalid parameters")
        u = np.asarray(u, dtype=float)
        flat = (1.0 - u if self.affine.reflect else u).ravel()
        x = np.where(flat == 0.0, spec.lower, np.where(flat == 1.0, np.inf, np.nan))
        inside = (flat > 0.0) & (flat < 1.0)
        x[inside] = spec.ppf(flat[inside], *shapes)
        failed = int(np.isnan(x).sum())
        if failed:
            raise NumericalError(
                f"{self.family} ppf with {dict(self.params)}: "
                f"no finite quantile for {failed} of {flat.size} values (not converged, or NaN)"
            )
        return self.affine.inverse((loc + scale * x).reshape(u.shape))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.ppf(rng.random(n))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": {k: float(v) for k, v in self.params.items()},
            "affine": {"shift": self.affine.shift, "reflect": self.affine.reflect},
            "aic": self.aic,
            "loglik": self.loglik,
        }

    @staticmethod
    def from_json(doc, where: str = "marginal") -> "FittedDist":
        """Decode a ``to_json`` document; a malformed one raises ``InputError``
        naming ``where``, the part of the model at fault.  Its ``aic`` is not
        read, since it follows from ``loglik``."""
        doc = _checked(doc, dict, where)
        family = _field(doc, "family", str, where)
        if family not in _FAMILIES:
            raise InputError(f"{where}: unknown marginal family {family!r}")
        params = _mapping(doc, "params", float, where)
        names = _FAMILIES[family].names
        if sorted(params) != sorted(names):
            raise InputError(f"{where}: {family} marginal has parameters {sorted(params)}, expected {sorted(names)}")
        if not _FAMILIES[family].admits(params):
            raise InputError(f"{where}: {family} marginal parameters {params} are outside the family's domain")
        affine = _field(doc, "affine", dict, where)
        loglik = doc.get("loglik", math.nan)
        if not (isinstance(loglik, float) and math.isnan(loglik)):
            loglik = _checked(loglik, float, f"{where}.loglik")
        return FittedDist(
            family=family,
            params=params,
            affine=AffinePre(
                shift=_field(affine, "shift", float, f"{where}.affine"),
                reflect=_field(affine, "reflect", bool, f"{where}.affine"),
            ),
            loglik=loglik,
        )


# --- standard forms --------------------------------------------------------------
#
# Each family's row in _FAMILIES carries its standard form (loc 0, scale 1):
# the log-density on the support, the cdf inside it and the quantile of each
# q in (0, 1), all on scipy.special; FittedDist applies loc, scale and the
# affine around them.  Every log-density, and the normal, gamma, generalized
# gamma and exponential cdf and quantile, repeat the operations of scipy's
# distributions in their order and give scipy's bits; only the generalized
# gamma's z^c at c = 2, 1/2 or -1, a square, root or reciprocal in numpy,
# may round otherwise than scipy's power.
#
# The expnormal and the skew normal have no closed-form quantile.  Their cdf
# and sf are written below as vectorized sums of two terms, with the pdf
# beside them, and ``_invert`` runs one safeguarded Newton iteration over
# every draw at once.
#
# The standard EMG X = Z + k E (Z standard normal, E standard exponential) has
# cdf Phi(x) - T(x) and sf Phi(-x) + T(x) with the tail term
# T(x) = exp(1/(2 k^2) - x/k) Phi(x - 1/k) and pdf T(x)/k (Grushka 1972).
#
# The standard skew normal of shape a has pdf 2 phi(x) Phi(a x), cdf
# Phi(x) - 2 T(x, a) and sf Phi(-x) + 2 T(x, a), with Owen's T (Azzalini
# 1985).  Since -X is the skew normal of shape -a, a negative shape is
# reflected to a positive one, so T >= 0 and only the cdf can cancel.

_SQRT1_2 = np.sqrt(0.5)
_PPF_STEP_TOL = 4.0 * np.finfo(float).eps
_PPF_MAXITER = 100


def _invert(target: np.ndarray, sign: np.ndarray, lo: np.ndarray, hi: np.ndarray, terms: Callable) -> np.ndarray:
    """x with cdf(x) = target where sign is +1 and sf(x) = target where it is
    -1, each root within [lo, hi]; NaN where the iteration does not converge
    within the cap.

    ``terms(x, sign)`` gives the cdf or sf at x, the sum of the magnitudes of
    the terms it is computed from (its rounding level) and the pdf.  Solving
    log cdf = log target for the lower quantiles and log sf = log target for
    the upper ones keeps the upper tail's precision.  Both are log-concave
    for the families here, so Newton started at the lower end (cdf) or the
    upper end (sf) approaches the root from one side.  A step that leaves the bracket or
    does not halve the step before last bisects instead, which guarantees
    progress once rounding dominates.  The iteration stops when a step is
    within 4 eps of max(1, |x|) plus the rounding level of the evaluated
    probability.
    """
    x = np.where(sign < 0, hi, lo)
    step = older = hi - lo
    out = np.full_like(target, np.nan)
    idx = np.arange(target.size)
    with np.errstate(all="ignore"):  # non-finite steps bisect; NaN never converges
        for _ in range(_PPF_MAXITER):
            prob, magnitude, pdf = terms(x, sign)
            # increasing in x, root at 0; a cdf cancelled to <= 0 reads as -inf
            g = sign * np.log(np.maximum(prob, 0.0) / target)
            lo = np.where(g < 0, x, lo)
            hi = np.where(g > 0, x, hi)
            newton = g * prob / pdf
            x_new = x - newton
            ok = (x_new >= lo) & (x_new <= hi) & (np.abs(newton) <= 0.5 * older)
            x_new = np.where(ok, x_new, 0.5 * (lo + hi))
            older, step = step, np.abs(x_new - x)
            rounding = np.where(pdf > 0, magnitude / pdf, 0.0)
            done = step <= _PPF_STEP_TOL * (np.maximum(1.0, np.abs(x_new)) + rounding)
            out[idx[done]] = x_new[done]
            keep = ~done
            if not keep.any():
                break
            idx, x, lo, hi, step, older, sign, target = (
                v[keep] for v in (idx, x_new, lo, hi, step, older, sign, target)
            )
    return out


_SERIES_K = 10.0  # k from which the near cdf's erfcx difference takes a Taylor series
_SERIES_TERMS = 16


def _erfcx_drop(u, e, h):
    """erfcx(u) - erfcx(u + h) for e = erfcx(u), from the Taylor series at u
    to the 16th power of h.  The derivatives follow E' = 2 u E - 2/sqrt(pi)
    and E^(n) = 2 u E^(n-1) + 2 (n - 1) E^(n-2).  For h <= 0.071 (k >= 10)
    the last term is below 1e-16 of the sum from u = -3.7, the end of the
    near range, up to u = 27, past which exp(-x^2/2) underflows."""
    prev, cur = e, 2.0 * u * e - 2.0 / np.sqrt(np.pi)
    power = h
    drop = -cur * h
    for n in range(2, _SERIES_TERMS + 1):
        prev, cur = cur, 2.0 * u * cur + 2.0 * (n - 1) * prev
        power = power * h / n
        drop = drop - cur * power
    return drop


def _expnormal_terms(x, k, sign):
    """Standard EMG cdf (sign +1) or sf (sign -1) at x, the sum of the
    magnitudes of its two terms Phi(sign x) and T(x), and the pdf.

    While x - 1/k <= 5 both terms are written as exp(-x^2/2)/2 times an
    erfcx, and the common factor is applied after their difference, so the
    lower-tail cancellation only sees erfcx's own rounding (the log_ndtr
    form of T loses up to 7e-7 relative at k = 1e-5).  From k = 10 on the
    two erfcx of the cdf lie within 1/(k sqrt 2) of each other and that
    rounding grows as k (1e-11 relative at k = 1e4), so their difference
    takes its Taylor series.  Beyond x - 1/k = 5, erfcx(-(x - 1/k)/sqrt 2)
    overflows and T takes the log form; the cdf is then written
    -expm1(log T) - Phi(-x), which takes 1 - T without cancelling.
    """
    d = x - 1.0 / k
    factor, a, b = np.ones_like(x), np.empty_like(x), np.empty_like(x)
    near = d <= 5.0
    factor[near] = 0.5 * np.exp(-0.5 * np.square(x[near]))
    a[near] = special.erfcx(-sign[near] * x[near] * _SQRT1_2)
    b[near] = special.erfcx(-d[near] * _SQRT1_2)
    far = ~near
    a[far] = special.ndtr(sign[far] * x[far])
    log_t = special.log_ndtr(d[far]) - (d[far] + 0.5 / k) / k
    b[far] = np.exp(log_t)
    diff = a - sign * b
    cdf = sign > 0
    far_cdf = far & cdf
    diff[far_cdf] = -special.expm1(log_t[far_cdf[far]]) - special.ndtr(-x[far_cdf])
    if k >= _SERIES_K:
        series = near & cdf
        diff[series] = _erfcx_drop(-x[series] * _SQRT1_2, a[series], _SQRT1_2 / k)
    return factor * diff, factor * (a + b), factor * b / k


def _standard_expnormal_ppf(q: np.ndarray, k: float) -> np.ndarray:
    """x with P(Z + k E <= x) = q for each q in (0, 1); NaN where the
    iteration does not converge.  The bracket
    [Phi^-1(q), Phi^-1(sqrt q) - k log(1 - sqrt q)] holds the root: X >= Z,
    and both Z <= Phi^-1(sqrt q) and E <= -log(1 - sqrt q) hold with
    probability q."""
    upper = q > 0.5
    s = (1.0 - q) / (1.0 + np.sqrt(q))  # 1 - sqrt(q) without cancellation
    lo = special.ndtri(q)
    hi = -special.ndtri(s) - k * np.log(s)
    return _invert(np.where(upper, 1.0 - q, q), np.where(upper, -1.0, 1.0), lo, hi,
                   lambda x, sign: _expnormal_terms(x, k, sign))


def _standard_expnormal_logpdf(z, k):
    inv_k = 1.0 / k
    return inv_k * (0.5 * inv_k - z) + special.log_ndtr(z - inv_k) - np.log(k)


def _standard_expnormal_cdf(z, k):
    """The standard EMG cdf at z, its upper half 1 - sf as the quantile
    solves it: far above the mode at small k the cdf form's erfcx overflows
    where its factor underflows."""
    ones = np.ones_like(z)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN where the sf takes over
        p = _expnormal_terms(z, k, ones)[0]
    upper = ~(p <= 0.5)  # also where the cdf form is NaN
    p[upper] = 1.0 - _expnormal_terms(z[upper], k, -ones[upper])[0]
    return p


# Below zero, the cdf Phi(x) - 2 T(x, a) of a skew normal of shape a > 0
# cancels more as a |x| grows: at a = 100 and a x = -3 it is 6e-6 of Phi(x).
# From a |x| >= 3 on, t^2 = a^2 + 2 v / x^2 turns the same cdf written as
# (1/pi) int_a^inf exp(-x^2 (1 + t^2) / 2) / (1 + t^2) dt, whose integrand
# is positive, into
#
#     exp(-x^2 / 2 - D) / (2 pi a D) int_0^inf exp(-v) dv
#         / (sqrt(1 + v / D) (1 + 1 / a^2 + v / D)),     D = (a x)^2 / 2,
#
# and the integral takes a 24-point Gauss-Laguerre rule, accurate to 2e-14
# relative from D = 4.5 up.  Below that the difference loses up to 1.3e-11
# relative for a <= 100, the shape's fit bound (at a x = -2.87, the worst of
# 500 points of a scan against 50-digit mpmath).
_THIN_AX = 3.0


@functools.cache
def _laguerre_rule() -> Tuple[np.ndarray, np.ndarray]:
    """The 24-point Gauss-Laguerre nodes and weights, made on first use: an
    eigenvalue solve at import would load LAPACK pages every run keeps."""
    return np.polynomial.laguerre.laggauss(24)


def _skewnormal_terms(x, a, sign):
    """Standard skew-normal cdf (sign +1) or sf (sign -1) at x for a shape
    a >= 0, the sum of the magnitudes of its terms, and the pdf."""
    t = 2.0 * special.owens_t(x, a)
    phi = special.ndtr(sign * x)
    prob, magnitude = phi - sign * t, phi + t
    thin = (sign > 0) & (a * x <= -_THIN_AX)
    if thin.any():
        xt = x[thin]
        d = 0.5 * np.square(a * xt)
        nodes, weights = _laguerre_rule()
        ratio = nodes / d[:, None]
        integral = (weights / (np.sqrt(1.0 + ratio) * (1.0 + 1.0 / a**2 + ratio))).sum(axis=1)
        prob[thin] = magnitude[thin] = np.exp(-0.5 * np.square(xt) - d) / (2.0 * np.pi * a * d) * integral
    pdf = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * np.square(x)) * special.ndtr(a * x)
    return prob, magnitude, pdf


def _standard_skewnormal_ppf(q: np.ndarray, a: float) -> np.ndarray:
    """x with P(X <= x) = q for the standard skew normal of shape a, each q
    in (0, 1); NaN where the iteration does not converge.

    Solved for the shape b = |a| (reflecting q when a < 0), whose cdf at 0 is
    arctan(1/b)/pi.  A root at or below 0 is solved on the cdf, in
    [max(Phi^-1(q), Phi^-1(q/2)/max(b, 1)), 0]; one above it on the sf, in
    [max(0, Phi^-1(q)), Phi^-1((1 + q)/2)].  The bounds hold because T >= 0
    bounds the cdf by Phi(x), the half-normal cdf 2 Phi(x) - 1 of b -> inf
    bounds it from below, and below 0 the cdf is at most 2 Phi(x) Phi(b x).
    """
    b = abs(a)
    below, above = (1.0 - q, q) if a < 0 else (q, 1.0 - q)  # cdf and sf at the root
    left = below <= np.arctan2(1.0, b) / np.pi
    lo = np.where(left, np.maximum(special.ndtri(below), special.ndtri(0.5 * below) / max(b, 1.0)),
                  np.maximum(0.0, -special.ndtri(above)))
    hi = np.where(left, 0.0, -special.ndtri_exp(np.log(above) - np.log(2.0)))  # above / 2 may underflow
    x = _invert(np.where(left, below, above), np.where(left, 1.0, -1.0), lo, hi,
                lambda x, sign: _skewnormal_terms(x, b, sign))
    return -x if a < 0 else x


def _standard_skewnormal_logpdf(z, a):
    if a == 0:
        return _norm_logpdf(z)
    return np.log(2.0) + _norm_logpdf(z) + special.log_ndtr(a * z)


def _standard_skewnormal_cdf(z, a):
    """The standard skew-normal cdf at z; for a < 0 the sf of -z at |a|."""
    sign = np.full_like(z, 1.0 if a >= 0 else -1.0)
    return _skewnormal_terms(sign * z, abs(a), sign)[0]


# The generalized gamma's cdf and quantile are the gamma's at z^c: the lower
# regularized incomplete gamma function for c > 0, the upper one for c < 0,
# where z^c decreases in z.


def _standard_gengamma_logpdf(z, a, c):
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 with c < 0, replaced below
        lp = np.log(abs(c)) + special.xlogy(c * a - 1, z) - z**c - special.gammaln(a)
    return lp if c > 0 else np.where(z != 0, lp, -np.inf)


def _standard_gengamma_cdf(z, a, c):
    return (special.gammainc if c > 0 else special.gammaincc)(a, z**c)


def _standard_gengamma_ppf(q, a, c):
    return (special.gammaincinv if c > 0 else special.gammainccinv)(a, q) ** (1.0 / c)


# --- Nelder-Mead ---------------------------------------------------------------
#
# _nelder_mead repeats scipy 1.17's non-adaptive algorithm (Nelder & Mead
# 1965) step for step: the same initial simplex, coefficients, centroid
# summation order, vertex order and stop rule, so every run ends on the same
# bits as scipy.optimize.minimize.  It runs a batch of minimizations in
# lockstep and scores each step's trial points of every run in one call, so
# a model's runs cost one loop of array operations, not one Python call per
# evaluation.  The tests use scipy itself as the oracle.

_NM_MAXITER = 400
_NM_XATOL = 1e-6
_NM_FATOL = 1e-9
_NM_NONZDELT = 0.05  # initial simplex: grow each coordinate by 5%,
_NM_ZDELT = 0.00025  # or set it to this where it is 0
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5  # reflection, expansion, contraction, shrink


class _Simplex(NamedTuple):
    x: np.ndarray  # best vertex
    fun: float
    nfev: int
    nit: int


def _ordered(sim, fsim):
    """Each run's vertices (runs, m, n) and values (runs, m) sorted by value,
    in np.argsort's order: its order of ties (the 1e12 infeasible plateau)
    and NaN differs from a stable sort on hosts with a SIMD sort."""
    order = np.argsort(fsim, axis=1)
    runs = np.arange(len(fsim))[:, None]
    return sim[runs, order], fsim[runs, order]


def _nelder_mead(evaluate, x0) -> List[_Simplex]:
    """Minimize from every row of x0 (runs, n) exactly as scipy's Nelder-Mead
    does with maxiter 400, xatol 1e-6, fatol 1e-9 and no evaluation cap.

    ``evaluate(rows, points)`` gives the objective (len(rows), q) at points
    (len(rows), q, n) of the runs ``rows``, an increasing index array.  The
    runs take their steps together; a finished run leaves the batch.
    """
    x0 = np.asarray(x0, dtype=float)
    size, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    axis = np.arange(n)
    sim[:, axis + 1, axis] = np.where(x0 != 0, (1 + _NM_NONZDELT) * x0, _NM_ZDELT)
    rows = np.arange(size)
    fsim = evaluate(rows, sim)
    nfev = np.full(size, n + 1)
    # scipy sorts twice before the first step, and the second sort can move ties
    sim, fsim = _ordered(*_ordered(sim, fsim))
    out: List[_Simplex] = [None] * size
    nit = 1
    while True:
        converged = (np.abs(sim[:, 1:] - sim[:, :1]) <= _NM_XATOL).all(axis=(1, 2)) & (
            np.abs(fsim[:, :1] - fsim[:, 1:]) <= _NM_FATOL
        ).all(axis=1)
        done = converged | (nit >= _NM_MAXITER)
        for i in np.flatnonzero(done):
            out[rows[i]] = _Simplex(sim[i, 0].copy(), float(np.min(fsim[i])), int(nfev[i]), nit)
        if done.all():
            return out
        if done.any():
            rows, sim, fsim, nfev = (v[~done] for v in (rows, sim, fsim, nfev))

        # centroid summed vertex by vertex, ((r0 + r1) + r2) / n, as np.add.reduce does
        xbar = sim[:, 0]
        for j in range(1, n):
            xbar = xbar + sim[:, j]
        xbar = xbar / n
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = evaluate(rows, xr[:, None, :])[:, 0]
        expand = fxr < fsim[:, 0]
        reflect = ~expand & (fxr < fsim[:, -2])
        outside = ~(expand | reflect) & (fxr < fsim[:, -1])
        inside = ~(expand | reflect | outside)  # also where fxr is NaN
        # the expansion, outside-contraction or inside-contraction point
        xt = np.where(
            expand[:, None],
            (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
            np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst, (1 - _PSI) * xbar + _PSI * worst),
        )
        fxt = np.full_like(fxr, np.nan)
        trial = np.flatnonzero(~reflect)
        fxt[trial] = evaluate(rows[trial], xt[trial, None, :])[:, 0]
        take_t = (expand & (fxt < fxr)) | (outside & (fxt <= fxr)) | (inside & (fxt < fsim[:, -1]))
        take_r = reflect | (expand & ~take_t)
        shrink = np.flatnonzero((outside | inside) & ~take_t)
        sim[take_r, -1], fsim[take_r, -1] = xr[take_r], fxr[take_r]
        sim[take_t, -1], fsim[take_t, -1] = xt[take_t], fxt[take_t]
        nfev += 1 + ~reflect
        if shrink.size:
            best = sim[shrink, :1]
            sim[shrink, 1:] = best + _SIGMA * (sim[shrink, 1:] - best)
            fsim[shrink, 1:] = evaluate(rows[shrink], sim[shrink, 1:])
            nfev[shrink] += n
        nit += 1
        sim, fsim = _ordered(sim, fsim)


# --- weighted MLE per family -------------------------------------------------
#
# A family fit by Nelder-Mead gives its starts, the map from its search
# coordinates to its parameters, and a vectorized log-density: parameter
# columns (rows, q, 1) against data rows (rows, 1, L).  A point with a
# parameter beyond the family's limit, or a non-finite log-density, scores
# 1e12.

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_INFEASIBLE = 1e12
_NUMERICAL = (ArithmeticError, np.linalg.LinAlgError, NumericalError)


def _moments(y: np.ndarray, w: np.ndarray) -> Tuple[float, float]:
    return weighted_mean(y, w), max(weighted_var_mle(y, w), 1e-12)


def _norm_logpdf(z):
    return -0.5 * np.square(z) - _LOG_SQRT_2PI


def _columns(theta):
    """The columns (rows, q, 1) of points theta (rows, q, d)."""
    return theta[..., None].transpose(2, 0, 1, 3)


def _exp_at(*axes):
    """The parameters of search coordinates theta (..., d) whose ``axes``
    are logarithms of them."""

    logs = list(axes)

    def natural(theta):
        params = np.array(theta, dtype=float)
        params[..., logs] = np.exp(theta[..., logs])
        return params

    return natural


def _normal(y, w):
    mean, var = _moments(y, w)
    return {"loc": mean, "scale": float(np.sqrt(var))}


def _exponential(y, w):
    mean = weighted_mean(y, w)
    if mean <= 0:
        return None
    return {"scale": mean}


def _gamma_start(y, w):
    """Moment estimates of shape and scale, and the mean; None off (0, inf)."""
    if (y <= 0).any():
        return None
    mean, var = _moments(y, w)
    return max(mean * mean / var, 1e-3), max(var / mean, 1e-9), mean


def _gamma_starts(y, w):
    start = _gamma_start(y, w)
    if start is None:
        return None
    shape0, scale0, mean = start
    return [np.log([shape0, scale0]), np.log([1.0, mean])]


def _gamma_logpdf(theta, params, y, log_y):
    shape, scale = _columns(params)
    return (shape - 1.0) * log_y - y / scale - special.gammaln(shape) - shape * np.log(scale)


def _gengamma_starts(y, w):
    start = _gamma_start(y, w)
    if start is None:
        return None
    shape0, scale0, _ = start
    return [np.log([shape0, c, scale0]) for c in (1.0, 0.6, 1.8)]


def _gengamma_logpdf(theta, params, y, log_y):
    a, c, scale = _columns(params)
    log_t = log_y - np.log(scale)
    return (
        np.log(c)
        + (c * a - 1.0) * log_t
        - np.exp(np.clip(c * log_t, -700, 700))
        - special.gammaln(a)
        - np.log(scale)
    )


def _mean_sd(y, w) -> Tuple[float, float]:
    """The weighted mean and SD, at least 1e-6 by ``_moments``' floor."""
    mean, var = _moments(y, w)
    return mean, float(np.sqrt(var))


def _skewnormal_starts(y, w):
    mean, sd = _mean_sd(y, w)
    return [
        np.array([0.0, mean, np.log(sd)]),
        np.array([2.0, mean - sd, np.log(sd)]),
        np.array([-2.0, mean + sd, np.log(sd)]),
    ]


def _skewnormal_logpdf(theta, params, y):
    a, loc, scale = _columns(params)
    z = (y - loc) / scale
    return np.log(2.0) + _norm_logpdf(z) + special.log_ndtr(a * z) - theta[..., 2:]


def _expnormal_starts(y, w):
    mean, sd = _mean_sd(y, w)
    return [
        np.array([np.log(0.05), mean, np.log(sd)]),
        np.array([np.log(1.0), mean - 0.7 * sd, np.log(0.7 * sd)]),
        np.array([np.log(3.0), mean - sd, np.log(0.4 * sd)]),
    ]


def _expnormal_logpdf(theta, params, y):
    k, loc, scale = _columns(params)
    z = (y - loc) / scale
    inv_k = 1.0 / k
    return -theta[..., :1] + 0.5 * inv_k * inv_k - z * inv_k + special.log_ndtr(z - inv_k) - theta[..., 2:]


_MAX = sys.float_info.max  # a parameter limit that only excludes inf and NaN


class _Family(NamedTuple):
    names: Tuple[str, ...]  # shape parameters first, then loc (if free) and scale
    positive: bool  # support is (0, inf): fit through an AffinePre on signed data
    # the standard form (loc 0, scale 1): the rule the shapes must meet, and
    # the log-density on the support, the cdf inside it and the quantile of
    # q in (0, 1), each a function of z or q followed by the shapes
    domain: Callable
    logpdf: Callable
    cdf: Callable
    ppf: Callable
    # (y, w) -> the parameters in closed form (a dict) or the Nelder-Mead
    # starts (a list); None when the family cannot fit
    start: Callable
    # Nelder-Mead only: the search coordinates theta (..., d) -> the
    # parameters in ``names`` order; the largest |parameter| of a feasible
    # point; and (theta, parameters, y[, log y]) -> the log-densities
    natural: Optional[Callable] = None
    limits: Tuple[float, ...] = ()
    search_logpdf: Optional[Callable] = None

    @property
    def lower(self) -> float:
        """The lower end of the standard support."""
        return 0.0 if self.positive else -np.inf

    def split(self, params: Mapping[str, float]) -> Tuple[list, float, float]:
        """The shapes in ``names`` order, loc (0 when not free) and scale."""
        shapes = [params[n] for n in self.names if n not in ("loc", "scale")]
        return shapes, params.get("loc", 0.0), params["scale"]

    def admits(self, params: Mapping[str, float]) -> bool:
        """scale > 0 and the shapes within the family's domain."""
        shapes, _, scale = self.split(params)
        return scale > 0 and bool(self.domain(*shapes))


_FAMILIES = {
    "normal": _Family(("loc", "scale"), False, lambda: True,
                      _norm_logpdf, special.ndtr, special.ndtri, _normal),
    "skewnormal": _Family(("a", "loc", "scale"), False, math.isfinite,
                          _standard_skewnormal_logpdf, _standard_skewnormal_cdf, _standard_skewnormal_ppf,
                          _skewnormal_starts, _exp_at(2), (100, _MAX, _MAX), _skewnormal_logpdf),
    "expnormal": _Family(("k", "loc", "scale"), False, lambda k: k > 0,
                         _standard_expnormal_logpdf, _standard_expnormal_cdf, _standard_expnormal_ppf,
                         _expnormal_starts, _exp_at(0, 2), (1e4, _MAX, _MAX), _expnormal_logpdf),
    "gamma": _Family(("shape", "scale"), True, lambda a: a > 0,
                     lambda z, a: special.xlogy(a - 1.0, z) - z - special.gammaln(a),
                     lambda z, a: special.gammainc(a, z), lambda q, a: special.gammaincinv(a, q),
                     _gamma_starts, np.exp, (1e6, _MAX), _gamma_logpdf),
    "gengamma": _Family(("a", "c", "scale"), True, lambda a, c: a > 0 and c != 0,
                        _standard_gengamma_logpdf, _standard_gengamma_cdf, _standard_gengamma_ppf,
                        _gengamma_starts, np.exp, (1e6, 50, _MAX), _gengamma_logpdf),
    "exponential": _Family(("scale",), True, lambda: True,
                           np.negative, lambda z: -special.expm1(-z), lambda q: -special.log1p(-q), _exponential),
}


def _likelihood(runs):
    """``evaluate`` for _nelder_mead over runs (family, y, w, x0) sorted by
    family and sample size.

    Each family scores its rows in one call, padded to its longest sample.
    Each run's weighted sum is np.vecdot over a block of rows of its own
    length, which sums as np.dot does; the padding never enters a dot,
    where it would change the blocking and so the rounding.
    """
    keys = [(run[0], run[1].size) for run in runs]
    firsts = [i for i in range(len(runs)) if i == 0 or keys[i] != keys[i - 1]]
    bounds = np.array(firsts + [len(runs)])  # block b holds rows bounds[b]:bounds[b + 1]
    families = []
    for family, blocks in itertools.groupby(range(len(firsts)), key=lambda b: keys[firsts[b]][0]):
        blocks = list(blocks)
        rows = runs[bounds[blocks[0]]:bounds[blocks[-1] + 1]]
        spec = _FAMILIES[family]
        y = np.ones((len(rows), 1, rows[-1][1].size))
        w = np.zeros_like(y)
        padding = np.ones(y.shape, dtype=bool)
        for i, (_, yi, wi, _) in enumerate(rows):
            y[i, 0, : yi.size], w[i, 0, : wi.size], padding[i, 0, : yi.size] = yi, wi, False
        data = (y, np.log(y)) if spec.positive else (y,)
        families.append((spec, np.array(spec.limits), blocks[0], blocks[-1] + 1, data, w, padding))

    def evaluate(rows, points):
        values = np.empty(points.shape[:2])
        cut = np.searchsorted(rows, bounds)
        with np.errstate(all="ignore"):  # infeasible points may overflow; they are masked
            for spec, limits, b0, b1, data, w, padding in families:
                lo, hi = cut[b0], cut[b1]
                if lo == hi:
                    continue
                block = rows[lo:hi] - bounds[b0]
                theta = points[lo:hi]
                params = spec.natural(theta)
                lp = spec.search_logpdf(theta, params, *(d[block] for d in data))
                feasible = (np.abs(params) <= limits).all(axis=-1) & (np.isfinite(lp) | padding[block]).all(axis=-1)
                w_rows = w[block]
                dots = np.empty(theta.shape[:2])
                for b in range(b0, b1):
                    i, j, size = cut[b] - lo, cut[b + 1] - lo, keys[bounds[b]][1]
                    if i < j:
                        dots[i:j] = np.vecdot(w_rows[i:j, :, :size], lp[i:j, :, :size])
                values[lo:hi] = np.where(feasible, -dots, _INFEASIBLE)
        return values

    return evaluate


def _minimize(runs) -> List[_Simplex]:
    """Nelder-Mead for each run (family, y, w, x0) on the family's weighted
    negative log-likelihood: one lockstep batch per dimension, its rows sorted
    by family and sample size."""
    out: List[_Simplex] = [None] * len(runs)
    order = sorted(range(len(runs)), key=lambda i: (runs[i][3].size, runs[i][0], runs[i][1].size))
    for _, batch in itertools.groupby(order, key=lambda i: runs[i][3].size):
        batch = list(batch)
        sorted_runs = [runs[i] for i in batch]
        results = _nelder_mead(_likelihood(sorted_runs), np.array([run[3] for run in sorted_runs]))
        for i, res in zip(batch, results):
            out[i] = res
    tally = current_tally()
    tally.nm_runs += len(runs)
    tally.nm_nfev += sum(res.nfev for res in out)
    return out


def _affine_for(values: np.ndarray, weights: np.ndarray) -> AffinePre:
    """Pre-transformation for positive-support families on signed data."""
    reflect = weighted_mean(values, weights) < 0
    y = -values if reflect else values
    shift = 0.0
    if y.min() <= 0:
        shift = float(y.min() - SHIFT_MARGIN)
    return AffinePre(shift=shift, reflect=reflect)


class _Job(NamedTuple):
    """One family's weighted MLE on one sample, up to its Nelder-Mead runs."""

    family: str
    x: np.ndarray  # the sample
    w: np.ndarray  # its weights, normalized to the effective sample size
    affine: AffinePre
    y: np.ndarray  # the sample the family sees, affine.forward(x)
    start: object  # the family's start(y, w)


def _job(family: str, x: np.ndarray, weights) -> _Job:
    spec = _FAMILIES[family]
    w = normalize_to_effective(weights)
    affine = _affine_for(x, w) if spec.positive and x.min() <= 0 else AffinePre()
    y = affine.forward(x)
    return _Job(family, x, w, affine, y, spec.start(y, w))


def _scored(job: _Job, results: Sequence[_Simplex]) -> Optional[FittedDist]:
    """The job's fit from its closed form or its best finite Nelder-Mead
    result, with its log-likelihood; None when there is none."""
    spec = _FAMILIES[job.family]
    params = job.start
    if isinstance(params, list):
        best = None
        for res in results:
            if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
        params = None if best is None else dict(zip(spec.names, map(float, spec.natural(best.x))))
    if params is None:
        return None
    fitted = FittedDist(family=job.family, params=params, affine=job.affine)
    lp = fitted.logpdf(job.x)
    if not np.isfinite(lp).all():
        return None
    return replace(fitted, loglik=float(np.dot(job.w, lp)))


def _fit_families(tasks: Sequence[Tuple[str, np.ndarray, np.ndarray]]) -> list:
    """The weighted MLE of each (family, values, weights): a FittedDist, None
    when the family cannot fit, or the numerical error that stopped it.  All
    the Nelder-Mead runs go into one batch; any other error propagates."""
    jobs = []
    for family, x, weights in tasks:
        try:
            jobs.append(_job(family, x, weights))
        except _NUMERICAL as exc:
            jobs.append(exc)
    searched = [job for job in jobs if isinstance(job, _Job) and isinstance(job.start, list)]
    results = iter(_minimize([(job.family, job.y, job.w, x0) for job in searched for x0 in job.start]))
    outcomes = []
    for job in jobs:
        if isinstance(job, _Job):
            runs = [next(results) for _ in job.start] if isinstance(job.start, list) else []
            try:
                job = _scored(job, runs)
            except _NUMERICAL as exc:
                job = exc
        outcomes.append(job)
    return outcomes


def fit_family(family: str, values, weights) -> Optional[FittedDist]:
    """Weighted MLE for one family; None when the family cannot fit."""
    [outcome] = _fit_families([(family, np.asarray(values, dtype=float), weights)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class FitRequest(NamedTuple):
    """A univariate fit: the lowest-AIC family of ``families`` for
    ``values``, with unit weights when ``weights`` is None."""

    values: object
    weights: object = None
    families: Sequence[str] = CONTINUOUS_FAMILIES


def _checked_sample(request: FitRequest):
    """The request's values and weights as arrays, or the AllFitsFailed that
    rules the sample out."""
    x = np.asarray(request.values, dtype=float)
    w = np.ones_like(x) if request.weights is None else np.asarray(request.weights, dtype=float)
    if effective_sample_size(w) < _MIN_EFFECTIVE:
        return AllFitsFailed(f"need at least {_MIN_EFFECTIVE:g} effective samples")
    if not np.isfinite(x).all():
        return AllFitsFailed("values must be finite")
    if weighted_var_mle(x, w) <= 0.0:
        return AllFitsFailed("zero variance: data is constant")
    return x, w


def fit_many(requests: Sequence[FitRequest]) -> list:
    """What fit_univariate gives for each request, with the Nelder-Mead runs
    of them all in one batch: the chosen FittedDist, or the AllFitsFailed
    that fit_univariate would raise."""
    tally = current_tally()
    samples = [_checked_sample(request) for request in requests]
    tasks = []
    for request, sample in zip(requests, samples):
        if isinstance(sample, tuple):
            tally.univariate_fits += 1
            tasks.extend((family, *sample) for family in request.families)
    outcomes = iter(_fit_families(tasks))
    chosen = []
    for request, sample in zip(requests, samples):
        if not isinstance(sample, tuple):
            chosen.append(sample)
            continue
        fits = []
        failed = 0
        for family in request.families:
            fitted = next(outcomes)
            if isinstance(fitted, Exception):
                # a numerical blow-up counts as a failed family; anything else is a bug
                log.debug("family %s failed", family, exc_info=fitted)
                failed += 1
                fitted = None
            if fitted is not None and np.isfinite(fitted.aic):
                fits.append(fitted)
            else:
                tally.failed[family] += 1
        if failed:
            log.info("%d of %d families failed with a numerical error", failed, len(request.families))
        if fits:
            chosen.append(min(fits, key=lambda f: f.aic))
        else:
            chosen.append(AllFitsFailed(f"no family among {request.families} produced a finite fit"))
    return chosen


def fit_univariate(
    values,
    weights=None,
    families: Sequence[str] = CONTINUOUS_FAMILIES,
) -> FittedDist:
    """Fit every candidate family and keep the lowest-AIC one."""
    [outcome] = fit_many([FitRequest(values, weights, families)])
    if isinstance(outcome, AllFitsFailed):
        raise outcome
    return outcome


def quantile_normalize(values, dist: FittedDist) -> np.ndarray:
    """Map data through the fitted CDF onto the standard normal scale."""
    u = np.clip(dist.cdf(values), _CLIP_LO, _CLIP_HI)
    return special.ndtri(u)

