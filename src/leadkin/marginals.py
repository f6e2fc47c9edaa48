"""Weighted maximum-likelihood marginal fitting with AIC model selection.

Families with positive support (gamma, generalized gamma, exponential) are
fit through a recorded affine pre-transformation (optional reflection, then
a shift just past the minimum) whenever the data contains non-positive
values; the transformation has unit Jacobian so log-likelihoods stay
comparable across families.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import special, stats

from .errors import AllFitsFailed, InputError, NumericalError
from .wstats import effective_sample_size, normalize_to_effective, weighted_var_mle

log = logging.getLogger(__name__)

SHIFT_MARGIN = 1e-6  # gap kept between the support edge and the data minimum

CONTINUOUS_FAMILIES = ("normal", "skewnormal", "expnormal", "gamma")
HURDLE_FAMILIES = ("gamma", "gengamma", "exponential")

_CLIP_LO = 1e-10
_CLIP_HI = 1.0 - 1e-10


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

    aic = 2 k - 2 loglik with k the family's parameter count; the loglik is
    computed with weights normalized to the effective sample size.
    """

    family: str
    params: Dict[str, float]
    affine: AffinePre = field(default_factory=AffinePre)
    aic: float = float("nan")
    loglik: float = float("nan")

    @property
    def k(self) -> int:
        return len(_FAMILIES[self.family].names)

    def _dist(self):
        return _FAMILIES[self.family].freeze(self.params)

    def logpdf(self, x) -> np.ndarray:
        return self._dist().logpdf(self.affine.forward(x))

    def cdf(self, x) -> np.ndarray:
        y = self.affine.forward(x)
        if self.affine.reflect:
            # y = -x - shift is decreasing in x
            return 1.0 - self._dist().cdf(y)
        return self._dist().cdf(y)

    def ppf(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        q = 1.0 - u if self.affine.reflect else u
        if self.family == "expnormal":
            y = _expnormal_ppf(q, **self.params)
        else:
            y = self._dist().ppf(q)
        return self.affine.inverse(y)

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
        naming ``where``, the part of the model at fault."""
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
        scores = {}
        for key in ("aic", "loglik"):  # NaN for a marginal that was never scored
            value = doc.get(key, math.nan)
            nan = isinstance(value, float) and math.isnan(value)
            scores[key] = value if nan else _checked(value, float, f"{where}.{key}")
        return FittedDist(
            family=family,
            params=params,
            affine=AffinePre(
                shift=_field(affine, "shift", float, f"{where}.affine"),
                reflect=_field(affine, "reflect", bool, f"{where}.affine"),
            ),
            **scores,
        )


# --- checked reading of JSON documents ------------------------------------------

_REQUIRED = object()
_KIND_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
               float: "a finite number"}


def _checked(value, kind: type, where: str):
    """``value`` if it is JSON of ``kind``, else ``InputError``; a ``float``
    is any finite number, returned as a float."""
    if kind is not float and isinstance(value, kind):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and abs(value) <= sys.float_info.max:  # False for NaN and inf
        return float(value)
    raise InputError(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r:.60}")


def _field(doc: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """``doc[key]`` checked by ``_checked``; ``default`` when the key is
    absent and a default is given."""
    if key not in doc:
        if default is _REQUIRED:
            raise InputError(f"{where}: missing key {key!r}")
        return default
    return _checked(doc[key], kind, f"{where}.{key}")


def _mapping(doc: dict, key: str, kind: type, where: str, default=_REQUIRED) -> dict:
    """The object ``doc[key]`` with every value checked to be of ``kind``."""
    entries = _field(doc, key, dict, where, default)
    return {k: _checked(v, kind, f"{where}.{key}.{k}") for k, v in entries.items()}


# --- expnormal inverse CDF ---------------------------------------------------
#
# scipy's exponnorm has no closed-form ppf and runs one scalar brentq per
# draw.  The standard EMG X = Z + k E (Z standard normal, E standard
# exponential) has cdf Phi(x) - T(x) and sf Phi(-x) + T(x) with the tail term
# T(x) = exp(1/(2 k^2) - x/k) Phi(x - 1/k) and pdf T(x)/k (Grushka 1972), so
# the inverse below is a vectorized safeguarded Newton iteration on them.

_SQRT1_2 = np.sqrt(0.5)
_PPF_STEP_TOL = 4.0 * np.finfo(float).eps
_PPF_MAXITER = 100


def _expnormal_terms(x, k, sign):
    """Standard EMG cdf (sign +1) or sf (sign -1) at x, the sum of the
    magnitudes of its two terms Phi(sign x) and T(x), and the pdf.

    While x - 1/k <= 5 both terms are written as exp(-x^2/2)/2 times an
    erfcx, and the common factor is applied after their difference, so the
    lower-tail cancellation at large k only sees erfcx's own rounding (the
    log_ndtr form of T loses up to 7e-7 relative at k = 1e-5).  Beyond that
    erfcx(-(x - 1/k)/sqrt 2) overflows and T takes the log form.
    """
    d = x - 1.0 / k
    factor, a, b = np.ones_like(x), np.empty_like(x), np.empty_like(x)
    near = d <= 5.0
    factor[near] = 0.5 * np.exp(-0.5 * np.square(x[near]))
    a[near] = special.erfcx(-sign[near] * x[near] * _SQRT1_2)
    b[near] = special.erfcx(-d[near] * _SQRT1_2)
    far = ~near
    a[far] = special.ndtr(sign[far] * x[far])
    b[far] = np.exp(special.log_ndtr(d[far]) - (d[far] + 0.5 / k) / k)
    return factor * (a - sign * b), factor * (a + b), factor * b / k


def _standard_expnormal_ppf(q: np.ndarray, k: float) -> np.ndarray:
    """x with P(Z + k E <= x) = q for each q in (0, 1); NaN where the
    iteration does not converge within the cap.

    Solves log cdf(x) = log q for q <= 0.5 and log sf(x) = log(1 - q)
    otherwise, so the upper tail keeps its precision.  The bracket
    [Phi^-1(q), Phi^-1(sqrt q) - k log(1 - sqrt q)] holds the root: X >= Z,
    and both Z <= Phi^-1(sqrt q) and E <= -log(1 - sqrt q) hold with
    probability q.  Both functions are log-concave, so Newton started at the
    lower end (cdf) or the upper end (sf) approaches the root from one side.
    A step that leaves the bracket or does not halve the step before last
    bisects instead, which guarantees progress once rounding dominates.  The
    iteration stops when a step is within 4 eps of max(1, |x|) plus the
    rounding level of the evaluated probability.
    """
    upper = q > 0.5
    sign = np.where(upper, -1.0, 1.0)
    target = np.where(upper, 1.0 - q, q)
    s = (1.0 - q) / (1.0 + np.sqrt(q))  # 1 - sqrt(q) without cancellation
    lo = special.ndtri(q)
    hi = -special.ndtri(s) - k * np.log(s)
    x = np.where(upper, hi, lo)
    step = older = hi - lo
    out = np.full_like(q, np.nan)
    idx = np.arange(q.size)
    with np.errstate(all="ignore"):  # non-finite steps bisect; NaN never converges
        for _ in range(_PPF_MAXITER):
            prob, magnitude, pdf = _expnormal_terms(x, k, sign)
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


def _expnormal_ppf(q: np.ndarray, k: float, loc: float, scale: float) -> np.ndarray:
    """Quantiles of the fitted expnormal: loc + scale times the standard
    EMG quantile; -inf and +inf at q = 0 and 1, as scipy's ppf gives."""
    if not (np.isfinite([k, loc, scale]).all() and k > 0 and scale > 0):
        raise NumericalError(f"expnormal ppf with {dict(k=k, loc=loc, scale=scale)}: invalid parameters")
    flat = q.ravel()
    x = np.where(flat == 0.0, -np.inf, np.where(flat == 1.0, np.inf, np.nan))
    inside = (flat > 0.0) & (flat < 1.0)
    x[inside] = _standard_expnormal_ppf(flat[inside], k)
    failed = int(np.isnan(x).sum())
    if failed:
        raise NumericalError(
            f"expnormal ppf with {dict(k=k, loc=loc, scale=scale)}: "
            f"no finite quantile for {failed} of {flat.size} values (not converged, or NaN)"
        )
    return (loc + scale * x).reshape(q.shape)


# --- Nelder-Mead ---------------------------------------------------------------
#
# scipy.optimize.minimize(method="Nelder-Mead") spends as long on numpy calls
# over 3-element arrays as on the likelihoods themselves.  _nelder_mead
# repeats scipy 1.17's non-adaptive algorithm (Nelder & Mead 1965) step for
# step on Python floats: the same initial simplex, coefficients, centroid
# summation order, vertex order and stop rule, so every fit ends on the same
# bits.  The tests use scipy itself as the oracle.

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


@dataclass
class FitTally:
    """Fitting work counted inside a :func:`fit_tally` block."""

    univariate_fits: int = 0
    nm_runs: int = 0
    nm_nfev: int = 0
    failed: Counter = field(default_factory=Counter)  # family -> fits it did not produce


_TALLY: ContextVar[Optional[FitTally]] = ContextVar("leadkin_fit_tally", default=None)


@contextmanager
def fit_tally() -> Iterator[FitTally]:
    """Count the univariate fits, Nelder-Mead runs and evaluations, and the
    families that produced no fit, for every fit made inside the block."""
    tally = FitTally()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


def _ordered(sim, fsim):
    """The vertices and values sorted by value, in np.argsort's order.

    Distinct values have only one order.  Ties (the 1e12 infeasible plateau)
    and NaN go through np.argsort itself, whose order of tied values differs
    from a stable sort on hosts with a SIMD sort.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    ranked = [fsim[i] for i in order]
    # strictly increasing means distinct and free of NaN, for which a comparison is False
    if not all(a < b for a, b in zip(ranked, ranked[1:])):
        order = np.argsort(fsim).tolist()
        ranked = [fsim[i] for i in order]
    return [sim[i] for i in order], ranked


def _nelder_mead(fun, x0) -> _Simplex:
    """Minimize fun from x0 exactly as scipy's Nelder-Mead does with
    maxiter 400, xatol 1e-6, fatol 1e-9 and no evaluation cap."""
    nfev = 0

    def f(vertex):
        nonlocal nfev
        nfev += 1
        return float(fun(np.array(vertex)))

    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = (1 + _NM_NONZDELT) * vertex[k] if vertex[k] != 0 else _NM_ZDELT
        sim.append(vertex)
    fsim = [f(vertex) for vertex in sim]
    # scipy sorts twice before the first step, and the second sort can move ties
    sim, fsim = _ordered(*_ordered(sim, fsim))

    nit = 1
    while nit < _NM_MAXITER:
        best = sim[0]
        if all(abs(a - b) <= _NM_XATOL for v in sim[1:] for a, b in zip(v, best)) and all(
            abs(fsim[0] - fv) <= _NM_FATOL for fv in fsim[1:]
        ):
            break
        # centroid summed vertex by vertex, ((r0 + r1) + r2) / n, as np.add.reduce does
        xbar = [reduce(operator.add, column) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [(1 + _RHO) * c - _RHO * w for c, w in zip(xbar, worst)]
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = [(1 + _RHO * _CHI) * c - _RHO * _CHI * w for c, w in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [(1 + _PSI * _RHO) * c - _PSI * _RHO * w for c, w in zip(xbar, worst)]
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = [(1 - _PSI) * c + _PSI * w for c, w in zip(xbar, worst)]
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [b + _SIGMA * (v - b) for b, v in zip(sim[0], sim[j])]
                fsim[j] = f(sim[j])
        nit += 1
        sim, fsim = _ordered(sim, fsim)
    return _Simplex(x=np.array(sim[0]), fun=float(np.min(fsim)), nfev=nfev, nit=nit)


# --- weighted MLE per family -------------------------------------------------
#
# Inner-loop likelihoods use explicit log-pdf formulas (scipy.special) to
# avoid frozen-distribution construction overhead inside the optimizer.

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _moments(y: np.ndarray, w: np.ndarray) -> Tuple[float, float]:
    mean = float(np.dot(w, y) / w.sum())
    var = float(np.dot(w, np.square(y - mean)) / w.sum())
    return mean, max(var, 1e-12)


def _norm_logpdf(z):
    return -0.5 * np.square(z) - _LOG_SQRT_2PI


def _finite3(a, b, c) -> bool:
    """np.isfinite([a, b, c]).all() for three scalars, without the array."""
    return math.isfinite(a) and math.isfinite(b) and math.isfinite(c)


def _nll(logpdf, y, w):
    def fun(theta):
        lp = logpdf(theta, y)
        if lp is None or not np.isfinite(lp).all():
            return 1e12
        return -float(np.dot(w, lp))

    return fun


def _minimize(fun, starts) -> Optional[_Simplex]:
    """Best Nelder-Mead result over the starts; None when none is finite."""
    best = None
    tally = _TALLY.get()
    for x0 in starts:
        res = _nelder_mead(fun, x0)
        if tally is not None:
            tally.nm_runs += 1
            tally.nm_nfev += res.nfev
        if not np.isfinite(res.fun):
            continue
        if best is None or res.fun < best.fun:
            best = res
    return best


def _fit_normal(y, w):
    mean, var = _moments(y, w)
    if var <= 1e-18:
        return None
    return {"loc": mean, "scale": float(np.sqrt(var))}


def _fit_exponential(y, w):
    mean = float(np.dot(w, y) / w.sum())
    if mean <= 0:
        return None
    return {"scale": mean}


def _fit_gamma(y, w):
    if (y <= 0).any():
        return None
    mean, var = _moments(y, w)
    shape0 = max(mean * mean / var, 1e-3)
    scale0 = max(var / mean, 1e-9)
    log_y = np.log(y)

    def logpdf(theta, y):
        shape, scale = np.exp(theta)
        if not (np.isfinite(shape) and np.isfinite(scale)) or shape > 1e6:
            return None
        return (
            (shape - 1.0) * log_y
            - y / scale
            - special.gammaln(shape)
            - shape * np.log(scale)
        )

    res = _minimize(_nll(logpdf, y, w), [np.log([shape0, scale0]), np.log([1.0, mean])])
    if res is None:
        return None
    shape, scale = np.exp(res.x)
    return {"shape": float(shape), "scale": float(scale)}


def _fit_gengamma(y, w):
    if (y <= 0).any():
        return None
    mean, var = _moments(y, w)
    shape0 = max(mean * mean / var, 1e-3)
    scale0 = max(var / mean, 1e-9)
    log_y = np.log(y)

    def logpdf(theta, y):
        a, c, scale = np.exp(theta)
        if not _finite3(a, c, scale) or a > 1e6 or c > 50:
            return None
        log_t = log_y - np.log(scale)
        return (
            np.log(c)
            + (c * a - 1.0) * log_t
            - np.exp(np.clip(c * log_t, -700, 700))
            - special.gammaln(a)
            - np.log(scale)
        )

    starts = [
        np.log([shape0, 1.0, scale0]),
        np.log([shape0, 0.6, scale0]),
        np.log([shape0, 1.8, scale0]),
    ]
    res = _minimize(_nll(logpdf, y, w), starts)
    if res is None:
        return None
    a, c, scale = np.exp(res.x)
    return {"a": float(a), "c": float(c), "scale": float(scale)}


def _fit_skewnormal(y, w):
    mean, var = _moments(y, w)
    sd = float(np.sqrt(var))
    if sd <= 1e-9:
        return None

    def logpdf(theta, y):
        a, loc, log_scale = theta
        scale = np.exp(log_scale)
        if not _finite3(a, loc, scale) or abs(a) > 100:
            return None
        z = (y - loc) / scale
        return np.log(2.0) + _norm_logpdf(z) + special.log_ndtr(a * z) - log_scale

    starts = [
        np.array([0.0, mean, np.log(sd)]),
        np.array([2.0, mean - sd, np.log(sd)]),
        np.array([-2.0, mean + sd, np.log(sd)]),
    ]
    res = _minimize(_nll(logpdf, y, w), starts)
    if res is None:
        return None
    a, loc, log_scale = res.x
    return {"a": float(a), "loc": float(loc), "scale": float(np.exp(log_scale))}


def _fit_expnormal(y, w):
    mean, var = _moments(y, w)
    sd = float(np.sqrt(var))
    if sd <= 1e-9:
        return None

    def logpdf(theta, y):
        log_k, loc, log_scale = theta
        k = np.exp(log_k)
        scale = np.exp(log_scale)
        if not _finite3(k, loc, scale) or k > 1e4:
            return None
        z = (y - loc) / scale
        inv_k = 1.0 / k
        return (
            -log_k
            + 0.5 * inv_k * inv_k
            - z * inv_k
            + special.log_ndtr(z - inv_k)
            - log_scale
        )

    starts = [
        np.array([np.log(0.05), mean, np.log(sd)]),
        np.array([np.log(1.0), mean - 0.7 * sd, np.log(0.7 * sd)]),
        np.array([np.log(3.0), mean - sd, np.log(0.4 * sd)]),
    ]
    res = _minimize(_nll(logpdf, y, w), starts)
    if res is None:
        return None
    log_k, loc, log_scale = res.x
    return {"k": float(np.exp(log_k)), "loc": float(loc), "scale": float(np.exp(log_scale))}


class _Family(NamedTuple):
    dist: object  # scipy.stats distribution
    names: Tuple[str, ...]  # shape parameters first, then loc (if free) and scale
    positive: bool  # support is (0, inf): fit through an AffinePre on signed data
    fit: Callable  # (y, w) -> params dict, or None when the family cannot fit

    def shapes(self, params: Mapping[str, float]) -> list:
        return [params[n] for n in self.names if n not in ("loc", "scale")]

    def freeze(self, params: Mapping[str, float]):
        return self.dist(*self.shapes(params), loc=params.get("loc", 0.0), scale=params["scale"])

    def admits(self, params: Mapping[str, float]) -> bool:
        """scale > 0 and the shapes within scipy's domain for the family."""
        return params["scale"] > 0 and bool(self.dist._argcheck(*self.shapes(params)))


_FAMILIES = {
    "normal": _Family(stats.norm, ("loc", "scale"), False, _fit_normal),
    "skewnormal": _Family(stats.skewnorm, ("a", "loc", "scale"), False, _fit_skewnormal),
    "expnormal": _Family(stats.exponnorm, ("k", "loc", "scale"), False, _fit_expnormal),
    "gamma": _Family(stats.gamma, ("shape", "scale"), True, _fit_gamma),
    "gengamma": _Family(stats.gengamma, ("a", "c", "scale"), True, _fit_gengamma),
    "exponential": _Family(stats.expon, ("scale",), True, _fit_exponential),
}


def _affine_for(values: np.ndarray, weights: np.ndarray) -> AffinePre:
    """Pre-transformation for positive-support families on signed data."""
    reflect = bool(np.dot(weights, values) / weights.sum() < 0)
    y = -values if reflect else values
    shift = 0.0
    if y.min() <= 0:
        shift = float(y.min() - SHIFT_MARGIN)
    return AffinePre(shift=shift, reflect=reflect)


def fit_family(family: str, values, weights) -> Optional[FittedDist]:
    """Weighted MLE for one family; None when the family cannot fit."""
    x = np.asarray(values, dtype=float)
    w = normalize_to_effective(weights)
    spec = _FAMILIES[family]
    affine = AffinePre()
    if spec.positive and x.min() <= 0:
        affine = _affine_for(x, w)
    y = affine.forward(x)
    params = spec.fit(y, w)
    if params is None:
        return None
    fitted = FittedDist(family=family, params=params, affine=affine)
    lp = fitted.logpdf(x)
    if not np.isfinite(lp).all():
        return None
    loglik = float(np.dot(w, lp))
    return FittedDist(
        family=family,
        params=params,
        affine=affine,
        aic=2 * fitted.k - 2 * loglik,
        loglik=loglik,
    )


def fit_univariate(
    values,
    weights=None,
    families: Sequence[str] = CONTINUOUS_FAMILIES,
) -> FittedDist:
    """Fit every candidate family and keep the lowest-AIC one."""
    x = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(x)
    w = np.asarray(weights, dtype=float)
    if effective_sample_size(w) < 5:
        raise AllFitsFailed("need at least 5 effective samples")
    if not np.isfinite(x).all():
        raise AllFitsFailed("values must be finite")
    if weighted_var_mle(x, w) <= 0.0:
        raise AllFitsFailed("zero variance: data is constant")

    tally = _TALLY.get()
    if tally is not None:
        tally.univariate_fits += 1
    fits = []
    failed = 0
    for family in families:
        try:
            fitted = fit_family(family, x, w)
        except (ArithmeticError, ValueError, np.linalg.LinAlgError, NumericalError):
            # a numerical blow-up counts as a failed family; anything else is a bug
            log.debug("family %s failed", family, exc_info=True)
            failed += 1
            fitted = None
        if fitted is not None and np.isfinite(fitted.aic):
            fits.append(fitted)
        elif tally is not None:
            tally.failed[family] += 1
    if failed:
        log.info("%d of %d families failed with a numerical error", failed, len(families))
    if not fits:
        raise AllFitsFailed(f"no family among {families} produced a finite fit")
    return min(fits, key=lambda f: f.aic)


def quantile_normalize(values, dist: FittedDist) -> np.ndarray:
    """Map data through the fitted CDF onto the standard normal scale."""
    u = np.clip(dist.cdf(values), _CLIP_LO, _CLIP_HI)
    return stats.norm.ppf(u)

