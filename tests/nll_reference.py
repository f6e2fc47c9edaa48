"""Test-only oracle: each Nelder-Mead family's weighted negative
log-likelihood as a function of one point.

The log-densities and their guards are kept verbatim from the version of
``leadkin.marginals`` that called the objective once per point, so the
batched likelihood can be checked against them bit for bit: scipy's
Nelder-Mead on ``nll(family, y, w)`` must end exactly where the package's
lockstep run ends.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _norm_logpdf(z):
    return -0.5 * np.square(z) - _LOG_SQRT_2PI


def _finite3(a, b, c) -> bool:
    return math.isfinite(a) and math.isfinite(b) and math.isfinite(c)


def _gamma(theta, y, log_y):
    shape, scale = np.exp(theta)
    if not (np.isfinite(shape) and np.isfinite(scale)) or shape > 1e6:
        return None
    return (shape - 1.0) * log_y - y / scale - special.gammaln(shape) - shape * np.log(scale)


def _gengamma(theta, y, log_y):
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


def _skewnormal(theta, y, log_y):
    a, loc, log_scale = theta
    scale = np.exp(log_scale)
    if not _finite3(a, loc, scale) or abs(a) > 100:
        return None
    z = (y - loc) / scale
    return np.log(2.0) + _norm_logpdf(z) + special.log_ndtr(a * z) - log_scale


def _expnormal(theta, y, log_y):
    log_k, loc, log_scale = theta
    k = np.exp(log_k)
    scale = np.exp(log_scale)
    if not _finite3(k, loc, scale) or k > 1e4:
        return None
    z = (y - loc) / scale
    inv_k = 1.0 / k
    return -log_k + 0.5 * inv_k * inv_k - z * inv_k + special.log_ndtr(z - inv_k) - log_scale


LOGPDF = {"gamma": _gamma, "gengamma": _gengamma, "skewnormal": _skewnormal, "expnormal": _expnormal}


def nll(family: str, y: np.ndarray, w: np.ndarray):
    """The family's objective on data y with weights w: 1e12 where the
    parameters are infeasible or a log-density is not finite."""
    logpdf = LOGPDF[family]
    log_y = np.log(y) if family in ("gamma", "gengamma") else None

    def fun(theta):
        lp = logpdf(theta, y, log_y)
        if lp is None or not np.isfinite(lp).all():
            return 1e12
        return -float(np.dot(w, lp))

    return fun
