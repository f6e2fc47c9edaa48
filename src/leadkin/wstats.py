"""Weighted statistics helpers used across modeling and validation."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .errors import EmptyInput
from .events import PARAM_NAMES


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size, (sum w)^2 / sum(w^2).

    The weights are first scaled by the power of two that brings the
    largest into [0.5, 1).  That scaling is exact, so the result is the
    same, but the squares no longer overflow from weights of about 1e154.
    """
    w = np.asarray(weights, dtype=float)
    s = w.sum()
    if s <= 0:
        return 0.0
    w = np.ldexp(w, -np.frexp(w.max())[1])
    s = w.sum()
    return float(s * s / np.square(w).sum())


def weighted_mean(values, weights) -> float:
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    s = w.sum()
    if s <= 0:
        raise EmptyInput("total weight must be positive")
    return float(np.dot(w, v) / s)


def weighted_sd(values, weights) -> float:
    """Frequency-weight standard deviation, sqrt(sum w (x-m)^2 / (sum w - 1))."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    s = w.sum()
    if s <= 0:
        raise EmptyInput("total weight must be positive")
    m = np.dot(w, v) / s
    if s <= 1.0:
        return float("nan")
    return float(np.sqrt(np.dot(w, np.square(v - m)) / (s - 1.0)))


def weighted_var_mle(values, weights) -> float:
    """Maximum-likelihood variance, sum w (x-m)^2 / sum w."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    s = w.sum()
    if s <= 0:
        raise EmptyInput("total weight must be positive")
    m = np.dot(w, v) / s
    return float(np.dot(w, np.square(v - m)) / s)


def normalize_to_effective(weights) -> np.ndarray:
    """Rescale weights to sum to the effective sample size.

    Makes likelihoods and significance tests invariant to multiplying all
    weights by a positive constant.
    """
    w = np.asarray(weights, dtype=float)
    n_eff = effective_sample_size(w)
    if n_eff <= 0:
        raise EmptyInput("total weight must be positive")
    return w * (n_eff / w.sum())


def describe(dataset) -> Dict[str, Tuple[float, float]]:
    """Weighted mean and SD of each parameter of a ParamTable, or of the
    one held as ``events`` (a SyntheticDataset's has unit weights)."""
    # perfbench passes what the table readers return, which hold the table as ``events``
    table = getattr(dataset, "events", dataset)
    if not len(table):
        raise EmptyInput("dataset has no events")
    return {
        name: (weighted_mean(table[name], table.weight), weighted_sd(table[name], table.weight))
        for name in PARAM_NAMES
    }
