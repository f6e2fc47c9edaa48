"""Test-only oracle: the weighted KS test before smaller-sample scoring.

``weighted_ks_test`` is kept here from the version of ``leadkin.validate``
that built two (chunk, N) cumulative sums for every permutation, so the
faster scoring can be checked against it.  It takes the package's draws
of each permutation (the smaller sample's positions) and turns them back
into full label rows.  The helpers that did not change are imported from
the package.
"""

from __future__ import annotations

import numpy as np

from leadkin.errors import EmptyInput
from leadkin.validate import KsResult, _ks_distance, _permutation_positions

_PERM_CHUNK = 256


def weighted_ks_test(
    x,
    wx=None,
    y=None,
    wy=None,
    n_perm: int = 2000,
    seed=None,
) -> KsResult:
    """Two-sample weighted KS test with a permutation p-value."""
    x = np.asarray(x, dtype=float)
    if y is None:
        raise EmptyInput("second sample is required")
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptyInput("both samples must be non-empty")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    wx = np.ones_like(x) if wx is None else np.asarray(wx, dtype=float)
    wy = np.ones_like(y) if wy is None else np.asarray(wy, dtype=float)
    if wx.sum() <= 0 or wy.sum() <= 0:
        raise EmptyInput("sample weights must have positive sum")

    # per-sample normalization makes the test invariant to weight rescaling
    wx = wx * (x.size / wx.sum())
    wy = wy * (y.size / wy.sum())

    values = np.concatenate([x, y])
    weights = np.concatenate([wx, wy])
    labels = np.concatenate([np.ones(x.size, dtype=bool), np.zeros(y.size, dtype=bool)])

    order = np.argsort(values, kind="stable")
    values, weights, labels = values[order], weights[order], labels[order]
    n = values.size
    step_idx = np.flatnonzero(np.concatenate([values[1:] != values[:-1], [True]]))

    observed = _ks_distance(weights * labels, weights * ~labels, step_idx)

    x_small = x.size <= y.size
    rng = np.random.default_rng(seed)
    exceed = 0
    done = 0
    while done < n_perm:
        chunk = min(_PERM_CHUNK, n_perm - done)
        small = np.zeros((chunk, n), dtype=bool)
        np.put_along_axis(small, _permutation_positions(rng, n, min(x.size, y.size), chunk), True, axis=1)
        perm_labels = small if x_small else ~small
        w1 = weights * perm_labels
        w2 = weights * ~perm_labels
        c1 = np.cumsum(w1, axis=1) / w1.sum(axis=1, keepdims=True)
        c2 = np.cumsum(w2, axis=1) / w2.sum(axis=1, keepdims=True)
        d = np.abs(c1[:, step_idx] - c2[:, step_idx]).max(axis=1)
        exceed += int((d >= observed - 1e-12).sum())
        done += chunk

    p = (1.0 + exceed) / (1.0 + n_perm)
    return KsResult(statistic=observed, p_value=float(min(p, 1.0)), n_permutations=n_perm)
