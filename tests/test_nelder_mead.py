"""The package's Nelder-Mead against scipy's, which it repeats step for step.

Every comparison is exact: the best vertex bit for bit, the best value,
and the evaluation and iteration counts.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from groundtruth import ground_truth_corpus
from leadkin import cli, marginals
from leadkin.demo import make_demo_events
from leadkin.events import PARAM_NAMES
from leadkin.mvdist import build_all
from leadkin.tables import read_combined_csv

NM_FAMILIES = ("skewnormal", "expnormal", "gamma", "gengamma")


def assert_same_as_scipy(fun, x0):
    ours = marginals._nelder_mead(fun, x0)
    ref = optimize.minimize(
        fun, x0, method="Nelder-Mead", options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-9}
    )
    assert ours.x.dtype == ref.x.dtype and ours.x.tobytes() == ref.x.tobytes(), (ours.x, ref.x)
    assert ours.fun == ref.fun or (np.isnan(ours.fun) and np.isnan(ref.fun))
    assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)
    return ours


@pytest.fixture(scope="module")
def demo_combined(tmp_path_factory):
    """The demo x1 corpus, fit and combined as the pipeline does."""
    root = tmp_path_factory.mktemp("demo")
    make_demo_events(root / "events.csv", seed=7)
    config = cli.PipelineConfig()
    cli.stage_fit(config, root / "events.csv", root / "params.csv", root / "counts.json")
    cli.stage_combine(config, root / "params.csv", root / "combined.csv", root / "counts.json")
    return read_combined_csv(root / "combined.csv")


@pytest.fixture(scope="module")
def corpora(demo_combined):
    return {"ground-truth": ground_truth_corpus(), "demo-x1": demo_combined}


def _recorded_runs(monkeypatch, fit):
    """(objective, start) of every Nelder-Mead run that fit() makes."""
    runs = []
    real = marginals._nelder_mead

    def record(fun, x0):
        runs.append((fun, np.array(x0, dtype=float)))
        return real(fun, x0)

    monkeypatch.setattr(marginals, "_nelder_mead", record)
    fit()
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("corpus", ["ground-truth", "demo-x1"])
@pytest.mark.parametrize("family", NM_FAMILIES)
def test_every_family_likelihood_matches_scipy(monkeypatch, corpora, corpus, family):
    table = corpora[corpus].events

    def fit():
        for name in PARAM_NAMES:
            marginals.fit_family(family, table[name], table.weight)

    runs = _recorded_runs(monkeypatch, fit)
    assert runs
    for fun, x0 in runs:
        assert_same_as_scipy(fun, x0)


def test_model_stage_runs_match_scipy(monkeypatch, demo_combined):
    """Every run the demo's model build makes, on its sub-datasets."""
    runs = _recorded_runs(monkeypatch, lambda: build_all(demo_combined))
    assert len(runs) > 50
    for fun, x0 in runs:
        assert_same_as_scipy(fun, x0)


def _plateau(center, width=1.0):
    """Quadratic bowl inside a box, 1e12 outside it, as the likelihoods
    return for infeasible parameters; vertices on the plateau tie."""

    def fun(theta):
        if np.abs(theta).max() > width:
            return 1e12
        return float(np.sum((theta - center) ** 2))

    return fun


@pytest.mark.parametrize(
    "x0",
    [[0.99, 0.99, 0.99], [0.97, -0.98, 0.5], [0.999, 0.0, -0.999], [0.96, 0.97]],
    ids=["corner", "edge", "zero-and-edge", "two-d"],
)
def test_infeasible_plateau_ties(x0):
    fun = _plateau(np.full(len(x0), 0.3))
    start = np.array(x0)
    values = [fun(v) for v in [start, *(start * np.where(np.eye(len(x0)), 1.05, 1.0))]]
    assert len(set(values)) < len(values)  # the initial simplex already ties
    assert_same_as_scipy(fun, start)


def test_whole_simplex_on_the_plateau():
    # every vertex and every trial point is infeasible, so all values tie
    assert_same_as_scipy(_plateau(np.zeros(3), width=0.1), np.array([2.0, -3.0, 4.0]))


def test_hits_maxiter():
    # a square-root cusp: within xatol of the minimum the values still differ
    # by far more than fatol, so only the iteration cap stops the search
    def cusp(theta):
        return float(np.sum(np.abs(theta - 0.3)) ** 0.5)

    res = assert_same_as_scipy(cusp, np.array([0.5, -1.0, 2.0]))
    assert res.nit == 400


@pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [0.0, 1.5, -0.0], [-0.0, 0.0]])
def test_zero_coordinates_start(x0):
    fun = _plateau(np.array([0.2, -0.1, 0.05])[: len(x0)], width=5.0)
    assert_same_as_scipy(fun, np.array(x0))


def test_nan_values():
    def fun(theta):
        return float("nan") if theta[0] > 0.5 else float(np.sum(np.square(theta - 0.4)))

    assert_same_as_scipy(fun, np.array([0.45, 0.1, -0.2]))


@settings(max_examples=60, deadline=None)
@given(
    start=st.lists(
        st.sampled_from([0.0, -0.0, 0.5, -1.0, 0.98, 2.0, 1e-3, -7.5]), min_size=2, max_size=3
    ),
    center=st.floats(-1.5, 1.5),
    width=st.sampled_from([0.5, 1.0, 3.0]),
    step=st.sampled_from([0.0, 0.25]),
)
def test_random_bowls_match_scipy(start, center, width, step):
    """Bowls with flat terraces (rounded values, so ties) and a plateau."""

    def fun(theta):
        if np.abs(theta).max() > width:
            return 1e12
        value = float(np.sum((theta - center) ** 2))
        return round(value / step) * step if step else value

    assert_same_as_scipy(fun, np.array(start))


@pytest.mark.parametrize("size", [3, 4])
def test_vertex_order_is_argsorts_for_every_tie_pattern(size):
    """All value patterns over a few levels, ties and NaN included, order as
    np.argsort does; on hosts with a SIMD sort that is not a stable sort."""
    for pattern in itertools.product([1.0, 2.0, 3.0, 1e12, float("nan")], repeat=size):
        values = list(pattern)
        expected = np.argsort(np.array(values)).tolist()
        order, ranked = marginals._ordered(list(range(size)), values)
        assert order == expected
        assert ranked == [values[i] for i in expected]
