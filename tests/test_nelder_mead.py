"""The package's Nelder-Mead against scipy's, which it repeats step for step.

The package runs a batch of minimizations in lockstep; scipy runs each one
alone, on that run's objective.  Every comparison is exact: the best vertex
bit for bit, the best value, and the evaluation and iteration counts.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import nll_reference
from groundtruth import ground_truth_corpus
from leadkin import cli, marginals
from leadkin.demo import make_demo_events
from leadkin.events import PARAM_NAMES
from leadkin.mvdist import build_all
from leadkin.tables import read_combined_csv

NM_FAMILIES = ("skewnormal", "expnormal", "gamma", "gengamma")


def batched(*funs):
    """_nelder_mead's ``evaluate`` over scalar objectives, one per run."""

    def evaluate(rows, points):
        values = [[funs[r](p) for p in row] for r, row in zip(rows, points)]
        return np.array(values, dtype=float).reshape(points.shape[:2])

    return evaluate


def assert_same(ours, fun, x0):
    ref = optimize.minimize(
        fun, x0, method="Nelder-Mead", options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-9}
    )
    assert ours.x.dtype == ref.x.dtype and ours.x.tobytes() == ref.x.tobytes(), (ours.x, ref.x)
    assert ours.fun == ref.fun or (np.isnan(ours.fun) and np.isnan(ref.fun))
    assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)
    return ours


def assert_same_as_scipy(fun, x0):
    [ours] = marginals._nelder_mead(batched(fun), np.array([x0], dtype=float))
    return assert_same(ours, fun, x0)


@pytest.fixture(scope="module")
def demo_combined(tmp_path_factory):
    """The demo x1 corpus, fit and combined as the pipeline does."""
    root = tmp_path_factory.mktemp("demo")
    make_demo_events(root / "events.csv", seed=7)
    config = cli.PipelineConfig()
    cli.stage_fit(config, root / "events.csv", root / "params.csv", root / "counts.json")
    cli.stage_combine(config, root / "params.csv", root / "combined.csv", root / "counts.json")
    return read_combined_csv(root / "combined.csv").events


@pytest.fixture(scope="module")
def corpora(demo_combined):
    return {"ground-truth": ground_truth_corpus(), "demo-x1": demo_combined}


def _recorded_runs(monkeypatch, fit):
    """(objective, start, result) of every Nelder-Mead run that fit() makes.
    The objective is the run's likelihood as ``nll_reference`` computes it
    one point at a time, so scipy checks the batched likelihood as well as
    the lockstep steps."""
    runs = []
    real = marginals._minimize

    def record(batch):
        results = real(batch)
        runs.extend((nll_reference.nll(family, y, w), x0, res) for (family, y, w, x0), res in zip(batch, results))
        return results

    monkeypatch.setattr(marginals, "_minimize", record)
    fit()
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("corpus", ["ground-truth", "demo-x1"])
@pytest.mark.parametrize("family", NM_FAMILIES)
def test_every_family_likelihood_matches_scipy(monkeypatch, corpora, corpus, family):
    table = corpora[corpus]

    def fit():
        for name in PARAM_NAMES:
            marginals.fit_family(family, table[name], table.weight)

    runs = _recorded_runs(monkeypatch, fit)
    assert runs
    for fun, x0, ours in runs:
        assert_same(ours, fun, x0)


def test_model_stage_runs_match_scipy(monkeypatch, demo_combined):
    """Every run the demo's model build makes, in its lockstep batches of
    several families and sample sizes."""
    runs = _recorded_runs(monkeypatch, lambda: build_all(demo_combined))
    assert len(runs) > 50
    for fun, x0, ours in runs:
        assert_same(ours, fun, x0)


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


def _cusp(theta):
    # a square-root cusp: within xatol of the minimum the values still differ
    # by far more than fatol, so only the iteration cap stops the search
    return float(np.sum(np.abs(theta - 0.3)) ** 0.5)


def _nan_above(theta):
    return float("nan") if theta[0] > 0.5 else float(np.sum(np.square(theta - 0.4)))


def test_hits_maxiter():
    res = assert_same_as_scipy(_cusp, np.array([0.5, -1.0, 2.0]))
    assert res.nit == 400


@pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [0.0, 1.5, -0.0], [-0.0, 0.0]])
def test_zero_coordinates_start(x0):
    fun = _plateau(np.array([0.2, -0.1, 0.05])[: len(x0)], width=5.0)
    assert_same_as_scipy(fun, np.array(x0))


def test_nan_values():
    assert_same_as_scipy(_nan_above, np.array([0.45, 0.1, -0.2]))


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
    np.argsort does row by row; on hosts with a SIMD sort that is not a
    stable sort."""
    patterns = np.array(list(itertools.product([1.0, 2.0, 3.0, 1e12, float("nan")], repeat=size)))
    vertices = np.tile(np.arange(size)[None, :, None], (len(patterns), 1, 1))
    order, ranked = marginals._ordered(vertices, patterns)
    for values, row_order, row_ranked in zip(patterns, order, ranked):
        expected = np.argsort(values).tolist()
        assert row_order[:, 0].tolist() == expected
        np.testing.assert_array_equal(row_ranked, values[expected])


def _terraces(theta):
    if np.abs(theta).max() > 3.0:
        return 1e12
    return round(float(np.sum((theta + 0.4) ** 2)) / 0.25) * 0.25


@pytest.mark.parametrize("families", [("skewnormal", "expnormal", "gengamma"), ("gamma",)], ids=["3-d", "2-d"])
def test_mixed_batch_matches_scipy_run_by_run(corpora, families):
    """One lockstep batch: likelihoods of several families and sample sizes,
    next to objectives with 1e12 plateaus, ties, NaN and a cusp that only
    the 400-iteration cap stops.  Every run ends as scipy's run of it alone."""
    table = corpora["demo-x1"]
    rng = np.random.default_rng(11)
    runs = []
    for family in families:
        spec = marginals._FAMILIES[family]
        for size in (5, 12, 30):
            pick = rng.choice(len(table), size, replace=False)
            y, w = np.abs(table["v_c"][pick]) + 0.5, table.weight[pick] / table.weight[pick].mean()
            runs.extend((family, y, w, x0) for x0 in spec.start(y, w))
    runs.sort(key=lambda run: (run[0], run[1].size))
    likelihood = marginals._likelihood(runs)
    n = runs[0][3].size
    others = [
        (_plateau(np.full(n, 0.3)), np.full(n, 0.99)),
        (_plateau(np.zeros(n), width=0.1), np.array([2.0, -3.0, 4.0])[:n]),
        (_cusp, np.array([0.5, -1.0, 2.0])[:n]),
        (_nan_above, np.array([0.45, 0.1, -0.2])[:n]),
        (_terraces, np.array([0.0, 1.5, -0.0])[:n]),
    ]
    synthetic = batched(*(fun for fun, _ in others))
    first = len(runs)

    def evaluate(rows, points):
        cut = np.searchsorted(rows, first)
        return np.concatenate([likelihood(rows[:cut], points[:cut]), synthetic(rows[cut:] - first, points[cut:])])

    starts = np.array([run[3] for run in runs] + [x0 for _, x0 in others])
    results = marginals._nelder_mead(evaluate, starts)
    assert max(res.nit for res in results) == 400
    assert any(res.fun == 1e12 for res in results)
    objectives = [nll_reference.nll(family, y, w) for family, y, w, _ in runs] + [fun for fun, _ in others]
    for fun, x0, ours in zip(objectives, starts, results):
        assert_same(ours, fun, x0)
