import json

import numpy as np
import pytest
from scipy.stats import pearsonr

from groundtruth import ground_truth_bundles, ground_truth_corpus
from leadkin.config import PipelineConfig
from leadkin import marginals, mvdist
from leadkin.errors import InputError, ModelBuildFailed, NumericalError, TooFewSamples, ZeroVariance
from leadkin.jsonio import read_json, write_json
from leadkin.marginals import AffinePre, FittedDist
from leadkin.events import PARAM_NAMES, EventParams, ParamTable
from leadkin.mvdist import (
    LABELS,
    CorrelatedBlock,
    HurdleDist,
    SplitCondition,
    SubmodelBundle,
    TransformSpec,
    build_all,
    bundles_from_json,
    bundles_to_json,
    categorize,
    classify,
    decorrelate,
    detect_point_mass,
    nearest_unit_correlation,
    weighted_corr,
)
from leadkin.synth import sample_submodel
from leadkin.wstats import effective_sample_size


def ev(vector, event_id="e", weight=1.0):
    return EventParams(event_id, *map(float, vector), weight=weight)


def dataset(events):
    return ParamTable.from_rows(events)


def build_label(sub, label, total_weight=None):
    """The bundles of one sub-dataset, from the model build's batch call."""
    total = float(sub.weight.sum()) if total_weight is None else total_weight
    return mvdist._build({label: sub}, PipelineConfig(), total)


def entangled_masses(n=80, seed=9, steady=0.0):
    """Decreasing-pattern events whose point masses v_c == 0 and
    tau_s == ``steady`` are entangled, so their sub-dataset splits."""
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n):
        stopped = rng.random() < 0.5
        if stopped:  # tau_s > 0 goes with v_c == 0
            vec = [0.0, rng.normal(-3, 0.3), rng.normal(1, 0.2),
                   rng.gamma(2, 0.5) + 0.1, rng.gamma(2, 0.5) + 0.5, rng.gamma(2, 0.4) + 0.3]
        else:
            vec = [rng.gamma(2, 1.5) + 0.5, rng.normal(-3, 0.3), rng.normal(1, 0.2),
                   steady, rng.gamma(2, 0.5) + 0.5, rng.gamma(2, 0.4) + 0.3]
        events.append(ev(vec, event_id=f"e{i}"))
    return events


def steady_pattern(n, seed):
    """Constant-acceleration (S2) events with no point mass."""
    rng = np.random.default_rng(seed)
    return [
        ev([rng.gamma(3, 2), a, a, 0.0, rng.gamma(2, 1) + 0.5, rng.gamma(2, 0.5) + 0.2], event_id=f"s{seed}-{i}")
        for i, a in enumerate(rng.normal(-2, 0.5, n))
    ]


def decreasing_pattern(n, seed):
    """Decreasing-pattern events without a steady phase (S6), no point mass."""
    rng = np.random.default_rng(seed)
    return [
        ev([rng.gamma(3, 2), rng.normal(-3, 0.3), rng.normal(1, 0.2), 0.0, rng.gamma(2, 1) + 0.5,
            rng.gamma(2, 0.5) + 0.2], event_id=f"d{seed}-{i}")
        for i in range(n)
    ]


def label(vector):
    (only,) = classify(ParamTable.from_rows([ev(vector)]))
    return only


class TestClassify:
    def test_standstill(self):
        assert label([0, 0, 0, 5, 0, 0]) == "S1"

    def test_decreasing_with_steady(self):
        assert label([5, -3, 2, 1, 2, 2]) == "S7"

    def test_constant_braking_line(self):
        assert label([1, -2, -2, 0, 5, 0]) == "S2"

    def test_constant_then_steady(self):
        assert label([5, -2, -2, 1.5, 3.5, 0]) == "S3"

    def test_increasing_split_on_a1_sign(self):
        assert label([5, -1, -4, 0, 2, 2]) == "S4"
        assert label([5, 1, -4, 0, 2, 2]) == "S5"
        assert label([5, 0, -4, 0, 2, 2]) == "S5"  # closure

    def test_decreasing_without_steady(self):
        assert label([5, -3, 2, 0, 2, 2]) == "S6"

    def test_constant_speed_nonzero(self):
        # constant pattern, zero acceleration, moving: goes to S2
        assert label([8, 0, 0, 5, 0, 0]) == "S2"

    def test_partition_total(self):
        rng = np.random.default_rng(5)
        events = []
        for i in range(300):
            vec = [
                max(rng.normal(3, 2), 0),
                rng.normal(-1, 2),
                rng.normal(-1, 2),
                max(rng.normal(0.5, 1), 0),
                max(rng.normal(2, 1), 0),
                max(rng.normal(1, 1), 0),
            ]
            events.append(ev(vec, event_id=f"e{i}"))
        parts = categorize(dataset(events))
        assert sum(len(sub) for sub in parts.values()) == 300


    @pytest.mark.parametrize(
        "vector, expected",
        [
            ([0, 0, 0, 0, 0, 0], "S1"),  # v_c == a1 == 0 without a steady phase
            ([0, -2, -2, 0, 5, 0], "S2"),  # v_c == 0 but braking
            ([5, -0.0, -4, 0, 2, 2], "S5"),  # -0.0 is not below zero
            ([5, -1e-12, -4, 0, 2, 2], "S4"),
            ([5, -3, 2, 1e-12, 2, 2], "S7"),  # any steady phase
        ],
    )
    def test_boundaries(self, vector, expected):
        assert label(vector) == expected

    def test_a1_zero_closure_warns_once_per_call(self, caplog):
        rows = [ev([5, 0, -4, 0, 2, 2], event_id=f"e{i}") for i in range(3)]
        with caplog.at_level("WARNING", logger="leadkin.mvdist"):
            ids = classify(ParamTable.from_rows(rows + [ev([5, -1, -4, 0, 2, 2])]))
        assert ids.tolist() == ["S5", "S5", "S5", "S4"]
        assert [r.getMessage() for r in caplog.records] == [
            "3 events: increasing pattern with a1 = 0 assigned to S5"
        ]


class TestDetectPointMass:
    def test_mass_at_zero(self):
        rng = np.random.default_rng(0)
        x = np.where(rng.random(200) < 0.4, 0.0, rng.gamma(2, 1, 200))
        spec = detect_point_mass(x, np.ones_like(x))
        assert spec is not None
        assert spec.mass_value == 0.0
        assert spec.mass_probability == pytest.approx(0.4, abs=0.08)

    def test_continuous_data_gives_none(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 50)
        assert detect_point_mass(x, np.ones_like(x)) is None

    def test_largest_share_wins(self):
        x = np.concatenate([np.zeros(30), np.full(12, 5.0), np.linspace(1, 4, 58)])
        spec = detect_point_mass(x, np.ones_like(x))
        assert spec.mass_value == 0.0
        assert spec.mass_probability == pytest.approx(0.30)

    def test_threshold_boundary_inclusive(self):
        x = np.concatenate([np.zeros(10), np.linspace(1, 5, 90)])
        spec = detect_point_mass(x, np.ones_like(x), config=PipelineConfig(mass_threshold=0.10))
        assert spec is not None and spec.mass_probability == pytest.approx(0.10)

    def test_single_heavy_event_is_not_a_mass(self):
        x = np.linspace(1, 5, 20)
        w = np.ones(20)
        w[3] = 10.0
        assert detect_point_mass(x, w) is None

    def test_zero_threshold_needs_a_repeated_value(self):
        """At threshold 0 every share passes, so only the twice-seen rule
        keeps distinct values from making a mass."""
        config = PipelineConfig(mass_threshold=0.0)
        assert detect_point_mass(np.arange(10.0), np.ones(10), config) is None
        spec = detect_point_mass(np.array([0.0, 1.0, 2.0, 3.0, 3.0]), np.ones(5), config)
        assert (spec.mass_value, spec.mass_probability) == (3.0, 0.4)

    def test_mass_is_a_hurdle_that_samples_only_the_mass(self):
        x = np.concatenate([np.full(8, 2.5), np.linspace(3, 5, 12)])
        mass = detect_point_mass(x, np.ones_like(x))
        assert mass == HurdleDist(mass_value=2.5, mass_probability=0.4, continuous=None)
        assert (mass.sample(np.random.default_rng(0), 50) == 2.5).all()


class TestWeightedCorr:
    def test_perfect_correlation(self):
        x = np.linspace(0, 1, 50)
        r, p = weighted_corr(x, x, np.ones(50))
        assert r == pytest.approx(1.0)
        assert p == 0.0

    def test_independent_large_sample(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=5000), rng.normal(size=5000)
        r, _ = weighted_corr(x, y, np.ones(5000))
        assert abs(r) < 0.1

    def test_equal_weights_match_pearson(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        y = 0.4 * x + rng.normal(size=200)
        r, p = weighted_corr(x, y, np.ones(200))
        r0, p0 = pearsonr(x, y)
        assert r == pytest.approx(r0, abs=1e-12)
        assert p == pytest.approx(p0, rel=1e-6)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            weighted_corr(np.ones(10), np.arange(10.0), np.ones(10))


class TestNarrowCatches:
    """Too few effective samples and zero variance read as "not correlated"
    or a failed build; any other ValueError is a bug and propagates."""

    def test_too_few_effective_samples_is_a_numerical_error(self):
        assert issubclass(TooFewSamples, NumericalError) and not issubclass(TooFewSamples, ValueError)
        with pytest.raises(TooFewSamples, match="need at least 3 effective samples"):
            weighted_corr(np.arange(2.0), np.arange(2.0), np.ones(2))
        with pytest.raises(TooFewSamples, match="need at least 5 effective samples"):
            detect_point_mass(np.arange(4.0), np.ones(4))

    def test_uncomputable_correlation_is_not_significant(self):
        assert not mvdist._significant(np.arange(2.0), np.arange(2.0), np.ones(2), PipelineConfig())
        assert not mvdist._significant(np.ones(10), np.arange(10.0), np.ones(10), PipelineConfig())

    def test_shape_bug_propagates(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = x + rng.normal(0, 0.1, 50)
        assert mvdist._significant(x, y, np.ones(50), PipelineConfig())
        with pytest.raises(ValueError):
            mvdist._significant(x, y[:40], np.ones(50), PipelineConfig())

    def test_value_error_in_planning_propagates(self, monkeypatch):
        def shape_bug(*args, **kwargs):
            raise ValueError("shape bug")

        monkeypatch.setattr(mvdist, "detect_point_mass", shape_bug)
        with pytest.raises(ValueError, match="shape bug"):
            build_all(ground_truth_corpus(seed=31, counts=(40, 60, 40)))


class TestDecorrelate:
    def test_linear_dependence_removed(self):
        rng = np.random.default_rng(4)
        pm = np.where(rng.random(400) < 0.4, 0.0, rng.gamma(2, 1, 400))
        x = 2.0 * pm + rng.normal(0, 0.5, 400)
        w = np.ones(400)
        resid, spec = decorrelate(x, pm[:, None], w, ["tau_s"], parameter="v_c")
        r, _ = weighted_corr(resid, pm, w)
        assert abs(r) < 0.05
        assert spec.coefficients["tau_s"] == pytest.approx(2.0, abs=0.1)

    def test_exact_linearity_gives_zero_residual(self):
        pm = np.linspace(0, 3, 60)
        x = -1.5 + 0.75 * pm
        resid, spec = decorrelate(x, pm[:, None], np.ones(60), ["tau_s"])
        assert np.abs(resid).max() < 1e-9
        assert spec.intercept == pytest.approx(-1.5, abs=1e-9)

    def test_independent_input_centered(self):
        rng = np.random.default_rng(5)
        pm = rng.gamma(2, 1, 500)
        x = rng.normal(3.0, 1.0, 500)
        resid, spec = decorrelate(x, pm[:, None], np.ones(500), ["tau_s"])
        assert spec.coefficients["tau_s"] == pytest.approx(0.0, abs=0.1)
        assert resid.mean() == pytest.approx(x.mean() - spec.predict({"tau_s": pm}).mean(), abs=1e-9)

    def test_collinear_point_mass_columns_warn_and_take_the_minimum_norm_fit(self, caplog):
        rng = np.random.default_rng(6)
        pm = np.where(rng.random(200) < 0.4, 0.0, rng.gamma(2, 1, 200))
        pm_matrix = np.column_stack([pm, 2.0 * pm])
        x = 1.0 + 0.5 * pm + rng.normal(0, 0.1, 200)
        w = rng.uniform(0.5, 2.0, 200)
        with caplog.at_level("WARNING", logger="leadkin.mvdist"):
            resid, spec = decorrelate(x, pm_matrix, w, ["tau_s", "tau_1"], parameter="v_c")
        assert "parameter v_c: collinear point-mass regressors, using minimum-norm solution" in caplog.text
        sw = np.sqrt(w)
        design = np.column_stack([np.ones(200), pm_matrix])
        beta = np.linalg.lstsq(design * sw[:, None], x * sw, rcond=None)[0]
        assert [spec.intercept, spec.coefficients["tau_s"], spec.coefficients["tau_1"]] == beta.tolist()
        assert spec.coefficients["tau_1"] == pytest.approx(2.0 * spec.coefficients["tau_s"], rel=1e-9)
        assert resid.tobytes() == (x - design @ beta).tobytes()
        caplog.clear()
        with caplog.at_level("WARNING", logger="leadkin.mvdist"):
            decorrelate(x, pm[:, None], w, ["tau_s"], parameter="v_c")
        assert not caplog.text


class TestSplitOnPointMass:
    def test_split_sides(self):
        events = [ev([1, -1, 0, 0.0, 2, 1], event_id=f"a{i}") for i in range(4)]
        events += [ev([1, -1, 0, 1.5, 2, 1], event_id=f"b{i}") for i in range(3)]
        table = dataset(events)
        at, off = (table.take(SplitCondition("tau_s", op, 0.0).mask(table)) for op in ("eq", "ne"))
        assert at.event_id.tolist() == ["a0", "a1", "a2", "a3"] and off.event_id.tolist() == ["b0", "b1", "b2"]


def v_c_hurdle(x):
    """The v_c marginal built for an S6 dataset in which only v_c varies,
    taking the values ``x``."""
    events = [ev([v, -3.0, 1.0, 0.0, 2.0, 1.0], event_id=f"h{i}") for i, v in enumerate(x)]
    (bundle,) = build_label(dataset(events), LABELS["S6"])
    return bundle.uncorrelated["v_c"]


class TestFitHurdle:
    def test_half_zeros_exponential(self):
        rng = np.random.default_rng(6)
        x = np.where(rng.random(4000) < 0.5, 0.0, rng.exponential(1.0, 4000))
        h = v_c_hurdle(x)
        assert h.mass_probability == pytest.approx(0.5, abs=0.02)
        assert h.continuous is not None
        # analytic MLE rate of the positive part
        positives = x[x > 0]
        grid = np.linspace(0.01, 8, 300)
        implied_mean = np.trapezoid(grid * np.exp(h.continuous.logpdf(grid)), grid)
        assert implied_mean == pytest.approx(positives.mean(), abs=0.06)

    def test_hurdle_without_continuous_part_decodes_and_samples(self):
        doc = bundles_to_json(ground_truth_bundles())
        s4 = next(b for b in doc["bundles"] if b["label"]["id"] == "S4")
        s4["uncorrelated"]["tau_s"]["continuous"] = None
        (bundle,) = [b for b in bundles_from_json(doc) if b.label.id == "S4"]
        assert bundle.uncorrelated["tau_s"].continuous is None
        assert (sample_submodel(bundle, 200, seed=np.random.default_rng(3))["tau_s"] == 0.0).all()

    def test_too_few_continuous_falls_back_to_exponential(self):
        x = np.concatenate([np.zeros(30), [1.0, 2.0, 1.5]])
        h = v_c_hurdle(x)
        assert h.continuous is not None
        assert h.continuous.family == "exponential"

    def test_sampling_respects_mass(self):
        rng = np.random.default_rng(7)
        x = np.where(rng.random(2000) < 0.3, 0.0, rng.gamma(2, 1, 2000))
        h = v_c_hurdle(x)
        draws = h.sample(np.random.default_rng(1), 20000)
        assert (draws == 0.0).mean() == pytest.approx(h.mass_probability, abs=0.02)


class TestNearestUnitCorrelation:
    def test_valid_matrix_untouched(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(nearest_unit_correlation(s), s)

    def test_invalid_matrix_repaired(self):
        s = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        fixed = nearest_unit_correlation(s)
        eigvals = np.linalg.eigvalsh(fixed)
        assert eigvals.min() >= -1e-10
        assert np.allclose(np.diag(fixed), 1.0)


class TestBuildSubmodels:
    def test_standstill_bundle_is_all_constant(self):
        events = [ev([0, 0, 0, 5, 0, 0], event_id=f"s{i}") for i in range(6)]
        (bundle,) = build_label(dataset(events), LABELS["S1"])
        assert bundle.constants == {
            "v_c": 0.0, "a1": 0.0, "a2": 0.0, "tau_s": 5.0, "tau_1": 0.0, "tau_2": 0.0
        }
        assert not bundle.uncorrelated and bundle.correlated is None

    def test_perfectly_correlated_pair_in_copula(self):
        rng = np.random.default_rng(8)
        x = rng.gamma(3, 1, 200)
        y = 2 * x + 1  # same ordering, r = 1, but not identical values
        events = [
            ev([x[i], -1.0 - y[i] * 0, -2.0, 0.0, y[i], 1.0 + 0 * i], event_id=f"e{i}")
            for i in range(200)
        ]
        # v_c and tau_1 carry the correlated pair; a1 constant -1, a2 constant -2
        (bundle,) = build_label(dataset(events), LABELS["S6"])
        assert bundle.correlated is not None
        assert set(bundle.correlated.names) == {"v_c", "tau_1"}
        off_diag = bundle.correlated.sigma[0, 1]
        assert off_diag == pytest.approx(1.0, abs=0.01)

    def test_roles_partition_parameters(self):
        ds = ground_truth_corpus(seed=77, counts=(40, 60, 40))
        for label, sub in categorize(ds).items():
            for bundle in build_label(sub, label):
                correlated = bundle.correlated.names if bundle.correlated else ()
                parts = [*bundle.constants, *bundle.copies, *correlated, *bundle.uncorrelated]
                assert sorted(parts) == sorted(PARAM_NAMES)

    def test_split_on_correlated_point_masses(self):
        bundles = build_label(dataset(entangled_masses()), LABELS["S6"])
        assert len(bundles) == 2
        split_params = {b.splits[0].parameter for b in bundles}
        assert len(split_params) == 1  # both sides split on the same parameter
        assert split_params.pop() in ("tau_s", "v_c")
        ops = sorted(b.splits[0].op for b in bundles)
        assert ops == ["eq", "ne"]
        assert sum(b.train_weight_share for b in bundles) == pytest.approx(1.0)

    @pytest.mark.parametrize("corpus", ["ground-truth", "split"])
    def test_build_all_equals_the_per_label_builds(self, corpus):
        """build_all fits every label's marginals in one batch; its model is
        the per-label builds' model, byte for byte."""
        if corpus == "ground-truth":
            ds = ground_truth_corpus(seed=31, counts=(40, 60, 40))
        else:  # a split S7 next to a plain S2
            ds = dataset(entangled_masses(steady=0.05) + steady_pattern(40, seed=4))
        labels = categorize(ds)
        assert len(labels) > 1
        one_by_one = [
            bundle for label, sub in labels.items()
            for bundle in build_label(sub, label, total_weight=float(ds.weight.sum()))
        ]
        assert len(one_by_one) > len(labels) or corpus == "ground-truth"
        assert json.dumps(bundles_to_json(build_all(ds))) == json.dumps(bundles_to_json(one_by_one))

    @pytest.mark.parametrize("failing", [("S2", "S6"), ("S6", "S2")], ids=["fit-first", "plan-first"])
    def test_first_failing_sub_dataset_decides_the_error(self, monkeypatch, failing):
        """With the fits of one sub-dataset failing and another too small to
        plan, build_all raises the error of the one first in label order."""
        no_fit, too_small = failing
        for name, spec in marginals._FAMILIES.items():
            monkeypatch.setitem(marginals._FAMILIES, name, spec._replace(start=lambda y, w: None))
        events = {"S2": steady_pattern, "S6": decreasing_pattern}
        ds = dataset(events[no_fit](40, seed=5) + events[too_small](3, seed=6))
        one_by_one = []
        for label, sub in categorize(ds).items():
            with pytest.raises(ModelBuildFailed) as raised:
                build_label(sub, label, total_weight=float(ds.weight.sum()))
            one_by_one.append(str(raised.value))
        with pytest.raises(ModelBuildFailed) as raised:
            build_all(ds)
        assert str(raised.value) == one_by_one[0]
        expected = "no family among" if no_fit == "S2" else "need at least 5 effective samples"
        assert str(raised.value).startswith(f"sub-dataset S2: {expected}")

    def test_round_trip_recovers_structure(self):
        ds = ground_truth_corpus(seed=2024, counts=(90, 120, 90))
        bundles = {b.label.id: b for b in build_all(ds)}
        assert set(bundles) == {"S2", "S4", "S7"}
        s2 = bundles["S2"]
        assert s2.constants == {"tau_s": 0.0, "tau_1": 5.0, "tau_2": 0.0}
        assert s2.copies == {"a2": "a1"}
        s4 = bundles["S4"]
        assert isinstance(s4.uncorrelated.get("tau_s"), HurdleDist)
        assert s4.uncorrelated["tau_s"].mass_probability == pytest.approx(0.4, abs=0.1)
        if s4.correlated is not None and set(s4.correlated.names) == {"a1", "a2"}:
            i = s4.correlated.names.index("a1")
            j = s4.correlated.names.index("a2")
            assert s4.correlated.sigma[i, j] == pytest.approx(0.5, abs=0.15)

    def test_json_round_trip(self):
        ds = ground_truth_corpus(seed=31, counts=(40, 60, 40))
        bundles = build_all(ds)
        docs = bundles_to_json(bundles)
        back = bundles_from_json(docs)
        assert len(back) == len(bundles)
        for a, b in zip(bundles, back):
            assert a.bundle_id == b.bundle_id
            assert a.constants == b.constants
            assert a.copies == b.copies
            assert a.train_weight_share == pytest.approx(b.train_weight_share)
            rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
            da = sample_submodel(a, 50, seed=rng_a)
            db = sample_submodel(b, 50, seed=rng_b)
            assert np.allclose(da.values, db.values)


def hand_built_model():
    """Two S4 bundles split on tau_s, between them using every part of the
    model document: an 'eq' and a 'ne' split, a transform, a hurdle with and
    without its continuous part, a correlated block, a copy and a marginal
    that was never scored (NaN aic)."""
    at_zero = SubmodelBundle(
        label=LABELS["S4"],
        splits=(SplitCondition("tau_s", "eq", 0.0),),
        constants={"tau_s": 0.0},
        copies={},
        transforms=(TransformSpec("a1", 0.25, {"v_c": -0.125}),),
        correlated=CorrelatedBlock(
            ("a1", "a2"),
            (FittedDist("skewnormal", {"a": 2.0, "loc": -1.0, "scale": 0.5}, loglik=-2.25),
             FittedDist("expnormal", {"k": 1.5, "loc": -3.0, "scale": 0.75}, loglik=-3.0)),
            np.array([[1.0, 0.4], [0.4, 1.0]]),
        ),
        uncorrelated={
            "v_c": HurdleDist(0.0, 0.3, FittedDist("gamma", {"shape": 2.0, "scale": 1.5}, AffinePre(-0.5, True), -2.0)),
            "tau_1": FittedDist("normal", {"loc": 2.0, "scale": 0.5}),
            "tau_2": HurdleDist(0.0, 0.5),
        },
        train_weight_share=0.625,
        train_weight=5.0,
    )
    moving = SubmodelBundle(
        label=LABELS["S4"],
        splits=(SplitCondition("tau_s", "ne", 0.0),),
        constants={"tau_1": 5.0, "tau_2": 0.0},
        copies={"a2": "a1"},
        transforms=(),
        correlated=None,
        uncorrelated={
            "v_c": FittedDist("exponential", {"scale": 2.0}, loglik=-1.0),
            "a1": FittedDist("normal", {"loc": -2.0, "scale": 1.0}, loglik=-1.0),
            "tau_s": FittedDist("gengamma", {"a": 2.0, "c": 0.5, "scale": 1.0}, loglik=-1.5),
        },
        train_weight_share=0.375,
        train_weight=3.0,
    )
    return [at_zero, moving]


class TestModelCodec:
    def test_every_bundle_part_round_trips(self, tmp_path):
        bundles = hand_built_model()
        assert [b.bundle_id for b in bundles] == ["S4[tau_s=0]", "S4[tau_s!=0]"]
        doc = bundles_to_json(bundles)
        write_json(tmp_path / "model.json", doc)
        back = bundles_from_json(read_json(tmp_path / "model.json", "model"))
        assert [b.bundle_id for b in back] == ["S4[tau_s=0]", "S4[tau_s!=0]"]
        # the documents, not the bundles: a NaN aic is never equal to itself
        assert json.dumps(bundles_to_json(back), sort_keys=True) == json.dumps(doc, sort_keys=True)
        assert doc["bundles"][0]["correlated"]["marginals"][0]["aic"] == 10.5  # 2 * 3 - 2 * -2.25

    def test_derived_fields_are_not_read(self):
        """A document whose aic contradicts its loglik, and whose hurdle
        names another column, reads; it re-encodes to the derived values."""
        doc = bundles_to_json(hand_built_model())
        edited = json.loads(json.dumps(doc))
        at_zero = edited["bundles"][0]
        at_zero["correlated"]["marginals"][0]["aic"] = -7.0
        at_zero["uncorrelated"]["v_c"]["continuous"]["aic"] = 123.0
        at_zero["uncorrelated"]["v_c"]["parameter"] = "tau_1"
        del at_zero["uncorrelated"]["tau_2"]["parameter"]
        back = bundles_from_json(edited)
        assert back[0].correlated.marginals[0].aic == 10.5
        assert json.dumps(bundles_to_json(back), sort_keys=True) == json.dumps(doc, sort_keys=True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b["splits"][0].update(op="lt"), "expected 'eq' or 'ne', got 'lt'"),
            (lambda b: b["splits"][0].update(parameter="speed"), "splits known ones"),
            (lambda b: b["transforms"][0]["coefficients"].update(tau_s=1.0), "transforms must read sampled"),
            (lambda b: b["label"].update(id="S9"), "unknown sub-dataset 'S9'"),
            (lambda b: b["uncorrelated"]["v_c"].update(mass_probability=-3),
             r"model.bundles\[0\].uncorrelated.v_c.mass_probability: must be in \[0, 1\], got -3.0"),
            (lambda b: b["uncorrelated"]["tau_2"].update(mass_probability=5),
             r"model.bundles\[0\].uncorrelated.tau_2.mass_probability: must be in \[0, 1\], got 5.0"),
            (lambda b: b["correlated"]["sigma"][1].__setitem__(1, 7.0),
             r"model.bundles\[0\].correlated.sigma: must have a unit diagonal and entries in \[-1, 1\]"),
            (lambda b: b["correlated"]["sigma"][0].__setitem__(0, 0.9999999999999999),
             r"model.bundles\[0\].correlated.sigma: must have a unit diagonal"),
            (lambda b: b["correlated"]["sigma"][0].__setitem__(1, -1.5),
             r"model.bundles\[0\].correlated.sigma: must have a unit diagonal and entries in \[-1, 1\]"),
        ],
        ids=["split-op-lt", "split-on-speed", "coefficient-of-a-constant", "label-S9", "mass-probability-negative",
             "mass-probability-above-1", "sigma-diagonal-7", "sigma-diagonal-below-1", "sigma-entry-below-minus-1"],
    )
    def test_malformed_part_is_an_input_error(self, edit, message):
        doc = bundles_to_json(hand_built_model())
        edit(doc["bundles"][0])
        with pytest.raises(InputError, match=message):
            bundles_from_json(doc)

    def test_range_bounds_and_asymmetric_last_bits_are_accepted(self):
        doc = bundles_to_json(hand_built_model())
        bundle = doc["bundles"][0]
        bundle["uncorrelated"]["v_c"]["mass_probability"] = 0.0
        bundle["uncorrelated"]["tau_2"]["mass_probability"] = 1.0
        bundle["correlated"]["sigma"] = [[1.0, -1.0], [np.nextafter(-1.0, 0.0), 1.0]]
        (back, _) = bundles_from_json(doc)
        assert back.uncorrelated["v_c"].mass_probability == 0.0
        assert back.uncorrelated["tau_2"].mass_probability == 1.0
        assert back.correlated.sigma.tolist() == bundle["correlated"]["sigma"]


class TestQuantileNormalitySanity:
    def test_normalized_moments(self):
        rng = np.random.default_rng(10)
        x = rng.gamma(2.5, 1.3, 1000)
        w = rng.uniform(0.5, 1.5, 1000)
        from leadkin.marginals import fit_univariate, quantile_normalize

        fitted = fit_univariate(x, w)
        z = quantile_normalize(x, fitted)
        assert effective_sample_size(w) >= 200
        mean = np.dot(w, z) / w.sum()
        sd = np.sqrt(np.dot(w, (z - mean) ** 2) / w.sum())
        assert abs(mean) < 0.1
        assert abs(sd - 1.0) < 0.1
