import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ks_reference
from groundtruth import ground_truth_corpus
from leadkin.errors import EmptyInput, EmptyReps, InputError
from leadkin.events import ParamTable
from leadkin.combine import Stage, WeightedDataset
from leadkin.config import PipelineConfig
from leadkin.validate import (
    bootstrap_robustness,
    describe,
    weighted_ecdf,
    weighted_ks_test,
)


class TestWeightedEcdf:
    def test_unit_weights(self):
        ecdf = weighted_ecdf([1.0, 2.0], [1.0, 1.0])
        assert ecdf.evaluate(1.0) == pytest.approx(0.5)
        assert ecdf.evaluate(2.0) == pytest.approx(1.0)

    def test_weighting(self):
        ecdf = weighted_ecdf([1.0, 2.0], [3.0, 1.0])
        assert ecdf.evaluate(1.0) == pytest.approx(0.75)

    def test_duplicate_values_merge(self):
        ecdf = weighted_ecdf([1.0, 1.0], [1.0, 1.0])
        assert ecdf.support.tolist() == [1.0]
        assert ecdf.cumulative.tolist() == [1.0]

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            weighted_ecdf([], [])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.lists(st.floats(min_value=0.01, max_value=10), min_size=30, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_normalized(self, values, weights):
        ecdf = weighted_ecdf(values, weights[: len(values)])
        assert (np.diff(ecdf.cumulative) >= -1e-12).all()
        assert ecdf.cumulative[-1] == pytest.approx(1.0, abs=1e-12)


class TestWeightedKs:
    def test_identical_samples(self):
        x = np.random.default_rng(0).normal(size=100)
        result = weighted_ks_test(x, None, x.copy(), None, config=PipelineConfig(n_perm=100), seed=1)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_supports(self):
        result = weighted_ks_test(
            np.arange(10.0), None, np.arange(10.0) + 100.0, None, config=PipelineConfig(n_perm=100), seed=1
        )
        assert result.statistic == 1.0
        assert result.p_value < 0.05

    def test_statistic_symmetry(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=80), rng.normal(0.5, 1, 60)
        wx, wy = rng.uniform(0.5, 2, 80), rng.uniform(0.5, 2, 60)
        a = weighted_ks_test(x, wx, y, wy, config=PipelineConfig(n_perm=10), seed=0)
        b = weighted_ks_test(y, wy, x, wx, config=PipelineConfig(n_perm=10), seed=0)
        assert a.statistic == b.statistic

    def test_weight_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=70), rng.normal(0.3, 1, 90)
        wx, wy = rng.uniform(0.5, 2, 70), rng.uniform(0.5, 2, 90)
        a = weighted_ks_test(x, wx, y, wy, config=PipelineConfig(n_perm=200), seed=9)
        b = weighted_ks_test(x, wx * 4.0, y, wy, config=PipelineConfig(n_perm=200), seed=9)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_weight_scale_invariance_general(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=70), rng.normal(0.3, 1, 90)
        wx, wy = rng.uniform(0.5, 2, 70), rng.uniform(0.5, 2, 90)
        a = weighted_ks_test(x, wx, y, wy, config=PipelineConfig(n_perm=200), seed=9)
        b = weighted_ks_test(x, wx * 13.7, y, wy * 0.003, config=PipelineConfig(n_perm=200), seed=9)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert a.p_value == b.p_value

    def test_null_rejection_rate(self):
        rejections = 0
        for trial in range(60):
            rng = np.random.default_rng(500 + trial)
            a, b = rng.normal(size=200), rng.normal(size=200)
            res = weighted_ks_test(a, None, b, None, config=PipelineConfig(n_perm=300), seed=trial)
            rejections += res.p_value < 0.10
        assert 0.02 <= rejections / 60 <= 0.20

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            weighted_ks_test(np.array([]), None, np.array([1.0]), None)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_weight_raises(self, bad):
        with pytest.raises(InputError, match="finite and positive"):
            weighted_ks_test([1.0, 2.0], [1.0, bad], [0.5, 3.0], None, config=PipelineConfig(n_perm=10))

    @pytest.mark.parametrize("wx, wy", [([1.0, 0.0, 2.0], None), (None, [0.0, 3.0])])
    def test_zero_weight_raises(self, wx, wy):
        # a permutation could leave a sample with no weight, and a NaN distance
        with pytest.raises(InputError, match="finite and positive"):
            weighted_ks_test([1.0, 2.0, 3.0], wx, [0.5, 3.0], wy, config=PipelineConfig(n_perm=10))


def _sample(draw, size, tied):
    if tied:  # a few levels, so values tie within and across the samples
        return [float(v) for v in draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))]
    return draw(st.lists(st.floats(-5, 5), min_size=size, max_size=size))


def _weights(draw, size):
    if not draw(st.booleans()):
        return None
    return draw(st.lists(st.sampled_from([0.25, 1.0, 1.7, 3.0]), min_size=size, max_size=size))


@st.composite
def ks_cases(draw):
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    tied = draw(st.booleans())
    return dict(
        x=_sample(draw, nx, tied),
        wx=_weights(draw, nx),
        y=_sample(draw, ny, tied),
        wy=_weights(draw, ny),
        n_perm=draw(st.sampled_from([1, 7, 255, 256, 257, 600])),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None)
@given(case=ks_cases())
def test_ks_matches_full_cumsum_reference(case):
    """Scoring each permutation from the smaller sample gives the statistic
    and p-value of the full-cumsum version (either sample the smaller,
    weights on neither, one or both sides, ties, one-element samples,
    n_perm not a multiple of the 256-permutation chunk)."""
    config = PipelineConfig(n_perm=case["n_perm"])
    new = weighted_ks_test(case["x"], case["wx"], case["y"], case["wy"], config=config, seed=case["seed"])
    assert new == ks_reference.weighted_ks_test(**case)


@pytest.mark.parametrize("sizes", [(36, 2000), (1000, 3000), (500, 80)])
def test_ks_matches_reference_at_pipeline_sizes(sizes):
    rng = np.random.default_rng(sum(sizes))
    x = np.round(rng.gamma(2.0, 1.0, sizes[0]), 2)  # rounded: ties, as tau_s and tau_2 have
    y = np.round(rng.gamma(2.1, 1.0, sizes[1]), 2)
    wx = rng.uniform(0.2, 3.0, sizes[0])
    for args in ((x, wx, y, None), (y, None, x, wx), (x, None, y, None)):
        assert weighted_ks_test(*args, config=PipelineConfig(n_perm=600), seed=5) == ks_reference.weighted_ks_test(
            *args, n_perm=600, seed=5
        )


class TestDescribe:
    def dataset(self, vectors, weights):
        events = ParamTable(vectors, weight=weights, event_id=[f"e{i}" for i in range(len(weights))])
        return WeightedDataset(events=events, stage=Stage.COMBINED_INCIDENT)

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 6))
        ds = self.dataset(vectors, np.ones(40))
        stats = describe(ds)
        assert stats["v_c"][0] == pytest.approx(vectors[:, 0].mean())
        assert stats["v_c"][1] == pytest.approx(vectors[:, 0].std(ddof=1))

    def test_weighted_mean(self):
        vectors = [[0, 0, 0, 0, 0, 0], [10, 0, 0, 0, 0, 0]]
        ds = self.dataset(vectors, [9.0, 1.0])
        assert describe(ds)["v_c"][0] == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            describe(WeightedDataset(events=ParamTable.from_rows([]), stage=Stage.COMBINED_INCIDENT))

    def test_merge_limit_case_preserves_descriptives(self):
        # attaching exact copies of each crash leaves every mean/SD in place
        from test_combine import crash_dataset, near_crash_like
        from leadkin.combine import merge_near_crashes

        rng = np.random.default_rng(8)
        crashes = crash_dataset(rng, n=12)
        ncs = ParamTable.from_rows(
            near_crash_like(c, f"nc-{i}", 0.0, rng)
            for i, c in enumerate(crashes.events)
        )
        merged, _ = merge_near_crashes(crashes, ncs)
        before = describe(crashes)
        after = describe(merged)
        for name in before:
            assert after[name][0] == pytest.approx(before[name][0], abs=0.05)
            assert after[name][1] == pytest.approx(before[name][1], abs=0.05)


class TestBootstrap:
    def test_zero_reps_raises(self):
        ds = ground_truth_corpus(seed=1, counts=(20, 30, 20))
        with pytest.raises(EmptyReps):
            bootstrap_robustness(ds, reps=0)

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"fractions": (1.5,)}, r"fractions must each be a number in \(0, 1\], got 1.5"),
            ({"n_synth": 2.5}, "n_synth must be an integer, got 2.5"),
            ({"n_synth": 0}, "n_synth must be >= 1"),
        ],
        ids=["fraction-above-1", "fractional-n_synth", "zero-n_synth"],
    )
    def test_arguments_outside_their_domain_raise_input_error(self, arguments, message):
        ds = ground_truth_corpus(seed=1, counts=(20, 30, 20))
        with pytest.raises(InputError, match=f"^{message}"):
            bootstrap_robustness(ds, **{"reps": 1, "n_reference": 200, **arguments})

    def test_stable_corpus_smoke(self):
        ds = ground_truth_corpus(seed=321, counts=(45, 60, 45))
        report = bootstrap_robustness(
            ds,
            fractions=(0.9,),
            reps=4,
            n_synth=400,
            n_reference=2000,
            config=PipelineConfig(alpha_ks=0.1, seed=5, n_perm=100),
        )
        assert report.reps == 4
        assert set(report.proportions[0.9].keys()) == {
            "v_c", "a1", "a2", "tau_s", "tau_1", "tau_2"
        }
        done = len(report.per_rep[0.9])
        assert done + report.failures[0.9] == 4
        for value in report.proportions[0.9].values():
            assert 0.0 <= value <= 1.0

    def test_alpha_permutations_and_seed_come_from_the_config(self):
        ds = ground_truth_corpus(seed=321, counts=(45, 60, 45))
        config = PipelineConfig(alpha_ks=0.05, seed=5, n_perm=100)
        runs = [
            bootstrap_robustness(ds, fractions=(0.9,), reps=2, n_synth=400, n_reference=2000, config=config)
            for _ in range(2)
        ]
        report = runs[0]
        assert report.alpha == 0.05
        assert report.per_rep == runs[1].per_rep  # seeded by config.seed
        outcomes = report.per_rep[0.9]
        assert outcomes
        for name, share in report.proportions[0.9].items():
            assert share == np.mean([rep[name] > 0.05 for rep in outcomes])
            # p = (1 + exceed) / (1 + n_perm) with n_perm = 100
            assert all(round(rep[name] * 101, 6).is_integer() for rep in outcomes)
