from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import profile_reference as polyline
from groundtruth import ground_truth_bundles
from leadkin.config import PipelineConfig
from leadkin.errors import InputError, RejectionCapExceeded
from leadkin.events import GRAVITY, PARAM_NAMES, EventParams, ParamTable
from leadkin.marginals import FittedDist
from leadkin.mvdist import (
    LABELS,
    CorrelatedBlock,
    HurdleDist,
    PointMassSpec,
    SplitCondition,
    SubmodelBundle,
)
from leadkin.pwl import extract_params
from leadkin.synth import (
    ConstraintSet,
    assemble_synthetic,
    filter_valid,
    params_to_profile,
    sample_submodel,
    speeds_at,
)


def row(vector):
    return EventParams("", *map(float, vector))


def constant_bundle():
    return SubmodelBundle(
        label=LABELS["S1"],
        splits=(),
        constants={"v_c": 0.0, "a1": 0.0, "a2": 0.0, "tau_s": 5.0, "tau_1": 0.0, "tau_2": 0.0},
        copies={},
        transforms=(),
        correlated=None,
        uncorrelated={},
        train_weight_share=1.0,
        train_weight=10.0,
    )


class TestSampleSubmodel:
    def test_constant_bundle_replicates(self):
        events = sample_submodel(constant_bundle(), 7, seed=0)
        assert len(events) == 7
        for vector in events.values:
            assert np.array_equal(vector, [0, 0, 0, 5, 0, 0])

    def test_independent_normal_mean(self):
        bundle = SubmodelBundle(
            label=LABELS["S2"],
            splits=(),
            constants={"a1": -1.0, "a2": -1.0, "tau_s": 0.0, "tau_1": 5.0, "tau_2": 0.0},
            copies={},
            transforms=(),
            correlated=None,
            uncorrelated={"v_c": FittedDist("normal", {"loc": 3.0, "scale": 1.0})},
            train_weight_share=1.0,
            train_weight=10.0,
        )
        events = sample_submodel(bundle, 10000, seed=42)
        values = np.array([e.v_c for e in events])
        assert values.mean() == pytest.approx(3.0, abs=0.05)

    def test_copula_rank_correlation(self):
        rho = 0.8
        bundle = SubmodelBundle(
            label=LABELS["S6"],
            splits=(),
            constants={"a1": -2.0, "a2": 1.0, "tau_s": 0.0, "tau_2": 1.0},
            copies={},
            transforms=(),
            correlated=CorrelatedBlock(
                names=("v_c", "tau_1"),
                marginals=(
                    FittedDist("gamma", {"shape": 2.0, "scale": 1.5}),
                    FittedDist("gamma", {"shape": 2.5, "scale": 0.6}),
                ),
                sigma=np.array([[1.0, rho], [rho, 1.0]]),
            ),
            uncorrelated={},
            train_weight_share=1.0,
            train_weight=10.0,
        )
        events = sample_submodel(bundle, 20000, seed=7)
        x = np.array([e.v_c for e in events])
        y = np.array([e.tau_1 for e in events])
        implied = 6 / np.pi * np.arcsin(rho / 2)  # Gaussian-copula Spearman
        assert spearmanr(x, y).statistic == pytest.approx(implied, abs=0.05)

    def test_deterministic_for_fixed_seed(self):
        bundle = ground_truth_bundles()[1]
        a = sample_submodel(bundle, 50, seed=99)
        b = sample_submodel(bundle, 50, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_transform_inverted_on_sampling(self):
        from leadkin.mvdist import HurdleDist, PointMassSpec, TransformSpec

        bundle = SubmodelBundle(
            label=LABELS["S6"],
            splits=(),
            constants={"a1": -2.0, "a2": 1.0, "tau_1": 2.0, "tau_2": 1.0},
            copies={},
            transforms=(TransformSpec("v_c", intercept=1.0, coefficients={"tau_s": 2.0}),),
            correlated=None,
            uncorrelated={
                "tau_s": HurdleDist(
                    PointMassSpec("tau_s", 0.0, 0.5),
                    FittedDist("gamma", {"shape": 2.0, "scale": 0.5}),
                ),
                "v_c": FittedDist("normal", {"loc": 0.0, "scale": 0.3}),
            },
            train_weight_share=1.0,
            train_weight=10.0,
        )
        events = sample_submodel(bundle, 20000, seed=5)
        v_c = np.array([e.v_c for e in events])
        tau_s = np.array([e.tau_s for e in events])
        # regression structure restored: v_c tracks 1 + 2 tau_s
        at_mass = tau_s == 0.0
        assert v_c[at_mass].mean() == pytest.approx(1.0, abs=0.05)
        slope = np.polyfit(tau_s[~at_mass], v_c[~at_mass], 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestFilterValid:
    def cs(self, label="S4"):
        bundle = ground_truth_bundles()[1]
        return ConstraintSet(bundle=bundle)

    def test_excessive_deceleration_rejected(self):
        e = row([5, -12.0, -13.0, 0, 2, 1])
        accepted, rejected = filter_valid(ParamTable.from_rows([e]), self.cs())
        assert not accepted
        assert rejected["physical"] == 1

    def test_wrong_pattern_rejected(self):
        e = row([5, 0.5, -1.0, 0, 2, 1])  # a1 > 0 cannot be S4
        accepted, rejected = filter_valid(ParamTable.from_rows([e]), self.cs())
        assert rejected["categorization"] == 1

    def test_negative_back_extension_rejected(self):
        # decelerating early segment extended back crosses below zero
        e = row([1.0, -1.0, 2.0, 0.0, 1.0, 1.0])
        # vertices: v(0)=1, v(-1)=2, v(-2)=0, back-extension at slope 2 to -5 -> negative
        assert speeds_at(ParamTable.from_rows([e]).values, [0.0, 1.0, 2.0, 5.0]).tolist() == [
            [1.0, 2.0, 0.0, -6.0]
        ]
        accepted, rejected = filter_valid(ParamTable.from_rows([e]), self.cs())
        assert rejected["physical"] == 1

    def test_negative_duration_rejected_as_range(self):
        e = row([5, -2, -3, -0.5, 2, 1])
        accepted, rejected = filter_valid(ParamTable.from_rows([e]), self.cs())
        assert rejected["range"] == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", range(len(PARAM_NAMES)))
    def test_non_finite_rejected_as_range(self, column, value):
        vector = [5, -2, -3, 0, 2, 1]
        vector[column] = value
        accepted, rejected = filter_valid(ParamTable.from_rows([row(vector)]), self.cs())
        assert not accepted and rejected["range"] == 1

    def test_tallies_are_exact(self):
        bundle = ground_truth_bundles()[1]
        draws = sample_submodel(bundle, 500, seed=3)
        accepted, rejected = filter_valid(draws, ConstraintSet(bundle=bundle))
        assert len(accepted) + sum(rejected.values()) == 500


def bundle_for(label, *splits):
    return SubmodelBundle(
        label=LABELS[label], splits=splits, constants={}, copies={}, transforms=(),
        correlated=None, uncorrelated={}, train_weight_share=1.0, train_weight=1.0,
    )


TAU_S_EQ_0 = SplitCondition("tau_s", "eq", 0.0)
TAU_S_NE_0 = SplitCondition("tau_s", "ne", 0.0)

# a deliberately loose bundle, so every rejection reason occurs
LOOSE_S4 = SubmodelBundle(
    label=LABELS["S4"], splits=(TAU_S_EQ_0,), constants={}, copies={}, transforms=(),
    correlated=None,
    uncorrelated={
        "v_c": FittedDist("normal", {"loc": 4.0, "scale": 4.0}),
        "a1": FittedDist("normal", {"loc": -2.0, "scale": 5.0}),
        "a2": FittedDist("normal", {"loc": -4.0, "scale": 5.0}),
        "tau_s": HurdleDist(
            PointMassSpec("tau_s", 0.0, 0.6), FittedDist("normal", {"loc": 1.0, "scale": 1.0})
        ),
        "tau_1": FittedDist("normal", {"loc": 2.0, "scale": 1.0}),
        "tau_2": FittedDist("normal", {"loc": 1.5, "scale": 1.0}),
    },
    train_weight_share=1.0, train_weight=1.0,
)


class TestConstraintBoundaries:
    @pytest.mark.parametrize(
        "bundle, vector, reason",
        [
            (bundle_for("S2"), [60.0, -GRAVITY, -GRAVITY, 0.0, 5.0, 0.0], None),  # |a1| == g
            (bundle_for("S2"), [60.0, -np.nextafter(GRAVITY, 20.0), -2.0, 0.0, 5.0, 0.0], "physical"),
            (bundle_for("S4"), [5.0, -1.0, -GRAVITY, 0.0, 2.0, 2.0], None),  # |a2| == g
            (bundle_for("S2"), [5.0, -1.0, -1.0, -0.1, 2.0, 0.0], "range"),  # negative tau_s
            (bundle_for("S2"), [5.0, -1.0, -1.0, 0.0, 2.0, -1e-300], "range"),  # negative tau_2
            (bundle_for("S2"), [-1e-9, 0.0, 0.0, 5.0, 0.0, 0.0], "range"),  # negative v_c
            (bundle_for("S2"), [5.0, 20.0, 20.0, -1.0, 2.0, 0.0], "range"),  # range before |a| > g
            (bundle_for("S2"), [10.0, 2.0, 2.0, 0.0, 5.0, 0.0], None),  # min speed exactly 0 at -5 s
            (bundle_for("S2"), [0.0, -2.0, -2.0, 0.0, 5.0, 0.0], None),  # min speed exactly 0 at 0 s
            (bundle_for("S2"), [9.5, 2.0, 2.0, 0.0, 5.0, 0.0], "physical"),  # below 0 at -5 s
            (bundle_for("S1"), [0.0, 0.0, 0.0, 5.0, 0.0, 0.0], None),
            (bundle_for("S2"), [0.0, 0.0, 0.0, 5.0, 0.0, 0.0], "categorization"),  # standstill is S1
            (bundle_for("S5"), [5.0, 0.0, -4.0, 0.0, 2.0, 2.0], None),  # a1 == 0 closes into S5
            (bundle_for("S4"), [5.0, 0.0, -4.0, 0.0, 2.0, 2.0], "categorization"),
            (bundle_for("S4", TAU_S_EQ_0), [5.0, -1.0, -4.0, 0.0, 2.0, 2.0], None),
            (bundle_for("S4", TAU_S_EQ_0), [5.0, -1.0, -4.0, 1.0, 2.0, 2.0], "categorization"),
            (bundle_for("S4", TAU_S_NE_0), [5.0, -1.0, -4.0, 1.0, 2.0, 2.0], None),
            (bundle_for("S4", TAU_S_NE_0), [5.0, -1.0, -4.0, 0.0, 2.0, 2.0], "categorization"),
        ],
    )
    def test_row_and_table_agree(self, bundle, vector, reason):
        constraints = ConstraintSet(bundle=bundle)
        assert constraints.rejection_reason(row(vector)) == reason
        # the same row inside a table, between two rows that fail differently
        table = ParamTable.from_rows([row([-1, 0, 0, 0, 0, 0]), row(vector), row([5, 99, 0, 0, 5, 0])])
        assert constraints.rejection_reasons(table).tolist() == ["range", reason or "", "physical"]

    def test_sampled_batch_matches_per_row_reasons(self):
        bundle = LOOSE_S4
        constraints = ConstraintSet(bundle=bundle)
        draws = sample_submodel(bundle, 1000, seed=17)
        accepted, tally = filter_valid(draws, constraints)
        per_row = [constraints.rejection_reason(e) for e in draws]
        assert list(accepted) == [e for e, r in zip(draws, per_row) if r is None]
        assert tally == Counter(r for r in per_row if r is not None)
        assert set(tally) == {"range", "physical", "categorization"} and len(accepted) > 0


class TestAssemble:
    def test_even_split(self):
        braking_line = {"v_c": 5.0, "a1": -2.0, "a2": -2.0, "tau_s": 0.0, "tau_1": 5.0, "tau_2": 0.0}
        bundles = [
            SubmodelBundle(
                label=LABELS["S1"], splits=(), constants=constant_bundle().constants,
                copies={}, transforms=(), correlated=None, uncorrelated={},
                train_weight_share=0.5, train_weight=5.0,
            ),
            SubmodelBundle(
                label=LABELS["S2"], splits=(), constants=braking_line,
                copies={}, transforms=(), correlated=None, uncorrelated={},
                train_weight_share=0.5, train_weight=5.0,
            ),
        ]
        ds, rejections = assemble_synthetic(bundles, 10, seed=0)
        assert ds.bundle_ids == ("S1",) * 5 + ("S2",) * 5
        assert rejections == {b: {"range": 0, "physical": 0, "categorization": 0} for b in ("S1", "S2")}

    def test_largest_remainder_apportionment(self):
        shares = np.array([25.5, 10.5, 10.2, 15.7, 4.6, 13.3, 20.2]) / 100.0
        from leadkin.synth import _apportion

        counts = _apportion(shares, 10000)
        assert counts.tolist() == [2550, 1050, 1020, 1570, 460, 1330, 2020]

    def test_rejection_cap(self):
        # constants violate the label's own categorization: everything rejected
        bundle = SubmodelBundle(
            label=LABELS["S4"], splits=(),
            constants={"v_c": 5.0, "a1": 1.0, "a2": -1.0, "tau_s": 0.0, "tau_1": 2.0, "tau_2": 1.0},
            copies={}, transforms=(), correlated=None, uncorrelated={},
            train_weight_share=1.0, train_weight=10.0,
        )
        with pytest.raises(RejectionCapExceeded):
            assemble_synthetic([bundle], 10, seed=0)

    def test_all_outputs_pass_filter(self):
        bundles = ground_truth_bundles()
        ds, _ = assemble_synthetic(bundles, 600, seed=11)
        assert len(ds.events) == 600
        for bundle in bundles:
            n = Counter(ds.bundle_ids)[bundle.bundle_id]
            chunk = ds.events.take(np.array(ds.bundle_ids) == bundle.bundle_id)
            accepted, rejected = filter_valid(chunk, ConstraintSet(bundle=bundle))
            assert len(accepted) == n and not sum(rejected.values())

    def test_determinism(self):
        bundles = ground_truth_bundles()
        (a, tallies_a), (b, tallies_b) = (assemble_synthetic(bundles, 200, seed=21) for _ in range(2))
        assert np.array_equal(a.events.values, b.events.values)
        assert tallies_a == tallies_b


def profile_of(vector, dt):
    [profile] = params_to_profile(ParamTable.from_rows([row(vector)]), config=PipelineConfig(profile_dt=dt))
    return profile


class TestParamsToProfile:
    def test_hand_kinematics(self):
        profile = profile_of([5, -3, 2, 1, 2, 2], dt=0.5)
        v = dict(zip(np.round(profile.times, 6), profile.speeds))
        assert v[0.0] == pytest.approx(5.0)
        assert v[-1.0] == pytest.approx(5.0)
        assert v[-3.0] == pytest.approx(11.0)
        assert v[-5.0] == pytest.approx(7.0)

    def test_constant_speed(self):
        profile = profile_of([8, 0, 0, 5, 0, 0], dt=0.1)
        assert np.allclose(profile.speeds, 8.0)
        assert profile.times.size == 51

    def test_round_trip_extraction_exact(self):
        vec = [5.0, -3.0, 2.0, 1.0, 2.0, 2.0]  # knots 0, 1, 3 and 5 s before time zero
        s = np.array([5.0, 3.0, 1.0, 0.0])
        vs = speeds_at(np.array([vec]), s)[0]
        from test_pwl import fit_from_vertices

        params = EventParams("", *extract_params(fit_from_vertices(-s, vs)))
        assert np.allclose([getattr(params, name) for name in PARAM_NAMES], vec, atol=1e-9)

    def test_truncation_beyond_window(self):
        profile = profile_of([2, -1, -4, 1, 3, 3], dt=0.1)
        assert profile.times[0] == pytest.approx(-5.0)
        assert profile.times.size == 51
        # vertex at -(1+3) = -4 has v = 2 + 3 = 5; slope -4 continues to -5
        idx = np.argmin(np.abs(profile.times + 4.0))
        assert profile.speeds[idx] == pytest.approx(5.0)
        assert profile.speeds[0] == pytest.approx(9.0)

    def test_every_row_with_its_provenance(self):
        table = ParamTable(
            [[5, -3, 2, 1, 2, 2], [8, 0, 0, 5, 0, 0]], event_id=["a", "b"],
            source_group=[None, "SHRP2_nc"], severity=["None", None],
        )
        profiles = params_to_profile(table, config=PipelineConfig(profile_dt=0.25))
        assert [p.event_id for p in profiles] == ["a", "b"]
        for p, expected in zip(profiles, table):
            reference = polyline.params_to_profile(expected, dt=0.25)
            assert np.array_equal(p.times, reference.times)
            assert np.allclose(p.speeds, reference.speeds, rtol=0, atol=1e-12)

    def test_empty_table(self):
        assert params_to_profile(ParamTable.from_rows([]), config=PipelineConfig(profile_dt=0.1)) == []

    def test_non_positive_dt_raises(self):
        table = ParamTable.from_rows([row([8, 0, 0, 5, 0, 0])])
        with pytest.raises(InputError, match="config field profile_dt must be >= 0.001, got 0.0"):
            params_to_profile(table, config=PipelineConfig(profile_dt=0.0))


# --- the closed form against the per-row polyline ----------------------------------

quarters = st.integers(0, 24).map(lambda k: k / 4)  # dyadic: the arithmetic of both is exact


@st.composite
def parameter_rows(draw):
    """Six parameters with absent phases (tau_1 = 0, tau_2 = 0) and phases
    running past -5 s both common."""
    duration = st.one_of(st.just(0.0), st.floats(0.0, 8.0), quarters)
    slope = st.one_of(st.just(0.0), st.floats(-12.0, 12.0), quarters.map(lambda q: q - 3.0))
    return [draw(st.floats(0.0, 40.0)), draw(slope), draw(slope),
            draw(duration), draw(duration), draw(duration)]


@st.composite
def zero_at_knot(draw):
    """Rows whose speed is exactly 0 at the knot tau_s + tau_1 and rises
    before it: v_c = a1 tau_1, with a2 <= 0."""
    within = st.integers(0, 10).map(lambda k: k / 4)  # tau_s + tau_1 <= 5
    a1, tau_1, tau_s = draw(quarters.filter(bool)), draw(within.filter(bool)), draw(within)
    tau_2 = draw(quarters.filter(bool)) if tau_s + tau_1 < 5.0 else draw(quarters)
    return [a1 * tau_1, a1, -draw(quarters), tau_s, tau_1, tau_2]


def oracle_speeds(vector, s):
    ts, vs = polyline._profile_vertices(*vector)
    return np.interp(-np.asarray(s), ts, vs)


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(parameter_rows() | zero_at_knot(), min_size=1, max_size=8),
       s=st.lists(st.floats(0.0, 5.0), max_size=6))
def test_speeds_at_matches_polyline(rows, s):
    """On a dt grid, at arbitrary times and at every knot, the closed form is
    the polyline to 1e-12 relative to max(1, |v|)."""
    values = np.array(rows)
    knots = [0.0, *polyline._profile_vertices(*rows[0])[0].tolist()]
    grid = 5.0 - 0.1 * np.arange(51)
    for times in (grid, np.array(s), -np.array(knots)):
        got = speeds_at(values, times)
        want = np.array([oracle_speeds(vector, times) for vector in rows]).reshape(got.shape)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(parameter_rows() | zero_at_knot(), min_size=1, max_size=8))
def test_speed_check_matches_polyline(rows):
    """The speed check takes the minimum at the window-clipped knots; where
    the polyline's minimum is not within round-off of 0 (and on the exact
    zero-at-a-knot rows), the rejection reasons are the oracle's."""
    bundle = bundle_for("S2")
    table = ParamTable(rows)
    got = ConstraintSet(bundle=bundle).rejection_reasons(table)
    want = polyline.rejection_reasons(bundle, table)
    for vector, reason, expected in zip(rows, got, want):
        minimum = polyline.min_profile_speed(vector)
        if abs(minimum) > 1e-12 * max(1.0, *map(abs, vector)) or minimum == 0.0:
            assert reason == expected, (vector, minimum)


@settings(max_examples=50, deadline=None)
@given(row_=zero_at_knot())
def test_exact_zero_minimum_at_a_knot_is_accepted(row_):
    v_c, a1, a2, tau_s, tau_1, tau_2 = row_
    values = np.array([row_])
    assert speeds_at(values, [tau_s + tau_1])[0, 0] == 0.0 == polyline.min_profile_speed(row_)
    assert ConstraintSet(bundle=bundle_for("S2")).rejection_reasons(ParamTable(values)).tolist() == (
        polyline.rejection_reasons(bundle_for("S2"), ParamTable(values)).tolist()
    )


@pytest.mark.parametrize("seed", range(3))
def test_rejection_reasons_match_polyline_on_sampled_bundles(seed):
    for bundle in [*ground_truth_bundles(), LOOSE_S4]:
        draws = sample_submodel(bundle, 2000, seed=seed)
        got = ConstraintSet(bundle=bundle).rejection_reasons(draws)
        assert got.tolist() == polyline.rejection_reasons(bundle, draws).tolist()
