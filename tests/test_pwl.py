import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

import pwl_reference as scalar
from groundtruth import recovery_corpus
from leadkin import pwl
from leadkin.config import PipelineConfig
from leadkin.events import EventParams, ParamTable, SpeedProfile
from leadkin.pwl import (
    PwlFit,
    _breakpoint_bounds,
    _polish_breakpoints,
    _sse_batch,
    _wls,
    enforce_nonnegative,
    extract_params,
    fit_candidates,
    fit_event,
    loss,
    sample_weights,
)
from leadkin.synth import params_to_profile

GRID = np.round(np.arange(-5.0, 0.01, 0.1), 10)


def profile(speeds, times=GRID):
    speeds = np.asarray(speeds, dtype=float)
    return SpeedProfile("p", times, speeds)


def fit_from_vertices(ts, vs):
    return PwlFit(tuple(map(float, ts)), tuple(map(float, vs)), r_squared=1.0, r_squared_adj=1.0)


class TestSampleWeights:
    def test_time_zero(self):
        assert sample_weights([0.0])[0] == pytest.approx(3.1623, abs=1e-4)

    def test_window_start(self):
        assert sample_weights([-5.0])[0] == pytest.approx(0.4428, abs=1e-4)

    def test_crash_cutoff(self):
        assert sample_weights([-0.3])[0] == pytest.approx(1.5811, abs=1e-4)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            sample_weights([0.2])


class TestFitCandidates:
    def test_exact_line(self):
        cands = fit_candidates([profile(2 * GRID + 12)], PipelineConfig())[0]
        c0 = cands[0]
        assert c0.n_b == 0
        assert c0.slopes()[0] == pytest.approx(2.0, abs=1e-9)
        assert c0.predict(0.0) == pytest.approx(12.0, abs=1e-9)
        assert c0.r_squared == pytest.approx(1.0)

    def test_standstill_r_squared_convention(self):
        c0 = fit_candidates([profile(np.zeros(GRID.size))], PipelineConfig())[0][0]
        assert c0.slopes()[0] == 0.0
        assert c0.r_squared == 1.0  # zero residual on constant data

    def test_constant_with_noise_r_squared_zero(self):
        rng = np.random.default_rng(0)
        v = np.full(GRID.size, 4.0)
        v[::7] += 1e-6  # constant to the fit, but not exactly
        c0 = fit_candidates([profile(v)], PipelineConfig())[0][0]
        assert 0.0 <= c0.r_squared <= 1.0

    def test_breakpoint_recovery_with_grid_oracle(self):
        rng = np.random.default_rng(42)
        true_b = -2.0
        v = np.where(GRID <= true_b, 8.0 - 4.0 * (GRID - true_b), 8.0)
        v = v + rng.normal(0, 0.05, GRID.size)
        p = profile(v)
        cands = fit_candidates([p], PipelineConfig(), [np.random.default_rng(1)])[0]
        c1 = [c for c in cands if c.n_b == 1][0]

        # oracle: brute-force scan over breakpoint locations
        sw = np.sqrt(sample_weights(GRID))
        best_b, best_sse = None, np.inf
        for b in np.arange(-4.5, -0.5, 0.01):
            X = np.column_stack([np.ones_like(GRID), GRID, np.maximum(GRID - b, 0)])
            coef, *_ = np.linalg.lstsq(X * sw[:, None], v * sw, rcond=None)
            sse = np.sum((sw * (v - X @ coef)) ** 2)
            if sse < best_sse:
                best_b, best_sse = b, sse
        assert c1.breakpoints[0] == pytest.approx(best_b, abs=0.05)
        assert c1.breakpoints[0] == pytest.approx(true_b, abs=0.1)


class TestLoss:
    def test_zero_breakpoints_is_negative_r_squared(self):
        c = fit_from_vertices([-5, 0], [10, 5])
        c = replace(c, r_squared=0.93)
        assert loss(c, profile(np.linspace(10, 5, GRID.size))) == pytest.approx(-0.93)

    def test_standstill_penalty_is_epsilon(self):
        cfg = PipelineConfig()
        c = replace(fit_from_vertices([-5, -2, 0], [0, 0, 0]), r_squared=1.0)
        p = profile(np.zeros(GRID.size))
        assert loss(c, p, cfg) == pytest.approx(cfg.epsilon * 1 - 1.0)

    def test_worked_example(self):
        # max v 20, range 10, two breakpoints, r^2 0.95
        v = np.linspace(10, 20, GRID.size)
        c = replace(fit_from_vertices([-5, -3, -1, 0], [10, 14, 18, 20]), r_squared=0.95)
        cfg = PipelineConfig()
        expected = (1e-6 + 0.006 * 20.0 / (10.0 + 1e-6)) * 2 - 0.95
        assert loss(c, profile(v), cfg) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.926, abs=1e-3)


class TestFitEventsSelection:
    """``fit_events`` keeps the least-loss candidate, the fewer breakpoints
    on a tie; ``pwl.loss`` is replaced by a table of losses by n_b."""

    @staticmethod
    def chosen(monkeypatch, losses, p):
        monkeypatch.setattr(pwl, "loss", lambda c, profile, config: losses[c.n_b])
        [fit] = pwl.fit_events([p], PipelineConfig(), [np.random.default_rng(2)])
        [cands] = fit_candidates([p], PipelineConfig(), [np.random.default_rng(2)])
        assert fit in cands
        return fit.n_b

    @pytest.fixture
    def sloped(self):
        rng = np.random.default_rng(9)
        v = np.where(GRID <= -2.0, 8.0 - 4.0 * (GRID + 2.0), 8.0) + rng.normal(0, 0.05, GRID.size)
        p = profile(v)
        assert [c.n_b for c in fit_candidates([p], PipelineConfig(), [np.random.default_rng(2)])[0]] == [0, 1, 2, 3]
        return p

    def test_least_loss_wins(self, monkeypatch, sloped):
        assert self.chosen(monkeypatch, [-0.99, -0.95, -0.90, -0.85], sloped) == 0
        assert self.chosen(monkeypatch, [-0.5, -0.9, -0.95, -0.85], sloped) == 2

    def test_tie_prefers_fewer_breakpoints(self, monkeypatch, sloped):
        assert self.chosen(monkeypatch, [-0.5, -0.95, -0.95, -0.85], sloped) == 1
        assert self.chosen(monkeypatch, [0.0] * 4, sloped) == 0

    def test_single_candidate(self, monkeypatch):
        t = np.array([-0.2, -0.1, 0.0])  # no room for a breakpoint
        p = SpeedProfile("p", t, np.array([5.0, 4.0, 3.5]))
        assert self.chosen(monkeypatch, [-0.7], p) == 0


class TestEnforceNonnegative:
    def test_noop_when_nonnegative(self):
        fit = fit_from_vertices([-5, -2, 0], [10, 4, 4])
        assert enforce_nonnegative(fit) is fit

    def test_line_crossing_zero_clamped_at_end(self):
        # v(t) = -2t - 2 crosses zero at t = -1, negative at t = 0
        fit = fit_from_vertices([-5, 0], [8, -2])
        repaired = enforce_nonnegative(fit)
        assert repaired.modified_for_nonnegativity
        assert repaired.breakpoints == pytest.approx([-1.0])
        assert repaired.predict(0.0) == 0.0
        assert repaired.predict(-0.5) == 0.0
        assert repaired.predict(-5.0) == pytest.approx(8.0)

    def test_negative_start_clamped(self):
        fit = fit_from_vertices([-5, 0], [-2, 8])
        repaired = enforce_nonnegative(fit)
        assert repaired.predict(-5.0) == 0.0
        assert repaired.predict(-4.5) == 0.0
        assert repaired.predict(0.0) == pytest.approx(8.0)

    def test_interior_breakpoint_raised_to_zero(self):
        fit = fit_from_vertices([-5, -2, 0], [2, -0.3, 1])
        repaired = enforce_nonnegative(fit)
        ts, vs = repaired.vertices()
        assert vs.min() >= -1e-12
        assert repaired.predict(-2.0) == pytest.approx(0.0, abs=1e-12)

    def test_crossing_at_an_existing_knot(self):
        # v(-2) = 0 exactly, so the start-side crossing lands on that knot
        repaired = enforce_nonnegative(fit_from_vertices([-5, -2, 0], [-2, 0, 4]))
        assert repaired.n_b == 1
        assert [a.tolist() for a in repaired.vertices()] == [[-5.0, -2.0, 0.0], [0.0, 0.0, 4.0]]

    def test_collinear_pieces_merge_after_an_interior_clamp(self):
        # clamping v(-3) to zero leaves two zero pieces, [-5, -3] and [-3, -2]
        repaired = enforce_nonnegative(fit_from_vertices([-5, -3, -2, 0], [0, -1, 0, 2]))
        assert repaired.n_b == 1
        assert [a.tolist() for a in repaired.vertices()] == [[-5.0, -2.0, 0.0], [0.0, 0.0, 2.0]]

    @given(
        st.lists(st.floats(min_value=-3, max_value=12), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_repaired_minimum_on_millisecond_grid(self, values):
        ts = np.linspace(-5.0, 0.0, len(values))
        fit = fit_from_vertices(ts, values)
        repaired = enforce_nonnegative(fit)
        grid = np.arange(-5.0, 0.0, 0.001)
        assert repaired.predict(grid).min() >= -1e-9


class TestExtractParams:
    def test_three_segments(self):
        fit = fit_from_vertices([-5, -3, -1, 0], [1, 5, 5 - 3 * -2, 5])
        # slopes: (5-1)/2 = 2 on [-5,-3]; then -3 on [-3,-1]; flat at 5 on [-1,0]
        fit = fit_from_vertices([-5, -3, -1, 0], [7, 11, 5, 5])
        params = EventParams("", *extract_params(fit))
        assert params.v_c == pytest.approx(5.0)
        assert params.a1 == pytest.approx(-3.0)
        assert params.a2 == pytest.approx(2.0)
        assert params.tau_s == pytest.approx(1.0)
        assert params.tau_1 == pytest.approx(2.0)
        assert params.tau_2 == pytest.approx(2.0)

    def test_constant_speed(self):
        params = EventParams("", *extract_params(fit_from_vertices([-5, 0], [8, 8])))
        assert (
            params.v_c,
            params.a1,
            params.a2,
            params.tau_s,
            params.tau_1,
            params.tau_2,
        ) == (8, 0, 0, 5, 0, 0)

    def test_single_braking_line(self):
        params = EventParams("", *extract_params(fit_from_vertices([-5, 0], [11, 1])))
        assert params.v_c == pytest.approx(1.0)
        assert params.a1 == pytest.approx(-2.0)
        assert params.a2 == pytest.approx(-2.0)
        assert params.tau_s == 0.0
        assert params.tau_1 == pytest.approx(5.0)
        assert params.tau_2 == 0.0

    def test_four_segments_drops_earliest(self):
        fit = fit_from_vertices([-5, -4, -2.5, -1, 0], [3, 7, 2, 6, 6])
        params = EventParams("", *extract_params(fit))
        assert params.tau_s == pytest.approx(1.0)
        assert params.tau_1 == pytest.approx(1.5)
        assert params.tau_2 == pytest.approx(1.5)

    def test_reconstruction_consistency(self):
        fit = fit_from_vertices([-5, -3, -1, 0], [7, 11, 5, 5])
        params = EventParams("", *extract_params(fit))
        [rebuilt] = params_to_profile(ParamTable.from_rows([params]), config=PipelineConfig(profile_dt=0.05))
        predicted = fit.predict(rebuilt.times)
        assert np.abs(rebuilt.speeds - predicted).max() < 1e-9


@st.composite
def hinge_coefficients(draw):
    """Hinge coefficients (beta0, beta1, gamma_1..k) and k sorted
    breakpoints in [-4.85, -0.15], at least 0.25 s apart as at 10 Hz."""
    k = draw(st.integers(0, 5))
    coef = draw(st.lists(st.floats(-20.0, 20.0), min_size=2 + k, max_size=2 + k))
    offsets = draw(st.lists(st.floats(0.0, 4.7 - 0.25 * max(k - 1, 0)), min_size=k, max_size=k))
    return np.array(coef), -4.85 + np.sort(offsets) + 0.25 * np.arange(k)


class TestKnotsFromCoefficients:
    """``_build_fit``'s knots against the coefficient-to-segment conversion
    kept in ``tests/pwl_reference.py``."""

    @given(hinge_coefficients())
    @settings(max_examples=200, deadline=None)
    def test_knots_are_the_segment_vertices(self, drawn):
        """Knot speeds are bit-equal to the segment lines' values.  A slope
        from knot differences is within 4 eps M / dt of the coefficient
        sum, M the largest 5 |slope| + |intercept| of a segment: each knot
        speed rounds a few terms no larger than M, then the difference is
        divided by the piece's duration dt.  The floor ``tiny`` covers
        products that underflow."""
        coef, bks = drawn
        fit = pwl._build_fit(coef, bks, np.array([0.0, 1.0]), np.ones(2), 0.0, 2)
        segments = scalar.segments_from_coef(coef, bks)
        ts, vs = scalar.vertices(segments)
        assert np.array(fit.times).tobytes() == ts.tobytes()
        assert np.array(fit.speeds).tobytes() == vs.tobytes()
        slope, intercept = np.array([s[2:] for s in segments]).T
        scale = np.max(5.0 * np.abs(slope) + np.abs(intercept))
        tol = 4 * np.finfo(float).eps * scale / np.diff(ts) + np.finfo(float).tiny
        assert np.all(np.abs(fit.slopes() - slope) <= tol)

    @given(hinge_coefficients())
    @settings(max_examples=200, deadline=None)
    def test_params_of_built_and_repaired_fits(self, drawn):
        fit = pwl._build_fit(*drawn, np.array([0.0, 1.0]), np.ones(2), 0.0, 2)
        for f in (fit, enforce_nonnegative(fit)):
            v_c, a1, a2, tau_s, tau_1, tau_2 = extract_params(f)
            assert tau_s + tau_1 + tau_2 <= 5.0 + 1e-12
            if tau_2 == 0.0:
                assert a2 == a1


class TestSelection:
    def test_monotone_penalty_never_increases_breakpoints(self):
        rng = np.random.default_rng(9)
        v = np.where(GRID <= -2.0, 8.0 - 4.0 * (GRID + 2.0), 8.0)
        v += rng.normal(0, 0.05, GRID.size)
        p = profile(v)
        cands = fit_candidates([p], PipelineConfig(), [np.random.default_rng(2)])[0]
        previous = None
        for lam in (1e-4, 1e-3, 6e-3, 3e-2, 0.2, 1.0):
            cfg = PipelineConfig(penalty=lam)
            [fit] = pwl.fit_events([p], cfg, [np.random.default_rng(2)])
            assert fit in cands
            chosen = fit.n_b
            if previous is not None:
                assert chosen <= previous
            previous = chosen

    def test_fit_event_end_to_end(self):
        rng = np.random.default_rng(4)
        v = np.where(GRID <= -2.0, 8.0 - 4.0 * (GRID + 2.0), 8.0)
        v += rng.normal(0, 0.05, GRID.size)
        fit = fit_event(profile(v), PipelineConfig(), np.random.default_rng(0))
        assert fit.n_b == 1
        assert fit.breakpoints[0] == pytest.approx(-2.0, abs=0.1)


SQRT_W = np.sqrt(sample_weights(GRID))
LO, HI = _breakpoint_bounds(GRID)
DT = float(np.median(np.diff(GRID)))
MIN_SEP = 2.5 * DT
TOL = PipelineConfig().convergence_tol


class TestSseBatch:
    """The stacked QR scoring against one lstsq solve per row.

    The tolerance is 1e-12 relative with a 1e-20 absolute floor for a zero
    SSE.  Both methods round at about eps * |yw| per residual entry, so the
    relative agreement holds while the residual is not tiny next to the data:
    the noise-0.05 recovery profiles below stay under about 6e-13.
    """

    @staticmethod
    def assert_matches_lstsq(v, bks, t=GRID, sqrt_w=SQRT_W):
        bks = np.asarray(bks, dtype=float)
        sse = _sse_batch(t, v, sqrt_w, bks)
        ref = np.array([_wls(t, v, sqrt_w, b)[1] for b in bks])
        assert np.all(np.abs(sse - ref) <= np.maximum(1e-12 * ref, 1e-20)), (sse, ref)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_random_stacks(self, k):
        rng = np.random.default_rng(k)
        for _, p in recovery_corpus(8, seed=5):
            self.assert_matches_lstsq(p.speeds, rng.uniform(LO, HI, size=(25, k)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_edge_placements(self, k):
        steps = MIN_SEP * np.arange(k)
        stack = [
            np.full(k, LO) + steps,  # at lo, exactly min_sep apart
            np.full(k, HI) - steps[::-1],  # at hi, exactly min_sep apart
            GRID[[10, 25, 40][:k]],  # on sample times
            np.linspace(LO, HI, k),  # spanning [lo, hi]
        ]
        for _, p in recovery_corpus(4, seed=6):
            self.assert_matches_lstsq(p.speeds, stack)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_constant_speed(self, k):
        stack = np.random.default_rng(k).uniform(LO, HI, size=(10, k))
        self.assert_matches_lstsq(np.full(GRID.size, 8.0), stack)

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_short_profiles(self, n, k):
        """[X | yw] has 3 + k columns, up to n - 1 of the n rows."""
        t = np.round(np.linspace(-0.1 * (n - 1), 0.0, n), 10)
        sqrt_w = np.sqrt(sample_weights(t))
        lo, hi = _breakpoint_bounds(t)
        rng = np.random.default_rng(10 * n + k)
        for _ in range(4):
            v = 9.0 - 3.0 * np.maximum(t + 0.3, 0.0) + rng.normal(0.0, 0.05, n)
            self.assert_matches_lstsq(v, np.sort(rng.uniform(lo, hi, size=(40, k)), axis=1), t, sqrt_w)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_piecewise_linear(self, k):
        """A profile on the design's own polyline scores at the floor."""
        rng = np.random.default_rng(60 + k)
        for _ in range(5):
            bks = np.sort(rng.uniform(LO, HI, k))
            coef = rng.uniform(-3.0, 3.0, 2 + k) + np.r_[10.0, np.zeros(1 + k)]
            v = np.column_stack([np.ones_like(GRID), GRID, *(np.maximum(GRID - b, 0.0) for b in bks)]) @ coef
            stack = np.vstack([bks, np.sort(rng.uniform(LO, HI, size=(5, k)), axis=1)])
            assert _sse_batch(GRID, v, SQRT_W, stack)[0] <= 1e-20
            self.assert_matches_lstsq(v, stack)

    def test_rank_deficient_rows_are_solved_by_wls(self, monkeypatch):
        solved = []

        def spy(t, v, sqrt_w, bks):
            solved.append(tuple(bks))
            return _wls(t, v, sqrt_w, bks)

        monkeypatch.setattr(pwl, "_wls", spy)
        v = recovery_corpus(3, seed=5)[2][1].speeds
        stack = np.array([[-3.0, -1.0], [-2.0, -2.0], [-3.0, 0.5]])  # twin, empty column
        sse = _sse_batch(GRID, v, SQRT_W, stack)
        assert solved == [(-2.0, -2.0), (-3.0, 0.5)]
        assert sse[1] == _wls(GRID, v, SQRT_W, stack[1])[1]
        assert sse[2] == _wls(GRID, v, SQRT_W, stack[2])[1]
        self.assert_matches_lstsq(v, stack[:1])

    def test_rank_deficient_row_of_a_short_profile(self, monkeypatch):
        t = np.round(np.linspace(-0.7, 0.0, 8), 10)
        sqrt_w = np.sqrt(sample_weights(t))
        v = np.array([9.0, 8.1, 7.3, 6.0, 5.2, 5.0, 5.1, 4.9])
        solved = []

        def spy(t, v, sqrt_w, bks):
            solved.append(tuple(bks))
            return _wls(t, v, sqrt_w, bks)

        monkeypatch.setattr(pwl, "_wls", spy)
        stack = np.array([[-0.55, -0.35, -0.15], [-0.55, -0.35, 0.05], [-0.65, -0.45, -0.25]])  # the middle: empty hinge
        sse = _sse_batch(t, v, sqrt_w, stack)
        assert solved == [(-0.55, -0.35, 0.05)]
        assert sse[1] == _wls(t, v, sqrt_w, stack[1])[1]
        self.assert_matches_lstsq(v, stack[[0, 2]], t, sqrt_w)


def column_stack_design(t, sqrt_w, bks):
    """One weighted design, column by column, as one-row code builds it."""
    return np.column_stack([sqrt_w, t * sqrt_w, *(np.maximum(t - b, 0.0) * sqrt_w for b in bks)])


class TestDesigns:
    """The stacked design builders against one-row forms, byte for byte."""

    @pytest.mark.parametrize("extra", [0, 1, 3])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_weighted_designs_are_column_stacks(self, k, extra):
        rng = np.random.default_rng(70 + k)
        bks = rng.uniform(LO, HI, size=(9, k))
        shared = pwl._weighted_designs(GRID, SQRT_W, bks, extra)
        t = GRID + rng.uniform(0.0, 0.05, size=(9, GRID.size))
        sqrt_w = SQRT_W * rng.uniform(0.5, 2.0, size=(9, GRID.size))
        stacked = pwl._weighted_designs(t, sqrt_w, bks, extra)
        assert shared.shape == stacked.shape == (9, GRID.size, 2 + k + extra)
        for row, b in enumerate(bks):
            assert np.ascontiguousarray(shared[row, :, : 2 + k]).tobytes() == column_stack_design(GRID, SQRT_W, b).tobytes()
            assert np.ascontiguousarray(stacked[row, :, : 2 + k]).tobytes() == (
                column_stack_design(t[row], sqrt_w[row], b).tobytes()
            )

    @staticmethod
    def one_row_directions(t, v, sqrt_w, b):
        """The jump-augmented one-row lstsq and its coefficient ratios."""
        X = np.column_stack([column_stack_design(t, sqrt_w, b), *((t > x) * sqrt_w for x in b)])
        coef = np.linalg.lstsq(X, v * sqrt_w, rcond=None)[0]
        gamma = coef[2 : 2 + len(b)]
        return np.full(len(b), np.nan) if (np.abs(gamma) < 1e-12).any() else coef[2 + len(b) :] / gamma

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_directions_are_one_lstsq_each(self, k):
        rng = np.random.default_rng(80 + k)
        near_line = 8.0 - 0.5 * GRID + 1e-3 * np.maximum(GRID + 2.0, 0.0)  # slope change barely there
        speeds = [p.speeds for _, p in recovery_corpus(4, seed=k)] + [near_line, np.full(GRID.size, 8.0)]
        for v in speeds:
            bks = np.sort(rng.uniform(LO, HI, size=(12, k)), axis=1)
            delta = pwl._directions(GRID, v, SQRT_W, bks)
            for row, b in enumerate(bks):
                assert delta[row].tobytes() == self.one_row_directions(GRID, v, SQRT_W, b).tobytes()

    def test_directions_of_a_stack_of_profiles(self):
        rng = np.random.default_rng(90)
        profiles = [p for _, p in recovery_corpus(8, seed=9)]
        v = np.array([p.speeds for p in profiles])
        bks = np.sort(rng.uniform(LO, HI, size=(8, 2)), axis=1)
        t, sqrt_w = (np.broadcast_to(x, v.shape) for x in (GRID, SQRT_W))
        delta = pwl._directions(t, v, sqrt_w, bks)
        for row, b in enumerate(bks):
            assert delta[row].tobytes() == self.one_row_directions(GRID, v[row], SQRT_W, b).tobytes()


def assert_same_candidates(new, old):
    assert [c.n_b for c in new] == [c.n_b for c in old]
    for a, b in zip(new, old):
        assert np.all(np.abs(np.subtract(a.breakpoints, b.breakpoints)) <= 1e-9)
        assert abs(a.r_squared - b.r_squared) <= 1e-12


class TestBatchedFitMatchesScalar:
    """The batched fitter against the one-lstsq-per-point oracle in
    ``tests/pwl_reference.py``."""

    def test_recovery_corpus(self):
        for i, (_, p) in enumerate(recovery_corpus(24, seed=17)):
            new = fit_candidates([p], PipelineConfig(), [np.random.default_rng(i)])[0]
            old = scalar.fit_candidates(p, PipelineConfig(), np.random.default_rng(i))
            assert_same_candidates(new, old)

    @given(
        n_b=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        log_noise=st.floats(-3.0, 0.0),
        clamp=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_noisy_piecewise_linear(self, n_b, seed, log_noise, clamp):
        rng = np.random.default_rng(seed)
        edges = np.concatenate([[-5.0], np.sort(rng.uniform(-4.5, -0.5, n_b)), [0.0]])
        v = np.interp(GRID, edges, rng.uniform(0.0, 20.0, n_b + 2))
        v = v + rng.normal(0.0, 10.0**log_noise, GRID.size)
        if clamp:
            v = np.maximum(v, 0.0)
        p = profile(v)
        new = fit_candidates([p], PipelineConfig(), [np.random.default_rng(seed)])[0]
        old = scalar.fit_candidates(p, PipelineConfig(), np.random.default_rng(seed))
        assert_same_candidates(new, old)

    def test_lockstep_restarts_match_scalar_restarts(self):
        rng = np.random.default_rng(4)
        for _, p in recovery_corpus(12, seed=23):
            for k in (1, 2, 3):
                inits = rng.uniform(LO, HI, size=(10, k))
                runs = [
                    scalar._iterate_breakpoints(GRID, p.speeds, sample_weights(GRID), x, TOL) for x in inits
                ]
                _, old_bks, old_sse = min(runs, key=lambda run: run[2])
                stacked = (np.broadcast_to(a, (len(inits), GRID.size)) for a in (GRID, p.speeds, SQRT_W))
                limits = (np.full(len(inits), x) for x in (LO, HI, MIN_SEP))
                bks, sse = pwl._refine_rows(*stacked, inits, *limits, np.zeros(len(inits), dtype=int), TOL)[0]
                assert bks == pytest.approx(old_bks, abs=1e-11)
                assert sse == pytest.approx(old_sse, rel=1e-12)

    def test_polish_is_byte_identical(self):
        rng = np.random.default_rng(8)
        for _, p in recovery_corpus(12, seed=19):
            for k in (1, 2, 3):
                start = scalar._project_separated(np.sort(rng.uniform(LO, HI, k)), LO, HI, MIN_SEP)
                sse = _wls(GRID, p.speeds, SQRT_W, start)[1]
                old = scalar._polish_breakpoints(GRID, p.speeds, SQRT_W, start, sse, LO, HI)
                new = _polish_breakpoints(GRID, p.speeds, SQRT_W, start, sse, LO, HI, DT, MIN_SEP)
                assert new[0].tobytes() == old[0].tobytes()
                assert new[1] == pytest.approx(old[1], rel=1e-12)

    def test_tight_profile_skips_counts_without_room(self, caplog):
        # 8 samples 0.1 s apart have no room for 3 breakpoints 0.25 s apart,
        # so k = 3 gets no starts and no candidate
        t = np.round(np.linspace(-0.7, 0.0, 8), 10)
        v = np.array([9.0, 8.1, 7.3, 6.0, 5.2, 5.0, 5.1, 4.9])
        p = SpeedProfile("short", t, v)
        with caplog.at_level("WARNING", logger="leadkin.pwl"):
            new = fit_candidates([p], PipelineConfig(), [np.random.default_rng(0)])[0]
        assert "event 'short': too few samples for 3 breakpoints" in caplog.text
        old = scalar.fit_candidates(p, PipelineConfig(), np.random.default_rng(0))
        assert [c.n_b for c in new] == [0, 1, 2]
        assert_same_candidates(new, old[:3])


class TestRoomForBreakpoints:
    """A breakpoint count gets starts exactly when its breakpoints fit
    min_sep apart in [lo, hi]; its projections then stay there, and every
    start comes back refined."""

    @given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1), irregular=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_starts_only_where_breakpoints_fit(self, n, seed, irregular):
        rng = np.random.default_rng(seed)
        if irregular:
            t = np.sort(rng.choice(501, n, replace=False)) / 100.0 - 5.0
        else:
            t = np.round(-rng.choice([0.02, 0.05, 0.1, 0.2]) * np.arange(n)[::-1], 10)
        p = SpeedProfile("h", t, rng.uniform(0.0, 20.0, n))
        fit = pwl._ProfileFit(p, PipelineConfig(n_b_max=5), rng)
        lo, hi, min_sep = fit.lo, fit.hi, fit.min_sep
        for k in range(1, 6):
            fits = n >= 2 * (k + 1) and lo + (k - 1) * min_sep <= hi
            assert (k in fit.starts) == fits
            if not fits:
                continue
            rows = np.vstack([fit.starts[k], rng.uniform(lo - 1.0, hi + 1.0, size=(20, k))])
            out = pwl._project_separated(rows, lo, hi, min_sep)
            assert (out[:, 0] >= lo - 1e-12).all() and (out[:, -1] <= hi).all()
            assert (np.diff(out, axis=1) >= min_sep * (1 - 1e-12)).all()
            stacked = (np.broadcast_to(a, (len(rows), n)) for a in (t, p.speeds, fit.sqrt_w))
            limits = (np.full(len(rows), x) for x in (lo, hi, min_sep))
            best = pwl._refine_rows(*stacked, rows, *limits, np.arange(len(rows)), TOL)
            assert sorted(best) == list(range(len(rows)))
            for bks, _ in best.values():
                assert bks[0] >= lo - 1e-12 and bks[-1] <= hi


def _direction_designs(t, v, sqrt_w, bks):
    """The weighted designs, with jump indicator columns, and the targets
    that ``_directions`` solves, one per row of bks."""
    X = np.concatenate(
        [pwl._weighted_designs(t, sqrt_w, bks), (t[:, None] > bks[:, None, :]) * sqrt_w[:, None]], axis=2
    )
    return X, np.broadcast_to(v * sqrt_w, X.shape[:2])


class TestStackedLstsq:
    """``_lstsq_rows`` calls the private gufunc behind ``np.linalg.lstsq``;
    every row must be bit for bit the public call's answer, so a numpy that
    changes the gufunc fails here first."""

    @staticmethod
    def assert_rows_are_lstsq(a, b):
        x = pwl._lstsq_rows(a, b)
        assert x.shape == a.shape[:1] + a.shape[2:]
        for a_row, b_row, x_row in zip(a, np.broadcast_to(b, a.shape[:2]), x):
            assert x_row.tobytes() == np.linalg.lstsq(a_row, b_row, rcond=None)[0].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_random_designs(self, k):
        rng = np.random.default_rng(k)
        self.assert_rows_are_lstsq(rng.normal(size=(12, 51, 2 + 2 * k)), rng.normal(size=(12, 51)))
        v = recovery_corpus(1, seed=k)[0][1].speeds
        self.assert_rows_are_lstsq(*_direction_designs(GRID, v, SQRT_W, rng.uniform(LO, HI, size=(12, k))))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_duplicated_column(self, k):
        rng = np.random.default_rng(10 + k)
        v = recovery_corpus(1, seed=k)[0][1].speeds
        a, b = _direction_designs(GRID, v, SQRT_W, rng.uniform(LO, HI, size=(12, k)))
        a[:, :, -1] = a[:, :, 2]  # rank deficient
        assert np.linalg.matrix_rank(a[0]) < a.shape[2]
        self.assert_rows_are_lstsq(a, b)
        a = rng.normal(size=(12, 51, 2 + 2 * k))
        a[:, :, -1] = a[:, :, 0]
        self.assert_rows_are_lstsq(a, rng.normal(size=(12, 51)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_zero_weight_rows(self, k):
        rng = np.random.default_rng(20 + k)
        sqrt_w = SQRT_W.copy()
        sqrt_w[::4] = 0.0
        v = recovery_corpus(1, seed=k)[0][1].speeds
        self.assert_rows_are_lstsq(*_direction_designs(GRID, v, sqrt_w, rng.uniform(LO, HI, size=(12, k))))

    def test_shared_right_hand_side(self):
        rng = np.random.default_rng(30)
        self.assert_rows_are_lstsq(rng.normal(size=(6, 51, 4)), rng.normal(size=51))

    def test_nan_raises_like_lstsq(self):
        rng = np.random.default_rng(40)
        a, b = rng.normal(size=(5, 51, 4)), rng.normal(size=(5, 51))
        a[3, 7, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(a[3], b[3], rcond=None)
        with pytest.raises(np.linalg.LinAlgError):
            pwl._lstsq_rows(a, b)

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_wls_rows_are_one_lstsq_each(self, k):
        """The row-wise residual and SSE are the one-row forms, bit for bit."""
        rng = np.random.default_rng(50 + k)
        for _, p in recovery_corpus(3, seed=k):
            bks = np.sort(rng.uniform(LO, HI, size=(8, k)), axis=1)
            coef, sse = pwl._wls_rows(GRID, p.speeds, SQRT_W, bks)
            for row, b in enumerate(bks):
                X = np.column_stack([np.ones_like(GRID), GRID, *(np.maximum(GRID - x, 0.0) for x in b)])
                c = np.linalg.lstsq(X * SQRT_W[:, None], p.speeds * SQRT_W, rcond=None)[0]
                resid = p.speeds - X @ c
                assert coef[row].tobytes() == c.tobytes()
                assert sse[row] == np.dot(SQRT_W * resid, SQRT_W * resid)


class TestBatchIndependence:
    """A profile's fit does not depend on the other profiles fit with it."""

    @staticmethod
    def mixed_batch():
        crash = GRID[:48]  # a crash record, cut at -0.3 s
        short = np.round(np.linspace(-0.6, 0.0, 7), 10)  # room for 1 and 2 breakpoints, not 3
        tight = np.round(np.linspace(-0.7, 0.0, 8), 10)  # samples for 3 breakpoints, no room for them
        profiles = [
            SpeedProfile(f"rec-{i}", p.times, p.speeds)
            for i, (_, p) in enumerate(recovery_corpus(4, seed=31))
        ]
        v = np.where(crash <= -2.0, 9.0 + 3.0 * (crash + 2.0), 9.0) + np.random.default_rng(1).normal(0, 0.05, 48)
        profiles.append(SpeedProfile("crash", crash, v))
        profiles.append(SpeedProfile("short", short, 6.0 - 2.0 * short))
        tight_v = np.array([9.0, 8.1, 7.3, 6.0, 5.2, 5.0, 5.1, 4.9])
        profiles.append(SpeedProfile("tight", tight, tight_v))
        profiles.append(SpeedProfile("steady", GRID, np.full(GRID.size, 8.0)))
        return profiles

    @staticmethod
    def rngs(profiles):
        from leadkin.cli import event_rng

        return [event_rng(3, p.event_id) for p in profiles]

    def test_batch_mixes_the_cases(self, monkeypatch, caplog):
        profiles = {p.event_id: p for p in self.mixed_batch()}
        assert {p.times.size for p in profiles.values()} == {7, 8, 48, 51}
        stopped = []
        directions = pwl._directions

        def spy_directions(t, v, sqrt_w, bks):
            delta = directions(t, v, sqrt_w, bks)
            stopped.append(np.isnan(delta[:, 0]).any())
            return delta

        monkeypatch.setattr(pwl, "_directions", spy_directions)
        fit_candidates([profiles["steady"]], PipelineConfig(), self.rngs([profiles["steady"]]))
        assert stopped and all(stopped)
        with caplog.at_level("WARNING", logger="leadkin.pwl"):
            assert [c.n_b for c in fit_candidates([profiles["short"]], PipelineConfig())[0]] == [0, 1, 2]
            fit_event(profiles["tight"], PipelineConfig(), self.rngs([profiles["tight"]])[0])
        assert "event 'tight': too few samples for 3 breakpoints" in caplog.text
        assert "event 'short': too few samples for 3 breakpoints" in caplog.text

    @pytest.mark.parametrize("order", range(4))
    def test_any_order_gives_the_fits_of_each_profile_alone(self, order):
        profiles = self.mixed_batch()
        alone = {p.event_id: fit_event(p, PipelineConfig(), rng) for p, rng in zip(profiles, self.rngs(profiles))}
        shuffled = [profiles[i] for i in np.random.default_rng(order).permutation(len(profiles))]
        batch = pwl.fit_events(shuffled, PipelineConfig(), self.rngs(shuffled))
        assert batch == [alone[p.event_id] for p in shuffled]
        cands = fit_candidates(shuffled, PipelineConfig(), self.rngs(shuffled))
        assert cands == [fit_candidates([p], PipelineConfig(), [rng])[0] for p, rng in zip(shuffled, self.rngs(shuffled))]


class TestLossBound:
    """``fit_events`` refines only the counts whose loss floor is not above
    a loss it already found, and chooses what the exhaustive
    ``fit_candidates`` search gives."""

    @staticmethod
    def assert_exhaustive_choice(p, seed):
        [fit] = pwl.fit_events([p], PipelineConfig(), [np.random.default_rng(seed)])
        [cands] = fit_candidates([p], PipelineConfig(), [np.random.default_rng(seed)])
        assert fit == enforce_nonnegative(min(cands, key=lambda c: (loss(c, p), c.n_b)))

    def test_recovery_corpus(self):
        with pwl.search_tally() as tally:
            for i, (_, p) in enumerate(recovery_corpus(24, seed=17)):
                self.assert_exhaustive_choice(p, i)
        assert tally.skipped > 0

    @given(
        n_b=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        log_noise=st.floats(-3.0, 0.0),
        clamp=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_noisy_piecewise_linear(self, n_b, seed, log_noise, clamp):
        rng = np.random.default_rng(seed)
        edges = np.concatenate([[-5.0], np.sort(rng.uniform(-4.5, -0.5, n_b)), [0.0]])
        v = np.interp(GRID, edges, rng.uniform(0.0, 20.0, n_b + 2))
        v = v + rng.normal(0.0, 10.0**log_noise, GRID.size)
        if clamp:
            v = np.maximum(v, 0.0)
        self.assert_exhaustive_choice(profile(v), seed)

    @pytest.mark.parametrize("event_id", ["steady", "short", "tight"])
    def test_batch_cases(self, event_id):
        [p] = [p for p in TestBatchIndependence.mixed_batch() if p.event_id == event_id]
        self.assert_exhaustive_choice(p, 3)

    def test_only_counts_that_can_win_are_refined(self, monkeypatch):
        refined = []
        directions = pwl._directions

        def spy_directions(t, v, sqrt_w, bks):
            refined.append(bks.shape[1])
            return directions(t, v, sqrt_w, bks)

        monkeypatch.setattr(pwl, "_directions", spy_directions)
        # r^2 is 1 at zero breakpoints, and a breakpoint costs about 5e4
        steady = SpeedProfile("steady", GRID, np.full(GRID.size, 8.0))
        assert fit_event(steady, PipelineConfig(), np.random.default_rng(0)).n_b == 0
        assert refined == []
        kinked = profile(np.where(GRID <= -2.0, 8.0 - 4.0 * (GRID + 2.0), 8.0))
        assert fit_event(kinked, PipelineConfig(), np.random.default_rng(0)).n_b == 1
        assert 1 in refined

    def test_tally_counts_refined_and_skipped_pairs(self):
        steady = SpeedProfile("steady", GRID, np.full(GRID.size, 8.0))
        kinked = profile(np.where(GRID <= -2.0, 8.0 - 4.0 * (GRID + 2.0), 8.0))
        with pwl.search_tally() as tally:
            pwl.fit_events([steady, kinked], PipelineConfig())
        assert tally.refined + tally.skipped == 6 and tally.skipped >= 3 and tally.refined >= 1
        with pwl.search_tally() as tally:
            fit_candidates([steady, kinked], PipelineConfig())
        assert (tally.refined, tally.skipped) == (6, 0)
