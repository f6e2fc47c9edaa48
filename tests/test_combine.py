import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadkin.combine import (
    GroupCounts,
    build_plan,
    merge_near_crashes,
    preprocess,
    reweight_combine,
    scale_weights,
    in_groups,
    shrp2_group_weight,
    trim_cutpoint,
    trim_weights,
)
from leadkin.config import PipelineConfig
from leadkin.errors import EmptyGroup
from leadkin.events import PARAM_NAMES, EventParams, ParamTable, Severity, SourceGroup


def event(event_id, group, v_c, weight=1.0, native=None, **kw):
    severity = {
        SourceGroup.CISS_SC: Severity.SEVERE,
        SourceGroup.SHRP2_SC: Severity.SEVERE,
        SourceGroup.SHRP2_NSC: Severity.NON_SEVERE,
        SourceGroup.SHRP2_NC: Severity.NONE,
    }[group]
    defaults = dict(a1=-1.0, a2=-1.0, tau_s=0.0, tau_1=5.0, tau_2=0.0)
    defaults.update(kw)
    return EventParams(
        event_id=event_id,
        v_c=v_c,
        weight=weight,
        source_group=group,
        severity=severity,
        native_weight=native,
        **defaults,
    )


class TestTrimWeights:
    def test_equal_weights_untouched(self):
        assert np.array_equal(trim_weights([2, 2, 2, 2]), [2, 2, 2, 2])

    def test_single_outlier_capped(self):
        w = [1.0, 1.0, 1.0, 100.0]
        cut = trim_cutpoint(w)
        assert cut == pytest.approx(7.584, abs=1e-3)
        trimmed = trim_weights(w)
        assert trimmed[:3] == pytest.approx([1, 1, 1])
        assert trimmed[3] == pytest.approx(cut)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_cutpoint_and_order_independent(self, weights):
        cut = trim_cutpoint(weights)
        trimmed = trim_weights(weights)
        assert (trimmed <= cut + 1e-12).all()
        shuffled = trim_weights(weights[::-1])
        assert np.allclose(np.sort(trimmed), np.sort(shuffled))


class TestScaleWeights:
    def test_identity_when_normalized(self):
        assert scale_weights([1.0, 1.0], 2) == pytest.approx([1.0, 1.0])

    def test_proportional(self):
        assert scale_weights([1.0, 3.0], 2) == pytest.approx([0.5, 1.5])

    def test_sum_matches_valid_count(self):
        rng = np.random.default_rng(1)
        w = rng.lognormal(2, 1, 49)
        assert scale_weights(trim_weights(w), 49).sum() == pytest.approx(49.0, abs=1e-9)


class TestGroupWeight:
    def test_severe_group(self):
        w = shrp2_group_weight(24, 106, 20, 63, SourceGroup.SHRP2_SC)
        assert w == pytest.approx(83 * 24 / (130 * 20), abs=1e-9)

    def test_non_severe_group(self):
        w = shrp2_group_weight(24, 106, 20, 63, SourceGroup.SHRP2_NSC)
        assert w == pytest.approx(83 * 106 / (130 * 63), abs=1e-9)

    def test_unbiased_when_all_valid(self):
        assert shrp2_group_weight(10, 30, 10, 30, SourceGroup.SHRP2_SC) == pytest.approx(1.0)
        assert shrp2_group_weight(10, 30, 10, 30, SourceGroup.SHRP2_NSC) == pytest.approx(1.0)


def micro_dataset():
    """2 CISS (one high-speed), 2 SHRP2 severe, 2 SHRP2 non-severe."""
    events = [
        event("c0", SourceGroup.CISS_SC, 10.0, native=1.0),
        event("c1", SourceGroup.CISS_SC, 3.0, native=1.0),
        event("s0", SourceGroup.SHRP2_SC, 5.0),
        event("s1", SourceGroup.SHRP2_SC, 4.0),
        event("n0", SourceGroup.SHRP2_NSC, 2.0),
        event("n1", SourceGroup.SHRP2_NSC, 1.0),
    ]
    counts = GroupCounts(
        raw={SourceGroup.CISS_SC: 2, SourceGroup.SHRP2_SC: 2, SourceGroup.SHRP2_NSC: 2},
        valid={SourceGroup.CISS_SC: 2, SourceGroup.SHRP2_SC: 2, SourceGroup.SHRP2_NSC: 2},
    )
    return events, counts


class TestPlanAndReweight:
    def test_micro_dataset_hand_algebra(self):
        events, counts = micro_dataset()
        pre = preprocess(ParamTable.from_rows(events), counts)
        plan = build_plan(pre, counts)
        assert plan.nonsevere_share == pytest.approx(0.5)
        assert plan.speed_split == pytest.approx(5.0)
        assert plan.highspeed_share == pytest.approx(0.5)
        assert plan.combined_size == 6.0
        combined = reweight_combine(pre, plan)
        weights = {e.event_id: e.weight for e in combined}
        assert weights == pytest.approx(
            {"c0": 1.5, "c1": 0.5, "s0": 0.5, "s1": 0.5, "n0": 1.5, "n1": 1.5}
        )
        assert combined.weight.sum() == pytest.approx(6.0, abs=1e-9)

    def test_no_highspeed_puts_all_mass_low(self):
        events, counts = micro_dataset()
        events[0] = event("c0", SourceGroup.CISS_SC, 4.5, native=1.0)
        pre = preprocess(ParamTable.from_rows(events), counts)
        plan = build_plan(pre, counts)
        assert plan.highspeed_share == 0.0
        combined = reweight_combine(pre, plan)
        assert combined.weight.sum() == pytest.approx(6.0, abs=1e-9)

    def test_weight_sum_identity_random(self):
        rng = np.random.default_rng(7)
        events = []
        for i in range(12):
            events.append(event(f"c{i}", SourceGroup.CISS_SC, rng.uniform(0, 20), native=float(rng.lognormal(2, 1))))
        for i in range(6):
            events.append(event(f"s{i}", SourceGroup.SHRP2_SC, rng.uniform(0, 8)))
        for i in range(9):
            events.append(event(f"n{i}", SourceGroup.SHRP2_NSC, rng.uniform(0, 6)))
        counts = GroupCounts(
            raw={SourceGroup.CISS_SC: 15, SourceGroup.SHRP2_SC: 7, SourceGroup.SHRP2_NSC: 13},
            valid={SourceGroup.CISS_SC: 12, SourceGroup.SHRP2_SC: 6, SourceGroup.SHRP2_NSC: 9},
        )
        pre = preprocess(ParamTable.from_rows(events), counts)
        ciss = in_groups(pre, SourceGroup.CISS_SC)
        assert pre.weight[ciss].sum() == pytest.approx(12.0, abs=1e-9)
        total_shrp2 = sum(
            e.weight for e in pre if e.source_group is not SourceGroup.CISS_SC
        )
        assert total_shrp2 == pytest.approx(6 + 9, abs=1e-9)
        plan = build_plan(pre, counts)
        combined = reweight_combine(pre, plan)
        assert combined.weight.sum() == pytest.approx(27.0, abs=1e-9)
        # branch totals
        low = sum(
            e.weight
            for e in combined
            if e.severity is Severity.SEVERE and e.v_c <= plan.speed_split
        )
        high = sum(
            e.weight
            for e in combined
            if e.severity is Severity.SEVERE and e.v_c > plan.speed_split
        )
        assert low == pytest.approx(plan.target_lowspeed, abs=1e-9)
        assert high == pytest.approx(plan.target_highspeed, abs=1e-9)

    def test_missing_group_raises(self):
        events, counts = micro_dataset()
        events = [e for e in events if e.source_group is not SourceGroup.SHRP2_SC]
        with pytest.raises(EmptyGroup):
            preprocess(ParamTable.from_rows(events), counts)

    def test_reference_share_values(self):
        # 49/20/63 valid and 52/24/106 raw reproduce the documented shares
        counts = GroupCounts(
            raw={SourceGroup.CISS_SC: 52, SourceGroup.SHRP2_SC: 24, SourceGroup.SHRP2_NSC: 106},
            valid={SourceGroup.CISS_SC: 49, SourceGroup.SHRP2_SC: 20, SourceGroup.SHRP2_NSC: 63},
        )
        rng = np.random.default_rng(0)
        events = []
        for i in range(49):
            events.append(event(f"c{i}", SourceGroup.CISS_SC, rng.uniform(0, 30), native=float(rng.lognormal(3, 1))))
        for i in range(20):
            events.append(event(f"s{i}", SourceGroup.SHRP2_SC, rng.uniform(0, 7.9)))
        for i in range(63):
            events.append(event(f"n{i}", SourceGroup.SHRP2_NSC, rng.uniform(0, 6)))
        pre = preprocess(ParamTable.from_rows(events), counts)
        plan = build_plan(pre, counts)
        assert plan.nonsevere_share == pytest.approx(106 / 130, abs=1e-12)
        assert plan.combined_size == 132.0


def crash_dataset(rng, n=8):
    events = []
    for i in range(n):
        events.append(
            event(
                f"crash-{i:02d}",
                SourceGroup.SHRP2_NSC,
                float(rng.uniform(0.5, 8)),
                weight=float(rng.uniform(0.5, 2.0)),
                a1=float(rng.normal(-2, 0.5)),
                a2=float(rng.normal(-1, 0.5)),
                tau_s=float(rng.uniform(0, 2)),
                tau_1=float(rng.uniform(1, 4)),
                tau_2=float(rng.uniform(0, 2)),
            )
        )
    return ParamTable.from_rows(events)


def near_crash_like(crash, event_id, jitter, rng):
    return EventParams(
        event_id=event_id,
        v_c=crash.v_c + jitter * rng.normal(),
        a1=crash.a1 + jitter * rng.normal(),
        a2=crash.a2 + jitter * rng.normal(),
        tau_s=max(crash.tau_s + jitter * rng.normal(), 0.0),
        tau_1=max(crash.tau_1 + jitter * rng.normal(), 0.0),
        tau_2=max(crash.tau_2 + jitter * rng.normal(), 0.0),
        weight=1.0,
        source_group=SourceGroup.SHRP2_NC,
        severity=Severity.NONE,
    )


class TestMergeNearCrashes:
    def test_weight_split_with_one_attachment(self):
        rng = np.random.default_rng(11)
        crashes = crash_dataset(rng)
        host = list(crashes)[0]
        nc = near_crash_like(host, "nc-0", 0.01, rng)
        merged, result = merge_near_crashes(crashes, ParamTable.from_rows([nc]), config=PipelineConfig(d_thd=0.78))
        assert [crash_id for _, crash_id, _ in result.selected] == [host.event_id]
        by_id = {e.event_id: e for e in merged}
        assert by_id[host.event_id].weight == pytest.approx(host.weight / 2)
        assert by_id["nc-0"].weight == pytest.approx(host.weight / 2)
        assert result.selected[0][1] == host.event_id

    def test_distant_near_crash_excluded(self):
        rng = np.random.default_rng(12)
        crashes = crash_dataset(rng)
        nc = EventParams(
            "nc-far", 50.0, 5.0, 5.0, 10.0, 10.0, 10.0,
            weight=1.0, source_group=SourceGroup.SHRP2_NC, severity=Severity.NONE,
        )
        merged, result = merge_near_crashes(crashes, ParamTable.from_rows([nc]), config=PipelineConfig(d_thd=0.78))
        assert result.selected == ()
        assert merged.weight.sum() == pytest.approx(crashes.weight.sum(), abs=1e-12)
        assert len(merged) == len(crashes)

    def test_split_weights_sum_exactly(self):
        rng = np.random.default_rng(13)
        crashes = crash_dataset(rng, n=5)
        host = list(crashes)[2]
        ncs = ParamTable.from_rows(near_crash_like(host, f"nc-{k}", 0.005, rng) for k in range(3))
        merged, result = merge_near_crashes(crashes, ncs, config=PipelineConfig(d_thd=0.78))
        assert [crash_id for _, crash_id, _ in result.selected].count(host.event_id) == 3
        group = [e.weight for e in merged if e.event_id == host.event_id]
        group += [e.weight for e in merged if e.event_id.startswith("nc-")]
        assert math.fsum(group) == host.weight

    def test_total_weight_conserved(self):
        rng = np.random.default_rng(14)
        crashes = crash_dataset(rng, n=10)
        hosts = list(crashes)
        ncs = ParamTable.from_rows(
            near_crash_like(hosts[k % 10], f"nc-{k}", 0.3, rng) for k in range(12)
        )
        merged, _ = merge_near_crashes(crashes, ncs)
        assert merged.weight.sum() == pytest.approx(crashes.weight.sum(), abs=1e-9)

    def test_marginal_drift_small_at_realistic_scale(self):
        # weight splitting keeps each parameter's weighted distribution
        # nearly unchanged when similar near-crashes join a decently sized
        # crash corpus
        from leadkin.validate import weighted_ks_test

        for seed in (0, 1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            n_crash = int(rng.integers(60, 140))
            crashes = crash_dataset(rng, n=n_crash)
            hosts = list(crashes)
            ncs = []
            for k in range(int(rng.integers(30, int(1.5 * n_crash)))):
                host = hosts[int(rng.integers(0, n_crash))]
                ncs.append(near_crash_like(host, f"nc-{k}", float(rng.uniform(0, 0.3)), rng))
            merged, _ = merge_near_crashes(crashes, ParamTable.from_rows(ncs), config=PipelineConfig(d_thd=0.78))
            for name in PARAM_NAMES:
                result = weighted_ks_test(
                    crashes[name],
                    crashes.weight,
                    merged[name],
                    merged.weight,
                    config=PipelineConfig(n_perm=1),
                    seed=0,
                )
                assert result.statistic < 0.1

    def test_marginal_preservation_in_limit_case(self):
        # identical parameter vectors: the weighted ECDF of each parameter
        # is unchanged by attaching the copies
        from leadkin.validate import weighted_ecdf

        rng = np.random.default_rng(15)
        crashes = crash_dataset(rng, n=6)
        ncs = ParamTable.from_rows(
            near_crash_like(c, f"nc-{i}", 0.0, rng) for i, c in enumerate(crashes)
        )
        merged, result = merge_near_crashes(crashes, ncs)
        assert len(result.selected) == 6
        for name in ("v_c", "a1", "tau_1"):
            before = weighted_ecdf(crashes[name], crashes.weight)
            after = weighted_ecdf(merged[name], merged.weight)
            for x in before.support:
                assert after.evaluate(x) == pytest.approx(before.evaluate(x), abs=1e-12)
