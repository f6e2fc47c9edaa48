import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadkin import ingest
from leadkin.errors import (
    DuplicateTimestamp,
    EmptyWindow,
    InputError,
    InvalidSampleRate,
    MalformedRow,
)
from leadkin.events import RawEvent, Severity, SourceGroup, SpeedProfile
from leadkin.pwl import PwlFit


def write_csv(path, rows, header="event_id,group,severity,t,v,weight"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def sample_rows(event_id, group, severity, times, speeds, weight=""):
    return [
        f"{event_id},{group},{severity},{t},{v},{weight}"
        for t, v in zip(times, speeds)
    ]


def grid(lo, hi, dt=0.1):
    return np.round(np.arange(lo, hi + dt / 2, dt), 10)


class TestLoadEvents:
    def test_grouping_two_events(self, tmp_path):
        t = grid(-4.6, 0.0)
        rows = sample_rows("a", "SHRP2_nc", "None", t, np.full(t.size, 5.0))
        rows += sample_rows("b", "SHRP2_nc", "None", t, np.full(t.size, 6.0))
        path = tmp_path / "events.csv"
        write_csv(path, rows)
        events = ingest.load_events(path)
        assert [e.event_id for e in events] == ["a", "b"]
        assert all(e.times.size == t.size for e in events)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("event_id,group,severity,t,v\n", encoding="utf-8")
        assert ingest.load_events(path) == []

    @pytest.mark.parametrize("header", ["event_id,group,severity,t,v,weight", "t,v,event_id,group,severity"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, header):
        t = grid(-4.6, 0.0)
        columns = header.split(",")
        cells = {"event_id": "E17", "group": "SHRP2_nc", "severity": "None", "weight": ""}
        rows = [",".join({**cells, "t": str(ti), "v": "5.0"}[c] for c in columns) for ti in t]
        path = tmp_path / "events.csv"
        path.write_text("\ufeff" + header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        (event,) = ingest.load_events(path)
        assert event.event_id == "E17"
        assert event.times.size == t.size

    def test_nan_speed_reports_line_number(self, tmp_path):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,SHRP2_nc,None,-1.0,2.0,", "a,SHRP2_nc,None,-0.9,NaN,"])
        with pytest.raises(MalformedRow) as err:
            ingest.load_events(path)
        assert "line 3" in str(err.value)

    def test_blank_line_keeps_the_line_number(self, tmp_path):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,SHRP2_nc,None,-1.0,2.0,", "", "a,SHRP2_nc,None,-0.9,x,"])
        with pytest.raises(MalformedRow, match="line 4: non-numeric v 'x'"):
            ingest.load_events(path)

    @pytest.mark.parametrize("row, cells", [("a,SHRP2_nc,None,-0.9,2.0", 5), ("a,SHRP2_nc,None,-0.9,2.0,,7", 7)],
                             ids=["short", "extra"])
    def test_row_with_a_wrong_cell_count(self, tmp_path, row, cells):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,SHRP2_nc,None,-1.0,2.0,", row])
        with pytest.raises(MalformedRow, match=f"line 3: {cells} cells for 6 columns"):
            ingest.load_events(path)

    @pytest.mark.parametrize("second, field", [
        ("a,CISS_sc,Severe,-0.9,2.0,", "group"),
        ("a,SHRP2_nc,NonSevere,-0.9,2.0,", "severity"),
        ("a,SHRP2_nc,None,-0.9,2.0,3.5", "weight"),
    ], ids=["group", "severity", "weight"])
    def test_rows_of_one_event_must_agree(self, tmp_path, second, field):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,SHRP2_nc,None,-1.0,2.0,2.5", "b,SHRP2_nc,None,-1.0,2.0,", second])
        with pytest.raises(InputError, match=f"{path}: event 'a': rows disagree on {field}$"):
            ingest.load_events(path)

    def test_weight_given_on_some_rows_only(self, tmp_path):
        t = grid(-5.0, -0.3)
        rows = sample_rows("a", "CISS_sc", "Severe", t, np.full(t.size, 3.0))
        rows[3] += "42.5"
        path = tmp_path / "events.csv"
        write_csv(path, rows)
        (event,) = ingest.load_events(path)
        assert event.native_weight == 42.5

    def test_cell_past_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,SHRP2_nc,None,-1.0,2.0,", "a,SHRP2_nc,None,-0.9," + "1" * 200_000 + ","])
        with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
            ingest.load_events(path)

    def test_header_case_is_ignored(self, tmp_path):
        t = grid(-4.6, 0.0)
        path = tmp_path / "events.csv"
        write_csv(path, sample_rows("a", "CISS_sc", "Severe", t, np.full(t.size, 5.0), "2.0"),
                  header="Event_ID,Group,Severity,T,V,Weight")
        (event,) = ingest.load_events(path)
        assert (event.event_id, event.source_group, event.native_weight) == ("a", SourceGroup.CISS_SC, 2.0)
        assert event.times.size == t.size

    def test_unknown_group(self, tmp_path):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,NOPE,None,-1.0,2.0,"])
        with pytest.raises(MalformedRow, match="unknown group"):
            ingest.load_events(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "events.csv"
        write_csv(path, ["a,SHRP2_nc,None,-1.0,2.0,", "a,SHRP2_nc,None,-1.0,2.1,"])
        with pytest.raises(DuplicateTimestamp):
            ingest.load_events(path)

    def test_low_sample_rate_rejected(self, tmp_path):
        t = grid(-5.0, 0.0, dt=0.5)  # 2 Hz
        path = tmp_path / "events.csv"
        write_csv(path, sample_rows("a", "SHRP2_nc", "None", t, np.full(t.size, 3.0)))
        with pytest.raises(InvalidSampleRate):
            ingest.load_events(path)

    def test_exactly_five_hz_accepted(self, tmp_path):
        t = grid(-5.0, 0.0, dt=0.2)  # 5 Hz, the minimum
        path = tmp_path / "events.csv"
        write_csv(path, sample_rows("a", "SHRP2_nc", "None", t, np.full(t.size, 3.0)))
        (event,) = ingest.load_events(path)
        assert event.times.tolist() == t.tolist()

    def test_native_weight_parsed(self, tmp_path):
        t = grid(-5.0, -0.3)
        path = tmp_path / "events.csv"
        write_csv(path, sample_rows("a", "CISS_sc", "Severe", t, np.full(t.size, 3.0), "42.5"))
        (event,) = ingest.load_events(path)
        assert event.native_weight == 42.5
        assert event.times.tolist() == t.tolist()


def raw_event(times, speeds, severity=Severity.NONE, group=SourceGroup.SHRP2_NC):
    return RawEvent(
        event_id="x",
        source_group=group,
        severity=severity,
        times=np.asarray(times, dtype=float),
        speeds=np.asarray(speeds, dtype=float),
    )


class TestWindowEvent:
    def test_crash_window_cuts_at_minus_03(self):
        t = grid(-6.0, 0.0)
        event = raw_event(t, np.full(t.size, 5.0), Severity.SEVERE, SourceGroup.CISS_SC)
        profile = ingest.window_event(event)
        # 10 Hz grid aligned to zero keeps -5.0, -4.9, ..., -0.3
        assert profile.times.size == 48
        assert profile.times[0] == pytest.approx(-5.0)
        assert profile.times[-1] == pytest.approx(-0.3)

    def test_near_crash_keeps_full_span(self):
        t = grid(-5.0, 0.0)
        profile = ingest.window_event(raw_event(t, np.full(t.size, 5.0)))
        assert profile.times[0] == pytest.approx(-5.0)
        assert profile.times[-1] == pytest.approx(0.0)

    def test_crash_with_samples_only_after_cutoff(self):
        t = grid(-0.2, 0.0)
        event = raw_event(t, np.full(t.size, 5.0), Severity.NON_SEVERE, SourceGroup.SHRP2_NSC)
        with pytest.raises(EmptyWindow, match="'x': no samples left inside the modeling window"):
            ingest.window_event(event)

    def test_one_sample_in_window(self):
        # 10 Hz up to -5.1 s, then one sample at -1.0 s: too few for a line
        t = np.append(grid(-9.0, -5.1), -1.0)
        with pytest.raises(EmptyWindow, match="'x': only 1 sample left inside the modeling window"):
            ingest.window_event(raw_event(t, np.full(t.size, 5.0)))

    def test_two_samples_in_window(self):
        t = np.append(grid(-9.0, -5.1), [-1.0, -0.9])
        profile = ingest.window_event(raw_event(t, np.full(t.size, 5.0)))
        assert profile.times.tolist() == [-1.0, -0.9]

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_windowing_idempotent(self, offset):
        t = grid(-5.0, 0.0)[offset:]
        profile = ingest.window_event(raw_event(t, np.full(t.size, 3.0)))
        again = ingest.window_event(
            raw_event(profile.times, profile.speeds)
        )
        assert np.array_equal(again.times, profile.times)
        assert np.array_equal(again.speeds, profile.speeds)


def fake_fit(slopes):
    times = np.linspace(-5.0, 0.0, len(slopes) + 1)
    speeds = 10.0 + np.concatenate([[0.0], np.cumsum(np.multiply(slopes, np.diff(times)))])
    return PwlFit(tuple(times.tolist()), tuple(speeds.tolist()), r_squared=0.99, r_squared_adj=0.99)


class TestValidateEvent:
    def profile(self, span):
        t = grid(span, 0.0)
        return SpeedProfile("x", t, np.full(t.size, 5.0))

    def test_valid(self):
        assert ingest.validate_event(self.profile(-4.7), fake_fit([-3.0, 0.0]))

    def test_short_duration_invalid(self):
        assert not ingest.validate_event(self.profile(-2.5), fake_fit([-3.0, 0.0]))

    def test_excessive_slope_invalid(self):
        assert not ingest.validate_event(self.profile(-4.7), fake_fit([-10.5, 0.0]))

    def test_slope_exactly_g_valid(self):
        assert ingest.validate_event(self.profile(-4.7), fake_fit([9.80665]))
