import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadkin.combine import GroupCounts, MergeResult
from leadkin.config import MAX_COUNT
from leadkin.errors import InputError, MalformedRow
from leadkin.events import PARAM_NAMES, EventParams, ParamTable, Severity, SourceGroup, SpeedProfile
from leadkin.synth import SyntheticDataset
from leadkin.tables import (
    read_combined_csv,
    read_counts_json,
    read_params_csv,
    read_synthetic_csv,
    write_combined_csv,
    write_params_csv,
    write_profiles_csv,
    write_synthetic_csv,
)


def sample_event(i, weight=1.0):
    return EventParams(
        f"e{i}", 3.0 + i, -2.0, -1.0, 0.5, 2.0, 1.0,
        weight=weight,
        source_group=SourceGroup.SHRP2_NSC,
        severity=Severity.NON_SEVERE,
    )


class TestParamsCsv:
    def test_round_trip_preserves_values(self, tmp_path):
        path = tmp_path / "params.csv"
        events = [sample_event(i) for i in range(3)]
        write_params_csv(path, ParamTable.from_rows(events), [0.99] * 3, [1] * 3, [i != 1 for i in range(3)])
        back = read_params_csv(path)
        assert back.event_id.tolist() == ["e0", "e2"]  # invalid row dropped
        assert back["v_c"][0] == events[0].v_c
        everything = read_params_csv(path, only_valid=False)
        assert len(everything) == 3

    def test_published_minimal_format(self, tmp_path):
        path = tmp_path / "published.csv"
        path.write_text(
            "vc,a1,a2,taus,tau1,tau2,weight\n"
            "2.5,-1.0,-1.0,0.0,5.0,0.0,1.25\n"
        )
        (event,) = read_params_csv(path)
        assert event.v_c == 2.5
        assert event.weight == 1.25
        assert event.source_group is None

    @pytest.mark.parametrize(
        "text, event_id",
        [
            ("event_id,v_c,a1,a2,tau_s,tau_1,tau_2,weight\nE17,2.5,-1.0,-1.0,0.0,5.0,0.0,1.25\n", "E17"),
            ("vc,a1,a2,taus,tau1,tau2,weight\n2.5,-1.0,-1.0,0.0,5.0,0.0,1.25\n", "row-0"),
        ],
        ids=["named", "published"],
    )
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, text, event_id):
        path = tmp_path / "params.csv"
        path.write_text("\ufeff" + text, encoding="utf-8")  # as spreadsheet programs save CSV
        (event,) = read_params_csv(path)
        assert (event.event_id, event.v_c, event.weight) == (event_id, 2.5, 1.25)

    def test_missing_parameter_column(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("event_id,v_c,a1\na,1,2\n")
        with pytest.raises(InputError):
            read_params_csv(path)


class TestCombinedCsv:
    def test_round_trip_with_weights(self, tmp_path):
        path = tmp_path / "combined.csv"
        events = [sample_event(i, weight=0.1 + 0.7 * i) for i in range(4)]
        write_combined_csv(path, ParamTable.from_rows(events))
        back = read_combined_csv(path)
        assert back.events.weight.tolist() == [e.weight for e in events]

    @staticmethod
    def with_stages(path, stages):
        """Rewrite the stage cell of each row; None drops the column."""
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("stage")
        for row, stage in zip(rows[1:], stages or ()):
            row[column] = stage
        if stages is None:
            for row in rows:
                del row[column]
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize(
        "stages",
        [None, ["", "", ""], ["CombinedIncident", "", "CombinedIncident"]],
        ids=["missing-column", "empty-cells", "combined-incident"],
    )
    def test_stage_of_the_combined_dataset_reads(self, tmp_path, stages):
        path = tmp_path / "combined.csv"
        table = ParamTable.from_rows(sample_event(i) for i in range(3))
        write_combined_csv(path, table)
        self.with_stages(path, stages)
        assert list(read_combined_csv(path).events) == list(table)

    @pytest.mark.parametrize(
        "stages, line, stage",
        [
            (["Preprocessed"] * 3, 2, "Preprocessed"),
            (["CombinedCrash"] * 3, 2, "CombinedCrash"),
            (["CombinedIncident", "", "Preprocessed"], 4, "Preprocessed"),
            (["", "CombinedCrash", "combined"], 3, "CombinedCrash"),
            (["CombinedIncident", "incident", ""], 3, "incident"),
        ],
        ids=["preprocessed", "combined-crash", "preprocessed-last", "first-of-two", "other-text"],
    )
    def test_any_other_stage_names_its_first_line(self, tmp_path, stages, line, stage):
        path = tmp_path / "combined.csv"
        write_combined_csv(path, ParamTable.from_rows(sample_event(i) for i in range(3)))
        self.with_stages(path, stages)
        with pytest.raises(MalformedRow, match=f"line {line}: stage '{stage}' is not CombinedIncident"):
            read_combined_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("event_id,v_c,a1\na,1,2\n")
        with pytest.raises(InputError):
            read_combined_csv(path)

    def test_attached_to_names_the_host_crash(self, tmp_path):
        path = tmp_path / "combined.csv"
        events = ParamTable.from_rows(sample_event(i) for i in range(3))
        merge = MergeResult(selected=(("e2", "e0", 0.1),))
        write_combined_csv(path, events, merge)
        with path.open(newline="") as fh:
            attached = [row["attached_to"] for row in csv.DictReader(fh)]
        assert attached == ["", "", "e0"]

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("v_c,a1,a2,tau_s,tau_1,tau_2,weight\n")
        with pytest.raises(InputError, match="no events"):
            read_combined_csv(path)

    def test_aliases_ignore_case_and_whitespace(self, tmp_path):
        path = tmp_path / "published.csv"
        path.write_text(" VC ,A1,a2, TauS,TAU1,tau2,W\n\n2.5,-1.0,-1.0,0.0,5.0,0.0,1.25\n")
        (event,) = read_combined_csv(path).events
        assert event.tau_1 == 5.0
        assert event.weight == 1.25
        assert event.event_id == "row-0"


# --- property tests: every table round-trips, every corrupted cell is an InputError ---

ids = st.text(alphabet="abcXYZ019-_ ,\"'", min_size=1, max_size=10).filter(lambda s: s == s.strip())
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def event_params(draw, enums=True):
    return EventParams(
        event_id=draw(ids),
        **{name: draw(finite) for name in PARAM_NAMES},
        weight=draw(positive),
        source_group=draw(st.none() | st.sampled_from(SourceGroup)) if enums else None,
        severity=draw(st.none() | st.sampled_from(Severity)) if enums else None,
    )


@st.composite
def params_events(draw):
    """Params tables carry the native weight; an event without one reads as weight 1."""
    native = draw(st.none() | positive)
    return replace(draw(event_params()), weight=1.0 if native is None else native, native_weight=native)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(params_events(), st.booleans()), max_size=8))
def test_params_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("params") / "params.csv"
    write_params_csv(
        path, ParamTable.from_rows(e for e, _ in rows), [0.5] * len(rows), [2] * len(rows), [ok for _, ok in rows]
    )
    assert list(read_params_csv(path, only_valid=False)) == [e for e, _ in rows]
    assert list(read_params_csv(path)) == [e for e, ok in rows if ok]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(event_params(), min_size=1, max_size=8))
def test_combined_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("combined") / "combined.csv"
    write_combined_csv(path, ParamTable.from_rows(rows))
    assert list(read_combined_csv(path).events) == rows


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(event_params(enums=False), ids | st.just("")), max_size=8))
def test_synthetic_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("synthetic") / "synthetic.csv"
    dataset = SyntheticDataset(
        events=ParamTable.from_rows(e for e, _ in rows), bundle_ids=tuple(b for _, b in rows)
    )
    write_synthetic_csv(path, dataset)
    back = read_synthetic_csv(path)
    assert list(back.events) == [e for e, _ in rows]
    assert back.bundle_ids == dataset.bundle_ids


def _parses_finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


printable = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
not_a_number = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "1,5"]) | printable.filter(
    lambda s: not _parses_finite(s)
)


def not_one_of(values):
    return printable.filter(lambda s: s.strip() not in values)


CORRUPT = {
    **{name: not_a_number for name in PARAM_NAMES},
    "weight": st.sampled_from(["0", "-1", "-0.0", "nan", "inf", "x"]),
    "group": not_one_of({"", *(g.value for g in SourceGroup)}),
    "severity": not_one_of({"", *(s.value for s in Severity)}),
    "stage": not_one_of({"", "CombinedIncident"}),
    "valid": not_one_of({"", "0", "1"}),
}


def _write_tables(directory):
    events = [sample_event(i, weight=0.5 + i) for i in range(3)]
    write_params_csv(directory / "params.csv", ParamTable.from_rows(events), [0.9] * 3, [1] * 3, [True] * 3)
    table = ParamTable.from_rows(events)
    write_combined_csv(directory / "combined.csv", table)
    write_synthetic_csv(
        directory / "synthetic.csv",
        SyntheticDataset(events=table, bundle_ids=("S1", "S2", "S1")),
    )


READERS = {
    "params.csv": read_params_csv,
    "combined.csv": read_combined_csv,
    "synthetic.csv": read_synthetic_csv,
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), data=st.data())
def test_any_corrupted_cell_is_an_input_error(tmp_path_factory, name, data):
    directory = tmp_path_factory.mktemp("tables")
    _write_tables(directory)
    path = directory / name
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    r = data.draw(st.integers(0, len(rows) - 1), label="row")
    mutation = data.draw(st.sampled_from(["cell", "drop", "extra"]), label="mutation")
    if mutation == "cell":
        column = data.draw(st.sampled_from([c for c in header if c in CORRUPT]), label="column")
        rows[r][header.index(column)] = data.draw(CORRUPT[column], label="value")
    elif mutation == "drop":
        del rows[r][data.draw(st.integers(0, len(header) - 1), label="dropped")]
    else:
        rows[r].append("1.0")
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    with pytest.raises(InputError, match=rf"{path.name}: line {r + 2}: "):
        READERS[name](path)


@pytest.mark.parametrize(
    "text", ["", "{", '{"raw": {"NOPE": 1}, "valid": {}}', '{"raw": {}}', '{"raw": [1], "valid": {}}']
)
def test_malformed_counts_sidecar_is_an_input_error(tmp_path, text):
    path = tmp_path / "params.counts.json"
    path.write_text(text)
    with pytest.raises(InputError):
        read_counts_json(path)


@pytest.mark.parametrize(
    "count",
    ["2.7", '"3"', "true", "-4", "1e300", "1" + "0" * 400],
    ids=["fraction", "string", "bool", "negative", "float-1e300", "integer-1e400"],
)
def test_counts_sidecar_takes_only_non_negative_integers(tmp_path, count):
    # the raw counts set the SHRP2 group weights, so a bad one must not be rounded or cast
    path = tmp_path / "params.counts.json"
    path.write_text(f'{{"raw": {{"SHRP2_sc": {count}}}, "valid": {{"SHRP2_sc": 1}}}}')
    with pytest.raises(InputError, match=rf"{path.name}: malformed counts: .*raw SHRP2_sc count must be an integer"):
        read_counts_json(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_SECTION = st.dictionaries(
    st.sampled_from([g.value for g in SourceGroup] + ["", "NOPE", "ciss_sc"]),
    st.one_of(st.integers(-2, MAX_COUNT + 2), st.sampled_from([0, 1, MAX_COUNT]), _JSON),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(
    st.fixed_dictionaries({"raw": _SECTION, "valid": _SECTION}),
    st.dictionaries(st.sampled_from(["raw", "valid", "other"]), st.one_of(_SECTION, _JSON), max_size=3),
    _JSON,
))
def test_random_counts_document_is_counts_or_an_input_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("counts") / "params.counts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        counts = read_counts_json(path)
    except InputError:
        return
    assert isinstance(counts, GroupCounts)
    assert {g.value: n for g, n in counts.raw.items()} == doc["raw"]
    assert {g.value: n for g, n in counts.valid.items()} == doc["valid"]


def _profile(event_id, times, speeds):
    times = np.asarray(times, dtype=float)
    return SpeedProfile(event_id, times, np.asarray(speeds, dtype=float))


def _csv_writer_bytes(profiles) -> bytes:
    """What ``csv.writer`` writes for the rows of ``profiles``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["event_id", "t", "v"])
    for p in profiles:
        writer.writerows((p.event_id, t, v) for t, v in zip(p.times.tolist(), p.speeds.tolist()))
    return buf.getvalue().encode("utf-8")


class TestProfilesCsv:
    GRID = np.arange(-5.0, 0.05, 0.1)

    def check(self, tmp_path, profiles, make_input=list):
        path = tmp_path / "profiles.csv"
        write_profiles_csv(path, make_input(profiles))
        assert path.read_bytes() == _csv_writer_bytes(profiles)

    @pytest.mark.parametrize("event_id", [
        "plain", "a,b", 'say "hi"', '"', "cr\rlf\n", "line\nbreak", " lead", "trail ", "véhicule-ß-東",
        "", " ", ",", '",\r\n',
    ])
    def test_event_ids_quoted_as_csv_writer(self, tmp_path, event_id):
        profiles = [_profile(event_id, self.GRID, np.linspace(1.0, 2.0, self.GRID.size)),
                    _profile("next", self.GRID, np.zeros(self.GRID.size))]
        self.check(tmp_path, profiles)
        rows = list(csv.reader(io.StringIO((tmp_path / "profiles.csv").read_bytes().decode("utf-8"), newline="")))
        assert [r[0] for r in rows[1:]] == [event_id] * self.GRID.size + ["next"] * self.GRID.size

    def test_empty_id_is_an_empty_cell(self, tmp_path):
        write_profiles_csv(tmp_path / "p.csv", [_profile("", [0.0], [1.5])])
        assert (tmp_path / "p.csv").read_bytes() == b"event_id,t,v\r\n,0.0,1.5\r\n"

    def test_two_time_grids_in_one_call(self, tmp_path):
        coarse = np.arange(-5.0, 0.05, 0.25)
        profiles = [_profile("a", self.GRID, np.sin(self.GRID)), _profile("b", coarse, np.cos(coarse)),
                    _profile("c", self.GRID.copy(), np.cos(self.GRID)), _profile("d", coarse[3:], coarse[3:] ** 2)]
        self.check(tmp_path, profiles)

    def test_same_bytes_on_another_grid_object(self, tmp_path):
        # grids are keyed by value: equal values written twice, a changed one anew
        grid = self.GRID.copy()
        first = _profile("a", grid, np.ones(grid.size))
        shifted = _profile("b", grid + 0.5, np.ones(grid.size))
        self.check(tmp_path, [first, shifted, _profile("c", grid.copy(), np.ones(grid.size))])

    def test_one_pass_generator(self, tmp_path):
        profiles = [_profile(f"e{i}", self.GRID, np.full(self.GRID.size, float(i))) for i in range(5)]
        self.check(tmp_path, profiles, make_input=lambda ps: (p for p in ps))

    def test_empty_iterable_writes_the_header(self, tmp_path):
        self.check(tmp_path, [])
        assert (tmp_path / "profiles.csv").read_bytes() == b"event_id,t,v\r\n"

    def test_special_speeds(self, tmp_path):
        speeds = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
        self.check(tmp_path, [_profile("s", np.arange(len(speeds)) * 0.1, speeds)])

    def test_a_profile_without_samples_writes_no_row(self, tmp_path):
        self.check(tmp_path, [_profile("none", [], []), _profile("one", [0.0], [2.0])])
