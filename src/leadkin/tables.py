"""CSV serialization for stage artifacts, and the counts sidecar beside them.

Every table is plain CSV so artifacts stay independently inspectable.
Every CSV input (raw events, and the params, combined and synthetic
tables) has one reader, ``read_columns``: columns resolve through
``_ALIASES``, so the minimal published format (six parameters plus a weight
column) reads as well, and every malformed cell raises ``InputError``
naming its file and line.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .combine import GroupCounts, MergeResult
from .config import MAX_COUNT
from .errors import InputError, MalformedRow, Undecodable
from .events import PARAM_NAMES, ParamTable, Severity, SourceGroup, SpeedProfile
from .jsonio import _checked, _field, read_json, write_json
from .synth import SyntheticDataset

PathLike = Union[str, Path]

PARAMS_HEADER = ["event_id", "group", "severity", *PARAM_NAMES, "r2", "n_b", "weight", "valid"]
COMBINED_HEADER = ["event_id", "group", "severity", *PARAM_NAMES, "weight", "stage", "attached_to"]
SYNTHETIC_HEADER = ["event_id", *PARAM_NAMES, "weight", "bundle"]

# the stage every combined.csv row carries: the combined incident dataset
COMBINED_STAGE = "CombinedIncident"

# lower-cased header name -> column; any other name stands for itself
_ALIASES = {"vc": "v_c", "taus": "tau_s", "tau1": "tau_1", "tau2": "tau_2", "w": "weight"}


def _write_csv(path: PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    # csv writes a Python float as its repr, a str Enum as its value and None as ""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _event_columns(table: ParamTable) -> List[list]:
    """The event_id, group, severity and parameter columns as Python values."""
    return [table.event_id.tolist(), table.source_group.tolist(), table.severity.tolist(),
            *table.values.T.tolist()]


def _number(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"non-numeric {name} {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"non-finite {name} {text!r}")
    return value


def _weight(text: str) -> Optional[float]:
    """A positive weight; None for an empty cell."""
    if not text:
        return None
    value = _number(text, "weight")
    if value <= 0:
        raise InputError(f"non-positive weight {text!r}")
    return value


def _member(kind, text: str, name: str):
    """The enum member spelled ``text``; None for an empty cell."""
    try:
        return kind(text) if text else None
    except ValueError:
        raise InputError(f"unknown {name} {text!r}") from None


def _stage(text: str) -> None:
    if text not in ("", COMBINED_STAGE):
        raise InputError(f"stage {text!r} is not {COMBINED_STAGE}")


def _flag(text: str) -> bool:
    if text not in ("", "0", "1"):
        raise InputError(f"valid flag {text!r} is neither 0 nor 1")
    return text != "0"


# column -> cell parser, in the order the cells of one row are checked
_PARSERS = {
    "valid": _flag,
    "weight": _weight,
    **{name: partial(_number, name=name) for name in PARAM_NAMES},
    "group": partial(_member, SourceGroup, name="group"),
    "severity": partial(_member, Severity, name="severity"),
    "stage": _stage,
    "event_id": str,
    "bundle": str,
}


def _parse_column(cells: Sequence[str], parse, bad: list) -> list:
    """Every cell through ``parse``, stripped, up to the first it rejects,
    which is appended to ``bad`` as (row index, message).

    Each distinct text is parsed once per call, in order of first
    appearance: ids, labels and time grids repeat on every row.  A rejected text is first
    rejected where it first appears, so the first bad row is still found.
    """
    parsed = {}
    for text in dict.fromkeys(cells):
        try:
            parsed[text] = parse(text.strip())
        except InputError as exc:
            index = cells.index(text)
            bad.append((index, str(exc)))
            cells = cells[:index]
            break
    return list(map(parsed.__getitem__, cells))


_CHUNK_ROWS = 128  # rows held as text at once; their parsed cells take less memory


def read_columns(path: PathLike, parsers: Dict[str, Callable[[str], object]],
                 required: Sequence[str]) -> Dict[str, list]:
    """Every column named in ``parsers``, parsed cell by cell, by name.

    The one CSV reader of the package.  Header names are matched
    case-insensitively after stripping and resolved through ``_ALIASES``;
    each ``required`` column must be present, no column may appear twice,
    and columns without a parser are ignored.  An absent column reads as
    empty cells.  Blank lines are skipped, and every other row must have a
    cell per column.  A missing file, bytes that are not UTF-8 and a
    malformed row raise ``InputError`` naming the file; of several
    malformed cells, the error names the first line holding one, and of
    one line the cell whose parser comes first.  Rows are parsed
    ``_CHUNK_ROWS`` at a time, column by column.
    """
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [_ALIASES.get(h.strip().lower(), h.strip().lower()) for h in next(reader, [])]
            missing = [name for name in required if name not in header]
            if missing:
                raise InputError(f"{path}: missing columns: {', '.join(missing)}")
            duplicated = sorted({n for n in header if n and header.count(n) > 1})
            if duplicated:
                raise InputError(f"{path}: duplicate columns: {', '.join(duplicated)}")
            columns = {name: [] for name in parsers}
            numbered = ((reader.line_num, cells) for cells in reader if cells)  # blank lines carry no row
            while chunk := list(islice(numbered, _CHUNK_ROWS)):
                lines, rows = zip(*chunk)
                n = next((i for i, cells in enumerate(rows) if len(cells) != len(header)), len(rows))
                bad = [(n, f"{len(rows[n])} cells for {len(header)} columns")] if n < len(rows) else []
                by_name = dict(zip(header, zip(*rows[:n])))
                for name, parse in parsers.items():
                    columns[name] += _parse_column(by_name.get(name, ("",) * n), parse, bad)
                if bad:
                    index, message = min(bad, key=lambda b: b[0])  # of one line, the cell checked first
                    raise MalformedRow(path, lines[index], message)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise Undecodable(path, exc) from None
    except csv.Error as exc:  # a cell past csv's field size limit
        raise MalformedRow(path, reader.line_num, str(exc)) from None
    return columns


def _read_table(path: PathLike, native_weight: bool = False) -> Tuple[ParamTable, Dict[str, list]]:
    """A parameter table and every parsed column by name.

    A missing ``event_id`` becomes ``row-<index>``, a missing weight 1.0.
    ``native_weight`` also records the weight column as the native weight.
    """
    columns = read_columns(path, _PARSERS, PARAM_NAMES)
    weight = columns["weight"]
    table = ParamTable(
        np.column_stack([columns[name] for name in PARAM_NAMES]),
        [1.0 if w is None else w for w in weight],
        [event_id or f"row-{index}" for index, event_id in enumerate(columns["event_id"])],
        columns["group"],
        columns["severity"],
        weight if native_weight else None,
    )
    return table, columns


def write_params_csv(path: PathLike, table: ParamTable, r2: Sequence[float], n_b: Sequence[int],
                     valid: Sequence[bool]) -> None:
    """One row per event of ``table``, with its fit's r2 and breakpoint
    count, its native weight and its valid flag from the parallel columns."""
    _write_csv(path, PARAMS_HEADER, zip(
        *_event_columns(table), np.asarray(r2, dtype=float).tolist(), np.asarray(n_b, dtype=int).tolist(),
        table.native_weight.tolist(), ["1" if ok else "0" for ok in valid], strict=True,
    ))


def read_params_csv(path: PathLike, only_valid: bool = True) -> ParamTable:
    """Read a parameter table; tolerates the minimal published format."""
    table, columns = _read_table(path, native_weight=True)
    return table.take(np.array(columns["valid"], dtype=bool)) if only_valid else table


def write_counts_json(path: PathLike, counts: GroupCounts) -> None:
    write_json(path, {
        "raw": {g.value: counts.raw_of(g) for g in SourceGroup},
        "valid": {g.value: counts.valid_of(g) for g in SourceGroup},
    })


def read_counts_json(path: PathLike) -> GroupCounts:
    """The counts sidecar; a count is a JSON integer in [0, MAX_COUNT], and
    a bool, a float or a string is none."""
    where = f"{path}: malformed counts"
    doc = _checked(read_json(path, "counts sidecar"), dict, where)
    groups = {g.value: g for g in SourceGroup}
    sections = {}
    for key in ("raw", "valid"):
        sections[key] = {}
        for group, count in _field(doc, key, dict, where).items():
            if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count <= MAX_COUNT:
                raise InputError(f"{where}: {key} {group} count must be an integer in [0, {MAX_COUNT}], "
                                 f"got {count!r:.60}")
            if group not in groups:
                raise InputError(f"{where}: {key}: unknown group {group!r}")
            sections[key][groups[group]] = count
    return GroupCounts(**sections)


def write_combined_csv(path: PathLike, table: ParamTable, merge: Optional[MergeResult] = None) -> None:
    """The combined incident dataset, one row per event; a near-crash that
    ``merge`` attached names its crash in ``attached_to``."""
    attached_to = {nc_id: crash_id for nc_id, crash_id, _ in merge.selected} if merge else {}
    event_id = table.event_id.tolist()
    _write_csv(path, COMBINED_HEADER, zip(
        *_event_columns(table), table.weight.tolist(),
        [COMBINED_STAGE] * len(event_id), [attached_to.get(e, "") for e in event_id],
    ))


# perfbench reads ``.events`` from what ``read_combined_csv`` returns
@dataclass(frozen=True)
class WeightedDataset:
    events: ParamTable


def read_combined_csv(path: PathLike) -> WeightedDataset:
    """The combined incident dataset.  Every ``stage`` cell must be empty or
    ``CombinedIncident``: a file of another stage is a malformed row naming
    its first bad line, so it is never modeled as the combined dataset."""
    table, _ = _read_table(path)
    if not len(table):
        raise InputError(f"{path}: no events")
    return WeightedDataset(events=table)


def write_synthetic_csv(path: PathLike, dataset: SyntheticDataset) -> None:
    table = dataset.events
    _write_csv(path, SYNTHETIC_HEADER, zip(
        table.event_id.tolist(), *table.values.T.tolist(), table.weight.tolist(), dataset.bundle_ids,
        strict=True,
    ))


def read_synthetic_csv(path: PathLike) -> SyntheticDataset:
    table, columns = _read_table(path)
    return SyntheticDataset(table, tuple(columns["bundle"]))


def write_profiles_csv(path: PathLike, profiles: Iterable[SpeedProfile]) -> None:
    """One (event_id, t, v) row per sample, consuming ``profiles`` in one pass.

    The bytes are ``csv.writer``'s, without its per-row cost: every number
    is written as its repr, as csv writes a float; each distinct time grid
    is formatted once, keyed by its dtype and bytes; each event id is quoted
    once, by a csv.writer; and the lines of one profile are joined and
    written together.
    """
    cell = io.StringIO()
    quote = csv.writer(cell)
    stamps: Dict[bytes, List[str]] = {}  # grid -> its "t," cells
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("event_id,t,v\r\n")
        for profile in profiles:
            times = profile.times
            key = times.dtype.str.encode() + times.tobytes()
            if key not in stamps:
                stamps[key] = [repr(t) + "," for t in times.tolist()]
            cell.seek(0)
            cell.truncate()
            quote.writerow((profile.event_id, "", ""))
            prefix = cell.getvalue()[:-3]  # the id cell and its comma
            lines = list(map(operator.add, stamps[key], map(repr, profile.speeds.tolist())))
            if lines:
                fh.write(prefix + ("\r\n" + prefix).join(lines) + "\r\n")
