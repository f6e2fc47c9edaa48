"""CSV serialization for stage artifacts.

Every stage writes plain CSV so artifacts stay independently inspectable.
The parameter table (params, combined and synthetic CSVs) has one reader:
columns resolve through ``_ALIASES``, so the minimal published format (six
parameters plus a weight column) reads as well, and every malformed cell
raises ``InputError`` naming its file and line.
"""

from __future__ import annotations

import csv
import json
import math
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from .combine import GroupCounts, MergeResult, Stage, WeightedDataset
from .config import MAX_COUNT
from .errors import InputError
from .events import PARAM_NAMES, EventParams, ParamTable, Severity, SourceGroup, SpeedProfile
from .synth import SyntheticDataset

PathLike = Union[str, Path]

PARAMS_HEADER = ["event_id", "group", "severity", *PARAM_NAMES, "r2", "n_b", "weight", "valid"]
COMBINED_HEADER = ["event_id", "group", "severity", *PARAM_NAMES, "weight", "stage", "attached_to"]
SYNTHETIC_HEADER = ["event_id", *PARAM_NAMES, "weight", "bundle"]

# lower-cased header name -> column; any other name stands for itself
_ALIASES = {"vc": "v_c", "taus": "tau_s", "tau1": "tau_1", "tau2": "tau_2", "w": "weight"}


class _Row(NamedTuple):
    event: EventParams
    stage: Optional[Stage]
    bundle: str
    valid: bool


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _write_csv(path: PathLike, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _param_cells(e: EventParams) -> List[str]:
    return [repr(float(getattr(e, name))) for name in PARAM_NAMES]


def _event_cells(e: EventParams) -> List[str]:
    """The leading event_id, group, severity and parameter cells of a row."""
    return [e.event_id, _fmt(e.source_group), _fmt(e.severity), *_param_cells(e)]


def _number(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"non-numeric {name} {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"non-finite {name} {text!r}")
    return value


def _member(kind, text: str, name: str):
    """The enum member spelled ``text``; None for an empty cell."""
    try:
        return kind(text) if text else None
    except ValueError:
        raise InputError(f"unknown {name} {text!r}") from None


def _parse_row(cell: Dict[str, str], index: int, native_weight: bool) -> _Row:
    valid = cell.get("valid", "")
    if valid not in ("", "0", "1"):
        raise InputError(f"valid flag {valid!r} is neither 0 nor 1")
    weight = _number(cell["weight"], "weight") if cell.get("weight") else None
    if weight is not None and weight <= 0:
        raise InputError(f"non-positive weight {cell['weight']!r}")
    event = EventParams(
        event_id=cell.get("event_id") or f"row-{index}",
        **{name: _number(cell[name], name) for name in PARAM_NAMES},
        weight=1.0 if weight is None else weight,
        source_group=_member(SourceGroup, cell.get("group"), "group"),
        severity=_member(Severity, cell.get("severity"), "severity"),
        native_weight=weight if native_weight else None,
    )
    return _Row(event, _member(Stage, cell.get("stage"), "stage"), cell.get("bundle", ""), valid != "0")


def _read_rows(path: PathLike, native_weight: bool = False) -> List[_Row]:
    """Parse and validate every row of a parameter table.

    Header names are matched case-insensitively after stripping and resolved
    through ``_ALIASES``; columns the table does not use are ignored.  A
    missing ``event_id`` becomes ``row-<index>``, a missing weight 1.0.
    ``native_weight`` also records the weight column as the native weight.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [_ALIASES.get(h.strip().lower(), h.strip().lower()) for h in next(reader, [])]
        missing = [p for p in PARAM_NAMES if p not in header]
        if missing:
            raise InputError(f"{path}: missing parameter columns: {', '.join(missing)}")
        duplicated = sorted({n for n in header if n and header.count(n) > 1})
        if duplicated:
            raise InputError(f"{path}: duplicate columns: {', '.join(duplicated)}")
        rows = []
        for index, cells in enumerate(filter(None, reader)):  # blank lines carry no row
            try:
                if len(cells) != len(header):
                    raise InputError(f"{len(cells)} cells for {len(header)} columns")
                cell = {name: text.strip() for name, text in zip(header, cells)}
                rows.append(_parse_row(cell, index, native_weight))
            except InputError as exc:
                raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def write_params_csv(path: PathLike, rows: Sequence[dict]) -> None:
    """Rows carry: event (EventParams), r2, n_b, valid."""
    _write_csv(path, PARAMS_HEADER, (
        [*_event_cells(row["event"]), _fmt(row.get("r2")), _fmt(row.get("n_b")),
         _fmt(row["event"].native_weight), "1" if row.get("valid", True) else "0"]
        for row in rows
    ))


def read_params_csv(path: PathLike, only_valid: bool = True) -> ParamTable:
    """Read a parameter table; tolerates the minimal published format."""
    rows = _read_rows(path, native_weight=True)
    return ParamTable.from_rows(r.event for r in rows if r.valid or not only_valid)


def write_json(path: PathLike, doc) -> None:
    """Every JSON artifact's one layout: indented, keys sorted, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_counts_json(path: PathLike, counts: GroupCounts) -> None:
    write_json(path, {
        "raw": {g.value: counts.raw_of(g) for g in SourceGroup},
        "valid": {g.value: counts.valid_of(g) for g in SourceGroup},
    })


def _group_counts(doc, key: str) -> Dict[SourceGroup, int]:
    """doc[key] read as group -> count; a count is a JSON integer in
    [0, MAX_COUNT], and a bool, a float or a string is none."""
    section = doc[key]
    if not isinstance(section, dict):
        raise TypeError(f"{key} must be an object, got {type(section).__name__}")
    counts = {}
    for group, count in section.items():
        if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count <= MAX_COUNT:
            raise ValueError(f"{key} {group} count must be an integer in [0, {MAX_COUNT}], got {count!r}")
        counts[SourceGroup(group)] = count
    return counts


def read_counts_json(path: PathLike) -> GroupCounts:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return GroupCounts(raw=_group_counts(doc, "raw"), valid=_group_counts(doc, "valid"))
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise InputError(f"{path}: malformed counts: {exc!r}") from None


def write_combined_csv(
    path: PathLike,
    dataset: WeightedDataset,
    merge: Optional[MergeResult] = None,
) -> None:
    attached_to = {nc_id: crash_id for nc_id, crash_id, _ in merge.selected} if merge else {}
    _write_csv(path, COMBINED_HEADER, (
        [*_event_cells(e), _fmt(e.weight), dataset.stage.value, attached_to.get(e.event_id, "")]
        for e in dataset.events
    ))


def read_combined_csv(path: PathLike) -> WeightedDataset:
    rows = _read_rows(path)
    if not rows:
        raise InputError(f"{path}: no events")
    stages = {r.stage for r in rows if r.stage is not None}
    if len(stages) > 1:
        raise InputError(f"{path}: mixed stages: {', '.join(sorted(s.value for s in stages))}")
    stage = stages.pop() if stages else Stage.COMBINED_INCIDENT
    return WeightedDataset(events=ParamTable.from_rows(r.event for r in rows), stage=stage)


def write_synthetic_csv(path: PathLike, dataset: SyntheticDataset) -> None:
    _write_csv(path, SYNTHETIC_HEADER, (
        [e.event_id, *_param_cells(e), _fmt(e.weight), bundle]
        for e, bundle in zip(dataset.events, dataset.bundle_ids, strict=True)
    ))


def read_synthetic_csv(path: PathLike) -> SyntheticDataset:
    rows = _read_rows(path)
    return SyntheticDataset(ParamTable.from_rows(r.event for r in rows), tuple(r.bundle for r in rows))


def write_profiles_csv(path: PathLike, profiles: Iterable[SpeedProfile]) -> None:
    # csv writes a float as str(), which is its repr
    _write_csv(path, ["event_id", "t", "v"], (
        (profile.event_id, t, v)
        for profile in profiles
        for t, v in zip(profile.times.tolist(), profile.speeds.tolist())
    ))
