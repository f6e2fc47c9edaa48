"""Load raw speed series from CSV, window them, and apply validity rules.

Input CSV schema (header required, UTF-8, '.' decimal point):
    event_id, group, severity, t, v[, weight]
with one row per sample.  ``group`` is one of CISS_sc, SHRP2_sc, SHRP2_nsc,
SHRP2_nc; ``weight`` is the native survey weight and only meaningful for
CISS events.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyWindow,
    InvalidSampleRate,
    MalformedRow,
    Undecodable,
    UnknownGroup,
)
from .events import (
    CRASH_T_CUTOFF,
    GRAVITY,
    MODEL_T_MAX,
    MODEL_T_MIN,
    RawEvent,
    Severity,
    SourceGroup,
    SpeedProfile,
)
from .pwl import PwlFit, sample_weights

REQUIRED_COLUMNS = ("event_id", "group", "severity", "t", "v")
MIN_SAMPLE_RATE = 5.0  # Hz
MIN_VALID_DURATION = 3.0  # s
_T_TOL = 1e-9


def _parse_float(raw: str, path: Path, line_no: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise MalformedRow(path, line_no, f"non-numeric {column} value {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(path, line_no, f"non-finite {column} value {raw!r}")
    return value


def load_events(path: Union[str, Path]) -> list:
    """Read raw events from CSV, grouped by event_id with sorted samples."""
    path = Path(path)
    order = []
    rows = {}
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise MalformedRow(path, 1, f"missing required columns: {', '.join(missing)}")
            has_weight = "weight" in header
            for line_no, row in enumerate(reader, start=2):
                event_id = (row["event_id"] or "").strip()
                if not event_id:
                    raise MalformedRow(path, line_no, "empty event_id")
                try:
                    group = SourceGroup(row["group"].strip())
                except (ValueError, AttributeError):
                    raise UnknownGroup(path, line_no, str(row.get("group"))) from None
                try:
                    severity = Severity(row["severity"].strip())
                except (ValueError, AttributeError):
                    raise MalformedRow(path, line_no, f"unknown severity {row.get('severity')!r}") from None
                t = _parse_float(row["t"], path, line_no, "t")
                v = _parse_float(row["v"], path, line_no, "v")
                if v < 0:
                    raise MalformedRow(path, line_no, f"negative speed {v!r}")
                weight = None
                if has_weight and (row.get("weight") or "").strip():
                    weight = _parse_float(row["weight"], path, line_no, "weight")
                    if weight <= 0:
                        raise MalformedRow(path, line_no, f"non-positive weight {weight!r}")
                if event_id not in rows:
                    order.append(event_id)
                    rows[event_id] = {
                        "group": group,
                        "severity": severity,
                        "t": [],
                        "v": [],
                        "weight": weight,
                    }
                bucket = rows[event_id]
                bucket["t"].append(t)
                bucket["v"].append(v)
                if bucket["weight"] is None and weight is not None:
                    bucket["weight"] = weight
    except UnicodeDecodeError as exc:
        raise Undecodable(path, exc) from None

    events = []
    for event_id in order:
        bucket = rows[event_id]
        t = np.asarray(bucket["t"], dtype=float)
        v = np.asarray(bucket["v"], dtype=float)
        idx = np.argsort(t, kind="stable")
        t, v = t[idx], v[idx]
        dups = np.flatnonzero(np.diff(t) == 0.0)
        if dups.size:
            raise DuplicateTimestamp(path, event_id, float(t[dups[0]]))
        rate = _sample_rate(t)
        if t.size >= 2 and rate < MIN_SAMPLE_RATE - 1e-9:
            raise InvalidSampleRate(path, event_id, rate)
        events.append(
            RawEvent(
                event_id=event_id,
                source_group=bucket["group"],
                severity=bucket["severity"],
                times=t,
                speeds=v,
                sample_rate=rate,
                native_weight=bucket["weight"],
            )
        )
    return events


def _sample_rate(t: np.ndarray) -> float:
    if t.size < 2:
        return 0.0
    return float(1.0 / np.median(np.diff(t)))


def window_event(event: RawEvent) -> SpeedProfile:
    """Restrict samples to the modeling window and attach fit weights.

    Crashes keep [-5, -0.3] s (the last samples before impact are dropped),
    near-crashes keep [-5, 0] s.
    """
    t_hi = CRASH_T_CUTOFF if event.is_crash else MODEL_T_MAX
    mask = (event.times >= MODEL_T_MIN - _T_TOL) & (event.times <= t_hi + _T_TOL)
    if not mask.any():
        raise EmptyWindow(event.event_id)
    t = event.times[mask]
    v = event.speeds[mask]
    return SpeedProfile(
        event_id=event.event_id,
        source_group=event.source_group,
        severity=event.severity,
        times=t,
        speeds=v,
        weights=sample_weights(t),
    )


def validate_event(profile: SpeedProfile, fit: PwlFit) -> bool:
    """Validity predicate: >= 3 s of samples and all slopes within +/- 1 g."""
    if profile.duration < MIN_VALID_DURATION - 1e-12:
        return False
    slopes = fit.slopes()
    return bool((np.abs(slopes) <= GRAVITY + 1e-12).all())
