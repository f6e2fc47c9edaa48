"""Load raw speed series from CSV, window them, and apply validity rules.

Input CSV schema (header required, UTF-8, '.' decimal point):
    event_id, group, severity, t, v[, weight]
with one row per sample, read by ``tables.read_columns``.  ``group`` is one
of CISS_sc, SHRP2_sc, SHRP2_nsc, SHRP2_nc; ``weight`` is the native survey
weight and only meaningful for CISS events.  Every row of an event gives
the same group and severity, and the same weight where it gives one.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from .errors import DuplicateTimestamp, EmptyWindow, InputError, InvalidSampleRate
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
from .tables import _member, _number, _weight, read_columns

REQUIRED_COLUMNS = ("event_id", "group", "severity", "t", "v")
MIN_SAMPLE_RATE = 5.0  # Hz
MIN_VALID_DURATION = 3.0  # s
_T_TOL = 1e-9


def _filled(kind, text: str, name: str):
    """The ``kind`` spelled ``text``; an empty cell is malformed."""
    if not text:
        raise InputError(f"empty {name}")
    return _member(kind, text, name)


def _speed(text: str) -> float:
    value = _number(text, "v")
    if value < 0:
        raise InputError(f"negative speed {text!r}")
    return value


# column -> cell parser, in the order the cells of one row are checked
_PARSERS = {
    "event_id": partial(_filled, str, name="event_id"),
    "group": partial(_filled, SourceGroup, name="group"),
    "severity": partial(_filled, Severity, name="severity"),
    "t": partial(_number, name="t"),
    "v": _speed,
    "weight": _weight,
}


def _agreed(path, event_ids: List[str], column: list, name: str) -> dict:
    """event id -> the one value its rows give in ``column``, empty cells
    aside; rows of one event that disagree raise ``InputError``."""
    agreed = {}
    for event_id, value in dict.fromkeys(zip(event_ids, column)):
        if value is not None and agreed.setdefault(event_id, value) != value:
            raise InputError(f"{path}: event {event_id!r}: rows disagree on {name}")
    return agreed


def load_events(path: Union[str, Path]) -> list:
    """Read raw events from CSV, in order of first appearance, each with
    its samples stable-sorted by time."""
    columns = read_columns(path, _PARSERS, REQUIRED_COLUMNS)  # each column popped when used, to free it
    event_ids = columns.pop("event_id")
    group, severity, weight = (_agreed(path, event_ids, columns.pop(name), name)
                               for name in ("group", "severity", "weight"))
    position: Dict[str, int] = {}  # event id -> its place in order of first appearance
    codes = np.array([position.setdefault(event_id, len(position)) for event_id in event_ids], dtype=int)
    times = np.array(columns.pop("t"), dtype=float)
    order = np.lexsort((times, codes))  # by event, then by time; ties keep file order
    times, speeds = times[order], np.array(columns.pop("v"), dtype=float)[order]
    ends = np.cumsum(np.bincount(codes, minlength=len(position))).tolist()
    events = []
    for event_id, start, end in zip(position, [0, *ends], ends):
        t, v = times[start:end], speeds[start:end]
        dups = np.flatnonzero(np.diff(t) == 0.0)
        if dups.size:
            raise DuplicateTimestamp(path, event_id, float(t[dups[0]]))
        rate = _sample_rate(t)
        if t.size >= 2 and rate < MIN_SAMPLE_RATE - 1e-9:
            raise InvalidSampleRate(path, event_id, rate)
        events.append(
            RawEvent(
                event_id=event_id,
                source_group=group[event_id],
                severity=severity[event_id],
                times=t,
                speeds=v,
                native_weight=weight.get(event_id),
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
    near-crashes keep [-5, 0] s.  A window with fewer than two samples
    raises ``EmptyWindow``.
    """
    t_hi = CRASH_T_CUTOFF if event.is_crash else MODEL_T_MAX
    mask = (event.times >= MODEL_T_MIN - _T_TOL) & (event.times <= t_hi + _T_TOL)
    n_samples = int(mask.sum())
    if n_samples < 2:  # a line needs two
        raise EmptyWindow(event.event_id, n_samples)
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
