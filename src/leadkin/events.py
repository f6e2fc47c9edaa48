"""Event-level data model shared by every pipeline stage."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

GRAVITY = 9.80665  # m/s^2, standard gravity; acceleration validity bound

MODEL_T_MIN = -5.0  # s, start of the modeling window relative to time zero
MODEL_T_MAX = 0.0  # s, time zero
CRASH_T_CUTOFF = -0.3  # s, last usable sample before impact for crashes

PARAM_NAMES = ("v_c", "a1", "a2", "tau_s", "tau_1", "tau_2")


class SourceGroup(str, Enum):
    CISS_SC = "CISS_sc"
    SHRP2_SC = "SHRP2_sc"
    SHRP2_NSC = "SHRP2_nsc"
    SHRP2_NC = "SHRP2_nc"


class Severity(str, Enum):
    SEVERE = "Severe"
    NON_SEVERE = "NonSevere"
    NONE = "None"


@dataclass(frozen=True)
class RawEvent:
    """A raw speed-time series around time zero, as read from disk.

    Sample times are seconds relative to time zero (impact for crashes,
    minimum following distance for near-crashes) and strictly increasing.
    """

    event_id: str
    source_group: SourceGroup
    severity: Severity
    times: np.ndarray
    speeds: np.ndarray
    native_weight: Optional[float] = None

    @property
    def is_crash(self) -> bool:
        return self.severity is not Severity.NONE


@dataclass(frozen=True)
class SpeedProfile:
    """A windowed speed series with per-sample fit weights attached."""

    event_id: str
    source_group: Optional[SourceGroup]
    severity: Optional[Severity]
    times: np.ndarray
    speeds: np.ndarray
    weights: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class EventParams:
    """A view of one ``ParamTable`` row: the six-parameter description of a
    lead-vehicle speed profile, with its weight, source group and severity.

    Counted backward from time zero: an optional steady-speed phase of
    duration ``tau_s`` at speed ``v_c``, a constant-acceleration phase
    (``a1``, ``tau_1``) and an earlier constant-acceleration phase
    (``a2``, ``tau_2``).  Absent phases follow the zero-duration defaults
    (``tau_s = 0``; ``tau_1 = 0`` with ``a1 = 0``; ``tau_2 = 0`` with
    ``a2 = a1``).  Only a ``ParamTable`` holds the data, by column.
    """

    event_id: str
    v_c: float
    a1: float
    a2: float
    tau_s: float
    tau_1: float
    tau_2: float
    weight: float = 1.0
    source_group: Optional[SourceGroup] = None
    severity: Optional[Severity] = None
    native_weight: Optional[float] = None


def _objects(data, n: int, fill=None) -> np.ndarray:
    """An object column; ``None`` gives n cells holding ``fill``."""
    return np.full(n, fill, dtype=object) if data is None else np.asarray(data, dtype=object)


class ParamTable:
    """Parameter rows stored by column.

    ``values`` is an (n, 6) float array in ``PARAM_NAMES`` order; ``weight``
    (default 1), ``event_id`` (default ""), ``source_group``, ``severity``
    and ``native_weight`` (default None) are parallel length-n columns.
    ``table["v_c"]`` is one parameter's column; iterating yields the rows
    as ``EventParams``.
    """

    __slots__ = ("values", "weight", "event_id", "source_group", "severity", "native_weight")

    def __init__(self, values, weight=None, event_id=None, source_group=None, severity=None,
                 native_weight=None):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(PARAM_NAMES):
            raise ValueError(f"parameter values must have shape (n, 6), got {self.values.shape}")
        n = len(self.values)
        self.weight = np.ones(n) if weight is None else np.asarray(weight, dtype=float)
        self.event_id = _objects(event_id, n, "")
        self.source_group = _objects(source_group, n)
        self.severity = _objects(severity, n)
        self.native_weight = _objects(native_weight, n)
        shapes = {name: getattr(self, name).shape for name in self.__slots__[1:]}
        if any(shape != (n,) for shape in shapes.values()):
            raise ValueError(f"columns of unequal length for {n} rows: {shapes}")

    @staticmethod
    def from_rows(rows: Iterable[EventParams]) -> "ParamTable":
        rows = list(rows)
        values = np.array([[getattr(r, name) for name in PARAM_NAMES] for r in rows], dtype=float)
        return ParamTable(
            values.reshape(len(rows), len(PARAM_NAMES)),
            [r.weight for r in rows],
            [r.event_id for r in rows],
            [r.source_group for r in rows],
            [r.severity for r in rows],
            [r.native_weight for r in rows],
        )

    @staticmethod
    def concat(tables: Sequence["ParamTable"]) -> "ParamTable":
        """The rows of every table, in order."""
        return ParamTable(*(np.concatenate([getattr(t, name) for t in tables])
                            for name in ParamTable.__slots__))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[:, PARAM_NAMES.index(name)]

    def __iter__(self) -> Iterator[EventParams]:
        for event_id, row, weight, group, severity, native in zip(
            self.event_id, self.values.tolist(), self.weight.tolist(),
            self.source_group, self.severity, self.native_weight,
        ):
            yield EventParams(event_id, *row, weight, group, severity, native)

    def take(self, index) -> "ParamTable":
        """The rows at ``index``: integer positions (kept in their order) or a boolean mask."""
        return ParamTable(*(getattr(self, name)[index] for name in self.__slots__))

    def with_weights(self, weight) -> "ParamTable":
        return ParamTable(self.values, weight, self.event_id, self.source_group, self.severity,
                          self.native_weight)
