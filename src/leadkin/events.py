"""Event-level data model shared by every pipeline stage."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

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
    sample_rate: float
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
    """Six-parameter description of a lead-vehicle speed profile.

    Counted backward from time zero: an optional steady-speed phase of
    duration ``tau_s`` at speed ``v_c``, a constant-acceleration phase
    (``a1``, ``tau_1``) and an earlier constant-acceleration phase
    (``a2``, ``tau_2``).  Absent phases follow the zero-duration defaults
    (``tau_s = 0``; ``tau_1 = 0`` with ``a1 = 0``; ``tau_2 = 0`` with
    ``a2 = a1``).
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

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.v_c, self.a1, self.a2, self.tau_s, self.tau_1, self.tau_2],
            dtype=float,
        )

    def value(self, name: str) -> float:
        return float(getattr(self, name))

    def with_weight(self, weight: float) -> "EventParams":
        return replace(self, weight=weight)


def params_matrix(events: Sequence[EventParams]) -> np.ndarray:
    """Stack events into an (n, 6) array in canonical parameter order."""
    if not events:
        return np.empty((0, len(PARAM_NAMES)))
    return np.vstack([e.as_vector() for e in events])


def event_weights(events: Sequence[EventParams]) -> np.ndarray:
    return np.array([e.weight for e in events], dtype=float)


def from_vector(
    vector: Sequence[float],
    event_id: str = "",
    weight: float = 1.0,
    source_group: Optional[SourceGroup] = None,
    severity: Optional[Severity] = None,
) -> EventParams:
    v_c, a1, a2, tau_s, tau_1, tau_2 = (float(v) for v in vector)
    return EventParams(
        event_id=event_id,
        v_c=v_c,
        a1=a1,
        a2=a2,
        tau_s=tau_s,
        tau_1=tau_1,
        tau_2=tau_2,
        weight=weight,
        source_group=source_group,
        severity=severity,
    )
