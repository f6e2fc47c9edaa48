"""The pipeline's settings: one flat, checked configuration.

Each numeric setting's default and allowed range are stated here once.
A library function that reads a setting takes the whole ``PipelineConfig``
as ``config`` (default ``PipelineConfig()``), never the setting alone, and
the CLI builds one from a JSON file and its flags, so both reject the same
values with the same ``InputError``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError
from .jsonio import _checked, read_json


class _Rule(NamedTuple):
    """A numeric config field's type and its interval, low..high."""

    kind: type  # numbers.Integral or numbers.Real
    low: float
    high: float = math.inf
    open_low: bool = False  # the bound itself is excluded
    open_high: bool = False

    def describe(self) -> str:
        if self.high == math.inf:
            return f"{'>' if self.open_low else '>='} {self.low}"
        return f"in {'(' if self.open_low else '['}{self.low}, {self.high}{')' if self.open_high else ']'}"

    def holds(self, value) -> bool:
        above = value > self.low if self.open_low else value >= self.low
        below = value < self.high if self.open_high else value <= self.high
        return above and below


MAX_COUNT = 10**9  # largest draw or permutation count; keeps synth._apportion's int64 sums exact
_MAX_BREAKPOINTS = 5  # the fit's grid-search fallback tries every k-subset of sample midpoints
_MIN_PROFILE_DT = 1e-3  # s; at most 5001 samples per written profile

# every numeric field, checked on construction
_FIELD_RULES = {
    "n_b_max": _Rule(numbers.Integral, 0, _MAX_BREAKPOINTS),
    "penalty": _Rule(numbers.Real, 0, open_low=True),
    "epsilon": _Rule(numbers.Real, 0, open_low=True),
    "steady_slope_tol": _Rule(numbers.Real, 0),
    "max_restarts": _Rule(numbers.Integral, 1),
    "convergence_tol": _Rule(numbers.Real, 0),
    "d_thd": _Rule(numbers.Real, 0),
    "mass_threshold": _Rule(numbers.Real, 0, 1),
    "corr_threshold": _Rule(numbers.Real, 0, 1),
    "alpha_corr": _Rule(numbers.Real, 0, 1, open_low=True, open_high=True),
    "alpha_ks": _Rule(numbers.Real, 0, 1, open_low=True, open_high=True),
    "n_synth": _Rule(numbers.Integral, 1, MAX_COUNT),
    "profile_dt": _Rule(numbers.Real, _MIN_PROFILE_DT),
    "n_perm": _Rule(numbers.Integral, 1, MAX_COUNT),
    "seed": _Rule(numbers.Integral, 0),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Flat, JSON-serializable configuration for the whole pipeline."""

    n_b_max: int = 3  # most breakpoints in a fitted speed profile
    penalty: float = 0.006  # breakpoint-count penalty coefficient, lambda
    epsilon: float = 1e-6  # m/s, guards zero denominators in the loss
    steady_slope_tol: float = 0.05  # m/s^2, max |slope| of a steady-speed segment
    max_restarts: int = 10  # breakpoint refinement starts per breakpoint count
    convergence_tol: float = 1e-6  # relative SSE decrease that ends a restart
    d_thd: float = 0.78  # largest z-score distance at which a near-crash joins its nearest crash
    mass_threshold: float = 0.10  # weighted share of one exact value that makes a point mass
    corr_threshold: float = 0.30  # |r| from which a correlation counts
    alpha_corr: float = 0.05  # significance level of a correlation
    alpha_ks: float = 0.10  # significance level of the validation KS tests
    n_synth: int = 10000  # synthetic events generated
    profile_dt: float = 0.1  # s, sample spacing of written speed profiles
    n_perm: int = 2000  # permutations per KS test
    seed: int = 0
    input: str = "events.csv"
    workdir: str = "out"

    def __post_init__(self):
        for name, rule in _FIELD_RULES.items():
            value = getattr(self, name)
            typed = isinstance(value, rule.kind) and not isinstance(value, bool)
            # a chained comparison, not math.isfinite, so a huge JSON integer cannot overflow
            if not typed or not -math.inf < value < math.inf:
                expected = "an integer" if rule.kind is numbers.Integral else "a finite number"
                raise InputError(f"config field {name}: expected {expected}, got {value!r}")
            if not rule.holds(value):
                raise InputError(f"config field {name} must be {rule.describe()}, got {value!r}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(doc) -> "PipelineConfig":
        doc = _checked(doc, dict, "config")
        known = {f.name for f in dataclasses.fields(PipelineConfig)}
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return PipelineConfig(**doc)

    @staticmethod
    def load(path) -> "PipelineConfig":
        doc = read_json(path, "config file")
        try:
            return PipelineConfig.from_json(doc)
        except InputError as exc:
            raise InputError(f"config file {path}: {exc}") from None
