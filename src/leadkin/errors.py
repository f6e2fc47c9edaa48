"""Exception hierarchy shared across the pipeline.

Two branches matter for the CLI: ``InputError`` maps to exit code 2,
``NumericalError`` to exit code 3.
"""


class LeadkinError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LeadkinError):
    """Malformed or missing input data."""


class NumericalError(LeadkinError):
    """A numerical procedure failed (fit, model build, sampling)."""


class Undecodable(InputError):
    """An input file that is not UTF-8 text; ``source`` names the file."""

    def __init__(self, source, exc: UnicodeDecodeError):
        super().__init__(f"{source}: not UTF-8 text ({exc.reason})")


# --- ingest ---------------------------------------------------------------

class MalformedRow(InputError):
    """A bad row of a CSV input; ``source`` names the file."""

    def __init__(self, source, line_no: int, message: str):
        super().__init__(f"{source}: line {line_no}: {message}")


class DuplicateTimestamp(InputError):
    def __init__(self, source, event_id: str, t: float):
        super().__init__(f"{source}: event {event_id!r}: duplicate timestamp t={t}")


class InvalidSampleRate(InputError):
    def __init__(self, source, event_id: str, rate: float):
        super().__init__(f"{source}: event {event_id!r}: sample rate {rate:.3g} Hz below the 5 Hz minimum")


class EmptyWindow(InputError):
    """Fewer than the two samples a line needs inside the modeling window."""

    def __init__(self, event_id: str, n_samples: int):
        left = "no samples" if n_samples == 0 else f"only {n_samples} sample"
        super().__init__(f"event {event_id!r}: {left} left inside the modeling window")


# --- fitting --------------------------------------------------------------

class FitDiverged(NumericalError):
    """No restart converged for a breakpoint count."""


# --- combination ----------------------------------------------------------

class EmptyGroup(InputError):
    def __init__(self, group: str):
        super().__init__(f"required source group {group!r} has no events")


class DegenerateSplit(NumericalError):
    """A speed-split branch has zero total weight but a positive target size."""


class ZeroVariance(NumericalError):
    """A statistic requires nonzero variance in every dimension."""


# --- distribution modeling ------------------------------------------------

class TooFewSamples(NumericalError):
    """A weighted statistic has fewer effective samples than it needs."""


class AllFitsFailed(NumericalError):
    """Every candidate distribution family failed to fit."""


class ModelBuildFailed(NumericalError):
    """A sub-dataset model could not be built."""


# --- generation -----------------------------------------------------------

class RejectionCapExceeded(NumericalError):
    def __init__(self, bundle_id: str, dominant_reason: str, drawn: int, accepted: int):
        super().__init__(
            f"bundle {bundle_id!r}: rejection sampling cap hit after {drawn} draws "
            f"({accepted} accepted); dominant rejection reason: {dominant_reason}"
        )


# --- validation -----------------------------------------------------------

class EmptyInput(InputError):
    """An operation received an empty sample or zero total weight."""


class BadArgument(InputError):
    """An argument outside its domain; ``name`` is the parameter's name."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name = name
        self.problem = problem


class EmptyReps(BadArgument):
    """Bootstrap called with no repetitions."""
