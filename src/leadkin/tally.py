"""Counts of the fitting work done inside a :func:`tally` block: the
breakpoint search's refined and bound-skipped (profile, k) pairs, and the
marginal fits.  A forked worker returns its own block's record, and the
records add up."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional


@dataclass
class Tally:
    refined: int = 0  # (profile, k) pairs refined by the breakpoint search
    skipped: int = 0  # pairs with starts that the loss bound skipped
    univariate_fits: int = 0
    nm_runs: int = 0
    nm_nfev: int = 0
    failed: Counter = field(default_factory=Counter)  # family -> fits it did not produce

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


_OPEN: ContextVar[Optional[Tally]] = ContextVar("leadkin_tally", default=None)


@contextmanager
def tally() -> Iterator[Tally]:
    """Count the work of every fit made inside the block."""
    record = Tally()
    token = _OPEN.set(record)
    try:
        yield record
    finally:
        _OPEN.reset(token)


def current_tally() -> Tally:
    """The record of the innermost open block, or a discarded one outside
    every block."""
    return _OPEN.get() or Tally()
