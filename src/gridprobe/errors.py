"""Exception types raised by the gridprobe package.

Every error raised on bad data or violated preconditions derives from
GridProbeError, so callers can catch one base class at pipeline
boundaries while tests can assert the precise failure mode.
"""

from __future__ import annotations

import math
import os

import numpy as np


class GridProbeError(Exception):
    """Base class for all gridprobe errors."""


class CycleDetected(GridProbeError):
    """The edge list contains a cycle and cannot describe a radial feeder."""


class Disconnected(GridProbeError):
    """Some bus is not reachable from the root."""


class DuplicateNode(GridProbeError):
    """A bus appears as the child of more than one line."""


class NonpositiveImpedance(GridProbeError):
    """A line resistance or reactance is zero, negative or not finite."""


class MissingRoot(GridProbeError):
    """The root bus (bus 0, the substation, in a feeder) is absent or has a
    parent."""


class UnknownNode(GridProbeError):
    """A referenced bus ID does not exist in the feeder or is not an integer."""


class AssumptionViolated(GridProbeError):
    """An input violates a standing assumption (e.g. an unprobed leaf)."""


class LeafNotProbed(AssumptionViolated):
    """Grid reduction requires every leaf bus to carry a probing inverter."""


class NonpositiveRmin(GridProbeError):
    """The minimum-resistance separation parameter must be positive."""


class UnknownProbingBus(GridProbeError):
    """A probing plan references a bus that is not a non-root feeder bus."""


class RankDeficientProbing(GridProbeError):
    """The probing matrix does not have full row rank, so no right inverse exists."""


class InconsistentLevelSets(GridProbeError):
    """Recovered level-set families contradict each other or basic sanity rules."""


class _RecursionStateError(GridProbeError):
    """A recovery error that carries the recursion state (depth and the
    buses in play) so failures can be reported with context."""

    def __init__(self, message: str, depth: int | None = None,
                 buses: frozenset[int] | None = None):
        super().__init__(message)
        self.depth = depth
        self.buses = buses


class AmbiguousIntersection(_RecursionStateError):
    """A recursion step did not pinpoint a unique bus."""


class EmptyPartition(GridProbeError):
    """A recursion step received or produced an empty probing group."""


class InconsistentMeteredSets(_RecursionStateError):
    """Partial-data recursion found metered level sets that admit no tree."""


class LabelMismatch(GridProbeError):
    """Two graphs under comparison do not share the same probing labels."""


class FeederFormatError(GridProbeError):
    """A feeder or record file is malformed; message carries the line number."""


class ConfigError(GridProbeError):
    """An experiment configuration is missing keys or holds bad values."""


def as_int(value, error: type[GridProbeError], what: str,
           least: int | None = None) -> int:
    """The one integer rule for bus IDs, period and trial counts and seeds.

    An integral number (an int, a numpy integer, or a float such as 2.0)
    comes back as a plain int. A bool, a fractional or non-finite number,
    a string, None, or an integer below `least` raises `error`.
    """
    if type(value) is not int:
        try:
            exact = int(value) == value
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact or isinstance(value, (bool, np.bool_)):
            raise error(f"{what} {value!r} is not an integer")
        value = int(value)
    if least is not None and value < least:
        raise error(f"{what} must be at least {least}, got {value}")
    return value


# The ranges a real input can be held to, by the words that name them.
_RANGES = {
    "finite": math.isfinite,
    "finite and nonnegative": lambda x: 0 <= x < math.inf,
    "positive and finite": lambda x: 0 < x < math.inf,
}


def as_float(value, error: type[GridProbeError], what: str,
             within: str | None = None) -> float:
    """The one rule for real inputs: whatever `float()` takes but a bool
    comes back as a float; anything else (a bool, None, a non-numeric
    string, a container, an integer too large for a float) raises `error`.
    So does a float outside `within`: "finite", "finite and nonnegative"
    or "positive and finite".
    """
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, (bool, np.bool_)):
        raise error(f"{what} {value!r} is not a number")
    if within is not None and not _RANGES[within](out):
        raise error(f"{what} must be {within}, got {value}")
    return out


def as_float_array(values, error: type[GridProbeError], what: str,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The rule for arrays of reals: a float ndarray comes back as it is,
    anything else as a new float array (numpy reads None as NaN); entries
    that are not numbers, ragged rows or a shape other than `shape` raise
    `error`. A shaped array comes back read-only; ranges are the caller's."""
    if not (isinstance(values, np.ndarray) and values.dtype == float):
        try:
            values = np.array(values, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise error(f"{what} entries must be numbers") from None
    if shape is not None:
        if values.shape != shape:
            raise error(f"{what} values have shape {values.shape}, not "
                        f"{shape}")
        values.setflags(write=False)
    return values


def as_buses(values, error: type[GridProbeError],
             what: str) -> tuple[int, ...]:
    """The one rule for lists of bus IDs: any iterable but a string comes
    back as a tuple of ints under `as_int`; a string, a non-iterable or a
    repeated bus raises `error`."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise error(f"{what} must be a list of bus IDs, got {values!r}")
    name = f"{what}: bus"
    buses = tuple([as_int(b, error, name) for b in values])
    if len(set(buses)) != len(buses):
        raise error(f"{what} must be distinct, got {list(buses)}")
    return buses


def as_instance(value, kind: type | tuple[type, ...],
                error: type[GridProbeError], what: str):
    """The one type check at a stage boundary: `value` comes back as it
    is if it is a `kind`, else `error` names the type it expected."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(k.__name__ for k in kinds)
        article = "an" if names[0] in "AEIOU" else "a"
        raise error(f"{what} must be {article} {names}, got {value!r}")
    return value


def as_choice(value, choices: tuple[str, ...], error: type[GridProbeError],
              what: str) -> str:
    """The one rule for named settings (observation modes, delta and
    probing policies): a string equal to one of `choices` comes back as
    that choice; anything else raises `error`."""
    if isinstance(value, str) and value in choices:
        return choices[choices.index(value)]
    raise error(f"unknown {what} {value!r}")


def as_path(value, error: type[GridProbeError], what: str):
    """The one rule for file and directory paths: a `str` or an
    `os.PathLike` comes back as it is. Anything else raises `error`; so
    does an integer, which `open` would read as a file descriptor."""
    return as_instance(value, (str, os.PathLike), error, what)
