"""Exception types raised by the gridprobe package.

Every error raised on bad data or violated preconditions derives from
GridProbeError, so callers can catch one base class at pipeline
boundaries while tests can assert the precise failure mode.
"""

from __future__ import annotations

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


class AmbiguousIntersection(GridProbeError):
    """A recursion step did not pinpoint a unique bus.

    Carries the recursion state so failures can be reported with context.
    """

    def __init__(self, message: str, depth: int | None = None,
                 buses: frozenset[int] | None = None):
        super().__init__(message)
        self.depth = depth
        self.buses = buses


class EmptyPartition(GridProbeError):
    """A recursion step received or produced an empty probing group."""


class InconsistentMeteredSets(GridProbeError):
    """Partial-data recursion found metered level sets that admit no tree.

    Carries the recursion state so failures can be reported with context.
    """

    def __init__(self, message: str, depth: int | None = None,
                 buses: frozenset[int] | None = None):
        super().__init__(message)
        self.depth = depth
        self.buses = buses


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
