"""Exception types shared across the package."""

from __future__ import annotations


class LabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(LabError, ValueError):
    """An argument violates a documented precondition of the call."""


class GridMismatchError(InvalidArgumentError):
    """Two values that must share one grid were built on different grids."""


class DomainViolationError(LabError):
    """A sampled value left the admissible convex set.

    Carries the offending node so reports can name it.
    """

    def __init__(self, message: str, node_index: int | None = None, node=None):
        super().__init__(message)
        self.node_index = node_index
        self.node = node


class PreconditionViolationError(LabError):
    """A mathematical hypothesis of an operation failed on the given data."""

    def __init__(self, message: str, hypothesis: str = ""):
        super().__init__(message)
        self.hypothesis = hypothesis


class ExtractionStalledError(LabError):
    """The candidate pool ran out before a qualifying index was found.

    This signals that the finite horizon is too short for the recursive
    selection, not that the method failed; the partial trace is attached.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class LevelStalledError(LabError):
    """A level of the diagonal extraction could not reach its target bound.

    The levels completed so far are attached.
    """

    def __init__(self, message: str, level: int, completed=None):
        super().__init__(message)
        self.level = level
        self.completed = completed if completed is not None else []


class PoolBudgetError(InvalidArgumentError):
    """A member pool would exceed the byte budget; nothing was allocated.

    Carries the pool's shape and the bytes it asked for.
    """

    def __init__(
        self,
        message: str,
        horizon: int,
        m: int,
        node_count: int,
        requested_bytes: int,
        budget_bytes: int,
    ):
        super().__init__(message)
        self.horizon = horizon
        self.m = m
        self.node_count = node_count
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes


class InternalConsistencyError(LabError):
    """A quantity that must be monotone or consistent by construction was not."""


class ConfigError(LabError):
    """A scenario configuration failed to parse or validate."""
