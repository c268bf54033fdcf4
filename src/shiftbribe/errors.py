"""Shared exception types and the guard override."""

import os


def env_guard(default: int) -> int:
    """A guard limit: the ``SHIFTBRIBE_GUARD`` environment variable when it
    is set, else ``default``."""
    raw = os.environ.get("SHIFTBRIBE_GUARD")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SHIFTBRIBE_GUARD must be an integer, got {raw!r}") from None


class GuardExceeded(RuntimeError):
    """An enumeration or table-size guard would be exceeded.

    Raised instead of silently truncating a search or letting a
    pseudo-polynomial loop blow up.  The guards can be overridden via the
    ``SHIFTBRIBE_GUARD`` environment variable or per-call arguments.
    """


class IncompatibleRule(ValueError):
    """The requested algorithm does not apply to this instance's voting rule
    or weighting."""


class Infeasible(RuntimeError):
    """No solution exists (possible only when some shifts or flips are marked
    unreachable)."""
