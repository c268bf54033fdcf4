"""Shared exception types."""


class GuardExceeded(RuntimeError):
    """An enumeration or table-size guard would be exceeded.

    Raised instead of silently truncating a search or letting a
    pseudo-polynomial loop blow up.  The limits are the module constants
    ``scoring_solvers.DEFAULT_CELL_GUARD`` and ``oracle.DEFAULT_ENUM_GUARD``.
    """


class IncompatibleRule(ValueError):
    """The requested algorithm does not apply to this instance's voting rule
    or weighting."""


class Infeasible(RuntimeError):
    """No solution exists (possible only when some shifts or flips are marked
    unreachable)."""
