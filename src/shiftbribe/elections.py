"""Elections, preference profiles, and score computations.

An election is a set of candidates together with an ordered profile of
strict preference orders, optionally weighted.  This module computes
positional (scoring-rule) scores, pairwise tallies, Copeland scores for any
rational tie value alpha, and maximin scores, and applies upward shifts of a
designated candidate to a profile.

The orders are kept as int64 arrays ``orders`` and ``positions``, which
ranks, shifts, scores and tallies read.  An election built in code also
keeps them as the tuple ``voters``; one that the bulk reader parsed, or that
``apply_shift`` made, builds that tuple from ``orders`` on its first read.

All values are immutable and all operations are pure functions, so they can
be shared freely across threads; two threads that read a ``voters`` not yet
built may each build it, with equal results.  Scores and tallies use exact
integer arithmetic; any value that leaves the signed 64-bit range is a hard
error rather than a silent wraparound.
"""

from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import index
from typing import Optional, Sequence

import numpy as np

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_TALLY_BLOCK = 1 << 18  # voter-candidate-candidate comparisons per block


def _check_i64(value: int, what: str) -> int:
    if value < _I64_MIN or value > _I64_MAX:
        raise OverflowError(f"{what} exceeds the checked 64-bit integer range: {value}")
    return value


def _are_permutations(orders: np.ndarray) -> bool:
    """Whether every row of the (n x m) integer array is a permutation of 0..m-1."""
    return not np.count_nonzero(np.sort(orders, axis=1) - np.arange(orders.shape[1]))


def _unchecked(cls, **fields):
    """A ``cls`` (frozen dataclass) of ``fields`` the caller checked; no ``__post_init__``.
    Set as ``__init__`` sets them: a read of ``__dict__`` builds a dict per object."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Election:
    """A (possibly weighted) election.

    Parameters
    ----------
    candidates : tuple of str
        Distinct candidate identifiers.  In bribery instances, index 0 is
        the preferred candidate by convention.
    voters : tuple of tuple of int
        One strict preference order per voter, most-preferred candidate
        first, given as a permutation of ``range(len(candidates))``.
    weights : tuple of int, optional
        Positive integer weight per voter; ``None`` means all weights are 1.

    Built from ``voters``: read-only int64 arrays ``orders`` and ``positions``
    (candidate c's 0-based position in voter i's order is ``positions[i, c]``).
    An election kept from arrays alone builds ``voters`` from ``orders`` when
    it is first read, and then stores it.
    """

    candidates: tuple
    voters: tuple
    weights: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "voters", tuple(map(tuple, self.voters)))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
        m = len(self.candidates)
        if m < 1:
            raise ValueError("an election needs at least one candidate")
        if len(set(self.candidates)) != m:
            raise ValueError("candidate identifiers must be distinct")
        if len(self.voters) < 1:
            raise ValueError("an election needs at least one voter")
        try:  # one array check of all orders
            orders = np.array(self.voters)
        except ValueError:  # ragged
            orders = np.zeros(0)
        ok = orders.shape == (len(self.voters), m) and orders.dtype.kind in "iu"
        if not (ok and _are_permutations(orders)):
            for i, order in enumerate(self.voters):  # name the first voter at fault
                if len(order) != m or set(order) != set(range(m)):
                    raise ValueError(f"voter {i}: order is not a permutation of 0..{m - 1}")
            orders = np.array(self.voters, dtype=np.int64)  # entries equal to ints, such as 1.0
            object.__setattr__(self, "voters", tuple(map(tuple, orders.tolist())))
        self._keep(orders.astype(np.int64, copy=False))
        if self.weights is not None:
            if len(self.weights) != len(self.voters):
                raise ValueError("weights must have one entry per voter")
            for i, w in enumerate(self.weights):
                if isinstance(w, bool) or not isinstance(w, int) or w < 1:
                    raise ValueError(f"voter {i}: weight must be a positive integer")

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def __getattr__(self, name):
        """``voters`` from ``orders``, on the first read of an election kept without it."""
        if name != "voters":
            raise AttributeError(f"'Election' object has no attribute '{name}'")
        voters = tuple(map(tuple, self.orders.tolist()))
        object.__setattr__(self, "voters", voters)
        return voters

    @property
    def num_voters(self) -> int:
        return len(self.orders)

    def weight(self, voter: int) -> int:
        return 1 if self.weights is None else self.weights[voter]

    @property
    def total_weight(self) -> int:
        return len(self.orders) if self.weights is None else sum(self.weights)

    def _keep(self, orders=None, positions=None) -> "Election":
        """Store checked ``orders`` (default: ``voters``) and inverse, read-only."""
        if orders is None:  # voters of ints
            orders = np.fromiter(chain(*self.voters), np.int64).reshape(len(self.voters), -1)
        positions = orders.argsort(axis=1) if positions is None else positions
        orders.flags.writeable = positions.flags.writeable = False
        object.__setattr__(self, "orders", orders)  # as _unchecked does
        object.__setattr__(self, "positions", positions)
        return self

    def rank_of(self, voter: int, candidate: int) -> int:
        """1-based rank of ``candidate`` in ``voter``'s order."""
        return int(self.positions[voter, candidate]) + 1


@dataclass(frozen=True)
class ScoringVector:
    """A non-increasing vector of non-negative integer position scores.

    ``scores[j]`` is the number of points awarded for (1-based) position
    ``j + 1``; the vector length must equal the number of candidates of the
    election it is applied to.
    """

    scores: tuple

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(self.scores))
        if len(self.scores) < 1:
            raise ValueError("scoring vector must be non-empty")
        for s in self.scores:
            if isinstance(s, bool) or not isinstance(s, int):
                raise ValueError(f"scoring vector entries must be integers, got {s!r}")
            if s < 0:
                raise ValueError("scoring vector entries must be non-negative")
        for a, b in zip(self.scores, self.scores[1:]):
            if a < b:
                raise ValueError("scoring vector must be non-increasing")

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, j: int) -> int:
        return self.scores[j]


def borda(m: int) -> ScoringVector:
    """The Borda vector ``(m-1, m-2, ..., 0)`` for ``m`` candidates."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return ScoringVector(tuple(range(m - 1, -1, -1)))


def k_approval(m: int, k: int) -> ScoringVector:
    """The k-approval vector: 1 point for the top ``k`` positions, else 0."""
    if not 1 <= k <= m:
        raise ValueError("k must be between 1 and m")
    return ScoringVector((1,) * k + (0,) * (m - k))


@dataclass(frozen=True)
class CopelandAlpha:
    """An exact rational tie value alpha in [0, 1], stored gcd-reduced."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        parts = (self.numerator, self.denominator)
        if any(isinstance(part, bool) or not isinstance(part, int) for part in parts):
            got = f"{self.numerator!r}/{self.denominator!r}"
            raise ValueError(f"alpha must be a ratio of integers, got {got}")
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("alpha must lie in [0, 1]")
        g = gcd(self.numerator, self.denominator)
        if g > 1:
            object.__setattr__(self, "numerator", self.numerator // g)
            object.__setattr__(self, "denominator", self.denominator // g)

    @classmethod
    def parse(cls, text: str) -> "CopelandAlpha":
        """Parse ``"N/D"`` or a bare integer ``"N"``."""
        if "/" in text:
            num, den = text.split("/", 1)
            return cls(int(num), int(den))
        return cls(int(text), 1)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class PairwiseTally:
    """Pairwise comparison matrix of an election.

    ``n_matrix[i][j]`` is the total weight of voters preferring candidate
    ``i`` to candidate ``j``; for every pair ``i != j`` the two entries sum
    to ``total_weight``.  The total weight is kept alongside the matrix so
    that conventions for degenerate cases (a single candidate) do not need
    the originating election.
    """

    n_matrix: tuple
    total_weight: int

    def __post_init__(self):
        object.__setattr__(self, "n_matrix", tuple(tuple(row) for row in self.n_matrix))


def _sum_dtype(election: Election, top: int):
    """int64 where total weight * max(top, 1) fits in 64 bits, else Python ints."""
    return np.int64 if election.total_weight * max(top, 1) <= _I64_MAX else object


def scoring_scores(election: Election, alpha: ScoringVector) -> list:
    """Per-candidate scores under the scoring rule ``alpha``.

    Every voter awards ``alpha[j]`` points (times the voter's weight) to the
    candidate they rank in position ``j + 1``: ``alpha`` at the positions.
    """
    m = election.num_candidates
    if len(alpha) != m:
        raise ValueError(
            f"scoring vector length {len(alpha)} does not match {m} candidates"
        )
    dtype = _sum_dtype(election, alpha[0])
    points = np.array(alpha.scores, dtype=dtype)[election.positions]
    if election.weights is not None:
        points = points * np.array(election.weights, dtype=dtype)[:, None]
    scores = points.sum(axis=0).tolist()
    for c, s in enumerate(scores):
        _check_i64(s, f"score of candidate {c}")
    return scores


def pairwise_tally(election: Election) -> PairwiseTally:
    """Count, for every ordered pair, the total weight preferring the first
    candidate to the second: weighted sums of position comparisons over
    blocks of voters, with positions in their narrowest type.  The total
    weight, checked first, bounds every sum.
    """
    total = _check_i64(election.total_weight, "total voter weight")
    n, m = election.num_voters, election.num_candidates
    positions = election.positions.astype(np.min_scalar_type(m))
    weights = None if election.weights is None else np.array(election.weights, dtype=np.int64)
    n_matrix = np.zeros(m * m, dtype=np.int64)
    block = max(1, _TALLY_BLOCK // (m * m))
    for lo in range(0, n, block):
        p = positions[lo : lo + block]
        less = (p[:, :, None] < p[:, None, :]).reshape(len(p), -1)
        n_matrix += less.sum(axis=0) if weights is None else weights[lo : lo + block] @ less
    return PairwiseTally(n_matrix.reshape(m, m).tolist(), total)


def copeland_scores(tally: PairwiseTally, alpha: CopelandAlpha) -> list:
    """Copeland scores scaled by ``alpha.denominator``.

    A candidate collects ``denominator`` per pairwise win and ``numerator``
    per pairwise tie, so comparing the returned integers is equivalent to
    comparing the exact rational Copeland scores.
    """
    m = len(tally.n_matrix)
    n_matrix = np.array(tally.n_matrix).reshape(m, m)
    wins = (n_matrix > n_matrix.T).sum(axis=1).tolist()
    ties = ((n_matrix == n_matrix.T).sum(axis=1) - 1).tolist()  # not against itself
    return [
        _check_i64(w * alpha.denominator + t * alpha.numerator, f"Copeland score of candidate {i}")
        for i, (w, t) in enumerate(zip(wins, ties))
    ]


def maximin_scores(tally: PairwiseTally) -> list:
    """Maximin scores: each candidate's vote count in their worst pairwise
    election.

    With a single candidate there are no opponents; by convention the score
    is then the total voter weight (the candidate trivially wins).
    """
    n_matrix = tally.n_matrix
    m = len(n_matrix)
    if m == 1:
        return [tally.total_weight]
    return [min(n_matrix[i][j] for j in range(m) if j != i) for i in range(m)]


def winners(scores: Sequence) -> set:
    """Indices of all candidates achieving the maximum score."""
    if len(scores) == 0:
        raise ValueError("score list must be non-empty")
    top = max(scores)
    return {c for c, s in enumerate(scores) if s == top}


def _shifted(positions: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``positions`` (one row per vote) after candidate 0 moves up by
    ``shifts`` places, at most its position: every candidate it passes
    moves down one place."""
    top = positions[:, :1]
    new_top = top - shifts[:, None]
    after = positions + ((positions >= new_top) & (positions < top))
    after[:, 0] = new_top[:, 0]
    return after


def apply_shift(election: Election, shifts: Sequence) -> Election:
    """Shift candidate 0 upwards by ``shifts[i]`` positions in each vote.

    A shift larger than the candidate's current rank minus one simply places
    the candidate on top of that vote.  The relative order of all other
    candidates is unchanged, and the input election is not mutated.  All
    votes move at once, as positions; the orders are their inverse.
    """
    if len(shifts) != election.num_voters:
        raise ValueError("shift vector length must equal the number of voters")
    amounts = [min(index(t), election.num_candidates) for t in shifts]
    if min(amounts) < 0:
        raise ValueError("shift amounts must be non-negative")
    positions = _shifted(election.positions, np.minimum(amounts, election.positions[:, 0]))
    fields = dict(candidates=election.candidates, weights=election.weights)
    return _unchecked(Election, **fields)._keep(positions.argsort(axis=1), positions)
