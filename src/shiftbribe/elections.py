"""Elections, preference profiles, and score computations.

An election is a set of candidates together with an ordered profile of
strict preference orders, optionally weighted.  This module computes
positional (scoring-rule) scores, pairwise tallies, Copeland scores for any
rational tie value alpha, and maximin scores, and applies upward shifts of a
designated candidate to a profile.

All values are immutable and all operations are pure functions, so they can
be shared freely across threads.  Scores and tallies use exact integer
arithmetic; any value that leaves the signed 64-bit range is a hard error
rather than a silent wraparound.
"""

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_TALLY_BLOCK = 1 << 18  # voter-candidate-candidate comparisons per block


def _check_i64(value: int, what: str) -> int:
    if value < _I64_MIN or value > _I64_MAX:
        raise OverflowError(f"{what} exceeds the checked 64-bit integer range: {value}")
    return value


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
    """

    candidates: tuple
    voters: tuple
    weights: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "voters", tuple(tuple(v) for v in self.voters))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
        m = len(self.candidates)
        if m < 1:
            raise ValueError("an election needs at least one candidate")
        if len(set(self.candidates)) != m:
            raise ValueError("candidate identifiers must be distinct")
        if len(self.voters) < 1:
            raise ValueError("an election needs at least one voter")
        expected = set(range(m))
        for i, order in enumerate(self.voters):
            if set(order) != expected or len(order) != m:
                raise ValueError(f"voter {i}: order is not a permutation of 0..{m - 1}")
        if self.weights is not None:
            if len(self.weights) != len(self.voters):
                raise ValueError("weights must have one entry per voter")
            for i, w in enumerate(self.weights):
                if not isinstance(w, int) or w < 1:
                    raise ValueError(f"voter {i}: weight must be a positive integer")

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_voters(self) -> int:
        return len(self.voters)

    def weight(self, voter: int) -> int:
        return 1 if self.weights is None else self.weights[voter]

    @property
    def total_weight(self) -> int:
        if self.weights is None:
            return len(self.voters)
        return sum(self.weights)

    def rank_of(self, voter: int, candidate: int) -> int:
        """1-based rank of ``candidate`` in ``voter``'s order."""
        return self.voters[voter].index(candidate) + 1


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
            if not isinstance(s, int):
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
        if not (isinstance(self.numerator, int) and isinstance(self.denominator, int)):
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


def scoring_scores(election: Election, alpha: ScoringVector) -> list:
    """Per-candidate scores under the scoring rule ``alpha``.

    Every voter awards ``alpha[j]`` points (times the voter's weight) to the
    candidate they rank in position ``j + 1``.
    """
    m = election.num_candidates
    if len(alpha) != m:
        raise ValueError(
            f"scoring vector length {len(alpha)} does not match {m} candidates"
        )
    scores = [0] * m
    for i, order in enumerate(election.voters):
        w = election.weight(i)
        for pos, cand in enumerate(order):
            scores[cand] += w * alpha[pos]
    for c, s in enumerate(scores):
        _check_i64(s, f"score of candidate {c}")
    return scores


def pairwise_tally(election: Election) -> PairwiseTally:
    """Count, for every ordered pair, the total weight preferring the first
    candidate to the second: weighted sums of position comparisons over
    blocks of voters.  The total weight, checked first, bounds every sum.
    """
    total = _check_i64(election.total_weight, "total voter weight")
    n, m = election.num_voters, election.num_candidates
    pos = np.argsort(np.array(election.voters, dtype=np.int64), axis=1)
    weights = np.array(election.weights or (1,) * n, dtype=np.int64)
    n_matrix = np.zeros(m * m, dtype=np.int64)
    block = max(1, _TALLY_BLOCK // (m * m))
    for lo in range(0, n, block):
        p = pos[lo : lo + block]
        n_matrix += weights[lo : lo + block] @ (p[:, :, None] < p[:, None, :]).reshape(len(p), -1)
    return PairwiseTally(n_matrix.reshape(m, m).tolist(), total)


def copeland_scores(tally: PairwiseTally, alpha: CopelandAlpha) -> list:
    """Copeland scores scaled by ``alpha.denominator``.

    A candidate collects ``denominator`` per pairwise win and ``numerator``
    per pairwise tie, so comparing the returned integers is equivalent to
    comparing the exact rational Copeland scores.
    """
    n_matrix = tally.n_matrix
    m = len(n_matrix)
    scores = []
    for i in range(m):
        wins = ties = 0
        for j in range(m):
            if j == i:
                continue
            if n_matrix[i][j] > n_matrix[j][i]:
                wins += 1
            elif n_matrix[i][j] == n_matrix[j][i]:
                ties += 1
        scores.append(
            _check_i64(
                wins * alpha.denominator + ties * alpha.numerator,
                f"Copeland score of candidate {i}",
            )
        )
    return scores


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


def apply_shift(election: Election, shifts: Sequence) -> Election:
    """Shift candidate 0 upwards by ``shifts[i]`` positions in each vote.

    A shift larger than the candidate's current rank minus one simply places
    the candidate on top of that vote.  The relative order of all other
    candidates is unchanged, and the input election is not mutated.
    """
    if len(shifts) != election.num_voters:
        raise ValueError("shift vector length must equal the number of voters")
    new_voters = []
    for order, t in zip(election.voters, shifts):
        if t < 0:
            raise ValueError("shift amounts must be non-negative")
        if t == 0:
            new_voters.append(order)
            continue
        idx = order.index(0)
        new_idx = max(0, idx - t)
        rearranged = list(order)
        del rearranged[idx]
        rearranged.insert(new_idx, 0)
        new_voters.append(tuple(rearranged))
    return Election(election.candidates, tuple(new_voters), election.weights)
