"""Shift-bribery instances: price functions, shift actions, and costs.

A shift-bribery instance couples an election (candidate 0 is the preferred
candidate) with one monotone price function per voter: the price of shifting
the preferred candidate upwards by a given number of positions in that vote.
The goal of all solvers is a cheapest shift action after which candidate 0
is a winner under the instance's voting rule.  ``ShiftTable``, built in one
pass over the election's positions, answers "does candidate 0 win after
these shifts" for whole batches of shift vectors with one gather and one
reduction over a candidate-major copy (``_columns``); the batched scoring
solvers and the exact oracles share it, every solver reads prices laid out
like its rows (``_price_table``), and ``is_successful`` stays the
independent reference it is checked against.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional, Union

import numpy as np

from .errors import IncompatibleRule
from .elections import (
    CopelandAlpha,
    Election,
    PairwiseTally,
    ScoringVector,
    _check_i64,
    _shifted,
    _sum_dtype,
    _unchecked,
    apply_shift,
    copeland_scores,
    maximin_scores,
    pairwise_tally,
    scoring_scores,
    winners,
)


@dataclass(frozen=True)
class CostFunction:
    """Per-voter shift prices.

    ``prices[k - 1]`` is the price of shifting the preferred candidate up by
    ``k`` positions; shifting by 0 is free and shifting beyond the table is
    priced like the last entry (the candidate is already on top by then).
    Prices are non-negative, non-decreasing integers.  An entry of ``None``
    marks the shift amount as unreachable (not purchasable at any price);
    once a shift is unreachable all larger shifts are too.
    """

    prices: tuple

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(self.prices))
        prev = 0
        seen_none = False
        for k, p in enumerate(self.prices, start=1):
            if p is None:
                seen_none = True
                continue
            if seen_none:
                raise ValueError("unreachable marks must form a suffix of the price table")
            if type(p) is not int and (isinstance(p, bool) or not isinstance(p, int)):
                raise ValueError(f"price for shift {k} is not an integer: {p!r}")
            if p < 0:
                raise ValueError(f"price for shift {k} is negative")
            if p < prev:
                raise ValueError(f"price table decreases at shift {k}")
            prev = p

    @property
    def cap(self) -> int:
        """Largest meaningful shift amount (the table length)."""
        return len(self.prices)

    @property
    def max_reachable(self) -> int:
        """Largest shift amount with a finite price."""
        prices = self.prices
        return len(prices) if None not in prices else prices.index(None)

    def price(self, k: int) -> Optional[int]:
        """Price of shifting by ``k`` (clamped to the cap); ``None`` if
        unreachable."""
        if k < 0:
            raise ValueError("shift amounts must be non-negative")
        k = min(k, len(self.prices))
        if k == 0:
            return 0
        return self.prices[k - 1]


@dataclass(frozen=True)
class ShiftAction:
    """A vector of upward shifts of the preferred candidate, one per voter."""

    shifts: tuple

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(self.shifts))
        for t in self.shifts:
            if t < 0:
                raise ValueError("shift amounts must be non-negative")

    def __len__(self) -> int:
        return len(self.shifts)

    def __getitem__(self, i: int) -> int:
        return self.shifts[i]

    def __iter__(self):
        return iter(self.shifts)

    @classmethod
    def zero(cls, n: int) -> "ShiftAction":
        return cls((0,) * n)


@dataclass(frozen=True)
class ScoringRule:
    vector: ScoringVector


@dataclass(frozen=True)
class CopelandRule:
    alpha: CopelandAlpha


@dataclass(frozen=True)
class MaximinRule:
    pass


Rule = Union[ScoringRule, CopelandRule, MaximinRule]

MAXIMIN = MaximinRule()

_MAX_SAFE_GAIN = 1 << 50
_GATHER_BLOCK = 1 << 16  # delta-row entries one gather of rows_after reads


@dataclass(frozen=True)
class ShiftBriberyInstance:
    """An election, one cost function per voter, and a voting rule.

    Candidate 0 is the preferred candidate.  Every cost function's table
    length must equal that voter's current rank of candidate 0 minus one.
    An instance kept from arrays alone (``_keep_prices``) builds ``costs``
    from them when it is first read, and then stores it.
    """

    election: Election
    costs: tuple
    rule: Rule

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.costs) != self.election.num_voters:
            raise ValueError("need exactly one cost function per voter")
        for i, (cf, cap) in enumerate(zip(self.costs, self.election.positions[:, 0].tolist())):
            if cf.cap != cap:
                raise ValueError(
                    f"voter {i}: cost function covers {cf.cap} shifts but the "
                    f"preferred candidate is at rank {cap + 1}"
                )
        if isinstance(self.rule, ScoringRule) and len(self.rule.vector) != self.num_candidates:
            raise ValueError("scoring vector length must match the number of candidates")

    def __getattr__(self, name):
        """``costs`` from the ``_price_table`` and the caps, on the first read
        of an instance kept without it; shifts beyond a voter's run are
        unreachable."""
        if name != "costs":
            raise AttributeError(f"'ShiftBriberyInstance' object has no attribute '{name}'")
        values, starts, ends = self._prices
        flat, caps = values.tolist(), self.election.positions[:, 0].tolist()
        costs = tuple(
            _unchecked(CostFunction, prices=tuple(flat[a + 1 : b]) + (None,) * (cap + a + 1 - b))
            for a, b, cap in zip(starts.tolist(), ends.tolist(), caps)
        )
        object.__setattr__(self, "costs", costs)
        return costs

    @property
    def num_voters(self) -> int:
        return self.election.num_voters

    @property
    def num_candidates(self) -> int:
        return self.election.num_candidates


def rule_scores(election: Election, rule: Rule) -> list:
    """Per-candidate scores of ``election`` under ``rule``."""
    if isinstance(rule, ScoringRule):
        return scoring_scores(election, rule.vector)
    if isinstance(rule, CopelandRule):
        return copeland_scores(pairwise_tally(election), rule.alpha)
    if isinstance(rule, MaximinRule):
        return maximin_scores(pairwise_tally(election))
    raise TypeError(f"unknown rule: {rule!r}")


def total_cost(inst: ShiftBriberyInstance, action: ShiftAction) -> int:
    """Total price of ``action``: the sum of per-voter prices at the clamped
    shift amounts.  Raises if the action uses an unreachable shift."""
    if len(action) != inst.num_voters:
        raise ValueError("shift action length must equal the number of voters")
    total = 0
    for i, t in enumerate(action):
        p = inst.costs[i].price(t)
        if p is None:
            raise ValueError(f"voter {i}: shift by {t} is unreachable")
        total += p
    return _check_i64(total, "total bribery cost")


def rebase(inst: ShiftBriberyInstance, action: ShiftAction) -> ShiftBriberyInstance:
    """The instance left after performing ``action``.

    The election is shifted and each price table is re-anchored so that
    ``new_price(k) = old_price(k + t_i) - old_price(t_i)``, with the caps
    reduced by the (clamped) amounts already shifted.  The input instance is
    unchanged.
    """
    if len(action) != inst.num_voters:
        raise ValueError("shift action length must equal the number of voters")
    new_election = apply_shift(inst.election, action.shifts)
    new_costs = []
    for i, cf in enumerate(inst.costs):
        t = min(action[i], cf.cap)
        if t == 0:
            new_costs.append(cf)
            continue
        paid = cf.price(t)
        if paid is None:
            raise ValueError(f"voter {i}: cannot rebase over unreachable shift {t}")
        new_prices = tuple(None if p is None else p - paid for p in cf.prices[t:])
        new_costs.append(CostFunction(new_prices))
    return ShiftBriberyInstance(new_election, tuple(new_costs), inst.rule)


def gain(inst: ShiftBriberyInstance, voter: int, k: int) -> int:
    """Score increase of the preferred candidate when shifted up by ``k``
    positions (clamped to the top) in ``voter``'s order.

    Only defined for scoring rules.  Weighted voters behave like unit-weight
    voters with a per-voter scoring vector scaled by their weight.
    """
    if not isinstance(inst.rule, ScoringRule):
        raise IncompatibleRule("gain is defined for scoring rules only")
    if k < 0:
        raise ValueError("shift amounts must be non-negative")
    alpha, p = inst.rule.vector, inst.election.rank_of(voter, 0) - 1
    w = inst.election.weight(voter)
    return _check_i64(w * (alpha[p - min(k, p)] - alpha[p]), "score gain")


def is_successful(inst: ShiftBriberyInstance, action: ShiftAction) -> bool:
    """Whether the preferred candidate wins after applying ``action``."""
    if len(action) != inst.num_voters:
        raise ValueError("shift action length must equal the number of voters")
    shifted = apply_shift(inst.election, action.shifts)
    return 0 in winners(rule_scores(shifted, inst.rule))


def _keep_prices(inst: ShiftBriberyInstance, finite: np.ndarray, counts: np.ndarray):
    """Store the ``_price_table`` of ``inst`` from its checked ``finite`` prices and ``counts``."""
    ends = (counts + 1).cumsum()
    starts = ends - counts - 1
    values = np.zeros(len(finite) + len(counts), dtype=np.int64)  # shifting by 0 is free
    values[np.arange(len(finite)) + np.arange(1, len(counts) + 1).repeat(counts)] = finite
    values.flags.writeable = starts.flags.writeable = ends.flags.writeable = False
    object.__setattr__(inst, "_prices", (values, starts, ends))  # as Election._keep does
    return inst


def _price_table(inst: ShiftBriberyInstance) -> tuple:
    """(values, starts, ends), read-only int64: voter i's price of shifting by t <=
    max_reachable at ``values[starts[i] + t]``, up to ``ends[i]``, as in ``ShiftTable.flat``.

    Kept on the instance: the bulk reader stores the array it parsed, and
    for any other instance it is built from ``costs`` on the first call.  A
    price beyond int64 raises ``OverflowError`` and keeps nothing."""
    table = getattr(inst, "_prices", None)
    if table is None:
        counts = [cf.max_reachable for cf in inst.costs]
        finite = (cf.prices[:k] for cf, k in zip(inst.costs, counts))
        values = np.fromiter(chain.from_iterable(finite), np.int64, sum(counts))
        table = _keep_prices(inst, values, np.array(counts, dtype=np.int64))._prices
    return table


def _price_runs(inst: ShiftBriberyInstance) -> list:
    """Each voter's run of the ``_price_table`` array, for sweeps that check their own totals."""
    values, starts, ends = _price_table(inst)
    return [values[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


def _checked_price_runs(inst: ShiftBriberyInstance) -> list:
    """``_price_runs``, once the largest prices, which bound any, sum in int64."""
    values, _, ends = _price_table(inst)
    _check_i64(sum(values[ends - 1].tolist()), "total of the largest prices")
    return _price_runs(inst)


class ShiftTable:
    """Per-voter row deltas of shifting the preferred candidate up, with one
    batched winner test.

    For voter i and t = 0 .. max_reachable, ``deltas[i][t]`` is the change
    of the row that shifting by t causes; ``_price_table`` holds its price
    at the same index of its flat array.  The row is every candidate's
    score (weight-scaled) for scoring rules, and the preferred candidate's
    row ``tally.n_matrix[0]`` for Copeland and maximin (else ``tally`` is
    None; a table of the instance under ``MAXIMIN`` has them for any rule).
    ``base`` is the unshifted row, ``top`` the row after every voter's
    largest shift, and ``wins`` maps a (K x m) array of rows to whether the
    preferred candidate wins after each.  All rows are built at once from
    the positions shifted by t for each (voter, t), into one flat array,
    voter i's from ``_price_table``'s ``starts[i]`` on; ``deltas`` views it per voter.

    The 64-bit range of the rows is checked once, here: only the preferred
    candidate's score grows, so its fully shifted score bounds every scoring
    row; (m - 1) * den bounds every scaled Copeland score; pairwise rows
    stay within the total weight.  The gains that the scoring solvers
    sweep over are checked when first read.
    """

    def __init__(self, inst: ShiftBriberyInstance):
        e = inst.election
        scoring = isinstance(inst.rule, ScoringRule)
        self.tally = None if scoring else pairwise_tally(e)  # checks the total weight
        _, self.starts, self._ends = _price_table(inst)
        counts = self._ends - self.starts
        voter = np.arange(len(counts)).repeat(counts)
        before = e.positions[voter]
        after = _shifted(before, np.arange(len(voter)) - self.starts[voter])
        if scoring:
            self.base = np.array(scoring_scores(e, inst.rule.vector), dtype=np.int64)
            self.wins = _scoring_wins
            # int64 only where total weight * alpha[0] bounds every sum of steps
            dtype = _sum_dtype(e, inst.rule.vector[0])
            alpha = np.array(inst.rule.vector.scores, dtype=dtype)
            rows = alpha[after] - alpha[before]
        else:
            self.base = np.array(self.tally.n_matrix[0], dtype=np.int64)
            self.wins = _pairwise_wins(self.tally, inst.rule)
            dtype = np.int64
            rows = (after > before).astype(dtype)  # the rivals passed
        if e.weights is not None:
            rows *= np.array(e.weights, dtype=dtype)[voter, None]
        if dtype is object:
            _check_i64(
                int(self.base[0]) + int(rows[self._ends - 1, 0].sum()),
                "fully shifted score of the preferred candidate",
            )
        self.flat = rows.astype(np.int64, copy=False)

    @cached_property
    def deltas(self) -> list:
        """Per voter, the view of its rows t = 0 .. max_reachable."""
        return [self.flat[a:b] for a, b in zip(self.starts.tolist(), self._ends.tolist())]

    @cached_property
    def top(self) -> np.ndarray:
        """The row after every voter's largest shift, built on first read."""
        return self.base + self.flat[self._ends - 1].sum(axis=0)

    @cached_property
    def gains(self) -> list:
        """Per voter, the preferred candidate's score gains of shifting by
        t = 0 .. max_reachable (scoring tables), checked on first read to
        sum below ``_MAX_SAFE_GAIN``."""
        if int(self.flat[self._ends - 1, 0].sum()) >= _MAX_SAFE_GAIN:
            raise OverflowError("score gains too large for the budget sweep")
        return [delta[:, 0] for delta in self.deltas]

    def rows_after(self, shifts: np.ndarray) -> np.ndarray:
        """The rows after each row of ``shifts`` (entry i at most voter i's
        max_reachable): the voters' delta rows gathered at once and summed,
        for blocks of vectors that gather at most ``_GATHER_BLOCK`` entries."""
        rows = np.empty((len(shifts), len(self.base)), dtype=np.int64)
        block = max(1, _GATHER_BLOCK // rows.shape[1] // len(self.starts))
        for lo in range(0, len(shifts), block):
            index = (self.starts + shifts[lo : lo + block]).T
            rows[lo : lo + block] = self.base + self.flat[index].sum(axis=0)
        return rows


def _columns(rows: np.ndarray) -> np.ndarray:
    """A (K x m) batch of rows copied candidate-major, C-contiguous (m x K):
    numpy reduces over m contiguous rows of K far faster than along K short rows."""
    return np.ascontiguousarray(rows.T)


def _scoring_wins(rows: np.ndarray) -> np.ndarray:
    """Whether the preferred candidate's score is a largest one, per row."""
    c = _columns(rows)
    return c[0] == c.max(axis=0)


def _rival_tally(tally: PairwiseTally) -> PairwiseTally:
    """The tally without the preferred candidate: the rival-versus-rival
    pairs, which no shift of the preferred candidate changes."""
    return PairwiseTally(tuple(row[1:] for row in tally.n_matrix[1:]), tally.total_weight)


def _pairwise_wins(tally: PairwiseTally, rule: Rule, rival_scores: Optional[list] = None):
    """Batched winner test on the preferred candidate's pairwise rows, under
    a Copeland ``rule``, else maximin.

    Rival-versus-rival pairs cannot change, so each rival's part of its
    score comes from the rival-only sub-tally: under Copeland its
    ``copeland_scores``, computed here unless given as ``rival_scores``.
    """
    total, m = tally.total_weight, len(tally.n_matrix)
    if m == 1:
        return lambda rows: np.ones(len(rows), dtype=bool)
    if isinstance(rule, CopelandRule):
        num, den = rule.alpha.numerator, rule.alpha.denominator
        _check_i64((m - 1) * den, "scaled Copeland maximum")
        if rival_scores is None:
            rival_scores = copeland_scores(_rival_tally(tally), rule.alpha)
        base_rivals = np.array(rival_scores, dtype=np.int64)
        ours_gain = np.array([0, num, den], dtype=np.int64)  # by outcome: lost, tied, won
        rival_gain = ours_gain[::-1].copy()

        def wins(rows):
            ours = _columns(rows)[1:]
            against = total - ours
            outcome = (ours > against).view(np.int8) + (ours >= against).view(np.int8)
            rival = base_rivals[:, None] + rival_gain.take(outcome)
            return ours_gain.take(outcome).sum(axis=0) >= rival.max(axis=0)

        return wins
    fixed_min = np.array(maximin_scores(_rival_tally(tally)), dtype=np.int64)

    def wins(rows):
        ours = _columns(rows)[1:]
        rival = np.minimum(fixed_min[:, None], total - ours)
        return (rival <= ours.min(axis=0)).all(axis=0)

    return wins
