"""Exact brute-force solvers, used as ground truth in tests and benchmarks.

Enumeration sizes are guarded by hard errors: a truncated oracle would be
worse than none.  Witnesses are tie-broken lexicographically so repeated
runs are identical.

All three oracles run one exhaustive search, ``_cheapest``, over per-voter
rows of prices and row deltas, whatever the count of vectors.  It tests
vectors in rounds of rising cost threshold, in batches of at most
``_BLOCK`` with one vectorized winner test each, and stops after the first
round that accepts a vector; its docstring explains why that round holds
every cheapest accepted vector, so the witness is still the one a
vector-by-vector scan returns.  The shift-vector oracles pass the rows of
``bribery.ShiftTable`` (of the maximin view for covers) and the checked
price runs (``bribery._checked_price_runs``); the microbribery oracle passes
one two-row "voter" per available flip and the Copeland test of that table.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from .bribery import MAXIMIN, CopelandRule, ShiftAction, ShiftBriberyInstance, ShiftTable
from .bribery import _GATHER_BLOCK, _checked_price_runs, _columns, _pairwise_wins, _price_table
from .condorcet_solvers import FlipSet, MicrobriberyInstance, _check_targets, _micro_tally
from .elections import CopelandAlpha, _check_i64, _unchecked
from .errors import GuardExceeded, Infeasible

DEFAULT_ENUM_GUARD = 10**7
# Most vectors tested in one batch of the exhaustive search, or combined
# into one group of a side's rows.
_BLOCK = 4096


def _check_enumeration(inst: ShiftBriberyInstance):
    """Refuse more shift vectors than the guard: the product of the voters'
    run lengths in the ``_price_table``, which is built first if need be."""
    _, starts, ends = _price_table(inst)
    count = 1
    for size in (ends - starts).tolist():
        count *= size
        if count > DEFAULT_ENUM_GUARD:
            raise GuardExceeded(
                f"exhaustive search needs more than {DEFAULT_ENUM_GUARD} shift vectors"
            )


class _Side:
    """The vectors over a run of voters, in lexicographic order: ``cost``
    holds all their costs, and ``rows(index)`` gives their rows, ``start``
    plus the summed deltas.  Rows are combined once per group of
    consecutive voters spanning at most ``_BLOCK`` vectors (or one voter),
    so a side spanning many vectors holds the rows of a few groups."""

    def __init__(self, rows: list, start: np.ndarray):
        groups = [(np.zeros(1, dtype=np.int64), start[None, :])]
        for price, delta in rows:
            cost, shifted = groups[-1]
            if len(cost) * len(price) > _BLOCK:
                groups.append((price, delta))
                continue
            groups[-1] = (
                (cost[:, None] + price[None, :]).ravel(),
                (shifted[:, None, :] + delta[None, :, :]).reshape(-1, len(start)),
            )
        self.cost = groups[0][0]
        for cost, _ in groups[1:]:
            self.cost = (self.cost[:, None] + cost[None, :]).ravel()
        self._sizes = [len(cost) for cost, _ in groups]
        self._rows = [shifted for _, shifted in groups]

    def rows(self, index: np.ndarray) -> np.ndarray:
        if len(self._rows) == 1:
            return self._rows[0].take(index, axis=0)
        parts = np.unravel_index(index, self._sizes)
        out = self._rows[0].take(parts[0], axis=0)
        for rows, part in zip(self._rows[1:], parts[1:]):
            out += rows.take(part, axis=0)
        return out


def _unravel(flat: int, sizes: list) -> tuple:
    """The vector at index ``flat`` of the lexicographic order over ``sizes``."""
    return tuple(int(t) for t in np.unravel_index(flat, sizes)) if sizes else ()


def _least(values: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` least of ``values`` (all if fewer), in no order."""
    return values if len(values) <= count else np.partition(values, count - 1)[:count]


def _cheapest(prices: list, deltas: list, base: np.ndarray, accept) -> Optional[Tuple[int, tuple]]:
    """Lexicographically first of the cheapest vectors t, one option per
    voter, whose row ``base`` plus the sum of ``deltas[i][t[i]]`` passes
    ``accept``, or None; t costs the sum of ``prices[i][t[i]]``.

    Every call, however few its vectors, runs one search.  The voters
    split into a head and a tail of about the square root of the count of
    vectors each (with no voters, each side holds the one empty vector),
    and each side's costs and rows are combined once (see ``_Side``), the
    heads ``H`` in ``product`` order and the tail costs ``T`` sorted
    stably.  A vector is a pair (head h, tail position), and the tail
    positions of head h that cost at most x are those below
    ``searchsorted(T, x - H[h], "right")``.

    The search runs in rounds of rising cost threshold x, from the 64th
    cheapest sum of the 64 cheapest heads and tails, then 2x + 1, capped at
    the largest cost.  A round tests, in batches of at most ``_BLOCK``
    vectors and ``bribery._GATHER_BLOCK`` row entries (so that the
    temporaries of a batch of wide rows stay in cache), exactly the
    untested vectors of cost at most x: per head, the positions from
    ``done[h]`` up to that bound.  So after round x every vector of cost at
    most x has been tested, and the first round that accepts a vector has
    tested the cheapest accepted vector and every other vector of its cost:
    an untested vector costs more than x, and x is at least what the round
    accepted.  Once a batch accepts one, the rest of the round tests only
    vectors no dearer.  Of the cheapest, the least (head index, tail index)
    is the lexicographically first vector, since the order is head-major
    and both sides are indexed lexicographically.
    """
    sizes = [len(price) for price in prices]
    rows = list(zip(prices, deltas))
    ahead = [1]  # vectors over the first i voters
    for size in sizes:
        ahead.append(ahead[-1] * size)
    total = ahead[-1]
    split = min(range(len(ahead)), key=lambda i: max(ahead[i], total // ahead[i]))
    head, tail = _Side(rows[:split], np.zeros_like(base)), _Side(rows[split:], base)
    H = head.cost
    order = np.argsort(tail.cost, kind="stable")
    T = tail.cost[order]
    x = int(_least((_least(H, 64)[:, None] + T[None, :64]).ravel(), 64).max())
    top = int(H.max()) + int(T[-1])
    done = np.zeros(len(H), dtype=np.int64)
    batch = min(_BLOCK, max(1, _GATHER_BLOCK // len(base)))
    best = None  # (cost, head * len(T) + tail index)
    while True:
        upto = np.searchsorted(T, x - H, "right")
        counts = upto - done
        ends = counts.cumsum()
        begins = ends - counts
        for lo in range(0, int(ends[-1]), batch):
            hi = min(lo + batch, int(ends[-1]))
            a = int(np.searchsorted(ends, lo, "right"))
            b = int(np.searchsorted(ends, hi - 1, "right")) + 1
            take = np.minimum(ends[a:b], hi) - np.maximum(begins[a:b], lo)
            h = np.arange(a, b).repeat(take)
            t = np.arange(lo, hi) + (done[a:b] - begins[a:b]).repeat(take)
            cost = H.take(h) + T.take(t)
            if best is not None:
                keep = np.flatnonzero(cost <= best[0])
                if not len(keep):
                    continue
                h, t, cost = h[keep], t[keep], cost[keep]
            shifted = head.rows(h)
            shifted += tail.rows(order.take(t))
            won = np.flatnonzero(accept(shifted))
            if len(won):
                least = cost[won].min()
                won = won[cost[won] == least]
                found = int(least), int((h[won] * len(T) + order[t[won]]).min())
                best = found if best is None else min(best, found)
        done = upto
        if best is not None:
            return best[0], _unravel(best[1], sizes)
        if x >= top:
            return None
        x = min(2 * x + 1, top)


def exact_shift_opt(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Minimum cost of a successful shift action, by full enumeration.

    The shift vectors within the purchasable caps are tried in rounds of
    rising cost, in batches checked with one vectorized winner test each,
    until every vector no dearer than the optimum is tried (see
    ``_cheapest``); the witness is the lexicographically smallest among the
    minimum-cost successful actions.
    Instances whose action space exceeds the enumeration guard are
    rejected.
    """
    _check_enumeration(inst)
    table = ShiftTable(inst)
    found = _cheapest(_checked_price_runs(inst), table.deltas, table.base, table.wins)
    if found is None:
        raise Infeasible("no successful shift action exists")
    return found[0], ShiftAction(found[1])


def exact_cover_opt(inst: ShiftBriberyInstance, targets: Sequence) -> Tuple[int, ShiftAction]:
    """Minimum cost of a shift action meeting per-rival pairwise-support
    demands (ground truth for the greedy multicover), searched like
    ``exact_shift_opt`` on the instance's prices and its ``MAXIMIN`` rows."""
    _check_enumeration(inst)
    m = inst.num_candidates
    _check_targets(targets, m)
    prices = _price_table(inst)  # the view shares the instance's arrays
    table = ShiftTable(
        _unchecked(ShiftBriberyInstance, election=inst.election, rule=MAXIMIN, _prices=prices)
    )
    support, total = table.base.tolist(), inst.election.total_weight
    required = np.array([0] + [min(support[c] + targets[c - 1], total) for c in range(1, m)])
    accept = lambda rows: (_columns(rows) >= required[:, None]).all(axis=0)
    found = _cheapest(_checked_price_runs(inst), table.deltas, table.base, accept)
    if found is None:
        raise Infeasible("no shift action meets the targets")
    return found[0], ShiftAction(found[1])


def exact_micro_opt(m_inst: MicrobriberyInstance, alpha: CopelandAlpha) -> Tuple[int, FlipSet]:
    """Optimal microbribery by enumerating every subset of available flips.

    Each finitely priced flip (voter i, rival c) is a voter of ``_cheapest``
    with two options, no flip (price 0) and the flip, which moves the
    preferred candidate's pairwise row against c by one; the rows get the
    shift oracles' Copeland test.  A subset is a 0/1 vector, so the
    enumeration guard bounds the 2**k subsets.  The flips go in reverse
    (voter, rival) order, so the lexicographically first cheapest winning
    vector, the witness, is the subset with the smallest bitmask.
    """
    m = m_inst.num_candidates
    slots = [
        (i, c, fc.price(c))
        for i, fc in enumerate(m_inst.flip_costs)
        for c in range(1, m)
        if fc.price(c) is not None
    ][::-1]
    if 1 << len(slots) > DEFAULT_ENUM_GUARD:
        raise GuardExceeded(
            f"microbribery enumeration needs 2**{len(slots)} subsets"
            f" (guard {DEFAULT_ENUM_GUARD})"
        )
    _check_i64(sum(p for _, _, p in slots), "total of the flip prices")
    prices, deltas = [], []
    for i, c, p in slots:
        prices.append(np.array([0, p], dtype=np.int64))
        delta = np.zeros((2, m), dtype=np.int64)
        delta[1, c] = m_inst.tables[i][c][0]  # +1 when the voter prefers c
        deltas.append(delta)
    tally = _micro_tally(m_inst)
    base = np.array(tally.n_matrix[0], dtype=np.int64)
    found = _cheapest(prices, deltas, base, _pairwise_wins(tally, CopelandRule(alpha)))
    if found is None:
        raise Infeasible("no flip subset makes the preferred candidate a winner")
    flips = [set() for _ in range(m_inst.num_voters)]
    for (i, c, _), flipped in zip(slots, found[1]):
        if flipped:
            flips[i].add(c)
    return found[0], FlipSet(tuple(flips))
