"""Exact brute-force solvers, used as ground truth in tests and benchmarks.

Enumeration sizes are guarded by hard errors: a truncated oracle would be
worse than none.  Witnesses are tie-broken lexicographically so repeated
runs are identical.

All three oracles run one exhaustive search, ``_cheapest``: it enumerates
blocks of lexicographically consecutive vectors from per-voter rows of
prices and row deltas, with one vectorized winner test per block, and
explains why the witness is still the one a vector-by-vector scan returns.
The shift-vector oracles pass the rows of the table the scoring solvers
share (``bribery.ShiftTable``); the microbribery oracle passes one two-row
"voter" per available flip and the Copeland test of that table.
"""

from itertools import product
from typing import Optional, Sequence, Tuple

import numpy as np

from .bribery import CopelandRule, ShiftAction, ShiftBriberyInstance, ShiftTable, _pairwise_wins
from .condorcet_solvers import FlipSet, MicrobriberyInstance, _micro_tally
from .elections import CopelandAlpha, _check_i64
from .errors import GuardExceeded, Infeasible, env_guard

DEFAULT_ENUM_GUARD = 10**7
# Most vectors combined into one block of the exhaustive search.
_BLOCK = 4096


def _check_enumeration(inst: ShiftBriberyInstance):
    guard = env_guard(DEFAULT_ENUM_GUARD)
    count = 1
    for cf in inst.costs:
        count *= cf.max_reachable + 1
        if count > guard:
            raise GuardExceeded(f"exhaustive search needs more than {guard} shift vectors")


def _cheapest(prices: list, deltas: list, base: np.ndarray, accept) -> Optional[Tuple[int, tuple]]:
    """Lexicographically first of the cheapest vectors t, one option per
    voter, whose row ``base`` plus the sum of ``deltas[i][t[i]]`` passes
    ``accept``, or None; t costs the sum of ``prices[i][t[i]]``.

    The voters split into a head and a tail, the longest suffix with at most
    ``_BLOCK`` vectors.  The tail's costs and rows are combined once,
    in lexicographic order; each head combination, taken in ``product``
    order, adds its cost and delta to them and tests, in one batch, the rows
    cheaper than the best found so far.  Lexicographic order is head-major,
    then tail index, and a later block replaces the best only when strictly
    cheaper, so the witness is the one a vector-by-vector scan keeps.
    """
    rows = list(zip(prices, deltas))
    split = len(rows)
    tail_cost = np.zeros(1, dtype=np.int64)
    tail_delta = base[None, :]
    while split and len(tail_cost) * len(rows[split - 1][0]) <= _BLOCK:
        split -= 1
        price, delta = rows[split]
        tail_cost = (price[:, None] + tail_cost[None, :]).ravel()
        tail_delta = (delta[:, None, :] + tail_delta[None, :, :]).reshape(-1, len(base))
    tail_shape = [len(price) for price, _ in rows[split:]]
    head = rows[:split]
    best = None
    for combo in product(*(range(len(price)) for price, _ in head)):
        cost = tail_cost + sum(int(head[i][0][t]) for i, t in enumerate(combo))
        if best is None:
            keep = np.arange(len(cost))
        else:
            keep = np.flatnonzero(cost < best[0])
            if not len(keep):
                continue
        shifted = tail_delta[keep] + sum(head[i][1][t] for i, t in enumerate(combo))
        keep = keep[accept(shifted)]
        if len(keep):
            j = int(keep[np.argmin(cost[keep])])
            tail = np.unravel_index(j, tail_shape) if tail_shape else ()
            best = int(cost[j]), combo + tuple(int(t) for t in tail)
    return best


def exact_shift_opt(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Minimum cost of a successful shift action, by full enumeration.

    All shift vectors within the purchasable caps are tried, in blocks of
    lexicographically consecutive vectors checked with one vectorized
    winner test each (see ``_cheapest``); the witness is the
    lexicographically smallest among the minimum-cost successful actions.
    Instances whose action space exceeds the enumeration guard are
    rejected.
    """
    _check_enumeration(inst)
    table = ShiftTable(inst)
    found = _cheapest(table.prices, table.deltas, table.base, table.wins)
    if found is None:
        raise Infeasible("no successful shift action exists")
    return found[0], ShiftAction(found[1])


def exact_cover_opt(inst: ShiftBriberyInstance, targets: Sequence) -> Tuple[int, ShiftAction]:
    """Minimum cost of a shift action meeting per-rival pairwise-support
    demands (ground truth for the greedy multicover), enumerated in blocks
    like ``exact_shift_opt``."""
    _check_enumeration(inst)
    m = inst.num_candidates
    if len(targets) != m - 1:
        raise ValueError("need one target per rival")
    if any(not isinstance(k, int) or k < 0 for k in targets):
        raise ValueError(f"targets must be non-negative integers: {tuple(targets)!r}")
    table = ShiftTable(inst, pairwise=True)
    support, total = table.base.tolist(), inst.election.total_weight
    required = np.array([0] + [min(support[c] + targets[c - 1], total) for c in range(1, m)])
    accept = lambda rows: (rows >= required).all(axis=1)
    found = _cheapest(table.prices, table.deltas, table.base, accept)
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
    guard = env_guard(DEFAULT_ENUM_GUARD)
    if 1 << len(slots) > guard:
        raise GuardExceeded(
            f"microbribery enumeration needs 2**{len(slots)} subsets (guard {guard})"
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
