"""Exact brute-force solvers, used as ground truth in tests and benchmarks.

Enumeration sizes are guarded by hard errors: a truncated oracle would be
worse than none.  Witnesses are tie-broken lexicographically so repeated
runs are identical.

The shift-vector oracles enumerate blocks of lexicographically consecutive
vectors from the per-voter table of prices and score (or pairwise-row)
deltas that the scoring solvers share (``bribery.ShiftTable``), with one
vectorized winner test per block; ``_cheapest`` explains why the witness
is still the one a vector-by-vector scan returns.
"""

from itertools import product
from typing import Optional, Sequence, Tuple

import numpy as np

from .bribery import ShiftAction, ShiftBriberyInstance, ShiftTable
from .condorcet_solvers import FlipSet, MicrobriberyInstance, _copeland_inputs, _micro_tally
from .elections import CopelandAlpha
from .errors import GuardExceeded, Infeasible, env_guard

DEFAULT_ENUM_GUARD = 10**7
DEFAULT_MICRO_SLOT_GUARD = 20
# Most shift vectors combined into one block of the exhaustive search.
_BLOCK = 4096


def _check_enumeration(inst: ShiftBriberyInstance):
    guard = env_guard(DEFAULT_ENUM_GUARD)
    count = 1
    for cf in inst.costs:
        count *= cf.max_reachable + 1
        if count > guard:
            raise GuardExceeded(f"exhaustive search needs more than {guard} shift vectors")


def _cheapest(table: ShiftTable, accept) -> Optional[Tuple[int, tuple]]:
    """Lexicographically first of the cheapest shift vectors whose shifted
    row ``table.base`` plus the sum of deltas passes ``accept``, or None.

    The voters split into a head and a tail, the longest suffix with at most
    ``_BLOCK`` shift vectors.  The tail's costs and rows are combined once,
    in lexicographic order; each head combination, taken in ``product``
    order, adds its cost and delta to them and tests, in one batch, the rows
    cheaper than the best found so far.  Lexicographic order is head-major,
    then tail index, and a later block replaces the best only when strictly
    cheaper, so the witness is the one a vector-by-vector scan keeps.
    """
    rows = list(zip(table.prices, table.deltas))
    base = table.base
    split = len(rows)
    tail_cost = np.zeros(1, dtype=np.int64)
    tail_delta = base[None, :]
    while split and len(tail_cost) * len(rows[split - 1][0]) <= _BLOCK:
        split -= 1
        prices, delta = rows[split]
        tail_cost = (prices[:, None] + tail_cost[None, :]).ravel()
        tail_delta = (delta[:, None, :] + tail_delta[None, :, :]).reshape(-1, len(base))
    tail_shape = [len(prices) for prices, _ in rows[split:]]
    head = rows[:split]
    best = None
    for combo in product(*(range(len(prices)) for prices, _ in head)):
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
    found = _cheapest(table, table.wins)
    if found is None:
        raise Infeasible("no successful shift action exists")
    return found[0], ShiftAction(found[1])


def exact_cover_opt(inst: ShiftBriberyInstance, targets: Sequence) -> Tuple[int, ShiftAction]:
    """Minimum cost of a shift action meeting per-rival pairwise-support
    demands (ground truth for the greedy multicover), enumerated in blocks
    like ``exact_shift_opt``."""
    _check_enumeration(inst)
    e = inst.election
    m = e.num_candidates
    if len(targets) != m - 1:
        raise ValueError("need one target per rival")
    table = ShiftTable(inst, pairwise=True)
    required = np.zeros(m, dtype=np.int64)
    for c in range(1, m):
        required[c] = min(int(table.base[c]) + targets[c - 1], e.total_weight)
    found = _cheapest(table, lambda rows: (rows >= required).all(axis=1))
    if found is None:
        raise Infeasible("no shift action meets the targets")
    return found[0], ShiftAction(found[1])


def exact_micro_opt(m_inst: MicrobriberyInstance, alpha: CopelandAlpha) -> Tuple[int, FlipSet]:
    """Optimal microbribery by enumerating every subset of available flips.

    All subsets of the finitely priced flips are evaluated in a vectorized
    pass; at most 2**20 subsets (``DEFAULT_MICRO_SLOT_GUARD`` flip slots)
    are allowed, unless ``SHIFTBRIBE_GUARD`` sets another count.  The
    witness is the subset with the smallest bitmask in (voter, rival) slot
    order among the minimum-cost successful ones.
    """
    subsets_guard = env_guard(1 << DEFAULT_MICRO_SLOT_GUARD)
    n, m = m_inst.num_voters, m_inst.num_candidates
    slots = []
    for i in range(n):
        for c in range(1, m):
            if m_inst.flip_costs[i].price(c) is not None:
                slots.append((i, c))
    if 1 << len(slots) > subsets_guard:
        raise GuardExceeded(
            f"microbribery enumeration needs 2**{len(slots)} subsets "
            f"(guard {subsets_guard})"
        )
    num, den = alpha.numerator, alpha.denominator
    margins, base = _copeland_inputs(_micro_tally(m_inst), alpha)

    costs = np.zeros(1, dtype=np.int64)
    margin_delta = {c: np.zeros(1, dtype=np.int64) for c in range(1, m)}
    for i, c in slots:
        price = m_inst.flip_costs[i].price(c)
        costs = np.concatenate([costs, costs + price])
        step = -2 if m_inst.tables[i][c][0] == 1 else 2
        for r in range(1, m):
            arr = margin_delta[r]
            margin_delta[r] = np.concatenate([arr, arr + (step if r == c else 0)])

    size = 1 << len(slots)
    p_scaled = np.zeros(size, dtype=np.int64)
    top_rival = np.full(size, -1, dtype=np.int64)
    for c in range(1, m):
        margin = margins[c] + margin_delta[c]
        p_scaled += np.where(margin < 0, den, np.where(margin == 0, num, 0))
        rival = base[c] + np.where(margin > 0, den, np.where(margin == 0, num, 0))
        np.maximum(top_rival, rival, out=top_rival)
    winning = p_scaled >= top_rival
    if not winning.any():
        raise Infeasible("no flip subset makes the preferred candidate a winner")
    win_costs = np.where(winning, costs, np.iinfo(np.int64).max)
    best_cost = int(win_costs.min())
    mask = int(np.nonzero(win_costs == best_cost)[0][0])
    flips = [set() for _ in range(n)]
    for bit, (i, c) in enumerate(slots):
        if mask & (1 << bit):
            flips[i].add(c)
    return best_cost, FlipSet(tuple(frozenset(s) for s in flips))
