"""Exact brute-force solvers, used as ground truth in tests and benchmarks.

Enumeration sizes are guarded by hard errors: a truncated oracle would be
worse than none.  Witnesses are tie-broken lexicographically so repeated
runs are identical.

The shift-vector oracles enumerate blocks of lexicographically consecutive
vectors from one per-voter table of prices and score (or pairwise-row)
deltas, with one vectorized test per block; ``_cheapest`` explains why the
witness is still the one a vector-by-vector scan returns.
"""

from itertools import product
from typing import Optional, Sequence, Tuple

import numpy as np

from .bribery import (
    CopelandRule,
    MaximinRule,
    ScoringRule,
    ShiftAction,
    ShiftBriberyInstance,
    rule_scores,
)
from .condorcet_solvers import FlipSet, MicrobriberyInstance, _margins, _rival_base_scaled
from .elections import CopelandAlpha, _check_i64, pairwise_tally
from .errors import GuardExceeded, Infeasible, env_guard

DEFAULT_ENUM_GUARD = 10**7
DEFAULT_MICRO_SLOT_GUARD = 20
# Most shift vectors combined into one block of the exhaustive search.
_BLOCK = 4096


def _enumeration_plan(inst: ShiftBriberyInstance, enum_guard: Optional[int]):
    if enum_guard is None:
        enum_guard = env_guard(DEFAULT_ENUM_GUARD)
    ranges = [range(cf.max_reachable + 1) for cf in inst.costs]
    count = 1
    for r in ranges:
        count *= len(r)
        if count > enum_guard:
            raise GuardExceeded(
                f"exhaustive search needs more than {enum_guard} shift vectors"
            )
    return ranges


def _shift_rows(inst: ShiftBriberyInstance, ranges, pairwise: bool):
    """Per voter, the int64 ``prices`` and the (shifts x m) ``delta`` of
    shifting the preferred candidate up by each amount in its range.

    ``delta[t]`` is the change of every candidate's score (scoring rules,
    weight-scaled) or, with ``pairwise``, of the preferred candidate's
    pairwise row.  The price total is checked so that no block cost wraps.
    """
    _check_i64(
        sum(cf.price(len(r) - 1) for cf, r in zip(inst.costs, ranges)),
        "total of the largest prices",
    )
    e = inst.election
    alpha = None if pairwise else inst.rule.vector
    rows = []
    for i, (cf, r) in enumerate(zip(inst.costs, ranges)):
        order = e.voters[i]
        pos = order.index(0)
        w = e.weight(i)
        delta = np.zeros((len(r), e.num_candidates), dtype=np.int64)
        for t in r[1:]:
            passed = order[pos - t]
            if pairwise:
                delta[t:, passed] += w
            else:
                step = w * (alpha[pos - t] - alpha[pos - t + 1])
                delta[t:, 0] += step
                delta[t:, passed] -= step
        prices = np.array([cf.price(t) for t in r], dtype=np.int64)
        rows.append((prices, delta))
    return rows


def _winner_test(inst: ShiftBriberyInstance):
    """Batched winner test: the unshifted row that ``_shift_rows`` deltas
    add to (all scores, or the preferred candidate's pairwise row), and a
    function mapping a (K x m) array of shifted rows to whether the
    preferred candidate wins after each."""
    m = inst.num_candidates
    if isinstance(inst.rule, ScoringRule):
        base = np.array(rule_scores(inst.election, inst.rule), dtype=np.int64)
        return base, lambda s: s[:, 0] == s.max(axis=1)
    tally = pairwise_tally(inst.election)
    base = np.array(tally.n_matrix[0], dtype=np.int64)
    if m == 1:
        return base, lambda rows: np.ones(len(rows), dtype=bool)
    total = inst.election.total_weight
    if isinstance(inst.rule, CopelandRule):
        num, den = inst.rule.alpha.numerator, inst.rule.alpha.denominator
        base_rivals = np.zeros(m, dtype=np.int64)
        for c in range(1, m):
            for dd in range(1, m):
                if dd == c:
                    continue
                if tally.n_matrix[c][dd] > tally.n_matrix[dd][c]:
                    base_rivals[c] += den
                elif tally.n_matrix[c][dd] == tally.n_matrix[dd][c]:
                    base_rivals[c] += num

        def wins(rows):
            ours = rows[:, 1:]
            against = total - ours
            tie = num * (ours == against)
            p_score = (den * (ours > against) + tie).sum(axis=1)
            rival = base_rivals[1:] + den * (against > ours) + tie
            return p_score >= rival.max(axis=1)

        return base, wins
    if isinstance(inst.rule, MaximinRule):
        fixed_min = np.full(m, total, dtype=np.int64)
        for c in range(1, m):
            others = [tally.n_matrix[c][dd] for dd in range(1, m) if dd != c]
            if others:
                fixed_min[c] = min(others)

        def wins(rows):
            p_score = rows[:, 1:].min(axis=1)
            rival = np.minimum(fixed_min[1:], total - rows[:, 1:])
            return (rival <= p_score[:, None]).all(axis=1)

        return base, wins
    raise TypeError(f"unknown rule: {inst.rule!r}")


def _cheapest(rows, base, accept) -> Optional[Tuple[int, tuple]]:
    """Lexicographically first of the cheapest shift vectors whose shifted
    row ``base + sum of deltas`` passes ``accept``, or None.

    The voters split into a head and a tail, the longest suffix with at most
    ``_BLOCK`` shift vectors.  The tail's costs and rows are combined once,
    in lexicographic order; each head combination, taken in ``product``
    order, adds its cost and delta to them and tests, in one batch, the rows
    cheaper than the best found so far.  Lexicographic order is head-major,
    then tail index, and a later block replaces the best only when strictly
    cheaper, so the witness is the one a vector-by-vector scan keeps.
    """
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


def exact_shift_opt(
    inst: ShiftBriberyInstance, enum_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Minimum cost of a successful shift action, by full enumeration.

    All shift vectors within the purchasable caps are tried, in blocks of
    lexicographically consecutive vectors checked with one vectorized
    winner test each (see ``_cheapest``); the witness is the
    lexicographically smallest among the minimum-cost successful actions.
    Instances whose action space exceeds the enumeration guard are
    rejected.
    """
    ranges = _enumeration_plan(inst, enum_guard)
    base, wins = _winner_test(inst)
    pairwise = not isinstance(inst.rule, ScoringRule)
    found = _cheapest(_shift_rows(inst, ranges, pairwise), base, wins)
    if found is None:
        raise Infeasible("no successful shift action exists")
    return found[0], ShiftAction(found[1])


def exact_cover_opt(
    inst: ShiftBriberyInstance, targets: Sequence, enum_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Minimum cost of a shift action meeting per-rival pairwise-support
    demands (ground truth for the greedy multicover), enumerated in blocks
    like ``exact_shift_opt``."""
    ranges = _enumeration_plan(inst, enum_guard)
    e = inst.election
    m = e.num_candidates
    if len(targets) != m - 1:
        raise ValueError("need one target per rival")
    tally = pairwise_tally(e)
    required = np.zeros(m, dtype=np.int64)
    for c in range(1, m):
        required[c] = min(tally.n_matrix[0][c] + targets[c - 1], e.total_weight)
    found = _cheapest(
        _shift_rows(inst, ranges, pairwise=True),
        np.array(tally.n_matrix[0], dtype=np.int64),
        lambda rows: (rows >= required).all(axis=1),
    )
    if found is None:
        raise Infeasible("no shift action meets the targets")
    return found[0], ShiftAction(found[1])


def exact_micro_opt(
    m_inst: MicrobriberyInstance,
    alpha: CopelandAlpha,
    slot_guard: Optional[int] = None,
) -> Tuple[int, FlipSet]:
    """Optimal microbribery by enumerating every subset of available flips.

    All subsets of the finitely priced flips are evaluated in a vectorized
    pass; at most ``slot_guard`` (default 20) flip slots are allowed.  The
    witness is the subset with the smallest bitmask in (voter, rival) slot
    order among the minimum-cost successful ones.
    """
    if slot_guard is None:
        default_subsets = 1 << DEFAULT_MICRO_SLOT_GUARD
        subsets_guard = env_guard(default_subsets)
    else:
        subsets_guard = 1 << slot_guard
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
    margins = _margins(m_inst)
    base = _rival_base_scaled(m_inst, alpha)

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
