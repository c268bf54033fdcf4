"""Exact brute-force solvers, used as ground truth in tests and benchmarks.

Enumeration sizes are guarded by hard errors: a truncated oracle would be
worse than none.  Witnesses are tie-broken lexicographically so repeated
runs are identical.
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
from .elections import CopelandAlpha, pairwise_tally
from .errors import GuardExceeded, Infeasible, env_guard

DEFAULT_ENUM_GUARD = 10**7
DEFAULT_MICRO_SLOT_GUARD = 20


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


def _scoring_evaluator(inst: ShiftBriberyInstance):
    """Per-action winner check via precomputed per-(voter, shift) score
    deltas."""
    alpha = inst.rule.vector
    e = inst.election
    m = e.num_candidates
    base = np.array(rule_scores(e, inst.rule), dtype=np.int64)
    deltas = []
    for i, order in enumerate(e.voters):
        r = order.index(0) + 1
        w = e.weight(i)
        per_shift = [np.zeros(m, dtype=np.int64)]
        for t in range(1, inst.costs[i].max_reachable + 1):
            tt = min(t, r - 1)
            d = np.zeros(m, dtype=np.int64)
            d[0] = w * (alpha[r - tt - 1] - alpha[r - 1])
            for idx in range(r - 1 - tt, r - 1):
                d[order[idx]] -= w * (alpha[idx] - alpha[idx + 1])
            per_shift.append(d)
        deltas.append(per_shift)

    def wins(action) -> bool:
        scores = base.copy()
        for i, t in enumerate(action):
            scores += deltas[i][t]
        return scores[0] == scores.max()

    return wins


def _pairwise_evaluator(inst: ShiftBriberyInstance):
    """Per-action winner check for Copeland/maximin: only the preferred
    candidate's pairwise row changes under shifts."""
    e = inst.election
    m = e.num_candidates
    total = e.total_weight
    tally = pairwise_tally(e)
    row_p = np.array(tally.n_matrix[0], dtype=np.int64)
    passed = []  # per voter: per shift, weights added to row 0 per rival
    for i, order in enumerate(e.voters):
        idx = order.index(0)
        w = e.weight(i)
        per_shift = [np.zeros(m, dtype=np.int64)]
        d = np.zeros(m, dtype=np.int64)
        for t in range(1, inst.costs[i].max_reachable + 1):
            if t <= idx:
                d = d.copy()
                d[order[idx - t]] += w
            per_shift.append(d)
        passed.append(per_shift)

    if isinstance(inst.rule, CopelandRule):
        alpha = inst.rule.alpha
        num, den = alpha.numerator, alpha.denominator
        base_rivals = np.zeros(m, dtype=np.int64)
        for c in range(1, m):
            for dd in range(1, m):
                if dd == c:
                    continue
                if tally.n_matrix[c][dd] > tally.n_matrix[dd][c]:
                    base_rivals[c] += den
                elif tally.n_matrix[c][dd] == tally.n_matrix[dd][c]:
                    base_rivals[c] += num

        def wins(action) -> bool:
            row = row_p.copy()
            for i, t in enumerate(action):
                row += passed[i][t]
            p_score = 0
            top_rival = -1
            for c in range(1, m):
                against = total - row[c]
                if row[c] > against:
                    p_score += den
                elif row[c] == against:
                    p_score += num
                rival = base_rivals[c]
                if against > row[c]:
                    rival += den
                elif against == row[c]:
                    rival += num
                if rival > top_rival:
                    top_rival = rival
            return p_score >= top_rival

    elif isinstance(inst.rule, MaximinRule):
        fixed_min = np.full(m, total, dtype=np.int64)
        for c in range(1, m):
            others = [tally.n_matrix[c][dd] for dd in range(1, m) if dd != c]
            if others:
                fixed_min[c] = min(others)

        def wins(action) -> bool:
            row = row_p.copy()
            for i, t in enumerate(action):
                row += passed[i][t]
            if m == 1:
                return True
            p_score = row[1:].min()
            for c in range(1, m):
                if min(fixed_min[c], total - row[c]) > p_score:
                    return False
            return True

    else:  # pragma: no cover - dispatched by caller
        raise TypeError("pairwise evaluator needs Copeland or maximin")
    return wins


def exact_shift_opt(
    inst: ShiftBriberyInstance, enum_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Minimum cost of a successful shift action, by full enumeration.

    All shift vectors within the purchasable caps are tried in
    lexicographic order; the witness is the lexicographically smallest
    among the minimum-cost successful actions.  Instances whose action
    space exceeds the enumeration guard are rejected.
    """
    ranges = _enumeration_plan(inst, enum_guard)
    if isinstance(inst.rule, ScoringRule):
        wins = _scoring_evaluator(inst)
    else:
        wins = _pairwise_evaluator(inst)
    price_tables = [[cf.price(t) for t in r] for cf, r in zip(inst.costs, ranges)]
    best_cost: Optional[int] = None
    best_action = None
    for action in product(*ranges):
        cost = 0
        for i, t in enumerate(action):
            cost += price_tables[i][t]
        if best_cost is not None and cost >= best_cost:
            continue
        if wins(action):
            best_cost = cost
            best_action = action
    if best_cost is None:
        raise Infeasible("no successful shift action exists")
    return best_cost, ShiftAction(best_action)


def exact_cover_opt(
    inst: ShiftBriberyInstance, targets: Sequence, enum_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Minimum cost of a shift action meeting per-rival pairwise-support
    demands (ground truth for the greedy multicover)."""
    ranges = _enumeration_plan(inst, enum_guard)
    e = inst.election
    m = e.num_candidates
    if len(targets) != m - 1:
        raise ValueError("need one target per rival")
    tally = pairwise_tally(e)
    row_p = np.array(tally.n_matrix[0], dtype=np.int64)
    required = np.zeros(m, dtype=np.int64)
    for c in range(1, m):
        required[c] = min(tally.n_matrix[0][c] + targets[c - 1], e.total_weight)
    passed = []
    for i, order in enumerate(e.voters):
        idx = order.index(0)
        w = e.weight(i)
        per_shift = [np.zeros(m, dtype=np.int64)]
        d = np.zeros(m, dtype=np.int64)
        for t in range(1, inst.costs[i].max_reachable + 1):
            if t <= idx:
                d = d.copy()
                d[order[idx - t]] += w
            per_shift.append(d)
        passed.append(per_shift)
    price_tables = [[cf.price(t) for t in r] for cf, r in zip(inst.costs, ranges)]
    best_cost: Optional[int] = None
    best_action = None
    for action in product(*ranges):
        cost = 0
        for i, t in enumerate(action):
            cost += price_tables[i][t]
        if best_cost is not None and cost >= best_cost:
            continue
        row = row_p.copy()
        for i, t in enumerate(action):
            row += passed[i][t]
        if bool((row >= required).all()):
            best_cost = cost
            best_action = action
    if best_cost is None:
        raise Infeasible("no shift action meets the targets")
    return best_cost, ShiftAction(best_action)


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
