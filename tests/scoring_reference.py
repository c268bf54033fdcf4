"""Reference forms of the scoring-rule budget DP, the doubling bound and
``B``'s guess loop without a cost cap, kept for the consistency tests: the
solvers use the frontier sweep and capped guesses of ``scoring_solvers``
and never call these."""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

import shiftbribe as sb
from shiftbribe.bribery import ShiftTable, _price_runs
from shiftbribe.scoring_solvers import _require_scoring, _scaled_rounds


@dataclass
class BudgetDpTable:
    """The prefix-form budget DP table.

    ``rows[i][j]`` is the maximum increase in the preferred candidate's
    score when spending exactly ``j`` on the first ``i`` voters, or ``None``
    when ``j`` cannot be spent exactly.  ``rows[0]`` is 0 at spend 0 and
    ``None`` elsewhere, and each row follows from the previous one by
    maximizing over that voter's purchasable shifts.
    """

    budget: int
    rows: List[List[Optional[int]]]


def build_budget_dp(inst, budget: int) -> BudgetDpTable:
    """Materialize the prefix DP table row by row, with its own ``cf.price``
    and ``gain`` loop rather than the shared shift table."""
    _require_scoring(inst)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    rows = [[0] + [None] * budget]
    for i, cf in enumerate(inst.costs):
        prices = [cf.price(k) for k in range(cf.max_reachable + 1)]
        gains = [sb.gain(inst, i, k) for k in range(len(prices))]
        prev = rows[-1]
        row: List[Optional[int]] = [None] * (budget + 1)
        for j in range(budget + 1):
            best = None
            for k in range(len(prices)):
                p = prices[k]
                if p > j:
                    break
                base = prev[j - p]
                if base is None:
                    continue
                val = base + gains[k]
                if best is None or val > best:
                    best = val
            row[j] = best
        rows.append(row)
    return BudgetDpTable(budget, rows)


def double_gain_check(inst, s, r) -> bool:
    """Whether ``r`` gains at least twice the score gain of the successful
    action ``s``.

    Shifting the preferred candidate never raises anyone else's score, so
    a successful action gaining k bounds every rival's head start by 2k;
    any action gaining at least 2k is therefore guaranteed successful.
    """
    _require_scoring(inst)
    if not sb.is_successful(inst, s):
        raise ValueError("s must be a successful shift action")
    gain_s = sum(sb.gain(inst, i, t) for i, t in enumerate(s))
    gain_r = sum(sb.gain(inst, i, t) for i, t in enumerate(r))
    return gain_r >= 2 * gain_s


def bootstrap_uncapped(inst):
    """``solve_bootstrap``'s guess loop with every guess's remainder solved
    in full by ``_scaled_rounds`` and then compared with the best so far:
    the reference its capped sweeps are checked against.  Each guess has
    its own winner test, rows and memo, shared with no other guess."""
    rule = _require_scoring(inst)
    n = inst.num_voters
    if 0 in sb.winners(sb.scoring_scores(inst.election, rule.vector)):
        return 0, sb.ShiftAction.zero(n)
    eps = Fraction(1, 4 * n)
    zero = np.zeros(n, dtype=np.int64)
    table = ShiftTable(inst)
    runs = _price_runs(inst)
    best = _scaled_rounds(runs, table, zero, eps)
    for i, run in enumerate(runs):
        p = run.tolist()
        for t in range(1, len(p)):
            if p[t] >= best[0]:
                break
            guess = zero.copy()
            guess[i] = t
            if table.wins(table.rows_after(guess[None]))[0]:
                cand = (p[t], guess)
            else:
                rest_cost, shifts = _scaled_rounds(runs, table, guess, eps)
                cand = (p[t] + rest_cost, shifts)
            if cand[0] < best[0]:
                best = cand
    return best[0], sb.ShiftAction(tuple(best[1].tolist()))
