"""Shift-bribery solvers for scoring rules.

The common primitive is a budget dynamic program over voters that keeps the
Pareto frontier of (cost, gain) pairs: for every cost at which some action
gains strictly more than every cheaper action, the maximum score increase
of the preferred candidate.  It is built back to front, each voter's
purchasable shifts combined with the frontier of the voters after it
(Nemhauser and Ullmann's frontier method for knapsack), so a frontier never
holds more than min(P, G) + 1 points, where P is the total of the largest
prices and G the total of the largest gains.  On top of it this module
builds

* ``buy``: the cheapest score-maximizing action within a budget,
* ``solve_two_pass``: a pseudo-polynomial 2-approximation that splits the
  budget into two greedy buying rounds (CLI name ``A``),
* ``solve_two_pass_scaled``: a polynomial (2+eps)-approximation scheme that
  guesses the largest single-shift price and rescales the price tables
  (CLI name ``Aeps``),
* ``solve_bootstrap``: a polynomial 2-approximation that guesses one
  coordinate of an optimal action and delegates the rest to the scaled
  scheme (CLI name ``B``), with a weighted-voter entry point (``Bw``),
* ``solve_single_pass``: the single-loop greedy sweep, provided for
  comparison only; it carries no approximation guarantee (CLI name ``G``).

``solve_two_pass`` and ``solve_single_pass`` test whole batches of candidate
actions at once against the per-voter table of prices and score deltas that
the exact oracle shares (``bribery.ShiftTable``); the budget sweeps read
their (price, gain) option rows from the same table.

All solvers are deterministic: buying ties are broken by minimum cost and
then by the lexicographically smallest shift vector, and budget grids are
scanned in ascending order.
"""

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .bribery import (
    ScoringRule,
    ShiftAction,
    ShiftBriberyInstance,
    ShiftTable,
    _max_budget,
    rebase,
    total_cost,
)
from .elections import scoring_scores
from .errors import GuardExceeded, IncompatibleRule, Infeasible, env_guard

DEFAULT_CELL_GUARD = 10**8
DEFAULT_EXACT_THRESHOLD = 10**6

_MAX_SAFE_GAIN = 1 << 50


def _require_scoring(inst: ShiftBriberyInstance) -> ScoringRule:
    if not isinstance(inst.rule, ScoringRule):
        raise IncompatibleRule("this solver requires a scoring rule")
    return inst.rule


def _option_rows(table: ShiftTable):
    """Per voter, the (prices, gains) int64 arrays of shifting by 0, 1, ...
    up to the largest reachable amount.

    The rows of the instance rebased over shifts ``t`` are the slices
    ``prices[t:] - prices[t]`` and ``gains[t:] - gains[t]``.  The table
    checks the price total, so no sum of frontier costs can wrap.
    """
    rows = [(prices, delta[:, 0]) for prices, delta in zip(table.prices, table.deltas)]
    if sum(int(g[-1]) for _, g in rows) >= _MAX_SAFE_GAIN:
        raise OverflowError("score gains too large for the budget sweep")
    return rows


class _BudgetSweep:
    """Pareto frontier of (cost, gain) over all actions spending at most
    ``budget``.

    ``costs`` ascend and ``gains`` strictly ascend: point f is the cheapest
    action gaining ``gains[f]``, and no action of cost at most ``costs[f]``
    gains more.  The frontier is computed back to front over the voters.
    Voter i's candidates are its options (shift k) combined with every point
    j of the frontier of voters i+1..n-1; a stable lexsort by cost ascending
    and gain descending keeps ties in flat order k * width + j, so the first
    candidate of each (cost, gain) pair has the smallest shift.  Keeping the
    candidates whose gain exceeds the running maximum then records, per
    point, voter i's shift and a pointer into the next frontier.  Tracing a
    point back yields the lexicographically smallest shift vector among the
    actions of that exact cost and gain: every suffix of such an action is
    itself a frontier point of its voters.
    """

    def __init__(self, rows, budget: int):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        costs = np.zeros(1, dtype=np.int64)
        gains = np.zeros(1, dtype=np.int64)
        choices = []
        pointers = []
        for prices, option_gains in reversed(rows):
            width = len(costs)
            cand_cost = (prices[:, None] + costs).ravel()
            cand_gain = (option_gains[:, None] + gains).ravel()
            flat = np.flatnonzero(cand_cost <= budget)
            cand_cost = cand_cost[flat]
            cand_gain = cand_gain[flat]
            order = np.lexsort((-cand_gain, cand_cost))
            ordered_gain = cand_gain[order]
            keep = np.empty(len(order), dtype=bool)
            keep[0] = True
            np.greater(ordered_gain[1:], np.maximum.accumulate(ordered_gain)[:-1], out=keep[1:])
            picked = order[keep]
            choice, pointer = np.divmod(flat[picked], width)
            choices.append(choice)
            pointers.append(pointer)
            costs = cand_cost[picked]
            gains = cand_gain[picked]
        choices.reverse()
        pointers.reverse()
        self.choices = choices
        self.pointers = pointers
        self.costs = costs
        self.gains = gains

    def best_at(self, budget: int) -> Tuple[int, int]:
        """(max gain, minimum spend achieving it) for ``budget``."""
        idx = int(np.searchsorted(self.costs, budget, side="right")) - 1
        return int(self.gains[idx]), int(self.costs[idx])

    def trace(self, points) -> np.ndarray:
        """Shift vectors of the given frontier points, one row each."""
        points = np.asarray(points)
        shifts = np.empty((len(points), len(self.choices)), dtype=np.int64)
        for i, (choice, pointer) in enumerate(zip(self.choices, self.pointers)):
            shifts[:, i] = choice[points]
            points = pointer[points]
        return shifts

    def action_at(self, spend: int) -> ShiftAction:
        """The lexicographically smallest action spending exactly ``spend``
        with maximum gain; ``spend`` must be a frontier cost."""
        idx = int(np.searchsorted(self.costs, spend))
        if idx == len(self.costs) or self.costs[idx] != spend:
            raise ValueError(f"spend {spend} is not a frontier cost")
        return ShiftAction(tuple(self.trace([idx])[0].tolist()))

    def iter_breakpoints(self):
        """(budget, gain) at every point where the best buy changes."""
        return zip(self.costs.tolist(), self.gains.tolist())


def buy(inst: ShiftBriberyInstance, budget: int) -> Tuple[ShiftAction, int]:
    """Cheapest shift action maximizing the preferred candidate's score gain
    subject to spending at most ``budget``.

    Among the gain-maximizing actions within budget, the one of minimum
    cost is returned; remaining ties go to the lexicographically smallest
    shift vector.  Returns the action and its score gain.
    """
    _require_scoring(inst)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    budget = min(budget, _max_budget(inst))
    sweep = _BudgetSweep(_option_rows(ShiftTable(inst)), budget)
    g, spend = sweep.best_at(budget)
    return sweep.action_at(spend), g


def _wins(scores) -> bool:
    return scores[0] == max(scores)


def _check_cells(inst: ShiftBriberyInstance, cell_guard: Optional[int], hint: str) -> int:
    """The price total P, after checking (n + 1)(P + 1) against the guard."""
    if cell_guard is None:
        cell_guard = env_guard(DEFAULT_CELL_GUARD)
    m_budget = _max_budget(inst)
    cells = (inst.num_voters + 1) * (m_budget + 1)
    if cells > cell_guard:
        raise GuardExceeded(f"budget DP needs {cells} cells (guard {cell_guard}){hint}")
    return m_budget


def solve_two_pass(
    inst: ShiftBriberyInstance, cell_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Two-round greedy budget sweep; 2-approximation for scoring rules.

    Scans all budget splits (l1, l2) up to the total of the largest finite
    prices: buy the best action for l1, then the best follow-up action for
    l2 on the rebased instance, and return the smallest l1 + l2 for which
    the preferred candidate wins, together with the combined action.  The
    returned cost is the winning budget sum; it never exceeds twice the
    optimum and is never below it.

    Only frontier points matter: l1 runs over the outer frontier in
    ascending cost, and for each l1 the inner frontier is built on the
    rebased option rows, which are slices of the instance's rows, and is cut
    at the best sum found so far.  All its points are traced back into one
    matrix of shift vectors and checked in one batch against the score-delta
    table of the original instance; the cheapest winner is taken.  The
    result is identical to the full grid scan.

    A frontier holds at most min(P, G) + 1 points, so the runtime is
    pseudo-polynomial in the smaller of the price total P and the gain
    total G; for Borda or k-approval it is polynomial whatever the prices.
    The guard still counts the cells of an exact-spend table, exactly as
    before: when (n + 1)(P + 1) exceeds ``cell_guard`` (default 10**8,
    overridable via the ``SHIFTBRIBE_GUARD`` environment variable) a
    ``GuardExceeded`` is raised and the caller should switch to
    ``solve_two_pass_scaled``.
    """
    _require_scoring(inst)
    m_budget = _check_cells(inst, cell_guard, "; use solve_two_pass_scaled instead")
    table = ShiftTable(inst)
    rows = _option_rows(table)
    outer = _BudgetSweep(rows, m_budget)
    firsts = outer.trace(np.arange(len(outer.costs)))
    best: Optional[Tuple[int, ShiftAction]] = None
    for (l1, _), first in zip(outer.iter_breakpoints(), firsts):
        if best is not None and l1 >= best[0]:
            break
        rebased = [(p[t:] - p[t], g[t:] - g[t]) for (p, g), t in zip(rows, first.tolist())]
        inner = _BudgetSweep(rebased, m_budget if best is None else best[0] - l1 - 1)
        shifts = first + inner.trace(np.arange(len(inner.costs)))
        won = np.flatnonzero(table.wins(table.rows_after(shifts)))
        if len(won):
            w = won[0]
            best = (l1 + int(inner.costs[w]), ShiftAction(tuple(shifts[w].tolist())))
    if best is None:
        raise Infeasible("no successful shift action exists")
    return best


def solve_single_pass(
    inst: ShiftBriberyInstance, cell_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Single greedy budget sweep: the smallest budget whose best buy makes
    the preferred candidate win.

    Every action considered here is also considered by ``solve_two_pass``
    (take l2 = 0), so this never returns a cheaper solution; it carries no
    approximation guarantee of its own and exists for experimental
    comparison.  All frontier points are checked in one batch, and the guard
    is the same (n + 1)(P + 1) cell count as in ``solve_two_pass``.
    """
    _require_scoring(inst)
    m_budget = _check_cells(inst, cell_guard, "")
    table = ShiftTable(inst)
    sweep = _BudgetSweep(_option_rows(table), m_budget)
    shifts = sweep.trace(np.arange(len(sweep.costs)))
    won = np.flatnonzero(table.wins(table.rows_after(shifts)))
    if not len(won):
        raise Infeasible("no successful shift action exists")
    w = won[0]
    return int(sweep.costs[w]), ShiftAction(tuple(shifts[w].tolist()))


def _scaled_instance(inst: ShiftBriberyInstance, rho: int, eps: Fraction, big: int):
    """Rescale all price tables: ceil(price / K) with K = rho*eps/n for
    prices at most rho, a poly-bounded big value beyond."""
    from .bribery import CostFunction

    n = inst.num_voters
    num, den = eps.numerator, eps.denominator
    new_costs = []
    for cf in inst.costs:
        scaled = []
        for p in cf.prices:
            if p is None:
                scaled.append(None)
            elif p <= rho:
                scaled.append(-(-p * n * den // (rho * num)))  # exact ceiling
            else:
                scaled.append(big)
        new_costs.append(CostFunction(tuple(scaled)))
    return ShiftBriberyInstance(inst.election, tuple(new_costs), inst.rule)


def solve_two_pass_scaled(
    inst: ShiftBriberyInstance,
    eps,
    exact_threshold: Optional[int] = None,
    cell_guard: Optional[int] = None,
) -> Tuple[int, ShiftAction]:
    """Price-scaling approximation scheme; (2 + eps)-approximation.

    Doubles a guess ``rho`` of the most expensive single shift from 1 up to
    the largest finite price.  Each round rescales prices at most ``rho`` by
    the exact rational ceiling of price/(rho*eps'/n) and maps larger prices
    to a polynomially bounded big value, runs ``solve_two_pass`` on the
    rescaled instance, and keeps the resulting action unless it used one of
    the big-valued shifts.  The cheapest kept action under the original
    prices is returned.

    The per-round analysis delivers a (2 + 4*eps') bound, so internally
    eps' = eps/4 and the advertised guarantee is the caller-facing
    (2 + eps).  Whenever the unscaled DP is small (price total at most
    ``exact_threshold``, default 10**6), the exact ``solve_two_pass`` run is
    included as one more candidate, making the answer exact at desk scale.
    """
    _require_scoring(inst)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if exact_threshold is None:
        exact_threshold = DEFAULT_EXACT_THRESHOLD
    eps_internal = eps / 4
    n = inst.num_voters
    m_budget = _max_budget(inst)
    if m_budget == 0:
        return solve_two_pass(inst, cell_guard=cell_guard)
    max_price = max(
        cf.prices[cf.max_reachable - 1] for cf in inst.costs if cf.max_reachable > 0
    )
    threshold = 2 * (n * n / eps_internal + n)
    big = int(threshold) + 1  # smallest integer strictly above the keep threshold

    candidates: List[Tuple[int, ShiftAction]] = []
    rho = 1
    while True:
        scaled = _scaled_instance(inst, rho, eps_internal, big)
        _, action = solve_two_pass(scaled, cell_guard=cell_guard)
        if all(
            scaled.costs[i].price(t) is not None and scaled.costs[i].price(t) < big
            for i, t in enumerate(action)
        ):
            candidates.append((total_cost(inst, action), action))
        if rho >= max_price:
            break
        rho *= 2
    if (inst.num_voters + 1) * (m_budget + 1) <= exact_threshold:
        candidates.append(solve_two_pass(inst, cell_guard=cell_guard))
    if not candidates:
        raise Infeasible("no successful shift action exists")
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[0] < best[0]:
            best = cand
    return best


def solve_bootstrap(
    inst: ShiftBriberyInstance, cell_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Guess-and-rescale solver; 2-approximation in polynomial time.

    Some coordinate of an optimal action carries at least a 1/n fraction of
    its cost, and there are only n * m candidate (voter, amount) guesses.
    For every guess the instance is rebased over that single shift and the
    remainder is solved by ``solve_two_pass_scaled`` with eps = 1/n, which
    makes the combined cost at most twice the optimum for the correct
    guess.  A no-guess run is included as the baseline so that an already
    winning candidate yields cost 0.  Returns the cheapest successful
    combination found.
    """
    _require_scoring(inst)
    n = inst.num_voters
    eps = Fraction(1, n)
    if _wins(scoring_scores(inst.election, inst.rule.vector)):
        return 0, ShiftAction.zero(n)
    best = solve_two_pass_scaled(inst, eps, cell_guard=cell_guard)
    for i in range(n):
        cf = inst.costs[i]
        for t in range(1, cf.max_reachable + 1):
            head = cf.prices[t - 1]
            if head >= best[0]:
                break  # prices are non-decreasing; nothing cheaper follows
            guess = ShiftAction(tuple(t if j == i else 0 for j in range(n)))
            rebased = rebase(inst, guess)
            if _wins(scoring_scores(rebased.election, inst.rule.vector)):
                cand = (head, guess)
            else:
                rest_cost, rest = solve_two_pass_scaled(rebased, eps, cell_guard=cell_guard)
                cand = (head + rest_cost, guess + rest)
            if cand[0] < best[0]:
                best = cand
    return best


def solve_bootstrap_weighted(
    inst: ShiftBriberyInstance, cell_guard: Optional[int] = None
) -> Tuple[int, ShiftAction]:
    """Weighted-voter entry point of ``solve_bootstrap``.

    A voter of weight w behaves exactly like a unit-weight voter whose
    scoring vector is scaled by w; the gain computation already folds the
    weight in, so the pipeline is shared.  Requires explicit weights.
    """
    _require_scoring(inst)
    if inst.election.weights is None:
        raise IncompatibleRule("solve_bootstrap_weighted requires a weighted instance")
    return solve_bootstrap(inst, cell_guard=cell_guard)
