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

Each solve builds one per-voter table of score deltas, shared with the
exact oracle (``bribery.ShiftTable``), and tests whole batches of candidate
actions against it.  The sweep of ``solve_two_pass`` serves ``A``, every
``Aeps`` round and every ``B`` guess: a round re-prices the (price, gain)
option rows, and a guess slices one voter's rows and starts from the shift.

All solvers are deterministic: buying ties are broken by minimum cost and
then by the lexicographically smallest shift vector, and budget grids are
scanned in ascending order.
"""

from fractions import Fraction
from typing import Tuple

import numpy as np

from .bribery import (
    ScoringRule,
    ShiftAction,
    ShiftBriberyInstance,
    ShiftTable,
    _max_budget,
    _price_lists,
    is_successful,
)
from .elections import _check_i64
from .errors import GuardExceeded, IncompatibleRule, Infeasible, env_guard

DEFAULT_CELL_GUARD = 10**8
DEFAULT_EXACT_THRESHOLD = 10**6

_MAX_SAFE_GAIN = 1 << 50


def _require_scoring(inst: ShiftBriberyInstance) -> ScoringRule:
    if not isinstance(inst.rule, ScoringRule):
        raise IncompatibleRule("this solver requires a scoring rule")
    return inst.rule


def _price_rows(prices: list, hint: str = ""):
    """(P, int64 rows) of per-voter price lists whose largest prices sum to
    P, after checking (n + 1)(P + 1) against the cell guard and then P
    against the 64-bit range, so that no sum of frontier costs can wrap."""
    total = sum(p[-1] for p in prices)
    guard = env_guard(DEFAULT_CELL_GUARD)
    cells = (len(prices) + 1) * (total + 1)
    if cells > guard:
        raise GuardExceeded(f"budget DP needs {cells} cells (guard {guard}){hint}")
    _check_i64(total, "total of the largest prices")
    return total, [np.array(p, dtype=np.int64) for p in prices]


def _gain_rows(table: ShiftTable) -> list:
    """Per voter, the int64 score gains of shifting by 0, 1, ... up to the
    largest reachable amount."""
    gains = [delta[:, 0] for delta in table.deltas]
    if sum(int(g[-1]) for g in gains) >= _MAX_SAFE_GAIN:
        raise OverflowError("score gains too large for the budget sweep")
    return gains


def _option_rows(table: ShiftTable):
    """Per voter, the (prices, gains) int64 arrays of the table."""
    return list(zip(table.prices, _gain_rows(table)))


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

    def trace(self, points) -> np.ndarray:
        """Shift vectors of the given frontier points, one row each."""
        points = np.asarray(points)
        shifts = np.empty((len(points), len(self.choices)), dtype=np.int64)
        for i, (choice, pointer) in enumerate(zip(self.choices, self.pointers)):
            shifts[:, i] = choice[points]
            points = pointer[points]
        return shifts

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
    last = len(sweep.costs) - 1  # every point is within budget; the last gains most
    return ShiftAction(tuple(sweep.trace([last])[0].tolist())), int(sweep.gains[last])


def _two_pass(table: ShiftTable, rows: list, start, budget: int):
    """(cost, shifts) of ``solve_two_pass`` on the option ``rows``, one
    (prices, gains) pair per voter, for actions on top of ``start``: the
    winner test runs on ``table`` at ``start`` plus the shifts returned."""
    outer = _BudgetSweep(rows, budget)
    firsts = outer.trace(np.arange(len(outer.costs)))
    best = None
    for (l1, _), first in zip(outer.iter_breakpoints(), firsts):
        if best is not None and l1 >= best[0]:
            break
        rebased = [(p[t:] - p[t], g[t:] - g[t]) for (p, g), t in zip(rows, first.tolist())]
        inner = _BudgetSweep(rebased, budget if best is None else best[0] - l1 - 1)
        shifts = start + first + inner.trace(np.arange(len(inner.costs)))
        won = np.flatnonzero(table.wins(table.rows_after(shifts)))
        if len(won):
            w = won[0]
            best = (l1 + int(inner.costs[w]), shifts[w])
    if best is None:
        raise Infeasible("no successful shift action exists")
    return best


def solve_two_pass(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
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
    The guard counts the cells of an exact-spend table: when (n + 1)(P + 1)
    exceeds ``DEFAULT_CELL_GUARD`` (10**8, overridable via the
    ``SHIFTBRIBE_GUARD`` environment variable) a ``GuardExceeded`` is raised
    and the caller should switch to ``solve_two_pass_scaled``.
    """
    _require_scoring(inst)
    hint = "; use solve_two_pass_scaled instead"
    budget, prices = _price_rows(_price_lists(inst), hint)
    table = ShiftTable(inst)
    cost, shifts = _two_pass(table, list(zip(prices, _gain_rows(table))), 0, budget)
    return cost, ShiftAction(tuple(shifts.tolist()))


def solve_single_pass(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Single greedy budget sweep: the smallest budget whose best buy makes
    the preferred candidate win.

    Every action considered here is also considered by ``solve_two_pass``
    (take l2 = 0), so this never returns a cheaper solution; it carries no
    approximation guarantee of its own and exists for experimental
    comparison.  All frontier points are checked in one batch, and the guard
    is the same (n + 1)(P + 1) cell count as in ``solve_two_pass``.
    """
    _require_scoring(inst)
    budget, prices = _price_rows(_price_lists(inst))
    table = ShiftTable(inst)
    sweep = _BudgetSweep(list(zip(prices, _gain_rows(table))), budget)
    shifts = sweep.trace(np.arange(len(sweep.costs)))
    won = np.flatnonzero(table.wins(table.rows_after(shifts)))
    if not len(won):
        raise Infeasible("no successful shift action exists")
    w = won[0]
    return int(sweep.costs[w]), ShiftAction(tuple(shifts[w].tolist()))


def _scaled_rounds(inst, table, start, eps):
    """(cost, shifts, table) of the rounds of ``solve_two_pass_scaled``, with
    internal ``eps``, for actions on top of ``start``.

    Each voter's options are rebased over its start shift s: prices
    ``p[s:] - p[s]``, gains ``g[s:] - g[s]``.  Every round re-prices them and
    calls ``_two_pass`` on ``table``; when that is None, it is built after
    the first round's checks.  The cost is under the rebased prices.
    """
    n = inst.num_voters
    num, den = eps.numerator, eps.denominator
    big = int(2 * (n * n / eps + n)) + 1  # smallest integer strictly above the keep threshold
    prices = [[q - p[s] for q in p[s:]] for p, s in zip(_price_lists(inst), start.tolist())]
    top = max(p[-1] for p in prices)
    rhos = [1]  # doubled up to the first value at least the largest price
    while rhos[-1] < top:
        rhos.append(2 * rhos[-1])
    # ceil(price / K), exactly, with K = rho*eps/n for prices at most rho
    pricings = [
        [[-(-q * n * den // (rho * num)) if q <= rho else big for q in p] for p in prices]
        for rho in rhos
    ]
    if (n + 1) * (sum(p[-1] for p in prices) + 1) <= DEFAULT_EXACT_THRESHOLD:
        pricings.append(prices)
    best = None
    for scaled in pricings:
        budget, rows = _price_rows(scaled)
        if table is None:
            table = ShiftTable(inst)
        gains = [g[s:] - g[s] for g, s in zip(_gain_rows(table), start.tolist())]
        _, shifts = _two_pass(table, list(zip(rows, gains)), start, budget)
        moved = (shifts - start).tolist()
        if scaled is prices or all(p[k] < big for p, k in zip(scaled, moved)):
            cost = _check_i64(sum(p[k] for p, k in zip(prices, moved)), "total bribery cost")
            if best is None or cost < best[0]:
                best = (cost, shifts)
    return best + (table,)


def solve_two_pass_scaled(inst: ShiftBriberyInstance, eps) -> Tuple[int, ShiftAction]:
    """Price-scaling approximation scheme; (2 + eps)-approximation.

    Doubles a guess ``rho`` of the most expensive single shift from 1 up to
    the largest finite price.  Each round rescales prices at most ``rho`` by
    the exact rational ceiling of price/(rho*eps'/n) and maps larger prices
    to a polynomially bounded big value, runs the sweep of
    ``solve_two_pass`` on the re-priced option rows, and keeps the resulting
    action unless it used one of the big-valued shifts.  Every round checks
    its winners against the one shift table of the instance.  The cheapest
    kept action under the original prices is returned.

    The per-round analysis delivers a (2 + 4*eps') bound, so internally
    eps' = eps/4 and the advertised guarantee is the caller-facing
    (2 + eps).  Whenever the unscaled DP is small (cell count
    (n + 1)(P + 1) at most ``DEFAULT_EXACT_THRESHOLD``, 10**6), the exact
    ``solve_two_pass`` run is included as one more candidate, making the
    answer exact at desk scale.
    """
    _require_scoring(inst)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero = np.zeros(inst.num_voters, dtype=np.int64)
    cost, shifts, _ = _scaled_rounds(inst, None, zero, eps / 4)
    return cost, ShiftAction(tuple(shifts.tolist()))


def solve_bootstrap(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Guess-and-rescale solver; 2-approximation in polynomial time.

    Some coordinate of an optimal action carries at least a 1/n fraction of
    its cost, and there are only n * m candidate (voter, amount) guesses.
    For every guess the remainder is solved by the rounds of
    ``solve_two_pass_scaled`` with eps = 1/n, started from the guess: the
    guessed voter's option rows are sliced at the guessed shift, and the
    winner test runs on the instance's one shift table.  This makes the
    combined cost at most twice the optimum for the correct guess.  A
    no-guess run is included as the baseline, and a candidate that already
    wins yields cost 0 before any guard is consulted.  Returns the cheapest
    successful combination found.
    """
    _require_scoring(inst)
    n = inst.num_voters
    if is_successful(inst, ShiftAction.zero(n)):
        return 0, ShiftAction.zero(n)
    eps = Fraction(1, 4 * n)  # internal eps of 1/n
    zero = np.zeros(n, dtype=np.int64)
    cost, shifts, table = _scaled_rounds(inst, None, zero, eps)
    best = (cost, shifts)
    for i, p in enumerate(_price_lists(inst)):
        for t in range(1, len(p)):
            if p[t] >= best[0]:
                break  # prices are non-decreasing; nothing cheaper follows
            guess = zero.copy()
            guess[i] = t
            if table.wins(table.rows_after(guess[None]))[0]:
                cand = (p[t], guess)
            else:
                rest_cost, shifts, _ = _scaled_rounds(inst, table, guess, eps)
                cand = (p[t] + rest_cost, shifts)
            if cand[0] < best[0]:
                best = cand
    return best[0], ShiftAction(tuple(best[1].tolist()))


def solve_bootstrap_weighted(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Weighted-voter entry point of ``solve_bootstrap``.

    A voter of weight w behaves exactly like a unit-weight voter whose
    scoring vector is scaled by w; the gain computation already folds the
    weight in, so the pipeline is shared.  Requires explicit weights.
    """
    _require_scoring(inst)
    if inst.election.weights is None:
        raise IncompatibleRule("solve_bootstrap_weighted requires a weighted instance")
    return solve_bootstrap(inst)
