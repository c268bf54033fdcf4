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

Each solve first builds one per-voter table of score deltas, shared with
the exact oracle (``bribery.ShiftTable``), reads the gain rows of its
sweeps from it, and tests whole batches of candidate actions against it.
Every sweep, ``buy``'s included, takes its option rows from
``_sweep_rows``, behind the cell guard.  The sweep of ``solve_two_pass``
serves ``A``, ``Aeps`` and every ``B`` guess.  Its option rows are indexed
by the shift, and it sweeps them offset at its start: a guess starts from
its shift.  Where the unscaled sweep is admitted it runs alone; elsewhere
every price-scaling round re-prices the (price, gain) option rows and
runs it.
Within one such sweep every voter suffix's frontier is built once and kept
until the sweep returns, trading memory for time, and a voter none of whose
affordable shifts gains anything passes the next frontier through unbuilt
(see ``_BudgetSweep``).  Each suffix frontier records the budget it was
built at and is rebuilt when asked at a higher one, so ``B``'s baseline
hands its frontiers to every admitted guess, each guess reading them
through its own copy of the memo.  The sweep builds no inner frontier for
a first-round buy after which no affordable follow-up can make the
preferred candidate win, by a bound on what each rival can still lose
(see ``_two_pass``); a scan that shares no memo builds its follow-ups'
inner frontiers together, gain-indexed, once it finds a winner.
Every two-pass scan runs below a cost: the price total + 1, or for a ``B``
guess whose unscaled sweep runs, the best cost so far less its guessed price.
Before any guess is swept, one vectorized reach test over all of them rules
out those after which no action cheaper than the baseline's cost can make
the preferred candidate win, by the same bound on what each rival can lose
with every voter at its last affordable shift, the preferred candidate's
gain capped by the baseline's frontier (see ``solve_bootstrap``).

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
    _GATHER_BLOCK,
    _price_runs,
    _price_table,
)
from .elections import _check_i64, scoring_scores, winners
from .errors import GuardExceeded, IncompatibleRule, Infeasible

DEFAULT_CELL_GUARD = 10**8
DEFAULT_EXACT_THRESHOLD = 10**6
# A scan batches its follow-ups (``_follow_ups``) only if it admits at
# least this many per voter: a batch costs as much as 7.5 follow-ups swept
# one by one at n = 15-19, and 8.8 at n = 20-24 (A on the seed-1 and -2
# benchmark pools, in-process, 2-CPU host).
_FOLLOW_UPS_PER_VOTER = 1
# ... and only if the outer frontier's top gain, in units of the gains' gcd,
# is at most this many times its point count: unweighted scans read
# 1.00-1.06, a weighted 20x10 3,061 units against 611 points, and batched
# weighted A at 50x20/p<=50 took 13-15 s (6 s) at 3.35 GB (217 MB) peak RSS.
_DENSE_GAIN_AXIS = 2

_EMPTY_SUFFIX = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))  # no voters: (0, 0)


def _require_scoring(inst: ShiftBriberyInstance) -> ScoringRule:
    if not isinstance(inst.rule, ScoringRule):
        raise IncompatibleRule("this solver requires a scoring rule")
    return inst.rule


def _sweep_rows(prices: list, table: ShiftTable, start, hint: str = ""):
    """(P, option rows) of a sweep on top of ``start``: per voter, its
    ``prices`` as int64 (a run of the price array is not copied) with the
    table's gain row, both indexed by the shift, of which the entries below
    the voter's start shift are never read.  The largest prices sum, as
    Python ints, to P, and the gains left above ``start`` to G, read once
    ``table.gains`` has passed its own check.  A frontier holds at most
    min(P, G) + 1 points, so (n + 1)(min(P, G) + 1) is checked against the
    cell guard first, and then P against the 64-bit range, so that no sum
    of frontier costs can wrap."""
    gains = table.gains
    total = sum(int(p[-1]) for p in prices)
    left = sum(int(g[-1] - g[s]) for g, s in zip(gains, start.tolist()))
    cells = (len(prices) + 1) * (min(total, left) + 1)
    if cells > DEFAULT_CELL_GUARD:
        raise GuardExceeded(f"budget DP needs {cells} cells (guard {DEFAULT_CELL_GUARD}){hint}")
    _check_i64(total, "total of the largest prices")
    return total, [(np.asarray(p, dtype=np.int64), g) for p, g in zip(prices, gains)]


class _BudgetSweep:
    """Pareto frontier of (cost, gain) over all actions spending at most
    ``budget`` on the option ``rows``, which start at (0, 0), with voter i's
    row rebased at shift ``offsets[i]``.

    ``costs`` ascend and ``gains`` strictly ascend: point f is the cheapest
    action gaining ``gains[f]``, and no action of cost at most ``costs[f]``
    gains more.  The frontier is computed back to front over the voters.
    Voter i's candidates are its options (shift k) combined with every point
    j of the frontier of voters i+1..n-1; a stable lexsort by cost ascending
    and gain descending keeps ties in flat order k * width + j, so the first
    candidate of each (cost, gain) pair has the smallest shift.  Keeping the
    candidates whose gain exceeds the running maximum then leaves voter i's
    frontier, and one ``divmod`` of the kept flat indices by the width gives
    each point's shift k and its pointer j into the next frontier.  Tracing a
    point back yields the lexicographically smallest shift vector among the
    actions of that exact cost and gain: every suffix of such an action is
    itself a frontier point of its voters.

    A layer node is (costs, gains, shifts, pointers, budget, next node).
    If the last shift of voter i's rebased row within the budget gains
    nothing, no affordable shift does (gains do not decrease with the
    shift): every candidate of shift k > 0 ties with, or is dominated by,
    the same point at shift 0, which comes first in flat order.  The
    frontier is then the next one, with shift 0 and the identity pointer at
    every point, so the node shares the next node's arrays, holds None for
    shifts and pointers, and ``trace`` skips it.  No price is ever added to
    the budget: the price total can lie just below 2**63.

    Layer nodes are kept in ``memo`` under (offsets[i], id of the next
    node), so sweeps sharing a memo build each suffix once; each node keeps
    its next node alive, so no key's id is reused while the key is held.
    A node built at budget B serves any B' <= B: cut at cost B', it is the
    node built at B', pointers and tie-breaks included, since prices are
    non-negative (a pass-through node stays one at B', and may hold
    next-node points above B, which every reader cuts off).  Asked at a
    higher budget, it is rebuilt there and replaces the entry; the nodes of
    earlier voters built on the old one are then keyed by an id no sweep
    reaches, so they are rebuilt too.  Rows may be swept through one memo
    only if voter i's row gives the same rebased row at every offset the
    memo's sweeps read it at.
    """

    def __init__(self, rows, budget: int, offsets=None, memo=None):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        memo = {} if memo is None else memo
        node = _EMPTY_SUFFIX
        layers = []
        for i in reversed(range(len(rows))):
            t = offsets[i] if offsets else 0
            key = (t, id(node))
            hit = memo.get(key)
            if hit is None or hit[4] < budget:
                prices, gains = rows[i]
                if t:
                    prices, gains = prices[t:] - prices[t], gains[t:] - gains[t]
                if not gains[prices.searchsorted(budget, "right") - 1]:
                    hit = (node[0], node[1], None, None, budget, node)
                else:
                    width = int(node[0].searchsorted(budget, "right"))
                    cand_cost = (prices[:, None] + node[0][:width]).ravel()
                    cand_gain = (gains[:, None] + node[1][:width]).ravel()
                    flat = (cand_cost <= budget).nonzero()[0]
                    cand_cost, cand_gain = cand_cost[flat], cand_gain[flat]
                    order = np.lexsort((-cand_gain, cand_cost))
                    ordered_gain = cand_gain[order]
                    running = np.maximum.accumulate(ordered_gain)
                    keep = np.empty(len(order), dtype=bool)
                    keep[0] = True
                    np.greater(ordered_gain[1:], running[:-1], out=keep[1:])
                    picked = order[keep]
                    shift, pointer = np.divmod(flat[picked], width)
                    hit = (cand_cost[picked], cand_gain[picked], shift, pointer, budget, node)
                memo[key] = hit
            node = hit
            if node[2] is not None:
                layers.append((i, node[2], node[3]))
        layers.reverse()
        self.layers = layers
        self.voters = len(rows)
        cut = node[0].searchsorted(budget, "right")
        self.costs = node[0][:cut]
        self.gains = node[1][:cut]

    def trace(self, points) -> np.ndarray:
        """Shift vectors of the given points, one row each, counted from the offsets."""
        points = np.asarray(points)
        shifts = np.zeros((len(points), self.voters), dtype=np.int64)
        for i, shift, pointer in self.layers:
            shifts[:, i] = shift[points]
            points = pointer[points]
        return shifts


def buy(inst: ShiftBriberyInstance, budget: int) -> Tuple[ShiftAction, int]:
    """Cheapest shift action maximizing the preferred candidate's score gain
    subject to spending at most ``budget``.

    Among the gain-maximizing actions within budget, the one of minimum
    cost is returned; remaining ties go to the lexicographically smallest
    shift vector.  Returns the action and its score gain.  The sweep is
    guarded like ``solve_two_pass``: ``GuardExceeded`` when
    (n + 1)(min(P, G) + 1) exceeds ``DEFAULT_CELL_GUARD``, whatever the budget.
    """
    _require_scoring(inst)
    zero = np.zeros(inst.num_voters, dtype=np.int64)
    total, rows = _sweep_rows(_price_runs(inst), ShiftTable(inst), zero)
    sweep = _BudgetSweep(rows, min(budget, total))
    last = len(sweep.costs) - 1  # every point is within budget; the last gains most
    return ShiftAction(tuple(sweep.trace([last])[0].tolist())), int(sweep.gains[last])


def _follow_ups(table: ShiftTable, rows: list, firsts, l1s, cap: int, unit: int, width: int):
    """(cost, shifts) of the least l1 + l2 below ``cap`` over the follow-ups
    whose first actions are the distinct rows of ``firsts``, priced ``l1s``
    ascending, the first l1 on ties, or None: l2 is a winning point of the
    frontier of ``rows`` offset at l1's action and cut at cap - l1 - 1.

    All frontiers are built at once, back to front, gain-indexed: at voter
    i the groups are the distinct suffixes firsts[:, i:], and a group's row
    holds, per gain of 0 .. ``width`` - 1 units of ``unit``, the least cost,
    capped at ``cap``, of an action gaining exactly that: the least over the
    group's options k of price(k) plus the next group's row at the gain
    less k's.  ``argmin`` takes the smallest k on equal cost, so a gain
    traces to the lexicographically smallest least-cost action, the
    frontier's tie-break; the frontier points are the gains within the cut
    that cost less than every larger gain.  Levels are built in chunks of
    groups, and points traced and tested, least total first, in blocks of
    at most ``bribery._GATHER_BLOCK`` entries.  2 * cap must fit in int64."""
    n = len(rows)
    order = np.lexsort(firsts.T)  # suffixes firsts[:, i:] that are equal lie together
    firsts = firsts[order]
    fresh = np.ones((len(firsts), n + 1), dtype=bool)  # row j starts a suffix group at voter i
    fresh[1:, n] = False
    np.logical_or.accumulate((firsts[1:] != firsts[:-1])[:, ::-1], axis=1, out=fresh[1:, n - 1 :: -1])
    group = fresh.cumsum(axis=0) - 1
    cost = np.full((1, 2 * width), cap, dtype=np.int64)  # each row at [width:], after cap
    cost[0, width] = 0  # the empty suffix gains 0 at no cost
    levels = []
    for i in reversed(range(n)):
        prices, gains = rows[i]
        heads = np.flatnonzero(fresh[:, i])
        offset, parent = firsts[heads, i], group[heads, i + 1]
        shift = offset[:, None] + np.arange(len(prices) - offset.min())
        valid = shift < len(prices)
        shift = np.minimum(shift, len(prices) - 1)
        price = np.where(valid, np.minimum(prices[shift] - prices[offset, None], cap), cap)
        step = np.minimum(np.where(valid, (gains[shift] - gains[offset, None]) // unit, 0), width)
        choice = np.empty((len(heads), width), dtype=np.min_scalar_type(shift.shape[1]))
        last, cost = cost, np.full((len(heads), 2 * width), cap, dtype=np.int64)
        chunk = max(1, _GATHER_BLOCK // step[0].size // width)
        for lo in range(0, len(heads), chunk):
            part = slice(lo, lo + chunk)
            reads = width + np.arange(width) - step[part, :, None]
            cand = last[parent[part, None, None], reads] + price[part, :, None]
            choice[part] = cand.argmin(axis=1)
            cost[part, width:] = cand.min(axis=1)
        np.minimum(cost, cap, out=cost)
        levels.append((offset, parent, step, choice))
    cost = cost[:, width:]
    later = np.minimum.accumulate(cost[:, ::-1], axis=1)[:, ::-1]
    kept = cost <= (cap - 1 - l1s[order])[:, None]
    kept[:, :-1] &= cost[:, :-1] < later[:, 1:]
    points, gains = kept.nonzero()
    totals = l1s[order[points]] + cost[points, gains]
    ranked = np.lexsort((order[points], totals))  # least total first, then the first l1
    block = max(1, _GATHER_BLOCK // n)
    for lo in range(0, len(ranked), block):
        part = ranked[lo : lo + block]
        shifts = np.empty((len(part), n), dtype=np.int64)
        at, gain = points[part], gains[part]
        for i, (offset, parent, step, choice) in enumerate(reversed(levels)):
            k = choice[at, gain]
            shifts[:, i] = offset[at] + k
            gain = gain - step[at, k]
            at = parent[at]
        won = np.flatnonzero(table.wins(table.rows_after(shifts)))
        if len(won):
            return int(totals[part[won[0]]]), shifts[won[0]]
    return None


def _two_pass(table: ShiftTable, rows: list, start, budget: int, below=None, memo=None):
    """(cost, shifts) of the least (cost, l1) two-pass winner cheaper than
    ``below`` among the actions on top of ``start``, swept on the option
    ``rows``, one (prices, gains) pair per voter indexed by the shift, of
    which voter i's entries from ``start[i]`` on are read: every sweep is
    offset at ``start`` plus its first action.  The winner test runs on
    ``table`` at the shifts returned.  ``budget`` is the total of the
    rows' largest prices rebased at ``start``, and ``below``, at least 1,
    defaults to ``budget`` + 1, which every action is cheaper than.
    Returns None only when the cap cut every winner off, and raises
    ``Infeasible`` when no action wins.

    The inner sweep of l1 is built only if l1 passes the skip test below.
    After l1's action the preferred candidate trails rival c by ``need_c``,
    and c can still lose ``room_c``: its score there minus its score when
    every voter takes its largest shift (``table.top``).  In each vote a
    rival passed by the preferred candidate loses one step of the scoring
    vector, weighted, and the preferred candidate gains that step too, so
    an action gaining g on top of l1 takes at most min(g, room_c) from c,
    and wins only if g + min(g, room_c) >= need_c for every rival.  First
    and inner action together cost at most l1 + the inner budget, so g is
    at most the outer frontier's gain there minus l1's gain; an l1 whose
    bound fails the test holds no winner.

    The call's sweeps share ``memo``, a fresh one by default, so the inner
    sweep of l1, offset at l1's action, builds only the suffixes no earlier
    sweep built at a budget as high (see ``_BudgetSweep``); ``solve_bootstrap``
    passes each guess a copy of its baseline's memo.

    The scan starts as if an answer of cost ``below`` (first lowered to
    ``budget`` + 1) were already found: the outer sweep is built at
    ``below`` - 1, and every inner budget, skip cap and stopping l1 reads
    the best cost so far.  Under the default cap these are ``budget`` and,
    before the first winner, ``budget`` - l1, the price total of the rows
    rebased at l1's action, so every inner sweep holds all its points.  A
    sweep cut at a smaller budget is a prefix of the uncut one (the memo
    rule of ``_BudgetSweep``), so a capped inner sweep holds the uncut one's
    first winner whenever that winner costs less than the cap, and the scan
    finds the least winner below ``below``.  ``solve_bootstrap`` passes the
    cost a guess must beat.

    A scan with its own memo (``memo`` None) whose first winner costs cap
    builds the inner frontiers of the later l1s that the skip test admits
    at cap together (``_follow_ups``) if they number at least n and the
    gain axis is dense (``_DENSE_GAIN_AXIS``), and keeps the least total
    l1 + l2 below cap, the first l1 on ties.  That is the loop's answer: a
    sweep cut below the falling best is a prefix of the one cut below cap;
    the loop keeps the first l1 that reaches the least total, its best
    still above that total there; and the skip test's gain bound grows
    with the cap, so it admits at cap every l1 the loop admits."""
    below = budget + 1 if below is None else min(below, budget + 1)
    batch = memo is None
    memo = {} if memo is None else memo
    outer = _BudgetSweep(rows, below - 1, tuple(start.tolist()), memo)
    firsts = start + outer.trace(np.arange(len(outer.costs)))
    after = table.rows_after(firsts)
    need = after[:, 1:] - after[:, :1]
    room = after[:, 1:] - table.top[1:]
    gains = outer.gains.tolist()
    best = (below, None)
    for f, (l1, gain) in enumerate(zip(outer.costs.tolist(), gains)):
        if l1 >= best[0]:
            break
        g = gains[outer.costs.searchsorted(best[0] - 1, "right") - 1] - gain
        if not (g + np.minimum(g, room[f]) >= need[f]).all():
            continue
        inner = _BudgetSweep(rows, best[0] - l1 - 1, tuple(firsts[f].tolist()), memo)
        shifts = firsts[f] + inner.trace(np.arange(len(inner.costs)))
        won = np.flatnonzero(table.wins(table.rows_after(shifts)))
        if not len(won):
            continue
        w = won[0]
        best = (l1 + int(inner.costs[w]), shifts[w])
        if not batch or best[0] >= 1 << 62:  # the batch sums two costs of at most best[0]
            continue
        batch = False
        cap = best[0]
        top = gains[outer.costs.searchsorted(cap - 1, "right") - 1]
        rest = np.arange(f + 1, outer.costs.searchsorted(cap))
        g = top - outer.gains[rest, None]
        rest = rest[(g + np.minimum(g, room[rest]) >= need[rest]).all(axis=1)]
        unit = int(np.gcd.reduce(table.flat[:, 0])) or 1
        dense = gains[-1] // unit <= _DENSE_GAIN_AXIS * len(gains)
        if dense and len(rest) >= _FOLLOW_UPS_PER_VOTER * len(rows):
            width = (top - gains[rest[0]]) // unit + 1
            found = _follow_ups(table, rows, firsts[rest], outer.costs[rest], cap, unit, width)
            return best if found is None else found
    if best[1] is None and below > budget:
        raise Infeasible("no successful shift action exists")
    return None if best[1] is None else best


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
    option rows rebased at l1's action, reusing the suffix frontiers already
    built in the solve, and is cut at the best sum found so far.  All its
    points are traced back into one matrix of shift vectors and checked in
    one batch against the score-delta table of the original instance; the
    cheapest winner is taken.  An l1 is skipped without an inner frontier
    when even the largest gain its budget allows cannot close every rival's
    lead: a rival passed in a vote loses at most the step the preferred
    candidate gains there, and never more than its score above its score
    at the largest shifts (the skip lemma, proved at ``_two_pass``).  The
    result is identical to the full grid scan.

    A frontier holds at most min(P, G) + 1 points, so the runtime is
    pseudo-polynomial in the smaller of the price total P and the gain
    total G; for Borda or k-approval it is polynomial whatever the prices.
    The guard counts the frontier points of every voter suffix: when
    (n + 1)(min(P, G) + 1) exceeds ``DEFAULT_CELL_GUARD`` (10**8) a
    ``GuardExceeded`` is raised and the caller should switch to
    ``solve_two_pass_scaled``.  The shift table is built, and its score
    and gain bounds checked, before the guard is consulted.
    """
    _require_scoring(inst)
    table = ShiftTable(inst)
    hint = "; use solve_two_pass_scaled instead"
    zero = np.zeros(inst.num_voters, dtype=np.int64)
    budget, rows = _sweep_rows(_price_runs(inst), table, zero, hint)
    cost, shifts = _two_pass(table, rows, zero, budget)
    return cost, ShiftAction(tuple(shifts.tolist()))


def solve_single_pass(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Single greedy budget sweep: the smallest budget whose best buy makes
    the preferred candidate win.

    Every action considered here is also considered by ``solve_two_pass``
    (take l2 = 0), so this never returns a cheaper solution; it carries no
    approximation guarantee of its own and exists for experimental
    comparison.  All frontier points are checked in one batch, and the guard
    is the same (n + 1)(min(P, G) + 1) cell count as in ``solve_two_pass``.
    """
    _require_scoring(inst)
    table = ShiftTable(inst)
    zero = np.zeros(inst.num_voters, dtype=np.int64)
    budget, rows = _sweep_rows(_price_runs(inst), table, zero)
    sweep = _BudgetSweep(rows, budget)
    shifts = sweep.trace(np.arange(len(sweep.costs)))
    won = np.flatnonzero(table.wins(table.rows_after(shifts)))
    if not len(won):
        raise Infeasible("no successful shift action exists")
    w = won[0]
    return int(sweep.costs[w]), ShiftAction(tuple(shifts[w].tolist()))


def _scaled_rounds(runs, table, start, eps, below=None, memo=None):
    """(cost, shifts) of ``solve_two_pass_scaled``, with internal ``eps``,
    for actions on top of ``start``.  Each voter's prices are its int64
    ``runs`` entry p (``bribery._price_runs``) rebased over its start shift
    s, ``p - p[s]``, whose entries below s no sweep reads; its gains are
    ``table``'s row, which every sweep reads at offsets of at least s.  If
    (n + 1)(P + 1) <= ``DEFAULT_EXACT_THRESHOLD``, with P the rebased price
    total, one ``_two_pass`` on these rows runs alone, through ``memo``;
    otherwise every round re-prices them as Python ints, which may leave
    int64, and calls ``_two_pass`` on ``table`` with a fresh memo.  The cost
    is under the rebased prices.  ``below``, at least 1, caps only the exact
    path's scan (see ``_two_pass``), which returns None when no winner costs
    less; the rounds' sweep costs are re-priced, not the cost it bounds, so
    they scan below their own price totals + 1."""
    n = len(runs)
    prices = [p - p[s] if s else p for p, s in zip(runs, start.tolist())]
    total = sum(int(p[-1]) for p in prices)
    if (n + 1) * (total + 1) <= DEFAULT_EXACT_THRESHOLD:
        budget, rows = _sweep_rows(prices, table, start)
        return _two_pass(table, rows, start, budget, below, memo)
    prices = [p.tolist() for p in prices]
    num, den = eps.numerator, eps.denominator
    big = int(2 * (n * n / eps + n)) + 1  # smallest integer strictly above the keep threshold
    top = max(p[-1] for p in prices)
    rhos = [1]  # doubled up to the first value at least the largest price
    while rhos[-1] < top:
        rhos.append(2 * rhos[-1])
    best = None
    for rho in rhos:
        # ceil(price / K), exactly, with K = rho*eps/n for prices at most rho
        scaled = [[-(-q * n * den // (rho * num)) if q <= rho else big for q in p] for p in prices]
        budget, rows = _sweep_rows(scaled, table, start)
        _, shifts = _two_pass(table, rows, start, budget)
        taken = shifts.tolist()
        if all(p[k] < big for p, k in zip(scaled, taken)):
            cost = _check_i64(sum(p[k] for p, k in zip(prices, taken)), "total bribery cost")
            if best is None or cost < best[0]:
                best = (cost, shifts)
    return best


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
    (2 + eps).  Whenever the unscaled sweep is small ((n + 1)(P + 1) at
    most ``DEFAULT_EXACT_THRESHOLD``, 10**6), it runs alone instead of the
    rounds and the answer is that of ``solve_two_pass``, a 2-approximation.
    Every round is guarded like ``solve_two_pass``, with P its re-priced
    total: (n + 1)(min(P, G) + 1) frontier cells at most ``DEFAULT_CELL_GUARD``.
    """
    _require_scoring(inst)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero = np.zeros(inst.num_voters, dtype=np.int64)
    cost, shifts = _scaled_rounds(_price_runs(inst), ShiftTable(inst), zero, eps / 4)
    return cost, ShiftAction(tuple(shifts.tolist()))


def _screen_guesses(table: ShiftTable, prices: tuple, best: int, frontier: int) -> Tuple[list, list]:
    """(single, hopeless), lists over the flat index starts[i] + t of
    ``prices``, the instance's ``_price_table``, whose layout ``table``
    shares: whether the guess (voter i, shift t) wins alone, and whether the
    reach test of ``solve_bootstrap`` rules it out below the cost ``best``,
    with ``frontier`` bounding the preferred candidate's gain there.
    Only guesses with t >= 1, priced below ``best``, that do not win alone
    are tested, all at once: a voter's reach is the count of its prices
    within the cap, less one, and the rows at the reaches one ``rows_after``."""
    values, starts, ends = prices
    alone = table.base + table.flat  # the row after each (voter, shift) alone
    single = table.wins(alone)
    voter = np.arange(len(starts)).repeat(ends - starts)
    cheap = values < best
    guessed = np.flatnonzero((np.arange(len(values)) > starts[voter]) & cheap & ~single)
    caps = (best - 1) - values[guessed]
    reach = np.add.reduceat(values <= caps[:, None], starts, axis=1, dtype=np.int64) - 1
    own = voter[guessed]
    reach[np.arange(len(guessed)), own] = np.add.reduceat(cheap, starts, dtype=np.int64)[own] - 1
    after, low = alone[guessed], table.rows_after(reach)
    g = np.minimum(low[:, :1] - after[:, :1], frontier - table.flat[guessed, :1])
    loss, need = after[:, 1:] - low[:, 1:], after[:, 1:] - after[:, :1]
    hopeless = np.zeros(len(values), dtype=bool)
    hopeless[guessed] = (g + np.minimum(g, loss) < need).any(axis=1)
    return single.tolist(), hopeless.tolist()


def solve_bootstrap(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Guess-and-rescale solver; 2-approximation in polynomial time.

    Some coordinate of an optimal action carries at least a 1/n fraction of
    its cost, and there are only n * m candidate (voter, amount) guesses.
    For every guess the remainder is solved by ``solve_two_pass_scaled``
    with eps = 1/n, started from the guess.  Where that remainder's
    unscaled sweep is admitted it runs alone, at most twice the optimal
    remainder, so the correct guess costs at most twice the optimum either
    way.  The no-guess run (``solve_two_pass`` where admitted) is the
    baseline, and a candidate that already wins yields cost 0 before any
    guard is consulted, a baseline of cost 0 before any guess is screened.
    Returns the cheapest successful combination found.

    The work that is the same for every guess is done once per solve: the
    shift table and price runs, and one winner test of every single shift,
    which settles a guess that wins alone.  An admitted guess (voter i,
    shift t) sweeps the option rows offset at the guess, with voter i's
    prices rebased at t (``_scaled_rounds``).  Where the baseline's sweep
    is admitted, its suffix frontiers seed each guess's memo, a shallow
    copy dropped when the guess ends, so a guess builds only the frontiers
    the baseline did not build at a budget as high (``_BudgetSweep``).

    A guess is kept only if it is strictly cheaper than the best so far, so
    its remainder is sought only below the best cost less the guessed price,
    which is at least 1 since guesses stop at the first price not below the
    best cost: an admitted unscaled sweep is built no further than that and
    a guess that finds nothing there is dropped, with the answer of the loop
    that solves every remainder in full.

    Before the loop, one reach test over every guess with t >= 1 priced
    below the baseline's cost ``best`` that does not win alone rules out
    the guesses that cannot win below ``best`` (``_screen_guesses``).  With
    cap = best - 1 - p_i(t), voter j != i reaches its last shift k with
    p_j(k) <= cap and voter i its last with p_i(k) <= best - 1; no price
    is added to a budget.  S is the row after the guess alone, R the row
    with every voter at its reach, and F the largest gain of the baseline's
    frontier at cost at most best - 1 (the total gain after scaled rounds).
    With g = min(R[0] - S[0], F - (S[0] - base[0])), loss_c = S[c] - R[c]
    and need_c = S[c] - S[0], the guess is hopeless if some rival c has
    g + min(g, loss_c) < need_c.  This is sound: an action on top of the
    guess that costs less than ``best`` in all keeps each voter at or below
    its reach and, with the guess, gains at most F; the preferred
    candidate's score rises with the shift while each rival's falls
    (weighted or not), so the action gains some G <= g over S and c loses
    at most loss_c; in each vote c loses no more than the preferred
    candidate gains (the skip lemma of ``_two_pass``), so if it wins,
    need_c <= G + min(G, loss_c) <= g + min(g, loss_c).
    ``best`` only falls during the loop, so a guess hopeless at the
    baseline's cost stays hopeless and skipping it keeps the answer.
    """
    rule = _require_scoring(inst)
    n = inst.num_voters
    if 0 in winners(scoring_scores(inst.election, rule.vector)):
        return 0, ShiftAction.zero(n)
    eps = Fraction(1, 4 * n)  # internal eps of 1/n
    zero = np.zeros(n, dtype=np.int64)
    table = ShiftTable(inst)
    runs = _price_runs(inst)
    memo = {}
    best = _scaled_rounds(runs, table, zero, eps, None, memo)
    if not best[0]:  # free shifts win: no guess is cheaper
        return 0, ShiftAction(tuple(best[1].tolist()))
    frontier = table.top[0] - table.base[0]
    if memo:  # the unscaled sweep ran: its full frontier tops the offset-0 chain
        node = _EMPTY_SUFFIX
        for _ in range(n):
            node = memo[0, id(node)]
        frontier = node[1][node[0].searchsorted(best[0] - 1, "right") - 1]
    single, hopeless = _screen_guesses(table, _price_table(inst), best[0], int(frontier))
    for i, (p, row) in enumerate(zip([run.tolist() for run in runs], table.starts.tolist())):
        for t in range(1, len(p)):
            if p[t] >= best[0]:
                break  # prices are non-decreasing; nothing cheaper follows
            if hopeless[row + t]:
                continue
            guess = zero.copy()
            guess[i] = t
            if single[row + t]:
                cand = (p[t], guess)
            else:
                below = best[0] - p[t]
                rest = _scaled_rounds(runs, table, guess, eps, below, dict(memo))
                if rest is None:
                    continue
                cand = (p[t] + rest[0], rest[1])
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
