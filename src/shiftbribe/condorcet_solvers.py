"""Shift-bribery solvers for Copeland-alpha and maximin.

Copeland-alpha is handled through microbribery in the irrational-voter
model: voters become antisymmetric preference tables, and instead of shifts
one buys flips of single table entries involving the preferred candidate.
With all finite flip prices restricted to pairs involving the preferred
candidate, optimal microbribery is polynomial (``solve_copeland_micro``),
and translating a shift-bribery instance through it loses at most a factor
m in cost (``solve_copeland_shift``).  Both feed one core a pairwise tally
(of the tables, or of the election) and each rival's sorted flip prices;
the election's positions give each voter's rivals above candidate 0.

Maximin is handled through pairwise-support covering: for every target
score k, the preferred candidate needs a minimum pairwise support against
every rival, which is a set-multicover problem over (voter, shift) moves
solved greedily within a logarithmic factor (``cover_targets_greedy``,
``solve_maximin_shift``).  The per-voter move lists (prices from the
instance's ``bribery.ShiftTable``, rivals above the preferred candidate) are
built once per instance and shared by every k; each greedy run is lazy,
re-evaluating only the voter at the top of its heap, and a k whose per-rival
price floor reaches the cheapest successful action so far is not run at all.

Weighted instances are rejected by all solvers in this module; weighted
microbribery is inapproximable in general and the covering bound is stated
for unit weights.
"""

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bribery import (
    CopelandRule,
    MaximinRule,
    ShiftAction,
    ShiftBriberyInstance,
    ShiftTable,
    _rival_tally,
    is_successful,
    total_cost,
)
from .elections import (
    CopelandAlpha,
    PairwiseTally,
    copeland_scores,
    maximin_scores,
    pairwise_tally,
)
from .errors import IncompatibleRule, Infeasible

_WIN, _TIE, _LOSS = 0, 1, 2  # pairwise outcome for the preferred candidate


@dataclass(frozen=True)
class FlipCostFunction:
    """Prices for flipping one voter's table entries against the preferred
    candidate.

    ``costs`` maps a rival candidate index to the integer price of flipping
    that voter's (preferred, rival) entry; an absent rival means the flip is
    unavailable (infinite price).  Flip prices are symmetric by definition,
    so one orientation is stored.  Flips between two non-preferred
    candidates are never available.
    """

    costs: dict

    def __post_init__(self):
        for c, price in self.costs.items():
            if c == 0:
                raise ValueError("flips must involve a rival, not the preferred candidate")
            if not isinstance(price, int):
                raise ValueError(f"flip price against rival {c} is not an integer: {price!r}")
            if price < 0:
                raise ValueError("flip prices must be non-negative")

    def price(self, rival: int) -> Optional[int]:
        return self.costs.get(rival)


@dataclass(frozen=True)
class MicrobriberyInstance:
    """Preference tables plus per-voter flip prices; candidate 0 is the
    preferred candidate.

    Each table is an antisymmetric m x m matrix with entries +1/-1 off the
    diagonal: entry (j, k) is +1 when the voter prefers candidate j to
    candidate k.  Tables may encode cyclic preferences.
    """

    tables: tuple
    flip_costs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "tables", tuple(tuple(tuple(row) for row in t) for t in self.tables)
        )
        object.__setattr__(self, "flip_costs", tuple(self.flip_costs))
        if not self.tables:
            raise ValueError("need at least one voter")
        m = len(self.tables[0])
        if m < 1:
            raise ValueError("need at least one candidate")
        for i, table in enumerate(self.tables):
            if len(table) != m or any(len(row) != m for row in table):
                raise ValueError(f"voter {i}: table is not {m} x {m}")
            for j in range(m):
                if table[j][j] != 0:
                    raise ValueError(f"voter {i}: diagonal entries must be 0")
                for k in range(j + 1, m):
                    if table[j][k] not in (-1, 1) or table[j][k] != -table[k][j]:
                        raise ValueError(f"voter {i}: table is not antisymmetric +-1")
        if len(self.flip_costs) != len(self.tables):
            raise ValueError("need one flip cost function per voter")
        for i, cf in enumerate(self.flip_costs):
            for c in cf.costs:
                if c not in range(1, m):
                    raise ValueError(f"voter {i}: flip price for rival {c!r}, not in 1..{m - 1}")

    @property
    def num_voters(self) -> int:
        return len(self.tables)

    @property
    def num_candidates(self) -> int:
        return len(self.tables[0])


@dataclass(frozen=True)
class FlipSet:
    """Per-voter sets of rivals whose pairwise entry against the preferred
    candidate gets flipped."""

    flips: tuple

    def __post_init__(self):
        object.__setattr__(self, "flips", tuple(frozenset(s) for s in self.flips))
        for i, s in enumerate(self.flips):
            if 0 in s:
                raise ValueError(f"voter {i}: flips must name rivals only")

    def __len__(self) -> int:
        return len(self.flips)

    def __getitem__(self, i: int):
        return self.flips[i]


def flip_set_cost(m_inst: MicrobriberyInstance, flips: FlipSet) -> int:
    """Total price of a flip set."""
    total = 0
    for i, s in enumerate(flips.flips):
        for c in s:
            p = m_inst.flip_costs[i].price(c)
            if p is None:
                raise ValueError(f"voter {i}: flip against rival {c} is unavailable")
            total += p
    return total


def _micro_tally(m_inst: MicrobriberyInstance) -> PairwiseTally:
    """The tables' pairwise tally: (n + sum of the +-1 entries) / 2 voters
    prefer a to b."""
    n, m = m_inst.num_voters, m_inst.num_candidates
    rows = (n + np.array(m_inst.tables).sum(axis=0)) // 2 * (1 - np.eye(m, dtype=np.int64))
    return PairwiseTally(rows.tolist(), n)


def _outcome_options(against: list, for_pref: list, margin: int) -> dict:
    """Outcome (win, tie, loss in that order) -> (cost, flips) of the
    cheapest (price, voter) flips forcing it, from the sorted flips of the
    voters preferring the rival (``against``) and candidate 0 (``for_pref``).
    A flip moves the margin by exactly 2, so a tie needs an even margin."""
    wanted = {
        _WIN: (against, margin // 2 + 1 if margin >= 0 else 0),
        _TIE: (against, margin // 2) if margin >= 0 else (for_pref, -margin // 2),
        _LOSS: (for_pref, -margin // 2 + 1 if margin <= 0 else 0),
    }
    return {
        outcome: (sum(p for p, _ in pool[:count]), pool[:count])
        for outcome, (pool, count) in wanted.items()
        if count <= len(pool) and (outcome != _TIE or margin % 2 == 0)
    }


def _rival_dp(options: list, allowed) -> dict:
    """(wins, ties) of candidate 0 -> (cost, outcome per rival) of the
    cheapest outcomes, taking only those ``allowed(c, outcome)``; of equally
    cheap choices the first found is kept."""
    dp: Dict[Tuple[int, int], Tuple[int, tuple]] = {(0, 0): (0, ())}
    for c in range(1, len(options)):
        steps = [(o, cost, o == _WIN, o == _TIE) for o, (cost, _) in options[c].items()]
        steps = [step for step in steps if allowed(c, step[0])]
        if not steps:
            return {}
        nxt: Dict[Tuple[int, int], Tuple[int, tuple]] = {}
        for (w, t), (cost, chosen) in dp.items():
            for outcome, ocost, won, tied in steps:
                key = (w + won, t + tied)
                old = nxt.get(key)
                if old is None or cost + ocost < old[0]:
                    nxt[key] = (cost + ocost, chosen + (outcome,))
        dp = nxt
    return dp


def _solve_copeland(
    tally: PairwiseTally, pools: list, alpha: CopelandAlpha
) -> Tuple[int, Dict[int, set]]:
    """Cheapest flips making candidate 0 a Copeland-alpha winner, as (cost,
    voter -> flipped rivals), from a pairwise tally and per rival the
    sorted (price, voter) flips (against, for-preferred).  A rival's margin
    is the weight preferring it minus the weight preferring candidate 0;
    its base score comes from rival-vs-rival pairs, which no flip changes.

    Tries every pattern (i wins, j ties) for candidate 0 whose scaled score
    k = i*den + j*num lies between its current score and m - 1 (a lower one
    is dominated: dropping the flips that downgrade candidate 0's own pairs
    keeps the bribery successful and no more expensive).  A dynamic program
    over the rivals picks each one's outcome so that the counts match and
    no rival scores above k; it depends on k only through the outcomes it
    allows, so one program serves all k between two thresholds base[c] +
    gain.  The first pattern with the strictly lowest cost wins.
    """
    n_matrix = tally.n_matrix
    m = len(n_matrix)
    margins = [n_matrix[c][0] - n_matrix[0][c] for c in range(m)]
    base = [0] + copeland_scores(_rival_tally(tally), alpha)
    den, num = alpha.denominator, alpha.numerator
    gain = {_WIN: 0, _TIE: num, _LOSS: den}  # the rival's score gain
    current = sum(den if d < 0 else num if d == 0 else 0 for d in margins[1:])
    options = [None] + [_outcome_options(*pools[c], margins[c]) for c in range(1, m)]
    thresholds = sorted(base[c] + gain[o] for c in range(1, m) for o in options[c])
    programs: Dict[int, dict] = {}
    best: Optional[Tuple[int, tuple]] = None
    for wins in range(m):
        for ties in range(m - wins):
            k = wins * den + ties * num
            if not current <= k <= (m - 1) * den:
                continue
            cut = bisect.bisect_right(thresholds, k)
            if cut not in programs:
                programs[cut] = _rival_dp(options, lambda c, o: base[c] + gain[o] <= k)
            hit = programs[cut].get((wins, ties))
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
    if best is None:
        raise Infeasible("no flip set makes the preferred candidate a winner")
    flips: Dict[int, set] = {}
    for c, outcome in enumerate(best[1], start=1):
        for _, voter in options[c][outcome][1]:
            flips.setdefault(voter, set()).add(c)
    return best[0], flips


def solve_copeland_micro(
    m_inst: MicrobriberyInstance, alpha: CopelandAlpha
) -> Tuple[int, FlipSet]:
    """Optimal microbribery making candidate 0 a Copeland-alpha winner,
    when only flips involving candidate 0 are available: the core
    ``_solve_copeland`` on the tables' tally and flip prices."""
    pools = [None]
    for c in range(1, m_inst.num_candidates):
        sides = ([], [])  # voters preferring rival c, voters preferring candidate 0
        for i, table in enumerate(m_inst.tables):
            p = m_inst.flip_costs[i].price(c)
            if p is not None:
                sides[table[c][0] == -1].append((p, i))
        pools.append((sorted(sides[0]), sorted(sides[1])))
    cost, flips = _solve_copeland(_micro_tally(m_inst), pools, alpha)
    return cost, FlipSet(tuple(flips.get(i, ()) for i in range(m_inst.num_voters)))


def _candidates_above(inst: ShiftBriberyInstance) -> list:
    """Per voter, the rivals ranked above the preferred candidate, nearest first."""
    e = inst.election
    return [o[p - 1 :: -1] if p else () for o, p in zip(e.voters, e.positions[:, 0].tolist())]


def shift_to_micro(inst: ShiftBriberyInstance) -> MicrobriberyInstance:
    """Translate a shift-bribery instance into microbribery.

    Orders become preference tables: entry (a, b) is the sign of b's
    position minus a's.  For each voter, flipping the entry against the
    d-th candidate above the preferred one (nearest first) is priced like
    shifting up by d positions; all other flips are unavailable.
    """
    pos = inst.election.positions
    tables = np.sign(pos[:, None, :] - pos[:, :, None]).tolist()
    costs = tuple(
        FlipCostFunction({rival: p for rival, p in zip(above, cf.prices) if p is not None})
        for above, cf in zip(_candidates_above(inst), inst.costs)
    )
    return MicrobriberyInstance(tables, costs)


def micro_to_shift(inst: ShiftBriberyInstance, flips: FlipSet) -> ShiftAction:
    """Smallest shift action dominating a flip set from ``shift_to_micro``:
    shift each voter far enough to pass every flipped rival."""
    if len(flips) != inst.num_voters:
        raise ValueError("flip set length must equal the number of voters")
    shifts = []
    for i, above in enumerate(_candidates_above(inst)):
        depth = {c: d for d, c in enumerate(above, start=1)} if flips[i] else {}
        for c in flips[i]:
            if c not in depth:
                raise ValueError(
                    f"voter {i}: flip against rival {c}, who is not above the "
                    "preferred candidate"
                )
        shifts.append(max((depth[c] for c in flips[i]), default=0))
    return ShiftAction(tuple(shifts))


def _require_unweighted(inst: ShiftBriberyInstance, what: str):
    if inst.election.weights is not None and any(w != 1 for w in inst.election.weights):
        raise IncompatibleRule(f"{what} supports unweighted voters only")


def solve_copeland_shift(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """m-approximation for Copeland-alpha shift bribery.

    Reduces to microbribery with flips priced by shift distances, solves it
    optimally, and shifts each voter up to the deepest flipped rival.  The
    shift action costs no more than the flip set, which costs no more than
    the flip set induced by an optimal shift action, which costs at most m
    times that action; hence the factor m.

    The tables are never built: the core (``_solve_copeland``) reads one
    pairwise tally and the flip prices.  The action is checked with
    ``is_successful``.
    """
    if not isinstance(inst.rule, CopelandRule):
        raise IncompatibleRule("solve_copeland_shift requires the Copeland rule")
    _require_unweighted(inst, "solve_copeland_shift")
    n, alpha = inst.num_voters, inst.rule.alpha
    against: List[list] = [[] for _ in range(inst.num_candidates)]
    for i, (above, cf) in enumerate(zip(_candidates_above(inst), inst.costs)):
        for rival, p in zip(above, cf.prices[: cf.max_reachable]):
            against[rival].append((p, i))
    pools = [(sorted(flips), []) for flips in against]
    _, flips = _solve_copeland(pairwise_tally(inst.election), pools, alpha)
    action = micro_to_shift(inst, FlipSet(tuple(flips.get(i, ()) for i in range(n))))
    if not is_successful(inst, action):
        raise AssertionError("microbribery reduction produced an unsuccessful action")
    return total_cost(inst, action), action


def _best_move(prices: list, above: list, shift: int, deficits: list, voter: int, scale: int):
    """The voter's best move from ``shift`` as (key, voter, amount), or None
    if no move removes any deficit.

    ``prices[t]`` is the price of shifting by t, and shifting on to t + 1
    passes ``above[t]``.  The key is price * scale / reduction, the price
    per unit of deficit removed; it is an exact integer because ``scale``
    is a multiple of every possible reduction, so keys order like the
    cross-multiplied ratios, and ties go to the smaller voter, then the
    smaller amount.
    """
    paid = prices[shift]
    best = None
    reduction = 0
    for a in range(1, len(prices) - shift):
        if deficits[above[shift + a - 1]] > 0:
            reduction += 1
        if reduction == 0:
            continue
        key = (prices[shift + a] - paid) * scale // reduction
        if best is None or key < best[0]:
            best = (key, voter, a)
    return best


def _cover(prices: list, above: list, deficits: list) -> list:
    """Greedy weighted set-multicover of ``deficits`` (per candidate, entry 0
    unused), which it uses up; returns the per-voter shifts.

    Lazy greedy (Minoux): the heap holds one move per voter, keyed as that
    move was when last evaluated.  Deficits only shrink, so a voter's best
    move only gets worse while its shift stays put, and a stale key is a
    lower bound on the voter's current one.  The popped voter is evaluated
    again; its move is the best of all moves if it still orders before the
    new top, else it goes back into the heap.  The picks are those of the
    plain greedy that evaluates every voter in every round.
    """
    scale = math.lcm(*range(1, len(deficits)))  # a move passes at most m - 1 rivals
    shifts = [0] * len(prices)
    left = sum(d > 0 for d in deficits)
    heap = []
    for i in range(len(prices)):
        move = _best_move(prices[i], above[i], 0, deficits, i, scale)
        if move is not None:
            heap.append(move)
    heapq.heapify(heap)
    while left:
        if not heap:
            raise Infeasible("targets cannot be met with the purchasable shifts")
        i = heapq.heappop(heap)[1]
        move = _best_move(prices[i], above[i], shifts[i], deficits, i, scale)
        if move is None:
            continue
        if heap and heap[0] < move:
            heapq.heappush(heap, move)
            continue
        s, a = shifts[i], move[2]
        for rival in above[i][s : s + a]:
            if deficits[rival] > 0:
                deficits[rival] -= 1
                left -= deficits[rival] == 0
        shifts[i] = s + a
        move = _best_move(prices[i], above[i], s + a, deficits, i, scale)
        if move is not None:
            heapq.heappush(heap, move)
    return shifts


def _move_lists(inst: ShiftBriberyInstance, table: ShiftTable):
    """Per voter: the prices over shifts 0..max_reachable, and the rivals
    above the preferred candidate, nearest first."""
    return [p.tolist() for p in table.prices], _candidates_above(inst)


def _pass_floors(prices: list, above: list, m: int) -> list:
    """Per rival c, ``floors[c][d]`` <= the price of passing c in d voters: the
    sum of the d cheapest ``prices[i][depth of c]`` over voters that can."""
    passing: List[list] = [[] for _ in range(m)]
    for p, a in zip(prices, above):
        for t in range(1, len(p)):
            passing[a[t - 1]].append(p[t])
    return [list(itertools.accumulate(sorted(ps), initial=0)) for ps in passing]


def cover_targets_greedy(
    inst: ShiftBriberyInstance, targets: Sequence
) -> ShiftAction:
    """Cheap shift action raising pairwise support against every rival.

    Given per-rival demands ``targets[c - 1]``, finds an action after which
    the preferred candidate is preferred to rival c by at least
    ``min(current_support + targets[c - 1], n)`` voters.  Greedy weighted
    set-multicover: repeatedly buy the (voter, extra shift) move minimizing
    price per unit of remaining deficit it removes (passing a rival with
    remaining deficit removes one unit); ties prefer the smaller voter
    index, then the smaller shift.  The cost is within the classical
    harmonic-number factor of the cheapest action meeting the demands.
    """
    _require_unweighted(inst, "cover_targets_greedy")
    n, m = inst.num_voters, inst.num_candidates
    if len(targets) != m - 1:
        raise ValueError("need one target per rival")
    if any(not isinstance(k, int) or k < 0 for k in targets):
        raise ValueError(f"targets must be non-negative integers: {tuple(targets)!r}")
    table = ShiftTable(inst, pairwise=True)
    support = table.base.tolist()
    deficits = [0] + [
        max(0, min(support[c] + targets[c - 1], n) - support[c]) for c in range(1, m)
    ]
    return ShiftAction(tuple(_cover(*_move_lists(inst, table), deficits)))


def solve_maximin_shift(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Logarithmic-factor approximation for maximin shift bribery.

    For every target score k between the preferred candidate's current
    maximin score and n, the candidate needs pairwise support of at least k
    against every rival, and at least n - k against every rival currently
    scoring above k (which caps that rival's score at k).  Each k yields a
    covering problem solved by the greedy of ``cover_targets_greedy``, on
    per-voter move lists built once from the instance's ``ShiftTable``.  A
    k runs only if every rival's price floor (``_pass_floors``) at its
    deficit exists and lies below the cheapest successful cost so far, and
    its action gets the winner test only if cheaper still; so the first
    cheapest successful action is returned, as if every k ran.
    """
    if not isinstance(inst.rule, MaximinRule):
        raise IncompatibleRule("solve_maximin_shift requires the maximin rule")
    _require_unweighted(inst, "solve_maximin_shift")
    n, m = inst.num_voters, inst.num_candidates
    table = ShiftTable(inst)
    prices, above = _move_lists(inst, table)
    floors = _pass_floors(prices, above, m)
    scores = maximin_scores(table.tally)
    support = table.tally.n_matrix[0]
    best: Tuple[float, Optional[list]] = (math.inf, None)
    for k in range(scores[0], n + 1):
        deficits = [0] + [
            max(0, (max(k, n - k) if scores[c] > k else k) - support[c]) for c in range(1, m)
        ]
        if max(f[d] if d < len(f) else math.inf for d, f in zip(deficits, floors)) >= best[0]:
            continue
        shifts = _cover(prices, above, deficits)
        cost = sum(p[t] for p, t in zip(prices, shifts))
        if cost < best[0] and table.wins(table.rows_after(np.array([shifts], dtype=np.int64)))[0]:
            best = (cost, shifts)
    if best[1] is None:
        raise Infeasible("no successful shift action exists")
    return best[0], ShiftAction(tuple(best[1]))
