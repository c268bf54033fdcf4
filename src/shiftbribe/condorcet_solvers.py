"""Shift-bribery solvers for Copeland-alpha and maximin.

Copeland-alpha is handled through microbribery in the irrational-voter
model: voters become antisymmetric preference tables, and instead of shifts
one buys flips of single table entries involving the preferred candidate.
With all finite flip prices restricted to pairs involving the preferred
candidate, optimal microbribery is polynomial (``solve_copeland_micro``),
and translating a shift-bribery instance through it loses at most a factor
m in cost (``solve_copeland_shift``).  Both feed one core a pairwise tally
(of the tables, or of the election) and each rival's flip pools, their
prices and voters in (price, voter) order; for the election these are the
shifts passing the rival, all sorted in one array (``_passing``) read from
the instance's price array (``bribery._price_table``).  The shift solver
turns the core's flips into shifts with the scatter-max that
``micro_to_shift`` uses (``_deepest_shifts``) and prices them with one
gather of that array.

Maximin is handled through pairwise-support covering: for every target
score k, the preferred candidate needs a minimum pairwise support against
every rival, which is a set-multicover problem over (voter, shift) moves
solved greedily within a logarithmic factor (``cover_targets_greedy``,
``solve_maximin_shift``).  The per-voter move lists (prices, each voter's
run of the price array, and the rivals above the preferred candidate) are
built once per solve and shared by every k; each greedy run is lazy,
re-evaluating only the voter at the top of its heap.  The k are run
cheapest per-rival price floor (from ``_passing``) first, and a k whose
floor reaches the cheapest successful action so far is not run at all.
Both shift solvers check their action on one pairwise row (``_wins_after``).

Weighted instances are rejected by all solvers in this module; weighted
microbribery is inapproximable in general and the covering bound is stated
for unit weights.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .bribery import (
    CopelandRule,
    MaximinRule,
    ShiftAction,
    ShiftBriberyInstance,
    _checked_price_runs,
    _pairwise_wins,
    _price_table,
    _rival_tally,
)
from .elections import (
    CopelandAlpha,
    PairwiseTally,
    _check_i64,
    _shifted,
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
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"flip price key is not an integer rival: {c!r}")
            if c == 0:
                raise ValueError("flips must involve a rival, not the preferred candidate")
            if isinstance(price, bool) or not isinstance(price, int):
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


def _outcome_options(against: tuple, for_pref: tuple, margin: int) -> dict:
    """Outcome (win, tie, loss in that order) -> (cost, voters) of the
    cheapest flips forcing it, from the flips of the voters preferring the
    rival (``against``) and candidate 0 (``for_pref``), each a pool of
    prices and voters in (price, voter) order.  A flip moves the margin by
    exactly 2, so a tie needs an even margin."""
    wanted = {
        _WIN: (against, margin // 2 + 1 if margin >= 0 else 0),
        _TIE: (against, margin // 2) if margin >= 0 else (for_pref, -margin // 2),
        _LOSS: (for_pref, -margin // 2 + 1 if margin <= 0 else 0),
    }
    return {
        outcome: (sum(prices[:count]), voters[:count])
        for outcome, ((prices, voters), count) in wanted.items()
        if count <= len(prices) and (outcome != _TIE or margin % 2 == 0)
    }


def _rival_dp(steps: list, window: Tuple[int, int], den: int, num: int) -> dict:
    """(wins, ties) of candidate 0 -> (cost, outcome per rival) of the
    cheapest outcomes, one per rival from its ``steps`` (outcome, cost, won,
    tied, score gain den*won + num*tied), for the patterns whose scaled
    score w*den + t*num lies in ``window`` = [low, high]; of equally cheap
    choices the first found is kept.  A state links to its predecessor's
    link and its last outcome, and only the final states' links are
    unrolled into outcome tuples.

    A state is dropped as soon as its score is above high, or so low that
    it stays below low even if every remaining rival adds den.  No step
    lowers the score and none adds more than den (num <= den), so every
    successor of a dropped state is dropped too, and every predecessor of
    a kept state is kept.  Hence, by induction over the rivals, the kept
    states of each layer are those of the full program over all states,
    in the same insertion order: a kept state is reached from the same
    predecessors, in the same order, at the same costs, so it gets the same
    entry, its first-found tie-break included.  The final layer is the full
    program's restricted to the window.
    """
    low, high = window
    dp: Dict[Tuple[int, int], Tuple[int, tuple]] = {(0, 0): (0, ())}
    rest = len(steps)
    for rival_steps in steps:
        rest -= 1
        floor = low - rest * den
        nxt: Dict[Tuple[int, int], Tuple[int, tuple]] = {}
        for (w, t), (cost, link) in dp.items():
            score = w * den + t * num
            for outcome, ocost, won, tied, add in rival_steps:
                if not floor <= score + add <= high:
                    continue
                key = (w + won, t + tied)
                old = nxt.get(key)
                if old is None or cost + ocost < old[0]:
                    nxt[key] = (cost + ocost, (link, outcome))
        dp = nxt
    for key, (cost, link) in dp.items():
        chosen = []
        while link:
            link, outcome = link
            chosen.append(outcome)
        dp[key] = (cost, tuple(reversed(chosen)))
    return dp


def _solve_copeland(
    tally: PairwiseTally, pools: list, alpha: CopelandAlpha, base: Optional[list] = None
) -> Tuple[int, Dict[int, set]]:
    """Cheapest flips making candidate 0 a Copeland-alpha winner, as (cost,
    voter -> flipped rivals), from a pairwise tally and per rival two pools
    of flips (against, for-preferred), each its prices and voters in
    (price, voter) order.  A rival's margin is the weight preferring it
    minus the weight preferring candidate 0; its base score comes from
    rival-vs-rival pairs, which no flip changes: ``base``, the rivals'
    ``copeland_scores`` of ``_rival_tally(tally)``, computed here unless
    given.

    Candidate 0 needs some pattern (i wins, j ties) whose scaled score
    k = i*den + j*num lies between its current score and (m - 1) * den (a
    lower one is dominated: dropping the flips that downgrade candidate 0's
    own pairs keeps the bribery successful and no more expensive), with no
    rival scoring above k.  A rival's outcomes allowed at k change only at
    the thresholds base[c] + gain, so the cuts of the sorted thresholds
    split the range of k into windows of equal allowed outcomes.  Each
    window where every rival has an allowed outcome, that is each window
    whose top reaches every rival's least threshold, runs one dynamic
    program over the rivals (``_rival_dp``), and the answer is the cheapest
    state of all windows, ties broken by (wins, ties).  That is the pattern
    that a scan of every pattern in (wins, ties) order picks when it keeps
    the first strictly cheapest one: every pattern's score lies in exactly
    one window, a window's program holds exactly the patterns of that
    window, each at its cheapest outcomes, and the scan's first strictly
    cheapest pattern is the least (cost, wins, ties).
    """
    n_matrix = tally.n_matrix
    m = len(n_matrix)
    margins = [n_matrix[c][0] - n_matrix[0][c] for c in range(m)]
    base = [0] + (copeland_scores(_rival_tally(tally), alpha) if base is None else base)
    den, num = alpha.denominator, alpha.numerator
    gain = {_WIN: 0, _TIE: num, _LOSS: den}  # the rival's score gain
    current = sum(den if d < 0 else num if d == 0 else 0 for d in margins[1:])
    top = (m - 1) * den
    options = [None] + [_outcome_options(*pools[c], margins[c]) for c in range(1, m)]
    score_gain = {_WIN: den, _TIE: num, _LOSS: 0}  # candidate 0's score gain
    steps = [
        [(o, cost, o == _WIN, o == _TIE, score_gain[o]) for o, (cost, _) in options[c].items()]
        for c in range(1, m)
    ]
    edges = [current, *sorted(base[c] + gain[o] for c in range(1, m) for o in options[c]), top + 1]
    floor = max(
        (min((base[c] + gain[o] for o in options[c]), default=top + 1) for c in range(1, m)),
        default=current,
    )  # the least high at which every rival has an allowed outcome
    states = []
    for start, end in zip(edges, edges[1:]):
        low, high = max(current, start), min(top, end - 1)
        if low > high or high < floor:
            continue
        allowed = [
            [step for step in rival_steps if base[c] + gain[step[0]] <= high]
            for c, rival_steps in enumerate(steps, start=1)
        ]
        program = _rival_dp(allowed, (low, high), den, num)
        states += [(cost, w, t, chosen) for (w, t), (cost, chosen) in program.items()]
    if not states:
        raise Infeasible("no flip set makes the preferred candidate a winner")
    cost, _, _, chosen = min(states)
    flips: Dict[int, set] = {}
    for c, outcome in enumerate(chosen, start=1):
        for voter in options[c][outcome][1]:
            flips.setdefault(voter, set()).add(c)
    return cost, flips


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
        pools.append(tuple(([p for p, _ in s], [i for _, i in s]) for s in map(sorted, sides)))
    cost, flips = _solve_copeland(_micro_tally(m_inst), pools, alpha)
    return cost, FlipSet(tuple(flips.get(i, ()) for i in range(m_inst.num_voters)))


def _candidates_above(inst: ShiftBriberyInstance) -> list:
    """Per voter, the rivals ranked above the preferred candidate, nearest first."""
    orders, caps = inst.election.orders.tolist(), inst.election.positions[:, 0].tolist()
    return [o[p - 1 :: -1] if p else [] for o, p in zip(orders, caps)]


def _passing(inst: ShiftBriberyInstance) -> list:
    """Per candidate c (an empty pool for c = 0), the prices and the voters
    of shifting each voter that can just far enough to pass c, as two lists
    in (price, voter) order, read from the instance's ``_price_table``.

    Shifting voter i by t >= 1 passes the candidate t places above the
    preferred one, at price ``values[starts[i] + t]``.  All moves are
    sorted at once by price, then by rival in the narrowest type that holds
    it; both sorts are stable and the moves come in voter order, so equal
    prices keep the smaller voter first."""
    values, starts, ends = _price_table(inst)
    e = inst.election
    n, m = e.orders.shape
    voter = np.repeat(np.arange(n), ends - starts - 1)  # one move per shift t >= 1
    index = np.arange(1, len(voter) + 1) + voter  # voter i's shift t is at starts[i] + t
    rival = e.orders[voter, e.positions[voter, 0] - (index - starts[voter])]
    price = values[index]
    order = price.argsort(kind="stable")
    order = order[rival[order].astype(np.min_scalar_type(m)).argsort(kind="stable")]
    cuts = np.bincount(rival, minlength=m).cumsum().tolist()
    price, voter = price[order].tolist(), voter[order].tolist()
    return [([], []), *((price[a:b], voter[a:b]) for a, b in zip(cuts, cuts[1:]))]


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


def _deepest_shifts(positions: np.ndarray, flips) -> np.ndarray:
    """Per voter, the shift up to the highest of its flipped rivals (0 for
    a voter without flips), from (voter, rivals above the preferred
    candidate) pairs ``flips``: one scatter-max of every flip's depth, read
    from ``positions``."""
    pairs = np.array([(i, c) for i, rivals in flips for c in rivals], np.int64).reshape(-1, 2)
    voter, rival = pairs.T
    shifts = np.zeros(len(positions), np.int64)
    np.maximum.at(shifts, voter, positions[voter, 0] - positions[voter, rival])
    return shifts


def micro_to_shift(inst: ShiftBriberyInstance, flips: FlipSet) -> ShiftAction:
    """Smallest shift action dominating a flip set from ``shift_to_micro``:
    shift each voter up to the position of its highest flipped rival."""
    if len(flips) != inst.num_voters:
        raise ValueError("flip set length must equal the number of voters")
    positions, m = inst.election.positions, inst.num_candidates
    for i, rivals in enumerate(flips.flips):
        if not rivals:
            continue
        row = positions[i].tolist()
        for c in rivals:
            if c not in range(m) or row[c] >= row[0]:
                raise ValueError(
                    f"voter {i}: flip against rival {c}, who is not above the "
                    "preferred candidate"
                )
    return ShiftAction(tuple(_deepest_shifts(positions, enumerate(flips.flips)).tolist()))


def _require_unweighted(inst: ShiftBriberyInstance, what: str):
    if inst.election.weights is not None and any(w != 1 for w in inst.election.weights):
        raise IncompatibleRule(f"{what} supports unweighted voters only")


def _wins_after(inst: ShiftBriberyInstance, tally: PairwiseTally, wins, shifts) -> bool:
    """Whether the preferred candidate wins after ``shifts`` in an unweighted
    instance of pairwise ``tally``: ``wins`` (its ``_pairwise_wins``, built
    once per solve) on one row, the tally's preferred-candidate row plus,
    per rival, the voters whose shift passes it."""
    positions = inst.election.positions
    shifts = np.minimum(np.array(shifts, dtype=np.int64), positions[:, 0])
    passed = (_shifted(positions, shifts) > positions).sum(axis=0)
    return bool(wins(np.array([tally.n_matrix[0]]) + passed)[0])


def solve_copeland_shift(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """m-approximation for Copeland-alpha shift bribery.

    Reduces to microbribery with flips priced by shift distances, solves it
    optimally, and shifts each voter up to the deepest flipped rival.  The
    shift action costs no more than the flip set, which costs no more than
    the flip set induced by an optimal shift action, which costs at most m
    times that action; hence the factor m.

    The tables are never built: the core (``_solve_copeland``) reads one
    pairwise tally and the flip prices (``_passing``), the flips become
    shifts as in ``micro_to_shift`` (``_deepest_shifts``), and the action
    is checked on that tally (``_wins_after``) and priced with one gather
    of the instance's ``_price_table``, summed as Python ints.  The rivals'
    fixed scores are computed once, for the core and the check.
    """
    if not isinstance(inst.rule, CopelandRule):
        raise IncompatibleRule("solve_copeland_shift requires the Copeland rule")
    _require_unweighted(inst, "solve_copeland_shift")
    alpha = inst.rule.alpha
    values, starts, _ = _price_table(inst)
    pools = [(ps, ([], [])) for ps in _passing(inst)]
    tally = pairwise_tally(inst.election)
    base = copeland_scores(_rival_tally(tally), alpha)
    _, flips = _solve_copeland(tally, pools, alpha, base=base)
    shifts = _deepest_shifts(inst.election.positions, flips.items())
    if not _wins_after(inst, tally, _pairwise_wins(tally, inst.rule, base), shifts):
        raise AssertionError("microbribery reduction produced an unsuccessful action")
    cost = sum(values[starts + shifts].tolist())
    return _check_i64(cost, "total bribery cost"), ShiftAction(tuple(shifts.tolist()))


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


def _check_targets(targets: Sequence, m: int):
    """Refuse anything but one non-negative integer, not a bool, per rival."""
    if len(targets) != m - 1:
        raise ValueError("need one target per rival")
    if any(isinstance(k, bool) or not isinstance(k, int) or k < 0 for k in targets):
        raise ValueError(f"targets must be non-negative integers: {tuple(targets)!r}")


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
    _check_targets(targets, m)
    support = pairwise_tally(inst.election).n_matrix[0]
    deficits = [0] + [
        max(0, min(support[c] + targets[c - 1], n) - support[c]) for c in range(1, m)
    ]
    prices = [run.tolist() for run in _checked_price_runs(inst)]
    return ShiftAction(tuple(_cover(prices, _candidates_above(inst), deficits)))


def solve_maximin_shift(inst: ShiftBriberyInstance) -> Tuple[int, ShiftAction]:
    """Logarithmic-factor approximation for maximin shift bribery.

    For every target score k between the preferred candidate's current
    maximin score and n, the candidate needs pairwise support of at least k
    against every rival, and at least n - k against every rival currently
    scoring above k (which caps that rival's score at k).  Each k yields a
    covering problem solved by the greedy of ``cover_targets_greedy``, on
    per-voter move lists built once.  The answer is the least (cost, k)
    among the successful greedy actions: the first cheapest one in k order.

    One (targets x candidates) table holds every k's deficits, and each k's
    price floor is the largest over the rivals of the d cheapest prices of
    passing c in d voters (``_passing``), which bounds any action meeting
    the deficits and so the greedy's cost; a k asking some rival to be
    passed by more voters than can pass it is dropped (the greedy would
    find no action).  The k are covered in ascending (floor, k) order,
    stopping at the first k whose (floor, k) is not below the best (cost,
    k) so far; an action is tested (``_wins_after``) only if its (cost, k)
    is below the best.  The best only falls, so an unvisited k has (cost,
    k) >= (floor, k) >= the best, and could not have been the answer; each
    k's action is the same whichever order the k are covered in.
    """
    if not isinstance(inst.rule, MaximinRule):
        raise IncompatibleRule("solve_maximin_shift requires the maximin rule")
    _require_unweighted(inst, "solve_maximin_shift")
    n, m = inst.num_voters, inst.num_candidates
    tally = pairwise_tally(inst.election)
    wins = _pairwise_wins(tally, inst.rule)
    prices, above = [run.tolist() for run in _checked_price_runs(inst)], _candidates_above(inst)
    pools = [ps for ps, _ in _passing(inst)]
    counts = np.array([len(ps) for ps in pools])
    prefix = np.zeros((m, counts.max() + 1), np.int64)  # fits: the prices were checked
    for c, ps in enumerate(pools):
        prefix[c, 1 : len(ps) + 1] = list(itertools.accumulate(ps))
    scores = np.array(maximin_scores(tally))
    ks = np.arange(scores[0], n + 1)[:, None]  # row j is the target k = scores[0] + j
    need = np.where(scores > ks, np.maximum(ks, n - ks), ks)
    deficits = np.maximum(need - tally.n_matrix[0], 0)
    deficits[:, 0] = 0  # unused by _cover; with no rival (m = 1) every floor is 0
    floors = prefix[np.arange(m), np.minimum(deficits, counts)].max(axis=1)
    kept = np.flatnonzero((deficits <= counts).all(axis=1))
    order = kept[np.argsort(floors[kept], kind="stable")]  # stable: ties in k order
    best: Tuple[float, int, Optional[list]] = (math.inf, 0, None)  # (cost, row, shifts)
    for j, floor in zip(order.tolist(), floors[order].tolist()):
        if (floor, j) >= best[:2]:
            break
        shifts = _cover(prices, above, deficits[j].tolist())
        cost = sum(p[t] for p, t in zip(prices, shifts))
        if (cost, j) < best[:2] and _wins_after(inst, tally, wins, shifts):
            best = (cost, j, shifts)
    if best[2] is None:
        raise Infeasible("no successful shift action exists")
    return best[0], ShiftAction(tuple(best[2]))
