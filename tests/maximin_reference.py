"""Reference forms of the maximin solver's loops, kept for the equivalence
tests, which the package never calls:

- the loop over target scores, which runs the greedy for every k and tests
  all the actions in one batch, where ``solve_maximin_shift`` skips the k
  that a price floor rules out;
- the two per-rival groupings of passing prices that
  ``condorcet_solvers._passing`` replaced: the maximin price floors and the
  Copeland flip pools;
- ``passing``, the loop of (price, voter) tuples that ``_passing`` was
  before it sorted all moves in one array;
- ``lexsort_passing``, that one array sorted by a two-key ``lexsort``,
  before ``_passing`` came to sort by price and then by narrow rival keys.
"""

import itertools
from typing import List, Optional, Tuple

import numpy as np

import shiftbribe as sb
from shiftbribe.bribery import ShiftTable, _price_table
from shiftbribe.condorcet_solvers import _candidates_above, _cover


def move_lists(inst):
    """Per voter: the prices over shifts 0..max_reachable, and the rivals
    above the preferred candidate, nearest first."""
    return [[0, *cf.prices[: cf.max_reachable]] for cf in inst.costs], _candidates_above(inst)


def pass_floors(prices: list, above: list, m: int) -> list:
    """Per rival c, ``floors[c][d]`` <= the price of passing c in d voters: the
    sum of the d cheapest ``prices[i][depth of c]`` over voters that can."""
    passing: List[list] = [[] for _ in range(m)]
    for p, a in zip(prices, above):
        for t in range(1, len(p)):
            passing[a[t - 1]].append(p[t])
    return [list(itertools.accumulate(sorted(ps), initial=0)) for ps in passing]


def passing(prices: list, above: list, m: int) -> list:
    """Per candidate c (none for c = 0), the sorted (price, voter) of shifting
    each voter that can just far enough to pass c, from the per-voter prices
    of shifting by 0 .. max_reachable and ``_candidates_above``."""
    passing = [[] for _ in range(m)]
    for i, (p, a) in enumerate(zip(prices, above)):
        for rival, price in zip(a, p[1:]):
            passing[rival].append((price, i))
    return [sorted(ps) for ps in passing]


def lexsort_passing(inst) -> list:
    """``_passing`` with all moves sorted by one ``lexsort`` on (rival,
    price), which keeps equal keys in voter order."""
    values, starts, ends = _price_table(inst)
    e = inst.election
    n, m = e.orders.shape
    voter = np.repeat(np.arange(n), ends - starts - 1)
    index = np.arange(1, len(voter) + 1) + voter
    rival = e.orders[voter, e.positions[voter, 0] - (index - starts[voter])]
    order = np.lexsort((values[index], rival))
    cuts = np.bincount(rival, minlength=m).cumsum().tolist()
    price, voter = values[index[order]].tolist(), voter[order].tolist()
    return [([], []), *((price[a:b], voter[a:b]) for a, b in zip(cuts, cuts[1:]))]


def copeland_pools(inst) -> list:
    """Per candidate, the sorted (price, voter) flips against it and the
    (empty) flips for the preferred candidate, as ``solve_copeland_shift``
    feeds its core: the flip against the d-th rival above the preferred
    candidate is priced like a shift by d."""
    against: List[list] = [[] for _ in range(inst.num_candidates)]
    for i, (above, cf) in enumerate(zip(_candidates_above(inst), inst.costs)):
        for rival, p in zip(above, cf.prices[: cf.max_reachable]):
            against[rival].append((p, i))
    return [(sorted(flips), []) for flips in against]


def target_deficits(inst):
    """Per-candidate deficits for every target score k from the preferred
    candidate's maximin score to n: support k against every rival, and
    n - k against a rival scoring above k."""
    tally = sb.pairwise_tally(inst.election)
    scores = sb.maximin_scores(tally)
    support, n = tally.n_matrix[0], inst.num_voters
    for k in range(scores[0], n + 1):
        yield [0] + [
            max(0, (max(k, n - k) if scores[c] > k else k) - support[c])
            for c in range(1, len(scores))
        ]


def solve_maximin_all_targets(inst) -> Tuple[int, sb.ShiftAction]:
    """Every k's greedy action, one batched winner test on the instance's
    ``ShiftTable``, and the first successful action of strictly lowest
    cost."""
    prices, above = move_lists(inst)
    actions = []
    for deficits in target_deficits(inst):
        try:
            actions.append(_cover(prices, above, deficits))
        except sb.Infeasible:
            continue
    best: Optional[Tuple[int, list]] = None
    if actions:
        table = ShiftTable(inst)
        won = table.wins(table.rows_after(np.array(actions, dtype=np.int64)))
        for shifts, ok in zip(actions, won):
            cost = sum(p[t] for p, t in zip(prices, shifts))
            if ok and (best is None or cost < best[0]):
                best = (cost, shifts)
    if best is None:
        raise sb.Infeasible("no successful shift action exists")
    return best[0], sb.ShiftAction(tuple(best[1]))
