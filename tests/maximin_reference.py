"""Reference form of the maximin solver's loop over target scores, kept for
the equivalence tests: it runs the greedy for every k and tests all the
actions in one batch, where ``solve_maximin_shift`` skips the k that a
price floor rules out and never calls this."""

from typing import Optional, Tuple

import numpy as np

import shiftbribe as sb
from shiftbribe.bribery import ShiftTable
from shiftbribe.condorcet_solvers import _cover, _move_lists


def target_deficits(table: ShiftTable, n: int):
    """Per-candidate deficits for every target score k from the preferred
    candidate's maximin score to n: support k against every rival, and
    n - k against a rival scoring above k."""
    scores = sb.maximin_scores(table.tally)
    support = table.tally.n_matrix[0]
    for k in range(scores[0], n + 1):
        yield [0] + [
            max(0, (max(k, n - k) if scores[c] > k else k) - support[c])
            for c in range(1, len(scores))
        ]


def solve_maximin_all_targets(inst) -> Tuple[int, sb.ShiftAction]:
    """Every k's greedy action, one batched winner test, and the first
    successful action of strictly lowest cost."""
    table = ShiftTable(inst)
    prices, above = _move_lists(inst, table)
    actions = []
    for deficits in target_deficits(table, inst.num_voters):
        try:
            actions.append(_cover(prices, above, deficits))
        except sb.Infeasible:
            continue
    best: Optional[Tuple[int, list]] = None
    if actions:
        won = table.wins(table.rows_after(np.array(actions, dtype=np.int64)))
        for shifts, ok in zip(actions, won):
            cost = sum(p[t] for p, t in zip(prices, shifts))
            if ok and (best is None or cost < best[0]):
                best = (cost, shifts)
    if best is None:
        raise sb.Infeasible("no successful shift action exists")
    return best[0], sb.ShiftAction(tuple(best[1]))
