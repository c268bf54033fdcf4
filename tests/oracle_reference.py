"""Reference form of the exact oracles' search, kept for the equivalence
tests, which the package never calls: ``oracle._cheapest`` as it was
before it tested vectors in rounds of rising cost, a scan of every vector
in lexicographic blocks."""

from itertools import product
from typing import Optional, Tuple

import numpy as np

from shiftbribe.oracle import _BLOCK


def cheapest(prices: list, deltas: list, base: np.ndarray, accept) -> Optional[Tuple[int, tuple]]:
    """Lexicographically first of the cheapest vectors t, one option per
    voter, whose row ``base`` plus the sum of ``deltas[i][t[i]]`` passes
    ``accept``, or None; t costs the sum of ``prices[i][t[i]]``.

    The voters split into a head and a tail, the longest suffix with at most
    ``_BLOCK`` vectors.  The tail's costs and rows are combined once,
    in lexicographic order; each head combination, taken in ``product``
    order, adds its cost and delta to them and tests, in one batch, the rows
    cheaper than the best found so far.  Lexicographic order is head-major,
    then tail index, and a later block replaces the best only when strictly
    cheaper, so the witness is the one a vector-by-vector scan keeps.
    """
    rows = list(zip(prices, deltas))
    split = len(rows)
    tail_cost = np.zeros(1, dtype=np.int64)
    tail_delta = base[None, :]
    while split and len(tail_cost) * len(rows[split - 1][0]) <= _BLOCK:
        split -= 1
        price, delta = rows[split]
        tail_cost = (price[:, None] + tail_cost[None, :]).ravel()
        tail_delta = (delta[:, None, :] + tail_delta[None, :, :]).reshape(-1, len(base))
    tail_shape = [len(price) for price, _ in rows[split:]]
    head = rows[:split]
    best = None
    for combo in product(*(range(len(price)) for price, _ in head)):
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
