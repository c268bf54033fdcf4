"""Reference forms of the Copeland shift solver's parts, kept for the
equivalence tests, which the package never calls:

- ``condorcet_solvers._solve_copeland`` as it was before its programs were
  cut to their cut's score window and it took the cheapest state of all
  windows.  Here every (wins, ties) pattern is scanned, every cut of the
  thresholds that a pattern reads gets a program, and every program fills
  all (wins, ties) states;
- ``micro_to_shift_loop``, ``condorcet_solvers.micro_to_shift`` as it was
  before it shared one scatter-max with ``solve_copeland_shift``.
"""

import bisect
from typing import Dict, Optional, Tuple

import shiftbribe as sb
from shiftbribe.bribery import _rival_tally
from shiftbribe.condorcet_solvers import _LOSS, _TIE, _WIN, _outcome_options


def rival_dp(options: list, allowed) -> dict:
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


def solve_copeland_all_states(tally, pools: list, alpha) -> Tuple[int, Dict[int, set]]:
    """Cheapest flips making candidate 0 a Copeland-alpha winner, as (cost,
    voter -> flipped rivals), from the core's pools (per rival the prices
    and voters of the flips against it and for candidate 0): every pattern
    (wins, ties) whose scaled score k lies between the current score and
    (m - 1) * den reads the full program of its cut, and the first pattern
    of strictly lowest cost wins."""
    n_matrix = tally.n_matrix
    m = len(n_matrix)
    margins = [n_matrix[c][0] - n_matrix[0][c] for c in range(m)]
    base = [0] + sb.copeland_scores(_rival_tally(tally), alpha)
    den, num = alpha.denominator, alpha.numerator
    gain = {_WIN: 0, _TIE: num, _LOSS: den}
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
                programs[cut] = rival_dp(options, lambda c, o: base[c] + gain[o] <= k)
            hit = programs[cut].get((wins, ties))
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
    if best is None:
        raise sb.Infeasible("no flip set makes the preferred candidate a winner")
    flips: Dict[int, set] = {}
    for c, outcome in enumerate(best[1], start=1):
        for voter in options[c][outcome][1]:
            flips.setdefault(voter, set()).add(c)
    return best[0], flips


def micro_to_shift_loop(inst, flips) -> sb.ShiftAction:
    """Smallest shift action dominating a flip set, one voter at a time:
    each voter shifts up to the position of its highest flipped rival."""
    if len(flips) != inst.num_voters:
        raise ValueError("flip set length must equal the number of voters")
    positions, m = inst.election.positions, inst.num_candidates
    shifts = [0] * len(flips)
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
        shifts[i] = row[0] - min(row[c] for c in rivals)
    return sb.ShiftAction(tuple(shifts))
