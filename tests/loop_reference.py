"""Per-voter loop forms of the array code in ``elections`` and ``bribery``,
kept for the equivalence tests: one voter and one candidate at a time, in
Python integers.  The package computes all of these from the orders and
positions arrays of an ``Election`` and never calls this module."""

import shiftbribe as sb


def loop_rank_of(election, voter, candidate):
    """1-based rank of ``candidate`` in ``voter``'s order."""
    return election.voters[voter].index(candidate) + 1


def loop_tally(election):
    """Reference pairwise tally: one weighted count per voter and ordered
    pair, in Python integers."""
    m = election.num_candidates
    n_matrix = [[0] * m for _ in range(m)]
    for i, order in enumerate(election.voters):
        for a_pos, a in enumerate(order):
            for b in order[a_pos + 1 :]:
                n_matrix[a][b] += election.weight(i)
    return tuple(tuple(row) for row in n_matrix)


def loop_scores(election, alpha):
    """Per-candidate scores under the scoring vector ``alpha``, unchecked."""
    scores = [0] * election.num_candidates
    for i, order in enumerate(election.voters):
        for pos, cand in enumerate(order):
            scores[cand] += election.weight(i) * alpha[pos]
    return scores


def loop_apply_shift(election, shifts):
    """The orders after shifting candidate 0 up by ``shifts[i]`` positions
    (clamped to the top) in each vote."""
    voters = []
    for order, t in zip(election.voters, shifts):
        idx = order.index(0)
        rearranged = list(order)
        del rearranged[idx]
        rearranged.insert(max(0, idx - t), 0)
        voters.append(tuple(rearranged))
    return tuple(voters)


def loop_deltas(inst, pairwise=False):
    """Per voter, the rows of ``ShiftTable.deltas`` as lists: for t = 0 ..
    max_reachable the change of the score row (scoring rules) or of the
    preferred candidate's pairwise row caused by shifting up by t."""
    e = inst.election
    scoring = isinstance(inst.rule, sb.ScoringRule) and not pairwise
    deltas = []
    for i, cf in enumerate(inst.costs):
        order = e.voters[i]
        pos = order.index(0)
        w = e.weight(i)
        delta = [[0] * e.num_candidates]
        for t in range(1, cf.max_reachable + 1):
            row = list(delta[-1])
            passed = order[pos - t]
            if scoring:
                step = w * (inst.rule.vector[pos - t] - inst.rule.vector[pos - t + 1])
                row[0] += step
                row[passed] -= step
            else:
                row[passed] += w
            delta.append(row)
        deltas.append(delta)
    return deltas


def loop_base(inst, pairwise=False):
    """The unshifted row of ``ShiftTable``: the scores under a scoring rule,
    else the preferred candidate's pairwise row."""
    if isinstance(inst.rule, sb.ScoringRule) and not pairwise:
        return loop_scores(inst.election, inst.rule.vector)
    return list(loop_tally(inst.election)[0])


def loop_rows_after(inst, shifts, pairwise=False):
    """``ShiftTable.rows_after`` as lists: the base row plus each voter's
    delta row at its shift, one row per shift vector."""
    base = loop_base(inst, pairwise)
    deltas = loop_deltas(inst, pairwise)
    rows = []
    for vector in shifts:
        row = list(base)
        for delta, t in zip(deltas, vector):
            row = [a + b for a, b in zip(row, delta[t])]
        rows.append(row)
    return rows
