"""Golden (cost, witness) pairs of A, G and Aeps on seeded instances.

The bound checks elsewhere would pass a change of tie-break; these pin the
exact witnesses.  The instances cover Borda, k-approval, Borda x100 (score
gains above the price total), weighted voters, and price tables lowered by 2
so that some shifts are free.
"""

from fractions import Fraction

import pytest

import shiftbribe as sb

FAMILIES = ("borda", "kapproval", "borda100", "weighted", "free")


def golden_instance(seed):
    """Seed-deterministic instance of family ``seed % 5`` that the
    preferred candidate does not already win."""
    family = FAMILIES[seed % len(FAMILIES)]
    n = 5 + seed % 5
    m = 4 + (seed // 5) % 4
    draw = seed
    while True:
        draw += 1000
        if family == "kapproval":
            rule = sb.ScoringRule(sb.k_approval(m, 1 + draw % (m - 1)))
        elif family == "borda100":
            rule = sb.ScoringRule(sb.ScoringVector(tuple(100 * (m - 1 - j) for j in range(m))))
        else:
            rule = sb.ScoringRule(sb.borda(m))
        inst = sb.gen_random(draw, n, m, 8, weighted=family == "weighted", rule=rule)
        if family == "free":
            costs = tuple(
                sb.CostFunction(tuple(max(0, p - 2) for p in cf.prices)) for cf in inst.costs
            )
            inst = sb.ShiftBriberyInstance(inst.election, costs, inst.rule)
        if 0 not in sb.winners(sb.rule_scores(inst.election, inst.rule)):
            return inst


# seed: ((cost, witness) of A, of G, of Aeps with eps 1/4)
GOLDEN = {
    0: (  # borda n=5 m=4
        (7, (0, 1, 0, 1, 1)),
        (7, (0, 1, 0, 1, 1)),
        (7, (0, 1, 0, 1, 1)),
    ),
    1: (  # kapproval n=6 m=4
        (17, (1, 0, 0, 1, 1, 0)),
        (17, (1, 0, 0, 1, 1, 0)),
        (17, (1, 0, 0, 1, 1, 0)),
    ),
    2: (  # borda100 n=7 m=4
        (7, (0, 0, 1, 0, 0, 3, 1)),
        (7, (0, 0, 1, 0, 0, 3, 1)),
        (7, (0, 0, 1, 0, 0, 3, 1)),
    ),
    3: (  # weighted n=8 m=4
        (20, (2, 0, 0, 0, 2, 0, 0, 0)),
        (20, (2, 0, 0, 0, 2, 0, 0, 0)),
        (20, (2, 0, 0, 0, 2, 0, 0, 0)),
    ),
    4: (  # free n=9 m=4
        (12, (1, 2, 1, 1, 1, 2, 1, 0, 1)),
        (12, (1, 2, 1, 1, 1, 2, 1, 0, 1)),
        (12, (1, 2, 1, 1, 1, 2, 1, 0, 1)),
    ),
    5: (  # borda n=5 m=5
        (0, (0, 0, 2, 0, 0)),
        (0, (0, 0, 2, 0, 0)),
        (0, (0, 0, 2, 0, 0)),
    ),
    6: (  # kapproval n=6 m=5
        (3, (1, 2, 0, 0, 0, 0)),
        (3, (1, 2, 0, 0, 0, 0)),
        (3, (1, 2, 0, 0, 0, 0)),
    ),
    7: (  # borda100 n=7 m=5
        (1, (0, 2, 1, 0, 2, 0, 0)),
        (1, (0, 2, 1, 0, 2, 0, 0)),
        (1, (0, 2, 1, 0, 2, 0, 0)),
    ),
    8: (  # weighted n=8 m=5
        (8, (1, 0, 0, 0, 3, 0, 0, 0)),
        (8, (1, 0, 0, 0, 3, 0, 0, 0)),
        (8, (1, 0, 0, 0, 3, 0, 0, 0)),
    ),
    9: (  # free n=9 m=5
        (3, (0, 1, 1, 1, 0, 0, 0, 1, 0)),
        (3, (0, 1, 1, 1, 0, 0, 0, 1, 0)),
        (3, (0, 1, 1, 1, 0, 0, 0, 1, 0)),
    ),
    10: (  # borda n=5 m=6
        (8, (0, 0, 1, 1, 2)),
        (8, (0, 0, 1, 1, 2)),
        (8, (0, 0, 1, 1, 2)),
    ),
    11: (  # kapproval n=6 m=6
        (27, (0, 1, 0, 0, 3, 3)),
        (27, (0, 1, 0, 0, 3, 3)),
        (27, (0, 1, 0, 0, 3, 3)),
    ),
    12: (  # borda100 n=7 m=6
        (14, (1, 2, 1, 1, 0, 0, 0)),
        (14, (1, 2, 1, 1, 0, 0, 0)),
        (14, (1, 2, 1, 1, 0, 0, 0)),
    ),
    13: (  # weighted n=8 m=6
        (14, (0, 0, 0, 0, 4, 0, 0, 0)),
        (14, (0, 0, 0, 0, 4, 0, 0, 0)),
        (14, (0, 0, 0, 0, 4, 0, 0, 0)),
    ),
    14: (  # free n=9 m=6
        (37, (1, 0, 2, 1, 1, 3, 2, 3, 4)),
        (37, (1, 0, 2, 1, 1, 3, 2, 3, 4)),
        (37, (1, 0, 2, 1, 1, 3, 2, 3, 4)),
    ),
    15: (  # borda n=5 m=7
        (31, (3, 1, 2, 1, 6)),
        (32, (4, 1, 2, 1, 6)),
        (31, (3, 1, 2, 1, 6)),
    ),
    16: (  # kapproval n=6 m=7
        (4, (1, 0, 0, 0, 0, 0)),
        (4, (1, 0, 0, 0, 0, 0)),
        (4, (1, 0, 0, 0, 0, 0)),
    ),
    17: (  # borda100 n=7 m=7
        (32, (2, 0, 0, 4, 0, 3, 1)),
        (32, (2, 0, 0, 4, 0, 3, 1)),
        (32, (2, 0, 0, 4, 0, 3, 1)),
    ),
    18: (  # weighted n=8 m=7
        (16, (3, 0, 1, 0, 3, 0, 1, 0)),
        (16, (3, 0, 1, 0, 3, 0, 1, 0)),
        (16, (2, 0, 1, 0, 3, 1, 1, 0)),
    ),
    19: (  # free n=9 m=7
        (17, (0, 3, 0, 0, 1, 0, 2, 3, 0)),
        (17, (0, 3, 0, 0, 1, 0, 2, 3, 0)),
        (17, (0, 3, 0, 0, 1, 0, 2, 3, 0)),
    ),
    20: (  # borda n=5 m=4
        (2, (0, 0, 0, 0, 1)),
        (2, (0, 0, 0, 0, 1)),
        (2, (0, 0, 0, 0, 1)),
    ),
    21: (  # kapproval n=6 m=4
        (3, (0, 0, 0, 0, 0, 1)),
        (3, (0, 0, 0, 0, 0, 1)),
        (3, (0, 0, 0, 0, 0, 1)),
    ),
    22: (  # borda100 n=7 m=4
        (16, (0, 0, 0, 3, 2, 0, 0)),
        (16, (0, 0, 0, 3, 2, 0, 0)),
        (16, (0, 0, 0, 3, 2, 0, 0)),
    ),
    23: (  # weighted n=8 m=4
        (2, (0, 0, 0, 0, 0, 0, 2, 0)),
        (2, (0, 0, 0, 0, 0, 0, 2, 0)),
        (2, (0, 0, 0, 0, 0, 0, 2, 0)),
    ),
    24: (  # free n=9 m=4
        (0, (0, 0, 1, 1, 0, 2, 0, 0, 0)),
        (0, (0, 0, 1, 1, 0, 2, 0, 0, 0)),
        (0, (0, 0, 1, 1, 0, 2, 0, 0, 0)),
    ),
    25: (  # borda n=5 m=5
        (1, (0, 0, 1, 0, 0)),
        (1, (0, 0, 1, 0, 0)),
        (1, (0, 0, 1, 0, 0)),
    ),
    26: (  # kapproval n=6 m=5
        (5, (0, 0, 0, 1, 0, 0)),
        (5, (0, 0, 0, 1, 0, 0)),
        (5, (0, 0, 0, 1, 0, 0)),
    ),
    27: (  # borda100 n=7 m=5
        (25, (2, 0, 1, 0, 2, 4, 0)),
        (25, (2, 0, 1, 0, 2, 4, 0)),
        (25, (2, 0, 1, 0, 2, 4, 0)),
    ),
    28: (  # weighted n=8 m=5
        (12, (0, 0, 2, 0, 0, 1, 2, 0)),
        (12, (0, 0, 2, 0, 0, 1, 2, 0)),
        (12, (0, 0, 2, 0, 0, 1, 2, 0)),
    ),
    29: (  # free n=9 m=5
        (2, (0, 0, 0, 0, 3, 0, 0, 0, 1)),
        (2, (0, 0, 0, 0, 3, 0, 0, 0, 1)),
        (2, (0, 0, 0, 0, 3, 0, 0, 0, 1)),
    ),
    30: (  # borda n=5 m=6
        (0, (0, 0, 0, 1, 0)),
        (0, (0, 0, 0, 1, 0)),
        (0, (0, 0, 0, 1, 0)),
    ),
    31: (  # kapproval n=6 m=6
        (5, (0, 0, 0, 0, 1, 0)),
        (5, (0, 0, 0, 0, 1, 0)),
        (5, (0, 0, 0, 0, 1, 0)),
    ),
    32: (  # borda100 n=7 m=6
        (25, (0, 1, 1, 0, 5, 1, 0)),
        (25, (0, 1, 1, 0, 5, 1, 0)),
        (25, (0, 1, 1, 0, 5, 1, 0)),
    ),
    33: (  # weighted n=8 m=6
        (6, (1, 3, 0, 0, 0, 1, 1, 0)),
        (6, (1, 3, 0, 0, 0, 1, 1, 0)),
        (6, (1, 3, 0, 0, 0, 1, 1, 0)),
    ),
    34: (  # free n=9 m=6
        (10, (2, 1, 1, 3, 2, 0, 1, 0, 1)),
        (10, (2, 1, 1, 3, 2, 0, 1, 0, 1)),
        (10, (2, 1, 1, 3, 2, 0, 1, 0, 1)),
    ),
    35: (  # borda n=5 m=7
        (16, (1, 3, 1, 2, 0)),
        (16, (1, 3, 1, 2, 0)),
        (16, (1, 3, 1, 2, 0)),
    ),
    36: (  # kapproval n=6 m=7
        (13, (0, 0, 0, 0, 2, 1)),
        (13, (0, 0, 0, 0, 2, 1)),
        (13, (0, 0, 0, 0, 2, 1)),
    ),
    37: (  # borda100 n=7 m=7
        (18, (3, 0, 0, 0, 2, 2, 0)),
        (18, (3, 0, 0, 0, 2, 2, 0)),
        (18, (3, 0, 0, 0, 2, 2, 0)),
    ),
    38: (  # weighted n=8 m=7
        (50, (6, 1, 0, 0, 0, 0, 0, 4)),
        (50, (6, 1, 0, 0, 0, 0, 0, 4)),
        (50, (6, 1, 0, 0, 0, 0, 0, 4)),
    ),
    39: (  # free n=9 m=7
        (1, (1, 3, 1, 0, 1, 0, 0, 0, 0)),
        (1, (1, 3, 1, 0, 1, 0, 0, 0, 0)),
        (1, (1, 3, 1, 0, 1, 0, 0, 0, 0)),
    ),
}

SOLVERS = (
    sb.solve_two_pass,
    sb.solve_single_pass,
    lambda inst: sb.solve_two_pass_scaled(inst, Fraction(1, 4)),
)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_witnesses(seed):
    inst = golden_instance(seed)
    got = []
    for solver in SOLVERS:
        cost, action = solver(inst)
        assert all(type(t) is int for t in action.shifts)
        got.append((cost, action.shifts))
    assert tuple(got) == GOLDEN[seed]
