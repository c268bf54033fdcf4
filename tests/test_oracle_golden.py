"""Golden results of the exact oracles on seeded instances.

``GOLDEN`` and ``COVER_GOLDEN`` were recorded with the vector-by-vector
enumeration that the block enumeration replaced, so they pin its exact
witnesses and tie-breaks.  The instances cover Borda, k-approval, Borda x100,
weighted Borda, Copeland 0, 1/2 and 1 and maximin (the pairwise rules
weighted now and then), and the edge cases n = 1, m = 1, zero prices,
unreachable price suffixes, already-winning and infeasible instances.  About
one in five has 7-9 voters and 6 candidates, so that the enumeration spans
several blocks.
"""

import random
from itertools import product

import pytest

import shiftbribe as sb

FAMILIES = (
    "borda",
    "kapproval",
    "borda100",
    "weighted",
    "copeland0",
    "copeland1/2",
    "copeland1",
    "maximin",
)
NO_ACTION = "Infeasible('no successful shift action exists')"
NO_COVER = "Infeasible('no shift action meets the targets')"


def shift_vectors(inst):
    count = 1
    for cf in inst.costs:
        count *= cf.max_reachable + 1
    return count


def golden_instance(seed):
    """Seed-deterministic instance of family ``seed % 8`` with at most
    60,000 shift vectors."""
    rng = random.Random(seed * 7907 + 11)
    family = FAMILIES[seed % len(FAMILIES)]
    if rng.random() < 0.2:
        n, m = rng.randint(7, 9), 6
    else:
        n = rng.randint(1, 6)
        m = 1 if rng.random() < 0.05 else rng.randint(2, 5)
    if family == "kapproval":
        rule = sb.ScoringRule(sb.k_approval(m, rng.randint(1, m)))
    elif family == "borda100":
        rule = sb.ScoringRule(sb.ScoringVector(tuple(100 * (m - 1 - j) for j in range(m))))
    elif family in ("borda", "weighted"):
        rule = sb.ScoringRule(sb.borda(m))
    elif family == "maximin":
        rule = sb.MAXIMIN
    else:
        rule = sb.CopelandRule(sb.CopelandAlpha.parse(family[len("copeland"):]))
    scoring = isinstance(rule, sb.ScoringRule)
    weighted = family == "weighted" or (not scoring and rng.random() < 0.3)
    max_price = rng.choice((2, 5, 20))
    draw = seed
    while True:
        inst = sb.gen_random(draw, n, m, max_price, weighted=weighted, rule=rule)
        winning = 0 in sb.winners(sb.rule_scores(inst.election, rule))
        if shift_vectors(inst) <= 60000 and (not winning or rng.random() < 0.1):
            break
        draw += 1000
    locked = rng.random() < 0.06  # every shift unreachable
    costs = []
    for cf in inst.costs:
        prices = list(cf.prices)
        edit = rng.random()
        if locked:
            prices = [None] * len(prices)
        elif prices and edit < 0.1:
            prices = [max(0, p - 2) for p in prices]
        elif prices and edit < 0.3:
            cut = rng.randint(0, len(prices) - 1)
            prices = prices[:cut] + [None] * (len(prices) - cut)
        costs.append(sb.CostFunction(tuple(prices)))
    return sb.ShiftBriberyInstance(inst.election, tuple(costs), rule)


def cover_case(seed):
    """A maximin golden instance and one pairwise-support target per rival."""
    inst = golden_instance(seed * 8 + 7)
    rng = random.Random(seed + 4242)
    targets = tuple(rng.randint(0, inst.num_voters) for _ in range(inst.num_candidates - 1))
    return inst, targets


# seed: (cost, witness) of exact_shift_opt, or the repr of what it raised
GOLDEN = {
    0: (8, (1, 0, 1, 1, 2)),
    1: (15, (1, 0)),
    2: (2, (2, 1, 0, 0, 0)),
    3: (31, (2, 2, 3, 0, 0, 4, 1)),
    4: (1, (2, 0, 1)),
    5: (0, (0, 0, 0, 0, 1)),
    6: (5, (3, 0, 0)),
    7: NO_ACTION,
    8: NO_ACTION,
    9: (0, (0, 0, 0, 0, 0, 0)),
    10: (2, (1, 0)),
    11: (0, (0,)),
    12: (3, (0, 0, 0, 0, 0, 0, 4, 0, 0)),
    13: (1, (0, 0, 0, 0, 2, 0, 0)),
    14: (1, (0, 0, 0, 2, 2)),
    15: (10, (0, 0, 2, 0, 2)),
    16: (9, (1, 0, 0, 1)),
    17: (1, (0, 0, 1)),
    18: (7, (0, 0, 0, 1, 0)),
    19: (1, (0, 0, 1, 0, 0, 0)),
    20: (0, (0, 0, 1, 0, 0, 0, 0)),
    21: NO_ACTION,
    22: (18, (0, 0, 1)),
    23: (0, (0, 0, 0, 0, 0, 0, 0, 0)),
    24: (6, (0, 0, 1, 0)),
    25: (4, (0, 0, 0, 0, 0, 0, 0, 1, 3)),
    26: NO_ACTION,
    27: (0, (1, 1, 0, 0, 0)),
    28: (3, (1, 0, 2, 2, 0, 0)),
    29: (27, (3,)),
    30: (14, (0, 0, 2, 1, 0, 3, 0)),
    31: (16, (4, 1, 0, 0, 0, 0)),
    32: (5, (0, 1, 2)),
    33: (0, (0, 0)),
    34: (0, (0, 0, 0, 0, 2)),
    35: (16, (0, 1)),
    36: (2, (3, 1, 0)),
    37: (19, (1, 0, 0, 0)),
    38: (2, (1, 0, 0, 0, 0, 0, 0, 0, 0)),
    39: (7, (1, 3, 0, 0, 0, 1, 0, 0)),
    40: (28, (0, 1, 0, 2, 1, 0, 0, 1, 0)),
    41: (3, (1, 1)),
    42: (3, (0, 0, 0, 0, 0, 0, 3, 4)),
    43: (1, (0, 0, 1)),
    44: (11, (1,)),
    45: (13, (1,)),
    46: (7, (1, 0, 0, 1, 0, 1)),
    47: (4, (0, 1, 1, 0, 1, 1, 0)),
    48: (3, (0, 0, 0, 1, 1, 0, 0, 0, 3)),
    49: (0, (0,)),
    50: (0, (0, 0, 0, 0, 0, 0)),
    51: (22, (4, 4, 0, 0, 0, 1)),
    52: (41, (1, 1, 0, 0, 1)),
    53: (0, (0, 0, 0, 0, 0, 1)),
    54: (7, (0, 2, 0, 0)),
    55: NO_ACTION,
    56: (8, (1, 2)),
    57: (32, (0, 1, 0, 0, 1)),
    58: (0, (0, 0, 0)),
    59: (8, (2, 0, 0, 0, 0)),
    60: (1, (0, 0, 4, 0, 0)),
    61: (0, (0, 0, 0, 1)),
    62: (2, (0, 1, 0, 0, 1)),
    63: (0, (0, 0)),
    64: (16, (0, 1, 2, 0, 0)),
    65: (5, (0, 1, 0)),
    66: (1, (0, 1, 0, 0)),
    67: (0, (0, 0)),
    68: (6, (0, 1, 0, 0, 0)),
    69: NO_ACTION,
    70: NO_ACTION,
    71: NO_ACTION,
    72: (38, (3, 0, 0, 0, 0, 0, 0, 2, 0)),
    73: (0, (0, 0, 0, 0, 0, 0, 0, 0)),
    74: (2, (0, 1, 0, 0, 2, 1)),
    75: (16, (0, 2, 0, 1, 0, 0, 0, 1, 0)),
    76: (3, (0, 0, 2, 1, 0)),
    77: (0, (0, 1, 0)),
    78: (7, (0, 0, 2, 2, 0, 0, 0, 0)),
    79: (5, (0, 1, 0, 0, 0)),
    80: NO_ACTION,
    81: (19, (0, 2, 0, 0, 0, 0, 0)),
    82: (6, (2,)),
    83: (13, (0, 2)),
    84: (1, (1, 0, 0, 0, 0, 1)),
    85: (10, (0, 1)),
    86: (14, (4,)),
    87: (2, (0, 1)),
    88: NO_ACTION,
    89: (1, (0, 1, 0, 0)),
    90: (2, (1,)),
    91: (31, (0, 0, 0, 2, 2, 1, 0, 0, 0)),
    92: (5, (0, 0, 0, 4, 0, 2, 1)),
    93: (3, (0, 2, 0, 0, 1)),
    94: (0, (0, 0)),
    95: (13, (1,)),
    96: (0, (0, 0, 0, 0, 0)),
    97: (0, (0, 0, 0)),
    98: (5, (0, 2, 0, 2, 0)),
    99: (0, (0, 0, 1, 0, 0, 0)),
    100: (0, (0, 0, 0, 0, 0)),
    101: (6, (0, 0, 0, 0, 1, 1)),
    102: (0, (0, 0, 0, 0, 1)),
    103: (19, (1,)),
    104: (0, (0, 3, 0)),
    105: (0, (0, 0, 0, 0, 0, 0)),
    106: (1, (0, 0, 0, 0, 2, 0, 0, 0, 1)),
    107: (0, (0, 0, 0)),
    108: (2, (0, 2, 2)),
    109: (0, (0, 1, 0, 0, 0)),
    110: NO_ACTION,
    111: (5, (0, 1)),
    112: (2, (0, 1, 2, 0, 0, 0)),
    113: (0, (1, 0, 0, 0)),
    114: (10, (0, 0, 0, 0, 0, 0, 0, 1)),
    115: (0, (0, 0, 0, 0, 0, 0, 0)),
    116: (5, (0, 2)),
    117: (5, (1, 0)),
    118: (0, (1, 0)),
    119: (17, (1, 0)),
    120: (0, (0, 1)),
    121: (4, (1, 0, 0)),
    122: (0, (0, 0)),
    123: (1, (0, 3, 0, 2)),
    124: (1, (0, 0, 2, 2, 0)),
    125: NO_ACTION,
    126: (4, (0, 0, 0, 0, 0, 1, 0)),
    127: (3, (1, 1, 0)),
    128: (2, (0, 0, 0, 1)),
    129: (0, (0,)),
    130: (2, (0, 0, 3, 0, 1)),
    131: (1, (0, 1, 1, 0, 0)),
    132: (2, (1, 3)),
    133: (26, (0, 0, 3)),
    134: (4, (0, 0, 1, 1, 0, 1, 0, 2)),
    135: (1, (0, 0, 1)),
    136: (3, (1,)),
    137: (0, (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    138: (2, (1, 0, 1, 2)),
    139: (10, (4, 0, 2, 1, 0, 0, 2)),
    140: (5, (0, 1)),
    141: (0, (0, 1, 0, 1, 0)),
    142: (0, (0, 1, 0, 1)),
    143: (1, (0, 0, 1, 0, 0, 0)),
    144: (15, (2, 0, 1, 0, 1)),
    145: (0, (0, 0, 0, 0, 0)),
    146: (24, (2, 1, 2, 0, 0, 1, 4, 3, 0)),
    147: (5, (0, 0, 0, 0, 4, 2, 1, 1)),
    148: (13, (0, 0, 0, 1, 0, 0, 0)),
    149: NO_ACTION,
    150: (20, (2,)),
    151: (0, (0, 0, 0, 0, 0, 0)),
    152: (0, (0, 1, 0, 0, 0, 3)),
    153: (5, (0, 0, 1)),
    154: (6, (0, 1, 0, 0, 1)),
    155: (0, (0, 1)),
    156: (1, (1, 0)),
    157: (0, (2, 1, 0, 0)),
    158: (0, (0, 0, 1, 0, 0, 1)),
    159: (2, (0, 1, 1)),
    160: (3, (2, 0, 0, 0, 0)),
    161: (7, (0, 0, 0, 1, 0, 0)),
    162: (0, (0, 0, 0, 0, 0, 0)),
    163: (2, (0, 0, 0, 4, 2, 0, 1)),
    164: (37, (3,)),
    165: (2, (0, 0, 1, 0)),
    166: (10, (0, 0, 0, 0, 0, 0, 0, 1)),
    167: (3, (1, 0, 0)),
    168: (1, (3, 0, 0)),
    169: (0, (0, 0, 2, 0, 0, 0)),
    170: (0, (0, 0, 0, 0, 0)),
    171: (6, (0, 0, 0, 1, 0, 0)),
    172: NO_ACTION,
    173: (3, (0, 0, 0, 2, 0)),
    174: (7, (0, 0, 0, 1, 0, 0)),
    175: (0, (0, 0, 0, 3, 0, 0)),
    176: (0, (0, 0, 0, 0, 0, 0)),
    177: (20, (0, 0, 1)),
    178: (48, (1, 0, 1, 0, 5, 0, 0, 0)),
    179: (17, (0, 0, 0, 0, 0, 2, 0)),
    180: (0, (1, 0, 0, 0, 0)),
    181: (17, (2, 0, 1, 0)),
    182: (3, (0, 2)),
    183: (0, (1, 0, 0, 0, 0, 0, 0, 0)),
    184: (0, (0, 0, 0, 0, 1)),
    185: NO_ACTION,
    186: (0, (0, 2, 0, 0, 3, 0)),
    187: (4, (1, 0, 0, 0)),
    188: (0, (0, 0, 0)),
    189: (0, (0,)),
    190: (27, (0, 2)),
    191: (11, (0, 0, 0, 1, 0, 0, 0)),
    192: (1, (0, 1, 0, 0, 1, 0, 0, 1)),
    193: (0, (0,)),
    194: (2, (1, 0)),
    195: (14, (0, 0, 0, 0, 0, 1, 0, 5)),
    196: (21, (0, 1, 4, 0, 1, 0, 0)),
    197: (0, (1,)),
    198: (3, (0, 0, 0, 1, 2)),
    199: (0, (0, 0, 0)),
}

# seed: (targets, (cost, witness) of exact_cover_opt or the repr it raised)
COVER_GOLDEN = {
    0: ((6, 2, 0, 6, 6), NO_COVER),
    1: ((4, 3, 0), (18, (0, 3, 2, 0, 2))),
    2: ((3, 7, 4, 3, 6), (15, (2, 1, 2, 5, 0, 0, 4, 0))),
    3: ((3, 3, 6, 0), NO_COVER),
    4: ((5, 2, 7, 8, 7), NO_COVER),
    5: ((5, 4, 1, 4, 3), (39, (4, 3, 3, 0, 1, 4, 1))),
    6: ((3, 2, 3), NO_COVER),
    7: ((0,), (0, (0, 0))),
    8: ((6, 7, 7, 4, 4), NO_COVER),
    9: ((4, 4, 4), NO_COVER),
    10: ((2,), (2, (0, 1))),
    11: ((0, 1), (0, (0,))),
    12: ((1, 0, 0, 1), (19, (1,))),
    13: ((0, 2, 0), (6, (2, 0))),
    14: ((2,), NO_COVER),
    15: ((2, 1), (5, (2, 0, 1))),
    16: ((2,), NO_COVER),
    17: ((5,), (1, (0, 1, 0, 0, 0, 0))),
    18: ((), (0, (0, 0, 0, 0, 0, 0))),
    19: ((1, 3), NO_COVER),
    20: ((0,), (0, (0, 0, 0))),
    21: ((0, 0, 1, 3), (5, (2, 2, 0, 1, 0, 0))),
    22: ((4, 2, 2, 4, 3), NO_COVER),
    23: ((7, 2, 0, 3, 7), NO_COVER),
    24: ((3, 2), (4, (0, 0, 2))),
    25: ((2,), (5, (1, 0, 0, 0))),
    26: ((5,), NO_COVER),
    27: ((2, 2), (17, (0, 0, 2, 2, 0))),
    28: ((3, 5), (69, (0, 2, 2, 1, 0))),
    29: ((0, 0), (0, (0,))),
    30: ((0, 3, 1), (4, (1, 0, 0, 0, 2, 1))),
    31: ((7, 4, 3, 6, 0), (62, (5, 2, 2, 2, 0, 1, 4, 3))),
    32: ((1, 2, 3, 1), (50, (0, 0, 3, 0, 0, 2))),
    33: ((1,), (1, (0, 0, 0, 1, 0))),
    34: ((4, 4, 7, 0, 4), NO_COVER),
    35: ((2, 2, 3), (51, (3, 2, 0, 0, 1))),
    36: ((0, 3, 0), (28, (2, 0, 0))),
    37: ((0, 3, 1, 9, 5), NO_COVER),
    38: ((2, 2), (20, (2, 1, 1))),
    39: ((2,), (3, (1, 1))),
    40: ((0,), (0, (0,))),
    41: ((2, 1), NO_COVER),
    42: ((6, 9, 4, 3, 6), NO_COVER),
    43: ((1, 3, 1, 1), (5, (1, 2, 0, 1, 2, 2))),
    44: ((3, 1, 0, 3, 3), (108, (5, 2, 0, 0, 2, 2, 0, 0))),
    45: ((3, 4, 2, 2), (4, (4, 1, 2, 0))),
    46: ((1, 1, 1, 1), NO_COVER),
    47: ((3,), NO_COVER),
    48: ((2, 0, 0), NO_COVER),
    49: ((7, 6, 0, 4, 0), (39, (3, 5, 1, 4, 4, 0, 1, 1))),
    50: ((6,), (9, (0, 0, 1, 0, 1, 0))),
    51: ((2, 1, 2, 2), (65, (2, 2))),
    52: ((0, 0), (0, (0, 0, 0, 0, 0))),
    53: ((6, 4, 3, 2, 2), (17, (3, 0, 0, 0, 4, 0, 1))),
    54: ((2,), (4, (1, 1))),
    55: ((3, 2), (55, (2, 1, 2))),
    56: ((3,), (4, (1, 0, 1, 0, 1, 0))),
    57: ((1, 2, 3), (7, (1, 3, 0))),
    58: ((2,), (0, (1, 1))),
    59: ((5, 0, 7, 4, 5), NO_COVER),
}


def outcome(solve):
    try:
        cost, action = solve()
    except sb.Infeasible as exc:
        return repr(exc)
    return cost, tuple(action.shifts)


def test_golden_instances_span_the_edge_cases():
    instances = [golden_instance(seed) for seed in GOLDEN]
    assert any(inst.num_voters == 1 for inst in instances)
    assert any(inst.num_candidates == 1 for inst in instances)
    assert any(shift_vectors(inst) > 4 * 4096 for inst in instances)
    assert sum(r == NO_ACTION for r in GOLDEN.values()) >= 10
    assert sum(r != NO_ACTION and not any(r[1]) for r in GOLDEN.values()) >= 10
    assert any(cf.max_reachable < cf.cap for inst in instances for cf in inst.costs)
    assert any(0 in cf.prices for inst in instances for cf in inst.costs)


def test_exact_shift_opt_golden():
    mismatched = [
        seed
        for seed, expected in GOLDEN.items()
        if outcome(lambda: sb.exact_shift_opt(golden_instance(seed))) != expected
    ]
    assert mismatched == []


def test_exact_cover_opt_golden():
    mismatched = []
    for seed, (targets, expected) in COVER_GOLDEN.items():
        inst, drawn = cover_case(seed)
        assert drawn == targets
        if outcome(lambda: sb.exact_cover_opt(inst, targets)) != expected:
            mismatched.append(seed)
    assert mismatched == []


def test_matches_is_successful_scan():
    """On the small golden instances, the witness is what a plain scan with
    ``is_successful`` and ``total_cost`` keeps."""
    checked = 0
    for seed, expected in GOLDEN.items():
        inst = golden_instance(seed)
        if shift_vectors(inst) > 100:
            continue
        best = NO_ACTION
        ranges = [range(cf.max_reachable + 1) for cf in inst.costs]
        for shifts in product(*ranges):
            action = sb.ShiftAction(shifts)
            cost = sb.total_cost(inst, action)
            if (best == NO_ACTION or cost < best[0]) and sb.is_successful(inst, action):
                best = (cost, shifts)
        assert best == expected, seed
        checked += 1
    assert checked >= 100


def unanimous_runner_up(prices):
    """Every voter ranks the rival first and the preferred candidate second:
    under Borda the preferred candidate wins once half the voters shift."""
    n = len(prices)
    e = sb.Election(("p", "a"), ((1, 0),) * n)
    costs = tuple(sb.CostFunction((p,)) for p in prices)
    return sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(2)))


def test_lexicographically_smallest_minimum_witness():
    # 2**14 vectors span four blocks, and each holds minimum-cost winners.
    inst = unanimous_runner_up((1,) * 14)
    assert sb.exact_shift_opt(inst) == (7, sb.ShiftAction((0,) * 7 + (1,) * 7))


def test_later_block_wins_only_when_strictly_cheaper():
    # Cost 14 winners come first; the cheapest ones shift voter 0.
    inst = unanimous_runner_up((1,) + (2,) * 13)
    assert sb.exact_shift_opt(inst) == (13, sb.ShiftAction((1,) + (0,) * 7 + (1,) * 6))


def test_guard_boundary(monkeypatch):
    inst = unanimous_runner_up((1,) * 14)
    monkeypatch.setenv("SHIFTBRIBE_GUARD", str(2**14))
    assert sb.exact_shift_opt(inst)[0] == 7
    assert sb.exact_cover_opt(inst, (7,))[0] == 7
    monkeypatch.setenv("SHIFTBRIBE_GUARD", str(2**14 - 1))
    with pytest.raises(sb.GuardExceeded):
        sb.exact_shift_opt(inst)
    with pytest.raises(sb.GuardExceeded):
        sb.exact_cover_opt(inst, (7,))


def test_price_total_at_int64_limit():
    inst = unanimous_runner_up((1 << 62, (1 << 62) - 1))
    assert sb.exact_shift_opt(inst) == ((1 << 62) - 1, sb.ShiftAction((0, 1)))
    assert sb.exact_cover_opt(inst, (1,)) == ((1 << 62) - 1, sb.ShiftAction((0, 1)))


def test_price_total_beyond_int64_raises():
    inst = unanimous_runner_up((1 << 62, 1 << 62))
    with pytest.raises(OverflowError, match="total of the largest prices"):
        sb.exact_shift_opt(inst)
    with pytest.raises(OverflowError, match="total of the largest prices"):
        sb.exact_cover_opt(inst, (1,))
