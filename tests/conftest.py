import random

import pytest
from hypothesis import settings

import shiftbribe as sb
from shiftbribe import scoring_solvers

# Every property test draws the same examples on every machine and run
# (derandomize also turns off the example database), so a pass or a failure
# of the suite repeats.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def gen_random_micro(seed, n, m, max_price, infinite_prob=0.15):
    """Seed-deterministic random microbribery instance (test helper)."""
    rng = random.Random(seed)
    tables = []
    costs = []
    for _ in range(n):
        table = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                s = rng.choice((1, -1))
                table[a][b] = s
                table[b][a] = -s
        tables.append(tuple(tuple(row) for row in table))
        prices = {}
        for c in range(1, m):
            if rng.random() >= infinite_prob:
                prices[c] = rng.randint(0, max_price)
        costs.append(sb.FlipCostFunction(prices))
    return sb.MicrobriberyInstance(tuple(tables), tuple(costs))


def flips_win(m_inst, alpha, flips):
    """Whether candidate 0 is a Copeland-alpha winner once each voter's
    entries against the rivals in ``flips[i]`` are flipped: a direct count
    over the flipped tables, the reference the microbribery solvers and
    oracle are checked against."""
    m = m_inst.num_candidates
    tables = []
    for table, rivals in zip(m_inst.tables, flips):
        t = [list(row) for row in table]
        for c in rivals:
            t[0][c], t[c][0] = t[c][0], t[0][c]
        tables.append(t)
    n_matrix = [[sum(t[a][b] == 1 for t in tables) for b in range(m)] for a in range(m)]
    tally = sb.PairwiseTally(n_matrix, len(tables))
    return 0 in sb.winners(sb.copeland_scores(tally, alpha))


def scaled_rounds_alone(inst, eps):
    """``solve_two_pass_scaled`` without its exact ``A`` candidate: the
    scaled rounds alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring_solvers, "DEFAULT_EXACT_THRESHOLD", 0)
        return sb.solve_two_pass_scaled(inst, eps)


def small_instance_sizes(seed):
    """Deterministic (n, m) in 1..4 x 2..4 for sweep tests."""
    rng = random.Random(seed * 7919 + 13)
    return rng.randint(1, 4), rng.randint(2, 4)


@pytest.fixture
def thm6_k1():
    return sb.gen_theorem6(1)
