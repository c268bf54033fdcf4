import random

import pytest

import shiftbribe as sb
from shiftbribe import scoring_solvers


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
