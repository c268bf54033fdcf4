"""The exact oracles' search (``oracle._cheapest``), which tests vectors in
rounds of rising cost, answers byte for byte like the reference search that
scans every vector in lexicographic blocks (``oracle_reference``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
import shiftbribe as sb
from shiftbribe import oracle

RULES = {
    "borda": lambda m, k: sb.ScoringRule(sb.borda(m)),
    "kapproval": lambda m, k: sb.ScoringRule(sb.k_approval(m, k)),
    "maximin": lambda m, k: sb.MAXIMIN,
    "copeland0": lambda m, k: sb.CopelandRule(sb.CopelandAlpha(0, 1)),
    "copeland1/2": lambda m, k: sb.CopelandRule(sb.CopelandAlpha(1, 2)),
    "copeland1": lambda m, k: sb.CopelandRule(sb.CopelandAlpha(1, 1)),
}
ALPHAS = (sb.CopelandAlpha(0, 1), sb.CopelandAlpha(1, 2), sb.CopelandAlpha(1, 1))
# Price increments: 0-1, where many vectors tie; up to 6; and steps of
# about 2**57, so that 32 shifts bring the price total near 2**62.
INCREMENTS = {"tied": (0, 1), "small": tuple(range(7)), "huge": (0, 2**57 - 1, 2**57)}


def answer(call):
    try:
        return call()
    except sb.Infeasible as exc:
        return repr(exc)


def assert_same_answer(call):
    got = answer(call)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_cheapest", oracle_reference.cheapest)
        assert got == answer(call)


@st.composite
def shift_instances(draw, rule, large):
    """A shift instance under ``rule``.  A large one has 7-8 voters and 5
    candidates, each voter able to shift the preferred candidate by 3 or
    more, so at least 4**7 vectors, more than one batch of ``_BLOCK``; a
    small one has 1-5 voters and 2-4 candidates.  Both run the head/tail
    split, as every search does.  A price drawn as None makes that shift
    and all larger ones unreachable."""
    m = 5 if large else draw(st.integers(2, 4))
    n = draw(st.integers(7, 8)) if large else draw(st.integers(1, 5))
    steps = INCREMENTS[draw(st.sampled_from(sorted(INCREMENTS)))]
    voters, costs = [], []
    for _ in range(n):
        rivals = list(draw(st.permutations(range(1, m))))
        at = draw(st.integers(3, m - 1)) if large else draw(st.integers(0, m - 1))
        voters.append(tuple(rivals[:at] + [0] + rivals[at:]))
        prices, acc = [], 0
        for shift in range(1, at + 1):
            if draw(st.integers(0, 9)) == 0 and not (large and shift <= 3):
                prices += [None] * (at + 1 - shift)
                break
            acc += draw(st.sampled_from(steps))
            prices.append(acc)
        costs.append(sb.CostFunction(tuple(prices)))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(n)) if draw(st.booleans()) else None
    candidates = ("p",) + tuple(f"c{c}" for c in range(1, m))
    election = sb.Election(candidates, tuple(voters), weights)
    return sb.ShiftBriberyInstance(election, tuple(costs), RULES[rule](m, draw(st.integers(1, m))))


@st.composite
def micro_instances(draw, large):
    """A microbribery instance of random antisymmetric tables.  A large one
    has 4 voters, 5 candidates and every flip available, so 2**16 subsets;
    in a small one a flip is unavailable with probability 1/5."""
    m = 5 if large else draw(st.integers(2, 4))
    n = 4 if large else draw(st.integers(1, 4))
    steps = INCREMENTS[draw(st.sampled_from(sorted(INCREMENTS)))]
    tables, costs = [], []
    for _ in range(n):
        table = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                table[a][b] = draw(st.sampled_from((1, -1)))
                table[b][a] = -table[a][b]
        tables.append(tuple(map(tuple, table)))
        prices = {}
        for c in range(1, m):
            if large or draw(st.integers(0, 4)):
                prices[c] = draw(st.sampled_from(steps))
        costs.append(sb.FlipCostFunction(prices))
    return sb.MicrobriberyInstance(tuple(tables), tuple(costs))


@pytest.mark.parametrize("large", (False, True), ids=("small", "large"))
@pytest.mark.parametrize("rule", sorted(RULES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_shift_opt_matches_the_block_scan(rule, large, data):
    inst = data.draw(shift_instances(rule, large))
    assert_same_answer(lambda: sb.exact_shift_opt(inst))


@pytest.mark.parametrize("large", (False, True), ids=("small", "large"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cover_opt_matches_the_block_scan(large, data):
    inst = data.draw(shift_instances("maximin", large))
    m = inst.num_candidates
    targets = data.draw(st.lists(st.integers(0, 3), min_size=m - 1, max_size=m - 1))
    assert_same_answer(lambda: sb.exact_cover_opt(inst, targets))


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("large", (False, True), ids=("small", "large"))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_micro_opt_matches_the_block_scan(alpha, large, data):
    m_inst = data.draw(micro_instances(large))
    assert_same_answer(lambda: sb.exact_micro_opt(m_inst, alpha))


def batch_sizes(call) -> list:
    """The number of rows of each batch that ``_cheapest`` tests in ``call``."""
    batches = []
    original = oracle._cheapest

    def recorded(prices, deltas, base, accept):
        def counted(rows):
            batches.append(len(rows))
            return accept(rows)

        return original(prices, deltas, base, counted)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_cheapest", recorded)
        call()
    return batches


@pytest.mark.parametrize(
    "rule,cost,witness",
    [
        ("borda", 2, (3, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
        ("copeland1/2", 4, (0, 0, 0, 0, 1, 0, 1, 0, 0, 0)),
        ("maximin", 4, (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    ],
)
def test_rounds_test_few_of_many_vectors(rule, cost, witness):
    # the instance CI solves: 86,400 vectors, prices up to 10 a shift
    inst = sb.gen_random(4, 10, 7, 10, rule=RULES[rule](7, 1))
    found = []
    batches = batch_sizes(lambda: found.append(sb.exact_shift_opt(inst)))
    assert found == [(cost, sb.ShiftAction(witness))]
    assert max(batches) <= oracle._BLOCK
    assert sum(batches) < 86_400 // 100


def test_no_batch_holds_more_than_a_block():
    # an infeasible search tests every one of its 6**6 vectors: voter 0,
    # of weight 100, ranks the preferred candidate last and takes no bribe
    voters = ((1, 2, 3, 4, 5, 0),) * 7
    costs = (sb.CostFunction((None,) * 5),) + (sb.CostFunction((1, 1, 2, 2, 3)),) * 6
    election = sb.Election(tuple("pabcde"), voters, (100,) + (1,) * 6)
    inst = sb.ShiftBriberyInstance(election, costs, sb.ScoringRule(sb.borda(6)))
    batches = batch_sizes(lambda: pytest.raises(sb.Infeasible, sb.exact_shift_opt, inst))
    assert max(batches) <= oracle._BLOCK
    assert sum(batches) == 6**6


@pytest.mark.parametrize("bribable", (True, False), ids=("full-shift", "infeasible"))
def test_thresholds_stop_at_the_largest_cost(bribable):
    # prices summing to just below 2**63: only the full shift of every voter
    # meets the targets, so the thresholds double up to the largest cost,
    # and 2x + 1 past it would not fit in 64 bits; a voter who takes no
    # bribe leaves no vector meeting them
    shiftable = 7 if bribable else 6
    step = (2**63 - 1) // (5 * shiftable)
    costs = (sb.CostFunction(tuple(step * k for k in range(1, 6))),) * shiftable
    costs = (sb.CostFunction((None,) * 5),) * (7 - shiftable) + costs
    election = sb.Election(tuple("pabcde"), ((1, 2, 3, 4, 5, 0),) * 7)
    inst = sb.ShiftBriberyInstance(election, costs, sb.MAXIMIN)
    if bribable:
        assert sb.exact_cover_opt(inst, (7,) * 5) == (35 * step, sb.ShiftAction((5,) * 7))
    assert_same_answer(lambda: sb.exact_cover_opt(inst, (7,) * 5))


@pytest.mark.parametrize("rule", ("borda", "copeland1/2", "maximin"))
def test_wide_voters_match_the_block_scan(rule):
    # 3 voters ranking the preferred candidate last of 70: the tail's 4,900
    # vectors hold their rows in two groups, and a batch of rows 70 wide
    # holds fewer than _BLOCK vectors
    rng = random.Random(rule)
    voters, costs = [], []
    for _ in range(3):
        voters.append(tuple(rng.sample(range(1, 70), 69)) + (0,))
        steps = [rng.randint(0, 10) for _ in range(69)]
        costs.append(sb.CostFunction(tuple(sum(steps[: k + 1]) for k in range(69))))
    election = sb.Election(("p",) + tuple(f"c{c}" for c in range(1, 70)), tuple(voters))
    inst = sb.ShiftBriberyInstance(election, tuple(costs), RULES[rule](70, 1))
    batches = batch_sizes(lambda: assert_same_answer(lambda: sb.exact_shift_opt(inst)))
    assert max(batches) <= oracle._GATHER_BLOCK // 70
