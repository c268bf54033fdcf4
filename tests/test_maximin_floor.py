"""The per-rival price floors that order and skip ``solve_maximin_shift``'s
target scores, and the solver against the reference loop that runs every
one."""

import random
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from maximin_reference import (
    copeland_pools,
    lexsort_passing,
    move_lists,
    pass_floors,
    passing,
    solve_maximin_all_targets,
    target_deficits,
)
from shiftbribe import condorcet_solvers
from shiftbribe.condorcet_solvers import _cover, _passing


def edge_instance(seed, rule=sb.MAXIMIN):
    """Seeded unweighted instance (maximin by default) with 1-60 voters and
    2-10 candidates that the preferred candidate does not already win; some
    voters' prices are zeroed, cut to an unreachable suffix, or unreachable
    throughout, so some targets cannot be met."""
    rng = random.Random(seed * 7727 + 3)
    n, m = rng.randint(1, 60), rng.randint(2, 10)
    max_price = rng.choice((1, 5, 50))
    draw = seed
    inst = sb.gen_random(draw, n, m, max_price, rule=rule)
    while 0 in sb.winners(sb.rule_scores(inst.election, inst.rule)):
        draw += 1000
        inst = sb.gen_random(draw, n, m, max_price, rule=rule)
    costs = []
    for cf in inst.costs:
        prices = list(cf.prices)
        edit = rng.random()
        if prices and edit < 0.04:
            prices = [0] * len(prices)
        elif prices and edit < 0.35:
            cut = rng.randint(0, len(prices) - 1)
            prices = prices[:cut] + [None] * (len(prices) - cut)
        costs.append(sb.CostFunction(tuple(prices)))
    return sb.ShiftBriberyInstance(inst.election, tuple(costs), inst.rule)


def instance(orders, prices, rule=sb.MAXIMIN):
    names = tuple(f"c{i}" for i in range(len(orders[0])))
    costs = tuple(sb.CostFunction(ps) for ps in prices)
    return sb.ShiftBriberyInstance(sb.Election(names, tuple(orders)), costs, rule)


def outcome(solve, inst):
    try:
        cost, action = solve(inst)
    except sb.Infeasible as exc:
        return repr(exc)
    return cost, tuple(action.shifts)


def passing_floors(inst):
    """The solver's floors: the prefix sums of each rival's ``_passing`` prices."""
    return [list(accumulate(ps, initial=0)) for ps, _ in _passing(inst)]


def cover_runs(inst):
    """Per target score: the deficits, the floors, and the greedy's cost
    or None where it raised ``Infeasible``."""
    prices, above = move_lists(inst)
    floors = passing_floors(inst)
    for deficits in target_deficits(inst):
        try:
            shifts = _cover(prices, above, list(deficits))
        except sb.Infeasible:
            yield deficits, floors, None
            continue
        yield deficits, floors, sum(p[t] for p, t in zip(prices, shifts))


def test_matches_all_targets_loop():
    outcomes = [
        (outcome(sb.solve_maximin_shift, inst), outcome(solve_maximin_all_targets, inst))
        for inst in map(edge_instance, range(150))
    ]
    assert [seed for seed, (got, want) in enumerate(outcomes) if got != want] == []
    assert any(isinstance(want, str) for _, want in outcomes)
    assert sum(want[0] > 0 for _, want in outcomes if not isinstance(want, str)) >= 30


def test_matches_all_targets_loop_on_the_ladder():
    inst = sb.gen_random(1, 200, 20, 50, rule=sb.MAXIMIN)
    assert sb.solve_maximin_shift(inst) == solve_maximin_all_targets(inst)


@pytest.mark.parametrize(
    "args, runs, targets", [((1, 200, 20, 50), 7, 110), ((2, 100, 12, 50), 1, 53)]
)
def test_priced_out_targets_are_not_run(monkeypatch, args, runs, targets):
    # The counts pin the floor itself: a weaker floor runs more targets.
    inst = sb.gen_random(*args, rule=sb.MAXIMIN)
    calls = []

    def counted(*cover_args):
        calls.append(cover_args)
        return _cover(*cover_args)

    monkeypatch.setattr(condorcet_solvers, "_cover", counted)
    sb.solve_maximin_shift(inst)
    assert sum(1 for _ in target_deficits(inst)) == targets
    assert len(calls) == runs


@pytest.mark.parametrize(
    "inst, want",
    [
        # one candidate: no rival, every floor is 0
        (instance([(0,), (0,)], [(), ()]), (0, (0, 0))),
        # the preferred candidate already wins 2-1
        (instance([(0, 1), (0, 1), (1, 0)], [(), (), (3,)]), (0, (0, 0, 0))),
        # no shift can be bought
        (
            instance([(1, 0), (1, 0)], [(None,), (None,)]),
            "Infeasible('no successful shift action exists')",
        ),
    ],
)
def test_edge_cases_match_all_targets_loop(inst, want):
    assert outcome(sb.solve_maximin_shift, inst) == want
    assert outcome(solve_maximin_all_targets, inst) == want


def test_equal_costs_go_to_the_smaller_target():
    # Targets 0 and 1 (rows from the current score up) both win at the
    # least cost with different actions, and target 1 has the lower floor,
    # so it is covered first; target 0, at a floor equal to that cost, must
    # still be covered and replace it.
    inst = sb.gen_random(266, 14, 4, 5, rule=sb.MAXIMIN)
    prices, above = move_lists(inst)
    runs = []
    for deficits, floors, cost in islice(cover_runs(inst), 2):
        floor = max(f[d] for d, f in zip(deficits, floors))
        runs.append((floor, cost, _cover(prices, above, deficits)))
    (floor0, cost0, shifts0), (floor1, cost1, shifts1) = runs
    assert (floor1, cost0) == (1, 2) and floor0 == cost1 == cost0 and shifts0 != shifts1
    want = solve_maximin_all_targets(inst)
    assert want == (cost0, sb.ShiftAction(tuple(shifts0)))
    assert sb.solve_maximin_shift(inst) == want


def test_targets_above_the_best_cost_are_not_covered(monkeypatch):
    covered = 0
    for seed in range(150):
        inst = edge_instance(seed)
        floors = passing_floors(inst)
        calls = []

        def counted(*cover_args):
            calls.append(max(f[d] for d, f in zip(cover_args[2], floors)))
            return _cover(*cover_args)

        monkeypatch.setattr(condorcet_solvers, "_cover", counted)
        try:
            cost, _ = sb.solve_maximin_shift(inst)
        except sb.Infeasible:
            continue
        assert max(calls) <= cost, seed
        covered += len(calls)
    assert covered >= 150


def test_greedy_cost_is_at_least_every_floor():
    checked = 0
    for inst in map(edge_instance, range(40)):
        for deficits, floors, cost in cover_runs(inst):
            if cost is not None:
                assert all(cost >= f[d] for d, f in zip(deficits, floors))
                checked += 1
    assert checked >= 300


def test_greedy_infeasible_exactly_when_a_floor_is_missing():
    seen = set()
    for inst in map(edge_instance, range(40)):
        for deficits, floors, cost in cover_runs(inst):
            missing = any(d >= len(f) for d, f in zip(deficits, floors))
            assert missing == (cost is None)
            seen.add(missing)
    assert seen == {False, True}


def test_floor_is_the_greedy_cost_with_one_rival():
    # With one rival every move removes at most one unit, so the greedy
    # buys the d cheapest passes, which is the floor itself.
    checked = 0
    for seed in range(200):
        inst = edge_instance(seed)
        if inst.num_candidates != 2:
            continue
        for deficits, floors, cost in cover_runs(inst):
            if cost is not None:
                assert cost == floors[1][deficits[1]]
                checked += 1
    assert checked >= 50



def test_passing_reproduces_the_old_groupings(monkeypatch):
    # The floors of the maximin loop and the flip pools of the Copeland
    # loop, on the edge instances and on Copeland draws of the same seeds.
    rule = sb.CopelandRule(sb.CopelandAlpha(1, 2))
    fed = []
    original = condorcet_solvers._solve_copeland

    def recorded(tally, pools, alpha, **known):
        # each side's prices and voters, zipped back into (price, voter) flips
        fed.append([tuple(list(zip(*side)) for side in pool) for pool in pools])
        return original(tally, pools, alpha, **known)

    monkeypatch.setattr(condorcet_solvers, "_solve_copeland", recorded)
    zero_prices = unreachable = 0
    for seed in range(150):
        for inst in (edge_instance(seed), edge_instance(seed, rule)):
            m = inst.num_candidates
            prices, above = move_lists(inst)
            assert passing_floors(inst) == pass_floors(prices, above, m), seed
            fed.clear()
            try:
                sb.solve_copeland_shift(sb.ShiftBriberyInstance(inst.election, inst.costs, rule))
            except sb.Infeasible:
                pass
            assert fed == [copeland_pools(inst)], seed
            zero_prices += any(cf.prices and cf.prices[-1] == 0 for cf in inst.costs)
            unreachable += any(None in cf.prices for cf in inst.costs)
    assert zero_prices >= 30 and unreachable >= 150


I64_MAX = (1 << 63) - 1


@st.composite
def pool_instances(draw):
    """Unweighted instances of 1-6 candidates and 1-8 voters whose prices
    are often equal (many zeros) and reach 2**63 - 1, some tables cut to an
    ``inf`` suffix; voters that rank the preferred candidate first have
    none."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    orders = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    price = st.one_of(st.integers(0, 2), st.integers(0, I64_MAX))
    prices = []
    for order in orders:
        cap = order.index(0)
        finite = draw(st.integers(0, cap))
        table = sorted(draw(st.lists(price, min_size=finite, max_size=finite)))
        prices.append(tuple(table) + (None,) * (cap - finite))
    return instance(orders, prices)


@settings(max_examples=400, deadline=None)
@given(pool_instances())
@example(instance([(0,)], [()]))  # one candidate: no rival to pass
@example(instance([(1, 0), (0, 1), (1, 0), (1, 0)], [(0,), (), (0,), (None,)]))
@example(instance([(2, 1, 0), (1, 2, 0), (2, 0, 1)], [(0, 0), (0, 4), (None,)]))
def test_passing_matches_the_tuple_loop(inst):
    # Equal prices, zeros among them, keep the smaller voter first.
    prices, above = move_lists(inst)
    want = passing(prices, above, inst.num_candidates)
    want = [([p for p, _ in ps], [v for _, v in ps]) for ps in want]
    assert _passing(inst) == want


@pytest.mark.parametrize("m", [255, 256, 300])
def test_passing_matches_the_lexsort_where_the_key_type_widens(m):
    # rivals are sorted as uint8 keys up to m = 255 and as uint16 from
    # m = 256; every voter has the same price table, so each rival's moves
    # tie on price and must stay in voter order
    rng = random.Random(m)
    orders = [tuple(rng.sample(range(m), m)) for _ in range(6)]
    orders.append(tuple(range(m - 1, -1, -1)))  # the preferred candidate last
    prices = [tuple(min(t // 3, 5) for t in range(order.index(0))) for order in orders]
    inst = instance(orders, prices)
    pools = _passing(inst)
    assert pools == lexsort_passing(inst)
    ties = [c for c, (ps, _) in enumerate(pools) if len(set(ps)) < len(ps)]
    assert len(ties) > m // 2 and ties[-1] >= 250


@settings(max_examples=200, deadline=None)
@given(pool_instances())
def test_passing_matches_the_lexsort(inst):
    assert _passing(inst) == lexsort_passing(inst)
