"""Copeland microbribery, the shift reduction, and the maximin greedy."""

import math
import random

import pytest

import shiftbribe as sb
from conftest import flips_win, gen_random_micro

ALPHAS = (sb.CopelandAlpha(0, 1), sb.CopelandAlpha(1, 2), sb.CopelandAlpha(1, 1))


def copeland_instance(orders, prices, alpha=None):
    m = len(orders[0])
    names = tuple(f"x{i}" for i in range(m))
    e = sb.Election(names, tuple(tuple(o) for o in orders))
    costs = tuple(sb.CostFunction(tuple(p)) for p in prices)
    rule = sb.CopelandRule(alpha or sb.CopelandAlpha(1, 2))
    return sb.ShiftBriberyInstance(e, costs, rule)


class TestMicrobriberyInstance:
    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            sb.MicrobriberyInstance(
                (((0, 1), (1, 0)),), (sb.FlipCostFunction({}),)
            )

    def test_rejects_flip_on_preferred(self):
        with pytest.raises(ValueError, match="rival"):
            sb.FlipCostFunction({0: 1})

    def test_rejects_non_integer_flip_price(self):
        # the oracle's int64 rows would truncate 2.5 to 2
        with pytest.raises(ValueError, match="rival 1 is not an integer"):
            sb.FlipCostFunction({1: 2.5})

    @pytest.mark.parametrize("rival", [7, 2, -1])
    def test_rejects_flip_price_against_absent_rival(self, rival):
        # on 2 candidates only rival 1 exists: the solvers would ignore the
        # other price while flip_set_cost charged it
        table = ((0, 1), (-1, 0))
        want = f"voter 0: flip price for rival {rival}, not in 1..1"
        with pytest.raises(ValueError, match=want):
            sb.MicrobriberyInstance((table,), (sb.FlipCostFunction({1: 3, rival: 1}),))

    def test_flip_set_cost_refuses_absent_rival(self):
        table = ((0, 1), (-1, 0))
        m_inst = sb.MicrobriberyInstance((table,), (sb.FlipCostFunction({1: 3}),))
        assert sb.flip_set_cost(m_inst, sb.FlipSet(({1},))) == 3
        with pytest.raises(ValueError, match="voter 0: flip against rival 7 is unavailable"):
            sb.flip_set_cost(m_inst, sb.FlipSet(({7},)))


class TestSolveCopelandMicro:
    def test_already_winner_costs_nothing(self):
        table = ((0, 1), (-1, 0))
        m_inst = sb.MicrobriberyInstance((table,), (sb.FlipCostFunction({1: 5}),))
        cost, flips = sb.solve_copeland_micro(m_inst, sb.CopelandAlpha(1, 2))
        assert cost == 0
        assert all(not s for s in flips.flips)

    def test_two_losing_pairwise_unit_flips(self):
        # three voters, the preferred candidate loses both pairwise contests
        # 1-2; a single flip already forces a three-way tie at the top, so
        # the exhaustively verified optimum is 1
        t_win = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
        t_lose = ((0, -1, -1), (1, 0, 1), (1, -1, 0))
        tables = (t_lose, t_lose, t_win)
        costs = tuple(sb.FlipCostFunction({1: 1, 2: 1}) for _ in range(3))
        m_inst = sb.MicrobriberyInstance(tables, costs)
        cost, flips = sb.solve_copeland_micro(m_inst, sb.CopelandAlpha(0, 1))
        oracle_cost, _ = sb.exact_micro_opt(m_inst, sb.CopelandAlpha(0, 1))
        assert cost == oracle_cost == 1

    def test_deep_deficit_needs_two_flips(self):
        # five voters, the preferred candidate loses both contests 1-4;
        # two flips against one rival force a decisive tie at the top
        t_win = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
        t_lose = ((0, -1, -1), (1, 0, 1), (1, -1, 0))
        tables = (t_lose, t_lose, t_lose, t_lose, t_win)
        costs = tuple(sb.FlipCostFunction({1: 1, 2: 1}) for _ in range(5))
        m_inst = sb.MicrobriberyInstance(tables, costs)
        cost, _ = sb.solve_copeland_micro(m_inst, sb.CopelandAlpha(0, 1))
        oracle_cost, _ = sb.exact_micro_opt(m_inst, sb.CopelandAlpha(0, 1))
        assert cost == oracle_cost == 2

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_oracle_on_random_instances(self, alpha):
        for seed in range(120):
            rng = random.Random(seed * 31 + 5)
            n = rng.randint(1, 5)
            m = rng.randint(2, 5)
            if n * (m - 1) > 16:
                continue
            m_inst = gen_random_micro(seed, n, m, 5)
            try:
                cost, flips = sb.solve_copeland_micro(m_inst, alpha)
            except sb.Infeasible:
                with pytest.raises(sb.Infeasible):
                    sb.exact_micro_opt(m_inst, alpha)
                continue
            assert sb.flip_set_cost(m_inst, flips) == cost
            assert cost == sb.exact_micro_opt(m_inst, alpha)[0], seed

    def test_flip_set_makes_preferred_win(self):
        for seed in range(40):
            m_inst = gen_random_micro(seed + 900, 3, 4, 4, infinite_prob=0.0)
            alpha = ALPHAS[seed % 3]
            _, flips = sb.solve_copeland_micro(m_inst, alpha)
            assert flips_win(m_inst, alpha, flips.flips), seed


class TestShiftToMicro:
    def test_preferred_on_top_means_no_flips(self):
        inst = copeland_instance([(0, 1, 2)], [()])
        micro = sb.shift_to_micro(inst)
        assert micro.flip_costs[0].costs == {}

    def test_prices_by_distance(self):
        # order c2 > c5 > p > ...: flipping the nearest candidate above
        # costs the one-step price, the next one the two-step price
        inst = copeland_instance([(2, 5, 0, 1, 3, 4)], [(4, 9)])
        micro = sb.shift_to_micro(inst)
        fc = micro.flip_costs[0]
        assert fc.price(5) == 4
        assert fc.price(2) == 9
        for other in (1, 3, 4):
            assert fc.price(other) is None

    def test_tables_match_orders(self):
        inst = copeland_instance([(1, 0, 2)], [(2,)])
        table = sb.shift_to_micro(inst).tables[0]
        assert table[1][0] == 1 and table[0][1] == -1
        assert table[0][2] == 1 and table[1][2] == 1

    def test_unreachable_prices_stay_unavailable(self):
        inst = copeland_instance([(1, 2, 0)], [(3, None)])
        fc = sb.shift_to_micro(inst).flip_costs[0]
        assert fc.price(2) == 3
        assert fc.price(1) is None


class TestMicroToShift:
    def test_empty_flips(self):
        inst = copeland_instance([(1, 0, 2), (0, 1, 2)], [(1,), ()])
        flips = sb.FlipSet((frozenset(), frozenset()))
        assert tuple(sb.micro_to_shift(inst, flips).shifts) == (0, 0)

    def test_depth_of_deepest_flip(self):
        inst = copeland_instance([(3, 2, 1, 0)], [(1, 2, 3)])
        flips = sb.FlipSet((frozenset({2}),))  # second-nearest above
        assert tuple(sb.micro_to_shift(inst, flips).shifts) == (2,)

    def test_flip_below_preferred_rejected(self):
        inst = copeland_instance([(1, 0, 2)], [(1,)])
        with pytest.raises(ValueError, match="not above"):
            sb.micro_to_shift(inst, sb.FlipSet((frozenset({2}),)))


class TestSolveCopelandShift:
    def test_already_winner(self):
        inst = copeland_instance([(0, 1, 2)], [()])
        assert sb.solve_copeland_shift(inst)[0] == 0

    def test_single_unit_shift_is_tight(self):
        inst = copeland_instance([(1, 0, 2)], [(1,)])
        cost, action = sb.solve_copeland_shift(inst)
        assert cost == 1
        assert tuple(action.shifts) == (1,)

    def test_requires_copeland_rule(self, thm6_k1):
        with pytest.raises(sb.IncompatibleRule):
            sb.solve_copeland_shift(thm6_k1)

    def test_rejects_weighted(self):
        e = sb.Election(("p", "c"), ((1, 0),), (2,))
        inst = sb.ShiftBriberyInstance(
            e, (sb.CostFunction((1,)),), sb.CopelandRule(sb.CopelandAlpha(1, 2))
        )
        with pytest.raises(sb.IncompatibleRule):
            sb.solve_copeland_shift(inst)

    def test_m_approximation_on_random_instances(self):
        for seed in range(100):
            rng = random.Random(seed + 400)
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            alpha = ALPHAS[seed % 3]
            inst = sb.gen_random(seed, n, m, 6, rule=sb.CopelandRule(alpha))
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_copeland_shift(inst)
            assert sb.is_successful(inst, action)
            assert opt <= cost <= m * opt, (seed, opt, cost, m)

    def test_flip_cost_chain(self):
        # the flip set induced by an optimal shift action costs at least the
        # optimal flip set and at most m times the optimal shift action
        for seed in range(40):
            rng = random.Random(seed + 4000)
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            alpha = ALPHAS[seed % 3]
            inst = sb.gen_random(seed + 4000, n, m, 6, rule=sb.CopelandRule(alpha))
            micro = sb.shift_to_micro(inst)
            micro_cost, _ = sb.solve_copeland_micro(micro, alpha)
            opt, witness = sb.exact_shift_opt(inst)
            induced = []
            for i in range(n):
                above = sb.condorcet_solvers._candidates_above(inst)[i]
                t = min(witness[i], len(above))
                induced.append(frozenset(above[:t]))
            induced_cost = sb.flip_set_cost(micro, sb.FlipSet(tuple(induced)))
            assert micro_cost <= induced_cost <= m * opt


class TestCopelandCore:
    def test_both_feeds_agree(self):
        """The tally feed of ``solve_copeland_shift`` answers like the table
        feed: shift_to_micro, solve_copeland_micro, micro_to_shift."""
        for seed in range(400):
            rng = random.Random(seed * 37 + 11)
            n, m = rng.randint(1, 12), rng.randint(1, 7)
            alpha = ALPHAS[seed % 3]
            inst = sb.gen_random(seed, n, m, rng.choice((1, 4, 30)), rule=sb.CopelandRule(alpha))
            costs = []
            for cf in inst.costs:
                prices = list(cf.prices)
                if prices and rng.random() < 0.2:
                    cut = rng.randint(0, len(prices) - 1)
                    prices[cut:] = [None] * (len(prices) - cut)
                costs.append(sb.CostFunction(tuple(prices)))
            inst = sb.ShiftBriberyInstance(inst.election, tuple(costs), inst.rule)
            try:
                _, flips = sb.solve_copeland_micro(sb.shift_to_micro(inst), alpha)
            except sb.Infeasible:
                with pytest.raises(sb.Infeasible):
                    sb.solve_copeland_shift(inst)
                continue
            action = sb.micro_to_shift(inst, flips)
            assert sb.solve_copeland_shift(inst) == (sb.total_cost(inst, action), action), seed

    def test_patterns_sharing_one_program(self, monkeypatch):
        # Two voters rank 1 > 0 > 2.  With alpha = 0 the patterns (1 win,
        # 0 ties) and (1 win, 1 tie) both score 1, so they allow the same
        # outcomes and share one program, but need different entries of
        # it: beating both rivals costs 3 + 2 and the optimum is tying
        # rival 1 (voter 1, price 1) while keeping the win over rival 2.
        table = ((0, -1, 1), (1, 0, 1), (-1, -1, 0))
        costs = (sb.FlipCostFunction({1: 2, 2: 2}), sb.FlipCostFunction({1: 1, 2: 0}))
        m_inst = sb.MicrobriberyInstance((table, table), costs)
        alpha = sb.CopelandAlpha(0, 1)
        programs = []
        original = sb.condorcet_solvers._rival_dp

        def counted(options, allowed):
            programs.append(original(options, allowed))
            return programs[-1]

        monkeypatch.setattr(sb.condorcet_solvers, "_rival_dp", counted)
        cost, flips = sb.solve_copeland_micro(m_inst, alpha)
        assert (cost, flips.flips) == (1, (frozenset(), frozenset({1})))
        assert cost == sb.exact_micro_opt(m_inst, alpha)[0]
        # patterns (1, 0), (1, 1) and (2, 0); the first two share a program
        assert len(programs) == 2
        assert programs[0][(1, 0)][0] == 5 and programs[0][(1, 1)][0] == 1


def test_one_pairwise_tally_per_solve(monkeypatch):
    """Maximin reads its scores off the shift table's tally; Copeland takes
    one tally for the core and one more inside ``is_successful``."""
    original = sb.pairwise_tally
    calls = []

    def counted(election):
        calls.append(election)
        return original(election)

    for module in (sb.elections, sb.bribery, sb.condorcet_solvers, sb.oracle):
        if getattr(module, "pairwise_tally", None) is original:
            monkeypatch.setattr(module, "pairwise_tally", counted)
    rules = {sb.MAXIMIN: 1, sb.CopelandRule(sb.CopelandAlpha(1, 2)): 2}
    for rule, per_solve in rules.items():
        for seed in range(10):
            inst = sb.gen_random(seed, 8, 5, 10, rule=rule)
            calls.clear()
            solve = sb.solve_maximin_shift if rule == sb.MAXIMIN else sb.solve_copeland_shift
            solve(inst)
            assert len(calls) == per_solve, (rule, seed)


class TestCoverTargetsGreedy:
    def test_zero_targets(self):
        inst = copeland_instance([(1, 0, 2)], [(1,)])
        assert tuple(sb.cover_targets_greedy(inst, (0, 0)).shifts) == (0,)

    def test_single_forced_move(self):
        e = sb.Election(("p", "c"), ((1, 0),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((3,)),), sb.MAXIMIN)
        assert tuple(sb.cover_targets_greedy(inst, (1,)).shifts) == (1,)

    def test_capped_targets_always_feasible(self):
        # demands beyond the voter count are clamped, so shifting to the top
        # everywhere always meets them
        e = sb.Election(("p", "c"), ((1, 0),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((3,)),), sb.MAXIMIN)
        action = sb.cover_targets_greedy(inst, (99,))
        assert tuple(action.shifts) == (1,)

    def test_unreachable_prices_can_make_targets_infeasible(self):
        e = sb.Election(("p", "c"), ((1, 0),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((None,)),), sb.MAXIMIN)
        with pytest.raises(sb.Infeasible):
            sb.cover_targets_greedy(inst, (1,))

    @pytest.mark.parametrize("targets", [(0.5, 0), (1.0, 0), (1, 0.0)])
    def test_rejects_non_integer_targets(self, targets):
        # a float deficit of 0.5 drops to -0.5 and never reads as met
        e = sb.Election(("p", "c1", "c2"), ((1, 0, 2),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((1,)),), sb.MAXIMIN)
        assert tuple(sb.cover_targets_greedy(inst, (1, 0)).shifts) == (1,)
        with pytest.raises(ValueError, match="integers"):
            sb.cover_targets_greedy(inst, targets)

    def test_postcondition_on_random_instances(self):
        for seed in range(80):
            rng = random.Random(seed + 1300)
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            inst = sb.gen_random(seed + 60, n, m, 6, rule=sb.MAXIMIN)
            targets = tuple(rng.randint(0, n + 1) for _ in range(m - 1))
            action = sb.cover_targets_greedy(inst, targets)
            before = sb.pairwise_tally(inst.election)
            after = sb.pairwise_tally(sb.apply_shift(inst.election, action.shifts))
            for c in range(1, m):
                req = min(before.n_matrix[0][c] + targets[c - 1], n)
                assert after.n_matrix[0][c] >= req

    def test_harmonic_factor_against_covering_oracle(self):
        for seed in range(60):
            rng = random.Random(seed + 2100)
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            inst = sb.gen_random(seed + 777, n, m, 6, rule=sb.MAXIMIN)
            targets = tuple(rng.randint(0, n) for _ in range(m - 1))
            action = sb.cover_targets_greedy(inst, targets)
            greedy_cost = sb.total_cost(inst, action)
            opt_cost, _ = sb.exact_cover_opt(inst, targets)
            before = sb.pairwise_tally(inst.election)
            deficit = sum(
                max(0, min(before.n_matrix[0][c] + targets[c - 1], n) - before.n_matrix[0][c])
                for c in range(1, m)
            )
            bound = 1 + math.log(deficit) if deficit > 0 else 1
            assert greedy_cost <= bound * opt_cost + 1e-9, (seed, greedy_cost, opt_cost)


class TestSolveMaximinShift:
    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.MAXIMIN)
        assert sb.solve_maximin_shift(inst)[0] == 0

    def test_one_missing_pairwise_vote(self):
        e = sb.Election(
            ("p", "c1", "c2"), ((1, 0, 2), (1, 2, 0), (0, 2, 1))
        )
        costs = (sb.CostFunction((1,)), sb.CostFunction((1, 2)), sb.CostFunction(()))
        inst = sb.ShiftBriberyInstance(e, costs, sb.MAXIMIN)
        opt, _ = sb.exact_shift_opt(inst)
        assert opt == 1
        cost, action = sb.solve_maximin_shift(inst)
        assert cost == 1
        assert sb.is_successful(inst, action)

    def test_requires_maximin_rule(self, thm6_k1):
        with pytest.raises(sb.IncompatibleRule):
            sb.solve_maximin_shift(thm6_k1)

    def test_rejects_weighted(self):
        e = sb.Election(("p", "c"), ((1, 0),), (2,))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((1,)),), sb.MAXIMIN)
        with pytest.raises(sb.IncompatibleRule):
            sb.solve_maximin_shift(inst)

    def test_success_and_oracle_lower_bound(self):
        for seed in range(100):
            rng = random.Random(seed + 1700)
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            inst = sb.gen_random(seed, n, m, 6, rule=sb.MAXIMIN)
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_maximin_shift(inst)
            assert sb.is_successful(inst, action)
            assert opt <= cost, (seed, opt, cost)
            assert cost <= m * opt, (seed, opt, cost)  # weak sanity envelope


def maximin_instance(orders, prices):
    m = len(orders[0])
    e = sb.Election(tuple(f"x{i}" for i in range(m)), tuple(tuple(o) for o in orders))
    return sb.ShiftBriberyInstance(e, tuple(sb.CostFunction(p) for p in prices), sb.MAXIMIN)


class TestGreedyPicks:
    def test_ties_prefer_smaller_voter_then_smaller_shift(self):
        # Only rival 1 has a deficit.  Voter 0 passes it for 3 by shifting
        # 1 or 2 (the second also passes rival 2, which has none), and
        # voter 1 for 3 by shifting 1: three moves at 3 per unit.
        inst = maximin_instance([(2, 1, 0), (1, 0, 2)], [(3, 3), (3,)])
        assert tuple(sb.cover_targets_greedy(inst, (1, 0)).shifts) == (1, 0)

    def test_ratios_compare_exactly(self):
        # Shifting voter 0 by 2 costs 2**60 + 1 per unit and voter 1 by 2
        # costs 2**60 per unit; as floats both are 2**60.
        inst = maximin_instance(
            [(2, 1, 0), (2, 1, 0)], [(2**61, 2**61 + 2), (2**61, 2**61)]
        )
        assert tuple(sb.cover_targets_greedy(inst, (1, 1)).shifts) == (0, 2)

    def test_stale_move_is_evaluated_again(self):
        # Round 1 buys voter 1 (1 per unit), which meets rival 1's deficit.
        # Voter 0's shift by 2 was 2 per unit while it passed two rivals in
        # deficit; now it passes one, for 4, and voter 2's 3 is cheaper.
        inst = maximin_instance([(2, 1, 0), (1, 0, 2), (2, 0, 1)], [(3, 4), (1,), (3,)])
        action = sb.cover_targets_greedy(inst, (1, 1))
        assert tuple(action.shifts) == (0, 1, 1)
        assert sb.total_cost(inst, action) == 4


class TestMaximinInt64Edge:
    def test_price_total_at_int64_limit(self):
        inst = maximin_instance([(1, 0), (1, 0)], [(1 << 62,), ((1 << 62) - 1,)])
        assert sb.solve_maximin_shift(inst) == ((1 << 62) - 1, sb.ShiftAction((0, 1)))
        assert tuple(sb.cover_targets_greedy(inst, (1,)).shifts) == (0, 1)

    def test_price_total_beyond_int64_raises(self):
        # The answer costs 2**62, but the shared table sums the largest
        # prices in int64.
        inst = maximin_instance([(1, 0), (1, 0)], [(1 << 62,), (1 << 62,)])
        with pytest.raises(OverflowError, match="total of the largest prices"):
            sb.solve_maximin_shift(inst)
        with pytest.raises(OverflowError, match="total of the largest prices"):
            sb.cover_targets_greedy(inst, (1,))
