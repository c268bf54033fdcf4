"""Brute-force oracles: exactness anchors, invariances, guards."""

import itertools
import random

import pytest

import shiftbribe as sb
from conftest import flips_win, gen_random_micro


class TestExactShiftOpt:
    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))
        assert sb.exact_shift_opt(inst) == (0, sb.ShiftAction((0,)))

    def test_theorem6_k1_optimum(self, thm6_k1):
        cost, action = sb.exact_shift_opt(thm6_k1)
        assert cost == 4
        assert sb.is_successful(thm6_k1, action)
        assert sb.total_cost(thm6_k1, action) == 4

    def test_lower_bounds_every_solver(self):
        for seed in range(30):
            inst = sb.gen_random(seed, 3, 3, 5)
            opt, _ = sb.exact_shift_opt(inst)
            assert opt <= sb.solve_two_pass(inst)[0]
            assert opt <= sb.solve_single_pass(inst)[0]
            assert opt <= sb.solve_bootstrap(inst)[0]

    def test_guard(self, monkeypatch):
        inst = sb.gen_random(0, 4, 4, 6)
        monkeypatch.setenv("SHIFTBRIBE_GUARD", "3")
        with pytest.raises(sb.GuardExceeded):
            sb.exact_shift_opt(inst)

    def test_cost_invariant_under_voter_permutation(self):
        for seed in range(20):
            rng = random.Random(seed)
            inst = sb.gen_random(seed, 4, 3, 5)
            perm = list(range(4))
            rng.shuffle(perm)
            permuted = sb.ShiftBriberyInstance(
                sb.Election(
                    inst.election.candidates,
                    tuple(inst.election.voters[i] for i in perm),
                    None,
                ),
                tuple(inst.costs[i] for i in perm),
                inst.rule,
            )
            assert sb.exact_shift_opt(inst)[0] == sb.exact_shift_opt(permuted)[0]

    def test_cost_monotone_under_price_decrease(self):
        for seed in range(20):
            rng = random.Random(seed + 19)
            inst = sb.gen_random(seed, 3, 4, 5)
            base, _ = sb.exact_shift_opt(inst)
            costs = list(inst.costs)
            hit = False
            for i, cf in enumerate(costs):
                if cf.cap and cf.prices[-1] is not None and cf.prices[-1] > 0:
                    lowered = tuple(
                        max(0, p - 1) if p is not None else None for p in cf.prices
                    )
                    costs[i] = sb.CostFunction(lowered)
                    hit = True
                    break
            if not hit:
                continue
            cheaper = sb.ShiftBriberyInstance(inst.election, tuple(costs), inst.rule)
            assert sb.exact_shift_opt(cheaper)[0] <= base

    def test_works_for_copeland_and_maximin(self):
        inst_c = sb.gen_random(3, 3, 3, 4, rule=sb.CopelandRule(sb.CopelandAlpha(1, 2)))
        cost, action = sb.exact_shift_opt(inst_c)
        assert sb.is_successful(inst_c, action)
        assert sb.total_cost(inst_c, action) == cost
        inst_m = sb.gen_random(3, 3, 3, 4, rule=sb.MAXIMIN)
        cost, action = sb.exact_shift_opt(inst_m)
        assert sb.is_successful(inst_m, action)

    def test_unreachable_shifts_are_skipped(self):
        e = sb.Election(("p", "a", "b"), ((0, 1, 2), (1, 2, 0)))
        inst = sb.ShiftBriberyInstance(
            e,
            (sb.CostFunction(()), sb.CostFunction((1, None))),
            sb.ScoringRule(sb.borda(3)),
        )
        # shifting the second voter by one ties the scores; by two is not
        # purchasable and must be skipped, not priced
        cost, action = sb.exact_shift_opt(inst)
        assert tuple(action.shifts) == (0, 1)
        assert cost == 1

    def test_infeasible_when_needed_shift_unreachable(self):
        e = sb.Election(("p", "a", "b"), ((1, 2, 0),))
        inst = sb.ShiftBriberyInstance(
            e, (sb.CostFunction((1, None)),), sb.ScoringRule(sb.borda(3))
        )
        with pytest.raises(sb.Infeasible):
            sb.exact_shift_opt(inst)
        with pytest.raises(sb.Infeasible):
            sb.solve_two_pass(inst)


def scoring_instance(alpha, votes, prices):
    m = len(alpha)
    e = sb.Election(("p", "a", "b", "c", "d")[:m], votes)
    rule = sb.ScoringRule(sb.ScoringVector(alpha))
    return sb.ShiftBriberyInstance(e, tuple(sb.CostFunction(p) for p in prices), rule)


class TestInt64Edge:
    """Shifted rows outside the 64-bit range must be refused, as
    ``is_successful`` refuses them, not compared after wrapping."""

    def test_scoring_overflow_is_not_infeasible(self):
        # Shifting voter 0 lifts the preferred score past 2**63 - 1; wrapped,
        # it turned negative and the instance looked infeasible.
        inst = scoring_instance((2**62 + 7, 2**62 - 1, 5), ((2, 1, 0), (0, 1, 2)), [(4, 4), ()])
        with pytest.raises(OverflowError):
            sb.is_successful(inst, sb.ShiftAction((1, 0)))
        with pytest.raises(OverflowError, match="fully shifted score"):
            sb.exact_shift_opt(inst)

    def test_scoring_overflow_gives_no_wrong_witness(self):
        # (0, 0, 2) lifts the preferred score to 2**63, a win with exact
        # arithmetic and lexicographically before the cost-2 tie (0, 1, 0)
        # that the wrapped scores picked instead.
        inst = scoring_instance(
            (2**62, 2**61 - 1, 0), ((0, 2, 1), (1, 2, 0), (2, 1, 0)), [(), (2, 4), (2, 2)]
        )
        assert sb.is_successful(inst, sb.ShiftAction((0, 1, 0)))
        with pytest.raises(OverflowError):
            sb.is_successful(inst, sb.ShiftAction((0, 0, 2)))
        with pytest.raises(OverflowError, match="fully shifted score"):
            sb.exact_shift_opt(inst)

    def test_copeland_scaled_maximum(self):
        # (m - 1) * den is the largest scaled Copeland score: beyond 2**63 - 1
        # the oracle raises, and with the largest den that keeps it within
        # range the oracle still matches a plain scan.
        for seed in range(30):
            rng = random.Random(seed)
            n, m = rng.randint(1, 3), rng.randint(3, 5)
            inst = sb.gen_random(seed, n, m, 4, rule=sb.CopelandRule(sb.CopelandAlpha(1, 2**62)))
            with pytest.raises(OverflowError, match="scaled Copeland maximum"):
                sb.exact_shift_opt(inst)
            alpha = sb.CopelandAlpha(1, ((1 << 63) - 1) // (m - 1))
            inst = sb.ShiftBriberyInstance(inst.election, inst.costs, sb.CopelandRule(alpha))
            scan = None
            for t in itertools.product(*(range(cf.max_reachable + 1) for cf in inst.costs)):
                action = sb.ShiftAction(t)
                cost = sb.total_cost(inst, action)
                if (scan is None or cost < scan[0]) and sb.is_successful(inst, action):
                    scan = (cost, action)
            assert sb.exact_shift_opt(inst) == scan, seed


class TestExactMicroOpt:
    def test_already_winner(self):
        table = ((0, 1), (-1, 0))
        m_inst = sb.MicrobriberyInstance((table,), (sb.FlipCostFunction({1: 3}),))
        cost, flips = sb.exact_micro_opt(m_inst, sb.CopelandAlpha(1, 2))
        assert cost == 0
        assert all(not s for s in flips.flips)

    def test_two_candidate_three_voters(self):
        # the preferred candidate loses 0-3; flipping two voters wins 2-1
        table = ((0, -1), (1, 0))
        tables = (table, table, table)
        costs = tuple(sb.FlipCostFunction({1: 1}) for _ in range(3))
        m_inst = sb.MicrobriberyInstance(tables, costs)
        cost, flips = sb.exact_micro_opt(m_inst, sb.CopelandAlpha(1, 2))
        assert cost == 2
        assert sum(len(s) for s in flips.flips) == 2

    def test_agrees_with_poly_solver(self):
        agreements = 0
        for seed in range(200):
            rng = random.Random(seed * 13 + 3)
            n, m = rng.randint(1, 4), rng.randint(2, 5)
            if n * (m - 1) > 16:
                continue
            m_inst = gen_random_micro(seed + 300, n, m, 5)
            alpha = (sb.CopelandAlpha(0, 1), sb.CopelandAlpha(1, 2), sb.CopelandAlpha(1, 1))[
                seed % 3
            ]
            try:
                solver_cost, _ = sb.solve_copeland_micro(m_inst, alpha)
            except sb.Infeasible:
                with pytest.raises(sb.Infeasible):
                    sb.exact_micro_opt(m_inst, alpha)
                continue
            assert sb.exact_micro_opt(m_inst, alpha)[0] == solver_cost
            agreements += 1
        assert agreements > 100

    def test_slot_guard(self, monkeypatch):
        m_inst = gen_random_micro(1, 4, 4, 3, infinite_prob=0.0)
        monkeypatch.setenv("SHIFTBRIBE_GUARD", str(2**4))
        with pytest.raises(sb.GuardExceeded):
            sb.exact_micro_opt(m_inst, sb.CopelandAlpha(1, 2))

    def test_slot_guard_boundary(self, monkeypatch):
        # three finitely priced flips: 2**3 subsets
        table = ((0, -1), (1, 0))
        costs = tuple(sb.FlipCostFunction({1: 1}) for _ in range(3))
        m_inst = sb.MicrobriberyInstance((table,) * 3, costs)
        monkeypatch.setenv("SHIFTBRIBE_GUARD", str(2**3))
        assert sb.exact_micro_opt(m_inst, sb.CopelandAlpha(1, 2))[0] == 2
        monkeypatch.setenv("SHIFTBRIBE_GUARD", str(2**3 - 1))
        with pytest.raises(sb.GuardExceeded, match=r"2\*\*3 subsets \(guard 7\)"):
            sb.exact_micro_opt(m_inst, sb.CopelandAlpha(1, 2))


    def test_default_guard_counts_subsets_as_vectors(self, monkeypatch):
        # the enumeration guard's 10**7 vectors admit 2**21 subsets, not 2**24
        monkeypatch.delenv("SHIFTBRIBE_GUARD", raising=False)
        table = ((0, -1), (1, 0))

        def rival_preferred(n):
            costs = (sb.FlipCostFunction({1: 1}),) * n
            return sb.MicrobriberyInstance((table,) * n, costs)

        cost, flips = sb.exact_micro_opt(rival_preferred(21), sb.CopelandAlpha(1, 2))
        assert (cost, flips.flips) == (11, (frozenset({1}),) * 11 + (frozenset(),) * 10)
        with pytest.raises(sb.GuardExceeded, match=r"2\*\*24 subsets \(guard 10000000\)"):
            sb.exact_micro_opt(rival_preferred(24), sb.CopelandAlpha(1, 2))

    def test_scaled_copeland_beyond_int64_raises(self):
        # one voter ranks the rivals 1 > 2 > 3 > 4 above the preferred
        # candidate, and flipping rival c costs c.  4 * den leaves int64;
        # an unchecked scaled test wraps and picks a flip set that does not
        # win.  One voter makes no pairwise ties, so every alpha has the
        # winners of alpha 0, and the cheapest winning flip set costs 6.
        order = (1, 2, 3, 4, 0)
        table = tuple(
            tuple(0 if a == b else 1 if order.index(a) < order.index(b) else -1 for b in range(5))
            for a in range(5)
        )
        m_inst = sb.MicrobriberyInstance((table,), (sb.FlipCostFunction({1: 1, 2: 2, 3: 3, 4: 4}),))
        alpha = sb.CopelandAlpha(1, (1 << 63) // 3 - 1)
        with pytest.raises(OverflowError, match="scaled Copeland maximum"):
            sb.exact_micro_opt(m_inst, alpha)
        winning = [
            sum(rivals)
            for k in range(5)
            for rivals in itertools.combinations(range(1, 5), k)
            if flips_win(m_inst, sb.CopelandAlpha(0, 1), (rivals,))
        ]
        assert min(winning) == 6 == sb.solve_copeland_micro(m_inst, alpha)[0]

    def test_flip_price_total_beyond_int64_raises(self):
        table = ((0, -1), (1, 0))
        costs = (sb.FlipCostFunction({1: 1 << 62}),) * 2
        m_inst = sb.MicrobriberyInstance((table,) * 2, costs)
        with pytest.raises(OverflowError, match="total of the flip prices"):
            sb.exact_micro_opt(m_inst, sb.CopelandAlpha(1, 2))

class TestExactCoverOpt:
    def test_matches_exhaustive_definition(self):
        for seed in range(30):
            rng = random.Random(seed + 71)
            n, m = rng.randint(1, 3), rng.randint(2, 4)
            inst = sb.gen_random(seed, n, m, 4, rule=sb.MAXIMIN)
            targets = tuple(rng.randint(0, n) for _ in range(m - 1))
            cost, action = sb.exact_cover_opt(inst, targets)
            before = sb.pairwise_tally(inst.election)
            after = sb.pairwise_tally(sb.apply_shift(inst.election, action.shifts))
            for c in range(1, m):
                req = min(before.n_matrix[0][c] + targets[c - 1], n)
                assert after.n_matrix[0][c] >= req
            assert sb.total_cost(inst, action) == cost

    @pytest.mark.parametrize("targets", [(0.5, 0), (1.7, 0), (-1, 0)])
    def test_rejects_non_integer_or_negative_targets(self, targets):
        # an int64 row of required support would truncate 0.5 to 0 and 1.7 to 1
        e = sb.Election(("p", "a", "b"), ((1, 0, 2),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((3,)),), sb.MAXIMIN)
        with pytest.raises(ValueError, match="targets must be non-negative integers"):
            sb.exact_cover_opt(inst, targets)
        with pytest.raises(ValueError, match="targets must be non-negative integers"):
            sb.cover_targets_greedy(inst, targets)
