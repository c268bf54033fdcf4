"""Budget DP, buying, and the scoring-rule solvers."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import shiftbribe as sb
from conftest import scaled_rounds_alone
from scoring_reference import build_budget_dp, double_gain_check
from shiftbribe.bribery import ShiftTable
from shiftbribe.scoring_solvers import _BudgetSweep, _max_budget, _option_rows


def caps_product(inst):
    return itertools.product(*[range(cf.max_reachable + 1) for cf in inst.costs])


def exhaustive_best_buy(inst, budget):
    """(max gain, min cost among gain maximizers, lex-smallest action)."""
    best = None
    for t in caps_product(inst):
        cost = sum(inst.costs[i].price(ti) for i, ti in enumerate(t))
        if cost > budget:
            continue
        g = sum(sb.gain(inst, i, ti) for i, ti in enumerate(t))
        key = (-g, cost, t)
        if best is None or key < best:
            best = key
    return -best[0], best[1], best[2]


class TestBuy:
    def test_zero_budget(self, thm6_k1):
        action, g = sb.buy(thm6_k1, 0)
        assert g == 0
        assert tuple(action.shifts) == (0,) * 6

    def test_negative_budget_rejected(self, thm6_k1):
        with pytest.raises(ValueError):
            sb.buy(thm6_k1, -1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_theorem6_budget_kt_buys_cheap_unit_shifts(self, k):
        inst = sb.gen_theorem6(k)
        t_unit = 2 * k
        action, g = sb.buy(inst, k * t_unit)
        assert g == k
        assert sum(action.shifts[: 4 * k]) == k
        assert all(t in (0, 1) for t in action.shifts[: 4 * k])
        assert action.shifts[4 * k] == 0 and action.shifts[4 * k + 1] == 0
        assert sb.total_cost(inst, action) == k * t_unit

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_theorem6_above_kt_buys_only_expensive_voter(self, k):
        # just past budget k*T the deep shifts become the unique best buy
        inst = sb.gen_theorem6(k)
        t_unit = 2 * k
        budget = (k + 1) * t_unit - 1
        action, g = sb.buy(inst, budget)
        assert g == k + 1
        expected = (0,) * (4 * k) + (k + 1, 0)
        assert tuple(action.shifts) == expected

    def test_matches_exhaustive_enumeration(self):
        for seed in range(30):
            inst = sb.gen_random(seed, 3, 4, 4)
            top = _max_budget(inst)
            for budget in range(top + 2):
                action, g = sb.buy(inst, budget)
                want_gain, want_cost, want_t = exhaustive_best_buy(inst, budget)
                assert g == want_gain
                assert sb.total_cost(inst, action) == want_cost
                assert tuple(action.shifts) == want_t

    def test_price_total_outside_int64_raises(self):
        # frontier costs are int64 sums of prices; a wrapped sum would pass
        # the budget filter, so the price total is checked up front
        e = sb.Election(("p", "c"), ((1, 0), (1, 0)))
        costs = (sb.CostFunction((1 << 62,)), sb.CostFunction((1 << 62,)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(2)))
        with pytest.raises(OverflowError, match="64-bit integer range"):
            sb.buy(inst, 10)

    def test_non_scoring_rejected(self):
        e = sb.Election(("p", "c"), ((1, 0),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((1,)),), sb.MAXIMIN)
        with pytest.raises(sb.IncompatibleRule):
            sb.buy(inst, 3)


class TestBudgetDpTable:
    def test_base_row(self):
        inst = sb.gen_random(0, 2, 3, 3)
        table = build_budget_dp(inst, 5)
        assert table.rows[0][0] == 0
        assert all(v is None for v in table.rows[0][1:])

    def test_recurrence_consistency(self):
        for seed in (1, 2, 3):
            inst = sb.gen_random(seed, 3, 4, 4)
            budget = _max_budget(inst)
            table = build_budget_dp(inst, budget)
            for i in range(1, inst.num_voters + 1):
                cf = inst.costs[i - 1]
                for j in range(budget + 1):
                    best = None
                    for k in range(cf.max_reachable + 1):
                        p = cf.price(k)
                        if p > j:
                            continue
                        prev = table.rows[i - 1][j - p]
                        if prev is None:
                            continue
                        v = prev + sb.gain(inst, i - 1, k)
                        if best is None or v > best:
                            best = v
                    assert table.rows[i][j] == best

    def test_buy_agrees_with_table(self):
        inst = sb.gen_random(9, 3, 4, 5)
        budget = _max_budget(inst)
        table = build_budget_dp(inst, budget)
        for b in range(budget + 1):
            action, g = sb.buy(inst, b)
            reachable = [v for v in table.rows[-1][: b + 1] if v is not None]
            assert g == max(reachable)
            assert sb.total_cost(inst, action) == min(
                j for j in range(b + 1) if table.rows[-1][j] == g
            )


    def test_frontier_is_the_breakpoints_of_the_exact_spend_table(self):
        for seed in range(20):
            inst = sb.gen_random(seed, 4, 4, 5, weighted=seed % 2 == 1)
            budget = _max_budget(inst)
            exact = build_budget_dp(inst, budget).rows[-1]
            breakpoints = []
            for j, g in enumerate(exact):
                if g is not None and (not breakpoints or g > breakpoints[-1][1]):
                    breakpoints.append((j, g))
            sweep = _BudgetSweep(_option_rows(ShiftTable(inst)), budget)
            assert list(sweep.iter_breakpoints()) == breakpoints
            total_gain = sum(sb.gain(inst, i, cf.max_reachable) for i, cf in enumerate(inst.costs))
            assert len(breakpoints) <= min(budget, total_gain) + 1


class TestSuccessCheck:
    def test_batch_matches_is_successful(self):
        # The shift table that A, G and the exact oracles share: its batched
        # winner test must agree with is_successful on every shift vector,
        # for every rule family, weighted and not.
        rules = (
            lambda m, rng: sb.ScoringRule(sb.borda(m)),
            lambda m, rng: sb.ScoringRule(sb.k_approval(m, rng.randint(1, m))),
            lambda m, rng: sb.CopelandRule(sb.CopelandAlpha(0)),
            lambda m, rng: sb.CopelandRule(sb.CopelandAlpha(1, 2)),
            lambda m, rng: sb.CopelandRule(sb.CopelandAlpha(1)),
            lambda m, rng: sb.MAXIMIN,
        )
        for r, make_rule in enumerate(rules):
            for seed in range(100):
                rng = random.Random(seed * len(rules) + r + 211)
                m = 1 + seed % 4
                rule = make_rule(m, rng)
                weighted = seed // 4 % 2 == 1
                inst = sb.gen_random(rng.randrange(10**6), 2 + seed % 3, m, 4, weighted, rule)
                shifts = np.array(list(caps_product(inst)))
                want = [sb.is_successful(inst, sb.ShiftAction(tuple(t))) for t in shifts.tolist()]
                table = ShiftTable(inst)
                assert table.wins(table.rows_after(shifts)).tolist() == want, (r, seed)


class TestSolveTwoPass:
    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))
        assert sb.solve_two_pass(inst) == (0, sb.ShiftAction((0,)))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_theorem6_optimal(self, k):
        inst = sb.gen_theorem6(k)
        cost, action = sb.solve_two_pass(inst)
        assert cost == 2 * k * (2 * k)
        assert sb.is_successful(inst, action)
        assert sb.total_cost(inst, action) <= cost

    def test_two_sided_bound_on_random_instances(self):
        for seed in range(80):
            rng = random.Random(seed)
            inst = sb.gen_random(seed, rng.randint(1, 4), rng.randint(1, 4), 6)
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_two_pass(inst)
            assert opt <= cost <= 2 * opt, (seed, opt, cost)
            assert sb.is_successful(inst, action)

    def test_guard(self, thm6_k1, monkeypatch):
        monkeypatch.setenv("SHIFTBRIBE_GUARD", "10")
        with pytest.raises(sb.GuardExceeded, match="solve_two_pass_scaled"):
            sb.solve_two_pass(thm6_k1)

    def test_guard_boundary(self, thm6_k1, monkeypatch):
        # (n + 1)(P + 1) = 7 * 15 cells: 6 voters, largest prices summing to 14
        monkeypatch.setenv("SHIFTBRIBE_GUARD", "105")
        assert sb.solve_two_pass(thm6_k1) == (4, sb.ShiftAction((0, 0, 1, 1, 0, 0)))
        monkeypatch.setenv("SHIFTBRIBE_GUARD", "104")
        with pytest.raises(sb.GuardExceeded, match=r"needs 105 cells \(guard 104\)"):
            sb.solve_two_pass(thm6_k1)

    @pytest.mark.parametrize("solver", [sb.solve_two_pass, sb.solve_single_pass])
    def test_fully_shifted_score_outside_int64_raises(self, solver):
        # Scores and gains fit, but shifting both voters lifts the preferred
        # candidate from 2**63 - 3 to 2**63 + 1: the batched check must
        # refuse the instance rather than compare wrapped int64 scores.
        top = (1 << 63) - 1
        x = (top - 4) // 3
        e = sb.Election(("p", "c"), ((1, 0), (1, 0), (0, 1)))
        rule = sb.ScoringRule(sb.ScoringVector((x + 2, x)))
        costs = (sb.CostFunction((1,)), sb.CostFunction((1,)), sb.CostFunction(()))
        inst = sb.ShiftBriberyInstance(e, costs, rule)
        assert sb.scoring_scores(e, rule.vector) == [top - 2, top]
        with pytest.raises(OverflowError, match="64-bit integer range"):
            solver(inst)


class TestSolveSinglePass:
    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))
        assert sb.solve_single_pass(inst)[0] == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_theorem6_value_and_action(self, k):
        inst = sb.gen_theorem6(k)
        cost, action = sb.solve_single_pass(inst)
        assert cost == 4 * k * (2 * k) - 3 * k
        assert tuple(action.shifts) == (0,) * (4 * k) + (4 * k, 0)

    def test_never_beats_two_pass(self):
        for seed in range(60):
            rng = random.Random(seed + 31)
            inst = sb.gen_random(seed, rng.randint(1, 4), rng.randint(1, 4), 6)
            assert sb.solve_single_pass(inst)[0] >= sb.solve_two_pass(inst)[0]


class TestSolveTwoPassScaled:
    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))
        assert sb.solve_two_pass_scaled(inst, Fraction(1, 2))[0] == 0

    def test_eps_must_be_positive(self, thm6_k1):
        with pytest.raises(ValueError):
            sb.solve_two_pass_scaled(thm6_k1, 0)
        with pytest.raises(ValueError):
            sb.solve_two_pass_scaled(thm6_k1, Fraction(-1, 2))

    def test_unit_prices_match_exact_solver(self):
        # all prices equal: scaling is proportional, so the scaled scheme
        # must reproduce the two-pass cost even with the exact run disabled
        for seed in range(20):
            base = sb.gen_random(seed, 3, 4, 1)
            costs = tuple(
                sb.CostFunction((1,) * cf.cap) if cf.cap else cf for cf in base.costs
            )
            inst = sb.ShiftBriberyInstance(base.election, costs, base.rule)
            want = sb.solve_two_pass(inst)[0]
            got = scaled_rounds_alone(inst, Fraction(1, 2))[0]
            assert got == want, seed

    def test_envelope_on_random_instances(self):
        for seed in range(60):
            rng = random.Random(seed + 77)
            inst = sb.gen_random(seed, rng.randint(1, 4), rng.randint(1, 4), 6)
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_two_pass_scaled(inst, Fraction(1, 2))
            assert opt <= cost, (seed, opt, cost)
            assert 2 * cost <= 5 * opt, (seed, opt, cost)  # (2 + 1/2) * opt
            assert sb.is_successful(inst, action)

    def test_scaled_price_total_outside_int64_raises(self, thm6_k1, monkeypatch):
        # eps 1/10**20 lifts the first round's big price beyond 2**63; with
        # the cell guard out of the way, the 64-bit check on the scaled total
        # must refuse it before any int64 array of those prices is built.
        monkeypatch.setenv("SHIFTBRIBE_GUARD", str(10**40))
        with pytest.raises(
            OverflowError,
            match="^total of the largest prices exceeds the checked 64-bit integer range",
        ):
            sb.solve_two_pass_scaled(thm6_k1, Fraction(1, 10**20))

    def test_rounds_keep_only_shifts_priced_below_big(self):
        # Some round's sweep buys a shift priced at the big value; keeping
        # that action would return A's witness (0, 4, 2) instead.
        e = sb.Election(
            ("p", "c1", "c2", "c3", "c4"), ((1, 4, 3, 0, 2), (3, 1, 4, 2, 0), (1, 2, 0, 3, 4))
        )
        costs = tuple(sb.CostFunction(p) for p in ((1, 2, 3), (1, 2, 2, 3), (0, 0)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(5)))
        for cost, action in (
            sb.solve_two_pass_scaled(inst, Fraction(1, 4)),
            scaled_rounds_alone(inst, 1),
            sb.solve_bootstrap(inst),
        ):
            assert (cost, action.shifts) == (3, (1, 3, 2))

    def test_exact_candidate_kept_at_prices_above_big(self):
        # eps = 3 puts the big value at 31, below both prices; the exact A
        # candidate (399) is kept anyway and beats the rounds' 402.
        e = sb.Election(("p", "c1", "c2"), ((0, 2, 1), (1, 0, 2), (2, 0, 1)), (798, 918, 127))
        costs = (sb.CostFunction(()), sb.CostFunction((402,)), sb.CostFunction((399,)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.k_approval(3, 1)))
        cost, action = sb.solve_two_pass_scaled(inst, 3)
        assert (cost, action.shifts) == (399, (0, 0, 1))
        cost, action = scaled_rounds_alone(inst, 3)
        assert (cost, action.shifts) == (402, (0, 1, 0))

    def test_scaled_path_alone_stays_within_bound(self):
        for seed in range(40):
            inst = sb.gen_random(seed, 4, 4, 6)
            opt, _ = sb.exact_shift_opt(inst)
            cost, _ = scaled_rounds_alone(inst, Fraction(1, 2))
            assert opt <= cost
            assert 2 * cost <= 5 * opt, (seed, opt, cost)


class TestSolveBootstrap:
    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))
        assert sb.solve_bootstrap(inst) == (0, sb.ShiftAction((0,)))

    def test_theorem6_k1_within_twice_optimal(self, thm6_k1):
        opt, _ = sb.exact_shift_opt(thm6_k1)
        cost, action = sb.solve_bootstrap(thm6_k1)
        assert opt <= cost <= 2 * opt
        assert sb.is_successful(thm6_k1, action)

    def test_two_sided_bound_on_random_instances(self):
        for seed in range(60):
            rng = random.Random(seed + 101)
            inst = sb.gen_random(seed, rng.randint(1, 4), rng.randint(1, 4), 6)
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_bootstrap(inst)
            assert opt <= cost <= 2 * opt, (seed, opt, cost)
            assert sb.is_successful(inst, action)

    def test_already_winner_before_any_check(self, monkeypatch):
        # The candidate already wins, so B answers 0 before the cell guard
        # and before the fully shifted score (2**63 here) is range-checked;
        # Aeps runs its rounds and refuses the instance.
        x = (1 << 62) - 2
        e = sb.Election(("p", "c"), ((0, 1), (1, 0)))
        rule = sb.ScoringRule(sb.ScoringVector((x + 2, x)))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()), sb.CostFunction((1,))), rule)
        monkeypatch.setenv("SHIFTBRIBE_GUARD", "1")
        assert sb.solve_bootstrap(inst) == (0, sb.ShiftAction((0, 0)))
        monkeypatch.delenv("SHIFTBRIBE_GUARD")
        with pytest.raises(OverflowError, match="fully shifted score"):
            sb.solve_two_pass_scaled(inst, Fraction(1, 4))


@pytest.mark.parametrize(
    "solver",
    [lambda inst: sb.solve_two_pass_scaled(inst, Fraction(1, 4)), sb.solve_bootstrap],
    ids=["Aeps", "B"],
)
@pytest.mark.parametrize(
    "prices,want",
    [((1 << 62, 1 << 62), (1 << 62, (0, 1, 0))), ((1 << 70, 1), (1, (0, 1, 0)))],
)
def test_prices_beyond_int64_still_answer(solver, prices, want):
    # Aeps and B price their rounds as Python ints: an original price or
    # price total beyond 2**63 does not stop them, while A exits on its guard.
    e = sb.Election(("p", "c"), ((1, 0), (1, 0), (0, 1)))
    costs = tuple(sb.CostFunction((p,)) for p in prices) + (sb.CostFunction(()),)
    inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(2)))
    cost, action = solver(inst)
    assert (cost, action.shifts) == want


@pytest.mark.parametrize(
    "solver",
    [
        sb.solve_two_pass,
        sb.solve_single_pass,
        lambda inst: sb.solve_two_pass_scaled(inst, Fraction(1, 4)),
    ],
    ids=["A", "G", "Aeps"],
)
def test_cell_guard_before_score_checks(solver, monkeypatch):
    # The fully shifted score leaves int64 (see TestSolveTwoPass), but the
    # cell guard trips first.
    top = (1 << 63) - 1
    x = (top - 4) // 3
    e = sb.Election(("p", "c"), ((1, 0), (1, 0), (0, 1)))
    rule = sb.ScoringRule(sb.ScoringVector((x + 2, x)))
    costs = (sb.CostFunction((1,)), sb.CostFunction((1,)), sb.CostFunction(()))
    inst = sb.ShiftBriberyInstance(e, costs, rule)
    monkeypatch.setenv("SHIFTBRIBE_GUARD", "1")
    with pytest.raises(sb.GuardExceeded):
        solver(inst)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: sb.solve_two_pass_scaled(sb.gen_random(1, 6, 5, 10), Fraction(1, 4)),
        lambda: sb.solve_bootstrap(sb.gen_random(2, 5, 4, 6)),
        lambda: sb.solve_bootstrap_weighted(sb.gen_random(2, 5, 4, 6, weighted=True)),
    ],
    ids=["Aeps", "B", "Bw"],
)
def test_one_shift_table_per_solve(solve, monkeypatch):
    # Rounds re-price the option rows and guesses slice them, so no solve
    # builds a second table.
    built = []
    init = ShiftTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ShiftTable, "__init__", counting_init)
    solve()
    assert len(built) == 1


class TestSolveBootstrapWeighted:
    def test_requires_weights(self, thm6_k1):
        with pytest.raises(sb.IncompatibleRule):
            sb.solve_bootstrap_weighted(thm6_k1)

    def test_unit_weights_match_unweighted(self):
        for seed in range(20):
            plain = sb.gen_random(seed, 3, 3, 5)
            weighted = sb.ShiftBriberyInstance(
                sb.Election(
                    plain.election.candidates,
                    plain.election.voters,
                    (1,) * plain.num_voters,
                ),
                plain.costs,
                plain.rule,
            )
            assert (
                sb.solve_bootstrap_weighted(weighted)[0] == sb.solve_bootstrap(plain)[0]
            )

    def test_two_voter_weighted_example(self):
        e = sb.Election(("p", "a", "b"), ((1, 2, 0), (1, 2, 0)), (3, 1))
        costs = (sb.CostFunction((1, 2)), sb.CostFunction((1, 2)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(3)))
        opt, _ = sb.exact_shift_opt(inst)
        assert opt == 2  # shift the heavy voter to the top
        cost, action = sb.solve_bootstrap_weighted(inst)
        assert opt <= cost <= 2 * opt
        assert sb.is_successful(inst, action)

    def test_huge_weight_single_voter(self):
        e = sb.Election(("p", "c"), ((1, 0),), (10**6,))
        inst = sb.ShiftBriberyInstance(
            e, (sb.CostFunction((7,)),), sb.ScoringRule(sb.borda(2))
        )
        assert sb.solve_bootstrap_weighted(inst)[0] == 7

    def test_envelope_on_random_weighted_instances(self):
        for seed in range(40):
            rng = random.Random(seed + 55)
            inst = sb.gen_random(
                seed, rng.randint(1, 4), rng.randint(1, 4), 6, weighted=True
            )
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_bootstrap_weighted(inst)
            assert opt <= cost <= 2 * opt, (seed, opt, cost)
            assert sb.is_successful(inst, action)


class TestDoubleGainCheck:
    def test_requires_successful_s(self, thm6_k1):
        with pytest.raises(ValueError):
            double_gain_check(thm6_k1, sb.ShiftAction.zero(6), sb.ShiftAction.zero(6))

    def test_zero_gain_winner_accepts_anything(self):
        e = sb.Election(("p", "c"), ((0, 1), (0, 1)))
        inst = sb.ShiftBriberyInstance(
            e, (sb.CostFunction(()), sb.CostFunction(())), sb.ScoringRule(sb.borda(2))
        )
        zero = sb.ShiftAction.zero(2)
        assert double_gain_check(inst, zero, zero)

    def test_applying_s_twice_passes_and_wins(self):
        # under Borda each unit shift is worth one point, so doubling a
        # successful action (caps allowing) doubles its gain exactly
        for seed in range(200):
            rng = random.Random(seed + 443)
            inst = sb.gen_random(seed, rng.randint(2, 4), rng.randint(2, 4), 4)
            caps = [cf.cap for cf in inst.costs]
            candidate = None
            for t in caps_product(inst):
                if all(2 * ti <= caps[i] for i, ti in enumerate(t)) and sb.is_successful(
                    inst, sb.ShiftAction(t)
                ):
                    candidate = sb.ShiftAction(t)
                    break
            if candidate is None:
                continue
            doubled = candidate + candidate
            assert double_gain_check(inst, candidate, doubled)
            assert sb.is_successful(inst, doubled)
            return
        raise AssertionError("no doubling-friendly instance found")

    def test_doubling_implies_success(self):
        # wherever the predicate holds, the action must be successful
        checked = 0
        for seed in range(120):
            rng = random.Random(seed + 7)
            inst = sb.gen_random(seed, rng.randint(1, 4), rng.randint(2, 4), 4)
            caps = [cf.cap for cf in inst.costs]
            s = None
            for t in caps_product(inst):
                if sb.is_successful(inst, sb.ShiftAction(t)):
                    s = sb.ShiftAction(t)
                    break
            if s is None:
                continue
            for _ in range(6):
                r = sb.ShiftAction(tuple(rng.randint(0, c) for c in caps))
                if double_gain_check(inst, s, r):
                    checked += 1
                    assert sb.is_successful(inst, r), (seed, s, r)
        assert checked > 50
