"""Budget DP, buying, and the scoring-rule solvers."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import shiftbribe as sb
from conftest import scaled_rounds_alone
from scoring_reference import bootstrap_uncapped, build_budget_dp, double_gain_check
from shiftbribe import scoring_solvers
from shiftbribe.bribery import ShiftTable, _price_runs
from shiftbribe.scoring_solvers import _BudgetSweep


def price_total(inst):
    """Sum over voters of the largest finite price."""
    return sum(cf.price(cf.max_reachable) for cf in inst.costs)


def option_rows(inst):
    """Per voter, its run of the instance's price array and the gain row of
    its shift table."""
    table = ShiftTable(inst)
    return list(zip(_price_runs(inst), table.gains))


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
            top = price_total(inst)
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

    def test_cell_guard(self, monkeypatch):
        # buy sweeps the rows of every other solver, behind the same guard:
        # 7 * 10 cells for 6 voters, P = 14 and G = 9, whatever the budget
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 10)
        with pytest.raises(sb.GuardExceeded, match=r"needs 70 cells \(guard 10\)$") as err:
            sb.buy(sb.gen_theorem6(1), 10**6)
        assert "solve_two_pass_scaled" not in str(err.value)


class TestBudgetDpTable:
    def test_base_row(self):
        inst = sb.gen_random(0, 2, 3, 3)
        table = build_budget_dp(inst, 5)
        assert table.rows[0][0] == 0
        assert all(v is None for v in table.rows[0][1:])

    def test_recurrence_consistency(self):
        for seed in (1, 2, 3):
            inst = sb.gen_random(seed, 3, 4, 4)
            budget = price_total(inst)
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
        budget = price_total(inst)
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
            budget = price_total(inst)
            exact = build_budget_dp(inst, budget).rows[-1]
            breakpoints = []
            for j, g in enumerate(exact):
                if g is not None and (not breakpoints or g > breakpoints[-1][1]):
                    breakpoints.append((j, g))
            sweep = _BudgetSweep(option_rows(inst), budget)
            assert list(zip(sweep.costs.tolist(), sweep.gains.tolist())) == breakpoints
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
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 10)
        with pytest.raises(sb.GuardExceeded, match="solve_two_pass_scaled"):
            sb.solve_two_pass(thm6_k1)

    def test_guard_boundary(self, thm6_k1, monkeypatch):
        # (n + 1)(min(P, G) + 1) = 7 * 10 cells: 6 voters, largest prices
        # summing to P = 14 and largest gains to G = 9
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 70)
        assert sb.solve_two_pass(thm6_k1) == (4, sb.ShiftAction((0, 0, 1, 1, 0, 0)))
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 69)
        with pytest.raises(sb.GuardExceeded, match=r"needs 70 cells \(guard 69\)"):
            sb.solve_two_pass(thm6_k1)

    @pytest.mark.parametrize("solver", [sb.solve_two_pass, sb.solve_single_pass])
    def test_guard_boundary_at_price_total_below_gain_total(self, solver, monkeypatch):
        # P = 12 < G = 400: the frontier holds at most P + 1 points, so the
        # guard counts (n + 1)(P + 1) = 4 * 13 cells
        e = sb.Election(("p", "c1", "c2"), ((1, 2, 0), (2, 0, 1), (1, 0, 2)))
        costs = (sb.CostFunction((2, 3)), sb.CostFunction((4,)), sb.CostFunction((5,)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.ScoringVector((200, 100, 0))))
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 52)
        assert solver(inst) == (3, sb.ShiftAction((2, 0, 0)))
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 51)
        with pytest.raises(sb.GuardExceeded, match=r"needs 52 cells \(guard 51\)"):
            solver(inst)

    @pytest.mark.parametrize("solver", [sb.solve_two_pass, sb.solve_single_pass])
    def test_guard_trips_at_large_price_and_gain_totals(self, solver):
        # weights up to 10**6: P = 39424967 and G = 35941415, so a frontier
        # may hold 21 * 35941416 cells over the 21 voter suffixes
        inst = sb.gen_random(1, 20, 8, 10**6, weighted=True)
        with pytest.raises(sb.GuardExceeded, match=r"needs 754769736 cells \(guard 100000000\)"):
            solver(inst)

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


def memo_instance(seed):
    """Seed-deterministic instance of family ``seed % 6``: Borda, k-approval,
    Borda x100 (score gains above the price total), weighted Borda, Borda
    with prices lowered by 2 so that some shifts are free, and theorem6
    with k <= 4."""
    family = seed % 6
    if family == 5:
        return sb.gen_theorem6(1 + seed // 6 % 4)
    n, m = 3 + seed % 4, 3 + seed // 6 % 3
    if family == 1:
        rule = sb.ScoringRule(sb.k_approval(m, 1 + seed % (m - 1)))
    elif family == 2:
        rule = sb.ScoringRule(sb.ScoringVector(tuple(100 * (m - 1 - j) for j in range(m))))
    else:
        rule = sb.ScoringRule(sb.borda(m))
    inst = sb.gen_random(seed, n, m, 8, weighted=family == 3, rule=rule)
    if family == 4:
        lowered = (sb.CostFunction(tuple(max(0, p - 2) for p in cf.prices)) for cf in inst.costs)
        inst = sb.ShiftBriberyInstance(inst.election, tuple(lowered), inst.rule)
    return inst


def assert_same_sweep(sweep, fresh):
    assert len(sweep.costs) == len(sweep.gains) == len(fresh.costs)
    assert sweep.costs.tolist() == fresh.costs.tolist()
    assert sweep.gains.tolist() == fresh.gains.tolist()
    points = np.arange(len(fresh.costs))
    assert sweep.trace(points).tolist() == fresh.trace(points).tolist()


class TestSuffixMemo:
    def test_memo_sweeps_equal_fresh_sweeps(self, monkeypatch):
        # Every sweep that A and the Aeps rounds build through a call's
        # suffix memo equals a memo-less sweep on the rebased rows at the
        # same budget: breakpoints and traced shift vectors alike.  These
        # instances admit the exact sweep, so the rounds are driven alone.
        built = []

        class RecordingSweep(_BudgetSweep):
            def __init__(self, rows, budget, offsets=None, memo=None):
                super().__init__(rows, budget, offsets, memo)
                built.append((rows, budget, offsets or (0,) * len(rows), memo, self))

        monkeypatch.setattr(scoring_solvers, "_BudgetSweep", RecordingSweep)
        inner = cut = layers = nodes = 0
        for seed in range(150):
            inst = memo_instance(seed)
            built.clear()
            sb.solve_two_pass(inst)
            scaled_rounds_alone(inst, Fraction(1, 4))
            memos = {}  # memo id: (memo, budget of its outer sweep)
            for rows, budget, offsets, memo, sweep in built:
                assert memo is not None
                rebased = [(p[t:] - p[t], g[t:] - g[t]) for (p, g), t in zip(rows, offsets)]
                assert_same_sweep(sweep, _BudgetSweep(rebased, budget))
                inner += any(offsets)
                cut += budget < memos.setdefault(id(memo), (memo, budget))[1]
                layers += len(rows)
            nodes += sum(len(memo) for memo, _ in memos.values())
        # the checks saw inner sweeps, cut budgets and shared suffixes: over
        # a quarter of the layers were memo hits (follow-ups that a scan
        # batches are swept outside the memo)
        assert inner >= 300 and cut >= 100
        assert nodes < layers * 3 // 4
        # B and Bw sweep each guess through a copy of its baseline's memo: every sweep still equals a fresh one, and
        # some guesses rebuilt a node asked above the budget it was built at
        guessed = rebuilt = 0
        insts = [admitted_instance(seed) for seed in ADMITTED_SEEDS]
        for inst in insts + [sb.gen_random(1, 12, 8, 20, weighted=w) for w in (False, True)]:
            weighted = inst.election.weights is not None
            for solve in [sb.solve_bootstrap] + [sb.solve_bootstrap_weighted] * weighted:
                built.clear()
                solve(inst)
                for rows, budget, offsets, memo, sweep in built:
                    rebased = [(p[t:] - p[t], g[t:] - g[t]) for (p, g), t in zip(rows, offsets)]
                    assert_same_sweep(sweep, _BudgetSweep(rebased, budget))
                    guessed += memo is not built[0][3]
                baseline = built[0][3]
                for memo in {id(m): m for _, _, _, m, _ in built}.values():
                    rebuilt += sum(key in baseline and node is not baseline[key] for key, node in memo.items())
        assert guessed >= 700 and rebuilt >= 5, (guessed, rebuilt)

    def test_memo_asked_at_rising_and_falling_budgets(self):
        # One memo serves sweeps whose budgets rise and fall, at offsets
        # that change from sweep to sweep: every sweep equals a memo-less
        # sweep of the rebased rows at its budget, and a node asked above
        # the budget it was built at is rebuilt there.
        rebuilt = 0
        for seed in range(56):
            inst = memo_instance(seed)
            rows = option_rows(inst)
            rng = random.Random(seed)
            top = price_total(inst)
            memo = {}
            for k, budget in enumerate((top // 3, top, 0, top // 2, top, 1, top - 1, top)):
                offsets = tuple(rng.randint(0, len(p) - 1) * (k % 3 == 2) for p, _ in rows)
                before = dict(memo)
                sweep = _BudgetSweep(rows, budget, offsets, memo)
                rebased = [(p[t:] - p[t], g[t:] - g[t]) for (p, g), t in zip(rows, offsets)]
                assert_same_sweep(sweep, _BudgetSweep(rebased, budget))
                for key, node in before.items():
                    if memo[key] is not node:
                        assert node[4] < budget == memo[key][4]
                        rebuilt += 1
        assert rebuilt >= 50, rebuilt

    def test_node_cut_to_lower_budget_equals_sweep_built_there(self):
        for seed in range(24):
            inst = memo_instance(seed)
            rows = option_rows(inst)
            offsets = tuple(seed % 2 * (i % len(p)) for i, (p, _) in enumerate(rows))
            top = price_total(inst)
            for lower in sorted({0, 1, top // 3, top // 2, top - 1}.intersection(range(top))):
                memo = {}
                _BudgetSweep(rows, top, offsets, memo)
                keys = set(memo)
                cut = _BudgetSweep(rows, lower, offsets, memo)
                assert set(memo) == keys  # every layer was a memo hit
                rebased = [(p[t:] - p[t], g[t:] - g[t]) for (p, g), t in zip(rows, offsets)]
                assert_same_sweep(cut, _BudgetSweep(rebased, lower))
                assert_same_sweep(cut, _BudgetSweep(rows, lower, offsets))


def enumerated_actions(inst):
    """(cost, gain, shift vector) of every action, priced with ``cf.price``
    and ``sb.gain`` rather than the shift table."""
    return [
        (
            sum(inst.costs[i].price(ti) for i, ti in enumerate(t)),
            sum(sb.gain(inst, i, ti) for i, ti in enumerate(t)),
            t,
        )
        for t in caps_product(inst)
    ]


def assert_sweep_matches_references(sweep, inst, budget, actions):
    """The sweep's breakpoints are those of the exact-spend table of
    ``build_budget_dp``, and each traces to the lexicographically smallest
    enumerated action of that exact cost and gain."""
    breakpoints = []
    for j, g in enumerate(build_budget_dp(inst, budget).rows[-1]):
        if g is not None and (not breakpoints or g > breakpoints[-1][1]):
            breakpoints.append((j, g))
    assert list(zip(sweep.costs.tolist(), sweep.gains.tolist())) == breakpoints
    want = [min(t for c, g, t in actions if (c, g) == point) for point in breakpoints]
    assert [tuple(t) for t in sweep.trace(np.arange(len(breakpoints))).tolist()] == want


def passed_through(sweep, rows, budget):
    """(voters passed through, those of them with an affordable shift k > 0)."""
    built = {i for i, _, _ in sweep.layers}
    skipped = [i for i in range(len(rows)) if i not in built]
    return len(skipped), sum(len(rows[i][0]) > 1 and rows[i][0][1] <= budget for i in skipped)


class TestPassThroughLayers:
    # A voter whose affordable shifts all gain nothing shares the next
    # node's frontier and is skipped by the trace.  Every budget, from the
    # price total down, is swept through one memo, so pass-through nodes
    # are also read at budgets below the one they were built at.

    def check(self, inst, offsets=None):
        """Sweep every budget of ``inst``'s rows, offset at ``offsets``,
        against the references on the rebased instance; returns the
        summed ``passed_through`` counts."""
        rows = option_rows(inst)
        target = inst if offsets is None else sb.rebase(inst, sb.ShiftAction(offsets))
        top = price_total(target)
        actions = enumerated_actions(target)
        memo, counts = {}, [0, 0]
        for budget in range(top, -1, -1):
            sweep = _BudgetSweep(rows, budget, offsets, memo)
            assert_sweep_matches_references(sweep, target, budget, actions)
            counts = [a + b for a, b in zip(counts, passed_through(sweep, rows, budget))]
        return counts

    def test_borda_budgets_below_a_next_price(self):
        # every Borda shift gains, so a voter passes through only while its
        # next shift is priced above the budget
        total = 0
        for seed in range(24):
            inst = sb.gen_random(seed, 2 + seed % 3, 3 + seed % 2, 6, weighted=seed % 4 == 3)
            skipped, affordable = self.check(inst)
            assert affordable == 0
            total += skipped
        assert total >= 100

    def test_kapproval_affordable_zero_gain_shifts(self):
        # a shift that stays outside the top k gains nothing, affordable or not
        total = 0
        for seed in range(24):
            m = 3 + seed % 3
            rule = sb.ScoringRule(sb.k_approval(m, 1 + seed % (m - 1)))
            inst = sb.gen_random(seed, 2 + seed % 3, m, 4, rule=rule)
            total += self.check(inst)[1]
        assert total >= 100

    def test_offsets_at_a_voters_last_shift(self):
        # a row offset at its last shift is (0, 0) alone: passed through at
        # every budget
        for seed in range(24):
            rule = sb.ScoringRule(sb.ScoringVector((5, 3, 3, 1, 0)[: 3 + seed % 3]))
            inst = sb.gen_random(seed, 3, 3 + seed % 3, 5, rule=rule)
            caps = [cf.max_reachable for cf in inst.costs]
            offsets = tuple(c if (i + seed) % 2 else c // 2 for i, c in enumerate(caps))
            top = price_total(sb.rebase(inst, sb.ShiftAction(offsets)))
            last = sum((i + seed) % 2 == 1 for i in range(len(caps)))
            assert self.check(inst, offsets)[0] >= last * (top + 1)


def scores_after(inst, t):
    return sb.rule_scores(sb.apply_shift(inst.election, t), inst.rule)


def scan_without_skips(table, rows, start, budget):
    """``_two_pass`` with every inner sweep built and no memo: its answer,
    or None, and per l1 visited, the offsets of l1's inner sweep (``start``
    plus l1's action) and whether that sweep holds a winner."""
    outer = _BudgetSweep(rows, budget, tuple(start.tolist()))
    firsts = start + outer.trace(np.arange(len(outer.costs)))
    best, visited = None, []
    for l1, first in zip(outer.costs.tolist(), firsts):
        if best is not None and l1 >= best[0]:
            break
        inner_budget = budget if best is None else best[0] - l1 - 1
        inner = _BudgetSweep(rows, inner_budget, tuple(first.tolist()))
        shifts = first + inner.trace(np.arange(len(inner.costs)))
        won = np.flatnonzero(table.wins(table.rows_after(shifts)))
        visited.append((tuple(first.tolist()), len(won) > 0))
        if len(won):
            best = (l1 + int(inner.costs[won[0]]), shifts[won[0]])
    return best, visited


class TestSkipTest:
    def test_winning_actions_satisfy_the_skip_inequality(self):
        # After a start s, the preferred candidate trails rival c by need_c,
        # and c can still lose room_c (down to its score when every voter
        # takes its largest shift).  Every winning action v >= s gaining g
        # over s has g + min(g, room_c) >= need_c; scores from rule_scores
        # on the shifted election, gains from sb.gain.
        rules = (
            lambda m: sb.borda(m),
            lambda m: sb.k_approval(m, 1 + m // 3),
            lambda m: sb.ScoringVector((9, 4, 4, 1, 0)[:m]),
        )
        pairs = ruled_out = 0
        for seed in range(120):
            m = 2 + seed % 4
            rule = sb.ScoringRule(rules[seed % 3](m))
            inst = sb.gen_random(seed, 1 + seed % 3, m, 4, weighted=seed // 3 % 2 == 1, rule=rule)
            vectors = list(caps_product(inst))
            score = {t: scores_after(inst, t) for t in vectors}
            gain = {t: sum(sb.gain(inst, i, ti) for i, ti in enumerate(t)) for t in vectors}
            top = score[vectors[-1]]
            for s in vectors:
                need = [c - score[s][0] for c in score[s][1:]]
                room = [c - low for c, low in zip(score[s][1:], top[1:])]
                for v in (v for v in vectors if all(a >= b for a, b in zip(v, s))):
                    g = gain[v] - gain[s]
                    passes = all(g + min(g, r) >= d for d, r in zip(need, room))
                    if 0 in sb.winners(score[v]):
                        assert passes, (seed, s, v)
                        pairs += 1
                    else:
                        ruled_out += not passes
        # the inequality also rules out most losing actions
        assert pairs >= 3000 and ruled_out >= 1000

    def test_winning_actions_pass_the_reach_test(self):
        # The reach test of B's guesses, for any start s and cap: voter j's
        # reach is its last shift priced at most the cap above its price at
        # s_j, R the score row at the reaches and S the row at s.  With
        # g = R[0] - S[0], loss_c = S[c] - R[c] and need_c = S[c] - S[0],
        # (s, cap) passes when g + min(g, loss_c) >= need_c for every rival
        # c.  With the frontier cap, g is at most F - gain(s), F the largest
        # gain of any vector priced at most price(s) + cap.  Every winning
        # v >= s whose price above s is at most the cap passes both; scores
        # from rule_scores on the shifted election, prices from the cost
        # functions, F by enumeration.
        rules = (
            lambda m: sb.borda(m),
            lambda m: sb.k_approval(m, 1 + m // 3),
            lambda m: sb.ScoringVector((9, 4, 4, 1, 0)[:m]),
        )
        pairs = ruled_out = capped_out = 0
        for seed in range(240):
            m = 2 + seed % 4
            rule = sb.ScoringRule(rules[seed % 3](m))
            inst = sb.gen_random(seed, 1 + seed % 3, m, 4, weighted=seed // 3 % 2 == 1, rule=rule)
            prices = [[0, *cf.prices[: cf.max_reachable]] for cf in inst.costs]
            vectors = list(caps_product(inst))
            score = {t: scores_after(inst, t) for t in vectors}
            price = {t: sum(p[k] for p, k in zip(prices, t)) for t in vectors}
            for s in vectors:
                passes, capped = [], []
                for cap in range(sum(p[-1] - p[k] for p, k in zip(prices, s)) + 1):
                    reach = tuple(
                        max(k for k in range(len(p)) if p[k] - p[sj] <= cap) for p, sj in zip(prices, s)
                    )
                    low, at = score[reach], score[s]
                    g = low[0] - at[0]
                    passes.append(all(g + min(g, c - r) >= c - at[0] for c, r in zip(at[1:], low[1:])))
                    g = min(g, max(score[u][0] for u in vectors if price[u] <= price[s] + cap) - at[0])
                    capped.append(all(g + min(g, c - r) >= c - at[0] for c, r in zip(at[1:], low[1:])))
                ruled_out += passes.count(False)
                capped_out += capped.count(False) - passes.count(False)
                for v in (v for v in vectors if all(a >= b for a, b in zip(v, s))):
                    if 0 in sb.winners(score[v]):
                        assert all(capped[price[v] - price[s] :]), (seed, s, v)
                        pairs += 1
        # the test also rules out many (start, cap) pairs, and the cap more
        assert pairs >= 8000 and ruled_out >= 2000 and capped_out >= 60, (pairs, ruled_out, capped_out)

    def test_skipped_inner_sweeps_hold_no_winner(self, monkeypatch):
        # Every _two_pass of seeded A, Aeps-round and B solves is replayed
        # uncapped with every inner sweep built: the answer is the same,
        # and each inner sweep the skip test left out holds no winner
        # within its budget.  A call capped below a cost (a B guess) finds
        # nothing exactly when the replay's answer costs at least that
        # much, and otherwise the replay's answer.  Every guess that the
        # reach test, its gain capped by the baseline's frontier, rules out
        # before any sweep is replayed the same way on its rebased rows:
        # its answer costs at least the cap the guess would have been swept
        # below, the baseline's cost less its price.  A follow-up that a
        # scan batches (_follow_ups) is not an inner sweep of the loop: it
        # is an l1 below the first winner's cost cap that the skip test
        # admits at cap, and one the replay never visits lies at or above
        # the replay's final best.
        calls, screens = [], []
        two_pass = scoring_solvers._two_pass
        screen = scoring_solvers._screen_guesses

        class RecordingSweep(_BudgetSweep):
            def __init__(self, rows, budget, offsets=None, memo=None):
                super().__init__(rows, budget, offsets, memo)
                calls[-1][2].append(offsets)

        def recording_two_pass(*args):
            calls.append((args, [None], [], []))
            calls[-1][1][0] = two_pass(*args)
            return calls[-1][1][0]

        def recording_follow_ups(table, rows, firsts, l1s, cap, *args):
            calls[-1][3].append((firsts, l1s, cap))
            return follow_ups(table, rows, firsts, l1s, cap, *args)

        def recording_screen(table, prices, best, frontier):
            screened = screen(table, prices, best, frontier)
            screens.append((prices, best, screened))
            return screened

        follow_ups = scoring_solvers._follow_ups
        monkeypatch.setattr(scoring_solvers, "_BudgetSweep", RecordingSweep)
        monkeypatch.setattr(scoring_solvers, "_two_pass", recording_two_pass)
        monkeypatch.setattr(scoring_solvers, "_follow_ups", recording_follow_ups)
        monkeypatch.setattr(scoring_solvers, "_screen_guesses", recording_screen)
        solves = [(memo_instance(seed), sb.solve_two_pass) for seed in range(56)]
        solves += [(memo_instance(seed), lambda i: scaled_rounds_alone(i, 1)) for seed in range(24)]
        solves += [(admitted_instance(seed), sb.solve_bootstrap) for seed in ADMITTED_SEEDS]
        solves += [(inst, bootstrap_solver(inst)) for inst in map(guess_instance, range(48))]
        skipped = capped_none = ruled_out = batched = beyond = 0
        for inst, solve in solves:
            calls.clear()
            screens.clear()
            solve(inst)
            for args, (answer,), swept, batches in calls:
                best, visited = scan_without_skips(*args[:4])
                built = set(swept[1:])  # the first sweep is the outer one
                seen = {first for first, _ in visited}
                assert built <= seen
                for firsts, l1s, cap in batches:
                    follow = set(zip(map(tuple, firsts.tolist()), l1s.tolist()))
                    assert follow <= admitted_at_cap(*args[:4], cap)
                    for first, l1 in follow:
                        if first not in seen:  # the replay stopped before l1
                            assert l1 >= best[0]
                            beyond += 1
                    built |= {first for first, _ in follow}
                    batched += len(follow)
                below = args[4] if len(args) > 4 else None
                if below is not None:
                    assert (answer is None) == (best[0] >= below)
                    if answer is None:
                        capped_none += 1
                    else:
                        assert answer[0] == best[0] and answer[1].tolist() == best[1].tolist()
                    continue
                assert best[0] == answer[0] and best[1].tolist() == answer[1].tolist()
                for first, won in visited:
                    if first not in built:
                        assert not won
                        skipped += 1
            for prices, cost, admitted in screens:
                for i, t in ruled_out_guesses(prices, cost, admitted):
                    guess = [0] * inst.num_voters
                    guess[i] = t
                    table, rows, budget = rebased_rows(inst, guess)
                    best, _ = scan_without_skips(table, rows, np.array(guess), budget)
                    assert best[0] >= cost - inst.costs[i].price(guess[i]), (guess, cost)
                    ruled_out += 1
        assert skipped >= 100 and capped_none >= 10 and ruled_out >= 40, (skipped, capped_none, ruled_out)
        assert batched >= 100 and beyond >= 10, (batched, beyond)


def ruled_out_guesses(prices, best, admitted):
    """[(voter, shift)] of the guesses with shift >= 1 priced below
    ``best`` in the ``_price_table`` ``prices`` that are not among the
    (voter, shift, price) triples ``admitted`` by ``_screen_guesses``."""
    values, starts, ends = (a.tolist() for a in prices)
    kept = {(i, t) for i, t, _ in admitted}
    return [
        (i, t)
        for i, (lo, hi) in enumerate(zip(starts, ends))
        for t in range(1, hi - lo)
        if values[lo + t] < best and (i, t) not in kept
    ]


def admitted_at_cap(table, rows, start, budget, cap):
    """{(action, l1)} of the outer frontier's points of ``_two_pass``'s scan
    from ``start`` priced below ``cap`` whose gain bound at cap passes the
    skip test: the l1s that a scan whose first winner costs cap may batch."""
    outer = _BudgetSweep(rows, budget, tuple(start.tolist()))
    firsts = start + outer.trace(np.arange(len(outer.costs)))
    top = int(outer.gains[outer.costs <= cap - 1].max(initial=0))
    lows = table.top[1:].tolist()
    admitted = set()
    for l1, gain, first in zip(outer.costs.tolist(), outer.gains.tolist(), firsts):
        row = table.rows_after(first[None])[0].tolist()
        g = top - gain
        if l1 < cap and all(g + min(g, c - low) >= c - row[0] for c, low in zip(row[1:], lows)):
            admitted.add((tuple(first.tolist()), l1))
    return admitted


def rebased_rows(inst, start):
    """(table, option rows, price total) of ``inst`` on top of ``start``,
    as ``_scaled_rounds`` builds them on its exact path, from the cost
    functions' prices as Python ints: each voter's prices rebased at its
    start shift, and 0 below it, where no sweep reads."""
    table = ShiftTable(inst)
    lists = ([0, *cf.prices[: cf.max_reachable]] for cf in inst.costs)
    prices = [[0] * s + [q - p[s] for q in p[s:]] for p, s in zip(lists, start)]
    budget, rows = scoring_solvers._sweep_rows(prices, table, np.array(start, dtype=np.int64))
    return table, rows, budget


class TestCostCap:
    def test_capped_two_pass_is_the_uncapped_answer_below_the_cap(self):
        # Capped at ``below`` >= 1, _two_pass finds nothing exactly when the
        # default-capped answer costs at least ``below``, and otherwise
        # returns that answer's cost and shift vector, on Borda, k-approval
        # and (9, 4, 4, 1, 0), with and without weights and from nonzero
        # starts.  On every other dozen seeds the prices are cut (see
        # cut_prices); where no action wins, a cap above the price total
        # raises Infeasible as the default cap does, and a lower one finds
        # nothing.
        rules = (
            lambda m: sb.borda(m),
            lambda m: sb.k_approval(m, 1 + m // 3),
            lambda m: sb.ScoringVector((9, 4, 4, 1, 0)[:m]),
        )
        found = none = raised = 0
        for seed in range(240):
            rng = random.Random(seed)
            m = 2 + seed % 4
            rule = sb.ScoringRule(rules[seed % 3](m))
            inst = sb.gen_random(seed, 1 + seed % 4, m, 6, weighted=seed // 3 % 2 == 1, rule=rule)
            if seed // 12 % 2:
                inst = cut_prices(inst, rng)
            start = [rng.randint(0, cf.max_reachable) * (seed // 6 % 2) for cf in inst.costs]
            table, rows, budget = rebased_rows(inst, start)
            start = np.array(start, dtype=np.int64)
            try:
                cost, shifts = scoring_solvers._two_pass(table, rows, start, budget)
            except sb.Infeasible:
                cost = shifts = None
            lows = {1, budget + 1, budget + 2}
            if cost is not None:
                lows |= {cost // 2, cost - 1, cost, cost + 1}
            for below in sorted(b for b in lows if b >= 1):
                if cost is None and below > budget:
                    with pytest.raises(sb.Infeasible):
                        scoring_solvers._two_pass(table, rows, start, budget, below)
                    raised += 1
                    continue
                answer = scoring_solvers._two_pass(table, rows, start, budget, below)
                if cost is None or cost >= below:
                    assert answer is None, (seed, below)
                    none += 1
                else:
                    assert answer[0] == cost, (seed, below)
                    assert answer[1].dtype == shifts.dtype
                    assert answer[1].tolist() == shifts.tolist(), (seed, below)
                    found += 1
        assert found >= 200 and none >= 200 and raised >= 50, (found, none, raised)


def cut_prices(inst, rng):
    """``inst`` with every voter's prices cut to a random prefix followed
    by unreachable marks."""
    costs = []
    for cf in inst.costs:
        k = rng.randint(0, cf.cap)
        costs.append(sb.CostFunction(cf.prices[:k] + (None,) * (cf.cap - k)))
    return sb.ShiftBriberyInstance(inst.election, tuple(costs), inst.rule)


def batch_instance(seed):
    """Seeded instance of family ``seed % 7`` that the preferred candidate
    does not already win, n = 4..7 and m = 7..9 with prices <= 20: Borda,
    k-approval, Borda x100 (gains in units of 100), theorem6 with k = 1..3,
    Borda with prices lowered by 5 (free shifts), Borda with every other
    voter's last shift unreachable, and Borda with voter weights 1..2 (a
    dense gain axis)."""
    family, rng = seed % 7, random.Random(seed)
    if family == 3:
        return sb.gen_theorem6(1 + seed // 7 % 3)
    n, m = 4 + seed % 4, 7 + seed // 7 % 3
    if family == 1:
        rule = sb.ScoringRule(sb.k_approval(m, 1 + seed // 7 % (m - 1)))
    elif family == 2:
        rule = sb.ScoringRule(sb.ScoringVector(tuple(100 * (m - 1 - j) for j in range(m))))
    else:
        rule = sb.ScoringRule(sb.borda(m))
    draw = seed
    while True:
        inst = sb.gen_random(draw, n, m, 20, rule=rule)
        if 0 not in sb.winners(sb.rule_scores(inst.election, rule)):
            break
        draw += 1000
    e, costs = inst.election, inst.costs
    if family == 4:
        costs = tuple(sb.CostFunction(tuple(max(0, p - 5) for p in cf.prices)) for cf in costs)
    elif family == 5:
        cuts = [cf.cap - (i % 2 and cf.cap > 0) for i, cf in enumerate(costs)]
        costs = tuple(sb.CostFunction(cf.prices[:k] + (None,) * (cf.cap - k)) for cf, k in zip(costs, cuts))
    elif family == 6:
        e = sb.Election(e.candidates, e.voters, tuple(rng.randint(1, 2) for _ in e.voters))
    return sb.ShiftBriberyInstance(e, costs, rule)


def batch_rule(inst):
    """(admitted, dense) of an unshared ``A`` scan of ``inst``, or None when
    no action wins: the follow-ups after the loop's first winner, of cost
    cap, that the skip test admits at cap, and whether the outer frontier's
    top gain in units of the gains' gcd is at most ``_DENSE_GAIN_AXIS``
    times its point count.  The scan batches when both hold and at least
    n / 4 are admitted.  The first winner is the cheapest winning point of
    the first l1 whose full inner sweep holds one."""
    table, rows, budget = rebased_rows(inst, [0] * inst.num_voters)
    outer = _BudgetSweep(rows, budget)
    firsts = outer.trace(np.arange(len(outer.costs)))
    for l1, first in zip(outer.costs.tolist(), firsts):
        inner = _BudgetSweep(rows, budget - l1, tuple(first.tolist()))
        won = np.flatnonzero(table.wins(table.rows_after(first + inner.trace(np.arange(len(inner.costs))))))
        if len(won):
            cap = l1 + int(inner.costs[won[0]])
            break
    else:
        return None
    start = np.zeros(inst.num_voters, dtype=np.int64)
    admitted = sum(later > l1 for _, later in admitted_at_cap(table, rows, start, budget, cap))
    unit = math.gcd(*[int(x) for _, gains in rows for x in gains]) or 1
    return admitted, int(outer.gains[-1]) // unit <= scoring_solvers._DENSE_GAIN_AXIS * len(outer.costs)


@pytest.fixture
def batches(monkeypatch):
    """The (follow-ups, voters) of every ``_follow_ups`` call, in order."""
    calls = []
    follow_ups = scoring_solvers._follow_ups

    def recording(table, rows, firsts, *args):
        calls.append((len(firsts), len(rows)))
        return follow_ups(table, rows, firsts, *args)

    monkeypatch.setattr(scoring_solvers, "_follow_ups", recording)
    return calls


class TestFollowUpBatch:
    def check(self, inst, start):
        """An unshared scan of ``inst`` from ``start`` answers as the loop
        that a shared memo keeps (no batch) and as ``scan_without_skips``,
        cost and shift vector, or raises ``Infeasible`` as both do."""
        table, rows, budget = rebased_rows(inst, start)
        start = np.array(start, dtype=np.int64)
        best, _ = scan_without_skips(table, rows, start, budget)
        for memo in (None, {}):
            if best is None:
                with pytest.raises(sb.Infeasible):
                    scoring_solvers._two_pass(table, rows, start, budget, None, memo)
                continue
            cost, shifts = scoring_solvers._two_pass(table, rows, start, budget, None, memo)
            assert cost == best[0] and shifts.tolist() == best[1].tolist(), (start, memo)

    def starts(self, inst, seed):
        rng = random.Random(seed)
        return [[0] * inst.num_voters, [rng.randint(0, cf.max_reachable // 2) for cf in inst.costs]]

    def test_batched_scans_answer_as_the_loop(self, batches, monkeypatch):
        # From a zero and a random start, on seven families; then with the
        # batch rules forced open, so that every scan with a first winner
        # and a later admitted l1 batches, sparse gain axes included.
        per_family = [0] * 7
        for seed in range(140):
            inst = batch_instance(seed)
            for start in self.starts(inst, seed):
                before = len(batches)
                self.check(inst, start)
                per_family[seed % 7] += len(batches) - before
        # Borda, Borda x100, free shifts, cut prices and weights 1..2 batch
        assert min(per_family[i] for i in (0, 2, 4, 5, 6)) >= 5, per_family
        # two batched follow-ups tie at the least total: the first l1 is kept
        for seed, n in ((36, 8), (80, 6)):
            before = len(batches)
            self.check(sb.gen_random(seed, n, 8, 20), [0] * n)
            assert len(batches) == before + 1
        monkeypatch.setattr(scoring_solvers, "_FOLLOW_UPS_PER_VOTER", 1e-9)
        monkeypatch.setattr(scoring_solvers, "_DENSE_GAIN_AXIS", 1 << 40)
        forced = [0] * 7
        for seed in range(140):
            inst = batch_instance(seed)
            if seed % 7 == 6:
                inst = sb.gen_random(seed, 4 + seed % 4, 7, 20, weighted=True)
            for start in self.starts(inst, seed):
                before = len(batches)
                self.check(inst, start)
                forced[seed % 7] += len(batches) - before
        # k-approval batches least: its frontiers hold at most n + 1 points
        assert min(forced) >= 3, forced

    def test_batch_rules(self, batches, monkeypatch):
        # An unshared scan batches exactly when at least n / 4 follow-ups
        # are admitted at its first winner's cost and its gain axis is
        # dense, and then sweeps exactly the admitted follow-ups.
        ran = held_back = 0
        for seed in range(1200):
            inst = batch_instance(seed)
            rule = batch_rule(inst)
            batches.clear()
            try:
                sb.solve_two_pass(inst)
            except sb.Infeasible:
                assert rule is None
                continue
            admitted, dense = rule
            if 4 * admitted >= inst.num_voters and dense:
                assert batches == [(admitted, inst.num_voters)], seed
                ran += 1
            else:
                assert batches == [], seed
                held_back += admitted > 0
        assert ran >= 30 and held_back >= 30, (ran, held_back)
        # B's baseline and guesses share their memo and never batch, where
        # A and Aeps's exact path do
        inst = sb.gen_random(1, 12, 8, 20)
        batches.clear()
        sb.solve_two_pass(inst)
        sb.solve_two_pass_scaled(inst, Fraction(1, 4))
        assert batches == [(14, 12), (14, 12)]
        batches.clear()
        sb.solve_bootstrap(inst)
        for guess in map(guess_instance, range(24)):
            bootstrap_solver(guess)(guess)
        assert batches == []
        # weighted, the gain axis is sparse: 299 units against 104 points,
        # with 15 follow-ups admitted for 12 voters
        inst = sb.gen_random(1, 12, 8, 20, weighted=True)
        assert batch_rule(inst) == (15, False)
        want = sb.solve_two_pass(inst)
        assert batches == []
        monkeypatch.setattr(scoring_solvers, "_DENSE_GAIN_AXIS", 3)
        assert sb.solve_two_pass(inst) == want
        assert batches == [(15, 12)]

    def test_chunked_levels_equal_unchunked(self, batches, monkeypatch):
        # With one level's option rows per run, one group per chunk and one
        # point per traced block, with a few, or with every level's rows in
        # one run and every group and point at once, every batched scan
        # answers as with the default chunks.
        insts = [batch_instance(seed) for seed in range(70)] + [sb.gen_random(1, 12, 8, 20)]
        want = []
        for inst in insts:
            try:
                want.append(sb.solve_two_pass(inst))
            except sb.Infeasible:
                want.append(None)
        batched = [n for n, _ in batches]
        for block in (1, 2000, 1 << 40):
            monkeypatch.setattr(scoring_solvers, "_GATHER_BLOCK", block)
            batches.clear()
            for inst, answer in zip(insts, want):
                if answer is not None:
                    assert sb.solve_two_pass(inst) == answer
            assert [n for n, _ in batches] == batched
        assert len(batched) >= 15 and sum(n > 1 for n in batched) >= 15, batched


def test_every_scoring_solver_agrees_on_infeasibility():
    # Every voter's prices are cut to a random prefix followed by
    # unreachable marks; A, G, Aeps (admitted and as its scaled rounds
    # alone), B and, on weighted instances, Bw raise Infeasible exactly
    # when the exact oracle does.
    rules = (
        lambda m: sb.borda(m),
        lambda m: sb.k_approval(m, 1 + m // 3),
        lambda m: sb.ScoringVector((9, 4, 4, 1, 0)[:m]),
    )
    solvers = [
        sb.solve_two_pass,
        sb.solve_single_pass,
        lambda i: sb.solve_two_pass_scaled(i, 1),
        lambda i: scaled_rounds_alone(i, 1),
        sb.solve_bootstrap,
    ]
    infeasible = 0
    for seed in range(150):
        rng = random.Random(seed)
        m = 2 + seed % 4
        weighted = seed // 3 % 2 == 1
        rule = sb.ScoringRule(rules[seed % 3](m))
        inst = cut_prices(sb.gen_random(seed, 1 + seed % 4, m, 6, weighted=weighted, rule=rule), rng)
        try:
            sb.exact_shift_opt(inst)
            want = False
        except sb.Infeasible:
            want = True
        infeasible += want
        for solve in solvers + [sb.solve_bootstrap_weighted] * weighted:
            try:
                solve(inst)
                got = False
            except sb.Infeasible:
                got = True
            assert got == want, (seed, solve)
    assert 40 <= infeasible <= 110, infeasible


@pytest.mark.parametrize("solver", [sb.solve_two_pass, sb.solve_single_pass], ids=["A", "G"])
def test_price_total_just_below_int64(solver):
    # Borda prices scaled so that the largest prices sum to just below
    # 2**63.  No sweep adds a price to a budget, so the answer is the
    # unscaled one with its cost scaled, and no numpy overflow warning
    # (an error under this suite) is raised.
    base = sb.gen_random(3, 6, 4, 9)
    scale = ((1 << 63) - 1) // price_total(base)
    costs = tuple(sb.CostFunction(tuple(scale * p for p in cf.prices)) for cf in base.costs)
    inst = sb.ShiftBriberyInstance(base.election, costs, base.rule)
    assert (1 << 63) - price_total(base) <= price_total(inst) < 1 << 63
    cost, action = solver(base)
    assert solver(inst) == (scale * cost, action)


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


def admitted_instance(seed):
    """Seeded Borda, k-approval or weighted Borda instance (by seed % 3),
    n <= 4 and m <= 4, that the preferred candidate does not already win;
    small enough for the exact sweep to be admitted."""
    n, m = 1 + seed % 4, 2 + seed // 3 % 3
    if seed % 3 == 1:
        rule = sb.ScoringRule(sb.k_approval(m, 1 + seed // 9 % (m - 1)))
    else:
        rule = sb.ScoringRule(sb.borda(m))
    draw = seed
    while True:
        inst = sb.gen_random(draw, n, m, 8, weighted=seed % 3 == 2, rule=rule)
        if 0 not in sb.winners(sb.rule_scores(inst.election, inst.rule)):
            break
        draw += 1000
    assert (n + 1) * (price_total(inst) + 1) <= scoring_solvers.DEFAULT_EXACT_THRESHOLD
    return inst


ADMITTED_SEEDS = range(36)


def guess_instance(seed):
    """Seeded 5x4 instance with prices <= 6 that the preferred candidate
    does not already win: Borda on odd seeds, else k-approval with k = 1 +
    seed // 2 % 3, weighted on seeds 6..11 mod 12; the size of ``B``'s
    benchmark requests."""
    rule = sb.ScoringRule(sb.borda(4) if seed % 2 else sb.k_approval(4, 1 + seed // 2 % 3))
    draw = seed
    while True:
        inst = sb.gen_random(draw, 5, 4, 6, weighted=seed // 6 % 2 == 1, rule=rule)
        if 0 not in sb.winners(sb.rule_scores(inst.election, inst.rule)):
            return inst
        draw += 1000


def bootstrap_solver(inst):
    """``solve_bootstrap_weighted`` for a weighted instance, else ``solve_bootstrap``."""
    return sb.solve_bootstrap if inst.election.weights is None else sb.solve_bootstrap_weighted


class TestSolveTwoPassScaled:
    def test_equals_two_pass_when_admitted(self):
        # the exact sweep runs alone: A's cost and witness, byte for byte
        for seed in ADMITTED_SEEDS:
            inst = admitted_instance(seed)
            want = repr(sb.solve_two_pass(inst))
            for eps in (1, Fraction(1, 4), Fraction(1, 100)):
                assert repr(sb.solve_two_pass_scaled(inst, eps)) == want, (seed, eps)

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
        # The instance admits the exact sweep, so the rounds are driven alone.
        monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 10**40)
        with pytest.raises(
            OverflowError,
            match="^total of the largest prices exceeds the checked 64-bit integer range",
        ):
            scaled_rounds_alone(thm6_k1, Fraction(1, 10**20))

    def test_rounds_keep_only_shifts_priced_below_big(self):
        # Some round's sweep buys a shift priced at the big value; keeping
        # that action would return A's witness (0, 4, 2) instead.  Aeps and
        # B as called run the admitted exact sweep alone and return A's.
        e = sb.Election(
            ("p", "c1", "c2", "c3", "c4"), ((1, 4, 3, 0, 2), (3, 1, 4, 2, 0), (1, 2, 0, 3, 4))
        )
        costs = tuple(sb.CostFunction(p) for p in ((1, 2, 3), (1, 2, 2, 3), (0, 0)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(5)))
        cost, action = scaled_rounds_alone(inst, 1)
        assert (cost, action.shifts) == (3, (1, 3, 2))
        for cost, action in (
            sb.solve_two_pass(inst),
            sb.solve_two_pass_scaled(inst, Fraction(1, 4)),
            sb.solve_bootstrap(inst),
        ):
            assert (cost, action.shifts) == (3, (0, 4, 2))

    def test_exact_candidate_kept_at_prices_above_big(self):
        # eps = 3 puts the big value at 31, below both prices; the admitted
        # exact A sweep runs alone and returns 399, the rounds alone 402.
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
    def test_within_two_pass_and_twice_optimal_when_admitted(self):
        # A's answer is the no-guess baseline, and the right guess pays its
        # price plus at most twice the optimal remainder
        for seed in ADMITTED_SEEDS:
            inst = admitted_instance(seed)
            bound = min(sb.solve_two_pass(inst)[0], 2 * sb.exact_shift_opt(inst)[0])
            solvers = [sb.solve_bootstrap]
            if inst.election.weights is not None:
                solvers.append(sb.solve_bootstrap_weighted)
            for solve in solvers:
                cost, action = solve(inst)
                assert cost <= bound, (seed, solve.__name__, cost, bound)
                assert sb.is_successful(inst, action)

    def test_already_winner(self):
        e = sb.Election(("p", "c"), ((0, 1),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))
        assert sb.solve_bootstrap(inst) == (0, sb.ShiftAction((0,)))

    def test_capped_guesses_match_the_uncapped_loop(self):
        # Each guess solves its remainder only below the best cost so far;
        # the answer is that of the loop that solves every remainder in
        # full, cost and witness, on 5x4 instances with prices <= 6 that
        # the preferred candidate does not already win (Borda and
        # k-approval, weighted and not) and at 12x8 with prices <= 20.  On
        # the last two 5x4 instances B's answer is one shift that wins
        # alone, found by that guess's own sweep.
        insts = [guess_instance(seed) for seed in range(120)]
        insts += [sb.gen_random(seed, 12, 8, 20, weighted=w) for seed in (1, 2, 3) for w in (False, True)]
        insts += [sb.gen_random(23, 5, 4, 6), sb.gen_random(2, 5, 4, 6, weighted=True)]
        for inst in insts:
            want = repr(bootstrap_uncapped(inst))
            assert repr(sb.solve_bootstrap(inst)) == want
            if inst.election.weights is not None:
                assert repr(sb.solve_bootstrap_weighted(inst)) == want

    def test_admitted_guesses_after_scaled_baseline_rounds(self, monkeypatch):
        # The baseline's unscaled sweep is refused, so the baseline runs the
        # scaled rounds, while some guesses' remainders are admitted and
        # sweep rows of their own; the answer, or the exception, is still
        # that of the uncapped loop, which solves each remainder afresh.
        # The instances: 4 voters rank c over p under 2-candidate Borda, at
        # prices 150000, 150000, inf, inf (P = 300000, and a guess of either
        # priced voter leaves 150000); one whose largest prices sum to
        # exactly 2**63 - 1, the guessed voter's at 2**63 - 6, while the
        # remainder above its guess is admitted; and seeded 4-voter instances whose
        # first two voters' prices are scaled so that the larger of their
        # largest prices lies just below 199,999, the largest admitted price
        # total, on every third seed with the other two voters' shifts cut.
        # In the first, the reach test rules out both guesses before any
        # sweep: the other priced voter's shift costs more than the cap, so
        # a guess leaves c a lead that nothing affordable closes.
        calls, screens = [], []
        two_pass = scoring_solvers._two_pass
        screen = scoring_solvers._screen_guesses

        def recording_two_pass(*args):
            calls.append((len(args) > 4, args[2].tolist()))
            return two_pass(*args)

        def recording_screen(table, prices, best, frontier):
            screened = screen(table, prices, best, frontier)
            screens.append(screened)
            return screened

        two = sb.Election(("p", "c"), ((1, 0),) * 4)
        three = sb.Election(("p", "c1", "c2"), ((1, 2, 0), (1, 0, 2)))
        insts = [
            sb.ShiftBriberyInstance(
                two, (sb.CostFunction((150000,)),) * 2 + (sb.CostFunction((None,)),) * 2, sb.ScoringRule(sb.borda(2))
            ),
            sb.ShiftBriberyInstance(
                three,
                (sb.CostFunction(((1 << 63) - 100, (1 << 63) - 6)), sb.CostFunction((5,))),
                sb.ScoringRule(sb.borda(3)),
            ),
        ]
        for seed in range(360):
            base = sb.gen_random(seed, 4, 2 + seed % 3, 6, weighted=seed % 2 == 1)
            costs = list(base.costs)
            scale = 199990 // max([1] + [p for cf in costs[:2] for p in cf.prices])
            costs[:2] = [sb.CostFunction(tuple(scale * p for p in cf.prices)) for cf in costs[:2]]
            if seed % 3 == 0:
                costs[2:] = [sb.CostFunction((None,) * cf.cap) for cf in costs[2:]]
            insts.append(sb.ShiftBriberyInstance(base.election, tuple(costs), base.rule))
        mixed = []
        for inst in insts:
            calls.clear()
            screens.clear()
            with monkeypatch.context() as mp:
                mp.setattr(scoring_solvers, "_two_pass", recording_two_pass)
                mp.setattr(scoring_solvers, "_screen_guesses", recording_screen)
                try:
                    got = repr(sb.solve_bootstrap(inst))
                except (sb.Infeasible, OverflowError) as err:
                    got = repr(err)
            try:
                want = repr(bootstrap_uncapped(inst))
            except (sb.Infeasible, OverflowError) as err:
                want = repr(err)
            assert got == want
            baseline_rounds = sum(not admitted and not any(start) for admitted, start in calls)
            admitted = [start for admitted, start in calls if admitted and any(start)]
            if inst is insts[0]:
                # the reach test admits neither guess, (0, 1) nor (1, 1)
                assert screens == [[]]
                assert (got, baseline_rounds, admitted) == (repr((300000, sb.ShiftAction((1, 1, 0, 0)))), 19, [])
            if baseline_rounds and admitted:
                mixed.append((got, baseline_rounds, admitted))
        assert mixed[0] == (repr(((1 << 63) - 95, sb.ShiftAction((1, 1)))), 64, [[1, 0]])
        assert mixed[1] == (repr((50005, sb.ShiftAction((0, 2, 1, 3)))), 19, [[1, 0, 0, 0], [0, 2, 0, 0]])
        assert len(mixed) >= 7

    def test_reach_test_rules_out_most_guess_sweeps(self, monkeypatch):
        # On B's benchmark size the reach test, its gain capped by the
        # baseline's frontier, rules out most of the guesses the loop would
        # sweep: 35 _two_pass calls on these 24 B and Bw solves, baseline
        # included, against 56 without the cap and 110 with every guess swept.
        calls = []
        two_pass = scoring_solvers._two_pass

        def counting_two_pass(*args):
            calls.append(args[2])
            return two_pass(*args)

        monkeypatch.setattr(scoring_solvers, "_two_pass", counting_two_pass)
        for inst in map(guess_instance, range(24)):
            bootstrap_solver(inst)(inst)
        assert len(calls) == 35

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

    def test_zero_cost_baseline_screens_no_guess(self, monkeypatch):
        # Every shift free: the baseline costs 0 and B returns it before
        # reading its frontier or screening any guess, with the answer of
        # the loop that solves every guess in full.
        def screen(*args):
            raise AssertionError("a guess was screened below cost 0")

        monkeypatch.setattr(scoring_solvers, "_screen_guesses", screen)
        for inst in map(guess_instance, range(24)):
            free = tuple(sb.CostFunction((0,) * cf.cap) for cf in inst.costs)
            inst = sb.ShiftBriberyInstance(inst.election, free, inst.rule)
            cost, action = bootstrap_solver(inst)(inst)
            assert cost == 0 and (cost, action) == bootstrap_uncapped(inst)

    def test_already_winner_before_any_check(self, monkeypatch):
        # The candidate already wins, so B answers 0 before the cell guard
        # and before the fully shifted score (2**63 here) is range-checked;
        # Aeps builds the shift table and refuses the instance.
        x = (1 << 62) - 2
        e = sb.Election(("p", "c"), ((0, 1), (1, 0)))
        rule = sb.ScoringRule(sb.ScoringVector((x + 2, x)))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction(()), sb.CostFunction((1,))), rule)
        with monkeypatch.context() as mp:
            mp.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 1)
            assert sb.solve_bootstrap(inst) == (0, sb.ShiftAction((0, 0)))
        with pytest.raises(OverflowError, match="fully shifted score"):
            sb.solve_two_pass_scaled(inst, Fraction(1, 4))
        # A code-built price beyond 2**63 - 1: B answers before reading any
        # price, and Aeps refuses the instance as its price array is built.
        e = sb.Election(("p", "c"), ((0, 1), (1, 0)))
        costs = (sb.CostFunction(()), sb.CostFunction((1 << 70,)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(2)))
        assert sb.solve_bootstrap(inst) == (0, sb.ShiftAction((0, 0)))
        with pytest.raises(OverflowError):
            sb.solve_two_pass_scaled(inst, Fraction(1, 4))


@pytest.mark.parametrize(
    "solver",
    [lambda inst: sb.solve_two_pass_scaled(inst, Fraction(1, 4)), sb.solve_bootstrap],
    ids=["Aeps", "B"],
)
@pytest.mark.parametrize(
    "orders,prices,want",
    [
        (((1, 0), (1, 0), (0, 1)), ((1 << 62,), (1 << 62,), ()), (1 << 62, (0, 1, 0))),
        (((1, 0), (1, 0), (0, 1)), ((1 << 70,), (1,), ()), OverflowError),
        (((1, 2, 0), (1, 0, 2)), (((1 << 63) - 100, (1 << 63) + 100), (5,)), OverflowError),
    ],
    ids=["total-2**63", "price-2**70", "guessed-price-2**63+100"],
)
def test_price_total_beyond_int64_answers_a_price_beyond_raises(solver, orders, prices, want):
    # Aeps and B sweep int64 runs of the instance's price array and check
    # only the price totals they sweep: largest prices summing to 2**63
    # still answer (A raises OverflowError on its 64-bit price-total check,
    # CLI exit 2), while a code-built price beyond 2**63 - 1, also one that
    # only B's guess of voter 0's second shift would read, raises
    # OverflowError as the array is built, as for every other solver (the
    # parser refuses such a price).
    m = len(orders[0])
    e = sb.Election(("p", "c1", "c2")[:m], orders)
    inst = sb.ShiftBriberyInstance(e, tuple(map(sb.CostFunction, prices)), sb.ScoringRule(sb.borda(m)))
    if want is OverflowError:
        with pytest.raises(OverflowError):
            solver(inst)
    else:
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
    # The fully shifted score leaves int64 (see TestSolveTwoPass) and the
    # cell guard is set to trip: the shift table, which every scoring solve
    # builds before it consults the guard, reports the score first.
    top = (1 << 63) - 1
    x = (top - 4) // 3
    e = sb.Election(("p", "c"), ((1, 0), (1, 0), (0, 1)))
    rule = sb.ScoringRule(sb.ScoringVector((x + 2, x)))
    costs = (sb.CostFunction((1,)), sb.CostFunction((1,)), sb.CostFunction(()))
    inst = sb.ShiftBriberyInstance(e, costs, rule)
    monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 1)
    with pytest.raises(OverflowError, match="fully shifted score"):
        solver(inst)


@pytest.mark.parametrize(
    "solver,inst,want",
    [
        (sb.solve_bootstrap, sb.gen_random(1, 30, 4, 5), 4),
        (lambda inst: sb.solve_two_pass_scaled(inst, Fraction(1, 4)), sb.gen_random(2, 50, 5, 5), 0),
        (sb.solve_two_pass, sb.gen_random(1, 10, 6, 10**9), 823242659),
    ],
    ids=["B", "Aeps", "A"],
)
def test_small_gain_totals_pass_the_guard(solver, inst, want):
    # The old (n + 1)(P + 1) count refused these (140767342, 151150638 and
    # 117837104682 cells); a frontier never holds more than G + 1 points,
    # and G stays small under Borda, whatever the (re-priced) prices.
    cost, action = solver(inst)
    assert cost == want
    assert sb.is_successful(inst, action)
    assert sb.total_cost(inst, action) <= cost


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
    # Rounds re-price the option rows and guesses sweep them offset at the
    # guess, so no solve builds a second table.
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
            doubled = sb.ShiftAction(tuple(2 * t for t in candidate))
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
