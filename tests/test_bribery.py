"""Cost functions, shift actions, total cost, rebasing, success."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from shiftbribe.bribery import ShiftTable


def borda_instance(orders, prices, weights=None):
    m = len(orders[0])
    names = tuple(f"x{i}" for i in range(m))
    e = sb.Election(names, tuple(tuple(o) for o in orders), weights)
    costs = tuple(sb.CostFunction(tuple(p)) for p in prices)
    return sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(m)))


class TestCostFunction:
    def test_monotone_required(self):
        with pytest.raises(ValueError, match="decreases"):
            sb.CostFunction((5, 3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sb.CostFunction((-1,))

    @pytest.mark.parametrize("price", [2.5, 2.0, "2"])
    def test_non_integer_price_rejected(self, price):
        # an int64 table would truncate 2.5 to 2 while total_cost says 2.5
        with pytest.raises(ValueError, match="price for shift 2 is not an integer"):
            sb.CostFunction((1, price))

    def test_unreachable_suffix_only(self):
        sb.CostFunction((1, 2, None, None))
        with pytest.raises(ValueError, match="suffix"):
            sb.CostFunction((1, None, 2))

    def test_price_clamps(self):
        cf = sb.CostFunction((4, 9))
        assert cf.price(0) == 0
        assert cf.price(1) == 4
        assert cf.price(2) == 9
        assert cf.price(50) == 9
        assert cf.cap == 2

    def test_max_reachable(self):
        assert sb.CostFunction((1, None)).max_reachable == 1
        assert sb.CostFunction(()).max_reachable == 0


class TestInstanceValidation:
    def test_cap_must_match_rank(self):
        e = sb.Election(("p", "c"), ((1, 0),))
        with pytest.raises(ValueError, match="rank"):
            sb.ShiftBriberyInstance(e, (sb.CostFunction(()),), sb.ScoringRule(sb.borda(2)))

    def test_one_cost_function_per_voter(self):
        e = sb.Election(("p", "c"), ((1, 0),))
        with pytest.raises(ValueError, match="per voter"):
            sb.ShiftBriberyInstance(e, (), sb.ScoringRule(sb.borda(2)))


class TestTotalCost:
    def test_zero_action_is_free(self, thm6_k1):
        assert sb.total_cost(thm6_k1, sb.ShiftAction.zero(6)) == 0

    def test_theorem6_cheap_voters(self):
        for k in (1, 2, 3):
            inst = sb.gen_theorem6(k)
            n = inst.num_voters
            action = sb.ShiftAction(tuple(1 if i < 2 * k else 0 for i in range(n)))
            assert sb.total_cost(inst, action) == 2 * k * (2 * k)

    def test_theorem6_expensive_voter(self):
        for k in (1, 2, 5):
            inst = sb.gen_theorem6(k)
            n = inst.num_voters
            action = sb.ShiftAction((0,) * (n - 2) + (4 * k, 0))
            assert sb.total_cost(inst, action) == 4 * k * (2 * k) - 3 * k

    def test_unreachable_shift_rejected(self):
        inst = borda_instance([(1, 2, 0)], [(3, None)])
        with pytest.raises(ValueError, match="unreachable"):
            sb.total_cost(inst, sb.ShiftAction((2,)))

    @given(st.integers(0, 200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_action(self, seed, data):
        inst = sb.gen_random(seed, 3, 4, 5)
        caps = [cf.cap for cf in inst.costs]
        t = tuple(data.draw(st.integers(0, c)) for c in caps)
        bigger = tuple(
            min(ti + data.draw(st.integers(0, 2)), caps[i]) for i, ti in enumerate(t)
        )
        assert sb.total_cost(inst, sb.ShiftAction(t)) <= sb.total_cost(
            inst, sb.ShiftAction(bigger)
        )


class TestRebase:
    def test_identity(self, thm6_k1):
        assert sb.rebase(thm6_k1, sb.ShiftAction.zero(6)) == thm6_k1

    def test_price_arithmetic(self):
        inst = borda_instance([(1, 2, 0)], [(4, 9)])
        rebased = sb.rebase(inst, sb.ShiftAction((1,)))
        assert rebased.costs[0].prices == (5,)
        assert rebased.election.voters[0] == (1, 0, 2)

    def test_cost_split_identity(self):
        # performing t first and s second costs the same as s + t at once
        for seed in range(8):
            inst = sb.gen_random(seed, 2, 3, 4)
            caps = [cf.cap for cf in inst.costs]
            for t in itertools.product(*[range(c + 1) for c in caps]):
                rebased = sb.rebase(inst, sb.ShiftAction(t))
                for s in itertools.product(*[range(c + 1) for c in caps]):
                    lhs = sb.total_cost(
                        inst, sb.ShiftAction(tuple(a + b for a, b in zip(s, t)))
                    )
                    rhs = sb.total_cost(inst, sb.ShiftAction(t)) + sb.total_cost(
                        rebased, sb.ShiftAction(s)
                    )
                    assert lhs == rhs

    def test_double_rebase_composes(self):
        inst = sb.gen_random(5, 3, 4, 5)
        caps = [cf.cap for cf in inst.costs]
        t = tuple(min(1, c) for c in caps)
        s = tuple(min(1, c) for c in caps)
        combined = sb.rebase(inst, sb.ShiftAction(tuple(a + b for a, b in zip(s, t))))
        stepped = sb.rebase(sb.rebase(inst, sb.ShiftAction(t)), sb.ShiftAction(s))
        assert combined == stepped


class TestGain:
    def test_zero_shift(self, thm6_k1):
        assert sb.gain(thm6_k1, 0, 0) == 0

    def test_borda_unit_steps(self):
        inst = borda_instance([(1, 2, 3, 4, 0)], [(1, 2, 3, 4)])
        assert sb.gain(inst, 0, 2) == 2

    def test_alpha_difference(self):
        m = 4
        e = sb.Election(("p", "a", "b", "c"), ((1, 2, 3, 0),))
        rule = sb.ScoringRule(sb.ScoringVector((5, 5, 2, 0)))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((1, 1, 1)),), rule)
        assert sb.gain(inst, 0, 3) == 5
        assert sb.gain(inst, 0, 1) == 2
        assert sb.gain(inst, 0, 99) == 5

    def test_weighted_gain_scales(self):
        inst = borda_instance([(1, 0, 2)], [(3,)], weights=(7,))
        assert sb.gain(inst, 0, 1) == 7

    def test_non_scoring_rejected(self):
        e = sb.Election(("p", "c"), ((1, 0),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((1,)),), sb.MAXIMIN)
        with pytest.raises(sb.IncompatibleRule):
            sb.gain(inst, 0, 1)


class TestIsSuccessful:
    def test_already_winner(self):
        inst = borda_instance([(0, 1, 2)], [()])
        assert sb.is_successful(inst, sb.ShiftAction((0,)))

    def test_theorem6_zero_action_fails(self, thm6_k1):
        assert not sb.is_successful(thm6_k1, sb.ShiftAction.zero(6))

    def test_theorem6_expensive_action_succeeds(self):
        for k in (1, 2):
            inst = sb.gen_theorem6(k)
            n = inst.num_voters
            action = sb.ShiftAction((0,) * (n - 2) + (4 * k, 0))
            assert sb.is_successful(inst, action)

    def test_monotone_for_scoring(self):
        # once successful, shifting further never unmakes a winner
        for seed in range(25):
            inst = sb.gen_random(seed, 3, 3, 4)
            caps = [cf.cap for cf in inst.costs]
            for t in itertools.product(*[range(c + 1) for c in caps]):
                if not sb.is_successful(inst, sb.ShiftAction(t)):
                    continue
                for i in range(len(caps)):
                    if t[i] < caps[i]:
                        bigger = list(t)
                        bigger[i] += 1
                        assert sb.is_successful(inst, sb.ShiftAction(tuple(bigger)))


class TestShiftTableRange:
    def test_weighted_step_beyond_int64_raises(self):
        # weight 2**62 times the Borda steps 1 + 1 lifts the preferred
        # candidate by 2**63: refused, not wrapped
        inst = borda_instance([(1, 2, 0), (0, 1, 2)], [(1, 2), ()], weights=(1 << 62, 1))
        with pytest.raises(OverflowError, match="exceeds the checked 64-bit integer range"):
            ShiftTable(inst)

    def test_weights_beyond_the_int64_bound_still_tabulate(self):
        # total weight times the top score entry passes 2**63, but no score
        # or reachable shift does
        inst = borda_instance([(0, 1), (1, 0)], [(), (None,)], weights=(1 << 62, 1 << 62))
        table = ShiftTable(inst)
        assert table.base.tolist() == [1 << 62, 1 << 62]
        assert [d.tolist() for d in table.deltas] == [[[0, 0]], [[0, 0]]]
        assert table.rows_after(np.zeros((1, 2), dtype=np.int64)).tolist() == [[1 << 62] * 2]
