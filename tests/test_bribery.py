"""Cost functions, shift actions, total cost, rebasing, success."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from shiftbribe import oracle
from shiftbribe.bribery import ShiftTable, _pairwise_wins, _rival_tally, _scoring_wins


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

    @pytest.mark.parametrize("price", [2.5, 2.0, "2", True])
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

    @pytest.mark.parametrize(
        "prices,want",
        [((), 0), ((1, 2), 2), ((1, None), 1), ((None,), 0), ((3, 3, None, None), 2)],
    )
    def test_max_reachable_stops_at_the_first_unreachable_mark(self, prices, want):
        assert sb.CostFunction(prices).max_reachable == want


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


I64_MAX = (1 << 63) - 1


def old_copeland_wins(tally, alpha, rows):
    """The Copeland winner test before it read one outcome table: the
    preferred candidate's scaled wins and ties against each rival's score
    from the rival-only sub-tally plus its result against the preferred one."""
    num, den = alpha.numerator, alpha.denominator
    base = np.array(sb.copeland_scores(_rival_tally(tally), alpha), dtype=np.int64)
    ours = rows[:, 1:]
    against = tally.total_weight - ours
    tie = num * (ours == against)
    p_score = (den * (ours > against) + tie).sum(axis=1)
    return p_score >= (base + den * (against > ours) + tie).max(axis=1)


def old_scoring_wins(rows):
    """The scoring winner test before it read candidate-major rows."""
    return rows[:, 0] == rows.max(axis=1)


def old_maximin_wins(tally, rows):
    """The maximin winner test before it read candidate-major rows: each
    rival's worst pairwise count, from the rival-only sub-tally or against
    the preferred candidate, is at most the preferred candidate's."""
    fixed_min = np.array(sb.maximin_scores(_rival_tally(tally)), dtype=np.int64)
    p_score = rows[:, 1:].min(axis=1)
    rival = np.minimum(fixed_min, tally.total_weight - rows[:, 1:])
    return (rival <= p_score[:, None]).all(axis=1)


def old_cover_accepts(required, rows):
    """The acceptance test of ``exact_cover_opt`` before it read
    candidate-major rows: every count meets its required support."""
    return (rows >= np.array(required, dtype=np.int64)).all(axis=1)


# Batches as the exact oracle's rounds and the scoring solvers make them:
# empty, one row, full 4,096-row batches and sizes between, of 1 to 20
# candidates and of 201, whose rows are longer than most batches.
BATCH_ROWS = st.one_of(st.sampled_from([0, 1, 4096]), st.integers(2, 4095))
CANDIDATES = st.one_of(st.sampled_from([1, 2, 201]), st.integers(3, 20))
TOTALS = st.sampled_from([1, 2, 7, 10, 1 << 62, I64_MAX - 1, I64_MAX])


def batches(data, values, k, m):
    """A (k x m) batch of ``values`` and two non-contiguous ones: every
    second row of a (2k x m) batch and the middle m columns of a
    (k x m + 2) batch."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = np.array(sorted(set(values)), dtype=np.int64)
    return [
        rng.choice(values, size=(k, m)),
        rng.choice(values, size=(2 * k, m))[::2],
        rng.choice(values, size=(k, m + 2))[:, 1:-1],
    ]


def counts(data, total, extra=()):
    """Pairwise counts up to ``total``: ties, halves, the ends and a few
    drawn ones, near 2**63 - 1 where twice a count would overflow."""
    drawn = data.draw(st.lists(st.integers(0, total), min_size=1, max_size=4))
    return [0, total // 2, (total + 1) // 2, total, *drawn, *extra]


def random_tally(data, m, total):
    """A tally of m candidates whose every pair sums to ``total``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.choice(np.array(counts(data, total), dtype=np.int64), size=(m, m)), 1)
    n_matrix = upper + np.triu(total - upper, 1).T
    return sb.PairwiseTally(n_matrix.tolist(), total)


class TestScoringWinnerTest:
    @settings(max_examples=150, deadline=None)
    @given(BATCH_ROWS, CANDIDATES, st.data())
    def test_matches_the_old_formula(self, k, m, data):
        # scores up to 2**63 - 1, few distinct so that the top ties
        scores = data.draw(st.lists(st.integers(0, I64_MAX), min_size=1, max_size=6))
        for rows in batches(data, [0, I64_MAX, *scores], k, m):
            got = _scoring_wins(rows)
            assert got.tolist() == old_scoring_wins(rows).tolist()

    def test_is_the_scoring_tables_test(self):
        inst = borda_instance([(1, 2, 0), (0, 1, 2)], [(1, 2), ()])
        assert ShiftTable(inst).wins is _scoring_wins


class TestCopelandWinnerTest:
    ALPHAS = [sb.CopelandAlpha(0), sb.CopelandAlpha(1, 2), sb.CopelandAlpha(1), sb.CopelandAlpha(2, 3)]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ALPHAS), CANDIDATES, TOTALS, BATCH_ROWS, st.data())
    def test_matches_the_old_formula(self, alpha, m, total, k, data):
        # a tally whose every pair sums to the total, and rows of the
        # preferred candidate's counts; with one candidate it always wins
        tally = random_tally(data, m, total)
        for rows in batches(data, counts(data, total), k, m):
            got = _pairwise_wins(tally, sb.CopelandRule(alpha))(rows)
            want = old_copeland_wins(tally, alpha, rows) if m > 1 else [True] * k
            assert got.tolist() == list(want)


class TestMaximinWinnerTest:
    @settings(max_examples=150, deadline=None)
    @given(CANDIDATES, TOTALS, BATCH_ROWS, st.data())
    def test_matches_the_old_formula(self, m, total, k, data):
        tally = random_tally(data, m, total)
        for rows in batches(data, counts(data, total), k, m):
            got = _pairwise_wins(tally, sb.MAXIMIN)(rows)
            want = old_maximin_wins(tally, rows) if m > 1 else [True] * k
            assert got.tolist() == list(want)


def cover_accept(inst, targets):
    """The acceptance test that ``exact_cover_opt`` hands its search."""
    handed = []

    def capture(prices, deltas, base, accept):
        handed.append(accept)
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_cheapest", capture)
        with pytest.raises(sb.Infeasible):
            sb.exact_cover_opt(inst, targets)
    return handed[0]


class TestCoverAcceptanceTest:
    @settings(max_examples=150, deadline=None)
    @given(CANDIDATES, TOTALS, BATCH_ROWS, st.data())
    def test_matches_the_old_formula(self, m, total, k, data):
        # one voter, or two whose weights sum to the total, in random
        # orders with free shifts; targets up to the total
        weights = (total,) if total == 1 else (w := data.draw(st.integers(1, total - 1)), total - w)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        orders = [tuple(rng.permutation(m).tolist()) for _ in weights]
        e = sb.Election(tuple(f"x{i}" for i in range(m)), tuple(orders), weights)
        costs = tuple(sb.CostFunction((0,) * (e.rank_of(i, 0) - 1)) for i in range(len(weights)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.MAXIMIN)
        targets = rng.choice(np.array(counts(data, total)), size=m - 1).tolist()
        support = sb.pairwise_tally(e).n_matrix[0]
        required = [0] + [min(support[c] + targets[c - 1], total) for c in range(1, m)]
        near = [r - 1 for r in required if r]
        accept = cover_accept(inst, targets)
        for rows in batches(data, counts(data, total, required + near), k, m):
            assert accept(rows).tolist() == old_cover_accepts(required, rows).tolist()
