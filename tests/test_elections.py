"""Elections, scores, winners, and shifting."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from loop_reference import loop_tally
from shiftbribe.elections import _check_i64, _unchecked


def _election(draw_orders, weights=None, m=None):
    orders = tuple(tuple(o) for o in draw_orders)
    m = m or len(orders[0])
    names = tuple(f"x{i}" for i in range(m))
    return sb.Election(names, orders, weights)


@st.composite
def elections(draw, max_n=5, max_m=5, weighted=False):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    orders = tuple(tuple(draw(st.permutations(range(m)))) for _ in range(n))
    weights = None
    if weighted and draw(st.booleans()):
        weights = tuple(draw(st.integers(1, 5)) for _ in range(n))
    return _election(orders, weights, m)


class TestElectionValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            sb.Election(("a", "b"), ((0, 0),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="distinct"):
            sb.Election(("a", "a"), ((0, 1),))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="positive"):
            sb.Election(("a", "b"), ((0, 1),), (0,))
        with pytest.raises(ValueError, match="per voter"):
            sb.Election(("a", "b"), ((0, 1),), (1, 1))

    @pytest.mark.parametrize("weight", [1.5, 2.0])
    def test_rejects_non_integer_weights(self, weight):
        # the int64 tables would truncate a weight of 1.5 to 1
        with pytest.raises(ValueError, match="voter 1: weight must be a positive integer"):
            sb.Election(("a", "b"), ((0, 1), (1, 0)), (1, weight))

    def test_rejects_bool_weights(self):
        # serialize_instance would write "weight: True", which no parser reads
        with pytest.raises(ValueError, match="voter 0: weight must be a positive integer"):
            sb.Election(("p", "c"), ((1, 0), (0, 1)), (True, 2))

    def test_rejects_bool_scoring_entries(self):
        with pytest.raises(ValueError, match="must be integers, got True"):
            sb.ScoringVector((2, True, 0))

    def test_weight_beyond_int64_builds(self):
        # only the sums that need the weight refuse it
        e = sb.Election(("a", "b"), ((0, 1), (1, 0)), (1 << 64, 1))
        assert e.rank_of(0, 1) == 2 and e.rank_of(1, 0) == 2
        assert sb.apply_shift(e, (0, 1)).voters == ((0, 1), (0, 1))
        assert sb.scoring_scores(e, sb.ScoringVector((0, 0))) == [0, 0]
        with pytest.raises(OverflowError, match="score of candidate 0"):
            sb.scoring_scores(e, sb.borda(2))
        with pytest.raises(OverflowError, match="total voter weight"):
            sb.pairwise_tally(e)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sb.Election((), ())
        with pytest.raises(ValueError):
            sb.Election(("a",), ())


class TestScoringScores:
    def test_single_voter(self):
        e = _election([(0, 1, 2)])
        assert sb.scoring_scores(e, sb.ScoringVector((2, 1, 0))) == [2, 1, 0]

    def test_theorem6_k1_scores(self, thm6_k1):
        scores = sb.scoring_scores(thm6_k1.election, thm6_k1.rule.vector)
        assert scores[0] == 21
        assert scores[1] == 25
        assert scores[2:] == [11, 11, 11, 11]

    def test_weighted_matches_per_voter_loop(self):
        e = _election([(2, 0, 1, 3), (1, 3, 2, 0), (0, 3, 1, 2)], weights=(1, 2, 3))
        alpha = sb.ScoringVector((3, 2, 1, 0))
        expected = [0] * 4
        for i, order in enumerate(e.voters):
            for pos, cand in enumerate(order):
                expected[cand] += e.weights[i] * alpha[pos]
        assert sb.scoring_scores(e, alpha) == expected

    def test_length_mismatch(self):
        e = _election([(0, 1)])
        with pytest.raises(ValueError, match="length"):
            sb.scoring_scores(e, sb.ScoringVector((1, 0, 0)))

    def test_overflow_is_hard_error(self):
        with pytest.raises(OverflowError):
            _check_i64(1 << 64, "test value")

    @given(elections(weighted=True))
    @settings(max_examples=60, deadline=None)
    def test_total_score_invariant_under_shift(self, e):
        alpha = sb.borda(e.num_candidates)
        before = sum(sb.scoring_scores(e, alpha))
        shifted = sb.apply_shift(e, tuple(1 for _ in e.voters))
        assert sum(sb.scoring_scores(shifted, alpha)) == before


class TestScoringVector:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            sb.ScoringVector((0, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            sb.ScoringVector((1, -1))

    @pytest.mark.parametrize("entry", [0.5, 1.0])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(ValueError, match="entries must be integers"):
            sb.ScoringVector((2, entry, 0))

    def test_borda_and_kapproval(self):
        assert sb.borda(4).scores == (3, 2, 1, 0)
        assert sb.k_approval(4, 2).scores == (1, 1, 0, 0)


class TestPairwiseTally:
    def test_single_voter(self):
        e = _election([(0, 1, 2)])
        t = sb.pairwise_tally(e)
        assert t.n_matrix[0][1] == t.n_matrix[0][2] == t.n_matrix[1][2] == 1
        assert t.n_matrix[1][0] == t.n_matrix[2][0] == t.n_matrix[2][1] == 0

    @given(elections(weighted=True))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, e):
        t = sb.pairwise_tally(e)
        m = e.num_candidates
        for i in range(m):
            assert t.n_matrix[i][i] == 0
            for j in range(m):
                if i != j:
                    assert t.n_matrix[i][j] + t.n_matrix[j][i] == e.total_weight

    def test_matches_recount(self):
        e = _election([(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (0, 1, 2)])
        t = sb.pairwise_tally(e)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                count = sum(
                    1 for order in e.voters if order.index(i) < order.index(j)
                )
                assert t.n_matrix[i][j] == count


class TestPairwiseTallyReference:
    @given(elections(max_n=8, max_m=6, weighted=True))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, e):
        t = sb.pairwise_tally(e)
        assert t.n_matrix == loop_tally(e)
        assert t.total_weight == e.total_weight

    def test_small_cases(self):
        for e in (
            _election([(0,)]),
            _election([(0,), (0,)], weights=(3, 4)),
            _election([(2, 0, 1)]),
            _election([(2, 0, 1)], weights=(7,)),
            _election([(1, 0, 2), (2, 1, 0), (0, 2, 1)], weights=(5, 1, 2)),
        ):
            assert sb.pairwise_tally(e).n_matrix == loop_tally(e)
        assert sb.pairwise_tally(_election([(0,)])).n_matrix == ((0,),)

    def test_voter_blocks(self, monkeypatch):
        # blocks of one voter (4 * 4 comparisons) and of three voters
        elections_ = [
            _election([(3, 1, 0, 2), (0, 1, 2, 3), (2, 3, 1, 0), (1, 0, 3, 2)], weights=w)
            for w in (None, (1, 9, 4, 2))
        ]
        for block in (1, 48):
            monkeypatch.setattr(sb.elections, "_TALLY_BLOCK", block)
            for e in elections_:
                assert sb.pairwise_tally(e).n_matrix == loop_tally(e)

    def test_weights_at_int64_limit(self):
        e = _election([(0, 1, 2), (2, 1, 0)], weights=(1 << 62, (1 << 62) - 1))
        t = sb.pairwise_tally(e)
        assert t.n_matrix == loop_tally(e)
        assert t.total_weight == (1 << 63) - 1
        assert all(type(x) is int for row in t.n_matrix for x in row)

    def test_total_weight_beyond_int64_raises(self):
        e = _election([(0, 1, 2), (2, 1, 0)], weights=(1 << 62, 1 << 62))
        with pytest.raises(OverflowError, match="total voter weight"):
            sb.pairwise_tally(e)


class TestCopelandScores:
    def test_condorcet_winner(self):
        e = _election([(0, 1, 2), (0, 2, 1), (1, 0, 2)])
        alpha = sb.CopelandAlpha(1, 2)
        scores = sb.copeland_scores(sb.pairwise_tally(e), alpha)
        assert scores[0] == 2 * alpha.denominator

    def test_symmetric_tie(self):
        e = _election([(0, 1), (1, 0)])
        alpha = sb.CopelandAlpha(1, 2)
        scores = sb.copeland_scores(sb.pairwise_tally(e), alpha)
        assert scores == [alpha.numerator, alpha.numerator]

    def test_matches_rational_arithmetic(self):
        e = _election(
            [(3, 1, 0, 2), (0, 2, 3, 1), (1, 3, 2, 0), (2, 0, 1, 3), (3, 0, 2, 1)]
        )
        alpha = sb.CopelandAlpha(3, 10)
        t = sb.pairwise_tally(e)
        scaled = sb.copeland_scores(t, alpha)
        for i in range(4):
            exact = Fraction(0)
            for j in range(4):
                if i == j:
                    continue
                if t.n_matrix[i][j] > t.n_matrix[j][i]:
                    exact += 1
                elif t.n_matrix[i][j] == t.n_matrix[j][i]:
                    exact += Fraction(3, 10)
            assert Fraction(scaled[i], alpha.denominator) == exact

    @given(elections(max_m=4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_argmax_invariant_under_scaling(self, e, factor):
        # scaling numerator and denominator together must not change winners
        t = sb.pairwise_tally(e)
        base = sb.copeland_scores(t, sb.CopelandAlpha(1, 3))
        scaled = [s * factor for s in base]
        assert sb.winners(base) == sb.winners(scaled)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            sb.CopelandAlpha(2, 1)
        with pytest.raises(ValueError):
            sb.CopelandAlpha(1, 0)
        assert sb.CopelandAlpha(5, 10) == sb.CopelandAlpha(1, 2)

    @pytest.mark.parametrize(
        "num,den",
        [(0.5, 1), (Fraction(1, 2), 1), (1, 2.0), (1, Fraction(2)), (True, 2), (1, True)],
    )
    def test_alpha_rejects_non_integers(self, num, den):
        # a ValueError (CLI exit 2), like prices, weights and scoring entries;
        # True is an int to isinstance, but no part of a ratio
        with pytest.raises(ValueError, match="alpha must be a ratio of integers"):
            sb.CopelandAlpha(num, den)


class TestMaximinScores:
    def test_single_voter(self):
        e = _election([(0, 1, 2)])
        assert sb.maximin_scores(sb.pairwise_tally(e)) == [1, 0, 0]

    def test_unanimous(self):
        e = _election([(1, 0, 2)] * 4)
        assert sb.maximin_scores(sb.pairwise_tally(e)) == [0, 4, 0]

    def test_single_candidate_convention(self):
        e = _election([(0,), (0,), (0,)], weights=(2, 1, 1))
        assert sb.maximin_scores(sb.pairwise_tally(e)) == [4]

    @given(elections())
    @settings(max_examples=40, deadline=None)
    def test_matches_row_minimum(self, e):
        t = sb.pairwise_tally(e)
        scores = sb.maximin_scores(t)
        m = e.num_candidates
        if m == 1:
            assert scores == [e.total_weight]
            return
        for i in range(m):
            assert scores[i] == min(t.n_matrix[i][j] for j in range(m) if j != i)


class TestWinners:
    def test_tie_at_max(self):
        assert sb.winners((5, 5, 3)) == {0, 1}

    def test_singleton(self):
        assert sb.winners((0,)) == {0}

    def test_theorem6_k1_not_a_winner(self, thm6_k1):
        scores = sb.scoring_scores(thm6_k1.election, thm6_k1.rule.vector)
        assert sb.winners(scores) == {1}
        assert 0 not in sb.winners(scores)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sb.winners(())


class TestApplyShift:
    def test_zero_shift_is_identity(self):
        e = _election([(1, 2, 0), (0, 1, 2)])
        assert sb.apply_shift(e, (0, 0)) == e

    def test_full_shift_to_top(self):
        e = _election([(1, 2, 0)])
        assert sb.apply_shift(e, (2,)).voters == ((0, 1, 2),)

    def test_clamped_shift(self):
        e = _election([(1, 2, 0)])
        assert sb.apply_shift(e, (99,)).voters == ((0, 1, 2),)

    def test_input_not_mutated(self):
        e = _election([(1, 2, 0)])
        sb.apply_shift(e, (1,))
        assert e.voters == ((1, 2, 0),)

    def test_length_mismatch(self):
        e = _election([(1, 2, 0)])
        with pytest.raises(ValueError):
            sb.apply_shift(e, (1, 0))

    @given(elections(weighted=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_preferred_pairs_unchanged(self, e, data):
        shifts = tuple(
            data.draw(st.integers(0, e.num_candidates)) for _ in range(e.num_voters)
        )
        before = sb.pairwise_tally(e)
        after = sb.pairwise_tally(sb.apply_shift(e, shifts))
        m = e.num_candidates
        for i in range(1, m):
            for j in range(1, m):
                assert before.n_matrix[i][j] == after.n_matrix[i][j]

    @given(elections(weighted=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unit_shift_moves_one_point_block(self, e, data):
        # a single-position shift transfers weight*(alpha gap) from exactly
        # one candidate to the preferred one, leaving the rest unchanged
        voter = data.draw(st.integers(0, e.num_voters - 1))
        if e.voters[voter].index(0) == 0:
            return
        alpha = sb.borda(e.num_candidates)
        shifts = tuple(1 if i == voter else 0 for i in range(e.num_voters))
        before = sb.scoring_scores(e, alpha)
        after = sb.scoring_scores(sb.apply_shift(e, shifts), alpha)
        idx = e.voters[voter].index(0)
        gap = e.weight(voter) * (alpha[idx - 1] - alpha[idx])
        displaced = e.voters[voter][idx - 1]
        assert after[0] - before[0] == gap
        assert before[displaced] - after[displaced] == gap
        for c in range(e.num_candidates):
            if c not in (0, displaced):
                assert before[c] == after[c]


@pytest.mark.parametrize("seed", range(3))
def test_orders_equal_to_ints_are_stored_as_ints(seed):
    # Entries such as 1.0 pass the permutation check; the election keeps
    # them as ints, so the instance round-trips through the file format and
    # the Condorcet solvers, which index by them, answer as for int orders.
    for rule in (sb.CopelandRule(sb.CopelandAlpha(1, 2)), sb.MaximinRule()):
        inst = sb.gen_random(seed, 6, 4, 5, rule=rule)
        e = inst.election
        floats = sb.Election(e.candidates, [[float(c) for c in order] for order in e.voters])
        assert floats.voters == e.voters
        assert all(type(c) is int for order in floats.voters for c in order)
        twin = sb.ShiftBriberyInstance(floats, inst.costs, rule)
        text = sb.serialize_instance(twin)
        assert text == sb.serialize_instance(inst)
        assert sb.serialize_instance(sb.parse_instance(text)) == text
        solve = sb.solve_maximin_shift if rule == sb.MaximinRule() else sb.solve_copeland_shift
        assert solve(twin) == solve(inst)
        assert sb.cover_targets_greedy(twin, (1, 2, 3)) == sb.cover_targets_greedy(inst, (1, 2, 3))



def _retained(build, count=3000):
    """Bytes still allocated after ``count`` calls of ``build``, all kept;
    warmed up first, and without garbage collection while counting."""
    for _ in range(100):
        build()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        kept = [build() for _ in range(count)]  # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_unchecked_objects_are_no_larger_than_checked_ones():
    # _unchecked sets fields as __init__ does; reading an object's __dict__
    # would give each of the 3,000 objects a dictionary (~150 bytes).  The
    # 1 KB spares one-time interpreter allocations.
    inst = sb.gen_random(1, 6, 4, 5)
    prices = inst.costs[0].prices
    fields = dict(election=inst.election, costs=inst.costs, rule=inst.rule)
    pairs = [
        (lambda: _unchecked(sb.CostFunction, prices=prices), lambda: sb.CostFunction(prices)),
        (
            lambda: _unchecked(sb.ShiftBriberyInstance, **fields),
            lambda: sb.ShiftBriberyInstance(**fields),
        ),
    ]
    for unchecked, checked in pairs:
        assert _retained(unchecked) <= _retained(checked) + 1024
