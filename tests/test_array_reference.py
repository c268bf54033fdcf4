"""The array forms of ranks, shifts, scores, tallies and shift tables equal
their per-voter loop forms (``loop_reference``), including one voter, one
candidate, weights, unreachable price suffixes and tied scoring entries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from loop_reference import (
    loop_apply_shift,
    loop_deltas,
    loop_rank_of,
    loop_rows_after,
    loop_scores,
    loop_tally,
)
from shiftbribe.bribery import ShiftTable


@st.composite
def instances(draw, max_n=6, max_m=6):
    """An instance with optional weights, price tables cut by an unreachable
    suffix, and a scoring vector with frequent ties, Copeland or maximin."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    orders = tuple(tuple(draw(st.permutations(range(m)))) for _ in range(n))
    weights = None
    if draw(st.booleans()):
        weights = tuple(draw(st.integers(1, 9)) for _ in range(n))
    costs = []
    for order in orders:
        cap = order.index(0)
        reach = draw(st.integers(0, cap))
        prices = sorted(draw(st.integers(0, 20)) for _ in range(reach))
        costs.append(sb.CostFunction(tuple(prices) + (None,) * (cap - reach)))
    kind = draw(st.sampled_from(("scoring", "copeland", "maximin")))
    if kind == "scoring":
        alpha = sorted((draw(st.integers(0, 4)) for _ in range(m)), reverse=True)
        rule = sb.ScoringRule(sb.ScoringVector(tuple(alpha)))
    elif kind == "copeland":
        rule = sb.CopelandRule(sb.CopelandAlpha(draw(st.integers(0, 2)), 2))
    else:
        rule = sb.MAXIMIN
    names = tuple(f"x{i}" for i in range(m))
    return sb.ShiftBriberyInstance(sb.Election(names, orders, weights), tuple(costs), rule)


def shift_vectors(draw, inst, count):
    """``count`` shift vectors within each voter's reachable shifts."""
    return [
        [draw(st.integers(0, cf.max_reachable)) for cf in inst.costs] for _ in range(count)
    ]


CORNERS = [
    # one voter, one candidate
    sb.ShiftBriberyInstance(
        sb.Election(("p",), ((0,),)), (sb.CostFunction(()),), sb.ScoringRule(sb.borda(1))
    ),
    # one voter; weighted; the last shift unreachable; tied entries
    sb.ShiftBriberyInstance(
        sb.Election(("p", "a", "b", "c"), ((2, 1, 3, 0),), (7,)),
        (sb.CostFunction((1, 4, None)),),
        sb.ScoringRule(sb.ScoringVector((3, 3, 1, 1))),
    ),
    # one candidate, several weighted voters
    sb.ShiftBriberyInstance(
        sb.Election(("p",), ((0,), (0,), (0,)), (2, 1, 5)),
        (sb.CostFunction(()),) * 3,
        sb.MAXIMIN,
    ),
    # nothing reachable anywhere
    sb.ShiftBriberyInstance(
        sb.Election(("p", "a", "b"), ((1, 0, 2), (2, 1, 0))),
        (sb.CostFunction((None,)), sb.CostFunction((None, None))),
        sb.CopelandRule(sb.CopelandAlpha(1, 2)),
    ),
]


def check_election(e, shifts):
    for i in range(e.num_voters):
        for c in range(e.num_candidates):
            assert e.rank_of(i, c) == loop_rank_of(e, i, c)
    shifted = sb.apply_shift(e, shifts)
    assert shifted.voters == loop_apply_shift(e, shifts)
    assert shifted.weights == e.weights
    assert sb.pairwise_tally(e).n_matrix == loop_tally(e)
    assert sb.pairwise_tally(shifted).n_matrix == loop_tally(shifted)


def check_table(inst, vectors):
    for pairwise in (False, True):
        table = ShiftTable(inst, pairwise)
        assert [d.tolist() for d in table.deltas] == loop_deltas(inst, pairwise)
        for count in (1, len(vectors)):
            rows = table.rows_after(np.array(vectors[:count], dtype=np.int64))
            assert rows.tolist() == loop_rows_after(inst, vectors[:count], pairwise)


@pytest.mark.parametrize("inst", CORNERS)
def test_corner_cases(inst):
    e = inst.election
    check_election(e, [e.num_candidates] * e.num_voters)
    check_election(e, [0] * e.num_voters)
    tops = [cf.max_reachable for cf in inst.costs]
    check_table(inst, [tops, [0] * len(tops), tops])
    if isinstance(inst.rule, sb.ScoringRule):
        assert sb.scoring_scores(e, inst.rule.vector) == loop_scores(e, inst.rule.vector)


@given(instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_election_arrays_match_loops(inst, data):
    e = inst.election
    shifts = [data.draw(st.integers(0, e.num_candidates)) for _ in range(e.num_voters)]
    check_election(e, shifts)
    alpha = sorted(
        (data.draw(st.integers(0, 5)) for _ in range(e.num_candidates)), reverse=True
    )
    vector = sb.ScoringVector(tuple(alpha))
    assert sb.scoring_scores(e, vector) == loop_scores(e, vector)
    shifted = sb.apply_shift(e, shifts)
    assert sb.scoring_scores(shifted, vector) == loop_scores(shifted, vector)


@given(instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_shift_table_matches_loops(inst, data):
    vectors = shift_vectors(data.draw, inst, data.draw(st.integers(2, 6)))
    check_table(inst, vectors)


@pytest.mark.parametrize("block", [1, 7, 40])
def test_rows_after_in_gather_blocks(monkeypatch, block):
    # blocks of one, of part of one, and of several shift vectors
    monkeypatch.setattr(sb.bribery, "_GATHER_BLOCK", block)
    for inst in (sb.gen_random(3, 6, 5, 9), sb.gen_random(4, 5, 4, 9, rule=sb.MAXIMIN)):
        tops = [cf.max_reachable + 1 for cf in inst.costs]
        vectors = [[(7 * i + k) % top for i, top in enumerate(tops)] for k in range(11)]
        check_table(inst, vectors)
        none = np.zeros((0, inst.num_voters), dtype=np.int64)
        assert ShiftTable(inst).rows_after(none).shape == (0, inst.num_candidates)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_tables_tally_like_the_election(inst):
    # shift_to_micro's tables hold the election's preferences, so their
    # tally (zero diagonal included) is the unweighted election's
    micro = sb.shift_to_micro(inst)
    tally = sb.condorcet_solvers._micro_tally(micro)
    assert tally.n_matrix == loop_tally(sb.Election(inst.election.candidates, inst.election.voters))
