"""The Copeland core (``condorcet_solvers._solve_copeland``), which runs one
program per score window, builds only the states that can reach that
window and takes the cheapest state of all windows, answers byte for byte
like the reference core that scans every (wins, ties) pattern over programs
that build every state of their cut (``copeland_reference``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copeland_reference
import shiftbribe as sb
from copeland_reference import solve_copeland_all_states
from shiftbribe import condorcet_solvers
from test_condorcet_golden import (
    COPELAND_GOLDEN,
    COPELAND_WEIGHTED,
    MICRO_GOLDEN,
    copeland_golden_instance,
    micro_golden_instance,
)

ALPHAS = (
    sb.CopelandAlpha(0, 1),
    sb.CopelandAlpha(1, 2),
    sb.CopelandAlpha(1, 1),
    sb.CopelandAlpha(2, 3),
)


def answer(solve, tally, pools, alpha):
    try:
        return solve(tally, pools, alpha)
    except sb.Infeasible as exc:
        return repr(exc)


def same_answer(tally, pools, alpha):
    got = answer(condorcet_solvers._solve_copeland, tally, pools, alpha)
    return got == answer(solve_copeland_all_states, tally, pools, alpha)


def as_pool(flips) -> tuple:
    """The core's pool of sorted (price, voter) ``flips``: their prices and
    their voters."""
    return [p for p, _ in flips], [v for _, v in flips]


@st.composite
def core_inputs(draw, parity, for_preferred, max_m=8):
    """A pairwise tally of n voters with n of the given parity, so every
    margin has that parity, and per rival the pools of the sorted (price,
    voter) flips of the voters on each side; a price drawn above 6 leaves
    the flip unavailable.  Without ``for_preferred`` no voter preferring
    candidate 0 has a flip, as in the shift reduction."""
    m = draw(st.integers(1, max_m))
    n = 2 * draw(st.integers(0, 6)) + parity
    n_matrix = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            n_matrix[a][b] = draw(st.integers(0, n))
            n_matrix[b][a] = n - n_matrix[a][b]
    pools = [None]
    for c in range(1, m):
        voters = draw(st.permutations(range(n)))
        sides = (voters[: n_matrix[c][0]], voters[n_matrix[c][0] :] if for_preferred else [])
        flips = ([(draw(st.integers(0, 8)), v) for v in side] for side in sides)
        pools.append(tuple(as_pool(sorted((p, v) for p, v in side if p <= 6)) for side in flips))
    return sb.PairwiseTally(n_matrix, n), pools


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("parity", (0, 1), ids=("even", "odd"))
@pytest.mark.parametrize("for_preferred", (False, True), ids=("shift", "micro"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matches_the_all_states_core(alpha, parity, for_preferred, data):
    tally, pools = data.draw(core_inputs(parity, for_preferred))
    assert same_answer(tally, pools, alpha)


def fed_inputs(calls) -> list:
    """The (tally, pools, alpha) that each solve in ``calls`` feeds the core;
    the rivals' scores that a solve may pass along are left for the core to
    compute from the tally again."""
    fed = []
    original = condorcet_solvers._solve_copeland

    def recorded(*args, **known):
        fed.append(args)
        return original(*args, **known)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condorcet_solvers, "_solve_copeland", recorded)
        for call in calls:
            try:
                call()
            except (sb.Infeasible, sb.IncompatibleRule):
                pass
    return fed


def golden_inputs() -> list:
    return fed_inputs(
        [lambda s=s: sb.solve_copeland_shift(copeland_golden_instance(s)) for s in COPELAND_GOLDEN]
        + [lambda s=s: sb.solve_copeland_micro(*micro_golden_instance(s)) for s in MICRO_GOLDEN]
    )


def test_matches_the_all_states_core_on_the_golden_pins():
    fed = golden_inputs()
    weighted = sum(r == COPELAND_WEIGHTED for r in COPELAND_GOLDEN.values())
    assert len(fed) == len(COPELAND_GOLDEN) - weighted + len(MICRO_GOLDEN)
    # Beside the pins, a tie across windows: cost 1 is reached by (2 wins,
    # 0 ties) in the window [4, 5] and by (3, 0) in [6, 6], and the first
    # pattern in (wins, ties) order wins.
    tie = sb.gen_random(1, 5, 4, 2, rule=sb.CopelandRule(sb.CopelandAlpha(1, 2)))
    fed += fed_inputs([lambda: sb.solve_copeland_shift(tie)])
    assert [i for i, args in enumerate(fed) if not same_answer(*args)] == []
    built, _ = programs_built(fed[-1])
    cost, _ = condorcet_solvers._solve_copeland(*fed[-1])
    assert sum(cost in {c for c, _ in program.values()} for program in built) == 2


def counting(dp, programs):
    def counted(*args):
        programs.append(dp(*args))
        return programs[-1]

    return counted


def programs_built(args) -> tuple:
    """The programs that the core builds on ``args``, and those that the
    reference core builds, one per cut it reads."""
    built, full = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condorcet_solvers, "_rival_dp", counting(condorcet_solvers._rival_dp, built))
        mp.setattr(copeland_reference, "rival_dp", counting(copeland_reference.rival_dp, full))
        assert same_answer(*args)
    return built, full


@pytest.mark.parametrize("alpha", ALPHAS[:3], ids=str)
def test_program_skip_fires_at_the_benchmark_size(alpha):
    # Most cuts leave some rival no allowed outcome; the core builds none
    # of them, and builds every cut whose full program holds an entry.
    inst = sb.gen_random(3, 140, 20, 50, rule=sb.CopelandRule(alpha))
    (args,) = fed_inputs([lambda: sb.solve_copeland_shift(inst)])
    built, full = programs_built(args)
    assert 0 < len(built) == sum(1 for program in full if program) < len(full)


def windows_built(args) -> list:
    """The window [low, high] and the states of each program that the core
    builds on ``args``, in the order it builds them."""
    built = []
    original = condorcet_solvers._rival_dp

    def recorded(steps, window, den, num):
        built.append((window, original(steps, window, den, num)))
        return built[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condorcet_solvers, "_rival_dp", recorded)
        answer(condorcet_solvers._solve_copeland, *args)
    return built


def test_one_program_per_window():
    # Each program serves a window of its own: the windows are nonempty,
    # rise without overlapping, and hold the scores of all their states.
    inst = sb.gen_random(3, 140, 20, 50, rule=sb.CopelandRule(ALPHAS[3]))
    fed = golden_inputs() + fed_inputs([lambda: sb.solve_copeland_shift(inst)])
    for tally, pools, alpha in fed:
        built = windows_built((tally, pools, alpha))
        windows = [window for window, _ in built]
        assert all(low <= high for low, high in windows)
        assert all(a[1] < b[0] for a, b in zip(windows, windows[1:]))
        den, num = alpha.denominator, alpha.numerator
        for (low, high), program in built:
            assert all(low <= w * den + t * num <= high for w, t in program)
    # The last input, at the benchmark's size, builds several programs.
    assert len(windows) > 1
