"""The tuples a bulk-read instance builds only when read: ``Election.voters``
from ``orders`` and ``ShiftBriberyInstance.costs`` from the price array
(``bribery._price_table``).  No solver reads them, and once read they are
the tuples of the same instance built in code."""

import copy
import pickle
from fractions import Fraction

import pytest

import shiftbribe as sb

COPELAND = sb.CopelandRule(sb.CopelandAlpha(1, 2))


def built(inst) -> set:
    """The derived views that ``inst`` holds: ``vars`` shows what is set."""
    return {"costs"} & set(vars(inst)) | {"voters"} & set(vars(inst.election))


def reparse(inst):
    parsed = sb.parse_instance(sb.serialize_instance(inst))
    assert built(parsed) == set()
    return parsed


SOLVES = {
    "maximin-log": (sb.solve_maximin_shift, sb.gen_random(4, 40, 8, 50, rule=sb.MAXIMIN)),
    "copeland-m": (sb.solve_copeland_shift, sb.gen_random(3, 60, 12, 50, rule=COPELAND)),
    "A": (sb.solve_two_pass, sb.gen_random(1, 20, 8, 30)),
    "G": (sb.solve_single_pass, sb.gen_random(1, 20, 8, 30)),
    "Aeps": (lambda i: sb.solve_two_pass_scaled(i, Fraction(1, 4)), sb.gen_random(2, 6, 5, 10)),
    "B": (sb.solve_bootstrap, sb.gen_random(3, 12, 6, 20)),
    "Bw": (sb.solve_bootstrap_weighted, sb.gen_random(1, 12, 6, 20, weighted=True)),
    "exact": (sb.exact_shift_opt, sb.gen_random(4, 10, 7, 10)),
    "exact-maximin": (sb.exact_shift_opt, sb.gen_random(4, 10, 7, 10, rule=sb.MAXIMIN)),
    "exact-copeland": (sb.exact_shift_opt, sb.gen_random(4, 10, 7, 10, rule=COPELAND)),
    "exact-cover": (lambda i: sb.exact_cover_opt(i, (2,) * 6), sb.gen_random(4, 10, 7, 10)),
}


@pytest.mark.parametrize("name", SOLVES)
def test_solvers_build_neither_view(name):
    solve, inst = SOLVES[name]
    parsed = reparse(inst)
    assert solve(parsed) == solve(inst)
    assert built(parsed) == set()


def with_inf_marks(inst):
    """``inst`` with the last shift of every voter that has two or more
    marked unreachable: its blocks go to the line reader."""
    costs = [sb.CostFunction(cf.prices[:-1] + (None,)) if cf.cap >= 2 else cf for cf in inst.costs]
    return sb.ShiftBriberyInstance(inst.election, tuple(costs), inst.rule)


def no_shift() -> sb.ShiftBriberyInstance:
    """Voters 0 and 3 rank the preferred candidate first: no prices."""
    orders = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1))
    costs = tuple(map(sb.CostFunction, ((), (3,), (1, 4), ())))
    election = sb.Election(("p", "a", "b"), orders, (2, 1, 5, 1))
    return sb.ShiftBriberyInstance(election, costs, sb.MAXIMIN)


CASES = {
    "unweighted": sb.gen_random(5, 30, 7, 50, rule=COPELAND),
    "weighted": sb.gen_random(6, 30, 7, 50, weighted=True),
    "no-shift": no_shift(),
    "line-read": with_inf_marks(sb.gen_random(7, 30, 7, 50, rule=sb.MAXIMIN)),
}


def assert_same(got, want, text):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.election.voters == want.election.voters and got.costs == want.costs
    assert sb.serialize_instance(got) == text


@pytest.mark.parametrize("name", CASES)
def test_views_are_the_code_built_tuples(name):
    inst = CASES[name]
    text = sb.serialize_instance(inst)
    parsed = sb.parse_instance(text)
    assert (built(parsed) == set()) == (name != "line-read")
    # copies made before the views are read build their own
    copies = [pickle.loads(pickle.dumps(parsed)), copy.copy(parsed)]
    assert_same(parsed, inst, text)
    assert built(parsed) == {"costs", "voters"}
    assert type(parsed.election.voters[0][0]) is int
    assert all(type(p) is int for cf in parsed.costs for p in cf.prices if p is not None)
    for other in copies + [pickle.loads(pickle.dumps(parsed)), copy.copy(parsed)]:
        assert_same(other, inst, text)
