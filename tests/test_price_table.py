"""The per-instance price array that every solver reads
(``bribery._price_table``): every voter's prices of shifting by
0 .. max_reachable, voter after voter, in one int64 array with each voter's
start and end, which the shift table's rows follow.  The bulk reader stores
the array it parsed; any other instance builds it from ``costs`` once."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from shiftbribe.bribery import ShiftTable, _price_table

I64_MAX = (1 << 63) - 1
COPELAND = sb.CopelandRule(sb.CopelandAlpha(1, 2))


def finite_prefixes(inst) -> list:
    """Per voter, the prices of ``CostFunction.prices`` before any ``inf``."""
    return [list(cf.prices[: cf.max_reachable]) for cf in inst.costs]


def split(inst) -> list:
    """Per voter, its run of the price array after the shift-0 entry, after
    checking the array's form."""
    values, starts, ends = _price_table(inst)
    assert values.dtype == starts.dtype == ends.dtype == np.int64
    assert not any(a.flags.writeable for a in (values, starts, ends))
    assert len(starts) == inst.num_voters and starts.tolist() == [0, *ends[:-1].tolist()]
    assert ends[-1] == len(values) and (values[starts] == 0).all()
    return [values[a + 1 : b].tolist() for a, b in zip(starts.tolist(), ends.tolist())]


def assert_shift_table_layout(inst):
    """The array prices voter i's shift t at ``starts[i] + t``, as
    ``CostFunction.price`` does, for every t up to its max_reachable, and
    its starts and ends are the shift table's."""
    values, starts, ends = _price_table(inst)
    for cf, start in zip(inst.costs, starts.tolist()):
        ts = range(cf.max_reachable + 1)
        assert [values[start + t] for t in ts] == [cf.price(t) for t in ts]
    table = ShiftTable(inst)
    assert starts.tolist() == table.starts.tolist() and ends.tolist() == table._ends.tolist()


@pytest.fixture
def reach_calls(monkeypatch):
    """The ``CostFunction.max_reachable`` reads made while it is in use."""
    calls = []
    original = sb.CostFunction.max_reachable

    def counted(cf):
        calls.append(cf)
        return original.fget(cf)

    monkeypatch.setattr(sb.CostFunction, "max_reachable", property(counted))
    return calls


@pytest.mark.parametrize("weighted", (False, True), ids=("unweighted", "weighted"))
def test_bulk_reader_keeps_its_array(weighted, reach_calls):
    # Canonical blocks: the parser stores the prices it parsed, so reading
    # the array, and solving maximin from its runs, reads no cost function.
    inst = sb.gen_random(5, 40, 9, 50, weighted=weighted, rule=COPELAND)
    parsed = sb.parse_instance(sb.serialize_instance(inst))
    got = split(parsed)
    if not weighted:
        maximin = sb.gen_random(4, 40, 8, 50, rule=sb.MAXIMIN)
        maximin = sb.parse_instance(sb.serialize_instance(maximin))
        sb.solve_maximin_shift(maximin)
        sb.cover_targets_greedy(maximin, (2,) * 7)
    assert reach_calls == []
    assert got == finite_prefixes(inst)
    assert_shift_table_layout(parsed)


def test_shift_table_reads_the_kept_layout(reach_calls):
    # On a bulk-read instance the shift table's starts and ends are the
    # array's, read rather than scanned again, and the scoring solvers
    # sweep runs of the array, so no solve reads a cost function.
    inst = sb.gen_random(7, 8, 5, 10)
    parsed = sb.parse_instance(sb.serialize_instance(inst))
    reach_calls.clear()
    table = ShiftTable(parsed)
    _, starts, ends = _price_table(parsed)
    assert table.starts.tolist() == starts.tolist() and table._ends.tolist() == ends.tolist()
    sb.buy(parsed, 5)
    sb.solve_two_pass_scaled(parsed, Fraction(1, 4))
    for solve in (sb.solve_two_pass, sb.solve_single_pass, sb.solve_bootstrap):
        solve(parsed)
    assert reach_calls == []


@pytest.mark.parametrize("respell", ("inf", "blanks"))
def test_line_reader_builds_it_from_costs(respell):
    # ``inf`` marks, or blanks around the price commas, send the blocks to
    # the line reader; the array is then built from the parsed costs.
    inst = sb.gen_random(6, 30, 7, 20, rule=COPELAND)
    if respell == "inf":
        costs = [
            sb.CostFunction(cf.prices[:1] + (None,) * (cf.cap - 1)) if i % 3 == 0 else cf
            for i, cf in enumerate(inst.costs)
        ]
        inst = sb.ShiftBriberyInstance(inst.election, tuple(costs), inst.rule)
    text = sb.serialize_instance(inst)
    if respell == "blanks":
        text = "\n".join(
            line.replace(",", " , ") if line.startswith("prices:") else line
            for line in text.split("\n")
        )
    parsed = sb.parse_instance(text)
    assert getattr(parsed, "_prices", None) is None
    assert split(parsed) == finite_prefixes(inst)
    assert_shift_table_layout(parsed)
    assert any(cf.max_reachable < cf.cap for cf in inst.costs) == (respell == "inf")


@st.composite
def code_built(draw):
    """Instances built in code, of 1-6 candidates and 1-8 voters, with prices
    up to 2**63 - 1 and some tables cut to an ``inf`` suffix."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    orders = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    prices = []
    for order in orders:
        cap = order.index(0)
        finite = draw(st.integers(0, cap))
        table = sorted(draw(st.lists(st.integers(0, I64_MAX), min_size=finite, max_size=finite)))
        prices.append(sb.CostFunction(tuple(table) + (None,) * (cap - finite)))
    names = tuple(f"c{i}" for i in range(m))
    return sb.ShiftBriberyInstance(sb.Election(names, tuple(orders)), tuple(prices), COPELAND)


@settings(max_examples=200, deadline=None)
@given(code_built())
def test_code_built_instances(inst):
    assert split(inst) == finite_prefixes(inst)
    assert_shift_table_layout(inst)


@pytest.mark.parametrize(
    "orders, prices",
    [
        (((0,), (0,)), ((), ())),  # m = 1
        (((0, 1, 2), (0, 2, 1)), ((), ())),  # every voter already on top
        (((0, 1, 2), (2, 1, 0), (1, 0, 2)), ((), (3, None), (0,))),
    ],
    ids=("m1", "all-on-top", "some-on-top"),
)
def test_voters_with_no_shift(orders, prices):
    # A voter of cap 0 (or of max_reachable 0) holds only its shift-0 entry.
    m = len(orders[0])
    costs = tuple(map(sb.CostFunction, prices))
    election = sb.Election(tuple(f"c{i}" for i in range(m)), orders)
    inst = sb.ShiftBriberyInstance(election, costs, COPELAND)
    assert split(inst) == finite_prefixes(inst)
    assert_shift_table_layout(inst)


def test_built_once_per_instance(reach_calls):
    # Two solves of one code-built instance read each cost function's
    # max_reachable once, for the array, which the second solve reuses.
    inst = sb.gen_random(3, 60, 12, 10, rule=COPELAND)
    first = sb.solve_copeland_shift(inst)
    assert sb.solve_copeland_shift(inst) == first
    assert len(reach_calls) == inst.num_voters


def test_a_price_beyond_int64_keeps_nothing():
    inst = sb.ShiftBriberyInstance(
        sb.Election(("p", "c"), ((1, 0),)), (sb.CostFunction((I64_MAX + 1,)),), COPELAND
    )
    for _ in range(2):
        with pytest.raises(OverflowError):
            _price_table(inst)
    assert getattr(inst, "_prices", None) is None
