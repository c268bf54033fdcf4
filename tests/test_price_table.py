"""The per-instance price array that the Condorcet solvers read
(``bribery._price_table``): every voter's finite prices, voter after voter,
in one int64 array with a count per voter.  The bulk reader stores the
array it parsed; any other instance builds it from ``costs`` once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from shiftbribe.bribery import _price_table

I64_MAX = (1 << 63) - 1
COPELAND = sb.CopelandRule(sb.CopelandAlpha(1, 2))


def finite_prefixes(inst) -> list:
    """Per voter, the prices of ``CostFunction.prices`` before any ``inf``."""
    return [list(cf.prices[: cf.max_reachable]) for cf in inst.costs]


def split(inst) -> list:
    """Per voter, its slice of the price array, after checking the array's form."""
    values, counts = _price_table(inst)
    assert values.dtype == counts.dtype == np.int64
    assert not (values.flags.writeable or counts.flags.writeable)
    assert len(counts) == inst.num_voters and counts.sum() == len(values)
    ends = counts.cumsum().tolist()
    return [values[end - k : end].tolist() for end, k in zip(ends, counts.tolist())]


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
    # the array reads no cost function.
    inst = sb.gen_random(5, 40, 9, 50, weighted=weighted, rule=COPELAND)
    parsed = sb.parse_instance(sb.serialize_instance(inst))
    got = split(parsed)
    assert reach_calls == []
    assert got == finite_prefixes(inst)


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
