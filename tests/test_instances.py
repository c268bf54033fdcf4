"""Generators and the shiftbribe v1 text format."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftbribe as sb
from shiftbribe.instances import _canonical, _Lines, _read_blocks, _read_lines

I64_MAX = (1 << 63) - 1


class TestGenTheorem6:
    def test_closed_form_scores(self):
        for k in range(1, 11):
            inst = sb.gen_theorem6(k)
            assert inst.num_candidates == 4 * k + 2
            assert inst.num_voters == 4 * k + 2
            scores = sb.scoring_scores(inst.election, inst.rule.vector)
            assert scores[0] == 16 * k * k + 4 * k + 1
            assert scores[1] == 16 * k * k + 8 * k + 1
            assert all(s == 8 * k * k + 2 * k + 1 for s in scores[2:])

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sb.gen_theorem6(0)

    def test_unit_shift_price_of_cheap_voters(self):
        inst = sb.gen_theorem6(3)
        for cf in inst.costs[:12]:
            assert cf.prices == (6,)

    def test_expensive_voter_price_table(self):
        inst = sb.gen_theorem6(1)
        assert inst.costs[4].prices == (3, 3, 4, 5, 6)
        assert inst.costs[5].prices == ()


class TestGenRandom:
    def test_deterministic(self):
        a = sb.gen_random(7, 4, 4, 6)
        b = sb.gen_random(7, 4, 4, 6)
        assert a == b
        assert sb.serialize_instance(a) == sb.serialize_instance(b)

    def test_different_seeds_differ(self):
        assert sb.gen_random(1, 4, 4, 6) != sb.gen_random(2, 4, 4, 6)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            sb.gen_random(0, 0, 3, 5)
        with pytest.raises(ValueError):
            sb.gen_random(0, 3, 0, 5)
        with pytest.raises(ValueError):
            sb.gen_random(0, 3, 3, 0)

    def test_generated_instances_satisfy_invariants(self):
        # constructor validation runs on every build; spot-check the parts
        # the constructors do not pin down
        for seed in range(200):
            inst = sb.gen_random(seed, 3, 4, 6, weighted=(seed % 2 == 0))
            for i, cf in enumerate(inst.costs):
                assert cf.cap == inst.election.rank_of(i, 0) - 1
                assert all(p is not None and p <= cf.cap * 6 for p in cf.prices)
            if inst.election.weights is not None:
                assert all(1 <= w <= 6 for w in inst.election.weights)


class TestRoundTrip:
    def test_theorem6_round_trip(self):
        inst = sb.gen_theorem6(1)
        text = sb.serialize_instance(inst)
        assert sb.parse_instance(text) == inst
        assert sb.serialize_instance(sb.parse_instance(text)) == text

    def test_round_trip_across_rules_and_weights(self):
        rules = (
            None,
            sb.ScoringRule(sb.k_approval(4, 2)),
            sb.ScoringRule(sb.ScoringVector((9, 4, 4, 0))),
            sb.CopelandRule(sb.CopelandAlpha(3, 10)),
            sb.MAXIMIN,
        )
        for seed in range(40):
            inst = sb.gen_random(
                seed, 3, 4, 6, weighted=(seed % 3 == 0), rule=rules[seed % len(rules)]
            )
            text = sb.serialize_instance(inst)
            assert sb.parse_instance(text) == inst
            assert sb.serialize_instance(sb.parse_instance(text)) == text

    def test_unreachable_prices_round_trip(self):
        e = sb.Election(("p", "a", "b"), ((1, 2, 0),))
        inst = sb.ShiftBriberyInstance(
            e, (sb.CostFunction((3, None)),), sb.ScoringRule(sb.borda(3))
        )
        text = sb.serialize_instance(inst)
        assert "3,inf" in text
        assert sb.parse_instance(text) == inst


    @pytest.mark.parametrize(
        "weight, price, refused",
        [(1, I64_MAX + 1, "price"), (I64_MAX + 1, 1, "weight"), (I64_MAX, I64_MAX, None)],
        ids=("price", "weight", "at-the-limit"),
    )
    def test_values_beyond_int64_rejected(self, weight, price, refused):
        # The parser refuses a weight or price beyond 2**63 - 1, so the
        # serializer does too; the limit itself writes and parses back.  The
        # other voters hold an inf mark, a zero price and no price at all.
        e = sb.Election(("p", "c"), ((1, 0), (1, 0), (1, 0), (0, 1)), (weight, 1, 1, 1))
        prices = ((price,), (None,), (0,), ())
        inst = sb.ShiftBriberyInstance(e, tuple(map(sb.CostFunction, prices)), sb.MAXIMIN)
        if refused is None:
            assert sb.parse_instance(sb.serialize_instance(inst)) == inst
            return
        with pytest.raises(OverflowError, match=f"^{refused} exceeds the 64-bit integer range$"):
            sb.serialize_instance(inst)

    @pytest.mark.parametrize("name", ["a#b", "a b", ""])
    def test_unwritable_candidate_name_rejected(self, name):
        # "a#b" would parse back as "a"; "a b" and "" would not parse back
        e = sb.Election(("p", name), ((1, 0),))
        inst = sb.ShiftBriberyInstance(e, (sb.CostFunction((1,)),), sb.ScoringRule(sb.borda(2)))
        with pytest.raises(ValueError, match="cannot be written"):
            sb.serialize_instance(inst)

class TestParseDiagnostics:
    MINIMAL = "shiftbribe v1\nrule borda\n2 1\np c\norder: 1 0\nprices: 2\n"

    def test_minimal_file_parses(self):
        inst = sb.parse_instance(self.MINIMAL)
        assert inst.num_candidates == 2
        assert inst.num_voters == 1
        assert inst.costs[0].prices == (2,)

    def test_comments_and_blank_lines_ignored(self):
        noisy = (
            "# a comment\nshiftbribe v1\n\nrule borda  # trailing\n2 1\np c\n"
            "order: 1 0\nprices: 2\n"
        )
        assert sb.parse_instance(noisy) == sb.parse_instance(self.MINIMAL)

    def test_malformed_header(self):
        with pytest.raises(sb.ParseError, match="header") as err:
            sb.parse_instance("shiftbribe v2\nrule borda\n2 1\np c\norder: 1 0\nprices: 2\n")
        assert err.value.line == 1

    def test_non_permutation_order(self):
        bad = "shiftbribe v1\nrule borda\n2 1\np c\norder: 1 1\nprices: 2\n"
        with pytest.raises(sb.ParseError, match="permutation") as err:
            sb.parse_instance(bad)
        assert err.value.line == 5

    def test_decreasing_prices(self):
        bad = (
            "shiftbribe v1\nrule borda\n3 1\np a b\norder: 1 2 0\nprices: 5,3\n"
        )
        with pytest.raises(sb.ParseError, match="price table decreases at shift 2 at line 6"):
            sb.parse_instance(bad)

    @pytest.mark.parametrize(
        "prices,message",
        [
            ("-1,3", "price for shift 1 is negative"),
            ("inf,3", "unreachable marks must form a suffix of the price table"),
        ],
    )
    def test_cost_function_rules(self, prices, message):
        bad = f"shiftbribe v1\nrule borda\n3 1\np a b\norder: 1 2 0\nprices: {prices}\n"
        with pytest.raises(sb.ParseError, match=f"^{message} at line 6$") as err:
            sb.parse_instance(bad)
        assert not isinstance(err.value, OverflowError)

    def test_range_fault_before_order_fault(self):
        # a price beyond 2**63 - 1 is reported as out of range (CLI exit 2)
        # even when the table also decreases
        bad = (
            "shiftbribe v1\nrule borda\n3 1\np a b\norder: 1 2 0\n"
            "prices: 9223372036854775808,3\n"
        )
        with pytest.raises(OverflowError, match="64-bit integer range at line 6"):
            sb.parse_instance(bad)

    def test_zero_weight(self):
        bad = (
            "shiftbribe v1\nrule borda\n2 1 weighted\np c\norder: 1 0\n"
            "weight: 0\nprices: 2\n"
        )
        with pytest.raises(sb.ParseError, match="weight") as err:
            sb.parse_instance(bad)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "block,line",
        [
            ("weight: 9223372036854775808\nprices: 2\n", 6),
            ("weight: 1\nprices: 9223372036854775808\n", 7),
        ],
    )
    def test_int64_range(self, block, line):
        bad = "shiftbribe v1\nrule copeland 1/2\n2 1 weighted\np c\norder: 1 0\n" + block
        with pytest.raises(sb.ParseError, match=f"64-bit integer range at line {line}") as err:
            sb.parse_instance(bad)
        assert err.value.line == line
        assert sb.parse_instance(bad.replace("9223372036854775808", "9223372036854775807"))

    def test_wrong_price_count(self):
        bad = "shiftbribe v1\nrule borda\n2 1\np c\norder: 1 0\nprices: 2,3\n"
        with pytest.raises(sb.ParseError, match="expected 1 price"):
            sb.parse_instance(bad)

    def test_unknown_rule(self):
        bad = "shiftbribe v1\nrule veto\n2 1\np c\norder: 1 0\nprices: 2\n"
        with pytest.raises(sb.ParseError, match="unknown rule") as err:
            sb.parse_instance(bad)
        assert err.value.line == 2

    @pytest.mark.parametrize("rule", ["borda", "kapproval 1"])
    def test_claimed_candidates_checked_before_the_rule_vector(self, rule):
        # The size line claims 10**6 candidates but two names follow: the
        # names line is refused before an m-entry Borda or k-approval vector
        # is built, so memory follows the file, not the claim (the vector
        # alone would take ~16-48 MB here).
        text = f"shiftbribe v1\nrule {rule}\n1000000 1\np c\n"
        tracemalloc.start()
        try:
            with pytest.raises(sb.ParseError, match="^expected 1000000 candidate names at line 4$"):
                sb.parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_names_line_reported_before_bad_rule(self):
        bad = "shiftbribe v1\nrule veto\n2 1\np\norder: 1 0\nprices: 2\n"
        with pytest.raises(sb.ParseError, match="^expected 2 candidate names at line 4$"):
            sb.parse_instance(bad)
        with pytest.raises(sb.ParseError, match="^unknown rule 'veto' at line 2$"):
            sb.parse_instance(bad.replace("\np\n", "\np c\n"))

    @pytest.mark.parametrize(
        "blocks,message",
        [
            # an order fault before a malformed price of a later voter
            (
                "order: 1 1 0\nprices: 1,2\norder: 2 0 1\nprices: x,3\n",
                "order is not a permutation of the candidates at line 5",
            ),
            # a decreasing price table before a missing keyword of a later voter
            (
                "order: 1 2 0\nprices: 5,3\nordr: 2 0 1\nprices: 1,3\n",
                "price table decreases at shift 2 at line 6",
            ),
            # a malformed order line before a later voter's order fault
            (
                "order: 1 2 x\nprices: 5,6\norder: 0 0 1\nprices:\n",
                "order entries must be integers at line 5",
            ),
        ],
    )
    def test_earliest_fault_of_two_voters_is_reported(self, blocks, message):
        bad = "shiftbribe v1\nrule borda\n3 2\np a b\n" + blocks
        with pytest.raises(sb.ParseError, match=f"^{message}$"):
            sb.parse_instance(bad)

    def test_weight_fault_before_later_order_fault(self):
        bad = (
            "shiftbribe v1\nrule borda\n3 2 weighted\np a b\n"
            "order: 1 0 2\nweight: 0\nprices: 1\n"
            "order: 0 0 1\nweight: 1\nprices:\n"
        )
        with pytest.raises(sb.ParseError, match="^weight must be positive at line 6$"):
            sb.parse_instance(bad)

    def test_claimed_voters_checked_against_the_blocks_read(self):
        # The size line claims 10**9 voters but one block follows: nothing
        # is sized by the claim, so memory follows the file.
        text = "shiftbribe v1\nrule borda\n2 1000000000\np c\norder: 1 0\nprices: 2\n"
        message = "^unexpected end of file, expected order of voter 1 at line 7$"
        tracemalloc.start()
        try:
            with pytest.raises(sb.ParseError, match=message):
                sb.parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_content(self):
        bad = self.MINIMAL + "order: 0 1\n"
        with pytest.raises(sb.ParseError, match="trailing"):
            sb.parse_instance(bad)

    def test_truncated_file(self):
        bad = "shiftbribe v1\nrule borda\n2 1\np c\norder: 1 0\n"
        with pytest.raises(sb.ParseError, match="unexpected end"):
            sb.parse_instance(bad)


@st.composite
def rules(draw, m):
    kind = draw(st.sampled_from(["borda", "kapproval", "scoring", "copeland", "maximin"]))
    if kind == "borda":
        return sb.ScoringRule(sb.borda(m))
    if kind == "kapproval":
        return sb.ScoringRule(sb.k_approval(m, draw(st.integers(1, m))))
    if kind == "scoring":
        scores = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
        return sb.ScoringRule(sb.ScoringVector(sorted(scores, reverse=True)))
    if kind == "copeland":
        den = draw(st.integers(1, 6))
        return sb.CopelandRule(sb.CopelandAlpha(draw(st.integers(0, den)), den))
    return sb.MAXIMIN


@st.composite
def instances(draw):
    """Instances of every rule, weighted or not, with prices up to 2**63 - 1
    and ``inf`` suffixes."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    orders = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    price = st.one_of(st.integers(0, 9), st.integers(0, I64_MAX))
    costs = []
    for order in orders:
        cap = order.index(0)
        finite = draw(st.integers(0, cap))
        prices = sorted(draw(st.lists(price, min_size=finite, max_size=finite)))
        costs.append(sb.CostFunction(tuple(prices) + (None,) * (cap - finite)))
    weights = None
    if draw(st.booleans()):
        weights = tuple(draw(st.one_of(st.integers(1, 9), st.integers(1, I64_MAX))) for _ in range(n))
    names = tuple(f"c{i}" for i in range(m))
    return sb.ShiftBriberyInstance(sb.Election(names, orders, weights), tuple(costs), draw(rules(m)))


class TestBulkReader:
    """The voter blocks are read in bulk; the line reader only names a fault."""

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_round_trip(self, inst):
        text = sb.serialize_instance(inst)
        noisy = "\n\n".join(f"  {line}  # note" for line in text.split("\n"))
        for parsed in sb.parse_instance(text), sb.parse_instance(noisy):
            assert parsed == inst
            e = parsed.election
            assert np.array_equal(e.orders, inst.election.orders)
            assert np.array_equal(e.positions, inst.election.positions)
            assert e.orders.dtype == e.positions.dtype == np.int64
            assert not (e.orders.flags.writeable or e.positions.flags.writeable)
            assert all(type(p) is int for cf in parsed.costs for p in cf.prices if p is not None)
            assert all(type(w) is int for w in e.weights or ())

    def test_int_token_forms(self):
        # every form that int() accepts: signs, leading zeros, underscores,
        # and blanks around a price or weight
        text = (
            "shiftbribe v1\nrule borda\n3 2 weighted\np a b\n"
            "order: +1 2 00\nweight:  1_0 \nprices:  +5 , 07\n"
            "order: 0 +2 0_1\nweight:+3\nprices:\n"
        )
        inst = sb.parse_instance(text)
        assert inst.election.voters == ((1, 2, 0), (0, 2, 1))
        assert inst.election.weights == (10, 3)
        assert [cf.prices for cf in inst.costs] == [(5, 7), ()]
        padded = text.replace("+5 , 07", "4 ,  inf ")
        assert sb.parse_instance(padded).costs[0].prices == (4, None)
        # str.strip() takes \x1c-\x1f around a token, int() alone does not
        for sep in "\x1c\x1f":
            odd = text.replace("+5 , 07", f"{sep}5,7{sep} ").replace("+3", f"{sep}3")
            assert sb.parse_instance(odd) == inst

    @pytest.mark.parametrize("token", ["5.0", "0x5", "1e1", "5_", "_5", "- 5", "++5", "infinity"])
    def test_only_int_tokens(self, token):
        base = "shiftbribe v1\nrule borda\n3 1 weighted\np a b\norder: 1 2 0\nweight: 2\nprices: 1,2\n"
        faults = [
            ("order: 1 2 0", f"order: 1 2 {token}", "order entries must be integers at line 5"),
            ("weight: 2", f"weight: {token}", "weight must be an integer at line 6"),
            ("prices: 1,2", f"prices: 1,{token}", f"malformed price '{token}' at line 7"),
        ]
        for old, new, message in faults:
            with pytest.raises(sb.ParseError) as err:
                sb.parse_instance(base.replace(old, new))
            assert str(err.value) == message

    VALID = (
        "shiftbribe v1\nrule copeland 1/2\n3 3 weighted\np a b\n"
        "order: 1 0 2\nweight: 2\nprices: 4\n"  # lines 5-7
        "order: 2 1 0\nweight: 1\nprices: 1,inf\n"  # lines 8-10
        "order: 1 2 0\nweight: 5\nprices: 3,3\n"  # lines 11-13
    )

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("order: 2 1 0", "order: 2 1 x", "order entries must be integers at line 8"),
            ("order: 2 1 0", "order: 2 1 1", "order is not a permutation of the candidates at line 8"),
            ("order: 2 1 0", "order: 2 1 0 3", "order is not a permutation of the candidates at line 8"),
            ("order: 2 1 0", "order: 2 1", "order is not a permutation of the candidates at line 8"),
            ("order: 1 2 0", "order: 1 2 -0 5", "order is not a permutation of the candidates at line 11"),
            ("order: 2 1 0", f"order: 2 1 {1 << 64}", "order is not a permutation of the candidates at line 8"),
            ("prices: 4\n", "prices: 4,5\n", "expected 1 prices for a rank-2 preferred candidate at line 7"),
            ("prices: 3,3", "prices: 3", "expected 2 prices for a rank-3 preferred candidate at line 13"),
            ("prices: 3,3", "prices: 3,", "malformed price '' at line 13"),
            ("prices: 3,3", "prices: 3,x", "malformed price 'x' at line 13"),
            ("prices: 3,3", "prices: 3,2", "price table decreases at shift 2 at line 13"),
            ("prices: 3,3", "prices: -1,3", "price for shift 1 is negative at line 13"),
            ("prices: 1,inf", "prices: inf,1", "unreachable marks must form a suffix of the price table at line 10"),
            ("prices: 3,3", f"prices: 3,{I64_MAX + 1}", "price exceeds the 64-bit integer range at line 13"),
            ("weight: 5", f"weight: {I64_MAX + 1}", "weight exceeds the 64-bit integer range at line 12"),
            ("weight: 1", "weight: 0", "weight must be positive at line 9"),
            ("weight: 5", "weight: five", "weight must be an integer at line 12"),
            ("order: 1 2 0", "ordr: 1 2 0", "expected 'order:' for voter 2 at line 11"),
            ("weight: 2", "wait: 2", "expected 'weight:' for voter 0 at line 6"),
            ("prices: 4\n", "price: 4\n", "expected 'prices:' for voter 0 at line 7"),
            ("prices: 3,3\n", "prices: 3,3\norder: 0 1 2\n", "unexpected trailing content at line 14"),
            ("prices: 3,3\n", "", "unexpected end of file, expected prices of voter 2 at line 13"),
            ("weight: 1\n", "", "expected 'weight:' for voter 1 at line 9"),
        ],
    )
    def test_one_fault_named_as_by_the_line_reader(self, old, new, message):
        assert sb.parse_instance(self.VALID).costs[1].prices == (1, None)
        assert self.VALID.count(old) == 1
        with pytest.raises(sb.ParseError) as err:
            sb.parse_instance(self.VALID.replace(old, new))
        assert str(err.value) == message
        assert isinstance(err.value, OverflowError) == ("64-bit" in message)


def assert_parsed(parsed, inst):
    """``parsed`` equals ``inst``, with read-only int64 orders and
    positions and Python ints for every price and weight."""
    assert parsed == inst
    e = parsed.election
    assert np.array_equal(e.orders, inst.election.orders)
    assert np.array_equal(e.positions, inst.election.positions)
    assert e.orders.dtype == e.positions.dtype == np.int64
    assert not (e.orders.flags.writeable or e.positions.flags.writeable)
    assert all(type(p) is int for cf in parsed.costs for p in cf.prices if p is not None)
    assert all(type(w) is int for w in e.weights or ())


def read_alone(reader, text, inst):
    """The instance that ``reader`` (``_read_blocks`` or ``_read_lines``)
    alone makes of the voter blocks of ``text``, whose head is that of
    ``inst``."""
    lines = _Lines(text)
    lines.pos = 4  # header, rule, size and names
    e = inst.election
    args = (e.candidates, inst.rule, e.num_voters, e.weights is not None)
    if reader is _read_blocks:
        return reader(lines.texts[4:], *args)
    return reader(lines, *args)


def respell(text: str) -> str:
    """``text`` with its voter blocks spelled as the format allows but not
    canonically: signed order entries and weights, doubled spaces, and
    blanks around every price."""
    head, _, blocks = text.partition("order:")
    blocks = "order:" + blocks
    out = []
    for line in blocks.split("\n"):
        key, sep, body = line.partition(":")
        if key == "prices":
            body = " , ".join(f" +{t}" if t.isdigit() else t for t in body.strip().split(",")) if body else ""
        elif sep:
            body = "  ".join(f"+{t}" for t in body.split())
        out.append(f"{key}{sep}  {body}  " if sep else line)
    return head + "\n".join(out)


class TestOneReaderPerForm:
    """Canonical voter blocks are read by the bulk reader, every other
    spelling by the line reader; both give the same instance."""

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_each_reader_alone(self, inst):
        text = sb.serialize_instance(inst)
        assert_parsed(read_alone(_read_lines, text, inst), inst)
        prices = [p for cf in inst.costs for p in cf.prices]
        if None in prices or max(prices, default=0) >= 10**18:
            # an inf mark, or a price of 19 digits that int() must check
            with pytest.raises(ValueError):
                read_alone(_read_blocks, text, inst)
        else:
            assert_parsed(read_alone(_read_blocks, text, inst), inst)
        odd = respell(text)
        assert odd != text
        with pytest.raises(ValueError):
            read_alone(_read_blocks, odd, inst)
        assert_parsed(read_alone(_read_lines, odd, inst), inst)
        assert_parsed(sb.parse_instance(odd), inst)

    BASE = "shiftbribe v1\nrule borda\n3 2\np a b\norder: 1 2 0\nprices: 1,2\norder: 2 0 1\nprices: 3\n"

    @pytest.mark.parametrize(
        "old,new,message",
        [
            # np.fromstring reads a lone sign as 0
            ("prices: 1,2", "prices: 1,+", "malformed price '+' at line 6"),
            ("prices: 1,2", "prices: -,1", "malformed price '-' at line 6"),
            ("prices: 3\n", "prices: +\n", "malformed price '+' at line 8"),
            ("order: 2 0 1", "order: 2 + 1", "order entries must be integers at line 7"),
            ("order: 2 0 1", "order: 2 - 0 1", "order entries must be integers at line 7"),
            # and saturates at 2**63 - 1
            ("prices: 1,2", f"prices: 1,{I64_MAX + 1}", "price exceeds the 64-bit integer range at line 6"),
            ("prices: 1,2", f"prices: {I64_MAX + 1},1", "price exceeds the 64-bit integer range at line 6"),
            ("prices: 3\n", f"prices: {10**24}\n", "price exceeds the 64-bit integer range at line 8"),
            ("prices: 1,2", f"prices: 1,{'9' * 25}", "price exceeds the 64-bit integer range at line 6"),
        ],
    )
    def test_fromstring_traps(self, old, new, message):
        assert self.BASE.count(old) == 1
        with pytest.raises(sb.ParseError) as err:
            sb.parse_instance(self.BASE.replace(old, new))
        assert str(err.value) == message
        assert isinstance(err.value, OverflowError) == ("64-bit" in message)

    @pytest.mark.parametrize(
        "blocks,message",
        [
            # the entries would split into two permutations of m
            ("2 2\np c\norder: 1 0 1\nprices: 1\norder: 0\nprices: 2\n", "order is not a permutation of the candidates at line 5"),
            # the prices would add up to the caps' total
            ("3 2\np a b\norder: 1 2 0\nprices: 1,2,3\norder: 1 0 2\nprices:\n", "expected 2 prices for a rank-3 preferred candidate at line 6"),
        ],
    )
    def test_entries_counted_per_line(self, blocks, message):
        with pytest.raises(sb.ParseError) as err:
            sb.parse_instance("shiftbribe v1\nrule borda\n" + blocks)
        assert str(err.value) == message

    # ASCII digits, both separators, signs, blanks, the separators that
    # str.split takes (\x1c-\x1f), and digits that int() or str.isdigit
    # read but np.fromstring does not: Arabic-Indic, full-width, superscript
    TOKENS = st.sampled_from(
        ["0", "7", "42", " ", ",", "+", "-", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u0663", "\uff13", "\u00b2"]
    )

    @settings(max_examples=500, deadline=None)
    @given(st.lists(TOKENS, max_size=8).map("".join), st.sampled_from(" ,"))
    @example("1  2", " ")
    @example("1,,2", ",")
    def test_canonical_is_digit_runs_split_by_one_separator(self, text, sep):
        want = re.fullmatch(f"[0-9]+(?:{re.escape(sep)}[0-9]+)*", text) is not None
        assert _canonical(text, sep) == want

    def test_non_ascii_digits_go_to_the_line_reader(self):
        # int() reads an Arabic-Indic 2 and a full-width 3 as 2 and 3; only
        # the line reader takes them, and the instance is the ASCII one
        inst = sb.parse_instance(self.BASE)
        odd = self.BASE.replace("order: 2 0 1", "order: \u0662 0 1").replace("prices: 3\n", "prices: \uff13\n")
        with pytest.raises(ValueError):
            read_alone(_read_blocks, odd, inst)
        assert_parsed(sb.parse_instance(odd), inst)
        # a superscript 2 is a digit to str.isdigit, not to int()
        with pytest.raises(sb.ParseError) as err:
            sb.parse_instance(self.BASE.replace("order: 2 0 1", "order: \u00b2 0 1"))
        assert str(err.value) == "order entries must be integers at line 7"

    def test_largest_price_parses(self):
        text = self.BASE.replace("prices: 1,2", f"prices: 1,{I64_MAX}")
        assert [cf.prices for cf in sb.parse_instance(text).costs] == [(1, I64_MAX), (3,)]
        assert sb.parse_instance(text.replace(f",{I64_MAX}", f",{'0' * 20}{I64_MAX}")).costs[0].prices[1] == I64_MAX
