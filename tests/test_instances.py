"""Generators and the shiftbribe v1 text format."""

import tracemalloc

import pytest

import shiftbribe as sb


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

    def test_trailing_content(self):
        bad = self.MINIMAL + "order: 0 1\n"
        with pytest.raises(sb.ParseError, match="trailing"):
            sb.parse_instance(bad)

    def test_truncated_file(self):
        bad = "shiftbribe v1\nrule borda\n2 1\np c\norder: 1 0\n"
        with pytest.raises(sb.ParseError, match="unexpected end"):
            sb.parse_instance(bad)
