"""Acceptance suite: one test per criterion, exact tolerances, hard time
budgets.  Each test prints a single PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import shiftbribe as sb
from conftest import gen_random_micro
from scoring_reference import double_gain_check

ALPHAS = (sb.CopelandAlpha(0, 1), sb.CopelandAlpha(1, 2), sb.CopelandAlpha(1, 1))


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        print(f"ACCEPTANCE {number:2d} FAIL  {description} (took {elapsed:.1f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
        )
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.1f}s)")


def small_sizes(rng):
    return rng.randint(1, 4), rng.randint(2, 4)


def test_criterion_1_theorem6_closed_forms():
    with criterion(1, "theorem6 closed forms and solver costs, k = 1..25", 60):
        for k in range(1, 26):
            inst = sb.gen_theorem6(k)
            t_unit = 2 * k
            scores = sb.scoring_scores(inst.election, inst.rule.vector)
            assert scores[0] == 16 * k * k + 4 * k + 1
            assert scores[1] == 16 * k * k + 8 * k + 1
            assert all(s == 8 * k * k + 2 * k + 1 for s in scores[2:])
            cost_a, _ = sb.solve_two_pass(inst)
            assert cost_a == 2 * k * t_unit, (k, cost_a)
            cost_g, action_g = sb.solve_single_pass(inst)
            assert cost_g == 4 * k * t_unit - 3 * k, (k, cost_g)
            assert tuple(action_g.shifts) == (0,) * (4 * k) + (4 * k, 0)


def test_criterion_2_oracle_anchor():
    with criterion(2, "exact oracle optimum 4 on the k=1 family instance", 5):
        inst = sb.gen_theorem6(1)
        cost, action = sb.exact_shift_opt(inst)
        assert cost == 4
        assert sb.is_successful(inst, action)


def test_criterion_3_ratio_trend():
    with criterion(3, "single-pass/two-pass ratio strictly increasing, > 2 - 1/k", 60):
        previous = None
        for k in range(1, 26):
            inst = sb.gen_theorem6(k)
            ratio = Fraction(sb.solve_single_pass(inst)[0], sb.solve_two_pass(inst)[0])
            assert ratio > 2 - Fraction(1, k), (k, ratio)
            if previous is not None:
                assert ratio > previous, (k, ratio, previous)
            previous = ratio


def test_criterion_4_scoring_envelopes():
    with criterion(4, "500 random scoring instances within solver envelopes", 300):
        eps = Fraction(1, 2)
        for seed in range(500):
            rng = random.Random(seed * 7919 + 13)
            n, m = small_sizes(rng)
            inst = sb.gen_random(seed, n, m, 6)
            opt, _ = sb.exact_shift_opt(inst)
            cost_a, act_a = sb.solve_two_pass(inst)
            assert opt <= cost_a <= 2 * opt, ("A", seed, opt, cost_a)
            assert sb.is_successful(inst, act_a)
            cost_e, act_e = sb.solve_two_pass_scaled(inst, eps)
            assert opt <= cost_e, ("Aeps", seed, opt, cost_e)
            assert 2 * cost_e <= 5 * opt, ("Aeps", seed, opt, cost_e)
            assert sb.is_successful(inst, act_e)
            cost_b, act_b = sb.solve_bootstrap(inst)
            assert opt <= cost_b <= 2 * opt, ("B", seed, opt, cost_b)
            assert sb.is_successful(inst, act_b)
            cost_g, _ = sb.solve_single_pass(inst)
            assert cost_g >= cost_a, ("G", seed, cost_g, cost_a)


def test_criterion_5_weighted_envelope():
    with criterion(5, "200 random weighted instances within the 2x envelope", 300):
        for seed in range(200):
            rng = random.Random(seed * 104729 + 7)
            n, m = small_sizes(rng)
            inst = sb.gen_random(seed, n, m, 6, weighted=True)
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_bootstrap_weighted(inst)
            assert opt <= cost <= 2 * opt, (seed, opt, cost)
            assert sb.is_successful(inst, action)


def test_criterion_6_copeland_micro_exactness():
    with criterion(6, "300 tiny microbribery instances solved exactly", 300):
        done = 0
        seed = 0
        while done < 300:
            seed += 1
            rng = random.Random(seed * 31 + 5)
            n = rng.randint(1, 5)
            m = rng.randint(2, 5)
            if n * (m - 1) > 16:
                continue
            m_inst = gen_random_micro(seed, n, m, 5)
            alpha = ALPHAS[seed % 3]
            try:
                cost, flips = sb.solve_copeland_micro(m_inst, alpha)
            except sb.Infeasible:
                with pytest.raises(sb.Infeasible):
                    sb.exact_micro_opt(m_inst, alpha)
                continue
            assert sb.flip_set_cost(m_inst, flips) == cost
            assert cost == sb.exact_micro_opt(m_inst, alpha)[0], (seed, alpha)
            done += 1


def test_criterion_7_copeland_m_bound():
    with criterion(7, "300 Copeland instances within the m-approximation", 300):
        for seed in range(300):
            rng = random.Random(seed * 131 + 17)
            n, m = small_sizes(rng)
            alpha = ALPHAS[seed % 3]
            inst = sb.gen_random(seed, n, m, 6, rule=sb.CopelandRule(alpha))
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_copeland_shift(inst)
            assert sb.is_successful(inst, action), seed
            assert opt <= cost <= m * opt, (seed, opt, cost, m)


def test_criterion_8_maximin_feasibility():
    with criterion(8, "300 maximin instances: success, oracle lower bound, coverage", 300):
        ratios = []
        for seed in range(300):
            rng = random.Random(seed * 151 + 29)
            n, m = small_sizes(rng)
            inst = sb.gen_random(seed, n, m, 6, rule=sb.MAXIMIN)
            opt, _ = sb.exact_shift_opt(inst)
            cost, action = sb.solve_maximin_shift(inst)
            assert sb.is_successful(inst, action), seed
            assert opt <= cost, (seed, opt, cost)
            if opt > 0:
                ratios.append(cost / opt)
            targets = tuple(rng.randint(0, n) for _ in range(m - 1))
            covering = sb.cover_targets_greedy(inst, targets)
            before = sb.pairwise_tally(inst.election)
            after = sb.pairwise_tally(sb.apply_shift(inst.election, covering.shifts))
            for c in range(1, m):
                req = min(before.n_matrix[0][c] + targets[c - 1], n)
                assert after.n_matrix[0][c] >= req, (seed, c)
        # the logarithmic constant is not asserted; report the distribution
        if ratios:
            print(
                f"    maximin cost/opt over {len(ratios)} nontrivial instances: "
                f"max {max(ratios):.3f}, mean {sum(ratios) / len(ratios):.3f}"
            )


def test_criterion_9_double_gain_property():
    with criterion(9, "500 double-gain triples all imply success", 120):
        checked = 0
        seed = 0
        while checked < 500:
            seed += 1
            rng = random.Random(seed * 883 + 11)
            n, m = small_sizes(rng)
            inst = sb.gen_random(seed, n, m, 4)
            caps = [cf.cap for cf in inst.costs]
            s = sb.ShiftAction(tuple(caps))  # shift to top: always successful
            if not sb.is_successful(inst, s):
                s = None
                for _ in range(20):
                    t = sb.ShiftAction(tuple(rng.randint(0, c) for c in caps))
                    if sb.is_successful(inst, t):
                        s = t
                        break
            if s is None:
                continue
            for _ in range(4):
                r = sb.ShiftAction(tuple(rng.randint(0, c) for c in caps))
                if double_gain_check(inst, s, r):
                    assert sb.is_successful(inst, r), (seed, s, r)
                    checked += 1


def test_criterion_10_format_round_trip():
    with criterion(10, "1000 generated instances round-trip byte-exactly", 60):
        rules = (
            None,
            sb.ScoringRule(sb.k_approval(4, 2)),
            sb.CopelandRule(sb.CopelandAlpha(3, 10)),
            sb.MAXIMIN,
        )
        for seed in range(900):
            rng = random.Random(seed * 631 + 3)
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rule = rules[seed % len(rules)]
            if rule is not None and not isinstance(rule, (sb.CopelandRule, sb.MaximinRule)):
                rule = sb.ScoringRule(sb.k_approval(m, min(2, m)))
            inst = sb.gen_random(seed, n, m, 6, weighted=(seed % 2 == 0), rule=rule)
            text = sb.serialize_instance(inst)
            parsed = sb.parse_instance(text)
            assert parsed == inst, seed
            assert sb.serialize_instance(parsed) == text, seed
        for k in range(1, 101):
            inst = sb.gen_theorem6(k)
            text = sb.serialize_instance(inst)
            parsed = sb.parse_instance(text)
            assert parsed == inst, k
            assert sb.serialize_instance(parsed) == text, k
