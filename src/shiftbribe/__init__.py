"""shiftbribe: solvers for the shift-bribery campaign-management problem.

Given an election, a preferred candidate, and per-voter prices for shifting
that candidate upwards, compute cheap shift actions that make the candidate
a winner: a 2-approximation for all scoring rules (weighted or not), an
m-approximation for Copeland-alpha via microbribery, a logarithmic-factor
greedy for maximin, and exact brute-force oracles for verification.
"""

from .elections import (
    CopelandAlpha,
    Election,
    PairwiseTally,
    ScoringVector,
    apply_shift,
    borda,
    copeland_scores,
    k_approval,
    maximin_scores,
    pairwise_tally,
    scoring_scores,
    winners,
)
from .bribery import (
    MAXIMIN,
    CopelandRule,
    CostFunction,
    MaximinRule,
    Rule,
    ScoringRule,
    ShiftAction,
    ShiftBriberyInstance,
    gain,
    is_successful,
    rebase,
    rule_scores,
    total_cost,
)
from .scoring_solvers import (
    buy,
    solve_bootstrap,
    solve_bootstrap_weighted,
    solve_single_pass,
    solve_two_pass,
    solve_two_pass_scaled,
)
from .condorcet_solvers import (
    FlipCostFunction,
    FlipSet,
    MicrobriberyInstance,
    cover_targets_greedy,
    flip_set_cost,
    micro_to_shift,
    shift_to_micro,
    solve_copeland_micro,
    solve_copeland_shift,
    solve_maximin_shift,
)
from .oracle import exact_cover_opt, exact_micro_opt, exact_shift_opt
from .instances import (
    ParseError,
    gen_random,
    gen_theorem6,
    parse_instance,
    serialize_instance,
)
from .errors import GuardExceeded, IncompatibleRule, Infeasible

__version__ = "0.1.0"

__all__ = [
    "CopelandAlpha",
    "Election",
    "PairwiseTally",
    "ScoringVector",
    "apply_shift",
    "borda",
    "copeland_scores",
    "k_approval",
    "maximin_scores",
    "pairwise_tally",
    "scoring_scores",
    "winners",
    "MAXIMIN",
    "CopelandRule",
    "CostFunction",
    "MaximinRule",
    "Rule",
    "ScoringRule",
    "ShiftAction",
    "ShiftBriberyInstance",
    "gain",
    "is_successful",
    "rebase",
    "rule_scores",
    "total_cost",
    "buy",
    "solve_bootstrap",
    "solve_bootstrap_weighted",
    "solve_single_pass",
    "solve_two_pass",
    "solve_two_pass_scaled",
    "FlipCostFunction",
    "FlipSet",
    "MicrobriberyInstance",
    "cover_targets_greedy",
    "flip_set_cost",
    "micro_to_shift",
    "shift_to_micro",
    "solve_copeland_micro",
    "solve_copeland_shift",
    "solve_maximin_shift",
    "exact_cover_opt",
    "exact_micro_opt",
    "exact_shift_opt",
    "ParseError",
    "gen_random",
    "gen_theorem6",
    "parse_instance",
    "serialize_instance",
    "GuardExceeded",
    "IncompatibleRule",
    "Infeasible",
]
