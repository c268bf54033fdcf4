"""Seeded request pools for the four benchmark workloads.

A workload is a fixed table of strata.  Each stratum names a request kind
(the solver's CLI name), an instance family, the sizes it cycles through and
how many requests of it one pool holds.  The seed draws only the random
content of the instances (preference orders, prices, weights); the sizes and
the request mix are the same for every seed, so the spread between runs with
different seeds comes from instance content alone.

The first half of each stratum (rounded up) and every theorem6 request are
anchors: drawn from a fixed stream that ignores the seed, so every pool of a
workload holds the same anchor instances.  The cost metric is taken over them,
which makes a comparison of two versions of the program paired.

Random instances in which the preferred candidate already wins are redrawn:
every request then has to buy something, and none of them is a no-op that
would only measure parsing.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

AEPS_EPS = Fraction(1, 4)

# kind -> (module, function, extra positional arguments after the instance)
SOLVERS = {
    "A": ("scoring_solvers", "solve_two_pass", ()),
    "G": ("scoring_solvers", "solve_single_pass", ()),
    "Aeps": ("scoring_solvers", "solve_two_pass_scaled", (AEPS_EPS,)),
    "B": ("scoring_solvers", "solve_bootstrap", ()),
    "Bw": ("scoring_solvers", "solve_bootstrap_weighted", ()),
    "maximin-log": ("condorcet_solvers", "solve_maximin_shift", ()),
    "copeland-m": ("condorcet_solvers", "solve_copeland_shift", ()),
    "exact": ("oracle", "exact_shift_opt", ()),
}

# Approximation factor each solver guarantees against the optimum; G has none.
ENVELOPES = {
    "A": Fraction(2),
    "Aeps": 2 + AEPS_EPS,
    "B": Fraction(2),
    "Bw": Fraction(2),
}


ANCHOR_SHARE = 2  # one request in ANCHOR_SHARE, rounded up, is an anchor


@dataclass(frozen=True)
class Draw:
    """What regenerates one instance: the family, its sizes and, for random
    families, the gen_random seed and the k of k-approval."""

    family: str
    sizes: tuple
    weighted: bool = False
    gen_seed: int = 0
    k: int = 0


@dataclass
class Request:
    """One pool entry: which solver to call on which serialized instance."""

    kind: str
    draw: Draw
    text: str
    anchor: bool
    # Known optimum (theorem6 closed form), or None.
    opt: Optional[int] = None
    # Whether the answer checker must compute the optimum with the oracle.
    needs_opt: bool = False
    sizes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Stratum:
    kind: str
    family: str
    # (n, m, max_price) for random families, (k,) for theorem6.
    sizes: tuple
    count: int
    weighted: bool = False
    needs_opt: bool = False
    # Oracle workload: keep only instances with this many shift vectors.
    vectors: Optional[tuple] = None


def _grid(ns, ms, ps):
    return tuple((n, m, p) for n in ns for m in ms for p in ps)


_DP_GRID = _grid((16, 20, 24), (8,), (30, 50))
_THM6 = tuple((k,) for k in range(8, 21))
_AEPS_GRID = _grid((5, 6, 7), (4, 5, 6), (10,))
_GUESS_GRID = _grid((5,), (4,), (6,))
_MAXIMIN_GRID = _grid((20, 30, 40), (6, 8), (10,))
_COPELAND_GRID = _grid((60, 100, 140), (12, 16, 20), (10,))
_VECTOR_BANDS = (
    ((8, 6, 10), (10**4, 3 * 10**4)),
    ((9, 6, 10), (3 * 10**4, 10**5)),
    ((10, 7, 10), (10**5, 2 * 10**5)),
)

WORKLOADS = {
    "scoring-dp": (
        Stratum("A", "borda", _DP_GRID, 288),
        Stratum("A", "borda100", _DP_GRID, 90),
        Stratum("A", "theorem6", _THM6, 13),
        Stratum("G", "borda", _DP_GRID, 186),
        Stratum("G", "theorem6", _THM6, 13),
    ),
    "scoring-guess": (
        Stratum("Aeps", "borda", _AEPS_GRID, 108, needs_opt=True),
        Stratum("Aeps", "kapproval", _AEPS_GRID, 108, needs_opt=True),
        Stratum("B", "borda", _GUESS_GRID, 135, needs_opt=True),
        Stratum("B", "kapproval", _GUESS_GRID, 135, needs_opt=True),
        Stratum("Bw", "borda", _GUESS_GRID, 135, weighted=True, needs_opt=True),
        Stratum("Bw", "kapproval", _GUESS_GRID, 135, weighted=True, needs_opt=True),
    ),
    "condorcet": (
        Stratum("maximin-log", "maximin", _MAXIMIN_GRID, 228),
        Stratum("copeland-m", "copeland0", _COPELAND_GRID, 90),
        Stratum("copeland-m", "copeland1/2", _COPELAND_GRID, 90),
        Stratum("copeland-m", "copeland1", _COPELAND_GRID, 90),
    ),
    "oracle": tuple(
        Stratum("exact", family, (sizes,), count, vectors=band)
        for family in ("borda", "copeland1/2", "maximin")
        for (sizes, band), count in zip(_VECTOR_BANDS, (50, 38, 19))
    ),
}


def shift_vectors(inst) -> int:
    """Number of shift vectors the brute-force oracle enumerates."""
    count = 1
    for cf in inst.costs:
        count *= cf.max_reachable + 1
    return count


def _rule(sb, family: str, m: int, k: int):
    if family == "borda":
        return sb.ScoringRule(sb.borda(m))
    if family == "borda100":
        # Gains 100x Borda: the total gain G exceeds the price total P.
        return sb.ScoringRule(sb.ScoringVector(tuple(100 * (m - 1 - j) for j in range(m))))
    if family == "kapproval":
        return sb.ScoringRule(sb.k_approval(m, k))
    if family == "maximin":
        return sb.MAXIMIN
    if family.startswith("copeland"):
        return sb.CopelandRule(sb.CopelandAlpha.parse(family[len("copeland"):]))
    raise ValueError(f"unknown family {family!r}")


def make_instance(sb, draw: Draw):
    """The instance ``draw`` describes, generated afresh."""
    if draw.family == "theorem6":
        return sb.gen_theorem6(*draw.sizes)
    n, m, max_price = draw.sizes
    rule = _rule(sb, draw.family, m, draw.k)
    return sb.gen_random(draw.gen_seed, n, m, max_price, weighted=draw.weighted, rule=rule)


def _random_draw(sb, stratum: Stratum, sizes: tuple, rng: random.Random):
    """A draw whose instance the preferred candidate does not already win,
    and the instance."""
    m = sizes[1]
    for _ in range(1000):
        draw = Draw(stratum.family, sizes, stratum.weighted,
                    gen_seed=rng.randrange(2**31), k=rng.randint(1, m - 1))
        inst = make_instance(sb, draw)
        if 0 in sb.winners(sb.rule_scores(inst.election, inst.rule)):
            continue
        if stratum.vectors is not None:
            low, high = stratum.vectors
            if not low <= shift_vectors(inst) <= high:
                continue
        return draw, inst
    raise RuntimeError(f"no usable {stratum.family} instance at sizes {sizes}")


def build_pool(sb, workload: str, seed: int) -> list:
    """The workload's requests for ``seed``, serialized and shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    anchor_rng = random.Random(f"{workload}:anchor")
    pool = []
    for stratum in WORKLOADS[workload]:
        anchors = -(-stratum.count // ANCHOR_SHARE)
        for j in range(stratum.count):
            sizes = stratum.sizes[j % len(stratum.sizes)]
            if stratum.family == "theorem6":
                draw = Draw("theorem6", sizes)
                (k,) = sizes
                pool.append(
                    Request(stratum.kind, draw, sb.serialize_instance(make_instance(sb, draw)),
                            anchor=True, opt=4 * k * k, sizes={"k": k})
                )
                continue
            anchor = j < anchors
            draw, inst = _random_draw(sb, stratum, sizes, anchor_rng if anchor else rng)
            n, m, max_price = sizes
            pool.append(
                Request(stratum.kind, draw, sb.serialize_instance(inst), anchor,
                        needs_opt=stratum.needs_opt,
                        sizes={"n": n, "m": m, "max_price": max_price})
            )
    rng.shuffle(pool)
    return pool
