"""Instance generators and the on-disk ``shiftbribe v1`` text format.

The format is line oriented, UTF-8, LF line endings, with ``#`` comments::

    shiftbribe v1
    rule <borda | kapproval K | scoring a1,...,am | copeland NUM/DEN | maximin>
    <m> <n> [weighted]
    <candidate names, whitespace separated, first one is the preferred candidate>
    # then n voter blocks:
    order: i1 i2 ... im        # candidate indices, best first
    weight: w                  # only if weighted
    prices: p1,...,pcap        # cap = rank of the preferred candidate - 1;
                               # "inf" marks an unreachable shift amount

The serializer emits canonical spacing, so serializing a parsed canonical
file reproduces it byte for byte.
"""

import random
from typing import Optional

from .bribery import (
    CostFunction,
    CopelandRule,
    MaximinRule,
    Rule,
    ScoringRule,
    ShiftBriberyInstance,
)
from .elections import _I64_MAX, CopelandAlpha, Election, ScoringVector, borda, k_approval


class ParseError(ValueError):
    """A malformed instance file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


class _RangeError(ParseError, OverflowError):
    """A weight or price beyond the checked 64-bit integer range; the CLI
    reports it like every other out-of-range value."""


def gen_theorem6(k: int) -> ShiftBriberyInstance:
    """The theorem6 adversarial family, parameterized by k (price unit
    T = 2k).

    4k + 2 candidates and voters under Borda.  The first 4k voters rank the
    strongest rival first and the preferred candidate second, with a unit
    shift priced T each; one expensive voter ranks the preferred candidate
    last behind a long tail of filler candidates, priced so that buying deep
    shifts there looks attractive to a single greedy budget sweep but costs
    almost twice the optimum; the last voter already complies.  The optimal
    cost is 2kT while the single-pass sweep pays 4kT - 3k, so the family
    drives the single-pass/two-pass cost ratio toward 2 as k grows.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    t_unit = 2 * k
    m = 4 * k + 2
    candidates = ("p", "c") + tuple(f"a{i}" for i in range(1, 4 * k + 1))
    fillers_asc = tuple(range(2, m))  # a1 .. a4k
    fillers_desc = tuple(range(m - 1, 1, -1))  # a4k .. a1
    voters = []
    for _ in range(2 * k):
        voters.append((1, 0) + fillers_asc)
        voters.append((1, 0) + fillers_desc)
    voters.append((1,) + fillers_desc + (0,))
    voters.append((0,) + fillers_asc + (1,))
    costs = [CostFunction((t_unit,)) for _ in range(4 * k)]
    increments = [t_unit + 1]
    increments += [t_unit] * (k - 1)
    increments += [t_unit - 2]
    increments += [t_unit - 1] * (3 * k)
    prices = []
    acc = 0
    for inc in increments:
        acc += inc
        prices.append(acc)
    costs.append(CostFunction(tuple(prices)))
    costs.append(CostFunction(()))
    election = Election(candidates, tuple(voters), None)
    return ShiftBriberyInstance(election, tuple(costs), ScoringRule(borda(m)))


def gen_random(
    seed: int,
    n: int,
    m: int,
    max_price: int,
    weighted: bool = False,
    rule: Optional[Rule] = None,
) -> ShiftBriberyInstance:
    """Seed-deterministic random instance.

    Uniform random preference orders; per-voter non-decreasing price tables
    built from increments drawn uniformly from 0..max_price; weights drawn
    from 1..max_price when ``weighted``.  The rule defaults to Borda.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if max_price < 1:
        raise ValueError("max_price must be at least 1")
    rng = random.Random(seed)
    candidates = ("p",) + tuple(f"c{i}" for i in range(1, m))
    voters = []
    costs = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        voters.append(tuple(order))
        cap = order.index(0)
        prices = []
        acc = 0
        for _ in range(cap):
            acc += rng.randint(0, max_price)
            prices.append(acc)
        costs.append(CostFunction(tuple(prices)))
    weights = tuple(rng.randint(1, max_price) for _ in range(n)) if weighted else None
    if rule is None:
        rule = ScoringRule(borda(m))
    election = Election(candidates, tuple(voters), weights)
    return ShiftBriberyInstance(election, tuple(costs), rule)


def _format_rule(rule: Rule, m: int) -> str:
    if isinstance(rule, ScoringRule):
        vec = rule.vector
        if vec == borda(m):
            return "rule borda"
        for k in range(1, m + 1):
            if vec == k_approval(m, k):
                return f"rule kapproval {k}"
        return "rule scoring " + ",".join(str(s) for s in vec.scores)
    if isinstance(rule, CopelandRule):
        return f"rule copeland {rule.alpha}"
    if isinstance(rule, MaximinRule):
        return "rule maximin"
    raise TypeError(f"unknown rule: {rule!r}")


def serialize_instance(inst: ShiftBriberyInstance) -> str:
    """Render an instance in canonical ``shiftbribe v1`` form.  Candidate
    names that would not parse back (empty, or holding whitespace or ``#``)
    raise ``ValueError``."""
    e = inst.election
    for name in e.candidates:
        if not name or "#" in name or any(ch.isspace() for ch in name):
            raise ValueError(f"candidate name {name!r} cannot be written (empty, space or '#')")
    lines = ["shiftbribe v1", _format_rule(inst.rule, e.num_candidates)]
    size = f"{e.num_candidates} {e.num_voters}"
    if e.weights is not None:
        size += " weighted"
    lines.append(size)
    lines.append(" ".join(e.candidates))
    for i, order in enumerate(e.voters):
        lines.append("order: " + " ".join(str(c) for c in order))
        if e.weights is not None:
            lines.append(f"weight: {e.weights[i]}")
        prices = ",".join(
            "inf" if p is None else str(p) for p in inst.costs[i].prices
        )
        lines.append("prices: " + prices if prices else "prices:")
    return "\n".join(lines) + "\n"


class _Lines:
    """Comment-stripped, non-empty lines with their original numbers."""

    def __init__(self, text: str):
        self.items = []
        for no, raw in enumerate(text.split("\n"), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((no, stripped))
        self.pos = 0
        self.last_no = len(text.split("\n"))

    def next(self, what: str):
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of file, expected {what}", self.last_no)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _build_rule(tokens: list, m: int) -> Rule:
    """The rule for ``m`` candidates that ``tokens`` name: a kind, then its
    argument if it takes one.  A file's rule line gives them after its
    ``rule`` keyword, ``gen --rule`` joins them with ``:``.  Raises
    ``ValueError`` for an unknown rule, a malformed argument or a scoring
    vector without m entries."""
    kind, *args = tokens or [""]
    try:
        if kind == "borda" and not args:
            return ScoringRule(borda(m))
        if kind == "kapproval" and len(args) == 1:
            return ScoringRule(k_approval(m, int(args[0])))
        if kind == "scoring" and len(args) == 1:
            scores = tuple(int(s) for s in args[0].split(","))
            if len(scores) != m:
                raise ValueError(f"scoring vector needs {m} entries")
            return ScoringRule(ScoringVector(scores))
        if kind == "copeland" and len(args) == 1:
            return CopelandRule(CopelandAlpha.parse(args[0]))
        if kind == "maximin" and not args:
            return MaximinRule()
    except ValueError as exc:
        raise ValueError(f"malformed rule ({exc})") from exc
    raise ValueError(f"unknown rule '{' '.join(tokens)}'")


def _parse_rule(text: str, m: int, line: int) -> Rule:
    parts = text.split()
    if not parts or parts[0] != "rule":
        raise ParseError("expected a rule line", line)
    try:
        return _build_rule(parts[1:], m)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def parse_instance(text: str) -> ShiftBriberyInstance:
    """Parse ``shiftbribe v1`` text; every malformation is reported with its
    line number."""
    lines = _Lines(text)
    no, header = lines.next("header")
    if header != "shiftbribe v1":
        raise ParseError("malformed header, expected 'shiftbribe v1'", no)
    rule_no, rule_text = lines.next("rule line")
    no, size = lines.next("size line")
    parts = size.split()
    weighted = False
    if len(parts) == 3 and parts[2] == "weighted":
        weighted = True
        parts = parts[:2]
    if len(parts) != 2:
        raise ParseError("malformed size line, expected 'm n [weighted]'", no)
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("malformed size line, expected integers", no)
    if m < 1 or n < 1:
        raise ParseError("m and n must be at least 1", no)
    no, names_line = lines.next("candidate names")
    names = tuple(names_line.split())
    if len(names) != m:
        raise ParseError(f"expected {m} candidate names", no)
    if len(set(names)) != m:
        raise ParseError("duplicate candidate name", no)
    # only now, with m names read, is an m-entry rule vector bounded by the input
    rule = _parse_rule(rule_text, m, rule_no)

    voters = []
    weights = [] if weighted else None
    costs = []
    for v in range(n):
        no, line = lines.next(f"order of voter {v}")
        if not line.startswith("order:"):
            raise ParseError(f"expected 'order:' for voter {v}", no)
        try:
            order = tuple(int(tok) for tok in line[len("order:"):].split())
        except ValueError:
            raise ParseError("order entries must be integers", no)
        if sorted(order) != list(range(m)):
            raise ParseError("order is not a permutation of the candidates", no)
        voters.append(order)
        if weighted:
            no, line = lines.next(f"weight of voter {v}")
            if not line.startswith("weight:"):
                raise ParseError(f"expected 'weight:' for voter {v}", no)
            try:
                w = int(line[len("weight:"):].strip())
            except ValueError:
                raise ParseError("weight must be an integer", no)
            if w < 1:
                raise ParseError("weight must be positive", no)
            if w > _I64_MAX:
                raise _RangeError("weight exceeds the 64-bit integer range", no)
            weights.append(w)
        no, line = lines.next(f"prices of voter {v}")
        if not line.startswith("prices:"):
            raise ParseError(f"expected 'prices:' for voter {v}", no)
        body = line[len("prices:"):].strip()
        prices = []
        if body:
            for tok in body.split(","):
                tok = tok.strip()
                if tok == "inf":
                    prices.append(None)
                    continue
                try:
                    prices.append(int(tok))
                except ValueError:
                    raise ParseError(f"malformed price '{tok}'", no)
        cap = order.index(0)
        if len(prices) != cap:
            raise ParseError(
                f"expected {cap} prices for a rank-{cap + 1} preferred candidate", no
            )
        if any(p is not None and p > _I64_MAX for p in prices):
            raise _RangeError("price exceeds the 64-bit integer range", no)
        try:
            costs.append(CostFunction(tuple(prices)))
        except ValueError as exc:
            raise ParseError(str(exc), no) from exc
    if not lines.exhausted():
        no, _ = lines.next("")
        raise ParseError("unexpected trailing content", no)
    election = Election(names, tuple(voters), tuple(weights) if weighted else None)
    try:
        return ShiftBriberyInstance(election, tuple(costs), rule)
    except ValueError as exc:
        raise ParseError(f"inconsistent instance ({exc})", no)
