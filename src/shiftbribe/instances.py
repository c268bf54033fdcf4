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

Voter blocks whose order entries and prices are in canonical form (plain
digits, entries split by single spaces, prices by single commas) are read
in bulk, one ``np.fromstring`` call for all order entries and one for all
prices (``_read_blocks``), whose int64 array, with a 0 put at each voter's
start, the instance keeps for every solver (``bribery._price_table``).
Such an instance keeps only its arrays: ``Election.voters`` and
``ShiftBriberyInstance.costs`` are built from them when first read.
Every other form, such as signs, extra blanks or ``inf`` marks, and every
block holding a fault, goes to the line reader, which converts each token
with ``int()`` and names the earliest fault (``_read_lines``); files with
``inf`` marks therefore parse slower.
"""

import random
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter
from typing import Optional

import numpy as np

from .bribery import (
    CostFunction,
    CopelandRule,
    MaximinRule,
    Rule,
    ScoringRule,
    ShiftBriberyInstance,
    _keep_prices,
)
from .elections import _I64_MAX, CopelandAlpha, Election, ScoringVector, borda, k_approval
from .elections import _are_permutations, _unchecked


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

    Uniform random preference orders (shuffles: the election is not checked);
    per-voter non-decreasing price tables of increments drawn uniformly from
    0..max_price; weights from 1..max_price when ``weighted``.  Borda by default.
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
    election = _unchecked(Election, candidates=candidates, voters=tuple(voters), weights=weights)
    return ShiftBriberyInstance(election._keep(), tuple(costs), rule)


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
    raise ``ValueError``, and a weight or price beyond 2**63 - 1, which the
    parser refuses, ``OverflowError``."""
    e = inst.election
    for name in e.candidates:
        if not name or "#" in name or any(ch.isspace() for ch in name):
            raise ValueError(f"candidate name {name!r} cannot be written (empty, space or '#')")
    if max(e.weights or (0,)) > _I64_MAX:
        raise OverflowError("weight exceeds the 64-bit integer range")
    prices = chain.from_iterable(cf.prices for cf in inst.costs)
    if max(filter(None, prices), default=0) > _I64_MAX:  # filter drops the inf marks
        raise OverflowError("price exceeds the 64-bit integer range")
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
    """Comment-stripped, non-empty lines (``texts``) and their original
    numbers, split in bulk; ``next`` reads them one by one."""

    def __init__(self, text: str):
        raw = text.split("\n")
        if "#" in text:
            raw = map(itemgetter(0), map(str.partition, raw, repeat("#")))
        stripped = list(map(str.strip, raw))
        self.texts = list(filter(None, stripped))
        self.numbers = list(compress(count(1), stripped))
        self.pos = 0
        self.last_no = len(stripped)

    def next(self, what: str):
        if self.pos >= len(self.texts):
            raise ParseError(f"unexpected end of file, expected {what}", self.last_no)
        self.pos += 1
        return self.numbers[self.pos - 1], self.texts[self.pos - 1]


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


def _after(lines: list, key: str) -> list:
    """What follows ``key`` on each line, stripped; ``ValueError`` if a line
    does not start with it."""
    if not all(map(str.startswith, lines, repeat(key))):
        raise ValueError(f"a line without '{key}'")
    return list(map(str.strip, map(itemgetter(slice(len(key), None)), lines)))


def _canonical(joined: str, sep: str) -> bool:
    """Whether ``joined`` is ASCII digit runs, each pair split by one ``sep``:
    the only form that ``np.fromstring`` reads as ``int()`` does, since it
    reads a lone sign as 0 and takes blanks and repeated separators.  The
    digit test runs on bytes, skipping ``str.isdigit``'s Unicode lookup."""
    return (
        joined.isascii()
        and joined.encode().translate(None, sep.encode()).isdigit()
        and not (joined.startswith(sep) or joined.endswith(sep) or sep + sep in joined)
    )


def _read_blocks(
    body: list, names: tuple, rule: Rule, n: int, weighted: bool
) -> ShiftBriberyInstance:
    """The instance of the voter blocks ``body`` (the lines after the head)
    with order entries and prices in canonical form, read and checked in
    bulk: all order entries in one ``np.fromstring`` call, all prices in
    another.  Raises ``ValueError`` if they are not canonical or the blocks
    hold a fault, without naming it."""
    m, size = len(names), 2 + weighted
    if len(body) != n * size:
        raise ValueError("not n voter blocks")
    rows = _after(body[0::size], "order:")
    joined = " ".join(rows)
    if not _canonical(joined, " ") or set(map(str.count, rows, repeat(" "))) != {m - 1}:
        raise ValueError("an order not of m canonical entries")
    orders = np.fromstring(joined, np.int64, sep=" ").reshape(n, m)
    if not _are_permutations(orders):
        raise ValueError("an order that is not a permutation")
    # one weight per line: int() reads it exactly as the line reader does
    weights = tuple(map(int, _after(body[1::size], "weight:"))) if weighted else ()
    if weights and not 1 <= min(weights) <= max(weights) <= _I64_MAX:
        raise ValueError("a weight out of range")
    positions = orders.argsort(axis=1)
    caps = positions[:, 0].tolist()
    bodies = _after(body[size - 1 :: size], "prices:")
    # c prices hold c - 1 commas, an empty body none
    if list(map(add, map(str.count, bodies, repeat(",")), map(bool, bodies))) != caps:
        raise ValueError("a price count that is not the cap")
    joined = ",".join(filter(None, bodies))
    if joined and not _canonical(joined, ","):
        raise ValueError("a price not in canonical form")
    values = np.fromstring(joined, np.int64, sep=",")
    ends = list(accumulate(caps, initial=0))
    # A token of 19 digits or more may lie beyond int64, which fromstring
    # reads as 2**63 - 1, so such prices are left to the line reader's int().
    # Each of the other T - 1 tokens takes a digit and a comma, so the
    # longest has at most len - 2(T - 1) digits.
    if len(joined) - 2 * ends[-1] >= 17 and values.max() >= 10**18:
        raise ValueError("a price that may be out of range")
    drops = (values[1:] < values[:-1]).nonzero()[0] + 1
    if not set(drops.tolist()) <= set(ends):  # a voter's table may start lower
        raise ValueError("a decreasing price table")
    election = _unchecked(Election, candidates=names, weights=weights or None)
    inst = _unchecked(ShiftBriberyInstance, election=election._keep(orders, positions), rule=rule)
    return _keep_prices(inst, values, positions[:, 0])


def _read_lines(
    lines: _Lines, names: tuple, rule: Rule, n: int, weighted: bool
) -> ShiftBriberyInstance:
    """The instance of the voter blocks, read line by line from ``lines.pos``
    with every token converted by ``int()``; any form of them that the
    format allows.  Raises the ``ParseError`` of the earliest fault."""
    m = len(names)
    permutation = list(range(m))
    voters, weights, costs = [], [], []
    for v in range(n):
        no, line = lines.next(f"order of voter {v}")
        if not line.startswith("order:"):
            raise ParseError(f"expected 'order:' for voter {v}", no)
        try:
            order = tuple(map(int, line[len("order:"):].split()))
        except ValueError:
            raise ParseError("order entries must be integers", no)
        if sorted(order) != permutation:
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
        for tok in body.split(",") if body else ():
            tok = tok.strip()
            try:
                prices.append(None if tok == "inf" else int(tok))
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
    if lines.pos < len(lines.texts):
        raise ParseError("unexpected trailing content", lines.numbers[lines.pos])
    election = _unchecked(
        Election, candidates=names, voters=tuple(voters), weights=tuple(weights) or None
    )
    return _unchecked(ShiftBriberyInstance, election=election._keep(), costs=tuple(costs), rule=rule)


def parse_instance(text: str) -> ShiftBriberyInstance:
    """Parse ``shiftbribe v1`` text; every malformation is reported with its
    line number, the earliest one first.  The head is read line by line.
    Voter blocks in canonical form are read in bulk (``_read_blocks``); any
    other form, and blocks that hold a fault, are read line by line
    (``_read_lines``), which returns their instance or names the earliest
    fault."""
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
    try:
        return _read_blocks(lines.texts[lines.pos :], names, rule, n, weighted)
    except ValueError:  # not canonical, or a fault
        pass
    return _read_lines(lines, names, rule, n, weighted)
