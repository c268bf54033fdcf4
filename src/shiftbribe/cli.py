"""Command-line front end: solve, gen, and bench subcommands.

Exit codes: 0 success, 2 incompatible algorithm/rule, invalid parameters
or a value outside the checked 64-bit integer range (also a weight or
price in the input file), 3 parse error (also a file that is not UTF-8)
or a path that cannot be read or written, 4 enumeration or table guard
exceeded.
"""

import argparse
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

from .bribery import ShiftBriberyInstance, is_successful
from .condorcet_solvers import solve_copeland_shift, solve_maximin_shift
from .errors import GuardExceeded, IncompatibleRule, Infeasible
from .instances import (
    ParseError,
    _build_rule,
    gen_random,
    gen_theorem6,
    parse_instance,
    serialize_instance,
)
from .oracle import exact_shift_opt
from .scoring_solvers import (
    solve_bootstrap,
    solve_bootstrap_weighted,
    solve_single_pass,
    solve_two_pass,
    solve_two_pass_scaled,
)

DEFAULT_EPS = Fraction(1, 4)

REPORT_KEYS = (
    "algorithm",
    "instance_digest",
    "cost",
    "shift_action",
    "successful",
    "oracle_cost",
    "ratio",
    "wall_time_ms",
)


def _digest(inst: ShiftBriberyInstance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:12]


# Each --algo name and its solver; ``exact`` looks the oracle up at call time.
_SOLVERS = {
    "exact": lambda i: exact_shift_opt(i),
    "A": solve_two_pass,
    "Aeps": lambda i: solve_two_pass_scaled(i, DEFAULT_EPS),
    "B": solve_bootstrap,
    "Bw": solve_bootstrap_weighted,
    "G": solve_single_pass,
    "copeland-m": solve_copeland_shift,
    "maximin-log": solve_maximin_shift,
}


def _select_solver(algo: str):
    """Map an --algo token, a ``_SOLVERS`` name or ``Aeps:<eps>``, to a
    solver; the solvers themselves reject a rule or weighting they do not
    support."""
    name, colon, arg = algo.partition(":")
    if name == "Aeps" and colon:
        try:
            eps = Fraction(arg)
        except (ValueError, ZeroDivisionError) as exc:
            raise IncompatibleRule(f"malformed eps in '{algo}'") from exc
        return lambda i: solve_two_pass_scaled(i, eps)
    if algo not in _SOLVERS:
        raise IncompatibleRule(f"unknown algorithm '{algo}'")
    return _SOLVERS[algo]


def _ratio_str(cost: int, oracle_cost: int) -> str:
    if oracle_cost == 0:
        return "1/1" if cost == 0 else "inf"
    frac = Fraction(cost, oracle_cost)
    return f"{frac.numerator}/{frac.denominator}"


def _solve_report(inst: ShiftBriberyInstance, algo: str, with_oracle: bool) -> dict:
    solver = _select_solver(algo)
    start = time.perf_counter_ns()
    cost, action = solver(inst)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    successful = is_successful(inst, action)
    if not successful:
        raise AssertionError(f"algorithm {algo} returned an unsuccessful action")
    report = {
        "algorithm": algo,
        "instance_digest": _digest(inst),
        "cost": cost,
        "shift_action": list(action.shifts),
        "successful": successful,
        "oracle_cost": None,
        "ratio": None,
        "wall_time_ms": elapsed_ms,
    }
    if with_oracle:
        oracle_cost = cost if algo == "exact" else exact_shift_opt(inst)[0]
        report["oracle_cost"] = oracle_cost
        report["ratio"] = _ratio_str(cost, oracle_cost)
    return report


def _print_report(report: dict, as_json: bool):
    if as_json:
        print(json.dumps({k: report[k] for k in REPORT_KEYS}, indent=2))
        return
    print(f"algorithm:    {report['algorithm']}")
    print(f"instance:     {report['instance_digest']}")
    print(f"cost:         {report['cost']}")
    print(f"shift action: {' '.join(str(t) for t in report['shift_action'])}")
    print(f"successful:   {'yes' if report['successful'] else 'no'}")
    if report["oracle_cost"] is not None:
        ratio = report["ratio"]
        approx = float(Fraction(ratio)) if ratio != "inf" else float("inf")
        print(f"oracle cost:  {report['oracle_cost']}")
        print(f"ratio:        {ratio} ({approx:.3f})")
    print(f"wall time:    {report['wall_time_ms']} ms")


def cmd_solve(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 ({exc.reason})", data.count(b"\n", 0, exc.start) + 1) from exc
    # universal newlines, as a file opened in text mode reads them
    inst = parse_instance(io.StringIO(text, newline=None).read())
    report = _solve_report(inst, args.algo, args.oracle)
    _print_report(report, args.json)
    return 0


def cmd_gen(args) -> int:
    if args.family == "theorem6":
        if args.k is None:
            raise ValueError("--family theorem6 requires --k")
        inst = gen_theorem6(args.k)
    elif args.family == "random":
        missing = [
            name
            for name, value in (("--n", args.n), ("--m", args.m))
            if value is None
        ]
        if missing:
            raise ValueError(f"--family random requires {', '.join(missing)}")
        rule = _build_rule((args.rule or "borda").split(":", 1), args.m)
        inst = gen_random(
            args.seed, args.n, args.m, args.max_price, weighted=args.weighted, rule=rule
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family '{args.family}'")
    text = serialize_instance(inst)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_bench(args) -> int:
    if args.suite == "thm6-ratio":
        rows = []
        for k in range(args.k_min, args.k_max + 1):
            inst = gen_theorem6(k)
            cost_a, _ = solve_two_pass(inst)
            cost_g, _ = solve_single_pass(inst)
            ratio = Fraction(cost_g, cost_a) if cost_a else Fraction(1)
            rows.append(
                {
                    "k": k,
                    "cost_A": cost_a,
                    "cost_G": cost_g,
                    "ratio_G_over_A": str(ratio),
                    "ratio_float": float(ratio),
                }
            )
        summary = _summary(rows, "ratio_float")
    elif args.suite == "random-ratio":
        names = ("A", "Aeps", "B", "G")
        rows = []
        for seed in range(args.seed, args.seed + args.count):
            inst = gen_random(seed, args.n, args.m, args.max_price)
            opt, _ = exact_shift_opt(inst)
            row = {"seed": seed, "opt": opt}
            for name in names:
                cost, _ = _SOLVERS[name](inst)
                row[f"cost_{name}"] = cost
                row[f"ratio_{name}"] = float(cost / opt) if opt else 1.0
            rows.append(row)
        summary = {}
        for name in names:
            summary.update(_summary(rows, f"ratio_{name}", prefix=name))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown suite '{args.suite}'")

    if args.json:
        print(json.dumps({"suite": args.suite, "rows": rows, "summary": summary}, indent=2))
        return 0
    if not rows:
        print("(empty range)")
        return 0
    header = list(rows[0].keys())
    print("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        print("  ".join(f"{str(row[h]):>14}" for h in header))
    for key, value in summary.items():
        print(f"{key}: {value}")
    return 0


def _summary(rows, field, prefix=""):
    values = [row[field] for row in rows]
    if not values:
        return {}
    tag = f"{prefix}_" if prefix else ""
    return {
        f"{tag}max_ratio": max(values),
        f"{tag}mean_ratio": sum(values) / len(values),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftbribe",
        description="Approximate and exact solvers for shift-bribery campaign management.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file", help="instance file in shiftbribe v1 format")
    p_solve.add_argument(
        "--algo",
        required=True,
        help="one of exact, A, Aeps[:<eps>], B, Bw, G, copeland-m, maximin-log",
    )
    p_solve.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    p_solve.add_argument("--json", action="store_true", help="emit JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", choices=("theorem6", "random"), required=True)
    p_gen.add_argument("--k", type=int, help="theorem6 size parameter")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, help="number of voters")
    p_gen.add_argument("--m", type=int, help="number of candidates")
    p_gen.add_argument("--max-price", type=int, default=6)
    p_gen.add_argument("--weighted", action="store_true")
    p_gen.add_argument(
        "--rule",
        help="borda (default), maximin, copeland:N/D, kapproval:K, or scoring:a1,...,am",
    )
    p_gen.add_argument("-o", "--output", help="output file (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep")
    p_bench.add_argument("--suite", choices=("thm6-ratio", "random-ratio"), required=True)
    p_bench.add_argument("--k-min", type=int, default=1)
    p_bench.add_argument("--k-max", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--count", type=int, default=20)
    p_bench.add_argument("--n", type=int, default=4)
    p_bench.add_argument("--m", type=int, default=4)
    p_bench.add_argument("--max-price", type=int, default=6)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OverflowError as exc:  # includes out-of-range values in the input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 4
    except (IncompatibleRule, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing, unreadable or unwritable paths
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


def entry_point():  # pragma: no cover - thin wrapper
    sys.exit(main())
