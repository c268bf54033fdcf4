#!/usr/bin/env python3
"""Closed-loop benchmark of the shiftbribe solvers.

One client in one process sends requests back to back, with no threads.  A
request is ``parse_instance(text)`` followed by one solver call.  The
workload's request pool is generated from ``--seed``; the loop cycles through
it until ``--seconds`` have passed, and always finishes at least one full
pass and MIN_REQUESTS requests.  Answers are checked after the loop, untimed.
Latencies and set-up times are reported at the reference speed of
``speed.py``, which cancels the drift of a shared host.

Run from the repository root:

    python3 perfbench/run.py --workload scoring-dp --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` the run makes one untraced and one traced pass over the
pool and reports the per-layer metrics instead; spans are written under
``perfbench/out/``.  The line before the last one carries what is reported
beside the metrics: sample count, failed share, answer digest, measured
properties of the workload and the unscaled timings.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

from checker import answers_sha, check_answer  # noqa: E402
from speed import WINDOW, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SOLVERS, WORKLOADS, build_pool, make_instance, shift_vectors  # noqa: E402

MIN_REQUESTS = 100  # so that at least ten samples lie above the p90
SETUP_REPEATS = 7


def metric_units() -> tuple:
    """{name: unit} of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json lists them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def import_package():
    """Import shiftbribe afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "shiftbribe" or n.startswith("shiftbribe.")]:
        del sys.modules[name]
    sb = importlib.import_module("shiftbribe")
    if Path(sb.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"shiftbribe was imported from {sb.__file__}, not from {SRC}")
    return sb


def setup(workload: str, seed: int):
    """Import the package and generate and serialize the pool, several times,
    reporting the median raw and reference-speed times.

    The pool is first drawn untimed: finding instances that the preferred
    candidate does not already win takes a seed-dependent number of redraws.
    Each timed repeat then generates only the instances the pool holds.
    """
    pool = build_pool(import_package(), workload, seed)
    texts = [req.text for req in pool]
    probe = SpeedProbe()
    times = []
    for repeat in range(SETUP_REPEATS):
        probe.probe(repeat)
        start = time.perf_counter()
        sb = import_package()
        made = [sb.serialize_instance(make_instance(sb, req.draw)) for req in pool]
        times.append(time.perf_counter() - start)
        if made != texts:
            raise RuntimeError("a regenerated instance differs from the pool's")
    probe.probe(SETUP_REPEATS)
    return sb, pool, statistics.median(times), statistics.median(probe.scale(times))


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return repr(a) == repr(b)
    return a == b


def closed_loop(sb, pool, seconds, probe=None, tracer=None):
    """Send requests back to back, cycling through ``pool``.

    With ``seconds`` None, makes exactly one pass.  Between requests,
    ``probe`` times the speed reference.  Returns the pool index and latency
    of every request, the first answer per pool entry, and the pool indices
    whose later answers differed from their first.
    """
    targets = [SOLVERS[req.kind] for req in pool]
    modules = {name: getattr(sb, name) for name, _, _ in targets}
    instances = sb.instances
    answers = [None] * len(pool)
    unstable = set()
    order, latencies = [], []
    if probe:
        for _ in range(WINDOW):
            probe.probe(0)
    deadline = None if seconds is None else time.perf_counter() + seconds
    count = 0
    while count < len(pool) or (
        deadline is not None
        and (count < MIN_REQUESTS or time.perf_counter() < deadline)
    ):
        j = count % len(pool)
        module_name, func_name, extra = targets[j]
        span = tracer.begin_request(j) if tracer else None
        start = time.perf_counter()
        try:
            inst = instances.parse_instance(pool[j].text)
            answer = getattr(modules[module_name], func_name)(inst, *extra)
        except Exception as exc:  # a failed request is counted, not fatal
            answer = exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_request(span)
        order.append(j)
        latencies.append(elapsed)
        if probe:
            probe.after_request(count + 1, elapsed)
        if count < len(pool):
            answers[j] = answer
        elif not _same(answer, answers[j]):
            unstable.add(j)
        count += 1
    return order, latencies, answers, unstable


def warm_up(sb, pool):
    """One untimed request of each kind, so lazy set-up is not timed."""
    seen = set()
    for req in pool:
        if req.kind not in seen:
            seen.add(req.kind)
            closed_loop(sb, [req], None)


def price_total(inst) -> int:
    """P: the sum of each voter's largest finite price, the price of
    shifting the preferred candidate as far up as can be bought everywhere."""
    return sum(cf.prices[cf.max_reachable - 1] for cf in inst.costs if cf.max_reachable)


def scoring_sizes(sb, inst):
    """(P, G): the price total and the sum of each voter's largest gain."""
    G = sum(sb.gain(inst, i, cf.max_reachable) for i, cf in enumerate(inst.costs))
    return price_total(inst), G


def request_rows(sb, pool, answers, order, latencies):
    """Per-request record: kind, sizes, P and G or shift vectors, cost and
    median latency."""
    by_index = {}
    for j, lat in zip(order, latencies):
        by_index.setdefault(j, []).append(lat)
    rows = []
    for j, req in enumerate(pool):
        inst = sb.parse_instance(req.text)
        row = {"kind": req.kind, "family": req.draw.family, "anchor": req.anchor, **req.sizes}
        if isinstance(inst.rule, sb.ScoringRule):
            row["P"], row["G"] = scoring_sizes(sb, inst)
        row["vectors"] = shift_vectors(inst)
        answer = answers[j]
        row["cost"] = None if isinstance(answer, BaseException) else answer[0]
        row["cost_share"] = (row["cost"] or 0) / max(1, price_total(inst))
        row["ms"] = 1000 * statistics.median(by_index[j])
        rows.append(row)
    return rows


def properties(rows) -> dict:
    props = {"requests": {}}
    for row in rows:
        props["requests"][row["kind"]] = props["requests"].get(row["kind"], 0) + 1
    scoring = [r for r in rows if "P" in r]
    if scoring:
        props["share_P_gt_G"] = sum(r["P"] > r["G"] for r in scoring) / len(scoring)
        props["max_P"] = max(r["P"] for r in scoring)
        props["max_G"] = max(r["G"] for r in scoring)
    exact = [r["vectors"] for r in rows if r["kind"] == "exact"]
    if exact:
        props["max_vectors"] = max(exact)
        props["median_vectors"] = statistics.median(exact)
    return props


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def buy_ns_per_cell(sb, pool) -> float:
    """Kernel probe: median time of ``buy(inst, P)`` per nominal DP cell
    (n + 1)(P + 1), over the pool's scoring instances."""
    probes = []
    for req in pool:
        inst = sb.parse_instance(req.text)
        if not isinstance(inst.rule, sb.ScoringRule):
            continue
        P = price_total(inst)
        start = time.perf_counter_ns()
        sb.scoring_solvers.buy(inst, P)
        elapsed = time.perf_counter_ns() - start
        probes.append(elapsed / ((inst.num_voters + 1) * (P + 1)))
    return statistics.median(probes) if probes else 0.0


def wasted_cover_frac(sb, tracer) -> float:
    """Share of greedy-cover calls whose targets gave no winning action."""
    if not tracer.outcomes:
        return 0.0
    wasted = 0
    for (inst, _targets), outcome in tracer.outcomes.values():
        if isinstance(outcome, BaseException) or not sb.is_successful(inst, outcome):
            wasted += 1
    return wasted / len(tracer.outcomes)


def per_layer(sb, pool, tracer, untraced_s: float, traced_s: float, names) -> dict:
    totals = tracer.layer_totals()
    values = {}
    for metric in names:
        layer, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s") and layer in totals:
            calls, self_s = totals[layer]
            values[metric] = calls if stat == "calls" else self_s
    values["scoring_solvers.buy.ns_per_cell"] = buy_ns_per_cell(sb, pool)
    values["condorcet_solvers.cover_targets_greedy.infeasible_frac"] = wasted_cover_frac(
        sb, tracer
    )
    vectors = sum(
        shift_vectors(sb.parse_instance(req.text)) for req in pool if req.kind == "exact"
    )
    exact_self_s = totals["oracle.exact_shift_opt"][1]
    values["oracle.ns_per_vector"] = exact_self_s * 1e9 / vectors if vectors else 0.0
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["trace.covered_frac"] = tracer.covered_frac()
    return values


def b_guesses(tracer, pool) -> dict:
    """Guesses per B/Bw solve: rebases made directly by solve_bootstrap."""
    counts = tracer.children_of("scoring_solvers.solve_bootstrap", "bribery.rebase")
    per_solve = [counts.get(j, 0) for j, req in enumerate(pool) if req.kind in ("B", "Bw")]
    if not per_solve:
        return {}
    return {
        "B_guesses_mean": statistics.mean(per_solve),
        "B_guesses_max": max(per_solve),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiftbribe" / "__init__.py").is_file():
        print(f"error: no shiftbribe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    end_to_end_units, per_layer_units = metric_units()
    sb, pool, raw_setup_s, setup_s = setup(args.workload, args.seed)
    warm_up(sb, pool)

    tracer = None
    probe = SpeedProbe()
    if args.trace:
        order, latencies, answers, unstable = closed_loop(sb, pool, None, probe)
        scaled = probe.scale(latencies)
        tracer = Tracer()
        tracer.install(sb)
        try:
            t_probe = SpeedProbe()
            t_order, t_latencies, t_answers, t_unstable = closed_loop(
                sb, pool, None, t_probe, tracer
            )
        finally:
            tracer.uninstall()
        unstable |= t_unstable
        unstable |= {j for j in range(len(pool)) if not _same(answers[j], t_answers[j])}
        untraced_s, traced_s = sum(scaled), sum(t_probe.scale(t_latencies))
        rows = request_rows(sb, pool, answers, order, latencies)
        order += t_order
        latencies += t_latencies
    else:
        order, latencies, answers, unstable = closed_loop(sb, pool, args.seconds, probe)
        scaled = probe.scale(latencies)
        rows = request_rows(sb, pool, answers, order, latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = {}
    for j, req in enumerate(pool):
        reason = check_answer(sb, req, answers[j])
        if reason is None and j in unstable:
            reason = "answer changed between repeats"
        if reason is not None:
            problems[j] = reason
    failed = sum(1 for j in order if j in problems)
    attempted = len(order)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": attempted,
        "passes": attempted / len(pool),
        "failed_frac": failed / attempted,
        "answers_sha": answers_sha(pool, answers),
        "cost_total": sum(r["cost"] or 0 for r in rows),
        "properties": properties(rows),
        "problems": {str(j): reason for j, reason in sorted(problems.items())[:10]},
        "reference_ms": 1000 * statistics.median(probe.durations),
        "raw": {
            "solves_per_s": (attempted - failed) / sum(latencies),
            "solve_ms_p50": 1000 * statistics.median(latencies),
            "solve_ms_p90": 1000 * percentile(latencies, 0.9),
            "setup_s": raw_setup_s,
        },
    }

    if args.trace:
        values = per_layer(sb, pool, tracer, untraced_s, traced_s, per_layer_units)
        units = per_layer_units
        info["properties"].update(b_guesses(tracer, pool))
    else:
        values = {
            "solves_per_s": (attempted - failed) / sum(scaled),
            "solve_ms_p50": 1000 * statistics.median(scaled),
            "solve_ms_p90": 1000 * percentile(scaled, 0.9),
            "cost_share": statistics.mean(r["cost_share"] for r in rows if r["anchor"]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = end_to_end_units

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**info, "result": result, "rows": rows}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(stem.with_suffix(".npz"))

    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
