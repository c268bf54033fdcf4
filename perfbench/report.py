#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarize the spread.

    python3 perfbench/report.py                      # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10 --out perfbench/out/summary.json

Each run is a separate ``run.py`` process, one after another.  For every
workload the table gives each metric's median over the seeds, its quartiles,
and the spread: the distance between the quartiles as a share of the median,
next to the bound that ``BENCHMARK.json`` fixes for the metric.  The
unscaled timings of the info line follow, prefixed ``raw.``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """(info line, result line) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values) -> tuple:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the runs and summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            info, result = run_workload(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "info": info, "result": result})
            failed |= not result["correct"] or result["failed"] > 0
        print(f"\n{workload}: {len(runs)} run(s) of {seconds} s, samples per run "
              f"{[r['info']['samples'] for r in runs]}, answers_sha "
              f"{[r['info']['answers_sha'] for r in runs]}")
        print(f"  properties {json.dumps(runs[0]['info']['properties'])}")
        series = {name: (entry["unit"], [r["result"]["metrics"][name]["value"] for r in runs])
                  for name, entry in runs[0]["result"]["metrics"].items()}
        if not args.trace:
            for name in runs[0]["info"]["raw"]:
                unit = series[name][0]
                series[f"raw.{name}"] = (unit, [r["info"]["raw"][name] for r in runs])
        stats = {}
        for name, (unit, values) in series.items():
            med, q1, q3, rel = spread(values)
            bound = metric_spec.get(name, {}).get("bound")
            stats[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                           "spread": rel, "values": values}
            bound_text = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:56s} {med:14.6g} {unit:6s} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {rel:6.3f} {bound_text}")
        summary["workloads"][workload] = {"metrics": stats, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
