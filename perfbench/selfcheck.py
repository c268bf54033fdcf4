#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workloads scoring-dp,...] [--seed 1]

For each workload: two traced runs with the same seed must give identical
``calls`` counts and an identical answers digest; an untraced run with
another seed must be correct with no failed request.
"""

import argparse
import json
import sys

from report import ROOT, run_workload
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True

    def report(passed: bool, what: str):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}", flush=True)

    for workload in args.workloads.split(","):
        info_a, traced_a = run_workload(workload, args.seed, seconds, 1)
        info_b, traced_b = run_workload(workload, args.seed, seconds, 1)
        calls_a = {k: v["value"] for k, v in traced_a["metrics"].items() if k.endswith(".calls")}
        calls_b = {k: v["value"] for k, v in traced_b["metrics"].items() if k.endswith(".calls")}
        report(calls_a == calls_b, f"{workload}: calls repeat exactly across two traced runs")
        report(info_a["answers_sha"] == info_b["answers_sha"],
               f"{workload}: answers_sha repeats ({info_a['answers_sha']})")
        report(traced_a["correct"] and traced_a["failed"] == 0, f"{workload}: traced run correct")

        info_c, plain = run_workload(workload, args.seed + 1, seconds, 0)
        report(plain["correct"] and info_c["failed_frac"] == 0,
               f"{workload}: seed {args.seed + 1} correct, failed_frac {info_c['failed_frac']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
