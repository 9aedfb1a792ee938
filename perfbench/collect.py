"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--seeds 31415,99991,...] [--workloads example,qp_dense]
                                 [--traced] [--out perfbench/baseline.json]

For every workload (default: all in BENCHMARK.json) and seed, runs
``run.py --trace 0`` for ``run_seconds``; with ``--traced`` also one
``--trace 1`` run on the first seed.  Prints, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to a third of the metric's bound.
``--out`` writes all of it, with the environment of the last run, as JSON.
Exits 1 if any run failed.

Repeat r of an experiment simulates with seed + r, so seeds closer together
than a workload's repeat count share most of their trajectories and
understate the spread; the default seeds lie far apart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEEDS = "104729,2718281,31415,577215,1618033,99991,4242424,7777777,123457,8675309"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=DEFAULT_SEEDS)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(name, seed, spec["run_seconds"], 0)
            ok &= result["exit"] == 0 and result["correct"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        entry = {"end_to_end": {m: spread(v) for m, v in values.items()}}
        print(f"{name}")
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound/3 {bounds[metric] / 3:.4f}){flag}")
        if args.traced:
            result = run_once(name, seeds[0], spec["run_seconds"], 1)
            ok &= result["exit"] == 0 and result["correct"]
            entry["per_layer"] = {m: v["value"] for m, v in result["metrics"].items()}
        report["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        env = json.loads((ROOT / ".perfbench" / names[-1] / "result.json").read_text())
        report["environment"] = env["environment"]
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
