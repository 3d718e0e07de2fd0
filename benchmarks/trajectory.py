"""Run the benchmark over several seeds and record one trajectory point.

    python3 benchmarks/trajectory.py --label seed --seeds 0-9

For each workload: one untraced run per seed (sequentially, one process at
a time), then one traced run at the first seed.  Prints, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median of the seeds'
values, and writes everything to ``benchmarks/results/BENCH_<label>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "provenance": record["provenance"], "inputs": record["inputs"],
            "probe_median_s": record["probe"]["median_s"]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": args.label, "seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "provenance": runs[0]["provenance"],
            "runs": [{"seed": s, "inputs": r["inputs"], "probe_median_s": r["probe_median_s"], **r["result"]}
                     for s, r in zip(seeds, runs)],
            "end_to_end": {},
        }
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = spread(values)
            s = entry["end_to_end"][name]
            print(f"{workload:15s} {name:12s} median {s['median']:10.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}", flush=True)
        entry["failed"] = sum(r["result"]["failed"] for r in runs)
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["per_layer_seed"] = seeds[0]
        point["workloads"][workload] = entry

    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
