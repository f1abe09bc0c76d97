"""Measure the baseline: run sets, their spread, and a determinism check.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For each workload: one untraced run per seed, then the median, quartiles and
spread (quartile distance / median, as statistics.quantiles(n=4) gives
them) of every end-to-end metric; then two traced runs with the first seed,
whose per-layer metrics are reported (medians of the two) and whose exact
per-op records (report hashes and counters) must be identical; exits 1 if
they are not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int, record: Path) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    records = run.RUNS / "baseline"
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    doc = {"environment": {**run.environment(), "git_commit": commit}, "seconds": args.seconds,
           "seeds": args.seeds, "workloads": {}}
    for name in args.workloads:
        results = [bench(name, s, args.seconds, 0, records / f"{name}-{s}.json")
                   for s in args.seeds]
        traced = [bench(name, args.seeds[0], args.seconds, 1,
                        records / f"{name}-{args.seeds[0]}-trace{k}.json") for k in (0, 1)]
        exact = [[op["exact"] for op in json.loads(
            (records / f"{name}-{args.seeds[0]}-trace{k}.json").read_text())["ops"]]
            for k in (0, 1)]
        metrics = results[0]["metrics"]
        doc["workloads"][name] = {
            "why": why[name],
            "ops_per_run": results[0]["attempted"],
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "run_s": summary([r["run_s"] for r in results]),
            "end_to_end": {
                k: {"unit": metrics[k]["unit"],
                    **summary([r["metrics"][k]["value"] for r in results])}
                for k in metrics
            },
            "per_layer": {
                k: {"unit": v["unit"],
                    "value": statistics.median(t["metrics"][k]["value"] for t in traced)}
                for k, v in traced[0]["metrics"].items()
            },
            "determinism": {"seed": args.seeds[0], "ops": len(exact[0]),
                            "identical": exact[0] == exact[1], "exact": exact[0]},
        }
        print(json.dumps({name: doc["workloads"][name]["end_to_end"]}), flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    bad = [n for n, w in doc["workloads"].items() if not w["determinism"]["identical"]]
    if bad:
        print(f"not deterministic: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
