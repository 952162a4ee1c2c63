"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workloads certify2d,solve --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance
as a share of the median, which must stay well inside the metric's
bound in BENCHMARK.json.  --out also records the Python version, the
processor count and the git revision measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def git_revision() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    table = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(lo, hi + 1):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} jobs failed")
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        table[workload] = {}
        for name in runs[0]:
            s = summary([r[name]["value"] for r in runs])
            s["unit"] = runs[0][name]["unit"]
            table[workload][name] = s
            bound = bounds.get(name)
            note = f" (bound {bound})" if bound else ""
            print(f"  {workload:9s} {name:42s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['iqr_share']:.3f}{note}", flush=True)

    if args.out:
        record = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_revision": git_revision(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seeds": f"{lo}-{hi}",
            "run_seconds": args.seconds,
            "trace": args.trace,
            "workloads": table,
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
