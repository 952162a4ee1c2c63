"""Benchmark runner for fedosov.

    python3 perfbench/run.py --workload certify2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the package is imported from the src/ directory next
to perfbench/, never from an installed copy.  Each workload is a closed
loop: one researcher runs one job at a time and waits for it.

--trace 0 reports the end-to-end metrics: one workload process runs
whole rounds of the job list for --seconds, and at evenly spaced moments
of that run it waits while another start of the workload process is
timed, so that the setup_s samples are spread over the run like the
jobs are.  --trace 1 runs set-up plus the job list once per pass,
alternating untraced and traced passes, and reports the per-layer
metrics.  Either way the last line of output is one JSON object.

Outputs are verified outside the timed region: against digests recorded
in reference.json for the seeds it holds, and by independent checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_STARTS = 21  # process starts per run that sample setup_s
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment in which child processes import fedosov from SRC."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def _start_worker(request_path: Path, stdin=subprocess.DEVNULL):
    """Start a workload process; returns (process, seconds until 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(request_path)],
        stdin=stdin, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT),
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish_worker(proc)
        raise BenchError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, setup


def _finish_worker(proc) -> str:
    """Wait for the process; returns the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return out


def write_manifests(workdir: Path, data):
    for name, obj in data["manifests"].items():
        (workdir / name).write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")


def _reference(workload: str, seed: int):
    path = HERE / "reference.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return table.get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object that run.py prints last."""
    data = inputs.make(workload, seed)
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "cli":
            write_manifests(workdir, data)
        request = {
            "workload": workload, "seed": seed, "seconds": seconds, "inputs": data,
            "workdir": str(workdir), "reference": _reference(workload, seed),
            "spans_path": str(OUT / f"spans-{workload}-seed{seed}.jsonl"),
        }
        paths = {}
        for mode in ("setup", "trace" if trace else "run"):
            paths[mode] = workdir / f"request-{mode}.json"
            paths[mode].write_text(json.dumps({**request, "mode": mode,
                                               "setup_samples": SETUP_STARTS - 1}),
                                   encoding="utf-8")
        proc, setup = _start_worker(paths["trace" if trace else "run"], subprocess.PIPE)
        setups = [setup]
        try:
            line = proc.stdout.readline()
            while line.strip() == "setup":
                sample, setup = _start_worker(paths["setup"])
                _finish_worker(sample)
                setups.append(setup)
                proc.stdin.write("go\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        out = line + _finish_worker(proc)
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("workload process printed no result")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarize(workload, result, setups, trace)


def _summarize(workload, result, setups, trace):
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"[{workload}] FAILED {problem}", file=sys.stderr)
    if trace:
        values = {name: (result["metrics"][name], unit)
                  for name, (unit, _b, _m) in metrics.PER_LAYER.items()}
        print(f"[{workload}] traced run: {result['passes']} traced passes, "
              f"{result['spans']} spans, {attempted} job outputs verified")
        for name, (value, unit) in values.items():
            print(f"  {name:45s} {value:>14.6g} {unit}")
    else:
        times = result["times"]
        if not times:
            raise BenchError("no job completed")
        jm = metrics.job_metrics(times, workload)
        values = {
            "jobs_per_s": (jm["jobs_per_s"], "1/s"),
            "job_s.p50": (jm["job_s.p50"], "s"),
            "job_s.tail": (jm["job_s.tail"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (result["maxrss_kib"] / 1024, "MiB"),
        }
        notes = {
            "jobs_per_s": f"n={len(times)} jobs",
            "job_s.p50": f"n={len(times)}",
            "job_s.tail": f"p{jm['tail_percentile']}, n={len(times)}, "
                          f"{jm['tail_beyond']} beyond it",
            "setup_s": f"median of n={len(setups)} starts spread over the run",
            "peak_rss_mib": "max RSS of " + ("the job processes" if workload == "cli"
                                            else "the workload process"),
        }
        print(f"[{workload}] {len(times)} jobs in {result['rounds']} whole rounds, "
              "closed loop, 1 client")
        for name, (value, unit) in values.items():
            print(f"  {name:14s} {value:>12.6g} {unit:4s} {notes[name]}")
        print(f"  {metrics.FAILED_FRAC:14s} {failed / attempted:>12.6g} {'':4s} "
              f"{failed} of {attempted} attempted")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "fedosov" / "__init__.py").is_file():
        print(f"error: no fedosov package under {SRC}", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
