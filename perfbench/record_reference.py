"""Record the reference output digests that run.py compares against.

    python3 perfbench/record_reference.py --seeds 0-19

Runs every job of every workload once per seed, refuses to record an
output that fails its independent checks, and rewrites
perfbench/reference.json.  Re-record only when a change is meant to
alter the program's output; a changed digest otherwise means a bug.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
from run import HERE, OUT, SRC

sys.path.insert(0, str(SRC))
os.environ.update(run.child_env())  # the cli jobs start fedosov processes

import inputs  # noqa: E402
import jobs  # noqa: E402
import worker  # noqa: E402


def record(workload: str, seed: int) -> dict:
    data = inputs.make(workload, seed)
    workdir = OUT / f"record-{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "cli":
            run.write_manifests(workdir, data)
        wl = jobs.WORKLOADS[workload](data, str(workdir))
        verifier = worker.Verifier(wl)
        for case in wl.cases:
            verifier.verify(case, wl.run(case))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if verifier.problems:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(verifier.problems))
    return verifier.digests()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    table = {
        w: {str(s): record(w, s) for s in range(lo, hi + 1)} for w in inputs.WORKLOADS
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
