"""The workload process: set up, signal readiness, run jobs, report.

Started by run.py with the path of a JSON request and the checkout's
src/ on PYTHONPATH.  It writes "ready" on stdout as soon as the set-up
is done (the end of setup_s), then one JSON line with the results.

Modes:
  setup  exit after set-up (one more setup_s sample);
  run    closed loop: whole rounds of the job list, one job at a time,
         until the time is up; at evenly spaced moments it writes
         "setup" and waits for "go" on stdin while run.py times a set-up;
  trace  alternate untraced and traced passes (set-up plus the job list
         once) and report per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback

import jobs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Decides whether each output is correct, outside the timed region.

    The first output of a job is checked independently and, for a seed
    with recorded references, against the reference digest.  Every later
    output of the same job must reproduce the first one's digest.
    """

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference or {}
        self.first: dict = {}
        self.problems: list = []

    def verify(self, case, out) -> bool:
        job_id = case[0]["id"]
        d = digest(self.workload.canonical(case, out))
        if job_id not in self.first:
            problems = self.workload.check(case, out)
            ref = self.reference.get(job_id)
            if ref is not None and ref != d:
                problems.append("digest differs from the recorded reference")
            self.first[job_id] = (d, problems)
            self.problems += [f"{job_id}: {p}" for p in problems]
            return not problems
        first, problems = self.first[job_id]
        if d != first:
            self.problems.append(f"{job_id}: output differs from its first run")
            return False
        return not problems

    def digests(self) -> dict:
        return {job_id: d for job_id, (d, _p) in self.first.items()}


def run_loop(workload, verifier, seconds, seed, pause=None, pauses=0) -> dict:
    """Closed loop over whole rounds of the job list, reshuffled each round.

    The clock is read between rounds only, so every run times whole
    rounds of the fixed job list whatever the program's speed: another
    round starts while it should end less than half a round after
    `seconds`.  pause(), if given, is called `pauses` times at evenly
    spaced moments of the run, between jobs; its time is not counted.
    """
    order_rng = random.Random(f"order/{seed}")
    times, attempted, failed, rounds = [], 0, 0, 0
    due = [seconds * (i + 0.5) / pauses for i in range(pauses)]
    paused = 0.0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - paused

    last_round = 0.0
    while rounds == 0 or elapsed() + last_round / 2 < seconds:
        round_start = elapsed()
        order = list(range(len(workload.cases)))
        order_rng.shuffle(order)
        for idx in order:
            while due and elapsed() >= due[0]:
                due.pop(0)
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
            case = workload.cases[idx]
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(case)
            except Exception:
                failed += 1
                verifier.problems.append(f"{case[0]['id']}: {traceback.format_exc()}")
                continue
            times.append(time.perf_counter() - t0)
            if not verifier.verify(case, out):
                failed += 1
        rounds += 1
        last_round = elapsed() - round_start
    for _ in due:  # a run that ended early still takes every pause
        pause()
    return {"times": times, "attempted": attempted, "failed": failed, "rounds": rounds}


def _pause_for_setup_sample():
    """Let run.py time one more set-up while this process waits."""
    print("setup", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise RuntimeError("run.py did not resume the job loop")


def _timed_pass(workload_cls, inputs, workdir, run_name, tracer=None):
    """Set-up plus every job once; returns (wall seconds, workload, [(case, out)])."""
    outputs = []
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.job = "setup"
    workload = workload_cls(inputs, workdir)
    for case in workload.cases:
        if tracer is not None:
            tracer.job = case[0]["id"]
        outputs.append((case, getattr(workload, run_name)(case)))
    return time.perf_counter() - t0, workload, outputs


def trace_loop(workload_cls, inputs, workdir, verifier, seconds, spans_path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    import tracing

    in_process = "run_in_process" if workload_cls is jobs.Cli else "run"
    tracer = tracing.Tracer()
    untraced, traced, passes, startup = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    pair_s = 0.0
    # start another untraced/traced pair only if it should end in time
    while not traced or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        wall, workload, outputs = _timed_pass(workload_cls, inputs, workdir, in_process)
        untraced.append(wall)
        for case, out in outputs:
            attempted += 1
            failed += not verifier.verify(case, out)
        if workload_cls is jobs.Cli:
            startup.append(_cli_startup(workload))

        tracer.reset_counters()
        tracer.install()
        try:
            wall, workload, outputs = _timed_pass(workload_cls, inputs, workdir, in_process, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        values = tracer.pass_metrics()
        bits = 0
        for case, out in outputs:
            attempted += 1
            failed += not verifier.verify(case, out)
            text = workload.canonical(case, out)
            bits = max([bits] + [int(n).bit_length() for n in re.findall(r"\d+", text)])
        values["scalars.coeff_bits.max"] = bits
        passes.append(values)
        pair_s = time.perf_counter() - pair_start

    counts = {k: v for k, v in passes[0].items() if not k.endswith("self_s")}
    for later in passes[1:]:
        for k, v in counts.items():
            if later[k] != v:
                verifier.problems.append(f"count {k} differs between traced passes")
                failed += 1
    metrics = dict(counts)
    for key in passes[0]:
        if key.endswith("self_s"):
            metrics[key] = statistics.median(p[key] for p in passes)
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, job in tracer.spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "job": job}) + "\n")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "passes": len(passes), "spans": len(tracer.spans)}


def _cli_startup(workload) -> float:
    """Process wall time minus in-process cli.main time over one pass."""
    total = 0.0
    for case in workload.cases:
        t0 = time.perf_counter()
        workload.run(case)
        t1 = time.perf_counter()
        workload.run_in_process(case)
        total += (t1 - t0) - (time.perf_counter() - t1)
    return total


def main(req) -> int:
    workload_cls = jobs.WORKLOADS[req["workload"]]
    workload = workload_cls(req["inputs"], req["workdir"])
    print("ready", flush=True)
    if req["mode"] == "setup":
        return 0
    verifier = Verifier(workload, req.get("reference"))
    if req["mode"] == "run":
        result = run_loop(workload, verifier, req["seconds"], req["seed"],
                          _pause_for_setup_sample, req["setup_samples"])
    else:
        result = trace_loop(workload_cls, req["inputs"], req["workdir"], verifier,
                            req["seconds"], req["spans_path"])
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(problems=verifier.problems[:20], digests=verifier.digests(),
                  maxrss_kib=usage_children if req["workload"] == "cli" else usage_self)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(main(json.load(fh)))
