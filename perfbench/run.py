"""Benchmark entry point: one workload, end-to-end or traced, one result line.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 25] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, both modes

Every run happens in fresh interpreters (perfbench/worker.py). With
``--trace 0`` one worker measures the workload for ``--seconds`` with tracing
off and two more only set up, so ``setup_s`` is a median of three. With
``--trace 1`` one worker alternates traced and untraced runs and reports the
per-layer metrics; its spans go to perfbench/results/<workload>-seed<n>-spans.jsonl.
Each metric is printed as ``name = value unit``; the full record (provenance,
digests, per-run figures) is written to perfbench/results/ and the last line
of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402

WORKLOAD_NAMES = ("cutoff-flr", "dd-pinsker-flr", "cli-gaussian")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
SELF_SUM_SHARE = 0.05   # self times must cover the traced wall time to within 5%

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {name: unit for name, _, _, unit in LAYER_METRICS}
PER_LAYER_UNITS.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                        "trace.overhead_s": "s", "trace.self_sum_s": "s"})


def spawn(workload: str, seed: int, seconds: float, mode: str, index: int,
          extra=()) -> dict:
    """Run one worker to completion; returns its protocol objects and set-up time."""
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    events = {}
    for line in proc.stdout.splitlines():
        if line.startswith('{"event"'):
            obj = json.loads(line)
            events[obj["event"]] = obj
    if proc.returncode != 0 or "ready" not in events:
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    events["setup_s"] = events["ready"]["at"] - started
    return events


def git_state() -> dict:
    """SHA and dirty flag of the checkout; null when it is not a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"sha": None, "dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except OSError:
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def count_ops(runs) -> tuple:
    ops = [o for run in runs for o in run["ops"]]
    return len(ops), sum(1 for o in ops if o["error"])


def measure(workload: str, seed: int, seconds: float) -> dict:
    main = spawn(workload, seed, seconds, "measure", 0)
    setups = [main["setup_s"]] + [spawn(workload, seed, seconds, "setup", i)["setup_s"]
                                  for i in range(1, SETUP_SAMPLES)]
    runs = main["done"]["runs"]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": main["done"]["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {"metrics": metrics, "runs": runs, "setup_samples": setups,
            "provenance": main["ready"]["provenance"], "problems": []}


def result_path(workload: str, seed: int, suffix: str) -> Path:
    RESULTS.mkdir(exist_ok=True)
    return RESULTS / f"{workload}-seed{seed}-{suffix}"


def trace(workload: str, seed: int, seconds: float) -> dict:
    spans = result_path(workload, seed, "spans.jsonl")
    worker = spawn(workload, seed, seconds, "trace", 0, ["--spans", str(spans)])
    traced, untraced = worker["done"]["traced"], worker["done"]["runs"]
    layers = [t["layers"] for t in traced]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name, _, _, _ in LAYER_METRICS}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": statistics.median(layer["trace.self_sum_s"] for layer in layers),
    })
    problems = []
    threads = worker["done"]["threads"]
    for t in traced:
        self_sum, wall = t["layers"]["trace.self_sum_s"], t["wall_s"]
        if not (1 - SELF_SUM_SHARE) * wall <= self_sum <= (1 + SELF_SUM_SHARE) * threads * wall:
            problems.append(f"layer self times sum to {self_sum:.4f} s, outside "
                            f"[{1 - SELF_SUM_SHARE:g}, {1 + SELF_SUM_SHARE:g} x {threads}] "
                            f"x traced wall {wall:.4f} s")
    for name in EXACT_COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            problems.append(f"{name} differs between traced runs: {sorted(values)}")
    return {"metrics": metrics, "runs": traced + untraced, "traced_runs": len(traced),
            "spans_file": str(spans.relative_to(ROOT)),
            "provenance": worker["ready"]["provenance"], "problems": problems}


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    body = (trace if traced else measure)(workload, seed, seconds)
    attempted, failed = count_ops(body["runs"])
    digests = [r["digest"] for r in body["runs"] if r["digest"]]
    correct = failed == 0 and not body["problems"]
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted,
        "runs": len(body["runs"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in body["metrics"].items()},
        "digest": digests[0] if digests else None,
        "digest_stable": len(set(digests)) <= 1,
        "problems": body["problems"],
        "op_errors": [o["error"] for r in body["runs"] for o in r["ops"] if o["error"]],
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            **body["provenance"],
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "git": git_state(),
        "per_run": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"]} for r in body["runs"]],
    }
    if traced:
        record["traced_runs"] = body["traced_runs"]
        record["spans_file"] = body["spans_file"]
    else:
        record["setup_samples"] = body["setup_samples"]
    return record


def report(record: dict) -> None:
    out = result_path(record["workload"], record["seed"], f"trace{record['trace']}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"runs={record['runs']} attempted={record['attempted']} failed={record['failed']} "
          f"fail_rate={record['fail_rate']:g} digest={record['digest']}")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)} git {json.dumps(record['git'])}")
    for problem in record["problems"] + record["op_errors"]:
        print(f"# FAILED: {problem}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in record["metrics"].items()}}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOAD_NAMES for t in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    for workload, traced in jobs:
        try:
            record = run_one(workload, args.seed, args.seconds, traced)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
