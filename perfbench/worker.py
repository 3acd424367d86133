"""One workload in a fresh interpreter.

Usage (started by run.py, one process per measurement):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --workdir DIR [--spans FILE]

Protocol: JSON objects, one per line, on standard output. The first is
``{"event": "ready", "at": <time.monotonic()>, ...}``, printed once flrlab is
imported, the inputs are built and one untimed warm-up has filled the caches;
the parent measures set-up time against it. ``measure`` and ``trace`` then
run the workload for at least ``--seconds`` and print one ``done`` object.
Output from the program under test goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "flrlab" / "__init__.py").is_file():
    sys.exit(f"no flrlab sources under {ROOT / 'src'}")   # never benchmark an installed copy
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, installed, summarize  # noqa: E402
from workloads import WORKLOADS, sha256_json  # noqa: E402

MIN_RUNS = 2          # measured runs at least, whatever --seconds says
MIN_TRACED_RUNS = 2   # exact counts are compared between two traced runs


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def execute(plan, previous=None, tracer=None, checked=True) -> dict:
    """One workload run: every op timed, then checked and digested untimed.

    An unchecked run (the warm-up, at Monte Carlo sizes too small for the
    statistical checks) fails only on an op that raises."""
    plan.prepare()
    wall = cpu = 0.0
    ops = []
    for op in plan.ops:
        error = None
        with installed(tracer) if tracer is not None else nullcontext():
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                traceback.print_exc()
                error = f"raised {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
        digest = None
        if error is None and checked:
            error = op.check(result)
            digest = op.digest(result)
            if (plan.artifacts_must_repeat and previous is not None
                    and digest != previous["ops"][len(ops)]["digest"]):
                error = error or "artifacts differ from the previous run"
        ops.append({"op": op.name, "error": error, "digest": digest})
    digests = [o["digest"] for o in ops]
    return {"wall_s": wall, "cpu_s": cpu, "ops": ops,
            "digest": sha256_json(digests) if all(digests) else None}


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": {"name": blas.get("name"),
                                                 "version": blas.get("version")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: JSON-lines file for every traced span")
    args = parser.parse_args(argv)

    protocol, sys.stdout = sys.stdout, sys.stderr

    def emit(obj):
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)   # removed by run.py when this process has ended
    workdir.mkdir(parents=True)
    warm = workload.build(args.seed, workdir, True)
    plan = workload.build(args.seed, workdir, False)
    warm_run = execute(warm, checked=False)
    warm_errors = [o["error"] for o in warm_run["ops"] if o["error"]]
    if warm_errors:
        raise RuntimeError("warm-up failed: " + "; ".join(warm_errors))
    ready_at = time.monotonic()
    emit({"event": "ready", "at": ready_at, "provenance": provenance()})
    if args.mode == "setup":
        return 0

    runs, traced = [], []
    start = time.perf_counter()
    if args.mode == "measure":
        while len(runs) < MIN_RUNS or time.perf_counter() - start < args.seconds:
            runs.append(execute(plan, runs[-1] if runs else None))
    else:
        # Traced and untraced runs alternate, so their difference is the overhead.
        tracer = Tracer(workload.name)
        spans = []
        while not (len(traced) >= MIN_TRACED_RUNS and runs
                   and time.perf_counter() - start >= args.seconds):
            if len(traced) <= len(runs):
                run = execute(plan, tracer=tracer)
                taken = tracer.take()
                run["layers"] = summarize(taken)
                spans += [{"run": len(traced), **asdict(s)} for s in taken]
                traced.append(run)
            else:
                runs.append(execute(plan))
        with open(args.spans, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    emit({"event": "done", "runs": runs, "traced": traced, "threads": workload.threads,
          "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
