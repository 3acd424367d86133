"""The three benchmark workloads.

Each workload is built from the benchmark seed into a list of operations. An
operation is one study call or one CLI subcommand; it fails if it raises,
exits non-zero, or violates its correctness check. The Monte Carlo sizes
below are the smallest at which every check holds on every seed tried while
the benchmark was written (see README.md), so a failed operation means the
program changed, not that the seed was unlucky.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Entry points are looked up on their modules at call time, so the tracer's
# wrappers (installed in flrlab's modules) see these calls.
import flrlab.cli
import flrlab.risk
from flrlab import DesignSpec, EstimatorConfig, ModelConfig, ThetaClass
from flrlab.estimators import default_rho
from flrlab.serialize import read_responses

NPROC = len(os.sched_getaffinity(0))
WARM_REPS = 2          # warm-up size: same code paths and caches, minimal Monte Carlo work

CUTOFF_REPS = 30
DD_GAMMA_REPS = 20
DD_MISE_REPS = 300     # MISE/a_n has sd ~0.15 at 60 reps; 300 puts 1.35 about 3.7 sd above its mean
CLI_REPS, CLI_DRAWS = 20, 1000

ROUNDTRIP_REL_TOL = 1e-9   # transform roundtrip error relative to max|y| (see README.md)


@dataclass
class Op:
    name: str
    run: Callable[[], object]                  # the timed call
    check: Callable[[object], str | None]      # failure message, or None when correct
    digest: Callable[[object], str]            # sha256 of the op's numbers or artifacts


@dataclass
class Plan:
    ops: list
    prepare: Callable[[], None] = lambda: None     # untimed, before every run
    artifacts_must_repeat: bool = False            # op digests must match the previous run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    build: Callable[[int, Path, bool], Plan] = field(repr=False)


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _report_digest(rep) -> str:
    return sha256_json({
        "mise": rep.mise.tolist(), "stderr": rep.stderr.tolist(),
        "slope": rep.slope, "slope_se": rep.slope_se,
        "sharp_ratio": None if rep.sharp_ratio is None else rep.sharp_ratio.tolist(),
        "worst_labels": list(rep.worst_labels or ()),
    })


# ---------------------------------------------------------------------------
# cutoff-flr: criterion 6
# ---------------------------------------------------------------------------

def _cutoff_flr(seed: int, workdir: Path, warm: bool) -> Plan:
    model = ModelConfig(kind="flr", alpha=2.0, theta_class=ThetaClass(beta=2.0, c_theta=1.0),
                        theta_mode="least-favorable", sigma=0.3,
                        n_grid=tuple(2**k for k in range(9, 15)),
                        design=DesignSpec(kind="basis-expansion", alpha=2.0))
    reps = WARM_REPS if warm else CUTOFF_REPS

    def run():
        return flrlab.risk.mise_monte_carlo(model, EstimatorConfig(kind="cutoff"), reps, seed, threads=NPROC)

    def check(rep):
        target = -4.0 / 7.0
        if abs(rep.slope - target) <= 0.15:
            return None
        return f"log-log slope {rep.slope:.4f} is more than 0.15 from {target:.4f}"

    return Plan([Op("mise_monte_carlo", run, check, _report_digest)])


# ---------------------------------------------------------------------------
# dd-pinsker-flr: criterion 7
# ---------------------------------------------------------------------------

def _dd_pinsker_flr(seed: int, workdir: Path, warm: bool) -> Plan:
    spec = DesignSpec(kind="basis-expansion", alpha=2.0)
    tc = ThetaClass(beta=4.0, c_theta=1.0)
    sigma, rho = 8.0, default_rho(2.0)
    model = ModelConfig(kind="flr", alpha=2.0, theta_class=tc, theta_mode="least-favorable",
                        sigma=sigma, n_grid=(10_000,), design=spec)
    gamma_reps = WARM_REPS if warm else DD_GAMMA_REPS
    mise_reps = WARM_REPS if warm else DD_MISE_REPS

    def gamma_study():
        return flrlab.risk.gamma_consistency_study(spec, tc, sigma, rho, (1_000, 10_000),
                                       reps=gamma_reps, seed=seed)

    def gamma_check(study):
        med = study.median_rel_error
        if med[1] < med[0] and med[1] < 0.2:
            return None
        return f"median relative errors {med[0]:.4f} -> {med[1]:.4f} (need decreasing, < 0.2)"

    def gamma_digest(study):
        return sha256_json({"median_rel_error": study.median_rel_error.tolist(),
                            "rel_errors": [e.tolist() for e in study.rel_errors],
                            "oracle_gammas": study.oracle_gammas.tolist()})

    def mise():
        return flrlab.risk.mise_monte_carlo(model, EstimatorConfig(kind="pinsker-data-driven", rho=rho),
                                mise_reps, seed)

    def mise_check(rep):
        ratio = float(rep.sharp_ratio[0])
        return None if ratio <= 1.35 else f"MISE/a_n = {ratio:.3f} > 1.35 at n = 1e4"

    return Plan([Op("gamma_consistency_study", gamma_study, gamma_check, gamma_digest),
                 Op("mise_monte_carlo", mise, mise_check, _report_digest)])


# ---------------------------------------------------------------------------
# cli-gaussian: five subcommands into one output directory
# ---------------------------------------------------------------------------

CLI_CONFIG = """\
[design]
kind = integrated-gaussian
alpha = 2.0

[theta]
beta = 2.0
c_theta = 1.0
mode = boundary

[model]
kind = flr
sigma = 1.0
n_grid = 256,512,1024

[estimator]
kind = pinsker-oracle

[run]
reps = {reps}
seed = {seed}
draws = {draws}
"""
CLI_SUBCOMMANDS = ("simulate", "transform", "estimate", "equivalence", "report")


def _file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def _cli_gaussian(seed: int, workdir: Path, warm: bool) -> Plan:
    reps, draws = (WARM_REPS, 20) if warm else (CLI_REPS, CLI_DRAWS)
    config = workdir / ("warm.ini" if warm else "gaussian.ini")
    config.write_text(CLI_CONFIG.format(reps=reps, seed=seed, draws=draws), encoding="utf-8")
    out = workdir / ("warm-out" if warm else "out")
    seen: dict = {}

    def prepare():
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        seen.clear()

    def make_run(sub):
        args = [sub, "--out", str(out)] + ([] if sub == "report" else ["--config", str(config)])
        return lambda: flrlab.cli.main(args)

    def digest(rc):
        # The op's artifacts: files it created or changed in the shared directory.
        now = _file_hashes(out)
        mine = {name: h for name, h in now.items() if seen.get(name) != h}
        seen.update(now)
        return sha256_json(mine)

    def json_of(name):
        return json.loads((out / name).read_text(encoding="utf-8"))

    def check_transform(rc):
        if rc != 0:
            return f"exit code {rc}"
        meta = json_of("transform.json")
        y_max = float(abs(read_responses(out / "responses.csv")).max())
        errors = []
        if meta["orthogonality_defect"] > 1e-8:
            errors.append(f"orthogonality defect {meta['orthogonality_defect']:.3e} > 1e-8")
        if meta["roundtrip_max_error"] > ROUNDTRIP_REL_TOL * y_max:
            errors.append(f"roundtrip error {meta['roundtrip_max_error']:.3e} > "
                          f"{ROUNDTRIP_REL_TOL:g} * max|y| = {ROUNDTRIP_REL_TOL * y_max:.3e}")
        return "; ".join(errors) or None

    def check_equivalence(rc):
        if rc != 0:
            return f"exit code {rc}"
        meta = json_of("equivalence.json")
        n = meta["n"]
        limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n)
        rate = meta["ks_rejection_rate"]
        return None if rate <= limit else f"KS rejection rate {rate:.4f} > {limit:.4f}"

    def check_exit(rc):
        return None if rc == 0 else f"exit code {rc}"

    checks = {"transform": check_transform, "equivalence": check_equivalence}
    ops = [Op(sub, make_run(sub), checks.get(sub, check_exit), digest) for sub in CLI_SUBCOMMANDS]
    return Plan(ops, prepare=prepare, artifacts_must_repeat=True)


WORKLOADS = {w.name: w for w in (
    Workload("cutoff-flr",
             "criterion 6 cutoff MISE on basis designs: design draw, coefficient Gram and eigh; "
             "the only workload on the replication thread pool (threads = nproc)",
             NPROC, _cutoff_flr),
    Workload("dd-pinsker-flr",
             "criterion 7 data-driven Pinsker: the only one that materializes a 10000 x 1024 grid "
             "and runs the plug-in fit and data-driven gamma",
             1, _dd_pinsker_flr),
    Workload("cli-gaussian",
             "five CLI subcommands on integrated-Gaussian designs: grid-only designs, dual n x n "
             "covariance, whitening transform, KS battery, about 11 MB of CSV written per run",
             1, _cli_gaussian),
)}
