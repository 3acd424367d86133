"""Config-driven experiment runner.

Subcommands
-----------
simulate     draw designs and regression responses
transform    regression data -> white-noise coefficients, plus the inverse
estimate     one fit of the selected estimator, with plan and error report
risk         MISE study with rate regression and sharp-constant ratios
equivalence  two-route distributional battery plus the perturbation study
report       merge study CSVs in the output directory into SVG plots

Exit codes: 0 success, 2 config error, 3 numerical failure. Artifacts are
deterministic given config + seed; a failed run removes its partial outputs.
Every subcommand runs with OpenBLAS held at one thread, so its artifacts do
not depend on the BLAS thread count it was started with.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .covariance import empirical_covariance
from .designs import sample_design, verify_condition_x
from .equivalence import (
    build_gram_transform,
    flr_to_whitenoise,
    simulate_flr_responses,
    whitenoise_to_flr,
)
from .errors import DegenerateDesignError
from .estimators import (
    flr_pinsker_fit,
    sample_theta,
    sharp_risk_constant,
)
from .function_space import basis_function
from .parallel import one_blas_thread
from .risk import (
    delta56_study,
    fitted_rows,
    mise_monte_carlo,
    oracle_level,
    pinsker_level,
    two_route_draws,
    two_sample_equivalence_test,
)
from .serialize import (
    design_sample_payload,
    design_spec_payload,
    read_table,
    write_design_sample,
    write_grid_function,
    write_json,
    write_responses,
    write_table,
    write_wn_coefficients,
)
from .streams import derive_rng
from .svgplot import line_plot
from . import __version__


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        with one_blas_thread():
            return _dispatch(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (DegenerateDesignError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:        # ConfigError and SpecValidationError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flrlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"flrlab {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, desc in (
        ("simulate", "draw designs and regression responses"),
        ("transform", "regression data to white-noise coefficients and back"),
        ("estimate", "single estimator fit"),
        ("risk", "Monte Carlo MISE study"),
        ("equivalence", "distributional equivalence battery"),
        ("report", "merge CSV reports into SVG plots"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=name != "report", help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--threads", type=int, default=None, help="worker threads for replications")
        p.add_argument("--out", default=None, help="output directory")
    return parser


class _Workspace:
    """Tracks written artifacts so a failing run can clean up after itself."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.created: list[Path] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.created.append(p)
        return p

    def discard_all(self) -> None:
        for p in self.created:
            p.unlink(missing_ok=True)


def _dispatch(args) -> int:
    if args.command == "report":
        out = Path(args.out or ".")
        return _cmd_report(out)
    # replace re-runs the run record's checks, so an override obeys its key's rule
    overrides = {"seed": args.seed, "threads": args.threads}
    cfg = replace(load_config(args.config), **{k: v for k, v in overrides.items() if v is not None})
    out = Path(args.out or cfg.out or ".")
    ws = _Workspace(out)
    try:
        handler = {
            "simulate": _cmd_simulate,
            "transform": _cmd_transform,
            "estimate": _cmd_estimate,
            "risk": _cmd_risk,
            "equivalence": _cmd_equivalence,
        }[args.command]
        handler(cfg, ws)
        return 0
    except BaseException:
        ws.discard_all()
        raise


def _meta(cfg: ExperimentConfig, extra: dict | None = None) -> dict:
    payload = {
        "config_sha256": cfg.config_sha256,
        "seed": cfg.seed,
        "version": __version__,
    }
    payload.update(extra or {})
    return payload


def _require_flr(cfg: ExperimentConfig, command: str) -> None:
    if cfg.model.kind != "flr":
        raise ConfigError(f"{command} needs model.kind = flr", cfg.source_path)


def _draw_experiment(cfg: ExperimentConfig, oracle_gamma: float | None = None):
    """(n, sample, theta, y) at the first n of the grid: the designs, theta
    and the responses, drawn from the ``design``, ``theta`` and ``noise``
    streams; ``oracle_gamma`` is the level a least-favorable theta takes."""
    model = cfg.model
    n = model.n_grid[0]
    sample = sample_design(model.design, n, derive_rng(cfg.seed, "design"))
    theta = sample_theta(model.theta_class, model.drawn_theta_mode, model.lambda_profile(),
                         model.sigma, n, derive_rng(cfg.seed, "theta"), gamma=oracle_gamma)
    y = simulate_flr_responses(sample, theta, model.sigma, derive_rng(cfg.seed, "noise"))
    return n, sample, theta, y


def _write_data(cfg: ExperimentConfig, ws: _Workspace, sample, y: np.ndarray) -> None:
    """``designs.csv``, ``responses.csv`` and, last, their ``designs.json``
    sidecar, which records the draw's provenance (``_meta``) and the digest
    of the responses' bits, so a draw that changed under one version is not
    taken for the one on disk. When the sidecar in the output directory
    already records the same provenance and the other two files exist, the
    draw is there (``simulate`` then ``transform``) and nothing is written,
    or registered with ``ws``, so a failing run keeps them. Otherwise the
    old sidecar goes first, so a partial write is never vouched for."""
    sidecar = ws.out_dir / "designs.json"
    provenance = _meta(cfg, {"responses_sha256": hashlib.sha256(y.tobytes()).hexdigest()})
    try:
        written = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        written = None
    if (isinstance(written, dict) and all(written.get(k) == v for k, v in provenance.items())
            and all((ws.out_dir / name).is_file() for name in ("designs.csv", "responses.csv"))):
        return
    sidecar.unlink(missing_ok=True)
    write_design_sample(ws.path("designs.csv"), sample)
    write_responses(ws.path("responses.csv"), y)
    write_json(ws.path("designs.json"), {**design_sample_payload(sample), **provenance})


def _cmd_simulate(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "simulate")
    n, sample, theta, y = _draw_experiment(cfg)
    _write_data(cfg, ws, sample, y)
    write_grid_function(ws.path("theta.csv"),
                        basis_function(theta, cfg.model.design.basis, cfg.model.design.grid_size))
    extra = {"n": n, "sigma": cfg.model.sigma, "design": design_spec_payload(cfg.model.design)}
    if n >= 100:
        report = verify_condition_x(sample)
        extra["condition_x"] = {
            "gram_rank": report.gram_rank,
            "full_rank": report.full_rank,
            "truncation_limited": report.truncation_limited,
            "mean_norm": report.mean_norm,
        }
    write_json(ws.path("simulate.json"), _meta(cfg, extra))


def _cmd_transform(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "transform")
    n, sample, _, y = _draw_experiment(cfg)
    cov = empirical_covariance(sample)
    transform = build_gram_transform(sample, cov)
    wn = flr_to_whitenoise(y, transform, cfg.model.sigma)
    roundtrip = whitenoise_to_flr(wn, transform)
    _write_data(cfg, ws, sample, y)
    write_wn_coefficients(ws.path("wn_coefficients.csv"), wn)
    write_responses(ws.path("responses_roundtrip.csv"), roundtrip)
    write_json(ws.path("transform.json"), _meta(cfg, {
        "n": n,
        "roundtrip_max_error": float(np.max(np.abs(y - roundtrip))),
        "orthogonality_defect": transform.orthogonality_defect,
    }))


def _cmd_estimate(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "estimate")
    model, est = cfg.model, cfg.estimator
    if est.kind == "cutoff":
        raise ConfigError("estimate supports the pinsker estimator kinds", cfg.source_path)
    oracle = oracle_level(model, model.n_grid[0])
    n, sample, theta, y = _draw_experiment(cfg, oracle[0])

    plan: dict = {"estimator": est.kind, "rho": est.rho}
    m = fitted_rows(est, n)
    train = sample.subset(slice(m, n)) if m < n else None
    gamma, weights, sel = pinsker_level(est, model, n, train, est.rho, oracle)
    if sel is not None:
        plan.update(gamma_tilde=sel.gamma_tilde, split_m=sel.split_m)
    fit_sample = sample.subset(slice(m))
    fit = flr_pinsker_fit(empirical_covariance(fit_sample), fit_sample.cross_moment(y[:m]),
                          weights, est.rho, alpha=model.alpha)
    err = fit.squared_error(theta)

    plan.update(
        gamma=gamma,
        weights=[float(w) for w in weights],
        sharp_risk=sharp_risk_constant(model.lambda_profile(), model.theta_class, model.sigma, n),
        support_cap=fit.support_cap,
        cap_binding=fit.cap_binding,
    )
    write_grid_function(ws.path("theta_hat.csv"), fit.estimate)
    write_grid_function(ws.path("theta.csv"),
                        basis_function(theta, model.design.basis, model.design.grid_size))
    write_json(ws.path("plan.json"), _meta(cfg, plan))
    write_json(ws.path("fit.json"), _meta(cfg, {"n": n, "squared_error": float(err)}))


def _cmd_risk(cfg: ExperimentConfig, ws: _Workspace) -> None:
    report = mise_monte_carlo(cfg.model, cfg.estimator, cfg.reps, cfg.seed, threads=cfg.threads)
    cols = [list(report.n_grid), list(report.mise), list(report.stderr)]
    header = ["n", "mise", "stderr"]
    if report.sharp_ratio is not None:
        header.append("ratio_sharp")
        cols.append(list(report.sharp_ratio))
    write_table(ws.path("risk.csv"), header, cols)
    write_json(ws.path("risk.json"), _meta(cfg, {
        "slope": report.slope,
        "slope_se": report.slope_se,
        "reps": report.reps,
        "estimator": report.estimator_kind,
        "model": report.model_kind,
        "worst_labels": list(report.worst_labels or ()),
    }))
    _plot_risk(dict(zip(header, cols)), ws.path)


def _cmd_equivalence(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "equivalence")
    n = cfg.model.n_grid[0]
    # the draws are freed once tested, before the perturbation study runs
    ks = two_sample_equivalence_test(
        *two_route_draws(cfg.model.design, cfg.model.theta_class, cfg.model.sigma,
                         n, cfg.draws, cfg.seed),
        cfg.level)
    write_table(ws.path("ks.csv"),
                ["coordinate", "statistic", "p_value", "reject"],
                [list(range(1, n + 1)), list(ks.statistics), list(ks.p_values),
                 [int(r) for r in ks.rejected]])
    delta = delta56_study(cfg.model.n_grid, cfg.model, cfg.reps, cfg.seed, threads=cfg.threads)
    header = ["n", "mean_sq_delta", "stderr", "tv_bound"]
    cols = [list(delta.n_grid), list(delta.mean_sq), list(delta.stderr), list(delta.tv_bounds)]
    write_table(ws.path("delta.csv"), header, cols)
    write_json(ws.path("equivalence.json"), _meta(cfg, {
        "n": n,
        "draws": cfg.draws,
        "level": cfg.level,
        "ks_rejection_rate": ks.rejection_rate,
        "delta_reps": delta.reps,
    }))
    _plot_delta(dict(zip(header, cols)), ws.path)


def _plot_risk(cols: dict, path_of) -> None:
    """MISE, and the sharp-constant ratio when present, against n, from the
    columns of ``risk.csv``; ``path_of`` maps a file name to its path."""
    line_plot(path_of("mise_vs_n.svg"), cols["n"], {"MISE": cols["mise"]},
              title="Monte Carlo MISE", xlabel="n", ylabel="MISE", logx=True, logy=True)
    if "ratio_sharp" in cols:
        line_plot(path_of("ratio_vs_n.svg"), cols["n"], {"MISE / sharp risk": cols["ratio_sharp"]},
                  title="Sharp-constant ratio", xlabel="n", ylabel="ratio", logx=True)


def _plot_delta(cols: dict, path_of) -> None:
    """The perturbation size and its TV surrogate against n, from the columns
    of ``delta.csv``; one sample size draws no plot."""
    if len(cols["n"]) >= 2:
        line_plot(path_of("delta_vs_n.svg"), cols["n"],
                  {"E||Delta||^2": cols["mean_sq_delta"], "tv bound": cols["tv_bound"]},
                  title="Perturbation decay", xlabel="n", ylabel="value", logx=True, logy=True)


def _cmd_report(out: Path) -> int:
    found = 0
    for name, plot in (("risk.csv", _plot_risk), ("delta.csv", _plot_delta)):
        if (out / name).exists():
            header, data = read_table(out / name)
            plot({col: data[:, i] for i, col in enumerate(header)}, lambda f: out / f)
            found += 1
    if found == 0:
        print("report: no risk.csv or delta.csv found", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
