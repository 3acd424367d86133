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
"""

from __future__ import annotations

import argparse
import sys
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
from .errors import DegenerateDesignError, SpecValidationError
from .estimators import (
    data_driven_gamma,
    flr_pinsker_fit,
    pinsker_gamma_oracle,
    pinsker_weights,
    power_lambda_profile,
    sample_theta,
    sharp_risk_constant,
)
from .function_space import fourier_function, norm
from .risk import delta56_study, mise_monte_carlo, two_route_draws, two_sample_equivalence_test
from .serialize import (
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
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SpecValidationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateDesignError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = _override(cfg, seed=args.seed)
    if args.threads is not None:
        cfg = _override(cfg, threads=args.threads)
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


def _override(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    from dataclasses import replace

    return replace(cfg, **changes)


def _meta(cfg: ExperimentConfig, extra: dict | None = None) -> dict:
    payload = {
        "config_sha256": cfg.config_sha256,
        "seed": cfg.seed,
        "version": __version__,
    }
    payload.update(extra or {})
    return payload


def _theta_for(cfg: ExperimentConfig, n: int, oracle_gamma: float | None = None) -> np.ndarray:
    mode = cfg.model.theta_mode if cfg.model.theta_mode != "worst-case" else "boundary"
    return sample_theta(
        cfg.model.theta_class, mode,
        power_lambda_profile(cfg.model.alpha),
        cfg.model.sigma, n, derive_rng(cfg.seed, "theta"),
        count=cfg.model.coeff_budget, gamma=oracle_gamma,
    )


def _require_flr(cfg: ExperimentConfig, command: str) -> None:
    if cfg.model.kind != "flr":
        raise ConfigError(f"{command} needs model.kind = flr", cfg.source_path)


def _cmd_simulate(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "simulate")
    n = cfg.model.n_grid[0]
    sample = sample_design(cfg.model.design, n, derive_rng(cfg.seed, "design"))
    theta = _theta_for(cfg, n)
    theta_grid = fourier_function(theta, cfg.model.design.grid_size)
    y = simulate_flr_responses(sample, theta, cfg.model.sigma, derive_rng(cfg.seed, "noise"))
    write_design_sample(ws.path("designs.csv"), sample, ws.path("designs.json"))
    write_responses(ws.path("responses.csv"), y)
    write_grid_function(ws.path("theta.csv"), theta_grid)
    extra = {"n": n, "sigma": cfg.model.sigma, "design": design_spec_payload(cfg.model.design)}
    if n >= 100:
        report = verify_condition_x(cfg.model.design, sample)
        extra["condition_x"] = {
            "gram_rank": report.gram_rank,
            "full_rank": report.full_rank,
            "truncation_limited": report.truncation_limited,
            "mean_norm": report.mean_norm,
        }
    write_json(ws.path("simulate.json"), _meta(cfg, extra))


def _cmd_transform(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "transform")
    n = cfg.model.n_grid[0]
    sample = sample_design(cfg.model.design, n, derive_rng(cfg.seed, "design"))
    theta = _theta_for(cfg, n)
    y = simulate_flr_responses(sample, theta, cfg.model.sigma, derive_rng(cfg.seed, "noise"))
    cov = empirical_covariance(sample)
    transform = build_gram_transform(sample, cov)
    wn = flr_to_whitenoise(y, transform, cfg.model.sigma)
    roundtrip = whitenoise_to_flr(wn, transform)
    write_design_sample(ws.path("designs.csv"), sample, ws.path("designs.json"))
    write_responses(ws.path("responses.csv"), y)
    write_wn_coefficients(ws.path("wn_coefficients.csv"), wn)
    write_responses(ws.path("responses_roundtrip.csv"), roundtrip)
    write_json(ws.path("transform.json"), _meta(cfg, {
        "n": n,
        "roundtrip_max_error": float(np.max(np.abs(y - roundtrip))),
        "orthogonality_defect": float(np.max(np.abs(transform.a.T @ transform.a - np.eye(n)))),
    }))


def _cmd_estimate(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "estimate")
    n = cfg.model.n_grid[0]
    model, est = cfg.model, cfg.estimator
    lam = power_lambda_profile(model.alpha)
    oracle_gamma = pinsker_gamma_oracle(lam, model.theta_class, model.sigma, n)
    sample = sample_design(model.design, n, derive_rng(cfg.seed, "design"))
    theta = _theta_for(cfg, n, oracle_gamma)
    theta_grid = fourier_function(theta, model.design.grid_size)
    y = simulate_flr_responses(sample, theta, model.sigma, derive_rng(cfg.seed, "noise"))

    rho = est.rho
    plan: dict = {"estimator": est.kind, "rho": rho}
    if est.kind == "pinsker-data-driven":
        sel = data_driven_gamma(sample, model.theta_class, model.sigma, rho, alpha=model.alpha)
        gamma = sel.gamma_hat
        fit_sample, fit_y = sample.subset(slice(sel.split_m)), y[: sel.split_m]
        plan.update(gamma_tilde=sel.gamma_tilde, split_m=sel.split_m)
    elif est.kind in ("pinsker-oracle", "pinsker-fixed"):
        gamma = oracle_gamma if est.gamma is None else est.gamma
        fit_sample, fit_y = sample, y
    else:
        raise ConfigError("estimate supports the pinsker estimator kinds", cfg.source_path)
    weights = pinsker_weights(gamma, model.theta_class)
    fit = flr_pinsker_fit(fit_sample, fit_y, weights, rho, alpha=model.alpha)
    err = norm(fit.estimate - theta_grid, 2) ** 2

    plan.update(
        gamma=gamma,
        weights=[float(w) for w in weights],
        sharp_risk=sharp_risk_constant(lam, model.theta_class, model.sigma, n, gamma=oracle_gamma),
        support_cap=fit.support_cap,
        cap_binding=fit.cap_binding,
    )
    write_grid_function(ws.path("theta_hat.csv"), fit.estimate)
    write_grid_function(ws.path("theta.csv"), theta_grid)
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
    line_plot(ws.path("mise_vs_n.svg"), report.n_grid, {"MISE": report.mise},
              title="Monte Carlo MISE", xlabel="n", ylabel="MISE", logx=True, logy=True)
    if report.sharp_ratio is not None:
        line_plot(ws.path("ratio_vs_n.svg"), report.n_grid,
                  {"MISE / sharp risk": report.sharp_ratio},
                  title="Sharp-constant ratio", xlabel="n", ylabel="ratio", logx=True)


def _cmd_equivalence(cfg: ExperimentConfig, ws: _Workspace) -> None:
    _require_flr(cfg, "equivalence")
    n = cfg.model.n_grid[0]
    a, b = two_route_draws(cfg.model.design, cfg.model.theta_class, cfg.model.sigma,
                           n, cfg.draws, cfg.seed)
    ks = two_sample_equivalence_test(a, b, cfg.level)
    write_table(ws.path("ks.csv"),
                ["coordinate", "statistic", "p_value", "reject"],
                [list(range(1, n + 1)), list(ks.statistics), list(ks.p_values),
                 [int(r) for r in ks.rejected]])
    delta = delta56_study(cfg.model.n_grid, cfg.model, cfg.reps, cfg.seed, threads=cfg.threads)
    write_table(ws.path("delta.csv"),
                ["n", "mean_sq_delta", "stderr", "tv_bound"],
                [list(delta.n_grid), list(delta.mean_sq), list(delta.stderr),
                 list(delta.tv_bounds)])
    write_json(ws.path("equivalence.json"), _meta(cfg, {
        "n": n,
        "draws": cfg.draws,
        "level": cfg.level,
        "ks_rejection_rate": ks.rejection_rate,
        "delta_reps": delta.reps,
    }))
    if len(delta.n_grid) >= 2:
        line_plot(ws.path("delta_vs_n.svg"), delta.n_grid,
                  {"E||Delta||^2": delta.mean_sq, "tv bound": delta.tv_bounds},
                  title="Perturbation decay", xlabel="n", ylabel="value", logx=True, logy=True)


def _cmd_report(out: Path) -> int:
    found = 0
    risk_csv = out / "risk.csv"
    if risk_csv.exists():
        header, data = read_table(risk_csv)
        cols = {name: data[:, i] for i, name in enumerate(header)}
        line_plot(out / "mise_vs_n.svg", cols["n"], {"MISE": cols["mise"]},
                  title="Monte Carlo MISE", xlabel="n", ylabel="MISE", logx=True, logy=True)
        if "ratio_sharp" in cols:
            line_plot(out / "ratio_vs_n.svg", cols["n"], {"MISE / sharp risk": cols["ratio_sharp"]},
                      title="Sharp-constant ratio", xlabel="n", ylabel="ratio", logx=True)
        found += 1
    delta_csv = out / "delta.csv"
    if delta_csv.exists():
        header, data = read_table(delta_csv)
        cols = {name: data[:, i] for i, name in enumerate(header)}
        if data.shape[0] >= 2:
            line_plot(out / "delta_vs_n.svg", cols["n"],
                      {"E||Delta||^2": cols["mean_sq_delta"], "tv bound": cols["tv_bound"]},
                      title="Perturbation decay", xlabel="n", ylabel="value", logx=True, logy=True)
        found += 1
    if found == 0:
        print("report: no risk.csv or delta.csv found", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
