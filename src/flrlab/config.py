"""Flat key-value experiment configs with one nesting level.

The format is a plain text file of ``[section]`` headers and ``key = value``
lines; ``#`` starts a comment. The parser keeps line numbers so validation
errors can point at the offending line, and unknown sections or keys are
rejected outright. The model, estimator and run records are defined here too,
each checking its own fields, so a record built by the loader, by a library
caller or by a CLI override obeys the same rules; pairings of a model and an
estimator that no study can run are rejected by
``EstimatorConfig.check_against``, which the loader and
``risk.mise_monte_carlo`` both call.

There are three estimator kinds, the three the paper's claims rest on: the
spectral cutoff (the rate), Pinsker shrinkage at the oracle level (known
design) and Pinsker shrinkage at a data-driven level (unknown design).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .designs import DEFAULT_MAX_EXPANSION, KIND_BASIS, DesignSpec
from .errors import SpecValidationError
from .estimators import (DATA_DRIVEN_MIN_N, DEFAULT_COEFF_BUDGET, ThetaClass, cutoff_split,
                         default_rho, power_lambda_profile, validate_rho)

ESTIMATOR_KINDS = ("cutoff", "pinsker-oracle", "pinsker-data-driven")
_THETA_MODES = ("boundary", "random", "least-favorable", "vertex", "worst-case")


@dataclass(frozen=True)
class ModelConfig:
    """Data-generating side of a risk study."""

    kind: str                      # "sequence" | "flr"
    alpha: float
    theta_class: ThetaClass
    theta_mode: str                # boundary|random|least-favorable|vertex|worst-case
    sigma: float
    n_grid: tuple
    design: DesignSpec | None = None

    def __post_init__(self):
        if self.kind not in ("sequence", "flr"):
            raise SpecValidationError(f"unknown model kind {self.kind!r}", "kind")
        if not (math.isfinite(self.alpha) and self.alpha >= 2.0):
            raise SpecValidationError(
                f"alpha must be finite and >= 2, got {self.alpha}", "alpha")
        if self.theta_mode not in _THETA_MODES:
            raise SpecValidationError(f"unknown theta mode {self.theta_mode!r}", "mode")
        if self.kind == "flr" and self.design is None:
            raise SpecValidationError("flr models need a design spec")
        if self.kind == "flr" and self.alpha != self.design.alpha:
            raise SpecValidationError(
                f"model alpha = {self.alpha} differs from the design's alpha = "
                f"{self.design.alpha}, which sets its spectrum", "alpha")
        if len(self.n_grid) < 1 or any(n < 2 for n in self.n_grid):
            raise SpecValidationError("n_grid must hold sample sizes >= 2", "n_grid")
        if len(set(self.n_grid)) < len(self.n_grid):
            raise SpecValidationError(f"n_grid repeats a sample size: {self.n_grid}", "n_grid")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise SpecValidationError(f"sigma must be finite and > 0, got {self.sigma}", "sigma")

    @property
    def drawn_theta_mode(self) -> str:
        """The mode of a study's one drawn theta: a worst-case study maximizes
        over a panel of test functions where it can (``risk._theta_panel``),
        and a single draw takes the boundary function."""
        return self.theta_mode if self.theta_mode != "worst-case" else "boundary"

    def lambda_profile(self):
        """k -> lambda_k, the model's true spectrum: the design's
        (``DesignSpec.lambda_profile``) for flr models, k^-alpha for the
        sequence model."""
        if self.kind == "flr":
            return self.design.lambda_profile()
        return power_lambda_profile(self.alpha)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator side of a risk study."""

    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise SpecValidationError(
                f"unknown estimator kind {self.kind!r}; choose from {ESTIMATOR_KINDS}", "kind"
            )

    def check_against(self, model: ModelConfig) -> None:
        """Reject the pairings with a model that no study can run."""
        if self.kind == "pinsker-data-driven" and model.kind == "sequence":
            raise SpecValidationError("pinsker-data-driven needs designs: use model.kind = flr",
                                      "kind")
        if self.kind == "pinsker-data-driven" and min(model.n_grid) < DATA_DRIVEN_MIN_N:
            raise SpecValidationError(
                f"pinsker-data-driven needs every n >= {DATA_DRIVEN_MIN_N} so both split "
                f"halves are nonempty, got {min(model.n_grid)}", "n_grid")
        if self.kind == "cutoff" and model.kind == "flr":
            n = max(model.n_grid)
            m, k = cutoff_split(n, model.alpha, model.theta_class.beta)
            j = model.design.resolved_truncation(m)
            if k > j:
                raise SpecValidationError(
                    f"the cutoff fit at n = {n} reads k = {k} coordinates of its m = {m} "
                    f"designs, but they have J = {j}: set j_truncation >= {k} or lower the "
                    f"largest n", "j_truncation")


class ConfigError(ValueError):
    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if line is not None else (f"{path}: " if path else "")
        super().__init__(where + message)


def _parse_flat(text: str, path: str) -> tuple[dict, dict]:
    """(sections -> {key: (value string, line number)}, sections -> header line)"""
    sections: dict = {}
    headers: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", path, lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", path, lineno)
            sections[name] = {}
            headers[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path, lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", path, lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", path, lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", path, lineno)
        sections[current][key] = (value, lineno)
    return sections, headers


def _int_list(v: str) -> tuple:
    return tuple(int(s.strip()) for s in v.split(",") if s.strip())


_SCHEMA = {
    "design": {
        "kind": str,
        "alpha": float,
        "j_truncation": int,
        "grid_size": int,
    },
    "theta": {
        "beta": float,
        "c_theta": float,
        "mode": str,
    },
    "model": {
        "kind": str,
        "sigma": float,
        "n_grid": _int_list,
    },
    "estimator": {
        "kind": str,
        "rho": float,
    },
    "run": {
        "reps": int,
        "seed": int,
        "out": str,
        "threads": int,
        "draws": int,
        "level": float,
    },
}

_REQUIRED = {
    "theta": ("beta", "c_theta"),
    "model": ("sigma", "n_grid"),
    "run": ("seed",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: model, estimator, and run parameters."""

    model: ModelConfig
    estimator: EstimatorConfig
    reps: int
    seed: int
    out: str | None
    threads: int
    draws: int
    level: float
    config_sha256: str
    source_path: str

    def __post_init__(self):
        for key, ok, rule in (
            ("reps", self.reps >= 2, ">= 2"),
            ("seed", self.seed >= 0, ">= 0"),
            ("threads", self.threads >= 1, ">= 1"),
            ("draws", self.draws >= 2, ">= 2"),
            ("level", 0.0 < self.level < 1.0, "in (0, 1)"),
        ):
            if not ok:
                raise SpecValidationError(
                    f"run.{key} must be {rule}, got {getattr(self, key)}", key)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    sections, headers = _parse_flat(text, str(path))

    def line_of(section: str, key: str | None = None) -> int | None:
        """Line of the key, else of its section header; None without the section."""
        entries = sections.get(section, {})
        return entries[key][1] if key in entries else headers.get(section)

    @contextmanager
    def rejecting_in(*names: str):
        """Report a record's validation error at the line of the rejected key,
        in the first of the sections that sets it (else the first's header)."""
        try:
            yield
        except SpecValidationError as exc:
            section = next((s for s in names if exc.field in sections.get(s, {})), names[0])
            raise ConfigError(str(exc), str(path), line_of(section, exc.field)) from None

    values: dict = {}
    for name, entries in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]", str(path), headers[name])
        values[name] = {}
        for key, (raw, lineno) in entries.items():
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]", str(path), lineno)
            try:
                values[name][key] = _SCHEMA[name][key](raw)
            except ValueError:
                raise ConfigError(f"bad value for {key!r}: {raw!r}", str(path), lineno)
    for name, keys in _REQUIRED.items():
        for key in keys:
            if key not in values.get(name, {}):
                raise ConfigError(f"missing required key {key!r} in [{name}]", str(path),
                                  line_of(name))

    def get(section, key, default=None):
        return values.get(section, {}).get(key, default)

    model_kind = get("model", "kind", "flr")
    design = None
    alpha = get("design", "alpha", 2.0)
    if model_kind == "flr":
        with rejecting_in("design"):
            design = DesignSpec(
                kind=get("design", "kind", "basis-expansion"),
                alpha=alpha,
                j_truncation=get("design", "j_truncation"),
                grid_size=get("design", "grid_size", 1024),
            )
    est_kind = get("estimator", "kind", "pinsker-oracle")
    with rejecting_in("theta"):
        theta_class = ThetaClass(beta=get("theta", "beta"), c_theta=get("theta", "c_theta"))
    # the model checks alpha, which a sequence model builds no design to
    # check, before beta is checked against it
    with rejecting_in("model", "theta", "design"):
        model = ModelConfig(
            kind=model_kind,
            alpha=alpha,
            theta_class=theta_class,
            theta_mode=get("theta", "mode", "boundary"),
            sigma=get("model", "sigma"),
            n_grid=get("model", "n_grid"),
            design=design,
        )
    with rejecting_in("theta"):
        theta_class.check_against_alpha(alpha, plug_in=est_kind == "pinsker-data-driven")
    if design is not None:
        # Every basis function in play must be resolved by the grid: on
        # basis-expansion designs every Fourier function (theta's
        # coefficients, the expansion) stays below the grid's Nyquist limit;
        # on Brownian designs theta's sine coefficients are among the first
        # grid_size - 1 sine functions, which the trapezoid rule keeps
        # orthonormal (the design takes at most those by construction).
        if design.kind == KIND_BASIS:
            need = 2 * max(DEFAULT_COEFF_BUDGET, design.j_truncation or DEFAULT_MAX_EXPANSION)
            short = (f"cannot resolve {need // 2} Fourier functions; need at least "
                     f"{need} = 2 max({DEFAULT_COEFF_BUDGET}, J)")
        else:
            need = DEFAULT_COEFF_BUDGET + 1
            short = (f"cannot resolve {DEFAULT_COEFF_BUDGET} sine functions; need at least "
                     f"{need} = {DEFAULT_COEFF_BUDGET} + 1")
        if design.grid_size < need:
            raise ConfigError(f"design.grid_size = {design.grid_size} {short}",
                              str(path), line_of("design", "grid_size"))
    rho = get("estimator", "rho")
    if rho is None and est_kind.startswith("pinsker"):
        rho = default_rho(alpha)
    with rejecting_in("estimator"):
        estimator = EstimatorConfig(kind=est_kind, rho=rho)
        if rho is not None:
            validate_rho(rho, alpha)
    with rejecting_in("estimator", "model", "design"):
        estimator.check_against(model)

    with rejecting_in("run"):
        return ExperimentConfig(
            model=model,
            estimator=estimator,
            reps=get("run", "reps", 2),
            seed=get("run", "seed"),
            out=get("run", "out"),
            threads=get("run", "threads", 1),
            draws=get("run", "draws", 2000),
            level=get("run", "level", 0.05),
            config_sha256=digest,
            source_path=str(path),
        )
