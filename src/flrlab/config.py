"""Flat key-value experiment configs with one nesting level.

The format is a plain text file of ``[section]`` headers and ``key = value``
lines; ``#`` starts a comment. The parser keeps line numbers so validation
errors can point at the offending line, and unknown sections or keys are
rejected outright. The model and estimator records the Monte Carlo harness
consumes are defined here too, with their own validation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .designs import DesignSpec
from .errors import SpecValidationError
from .estimators import ThetaClass, default_rho

ESTIMATOR_KINDS = (
    "zero",
    "oracle",
    "cutoff",
    "pinsker-oracle",
    "pinsker-fixed",
    "pinsker-data-driven",
)


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
    coeff_budget: int = 64
    vertex_index: int | None = None

    def __post_init__(self):
        if self.kind not in ("sequence", "flr"):
            raise SpecValidationError(f"unknown model kind {self.kind!r}")
        if self.kind == "flr" and self.design is None:
            raise SpecValidationError("flr models need a design spec")
        if len(self.n_grid) < 1 or any(n < 2 for n in self.n_grid):
            raise SpecValidationError("n_grid must hold sample sizes >= 2")
        if self.sigma < 0:
            raise SpecValidationError("sigma must be >= 0")


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator side of a risk study; ``gamma`` belongs to pinsker-fixed
    alone, which requires a positive one."""

    kind: str
    rho: float | None = None
    gamma: float | None = None
    cutoff_constant: float = 1.0
    split_for_cutoff: bool = True     # cutoff estimator consumes m = n//2 draws

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise SpecValidationError(
                f"unknown estimator kind {self.kind!r}; choose from {ESTIMATOR_KINDS}"
            )
        if self.kind != "pinsker-fixed":
            if self.gamma is not None:
                raise SpecValidationError(f"gamma is set only for pinsker-fixed, not {self.kind}")
        elif self.gamma is None or not self.gamma > 0:
            raise SpecValidationError(f"pinsker-fixed needs a gamma > 0, got {self.gamma}")


class ConfigError(ValueError):
    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if line is not None else (f"{path}: " if path else "")
        super().__init__(where + message)


def _parse_flat(text: str, path: str) -> dict:
    """sections -> {key: (value string, line number)}"""
    sections: dict = {}
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
    return sections


def _float(v: str) -> float:
    return float(v)


def _int(v: str) -> int:
    return int(v)


def _str(v: str) -> str:
    return v


def _int_list(v: str) -> tuple:
    return tuple(int(s.strip()) for s in v.split(",") if s.strip())


_SCHEMA = {
    "design": {
        "kind": _str,
        "alpha": _float,
        "j_truncation": _int,
        "grid_size": _int,
    },
    "theta": {
        "beta": _float,
        "c_theta": _float,
        "mode": _str,
    },
    "model": {
        "kind": _str,
        "sigma": _float,
        "n_grid": _int_list,
        "coeff_budget": _int,
    },
    "estimator": {
        "kind": _str,
        "rho": _float,
        "gamma": _float,
        "cutoff_constant": _float,
    },
    "run": {
        "reps": _int,
        "seed": _int,
        "out": _str,
        "threads": _int,
        "draws": _int,
        "level": _float,
    },
}

_REQUIRED = {
    "theta": ("beta", "c_theta"),
    "model": ("sigma", "n_grid"),
    "run": ("seed",),
}

_THETA_MODES = ("boundary", "random", "least-favorable", "vertex", "worst-case")


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


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    sections = _parse_flat(text, str(path))

    values: dict = {}
    for name, entries in sections.items():
        if name not in _SCHEMA:
            first_line = min(ln for _, ln in entries.values()) if entries else None
            raise ConfigError(f"unknown section [{name}]", str(path), first_line)
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
                raise ConfigError(f"missing required key {key!r} in [{name}]", str(path))

    def get(section, key, default=None):
        return values.get(section, {}).get(key, default)

    try:
        model_kind = get("model", "kind", "flr")
        design = None
        if model_kind == "flr":
            design = DesignSpec(
                kind=get("design", "kind", "basis-expansion"),
                alpha=get("design", "alpha", 2.0),
                j_truncation=get("design", "j_truncation"),
                grid_size=get("design", "grid_size", 1024),
            )
            alpha = design.alpha
        else:
            alpha = get("design", "alpha", 2.0)
        theta_class = ThetaClass(beta=get("theta", "beta"), c_theta=get("theta", "c_theta"))
        est_kind = get("estimator", "kind", "pinsker-oracle")
        theta_class.check_against_alpha(alpha, plug_in=est_kind == "pinsker-data-driven")
        theta_mode = get("theta", "mode", "boundary")
        if theta_mode not in _THETA_MODES:
            raise SpecValidationError(f"unknown theta mode {theta_mode!r}")
        model = ModelConfig(
            kind=model_kind,
            alpha=alpha,
            theta_class=theta_class,
            theta_mode=theta_mode,
            sigma=get("model", "sigma"),
            n_grid=get("model", "n_grid"),
            design=design,
            coeff_budget=get("model", "coeff_budget", 64),
        )
        rho = get("estimator", "rho")
        if rho is None and est_kind.startswith("pinsker"):
            rho = default_rho(alpha)
        estimator = EstimatorConfig(
            kind=est_kind,
            rho=rho,
            gamma=get("estimator", "gamma"),
            cutoff_constant=get("estimator", "cutoff_constant", 1.0),
        )
    except SpecValidationError as exc:
        raise ConfigError(str(exc), str(path))

    reps = get("run", "reps", 2)
    threads = get("run", "threads", 1)
    level = get("run", "level", 0.05)
    if reps < 2:
        raise ConfigError("run.reps must be >= 2", str(path),
                          sections.get("run", {}).get("reps", (None, None))[1])
    if threads < 1:
        raise ConfigError("run.threads must be >= 1", str(path))
    if not 0.0 < level < 1.0:
        raise ConfigError("run.level must lie in (0, 1)", str(path))
    if not math.isfinite(model.sigma):
        raise ConfigError("model.sigma must be finite", str(path))
    return ExperimentConfig(
        model=model,
        estimator=estimator,
        reps=reps,
        seed=get("run", "seed"),
        out=get("run", "out"),
        threads=threads,
        draws=get("run", "draws", 2000),
        level=level,
        config_sha256=digest,
        source_path=str(path),
    )
