"""Functional linear regression, its white-noise twin, and sharp-minimax estimation."""

from .config import EstimatorConfig, ModelConfig
from .covariance import CovOperator, empirical_covariance, sqrt_apply
from .designs import (
    DesignSample,
    DesignSpec,
    sample_basis_design,
    sample_design,
    sample_gaussian_design,
    true_covariance,
    verify_condition_x,
)
from .equivalence import (
    GramTransform,
    WnCoefficients,
    build_gram_transform,
    conditional_loglik,
    flr_to_whitenoise,
    reduced_loglik,
    simulate_empirical_wn,
    simulate_flr_responses,
    whitenoise_to_flr,
)
from .errors import (
    DegenerateDesignError,
    DimensionError,
    ResolutionError,
    SpecValidationError,
)
from .estimators import (
    ThetaClass,
    cutoff_estimator,
    data_driven_gamma,
    data_driven_split,
    default_rho,
    flr_pinsker_estimator,
    flr_pinsker_fit,
    pinsker_gamma_oracle,
    pinsker_oracle_weights,
    pinsker_sequence_estimator,
    pinsker_weights,
    power_lambda_profile,
    sample_theta,
    select_cutoff,
    sharp_risk_constant,
)
from .function_space import Basis, GridFunction, fourier_basis
from .risk import (
    Delta56Report,
    KsReport,
    RiskReport,
    classifier_tv_proxy,
    delta56_study,
    gamma_consistency_study,
    mise_monte_carlo,
    pinsker_decomposition_draws,
    rate_regression,
    tv_bound,
    two_route_draws,
    two_sample_equivalence_test,
)
from .streams import derive_rng, derive_seed_sequence
from .whitenoise import SeqObservation, default_frequency_budget, simulate_sequence

__version__ = "0.1.0"
