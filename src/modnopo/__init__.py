"""Simulation suite for a two-mode parametric oscillator with a modulated pump.

The package is organized around one physical pipeline:

- ``model``: parameters, pump modulation profiles, derived rates and regimes.
- ``semiclassical``: the mean-field photon-number orbit (ODE and quadrature).
- ``fluctuations``: linearized squeezed variance, minima, entanglement tests.
- ``positivep``: exact phase-space trajectory ensembles (doubled dimension).
- ``qsd``: state-diffusion trajectory ensembles in a truncated Fock space.
- ``cli``: command-line pipelines emitting CSV and gnuplot files.
"""

from .errors import (
    BelowThresholdError,
    ConvergenceError,
    CrossCheckError,
    DivergenceBudgetError,
    FockDimensionError,
    InvalidParameterError,
    TruncationError,
)
from .model import (
    CONFIG_DEFAULTS,
    DerivedParams,
    Harmonic,
    ModelParams,
    Regime,
    TabulatedPeriodic,
    config_to_params,
    derive_params,
    params_from_ratios,
    regime_classify,
)
from .semiclassical import (
    SemiclassicalTrajectory,
    asymptotic_n0,
    integrate_n0,
    periodic_steady_state,
    zero_trajectory,
)
from .fluctuations import (
    EPR_BOUND,
    INSEPARABILITY_BOUND,
    VALIDITY_MARGIN,
    CriteriaReport,
    SweepCell,
    VarianceTrajectory,
    VminResult,
    asymptotic_variance,
    classify_entanglement,
    find_vmin,
    integrate_variance,
    linearization_validity,
    sweep_vmin,
)
from .positivep import (
    EnsembleMoments,
    MomentResidualReport,
    check_moment_equations,
    simulate_ensemble,
)
from .qsd import (
    OperatorSet,
    QsdEnsemble,
    build_operators,
    simulate_qsd_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "BelowThresholdError",
    "ConvergenceError",
    "CrossCheckError",
    "DivergenceBudgetError",
    "FockDimensionError",
    "InvalidParameterError",
    "TruncationError",
    "CONFIG_DEFAULTS",
    "DerivedParams",
    "Harmonic",
    "ModelParams",
    "Regime",
    "TabulatedPeriodic",
    "config_to_params",
    "derive_params",
    "params_from_ratios",
    "regime_classify",
    "SemiclassicalTrajectory",
    "asymptotic_n0",
    "integrate_n0",
    "periodic_steady_state",
    "zero_trajectory",
    "EPR_BOUND",
    "INSEPARABILITY_BOUND",
    "VALIDITY_MARGIN",
    "CriteriaReport",
    "SweepCell",
    "VarianceTrajectory",
    "VminResult",
    "asymptotic_variance",
    "classify_entanglement",
    "find_vmin",
    "integrate_variance",
    "linearization_validity",
    "sweep_vmin",
    "EnsembleMoments",
    "MomentResidualReport",
    "check_moment_equations",
    "simulate_ensemble",
    "OperatorSet",
    "QsdEnsemble",
    "build_operators",
    "simulate_qsd_ensemble",
    "__version__",
]
