"""Classical toolkit for phase-estimation outcome statistics.

Analytic outcome distributions for a phase-register readout, a small
statevector simulator that reproduces them, maximum-precision phase
recovery by bounded nonlinear least squares on shot histograms, and
Monte Carlo benchmarking against the Cramer-Rao limit.
"""

from .bench import (
    BenchGrid,
    BenchRecord,
    ScalingSummary,
    circular_error,
    fit_scaling_exponents,
    records_to_csv,
    run_grid,
    trial_seed,
)
from .errors import ConfigError, DomainError, FitError
from .fitting import (
    FitBounds,
    FitResult,
    fit_multi,
    fit_single,
)
from .model import OutcomeDistribution, PhaseComponent, PhaseModel, RegisterSpec
from .pmf import (
    analytic_distribution,
    circuit_depth_units,
    crlb_mse,
    fisher_information,
    pmf_single,
    pmf_vector,
    score,
)
from .simulate import (
    ShotHistogram,
    SimUnitary,
    histogram_to_probs,
    sample_shots,
    simulate_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BenchGrid",
    "BenchRecord",
    "ConfigError",
    "DomainError",
    "FitBounds",
    "FitError",
    "FitResult",
    "OutcomeDistribution",
    "PhaseComponent",
    "PhaseModel",
    "RegisterSpec",
    "ScalingSummary",
    "ShotHistogram",
    "SimUnitary",
    "analytic_distribution",
    "circuit_depth_units",
    "circular_error",
    "crlb_mse",
    "fisher_information",
    "fit_multi",
    "fit_scaling_exponents",
    "fit_single",
    "histogram_to_probs",
    "pmf_single",
    "pmf_vector",
    "records_to_csv",
    "run_grid",
    "sample_shots",
    "score",
    "simulate_distribution",
    "trial_seed",
]
