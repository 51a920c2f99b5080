"""The package's public surface: a name added to or dropped from qpecf.__all__ fails here."""

import qpecf

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(qpecf.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in qpecf.__all__:
        assert getattr(qpecf, name, None) is not None, name
