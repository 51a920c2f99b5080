"""Correctness gates that do not depend on the random stream.

Each gate compares qpecf against an exact reference: the statevector
simulator against the analytic model, zero-noise fits against the phases
that generated their exact distributions, and the summed Fisher information
against its closed form 4 pi^2 (M^2 - 1) / 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpecf import bench, fitting, pmf, simulate
from qpecf.errors import FitError
from qpecf.model import PhaseModel, RegisterSpec

from workloads import CAMPAIGN_PHASES, MIXTURES, SINGLES

SIM_TOL = 1e-12
FIT_SINGLE_TOL = 1e-9
FIT_MULTI_TOL = 1e-6
FISHER_REL_TOL = 1e-9


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str


def simulator_matches_analytic(n: int, model: PhaseModel) -> Gate:
    reg = RegisterSpec(n)
    simulated = simulate.simulate_distribution(reg, simulate.SimUnitary.from_model(model))
    analytic = pmf.analytic_distribution(reg, model)
    worst = float(np.max(np.abs(simulated.probs - analytic.probs)))
    return Gate(f"simulate_vs_analytic n={n} J={len(model.components)}", worst <= SIM_TOL,
                f"max abs diff {worst:.2e} (<= {SIM_TOL:g})")


def _phase_error(phases, truth) -> float:
    if len(phases) != len(truth):
        return math.inf
    return max(bench.circular_error(p, t) for p, t in zip(sorted(phases), sorted(truth)))


def fit_single_recovers(n: int, theta_exact: float, theta_claimed: float | None = None) -> Gate:
    """Fit the exact pmf of theta_exact; the fit must land on theta_claimed.

    theta_claimed defaults to theta_exact; the tests pass a wrong one.
    """
    claimed = theta_exact if theta_claimed is None else theta_claimed
    dist = pmf.analytic_distribution(RegisterSpec(n), PhaseModel.single(theta_exact))
    name = f"fit_single zero-noise n={n} theta={claimed:.6g}"
    try:
        err = _phase_error(fitting.fit_single(dist).phases, (claimed,))
    except FitError as exc:
        return Gate(name, False, f"FitError: {exc}")
    return Gate(name, err <= FIT_SINGLE_TOL, f"error {err:.2e} (<= {FIT_SINGLE_TOL:g})")


def fit_multi_recovers(n: int, model: PhaseModel, claimed=None) -> Gate:
    claimed = model.thetas if claimed is None else tuple(claimed)
    dist = pmf.analytic_distribution(RegisterSpec(n), model)
    name = f"fit_multi zero-noise n={n} J={len(model.components)}"
    try:
        err = _phase_error(fitting.fit_multi(dist, len(model.components)).phases, claimed)
    except FitError as exc:
        return Gate(name, False, f"FitError: {exc}")
    return Gate(name, err <= FIT_MULTI_TOL, f"error {err:.2e} (<= {FIT_MULTI_TOL:g})")


def fisher_matches_closed_form(n: int) -> Gate:
    M = RegisterSpec(n).M
    summed = 1.0 / pmf.crlb_mse(RegisterSpec(n), 1)
    closed = 4.0 * math.pi**2 * (M * M - 1) / 3.0
    rel = abs(summed - closed) / closed
    return Gate(f"1/crlb_mse closed form n={n}", rel <= FISHER_REL_TOL,
                f"relative diff {rel:.2e} (<= {FISHER_REL_TOL:g})")


def run_all() -> list[Gate]:
    """Every gate, pinned to the benchmark's phases and register sizes.

    The simulator gate runs at every simulated readout_wide n; the zero-noise
    single fit at every campaign phase and campaign_few register size plus
    the n = 16 readout; the zero-noise multi fit on the J = 2 and J = 3
    readout mixtures at n = 8 and 10; the Fisher gate at n = 20.
    """
    gates = [simulator_matches_analytic(n, PhaseModel.from_pairs(p)) for n, p in MIXTURES]
    gates += [fit_single_recovers(n, t) for t in CAMPAIGN_PHASES for n in range(2, 9)]
    gates.append(fit_single_recovers(*SINGLES[0]))
    gates += [
        fit_multi_recovers(n, PhaseModel.from_pairs(p))
        for n, p in MIXTURES
        if n <= 10
    ]
    gates.append(fisher_matches_closed_form(SINGLES[-1][0]))
    return gates
