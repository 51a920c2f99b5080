"""Closed-form outcome mathematics: probabilities, score, Fisher information, bounds.

Everything is expressed through the offset delta = y - theta*M. The raw
ratio form (1 - cos(2 pi delta)) / (1 - cos(2 pi delta / M)) loses precision
near its removable singularities, so evaluation uses the equivalent
sin^2(pi delta) / (M^2 sin^2(pi delta / M)) with two stabilizations:

* delta is reduced mod M to the representative in (-M/2, M/2], and the
  numerator's argument is further reduced to e = delta - round(delta) using
  sin(pi(m + e)) = (-1)^m sin(pi e), which keeps both sines evaluated at
  small arguments where they are fully accurate;
* |delta| < 1e-6 switches to a sinc-ratio series that is exact to well below
  float64 resolution there and returns exactly 1 at delta = 0.

The kernels are elementwise over an offset array of any shape, so a J-phase
mixture is one call on a (J, M) array. Each evaluates the sine form on the
whole array, with floating-point warnings silenced because it is 0/0 at
delta = 0, and then overwrites the |delta| < 1e-6 entries with the series.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    OutcomeDistribution, PhaseModel, RegisterSpec, _check_int, _check_shots, _check_theta,
)

SMALL_DELTA = 1e-6


def _reduce(delta: np.ndarray, M: int) -> np.ndarray:
    """Reduce offsets mod M to the representative in (-M/2, M/2].

    Subtracting the nearest multiple of M is exact, whereas np.mod would
    round a small negative offset onto the last place of M.
    """
    d = delta - M * np.rint(delta / M)
    return np.where(d <= -M / 2, d + M, d)


def _pmf_kernel(delta, M: int) -> np.ndarray:
    """P as a function of delta = y - theta*M, vectorized."""
    d = np.atleast_1d(_reduce(np.asarray(delta, dtype=float), M))
    e = d - np.rint(d)
    with np.errstate(all="ignore"):
        out = (np.sin(np.pi * e) / (M * np.sin(np.pi * d / M))) ** 2
    small = np.abs(d) < SMALL_DELTA
    if small.any():
        a = (np.pi * d[small]) ** 2
        b = a / M**2
        num = 1.0 - a / 6.0 + a * a / 120.0
        den = 1.0 - b / 6.0 + b * b / 120.0
        out[small] = (num / den) ** 2
    return out


def _score_kernel(delta, M: int) -> np.ndarray:
    """d log P / d theta as a function of delta, vectorized.

    Diverges (+-inf) only where delta is exactly a nonzero integer, i.e.
    where P is exactly zero; every consumer weights the score by P.
    """
    d = np.atleast_1d(_reduce(np.asarray(delta, dtype=float), M))
    e = d - np.rint(d)
    with np.errstate(all="ignore"):
        cot_e = np.cos(np.pi * e) / np.sin(np.pi * e)
        cot_dM = np.cos(np.pi * d / M) / np.sin(np.pi * d / M)
        out = 2.0 * np.pi * (cot_dM - M * cot_e)
    small = np.abs(d) < SMALL_DELTA
    if small.any():
        ds = d[small]
        out[small] = 2.0 * np.pi * (
            np.pi * ds * (M - 1.0 / M) / 3.0
            + (np.pi * ds) ** 3 * (M - 1.0 / M**3) / 45.0
        )
    return out


def _pmf_grad_kernel(delta, M: int) -> np.ndarray:
    """d P / d theta (the product P * score evaluated jointly), vectorized.

    Finite everywhere: the sin(pi e) prefactor cancels the score's
    divergence at integer delta, giving exactly 0 there.
    """
    d = np.atleast_1d(_reduce(np.asarray(delta, dtype=float), M))
    # 2 pi se (se cd / sd - M ce) / (M^2 sd^2), with e = d - round(d), se and
    # ce the sine and cosine of pi e, sd and cd those of pi d / M, evaluated
    # in place with the same operands in the same order: a call on a solver
    # batch then holds at most six offset-sized temporaries at once, not ten.
    with np.errstate(all="ignore"):
        ce = np.pi * (d - np.rint(d))
        se = np.sin(ce)
        np.cos(ce, out=ce)
        cd = np.pi * d / M
        sd = np.sin(cd)
        np.cos(cd, out=cd)
        cd *= se
        cd /= sd
        ce *= M
        cd -= ce
        out = np.multiply(2.0 * np.pi, se, out=se)
        out *= cd
        sd *= sd
        sd *= M**2
        out /= sd
    small = np.abs(d) < SMALL_DELTA
    if small.any():
        out[small] = _pmf_kernel(d[small], M) * _score_kernel(d[small], M)
    return out


def _pmf_square_sum(theta, M: int) -> tuple[np.ndarray, np.ndarray]:
    """S = sum_y P_y(theta)^2 over all M outcomes, and dS/dtheta, in closed form.

    Counting the index quadruples of the two Dirichlet kernels whose
    difference is a multiple of M gives

        S = [(2M^3 + M) + (M^3 - M) cos(2 pi u)] / (3 M^3),
        dS/dtheta = -2 pi M (M^3 - M) sin(2 pi u) / (3 M^3),

    with u = M theta - rint(M theta). M theta is exact because M is a power
    of two, so the reduction loses nothing; unreduced, the cosine's error
    grows with M theta (2.7e-13 relative at n = 12). The cubes are divided
    out through the exact 1/M^2, since 2M^3 + M is not exact in float64 past
    n = 25. Both agree with the O(M) sums of P^2 and 2 P P' to 2e-15 (dS
    relative to its amplitude) for every n = 1..20 (tests/test_pmf.py).
    """
    u = np.asarray(theta, dtype=float) * M
    angle = 2.0 * np.pi * (u - np.rint(u))
    q = 1.0 / (M * M)
    S = ((2.0 + q) + (1.0 - q) * np.cos(angle)) / 3.0
    dS = -2.0 * np.pi * (M - 1.0 / M) * np.sin(angle) / 3.0
    return S, dS


def pmf_single(reg: RegisterSpec, theta: float, y: int) -> float:
    """Probability of outcome y for a single eigenphase theta."""
    theta = _check_theta(theta)
    y = _check_int(y, "y", 0, reg.M - 1)
    return float(_pmf_kernel(y - theta * reg.M, reg.M)[0])


def pmf_vector(reg: RegisterSpec, model: PhaseModel) -> np.ndarray:
    """Probabilities of all M outcomes under a mixture model."""
    M = reg.M
    delta = np.arange(M, dtype=float) - np.array(model.thetas)[:, None] * M
    return (np.array(model.weights)[:, None] * _pmf_kernel(delta, M)).sum(axis=0)


def analytic_distribution(reg: RegisterSpec, model: PhaseModel) -> OutcomeDistribution:
    return OutcomeDistribution(reg, pmf_vector(reg, model))


def score(reg: RegisterSpec, theta: float, y: int) -> float:
    """Sensitivity d log P(y) / d theta at a single eigenphase."""
    theta = _check_theta(theta)
    y = _check_int(y, "y", 0, reg.M - 1)
    return float(_score_kernel(y - theta * reg.M, reg.M)[0])


def fisher_information(reg: RegisterSpec) -> float:
    """Single-shot Fisher information, 4 pi^2 (M^2 - 1) / 3.

    This is the closed form of sum_y score(y)^2 P(y), which is the same for
    every phase whose offsets y - theta*M are never integers and depends
    only on M. M^2 - 1 is an exact integer, so the value is correct to a few
    units in the last place for every n <= 30.
    """
    M = reg.M
    return 4.0 * math.pi**2 * (M * M - 1) / 3.0


def crlb_mse(reg: RegisterSpec, k: int) -> float:
    """Lowest possible mean squared error of any unbiased estimate from k shots."""
    return 1.0 / (_check_shots(k) * fisher_information(reg))


def circuit_depth_units(reg: RegisterSpec) -> int:
    """Controlled-unitary applications in the circuit: 2**n - 1."""
    return (1 << reg.n) - 1
