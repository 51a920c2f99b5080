"""Phase recovery: bounded least-squares fits of the analytic outcome model.

Every fit follows the post-processing recipe: take the J highest-probability
bins as coarse guesses, constrain each phase to half a bin either side of
its bin, run the bounded solver from the corners of that box (nudged
strictly inside), and keep the solve with the lowest sum of squared
residuals (SSR); an exact tie goes to the later start. The single-phase fit
is the J = 1 case, started from the left and the right end of its interval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .model import OutcomeDistribution, RegisterSpec, _check_int
from .pmf import _pmf_grad_kernel, _pmf_kernel
from .solver import least_squares_box

# Starts sit this fraction of a bin width inside the bounds; the solver
# requires strict interiority while the recipe starts exactly at the bounds.
NUDGE = 1e-9


@dataclass(frozen=True)
class FitBounds:
    """Phase interval, stored wrapped into [0, 1); may cross the 1 -> 0 seam."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        return (self.upper - self.lower) % 1.0

    def contains(self, theta: float) -> bool:
        theta = theta % 1.0
        if self.lower <= self.upper:
            return self.lower <= theta <= self.upper
        return theta >= self.lower or theta <= self.upper


@dataclass(frozen=True)
class FitResult:
    """Estimated phases and weights with solver diagnostics."""

    phases: tuple[float, ...]
    weights: tuple[float, ...]
    residual_variance: float
    start_used: str
    iterations: int
    converged: bool
    bounds: tuple[FitBounds, ...]

    def to_json_dict(self) -> dict:
        if len(self.bounds) == 1:
            bounds = [self.bounds[0].lower, self.bounds[0].upper]
        else:
            bounds = [[b.lower, b.upper] for b in self.bounds]
        return {
            "phases": list(self.phases),
            "weights": list(self.weights),
            "residual_variance": self.residual_variance,
            "converged": self.converged,
            "iterations": self.iterations,
            "bounds": bounds,
        }


def _top_bins(probs: np.ndarray, J: int) -> np.ndarray:
    """The J most probable outcomes in descending order, ties to the lower index."""
    rest = probs.copy()
    bins = []
    for _ in range(J):
        bins.append(int(np.argmax(rest)))
        rest[bins[-1]] = -np.inf
    return np.array(bins, dtype=float)


def _problem(reg: RegisterSpec, J: int, probs: np.ndarray):
    """Residual, Jacobian and weights over [theta_1..theta_J, w_1..w_{J-1}].

    Phases are in the unwrapped local coordinate of their intervals. The
    last weight is 1 minus the free weights, so weights sum to 1 by
    construction; for J >= 3 that trailing weight is not box-constrained.
    J = 1 has no free weight, and its residual is a single kernel call.
    For J >= 2 the components are the rows of one (J, M) offset array: the
    residual is one kernel call summed over that axis, and the Jacobian one
    pmf and one gradient kernel call, whatever J is.
    """
    M = reg.M
    y = np.arange(M, dtype=float)

    def weights_of(params: np.ndarray) -> np.ndarray:
        w = np.empty(J)
        w[: J - 1] = params[J:]
        w[J - 1] = 1.0 - params[J:].sum()
        return w

    if J == 1:

        def residual(params: np.ndarray) -> np.ndarray:
            return _pmf_kernel(y - params[0] * M, M) - probs

        def jacobian(params: np.ndarray) -> np.ndarray:
            return _pmf_grad_kernel(y - params[0] * M, M).reshape(M, 1)

        return residual, jacobian, weights_of

    def residual(params: np.ndarray) -> np.ndarray:
        P = _pmf_kernel(y - params[:J, None] * M, M)
        return (weights_of(params)[:, None] * P).sum(axis=0) - probs

    def jacobian(params: np.ndarray) -> np.ndarray:
        delta = y - params[:J, None] * M
        P = _pmf_kernel(delta, M)
        out = np.empty((M, 2 * J - 1))
        out[:, :J] = (weights_of(params)[:, None] * _pmf_grad_kernel(delta, M)).T
        out[:, J:] = (P[:-1] - P[-1]).T
        return out

    return residual, jacobian, weights_of


def _corner_label(corner: tuple[int, ...]) -> str:
    if len(corner) == 1:
        return ("left", "right")[corner[0]]
    return "corner " + "".join("LR"[c] for c in corner)


def _fit(dist: OutcomeDistribution, J: int) -> FitResult:
    """Fit J phases and their weights; the solve with the lowest SSR wins.

    The solver runs from each of the 2**J corners of the phase box, nudged
    inside, with uniform weights. An exact SSR tie goes to the later start.
    """
    M = dist.reg.M
    bins = _top_bins(dist.probs, J)
    lo = (bins - 0.5) / M
    hi = (bins + 0.5) / M
    lower = np.concatenate([lo, np.zeros(J - 1)])
    upper = np.concatenate([hi, np.ones(J - 1)])
    nudge = NUDGE / M
    weights = np.full(J - 1, 1.0 / J)
    residual, jacobian, weights_of = _problem(dist.reg, J, dist.probs)

    best = None
    failures: list[str] = []
    for corner in itertools.product((0, 1), repeat=J):
        label = _corner_label(corner)
        start = np.concatenate([np.where(corner, hi - nudge, lo + nudge), weights])
        try:
            result = least_squares_box(residual, jacobian, start, lower, upper)
        except FitError as exc:
            failures.append(f"{label}: {exc}")
            continue
        if best is None or result.ssr <= best[1].ssr:
            best = label, result
    if best is None:
        raise FitError("all starts failed: " + "; ".join(failures))

    label, result = best
    thetas = np.mod(result.x[:J], 1.0)
    weights = weights_of(result.x)
    ascending = np.argsort(thetas, kind="stable")
    return FitResult(
        phases=tuple(float(thetas[j]) for j in ascending),
        weights=tuple(float(weights[j]) for j in ascending),
        residual_variance=result.ssr / max(M - (2 * J - 1), 1),
        start_used=label,
        iterations=result.iterations,
        converged=result.converged,
        bounds=tuple(FitBounds(float(lo[j] % 1.0), float(hi[j] % 1.0)) for j in ascending),
    )


def fit_single(dist: OutcomeDistribution) -> FitResult:
    """Recover one phase from an observed distribution.

    Runs the bounded solver from both ends of the half-bin interval around
    the argmax bin and keeps the solve with the lower SSR; an exact tie
    goes to the later, right start. At n = 1, theta and 1 - theta give the
    same distribution, so the fit returns one of two equal minima: the one
    from the right start.
    """
    return _fit(dist, 1)


def fit_multi(dist: OutcomeDistribution, J: int) -> FitResult:
    """Recover J phases and their weights from an observed distribution.

    Starts are the 2**J corner combinations of the per-phase half-bin
    intervals around the J highest-probability bins, with uniform weights;
    the solve with the lowest SSR wins.
    """
    J = _check_int(J, "J", 2)
    M = dist.reg.M
    p = 2 * J - 1
    if p >= M:
        raise DomainError(f"{p} free parameters but only {M} outcome bins")
    nonzero = int(np.count_nonzero(dist.probs))
    if nonzero < J:
        raise DomainError(f"J = {J} phases but only {nonzero} nonzero bins")
    return _fit(dist, J)
