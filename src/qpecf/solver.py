"""Bounded nonlinear least squares by a scaled trust-region method.

Levenberg-Marquardt damping with Nielsen's update drives the step size,
Coleman-Li distance-to-bound scaling shapes steps near the box faces (the
defining ingredient of trust-region reflective methods), and trial points
that leave the box are both clipped onto it and reflected back inside, with
the better candidate kept. Iterates therefore never leave the box, and
coordinates pinned against a face with an inward-pointing gradient unstick
on their own when the gradient reverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError

MAX_ITER = 200
GTOL = 1e-12
XTOL = 1e-12

# Minimum gain ratio for accepting a step.
_RHO_ACCEPT = 1e-4


@dataclass(frozen=True)
class SolverResult:
    x: np.ndarray
    ssr: float
    iterations: int
    converged: bool
    status: str


def least_squares_box(residual, jacobian, start, lower, upper) -> SolverResult:
    """Minimize sum(residual(x)**2) over the box [lower, upper].

    residual maps a parameter vector to a residual vector; jacobian returns
    its (m, p) derivative matrix. start must lie strictly inside the box.
    Terminates when the normalized gradient drops below GTOL (the cosine of
    the angle between the residual and the Jacobian columns, so quartically
    flat basins where the raw gradient vanishes identically are not mistaken
    for convergence), when the step norm drops below XTOL, or after MAX_ITER
    iterations.
    """
    x = np.asarray(start, dtype=float).copy()
    lb = np.asarray(lower, dtype=float)
    ub = np.asarray(upper, dtype=float)
    if x.shape != lb.shape or x.shape != ub.shape:
        raise DomainError("start and bounds must have matching shapes")
    if np.any(lb >= ub):
        raise DomainError("each lower bound must be below its upper bound")
    if np.any(x <= lb) or np.any(x >= ub):
        raise DomainError("start must lie strictly inside the bounds")

    r = np.asarray(residual(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitError("non-finite residual at the starting point")
    f = float(r @ r)
    J = np.asarray(jacobian(x), dtype=float)
    lam = -1.0
    nu = 2.0
    iterations = 0
    converged = False
    status = "maxiter"

    for iterations in range(1, MAX_ITER + 1):
        if f == 0.0:
            converged = True
            status = "gtol"
            break
        g = J.T @ r
        column_norms = np.linalg.norm(J, axis=0)
        denom = column_norms * np.sqrt(f)
        cosine = np.divide(np.abs(g), denom, out=np.zeros_like(g), where=denom > 0)
        if np.max(cosine) < GTOL:
            converged = True
            status = "gtol"
            break

        # Coleman-Li scaling: each coordinate is weighted by its distance to
        # the bound faced by the descent direction.
        v = np.where(g < 0, ub - x, x - lb)
        dv = np.where(g < 0, -1.0, 1.0)
        d = np.sqrt(v)
        gh = d * g
        Jh = J * d[np.newaxis, :]
        C = g * dv
        A = Jh.T @ Jh
        if lam < 0:
            scale = float(np.max(np.diag(A) + C))
            lam = 1e-3 * scale if scale > 0 else 1e-3
        sh = np.linalg.solve(A + np.diag(C) + lam * np.eye(x.size), -gh)
        s = d * sh

        raw = x + s
        clipped = np.clip(raw, lb, ub)
        candidates = [clipped]
        reflected = raw.copy()
        below = raw < lb
        above = raw > ub
        reflected[below] = 2 * lb[below] - raw[below]
        reflected[above] = 2 * ub[above] - raw[above]
        reflected = np.clip(reflected, lb, ub)
        if not np.array_equal(reflected, clipped):
            candidates.append(reflected)

        best_x = None
        best_r = None
        best_f = np.inf
        for cand in candidates:
            rc = np.asarray(residual(cand), dtype=float)
            if not np.all(np.isfinite(rc)):
                continue
            fc = float(rc @ rc)
            if fc < best_f:
                best_x, best_r, best_f = cand, rc, fc

        accepted = False
        if best_x is not None:
            step = best_x - x
            step_h = np.divide(step, d, out=np.zeros_like(step), where=d > 0)
            predicted = float(step_h @ (lam * step_h - gh))
            actual = f - best_f
            rho = actual / predicted if predicted > 0 else (1.0 if actual > 0 else -1.0)
            if actual > 0 and rho > _RHO_ACCEPT:
                accepted = True
                x, r, f = best_x, best_r, best_f
                J = np.asarray(jacobian(x), dtype=float)
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                if np.linalg.norm(step) < XTOL:
                    converged = True
                    status = "xtol"
                    break
        if not accepted:
            lam *= nu
            nu *= 2.0
            if np.linalg.norm(s) < XTOL:
                converged = True
                status = "xtol"
                break

    return SolverResult(x=x, ssr=f, iterations=iterations, converged=converged, status=status)
