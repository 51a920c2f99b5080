"""Batched bounded nonlinear least squares by a scaled trust-region method.

One call solves B independent problems of the same size. Each problem runs
the same algorithm on its own: Levenberg-Marquardt damping with Nielsen's
update drives the step size, Coleman-Li distance-to-bound scaling shapes
steps near the box faces (the defining ingredient of trust-region
reflective methods), and each step is clipped onto the box. Where the raw
step left the box, its reflection back inside is tried as well, and kept
only with a strictly lower SSR. Iterates therefore never leave the box, and
coordinates pinned against a face with an inward-pointing gradient unstick
on their own when the gradient reverses.

Every problem keeps its own damping, iteration count, status and
convergence flag. The solver carries only the problems still running: a
problem leaves that working set when it stops, and from then on neither
its residual, its Jacobian nor its linear algebra is computed again.

A problem's result is bit-identical to what a one-problem-per-call solver
with the same algorithm returns, whatever batch it is solved in and
whichever of its batchmates are still running, because of two rules:

* every per-problem reduction (r @ r, J.T @ r, Jh.T @ Jh and the step
  norms) goes through stacked matmul, which calls BLAS once per problem
  exactly as the 1-D expression does. np.einsum sums in another order: with
  it, 118 of the 1120 trials of a 112-cell campaign moved, some onto the
  bin mirror where the two starts' SSRs tie to the last few bits;
* the damped matrix is formed as (A + diag(C)) + lambda I, the serial
  association; A + diag(C + lambda) moved 27 of 304 two- and three-phase
  corner solves. Each problem's damping update is a Python float
  expression, since numpy's vectorised power can differ from the C
  library's pow in the last place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MAX_ITER = 200
GTOL = 1e-12
XTOL = 1e-12

# Minimum gain ratio for accepting a step.
_RHO_ACCEPT = 1e-4


@dataclass(frozen=True)
class SolverResult:
    """Per-problem results, one row or entry per row of the start array.

    status is "gtol", "xtol", "maxiter", or "nonfinite" for a problem whose
    residual was not finite at its start; such a problem keeps its start,
    has ssr nan and 0 iterations, and is not converged.
    """

    x: np.ndarray
    ssr: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    status: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, p) arrays, one BLAS dot per row."""
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def least_squares_box(residual, jacobian, start, lower, upper) -> SolverResult:
    """Minimize sum(residual(x)**2) over the box [lower, upper], per problem.

    start is a (B, p) array with one problem per row, and lower and upper
    broadcast to it; every start must lie strictly inside its box.
    residual(points, rows) maps an (a, p) array of points to their (a, m)
    residuals, and jacobian(points, rows) to the (a, m, p) derivatives;
    rows holds the a problems' indices in the batch, one per point. Both
    are called only on running problems, so a row's values must depend on
    that row's point and problem alone. The Jacobian is evaluated only at
    starts and accepted points.

    A problem terminates when its normalized gradient drops below GTOL (the
    cosine of the angle between the residual and the Jacobian columns, so
    quartically flat basins where the raw gradient vanishes identically are
    not mistaken for convergence), when its step norm drops below XTOL, or
    after MAX_ITER iterations. A non-finite residual at a start fails that
    problem alone (status "nonfinite").
    """
    x = np.array(start, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"start must be a (problems, parameters) array, got shape {x.shape}")
    try:
        lb = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
        ub = np.broadcast_to(np.asarray(upper, dtype=float), x.shape)
    except ValueError as exc:
        raise DomainError("bounds must broadcast to the shape of start") from exc
    if np.any(lb >= ub):
        raise DomainError("each lower bound must be below its upper bound")
    if np.any(x <= lb) or np.any(x >= ub):
        raise DomainError("start must lie strictly inside the bounds")

    B, p = x.shape
    eye = np.eye(p)
    r = np.asarray(residual(x, np.arange(B)), dtype=float)
    started = np.all(np.isfinite(r), axis=1)
    f = np.where(started, _dot(r, r), np.nan)
    iterations = np.zeros(B, dtype=int)
    status = np.where(started, "maxiter", "nonfinite").astype("<U9")

    # The working set: a holds the batch rows of the running problems, and
    # r, J, lam and nu hold the values of exactly those rows.
    a = np.flatnonzero(started)
    r = r[a]
    J = np.array(jacobian(x[a], a), dtype=float)
    lam = np.empty(a.size)  # set from A and C at the first iteration
    nu = np.full(a.size, 2.0)

    for it in range(1, MAX_ITER + 1):
        iterations[a] = it
        g = (J.transpose(0, 2, 1) @ r[:, :, np.newaxis])[:, :, 0]
        column_norms = np.linalg.norm(J, axis=1)
        denom = column_norms * np.sqrt(f[a])[:, np.newaxis]
        cosine = np.divide(np.abs(g), denom, out=np.zeros_like(g), where=denom > 0)
        # A zero residual has a zero cosine, so it stops here as well.
        flat = np.max(cosine, axis=1) < GTOL
        if flat.any():
            status[a[flat]] = "gtol"
            a, r, J, g, lam, nu = (v[~flat] for v in (a, r, J, g, lam, nu))
        if a.size == 0:
            break
        xa, la, ua = x[a], lb[a], ub[a]

        # Coleman-Li scaling: each coordinate is weighted by its distance to
        # the bound faced by the descent direction.
        v = np.where(g < 0, ua - xa, xa - la)
        dv = np.where(g < 0, -1.0, 1.0)
        d = np.sqrt(v)
        gh = d * g
        Jh = J * d[:, np.newaxis, :]
        C = g * dv
        A = Jh.transpose(0, 2, 1) @ Jh
        if it == 1:
            scale = np.max(np.diagonal(A, axis1=1, axis2=2) + C, axis=1)
            lam = np.where(scale > 0, 1e-3 * scale, 1e-3)
        damped = (A + C[:, :, np.newaxis] * eye) + lam[:, np.newaxis, np.newaxis] * eye
        sh = np.linalg.solve(damped, -gh[:, :, np.newaxis])[:, :, 0]
        s = d * sh

        # The trial point is the step clipped onto the box, rejected if its
        # residual is not finite. Where the raw step left the box, the
        # reflected point replaces it only with a strictly lower finite SSR.
        raw = xa + s
        xc = np.clip(raw, la, ua)
        rc = np.asarray(residual(xc, a), dtype=float)
        fc = _dot(rc, rc)
        fc[~np.all(np.isfinite(rc), axis=1)] = np.inf
        out = np.flatnonzero(np.any((raw < la) | (raw > ua), axis=1))
        if out.size:
            ro, lo, uo = raw[out], la[out], ua[out]
            xr = np.clip(np.where(ro < lo, 2 * lo - ro, np.where(ro > uo, 2 * uo - ro, ro)), lo, uo)
            rr = np.asarray(residual(xr, a[out]), dtype=float)
            fr = _dot(rr, rr)
            won = np.all(np.isfinite(rr), axis=1) & (fr < fc[out])
            best = out[won]
            xc[best], fc[best], rc[best] = xr[won], fr[won], rr[won]

        step = xc - xa
        step_h = np.divide(step, d, out=np.zeros_like(step), where=d > 0)
        predicted = _dot(step_h, lam[:, np.newaxis] * step_h - gh)
        actual = f[a] - fc
        rho = np.divide(actual, predicted, out=np.where(actual > 0, 1.0, -1.0), where=predicted > 0)
        accepted = (actual > 0) & (rho > _RHO_ACCEPT)

        if accepted.any():
            acc = a[accepted]
            x[acc], f[acc] = xc[accepted], fc[accepted]
            r[accepted] = rc[accepted]
            J[accepted] = jacobian(x[acc], acc)
            lam[accepted] *= [
                max(1.0 / 3.0, 1.0 - (2.0 * q - 1.0) ** 3) for q in rho[accepted].tolist()
            ]
            nu[accepted] = 2.0
        lam[~accepted] *= nu[~accepted]
        nu[~accepted] *= 2.0
        small = np.sqrt(np.where(accepted, _dot(step, step), _dot(s, s))) < XTOL
        if small.any():
            status[a[small]] = "xtol"
            a, r, J, lam, nu = (v[~small] for v in (a, r, J, lam, nu))

    converged = (status == "gtol") | (status == "xtol")
    return SolverResult(x=x, ssr=f, iterations=iterations, converged=converged, status=status)
