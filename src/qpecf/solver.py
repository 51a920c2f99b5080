"""Bounded nonlinear least squares from many starts by a scaled trust-region method.

One call descends from B starts of one problem over one box. Each start runs
the same algorithm on its own: Levenberg-Marquardt damping with Nielsen's
update drives the step size, Coleman-Li distance-to-bound scaling shapes
steps near the box faces (the defining ingredient of trust-region
reflective methods), and each step is clipped onto the box. Where the raw
step left the box, its reflection back inside is tried as well, and kept
only with a strictly lower SSR. Iterates therefore never leave the box, and
coordinates pinned against a face with an inward-pointing gradient unstick
on their own when the gradient reverses.

Every start keeps its own damping, iteration count, status and
convergence flag. The solver carries only the starts still running: a
start leaves that working set when it stops, and from then on neither
its residual, its Jacobian nor its linear algebra is computed again.

A start's result is bit-identical to what a one-start-per-call solver
with the same algorithm returns, whatever starts it is solved with and
whichever of them are still running, because of three rules:

* every per-start reduction (r @ r, J.T @ r, Jh.T @ Jh and the step
  norms) goes through stacked matmul, which calls BLAS once per start
  exactly as the 1-D expression does. np.einsum sums in another order: with
  it, 118 of the 1120 trials of a 112-cell campaign moved, some onto the
  bin mirror where the two starts' SSRs tie to the last few bits;
* the damped matrix is formed as (A + diag(C)) + lambda I, the serial
  association; A + diag(C + lambda) moved 27 of 304 two- and three-phase
  corner solves. Each start's damping update is a Python float
  expression, since numpy's vectorised power can differ from the C
  library's pow in the last place.

qpecf solves its multi-phase fits (J >= 2, 2J - 1 >= 3 parameters) here;
a single-phase fit is a root search of its own (fitting._single_rows).
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
    """Per-start results, one row or entry per row of the start array.

    status is "gtol", "xtol", "maxiter", or "nonfinite" for a start where
    the residual was not finite; such a start keeps its point, has ssr nan
    and 0 iterations, and is not converged.
    """

    x: np.ndarray
    ssr: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    status: np.ndarray


# A ufunc reduction: ndarray.any and np.any add a Python wrapper to each call.
_any = np.logical_or.reduce


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, p) arrays, one BLAS dot per row."""
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def least_squares_box(residual, jacobian, start, lower, upper) -> SolverResult:
    """Minimize sum(residual(x)**2) over the box [lower, upper] from each start.

    start is a (B, p) array with one start per row, and lower and upper
    broadcast to (p,), one box for every start; every start must lie
    strictly inside it. residual(points) maps an (a, p) array of points to
    their (a, m) residuals, and jacobian(points) to the (a, m, p)
    derivatives. Both are called only on the running starts' points, so a
    row's values must depend on its point alone. The Jacobian is evaluated
    only at starts and accepted points.

    A start terminates when its normalized gradient drops below GTOL (the
    cosine of the angle between the residual and the Jacobian columns, so
    quartically flat basins where the raw gradient vanishes identically are
    not mistaken for convergence), when its step norm drops below XTOL, or
    after MAX_ITER iterations. A non-finite residual at a start fails that
    start alone (status "nonfinite").
    """
    x = np.array(start, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"start must be a (starts, parameters) array, got shape {x.shape}")
    B, p = x.shape
    try:
        lb = np.broadcast_to(np.asarray(lower, dtype=float), (p,))
        ub = np.broadcast_to(np.asarray(upper, dtype=float), (p,))
    except ValueError as exc:
        raise DomainError(f"bounds must broadcast to one box of shape ({p},)") from exc
    if np.any(lb >= ub):
        raise DomainError("each lower bound must be below its upper bound")
    if np.any(x <= lb) or np.any(x >= ub):
        raise DomainError("start must lie strictly inside the bounds")

    eye = np.eye(p)
    r = np.asarray(residual(x), dtype=float)
    started = np.all(np.isfinite(r), axis=1)
    f = np.where(started, _dot(r, r), np.nan)
    iterations = np.zeros(B, dtype=int)
    status = np.where(started, "maxiter", "nonfinite").astype("<U9")

    # The working set: a holds the rows of the running starts, and r, J,
    # lam and nu hold the values of exactly those rows. A start's iteration
    # count is stamped when it stops.
    a = np.flatnonzero(started)
    if a.size == 0:  # every start failed: no callable sees an empty point set
        return SolverResult(x=x, ssr=f, iterations=iterations, converged=started, status=status)
    r = r[a]
    # C order whatever the callable returns: a broadcast Jacobian copied in
    # numpy's default order puts the start axis innermost, off matmul's BLAS path.
    J = np.array(jacobian(x[a]), dtype=float, order="C")
    lam = np.empty(a.size)  # set from A and C at the first iteration
    nu = np.full(a.size, 2.0)

    for it in range(1, MAX_ITER + 1):
        g = (J.transpose(0, 2, 1) @ r[:, :, np.newaxis])[:, :, 0]
        # The column norms as np.linalg.norm(J, axis=1) computes them.
        column_norms = np.sqrt(np.add.reduce(J * J, axis=1))
        denom = column_norms * np.sqrt(f[a])[:, np.newaxis]
        C = np.abs(g)
        cosine = np.divide(C, denom, out=np.zeros(g.shape), where=denom > 0)
        # A zero residual has a zero cosine, so it stops here as well.
        flat = np.maximum.reduce(cosine, axis=1) < GTOL
        if _any(flat):
            stop = a[flat]
            iterations[stop], status[stop] = it, "gtol"
            keep = ~flat
            a, r, J, g, C = a[keep], r[keep], J[keep], g[keep], C[keep]
            lam, nu = lam[keep], nu[keep]
        if a.size == 0:
            break
        xa = x[a]

        # Coleman-Li scaling: each coordinate is weighted by its distance to
        # the bound faced by the descent direction. The diagonal term g v',
        # with v' = -1 toward the upper bound and 1 toward the lower, is C.
        v = np.subtract(xa, lb)
        np.subtract(ub, xa, out=v, where=g < 0)
        d = np.sqrt(v)
        gh = d * g
        Jh = J * d[:, np.newaxis, :]
        A = Jh.transpose(0, 2, 1) @ Jh
        if it == 1:
            scale = np.maximum.reduce(np.diagonal(A, axis1=1, axis2=2) + C, axis=1)
            lam = np.where(scale > 0, 1e-3 * scale, 1e-3)
        damped = (A + C[:, :, np.newaxis] * eye) + lam[:, np.newaxis, np.newaxis] * eye
        s = d * np.linalg.solve(damped, -gh[:, :, np.newaxis])[:, :, 0]

        # The trial point is the step clipped onto the box, rejected if its
        # residual is not finite: a NaN residual gives a NaN SSR, which
        # becomes inf, and an infinite one an infinite SSR. Where the raw
        # step left the box, the reflected point replaces it only with a
        # strictly lower SSR.
        raw = xa + s
        xc = np.minimum(np.maximum(raw, lb), ub)
        rc = np.asarray(residual(xc), dtype=float)
        fc = _dot(rc, rc)
        fc[np.isnan(fc)] = np.inf
        out = _any(raw != xc, axis=1).nonzero()[0]
        if out.size:
            ro = raw[out]
            xr = np.where(ro < lb, 2 * lb - ro, np.where(ro > ub, 2 * ub - ro, ro))
            xr = np.minimum(np.maximum(xr, lb), ub)
            rr = np.asarray(residual(xr), dtype=float)
            fr = _dot(rr, rr)
            won = fr < fc[out]
            best = out[won]
            xc[best], fc[best], rc[best] = xr[won], fr[won], rr[won]

        step = xc - xa
        step_h = np.divide(step, d, out=np.zeros(step.shape), where=d > 0)
        predicted = _dot(step_h, lam[:, np.newaxis] * step_h - gh)
        actual = f[a] - fc
        rho = np.divide(actual, predicted, out=np.where(actual > 0, 1.0, -1.0), where=predicted > 0)
        accepted = (actual > 0) & (rho > _RHO_ACCEPT)

        if _any(accepted):
            acc, xacc = a[accepted], xc[accepted]
            x[acc], f[acc] = xacc, fc[accepted]
            r[accepted] = rc[accepted]
            J[accepted] = jacobian(xacc)
            lam[accepted] *= [
                max(1.0 / 3.0, 1.0 - (2.0 * q - 1.0) ** 3) for q in rho[accepted].tolist()
            ]
            nu[accepted] = 2.0
        rejected = ~accepted
        np.multiply(lam, nu, out=lam, where=rejected)
        np.multiply(nu, 2.0, out=nu, where=rejected)
        taken = np.where(accepted[:, np.newaxis], step, s)
        small = np.sqrt(_dot(taken, taken)) < XTOL
        if _any(small):
            stop = a[small]
            iterations[stop], status[stop] = it, "xtol"
            keep = ~small
            a, r, J, lam, nu = a[keep], r[keep], J[keep], lam[keep], nu[keep]
    iterations[a] = MAX_ITER

    converged = (status == "gtol") | (status == "xtol")
    return SolverResult(x=x, ssr=f, iterations=iterations, converged=converged, status=status)
