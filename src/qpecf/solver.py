"""Batched bounded nonlinear least squares by a scaled trust-region method.

One call solves B independent problems of the same size. Each problem runs
the same algorithm on its own: Levenberg-Marquardt damping with Nielsen's
update drives the step size, Coleman-Li distance-to-bound scaling shapes
steps near the box faces (the defining ingredient of trust-region
reflective methods), and trial points that leave the box are both clipped
onto it and reflected back inside, with the better candidate kept. Iterates
therefore never leave the box, and coordinates pinned against a face with
an inward-pointing gradient unstick on their own when the gradient reverses.

Every problem keeps its own damping, iteration count, status and
convergence flag; a problem that has stopped keeps its point while the
others go on, and the linear algebra of an iteration runs over the
problems still active.

A problem's result is bit-identical to what a one-problem-per-call solver
with the same algorithm returns, whatever batch it is solved in, because of
two rules:

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


def _active_rows(active: np.ndarray) -> tuple[np.ndarray, object]:
    """Indices of the active problems, and an index for the (B, m) arrays.

    While every problem is active the second is a full slice, so J[rows] is
    a view: a batch of one large problem holds no copies of its arrays.
    """
    a = np.flatnonzero(active)
    return a, slice(None) if a.size == active.size else a


def _writable(values) -> np.ndarray:
    """values as a float array the solver may update in place, copied only if it must be."""
    return np.require(values, dtype=float, requirements="W")


def _mask(size: int, index: np.ndarray) -> np.ndarray:
    out = np.zeros(size, dtype=bool)
    out[index] = True
    return out


def least_squares_box(residual, jacobian, start, lower, upper) -> SolverResult:
    """Minimize sum(residual(x)**2) over the box [lower, upper], per problem.

    start is a (B, p) array with one problem per row, and lower and upper
    broadcast to it; every start must lie strictly inside its box.
    residual maps a (B, p) array of points to the (B, m) residuals, and
    jacobian to the (B, m, p) derivatives. Both are called with the whole
    batch; a stopped problem's row holds its final point. The solver writes
    into the arrays they return unless those are read-only, so each call
    must return arrays of its own.

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
    r = _writable(residual(x))
    started = np.all(np.isfinite(r), axis=1)
    f = np.where(started, _dot(r, r), np.nan)
    J = _writable(jacobian(x))
    lam = np.full(B, -1.0)
    nu = np.full(B, 2.0)
    iterations = np.zeros(B, dtype=int)
    status = np.where(started, "maxiter", "nonfinite").astype("<U9")
    active = started.copy()

    for it in range(1, MAX_ITER + 1):
        iterations[active] = it
        status[active & (f == 0.0)] = "gtol"
        active &= f != 0.0
        a, rows = _active_rows(active)
        if a.size == 0:
            break
        Ja = J[rows]
        g = (Ja.transpose(0, 2, 1) @ r[rows][:, :, np.newaxis])[:, :, 0]
        column_norms = np.linalg.norm(Ja, axis=1)
        denom = column_norms * np.sqrt(f[a])[:, np.newaxis]
        cosine = np.divide(np.abs(g), denom, out=np.zeros_like(g), where=denom > 0)
        flat = np.max(cosine, axis=1) < GTOL
        if flat.any():
            status[a[flat]] = "gtol"
            active[a[flat]] = False
            a, rows = _active_rows(active)
            if a.size == 0:
                break
            g, Ja = g[~flat], Ja[~flat]
        xa, la, ua = x[a], lb[a], ub[a]

        # Coleman-Li scaling: each coordinate is weighted by its distance to
        # the bound faced by the descent direction.
        v = np.where(g < 0, ua - xa, xa - la)
        dv = np.where(g < 0, -1.0, 1.0)
        d = np.sqrt(v)
        gh = d * g
        Jh = Ja * d[:, np.newaxis, :]
        C = g * dv
        A = Jh.transpose(0, 2, 1) @ Jh
        fresh = lam[a] < 0
        if fresh.any():
            scale = np.max(np.diagonal(A, axis1=1, axis2=2) + C, axis=1)
            first = np.where(scale > 0, 1e-3 * scale, 1e-3)
            lam[a[fresh]] = first[fresh]
        lam_a = lam[a]
        damped = (A + C[:, :, np.newaxis] * eye) + lam_a[:, np.newaxis, np.newaxis] * eye
        sh = np.linalg.solve(damped, -gh[:, :, np.newaxis])[:, :, 0]
        s = d * sh

        raw = xa + s
        clipped = np.clip(raw, la, ua)
        reflected = np.where(raw < la, 2 * la - raw, np.where(raw > ua, 2 * ua - raw, raw))
        reflected = np.clip(reflected, la, ua)

        # Each problem keeps the first candidate with the lowest finite SSR;
        # choice names the candidate, -1 when neither is finite.
        best_x = xa.copy()
        best_f = np.full(a.size, np.inf)
        choice = np.full(a.size, -1)
        candidate_r = []
        for cand, tried in (
            (clipped, np.ones(a.size, dtype=bool)),
            (reflected, np.any(reflected != clipped, axis=1)),
        ):
            if not tried.any():
                continue
            points = x.copy()
            points[a] = cand
            rc = np.asarray(residual(points), dtype=float)
            fc = _dot(rc[rows], rc[rows])
            better = tried & np.all(np.isfinite(rc[rows]), axis=1) & (fc < best_f)
            best_x[better], best_f[better] = cand[better], fc[better]
            choice[better] = len(candidate_r)
            candidate_r.append(rc)

        step = best_x - xa
        step_h = np.divide(step, d, out=np.zeros_like(step), where=d > 0)
        predicted = _dot(step_h, lam_a[:, np.newaxis] * step_h - gh)
        actual = f[a] - best_f
        rho = np.divide(actual, predicted, out=np.where(actual > 0, 1.0, -1.0), where=predicted > 0)
        accepted = (actual > 0) & (rho > _RHO_ACCEPT)

        acc = a[accepted]
        if acc.size:
            x[acc], f[acc] = best_x[accepted], best_f[accepted]
            if acc.size == B and np.all(choice == choice[0]):
                # Every problem moved to the same candidate: take the arrays
                # whole. Masked copies into long-lived arrays doubled the page
                # faults of a one-problem n = 20 fit.
                r = _writable(candidate_r[choice[0]])
                candidate_r = rc = None
                J = _writable(jacobian(x))
            else:
                for k, rc in enumerate(candidate_r):
                    np.copyto(r, rc, where=_mask(B, a[accepted & (choice == k)])[:, np.newaxis])
                candidate_r = rc = None
                np.copyto(J, jacobian(x), where=_mask(B, acc)[:, np.newaxis, np.newaxis])
            lam[acc] *= [max(1.0 / 3.0, 1.0 - (2.0 * q - 1.0) ** 3) for q in rho[accepted].tolist()]
            nu[acc] = 2.0
        rej = a[~accepted]
        lam[rej] *= nu[rej]
        nu[rej] *= 2.0
        small = np.sqrt(np.where(accepted, _dot(step, step), _dot(s, s))) < XTOL
        status[a[small]] = "xtol"
        active[a[small]] = False

    converged = (status == "gtol") | (status == "xtol")
    return SolverResult(x=x, ssr=f, iterations=iterations, converged=converged, status=status)
