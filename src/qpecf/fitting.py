"""Phase recovery: bounded least-squares fits of the analytic outcome model.

Every fit follows the post-processing recipe: take the J highest-probability
bins as coarse guesses, constrain each phase to half a bin either side of
its bin, descend from the corners of that box, and keep the end point with
the lowest sum of squared residuals (SSR); an exact tie goes to the later
start, and so does a single-phase histogram symmetric about its top bin.
Each phase count has its own driver. fit_multi (J >= 2) runs the bounded
solver (solver.least_squares_box) on all M bins of its one pmf, from the
2**J corners nudged strictly inside. _fit streams single-phase trials, one
chunk at a time, through a root search of the SSR's derivative on the bins
that hold counts,

    f'(theta) = S'(theta) - 2 sum_obs p_y P'_y(theta),

which costs O(observed bins) at any n, since S = sum_y P_y^2 has a closed
form (pmf._pmf_square_sum). The top bin y0 / M is always a local maximum of
the SSR: f'(y0 / M) = 0, since P'_y and S' vanish on a bin. f' is scanned
at SCAN_NODES, on each half of the box and denser toward y0, and only as far
inward as a start needs: the left start descends from the lower end to the
first node where f' >= 0, the right one from the upper end to the last node
where f' <= 0, and Newton steps refine each bracket (_refine). The SSR over
all M bins, sum_obs (P - p)^2 + max(S - sum_obs P^2, 0), picks the winner.

The fits are the float64 minimisers: the single-phase pinned cases at
n = 2-8 lie within 3.9e-15 bins of their 50-digit minimisers
(tests/test_fitting.py::TestPinnedEstimates::
test_single_phase_fits_sit_on_their_minimisers asserts 5e-15), and an
n = 17 fit within half a float64 spacing (TestObservedBins::
test_observed_bin_fit_is_float64_accurate).

The recipe has one exception: a single-phase pmf with all its mass in one
bin y0 is P(y0 / M) itself, so its fit is y0 / M with SSR 0, unsearched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .model import MAX_PHASES, OutcomeDistribution, RegisterSpec, _check_int
from .pmf import _pmf_kernel, _pmf_square_sum
from .solver import least_squares_box

# Starts sit this fraction of a bin width inside the bounds; the solver
# requires strict interiority while the recipe starts exactly at the bounds.
NUDGE = 1e-9
# A chunk of _fit holds max(1, BATCH_ELEMENTS // (2 M)) single-phase trials,
# which bounds its (trials, M) pmfs: 128 trials at n = 8. A fit_multi solver
# call holds max(1, BATCH_ELEMENTS // M) corner starts, which bounds its
# (starts, M) arrays.
BATCH_ELEMENTS = 2**16
# A single-phase trial's f' is scanned at these offsets from its top bin y0,
# in bins: each half of the box, denser toward y0, which is a stationary
# point of the SSR and so no node.
SCAN_NODES = np.array([-0.5, -0.38, -0.26, -0.14, -0.06, -0.02, -0.005,
                       0.005, 0.02, 0.06, 0.14, 0.26, 0.38, 0.5])
# A single-phase root search stops at a step or bracket of STOP_ULPS units in
# the last place of the box's upper end; or where two Newton steps in a row
# predict a remaining error under SETTLED of that; or after MAX_STEPS
# evaluations of f'.
STOP_ULPS = 4
SETTLED = 1 / 16
MAX_STEPS = 100


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
    """Estimated phases and weights with fit diagnostics."""

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


def _weights(params: np.ndarray, J: int) -> np.ndarray:
    """All J weights of each row of (B, p) parameters; the last is 1 minus the free ones."""
    w = np.empty((len(params), J))
    w[:, : J - 1] = params[:, J:]
    w[:, J - 1] = 1.0 - params[:, J:].sum(axis=1)
    return w


def _problem(reg: RegisterSpec, J: int, probs: np.ndarray):
    """Residual and Jacobian of one (M,) pmf over [theta_1..theta_J, w_1..w_{J-1}].

    Both callables take (a, p) parameters, one point per row, as
    least_squares_box passes the running starts; each row fits probs from
    its own parameters alone. The residual returns (a, M) residuals and the
    Jacobian (a, M, p). Phases are in the unwrapped local coordinate of
    their intervals. The last weight is 1 minus the free weights, so weights
    sum to 1 by construction; for J >= 3 that trailing weight is not
    box-constrained. The components of all rows are one (a, J, 1) phase
    array: the residual is one kernel call summed over the component axis,
    and the Jacobian one kernel call for P and dP/dtheta together, whatever
    J is. Every bin is evaluated, so each iteration costs O(M). J >= 2 only:
    a single-phase fit runs no solver.
    """
    M = reg.M
    bin_phases = np.arange(M) / M

    def residual(params: np.ndarray) -> np.ndarray:
        P = _pmf_kernel(bin_phases, params[:, :J, None], M)
        return (_weights(params, J)[:, :, None] * P).sum(axis=1) - probs

    def jacobian(params: np.ndarray) -> np.ndarray:
        P, dP = _pmf_kernel(bin_phases, params[:, :J, None], M, grad=True)
        out = np.empty((len(params), M, 2 * J - 1))
        dP *= _weights(params, J)[:, :, None]
        out[:, :, :J] = dP.transpose(0, 2, 1)
        out[:, :, J:] = (P[:, :-1] - P[:, -1:]).transpose(0, 2, 1)
        return out

    return residual, jacobian


def _observed(probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nonzero entries of (T, M) pmfs, row-major: bin phases, p, each trial's count and first."""
    M = probs.shape[1]
    # np.flatnonzero, since np.nonzero on the (T, M) array takes 1.5 times as long.
    flat = np.flatnonzero(probs)
    trial, bins = np.divmod(flat, M)
    counts = np.bincount(trial, minlength=len(probs))
    return bins / M, probs.reshape(-1)[flat], counts, np.cumsum(counts) - counts


def _rows(observed: tuple, trials: np.ndarray) -> tuple[np.ndarray, ...]:
    """Kernel rows, one per entry of trials: their entries' bin phases, p and rows, row starts.

    Every pmf has an entry, and a sum over a row is np.add.reduceat over its
    own entries, in order, so it never depends on the other rows.
    """
    bin_phases, p, counts, first = observed
    lengths = counts[trials]
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(trials)), lengths)
    entry = np.arange(owner.size) + (first[trials] - starts)[owner]
    return bin_phases[entry], p[entry], owner, starts


def _slope(rows: tuple, theta: np.ndarray, M: int, curv: bool = False) -> tuple[np.ndarray, ...]:
    """(f',), or with curv (f', f''), at the phases theta of the kernel rows.

    f' = S' - 2 sum_obs p_y P'_y is the derivative of the SSR over all M bins.
    """
    bin_phases, p, owner, starts = rows
    dP = _pmf_kernel(bin_phases, theta, M, pmf=False, grad=True, curv=curv, rows=owner)
    return tuple(
        dS - 2.0 * np.add.reduceat(np.multiply(d, p, out=d), starts)
        for d, dS in zip(dP if curv else (dP,), _pmf_square_sum(theta, M, curv=curv)[1:])
    )


def _ssr(rows: tuple, theta: np.ndarray, M: int) -> np.ndarray:
    """The SSR over all M bins at the phases theta of the kernel rows.

    The empty bins' share is max(S - sum_obs P^2, 0), from the closed form of S.
    """
    bin_phases, p, owner, starts = rows
    P = _pmf_kernel(bin_phases, theta, M, rows=owner)
    rest = _pmf_square_sum(theta, M)[0] - np.add.reduceat(np.square(P), starts)
    return np.add.reduceat(np.square(P - p), starts) + np.maximum(rest, 0.0)


def _single_rows(probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fit one phase to each row of a (T, M) chunk of pmfs; no row depends on the others.

    Each trial's box is built on its top bin y0, ties to the lower index.
    f', f'' and the SSR are evaluated on kernel rows (_rows), each a
    (trial, phase) pair, one kernel call per batch of rows. A row's
    iterations count its evaluations of f', and its status is "xtol" or
    "maxiter". A trial whose f' is not finite at some scan node fails alone
    (status "nonfinite"). A histogram symmetric about y0,
    p[(2 y0 - y) mod M] == p[y] for every y, holds mirror minima y0 +- delta
    of equal SSR in exact arithmetic, so rounding would pick its winner; the
    later start wins it by rule. A one-hot pmf, the indicator of y0, equals
    P(y0 / M): its row is y0 / M with SSR 0, 0 iterations, status "exact"
    and corner 1 ("right"), the tie of two starts at SSR 0, and it is not
    searched: Newton steps converge only linearly in its quartic basin.

    Returns per-trial arrays in trial order: the winning start's phase,
    wrapped into [0, 1), its SSR, iterations, convergence and status; its
    corner, 0 for the left start and 1 for the right, or -1 where the trial
    failed (that row keeps the right start's values); and y0.
    """
    T, M = probs.shape
    trials = np.arange(T)
    top = np.argmax(probs, axis=1)
    observed = _observed(probs)
    # One-hot: one nonzero bin, holding 1.0. A top bin of 1.0 alone would
    # not do, since (k - 1) / k rounds to 1.0 past k = 2**53.
    exact = (probs[trials, top] == 1.0) & (observed[2] == 1)
    # Mirror: p[(2 y0 - y) mod M] == p[y] for every y. The O(M) comparison
    # runs only on rows whose two neighbours of y0 agree.
    mirror = probs[trials, (top - 1) % M] == probs[trials, (top + 1) % M]
    if mirror.any():
        (screened,) = mirror.nonzero()
        reflected = (2 * top[screened, None] - np.arange(M)) % M
        mirror[screened] = (probs[screened[:, None], reflected] == probs[screened]).all(axis=1)
    # f' at the scan nodes, inward from both ends of each box: the four outer
    # nodes a side for every trial, the inner ones only where a start has met
    # no sign change yet. One-hot trials are not scanned; a non-finite f'
    # fails a trial.
    nodes = (top[:, None] + SCAN_NODES) / M
    f = np.zeros(nodes.shape)
    scan = ~exact
    for columns in (np.abs(SCAN_NODES) > 0.1, np.abs(SCAN_NODES) < 0.1):
        if (cells := scan[:, None] & columns).any():
            f[cells] = _slope(_rows(observed, cells.nonzero()[0]), nodes[cells], M)[0]
        scan &= ~((f[:, :4] >= 0).any(axis=1) & (f[:, -4:] <= 0).any(axis=1))
    ok = np.isfinite(f).all(axis=1)
    # Each start's bracket between nodes a and b, a == b for a start that
    # stays on a node: the left start descends from lo to the first node
    # where f' >= 0, the right one from hi to the last node where f' <= 0.
    last = SCAN_NODES.size - 1
    pad = np.ones((T, 1), dtype=bool)
    left = np.argmax(np.hstack([f >= 0, pad]), axis=1)
    right = last - np.argmax(np.hstack([pad, f <= 0])[:, ::-1], axis=1)
    right[~ok] = last  # a failed trial's right start stays on hi
    a_node = np.stack([np.maximum(left - 1, 0), np.maximum(right, 0)], axis=1)
    b_node = np.stack([np.minimum(left, last), np.minimum(right + 1, last)], axis=1)
    x = np.take_along_axis(nodes, a_node, axis=1)
    iterations = np.zeros((T, 2), dtype=int)
    converged = np.ones((T, 2), dtype=bool)
    solve = (a_node < b_node) & (ok & ~exact)[:, None]
    tr = solve.nonzero()[0]
    a, b = a_node[solve], b_node[solve]
    xa, xb, fa, fb = nodes[tr, a], nodes[tr, b], f[tr, a], f[tr, b]
    x[solve], iterations[solve], converged[solve] = _refine(
        np.clip(xa - fa * ((xb - xa) / (fb - fa)), xa, xb), xa, xb,
        STOP_ULPS * np.spacing(nodes[tr, last]), lambda running: _rows(observed, tr[running]), M,
    )

    ssr = np.full((T, 2), np.nan)
    ssr[ok] = _ssr(_rows(observed, np.repeat(ok.nonzero()[0], 2)), x[ok].ravel(), M).reshape(-1, 2)
    x[exact], ssr[exact] = (top[exact] / M)[:, None], 0.0
    # The lower SSR wins; an exact tie, such as both starts on one point or
    # a one-hot row, and a mirror row go to the right start.
    corner = np.where(mirror | ~(ssr[:, 0] < ssr[:, 1]), 1, 0)
    won = (trials, corner)
    status = np.where(converged[won], "xtol", "maxiter").astype("<U9")
    status[exact], status[~ok], corner[~ok] = "exact", "nonfinite", -1
    return np.mod(x[won], 1.0), ssr[won], iterations[won], converged[won] & ok, status, corner, top


def _refine(x, a, b, tol, rows, M: int):
    """Roots of f' in the brackets [a, b] from the points x, by Newton steps with bisection.

    f' <= 0 at a and >= 0 at b. Every evaluation of f' and f'' moves one
    end of the bracket onto the point, on the side its f' says; a Newton
    step that leaves the bracket, or a curvature that is not positive,
    gives way to bisection. A problem stops when its step or its bracket is
    at most tol, when two Newton steps in a row predict a remaining error
    under SETTLED * tol, or after MAX_STEPS evaluations. Only the running
    problems are evaluated, on the kernel rows rows(running). Returns each
    problem's root, evaluation count and convergence flag.
    """
    root, converged = x.copy(), np.zeros(len(x), dtype=bool)
    steps = np.full(len(x), MAX_STEPS)
    running = np.arange(len(x))
    segs = rows(running)
    previous = np.zeros(len(x))
    for step in range(1, MAX_STEPS + 1):
        if not running.size:
            break
        g, curvature = _slope(segs, x, M, curv=True)
        a = np.where(g < 0, x, a)
        b = np.where(g > 0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - g / curvature
        inside = (curvature > 0) & (a <= newton) & (newton <= b)
        newton = np.where(inside, newton, 0.5 * (a + b))
        size = np.abs(newton - x)
        # Two Newton steps in a row converging quadratically, s' = C s^2,
        # leave C s'^2 = s'^3 / s^2 to go after the second.
        settled = inside & (size**3 <= SETTLED * tol * previous**2)
        stop = (size <= tol) | (b - a <= tol) | settled
        previous = np.where(inside, size, 0.0)
        done = running[stop]
        root[done], steps[done], converged[done] = newton[stop], step, True
        x = newton
        if stop.any():
            keep = ~stop
            running, x, a, b, tol = running[keep], x[keep], a[keep], b[keep], tol[keep]
            previous = previous[keep]
            segs = rows(running)
    root[running] = x
    return root, steps, converged


def _fit(reg: RegisterSpec, pmfs) -> tuple[np.ndarray, ...]:
    """_single_rows's arrays for an iterable of (M,) pmfs, searched a chunk at a time.

    pmfs is read in chunks of max(1, BATCH_ELEMENTS // (2 M)) trials, so a
    campaign holds one chunk's pmfs however many trials it streams through.
    """
    pmfs = iter(pmfs)
    chunks = []
    while chunk := list(itertools.islice(pmfs, max(1, BATCH_ELEMENTS // (2 * reg.M)))):
        chunks.append(_single_rows(np.array(chunk)))
    return tuple(map(np.concatenate, zip(*chunks)))


def _result(M: int, x: np.ndarray, bins: np.ndarray, ssr, start_used: str, iterations,
            converged) -> FitResult:
    """The FitResult of a winning start's (2J - 1,) parameters x, phases wrapped and ascending.

    bins holds the J top bins the start's box was built on, in the order of
    its phases.
    """
    J = len(bins)
    thetas = np.mod(x[:J], 1.0)
    ascending = np.argsort(thetas, kind="stable")
    lo = (bins[ascending] - 0.5) / M % 1.0
    hi = (bins[ascending] + 0.5) / M % 1.0
    return FitResult(
        phases=tuple(thetas[ascending].tolist()),
        weights=tuple(_weights(x[np.newaxis], J)[0, ascending].tolist()),
        residual_variance=float(ssr) / max(M - (2 * J - 1), 1),
        start_used=start_used,
        iterations=int(iterations),
        converged=bool(converged),
        bounds=tuple(map(FitBounds, lo.tolist(), hi.tolist())),
    )


def fit_single(dist: OutcomeDistribution) -> FitResult:
    """Recover one phase from an observed distribution.

    Descends from both ends of the half-bin interval around the argmax bin
    to a root of the SSR's derivative and keeps the end with the lower SSR;
    an exact tie, and a histogram symmetric about its argmax bin, goes to
    the later, right start. At n = 1, theta and 1 - theta give the same
    distribution, so the fit returns one of two equal minima: the one from
    the right start. A pmf on which f' is not finite at a scan node, such
    as one holding NaN, fails both starts (FitError).
    """
    phase, ssr, iterations, converged, _, (corner,), top = _fit(dist.reg, [dist.probs])
    if corner < 0:
        raise FitError("all starts failed: " + "; ".join(
            f"{side}: f' not finite at a scan node" for side in ("left", "right")
        ))
    start_used = ("left", "right")[corner]
    return _result(dist.reg.M, phase, top, ssr[0], start_used, iterations[0], converged[0])


def fit_multi(dist: OutcomeDistribution, J: int) -> FitResult:
    """Recover J phases and their weights from an observed distribution.

    Starts are the 2**J corner combinations of the per-phase half-bin
    intervals around the J highest-probability bins (ties to the lower
    index), nudged strictly inside, with uniform weights. J is at most
    MAX_PHASES, so at most 256 starts; they are solved in calls of at most
    max(1, BATCH_ELEMENTS // M) starts. The solve with the lowest SSR
    wins, an exact tie going to the later start; FitError names every
    corner when every start's residual is non-finite.
    """
    J = _check_int(J, "J", 2, MAX_PHASES)
    M = dist.reg.M
    p = 2 * J - 1
    if p >= M:
        raise DomainError(f"{p} free parameters but only {M} outcome bins")
    nonzero = int(np.count_nonzero(dist.probs))
    if nonzero < J:
        raise DomainError(f"J = {J} phases but only {nonzero} nonzero bins")
    bins = np.argsort(-dist.probs, kind="stable")[:J]
    lo, hi = (bins - 0.5) / M, (bins + 0.5) / M
    corners = list(itertools.product("LR", repeat=J))
    nudge = NUDGE / M
    start = np.concatenate([
        np.where(np.array(corners) == "R", hi - nudge, lo + nudge),
        np.full((len(corners), J - 1), 1.0 / J),
    ], axis=1)
    lower = np.concatenate([lo, np.zeros(J - 1)])
    upper = np.concatenate([hi, np.ones(J - 1)])
    residual, jacobian = _problem(dist.reg, J, dist.probs)
    size = max(1, BATCH_ELEMENTS // M)
    results = [
        least_squares_box(residual, jacobian, start[first:first + size], lower, upper)
        for first in range(0, len(start), size)
    ]
    x, ssr, iterations, converged, status = (
        np.concatenate([getattr(result, name) for result in results])
        for name in ("x", "ssr", "iterations", "converged", "status")
    )
    failed = status == "nonfinite"
    if failed.all():
        raise FitError("all starts failed: " + "; ".join(
            f"corner {''.join(c)}: non-finite residual at the starting point" for c in corners
        ))
    # The lowest SSR wins; argmin over the reversed starts gives a tie to the later one.
    won = len(start) - 1 - int(np.argmin(np.where(failed, np.inf, ssr)[::-1]))
    label = "corner " + "".join(corners[won])
    return _result(M, x[won], bins, ssr[won], label, iterations[won], converged[won])
