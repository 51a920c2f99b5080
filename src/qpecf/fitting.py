"""Phase recovery: bounded least-squares fits of the analytic outcome model.

Every fit follows the post-processing recipe: take the J highest-probability
bins as coarse guesses, constrain each phase to half a bin either side of
its bin, descend from the corners of that box, and keep the end point with
the lowest sum of squared residuals (SSR); an exact tie goes to the later
start, and so does a single-phase histogram symmetric about its top bin.
A fit with J >= 2 runs the bounded solver (solver.least_squares_box) on all
M bins, from the 2**J corners nudged strictly inside.

A single-phase fit is a root search of the SSR's derivative on the bins
that hold counts,

    f'(theta) = S'(theta) - 2 sum_obs p_y P'_y(theta),

which costs O(observed bins) at any n, since S = sum_y P_y^2 has a closed
form (pmf._pmf_square_sum). The top bin y0 / M is always a local maximum of
the SSR: f'(y0 / M) = 0, since P'_y and S' vanish on a bin. f' is scanned
at SCAN_NODES, on each half of the box and denser toward y0, and only as far
inward as a start needs: the left start descends from the lower end to the
first node where f' >= 0, the right one from the upper end to the last node
where f' <= 0, and Newton steps refine each bracket (_refine). The SSR over all M bins, sum_obs (P - p)^2 +
max(S - sum_obs P^2, 0), picks the winner.

The fits are the float64 minimisers: the single-phase pinned cases at
n = 2-8 lie within 3.9e-15 bins of their 50-digit minimisers
(tests/test_fitting.py::TestPinnedEstimates::
test_single_phase_fits_sit_on_their_minimisers asserts 5e-15), and an
n = 17 fit within half a float64 spacing (TestObservedBins::
test_observed_bin_fit_is_float64_accurate). Against the solve-and-polish
path it replaced, no estimate of configs/full_grid.json or of the perfbench
campaigns changed basin or moved by more than 1.4e-14 bins.

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
from .solver import SolverResult, least_squares_box

# Starts sit this fraction of a bin width inside the bounds; the solver
# requires strict interiority while the recipe starts exactly at the bounds.
NUDGE = 1e-9
# A chunk of _fit holds the trials of max(1, BATCH_ELEMENTS // M) problems of
# 2**J starts each, at least one trial, which bounds its (trials, M) pmfs and a
# solver call's (problems, M) arrays: at n = 8, the two starts of 128 trials.
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


def _top_bins(probs: np.ndarray, J: int) -> np.ndarray:
    """Each row's J most probable outcomes in descending order, ties to the lower index."""
    if J == 1:
        # A full sort of every row would slow the large-register readouts.
        return np.argmax(probs, axis=1)[:, None].astype(float)
    return np.argsort(-probs, axis=1, kind="stable")[:, :J].astype(float)


def _weights(params: np.ndarray, J: int) -> np.ndarray:
    """All J weights of each row of (B, p) parameters; the last is 1 minus the free ones."""
    w = np.empty((len(params), J))
    w[:, : J - 1] = params[:, J:]
    w[:, J - 1] = 1.0 - params[:, J:].sum(axis=1)
    return w


def _problem(reg: RegisterSpec, J: int, probs: np.ndarray):
    """Batched residual and Jacobian over [theta_1..theta_J, w_1..w_{J-1}].

    probs holds the call's (T, M) trial pmfs, and problem row r fits trial
    r // 2**J, the layout _fit builds: trial t from each of its 2**J starts.
    Both callables take (a, p) parameters and the rows of the batch they
    belong to, as least_squares_box passes them; the residual returns
    (a, M) residuals and the Jacobian (a, M, p). Phases are in the unwrapped
    local coordinate of their intervals. The last weight is 1 minus the free
    weights, so weights sum to 1 by construction; for J >= 3 that trailing
    weight is not box-constrained. The components of all problems are one
    (B, J, 1) phase array: the residual is one kernel call summed over the
    component axis, and the Jacobian one kernel call for P and dP/dtheta
    together, whatever J is. Every bin is evaluated, so each iteration
    costs O(M). J >= 2 only: a single-phase fit runs no solver.
    """
    M = reg.M
    bin_phases = np.arange(M) / M
    S = 2**J

    def residual(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
        P = _pmf_kernel(bin_phases, params[:, :J, None], M)
        return (_weights(params, J)[:, :, None] * P).sum(axis=1) - probs[rows // S]

    def jacobian(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
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


def _single_rows(reg: RegisterSpec, probs: np.ndarray, top: np.ndarray):
    """The winning start's x, SSR, iterations, convergence, status and corner of each J = 1 trial.

    top holds each trial's top bin. f', f'' and the SSR are evaluated on
    kernel rows (_rows), each a (trial, phase) pair, one call per batch.
    """
    M = reg.M
    T = len(probs)
    trials = np.arange(T)
    # One-hot: one nonzero bin, holding 1.0. A top bin of 1.0 alone would
    # not do, since (k - 1) / k rounds to 1.0 past k = 2**53; the O(M)
    # count runs only where some top bin is 1.0.
    exact = probs[trials, top] == 1.0
    if exact.any():
        exact &= np.count_nonzero(probs, axis=1) == 1
    # Mirror: p[(2 y0 - y) mod M] == p[y] for every y. The O(M) comparison
    # runs only on rows whose two neighbours of y0 agree.
    mirror = probs[trials, (top - 1) % M] == probs[trials, (top + 1) % M]
    if mirror.any():
        (screened,) = mirror.nonzero()
        reflected = (2 * top[screened, None] - np.arange(M)) % M
        mirror[screened] = (probs[screened[:, None], reflected] == probs[screened]).all(axis=1)
    observed = _observed(probs)
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
    return x[won][:, None], ssr[won], iterations[won], converged[won] & ok, status, corner


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


def _corner_label(corner: tuple[int, ...]) -> str:
    if len(corner) == 1:
        return ("left", "right")[corner[0]]
    return "corner " + "".join("LR"[c] for c in corner)


def _fit(reg: RegisterSpec, pmfs, J: int) -> tuple[SolverResult, np.ndarray, np.ndarray]:
    """Fit J phases and their weights to each of an iterable of (M,) pmfs.

    pmfs is read one chunk at a time (BATCH_ELEMENTS), so a campaign holds
    one chunk's pmfs however many trials it streams through. A row never
    depends on the other trials of its chunk.

    For J >= 2 a solver call holds at most that many problems, so a trial
    whose 2**J starts alone exceed the cap is split across calls. Problem
    t * 2**J + c of a call starts trial t from corner c; a split trial's
    problems all lie below 2**J, so _problem reads them trial 0.

    A single-phase chunk is searched by _single_rows; a row's iterations
    count its evaluations of f', and its status is "xtol" or "maxiter". A
    trial whose f' is not finite at some scan node fails alone (status
    "nonfinite"). A single-phase histogram symmetric about its top bin y0,
    p[(2 y0 - y) mod M] == p[y] for every y, holds mirror minima y0 +- delta
    of equal SSR in exact arithmetic, so rounding would pick its winner; the
    later start wins it by rule. A one-hot pmf, the indicator of one bin y0,
    equals P(y0 / M): its row is x = y0 / M with SSR 0, 0 iterations, status
    "exact" and corner 1 ("right"), the tie of two starts at SSR 0, and it
    is not searched: Newton steps converge only linearly in its quartic basin.

    Returns one row per trial, in trial order: the winning start's result
    (x with its phases wrapped into [0, 1), SSR, iterations, convergence
    and status), its corner index into itertools.product((0, 1), repeat=J), or
    -1 where every start failed (that row keeps the last start's values),
    and the (T, J) top bins its box was built on.
    """
    M = reg.M
    nudge = NUDGE / M
    corners = np.array(list(itertools.product((0, 1), repeat=J)), dtype=bool)
    S = len(corners)
    size = max(1, BATCH_ELEMENTS // M)

    def solve(probs: np.ndarray, bins: np.ndarray) -> tuple[np.ndarray, ...]:
        """The winning start's x, SSR, iterations, convergence, status and corner of each trial."""
        if J == 1:
            return _single_rows(reg, probs, bins[:, 0].astype(int))
        T = len(probs)
        lo = (bins - 0.5) / M
        hi = (bins + 0.5) / M
        phase_start = np.where(corners[None], hi[:, None] - nudge, lo[:, None] + nudge)
        start = np.concatenate(
            [phase_start.reshape(T * S, J), np.full((T * S, J - 1), 1.0 / J)], axis=1
        )
        lower = np.repeat(np.concatenate([lo, np.zeros((T, J - 1))], axis=1), S, axis=0)
        upper = np.repeat(np.concatenate([hi, np.ones((T, J - 1))], axis=1), S, axis=0)
        residual, jacobian = _problem(reg, J, probs)
        results = [
            least_squares_box(residual, jacobian, start[b], lower[b], upper[b])
            for b in (slice(first, first + size) for first in range(0, T * S, size))
        ]
        x, ssr, iterations, converged, status = (
            np.concatenate([getattr(result, name) for result in results])
            for name in ("x", "ssr", "iterations", "converged", "status")
        )
        # The lowest SSR wins; argmin over the reversed starts gives a tie to the later one.
        failed = (status == "nonfinite").reshape(T, S)
        key = np.where(failed, np.inf, ssr.reshape(T, S))
        corner = S - 1 - np.argmin(key[:, ::-1], axis=1)
        won = np.arange(T) * S + corner
        corner[failed.all(axis=1)] = -1
        return x[won], ssr[won], iterations[won], converged[won], status[won], corner

    pmfs = iter(pmfs)
    rows = []
    while chunk := list(itertools.islice(pmfs, max(1, size // S))):
        probs = np.array(chunk)
        bins = _top_bins(probs, J)
        rows.append((*solve(probs, bins), bins))
    x, ssr, iterations, converged, status, corner, bins = map(np.concatenate, zip(*rows))
    x[:, :J] = np.mod(x[:, :J], 1.0)
    return SolverResult(x, ssr, iterations, converged, status), corner, bins


def _fit_one(dist: OutcomeDistribution, J: int) -> FitResult:
    """The FitResult of one pmf's _fit row, phases ascending; FitError names every failed start."""
    M = dist.reg.M
    best, (corner,), (bins,) = _fit(dist.reg, dist.probs[np.newaxis], J)
    corners = list(itertools.product((0, 1), repeat=J))
    if corner < 0:
        raise FitError("all starts failed: " + "; ".join(
            f"{_corner_label(c)}: non-finite residual at the starting point" for c in corners
        ))
    thetas = best.x[0, :J]
    ascending = np.argsort(thetas, kind="stable")
    lo = (bins[ascending] - 0.5) / M % 1.0
    hi = (bins[ascending] + 0.5) / M % 1.0
    return FitResult(
        phases=tuple(thetas[ascending].tolist()),
        weights=tuple(_weights(best.x, J)[0, ascending].tolist()),
        residual_variance=float(best.ssr[0]) / max(M - (2 * J - 1), 1),
        start_used=_corner_label(corners[corner]),
        iterations=int(best.iterations[0]),
        converged=bool(best.converged[0]),
        bounds=tuple(map(FitBounds, lo.tolist(), hi.tolist())),
    )


def fit_single(dist: OutcomeDistribution) -> FitResult:
    """Recover one phase from an observed distribution.

    Descends from both ends of the half-bin interval around the argmax bin
    to a root of the SSR's derivative and keeps the end with the lower SSR;
    an exact tie, and a histogram symmetric about its argmax bin, goes to
    the later, right start. At n = 1, theta and 1 - theta give the same
    distribution, so the fit returns one of two equal minima: the one from
    the right start.
    """
    return _fit_one(dist, 1)


def fit_multi(dist: OutcomeDistribution, J: int) -> FitResult:
    """Recover J phases and their weights from an observed distribution.

    Starts are the 2**J corner combinations of the per-phase half-bin
    intervals around the J highest-probability bins, with uniform weights;
    the solve with the lowest SSR wins. J is at most MAX_PHASES, so at most
    256 starts.
    """
    J = _check_int(J, "J", 2, MAX_PHASES)
    M = dist.reg.M
    p = 2 * J - 1
    if p >= M:
        raise DomainError(f"{p} free parameters but only {M} outcome bins")
    nonzero = int(np.count_nonzero(dist.probs))
    if nonzero < J:
        raise DomainError(f"J = {J} phases but only {nonzero} nonzero bins")
    return _fit_one(dist, J)
