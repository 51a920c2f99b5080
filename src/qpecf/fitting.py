"""Phase recovery: bounded least-squares fits of the analytic outcome model.

Every fit follows the post-processing recipe: take the J highest-probability
bins as coarse guesses, constrain each phase to half a bin either side of
its bin, run the bounded solver from the corners of that box (nudged
strictly inside), and keep the solve with the lowest sum of squared
residuals (SSR); an exact tie goes to the later start, and so does a
single-phase histogram symmetric about its top bin. The single-phase fit
is the J = 1 case, started from the left and the right end of its interval.

A single-phase fit is a coarse solve and a polish. The solver stops each
start at a step norm of COARSE_XTOL = 1e-5 bins (1e-5 / M in phase), where
fits with J >= 2 keep the solver's XTOL = 1e-12. Then POLISH_STEPS = 2
Newton steps on the derivative of the SSR over all M bins,

    f'(theta) = S'(theta) - 2 sum_obs p_y P'_y(theta),

take every start to the root of f' (_polish). S = sum_y P_y^2 has a closed
form (pmf._pmf_square_sum), so a step costs O(observed bins) at any n. The
winner is picked by each start's SSR at its polished point. Both choices
were measured, against the roots that 6 Newton steps reach after a solve to
1e-11 bins:

* with the tolerance in bins, every register size starts Newton equally
  close: the coarse solves ended within 3.4e-6 bins of the root on
  configs/full_grid.json (n = 2-8) and within 5.6e-7 bins on readouts of
  10**5 shots at n = 16-20. A tolerance of 1e-8 bins would cost 39 % more
  solver iterations on the full grid, and 1e-4 bins leaves the first Newton
  step 2.4e-10 bins short;
* the second step moves no full-grid estimate by more than 1.9e-12 bins,
  and a third by more than one float64 spacing of the phase (1.4e-14 bins
  at n = 8); on the readouts neither moves anything.

The polished fits are the float64 minimisers: the single-phase pinned
cases at n = 2-8 lie within 3.9e-15 bins of their 50-digit minimisers
(tests/test_fitting.py::TestPinnedEstimates::
test_single_phase_fits_sit_on_their_minimisers asserts 5e-15), 91 sampled
full-grid trials within 6.0e-15 bins, and an n = 17 fit on observed bins
lies within half a float64 spacing of its minimiser (TestObservedBins::
test_observed_bin_fit_is_float64_accurate). The solver alone stopped up to
2.7e-11 bins short at n <= 8, and up to 5.6e-9 bins at n >= 16.

The recipe has one exception: a single-phase pmf with all its mass in one
bin y0 is P(y0 / M) itself, so its fit is y0 / M with SSR 0, and no solver
runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .model import MAX_PHASES, OutcomeDistribution, RegisterSpec, _check_int
from .pmf import _pmf_kernel, _pmf_square_sum
from .solver import XTOL, SolverResult, _dot, least_squares_box

# Starts sit this fraction of a bin width inside the bounds; the solver
# requires strict interiority while the recipe starts exactly at the bounds.
NUDGE = 1e-9
# A solver call holds at most max(1, BATCH_ELEMENTS // M) problems, which
# bounds its (problems, M) arrays: at n = 8, the two starts of 128 trials.
# Only a trial whose starts alone exceed the cap (J = 5 at n = 14) is split
# across calls. On one process of a 2-vCPU VM, medians of 10 alternating
# rounds: configs/full_grid.json took 6.5 s at 2**14, 5.4 s at 2**16
# (quartiles 5.1-5.7 s), 5.0 s at 2**18 and 5.3 s at 2**22, and
# campaign_few's grid 0.45-0.52 s at all four.
BATCH_ELEMENTS = 2**16
# Single-phase fits from this register size up run one trial, both starts,
# per solver call, on its observed bins (_observed_problem); every other
# problem keeps the dense residual of _problem, whatever BATCH_ELEMENTS is.
OBSERVED_MIN_N = 16
# Single-phase solves stop at a step norm of COARSE_XTOL bins, and
# POLISH_STEPS Newton steps on the SSR's derivative take them from there.
COARSE_XTOL = 1e-5
POLISH_STEPS = 2


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
    weight is not box-constrained. J = 1 has no free weight, and its
    residual and Jacobian are one kernel call each. For J >= 2 the
    components of all problems are one (B, J, 1) phase array: the residual
    is one kernel call summed over the component axis, and the Jacobian one
    kernel call for P and dP/dtheta together, whatever J is.

    Every bin is evaluated, so each iteration costs O(M); _fit uses
    _observed_problem instead for single-phase problems at
    n >= OBSERVED_MIN_N.
    """
    M = reg.M
    bin_phases = np.arange(M) / M
    S = 2**J

    if J == 1:

        def residual(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
            P = _pmf_kernel(bin_phases, params[:, :1], M)
            return np.subtract(P, probs[rows // S], out=P)

        def jacobian(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
            return _pmf_kernel(bin_phases, params[:, :1], M, pmf=False, grad=True)[:, :, None]

        return residual, jacobian

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


def _observed_problem(reg: RegisterSpec, bins: np.ndarray, p: np.ndarray):
    """Single-phase residual and Jacobian on the bins of one pmf that hold counts.

    The residual is P - p on the observed bins plus one lumped entry
    t = sqrt(max(S - sum_obs P^2, 0)), where S = sum_y P_y^2 over all M bins
    has a closed form (pmf._pmf_square_sum). Its square is the SSR of the
    empty bins, so r . r is the dense SSR and the minimiser is the same,
    while an evaluation costs O(observed bins), not O(M). The Jacobian of t
    is (S' - 2 sum_obs P P') / (2t), set to 0 where t = 0; t is dropped when
    every bin is observed, where it is identically 0 and its derivative
    0/0. bins and p are one pmf's nonzero bins and their probabilities,
    shared by every problem of the call, the starts of one trial, so both
    callables ignore their rows argument.

    _fit uses it only at n >= OBSERVED_MIN_N, one trial per solver call.
    Used on every register, it failed two ways: one set of observed bins
    per batched call tied a trial's result to its batchmates (all three
    mirror-tie cases of tests/test_bench.py moved); and the ~1e-16 absolute
    rounding floor of S - sum_obs P^2 limits the resolution to about 1e-8
    over the root of the Gauss-Newton curvature, which shrinks as 1/M (about
    1e-14 at n >= 16), and moved two pinned fits by 2.9e-12 and 1.2e-10
    (n = 5 and 7). That floor left solves at n >= 16 up to 5.6e-9 bins from
    the minimiser. It no longer reaches the estimate: the solve here is the
    coarse one, and _polish finds the root of f' = S' - 2 sum_obs p P',
    whose rounding error is about 1e-16 M against a curvature of order M^2.
    The n = 17 fit of TestObservedBins::test_observed_bin_fit_is_float64_accurate
    lies within half a float64 spacing of its 50-digit minimiser.
    """
    M = reg.M
    bin_phases = bins / M
    m = bins.size
    lumped = m < M

    def lumped_entry(P: np.ndarray, theta: np.ndarray):
        S, dS = _pmf_square_sum(theta, M)
        return np.sqrt(np.maximum(S - (P * P).sum(axis=1), 0.0)), dS

    def residual(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
        P = _pmf_kernel(bin_phases, params[:, :1], M)
        out = np.empty((len(params), m + lumped))
        out[:, :m] = P - p
        if lumped:
            out[:, m] = lumped_entry(P, params[:, 0])[0]
        return out

    def jacobian(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
        P, dP = _pmf_kernel(bin_phases, params[:, :1], M, grad=True)
        out = np.empty((len(params), m + lumped, 1))
        out[:, :m, 0] = dP
        if lumped:
            t, dS = lumped_entry(P, params[:, 0])
            slope = dS - 2.0 * (P * dP).sum(axis=1)
            out[:, m, 0] = np.divide(slope, 2.0 * t, out=np.zeros_like(t), where=t > 0)
        return out

    return residual, jacobian


def _polish(reg: RegisterSpec, trial, bins, p, theta, lower, upper) -> np.ndarray:
    """Newton steps on f' = S' - 2 sum_obs p_y P'_y, the SSR's derivative, from each J = 1 start.

    trial, bins and p list a call's observed entries in row-major order of
    its (T, M) pmfs; theta, lower and upper hold its 2 T problems' phases
    and boxes, problem r from trial r // 2. S' is the closed form of
    pmf._pmf_square_sum, so f' is the dense SSR's derivative in
    O(observed bins). f'' is the forward difference of f' over 1e-7 / M,
    each step is clipped to its box, and a start whose f'' is not positive
    keeps its point.

    The kernel runs on one row per problem, each trial's observed bins
    padded to the call's longest row, since a per-element phase costs it
    four times as much per element. The sum leaves the padding out: each
    problem sums its own trial's entries alone, in bin order (np.add.reduceat
    over its segment), so a point never depends on its batchmates.
    """
    M = reg.M
    P = len(theta)
    counts = np.bincount(trial, minlength=P // 2)
    column = np.arange(trial.size) - (np.cumsum(counts) - counts)[trial]
    phases = np.zeros((P // 2, counts.max()))
    weights = np.zeros_like(phases)
    phases[trial, column], weights[trial, column] = bins / M, p
    # Rows 0..P-1 evaluate f' at theta, rows P..2P-1 at theta + h.
    rows = np.arange(2 * P) % P // 2
    phases, weights, lengths = phases[rows], weights[rows], counts[rows]
    observed = np.arange(phases.shape[1]) < lengths[:, None]
    first = np.cumsum(lengths) - lengths
    h = 1e-7 / M
    for _ in range(POLISH_STEPS):
        at = np.concatenate([theta, theta + h])
        dP = _pmf_kernel(phases, at[:, None], M, pmf=False, grad=True)
        terms = np.multiply(weights, dP, out=dP)[observed]
        slope = _pmf_square_sum(at, M)[1] - 2.0 * np.add.reduceat(terms, first)
        curvature = (slope[P:] - slope[:P]) / h
        step = np.divide(slope[:P], curvature, out=np.zeros(P), where=curvature > 0)
        theta = np.minimum(np.maximum(theta - step, lower), upper)
    return theta


def _corner_label(corner: tuple[int, ...]) -> str:
    if len(corner) == 1:
        return ("left", "right")[corner[0]]
    return "corner " + "".join("LR"[c] for c in corner)


def _fit(reg: RegisterSpec, pmfs, J: int) -> tuple[SolverResult, np.ndarray, np.ndarray]:
    """Fit J phases and their weights to each of an iterable of (M,) pmfs.

    Each trial's solver runs from the 2**J corners of its phase box, nudged
    inside, with uniform weights; the finite solve with the lowest SSR wins,
    and an exact SSR tie goes to the later start. pmfs is read one solver
    call at a time, and a call holds whole trials: as many as fit in
    max(1, BATCH_ELEMENTS // M) problems, or one trial whose starts are
    split across calls where its 2**J starts alone exceed that. So a
    campaign holds one call's pmfs, however many trials it streams through.
    Problem t * 2**J + c of a call starts trial t from corner c; a split
    trial's problems all lie below 2**J, so _problem reads them trial 0.

    A single-phase trial at n >= OBSERVED_MIN_N is solved alone, both starts
    in one call, and fit on its observed bins (_observed_problem), in
    O(observed bins) per iteration; its SSR is still over all M bins.
    Smaller registers, and every J >= 2, keep the dense residual of
    _problem; _observed_problem gives the two ways its form failed there.

    A single-phase histogram symmetric about its top bin y0,
    p[(2 y0 - y) mod M] == p[y] for every y, holds mirror minima y0 +- delta
    of equal SSR in exact arithmetic, so rounding would pick its winner; the
    later start wins it by rule, unless that start failed.

    One-hot trials are the exception: a single-phase pmf that is the
    indicator of one bin y0 equals P(y0 / M), so its row is the exact
    minimiser, x = y0 / M with SSR 0, and it gets no solver problem. Its
    basin is quartic, and each start would take 20-73 iterations to stop
    short of y0 / M. The row has 0 iterations, is converged, has status
    "exact", which no solve returns, and has corner 2**J - 1 ("right"): both
    starts would reach SSR 0, and the tie goes to the later one.

    A single-phase solve is the coarse one, to COARSE_XTOL bins, and every
    start that did not fail is polished (_polish) before the winner is
    picked by its SSR over all M bins at the polished point: one dense
    residual pass below OBSERVED_MIN_N, the lumped form of
    _observed_problem from there on.

    Returns one row per trial, in trial order: the winning start's solve
    (x with its phases wrapped into [0, 1), SSR, iterations, convergence
    and status), its corner index into itertools.product((0, 1), repeat=J), or
    -1 where every start failed (that row keeps the last start's values),
    and the (T, J) top bins its box was built on.
    """
    M = reg.M
    nudge = NUDGE / M
    corners = np.array(list(itertools.product((0, 1), repeat=J)), dtype=bool)
    S = len(corners)
    observed_bins = J == 1 and reg.n >= OBSERVED_MIN_N
    size = S if observed_bins else max(1, BATCH_ELEMENTS // M)
    xtol = COARSE_XTOL / M if J == 1 else XTOL

    def solve(probs: np.ndarray, bins: np.ndarray, mirror: np.ndarray) -> tuple[np.ndarray, ...]:
        """The winning start's x, SSR, iterations, convergence, status and corner of each trial."""
        T = len(probs)
        lo = (bins - 0.5) / M
        hi = (bins + 0.5) / M
        phase_start = np.where(corners[None], hi[:, None] - nudge, lo[:, None] + nudge)
        start = np.concatenate(
            [phase_start.reshape(T * S, J), np.full((T * S, J - 1), 1.0 / J)], axis=1
        )
        lower = np.repeat(np.concatenate([lo, np.zeros((T, J - 1))], axis=1), S, axis=0)
        upper = np.repeat(np.concatenate([hi, np.ones((T, J - 1))], axis=1), S, axis=0)
        if J == 1:
            # np.flatnonzero, since np.nonzero on the (T, M) array takes 1.5 times as long.
            flat = np.flatnonzero(probs)
            trial, observed = np.divmod(flat, M)
            p = probs.reshape(-1)[flat]
        residual, jacobian = (
            _observed_problem(reg, observed, p) if observed_bins else _problem(reg, J, probs)
        )
        results = [
            least_squares_box(residual, jacobian, start[b], lower[b], upper[b], xtol=xtol)
            for b in (slice(first, first + size) for first in range(0, T * S, size))
        ]
        x, ssr, iterations, converged, status = (
            np.concatenate([getattr(result, name) for result in results])
            for name in ("x", "ssr", "iterations", "converged", "status")
        )
        if J == 1:
            # Polish every start that did not fail, then re-rank by the SSR over all M bins.
            ok = status != "nonfinite"
            x[ok, 0] = _polish(reg, trial, observed, p, x[:, 0], lower[:, 0], upper[:, 0])[ok]
            r = residual(x[ok], np.flatnonzero(ok))
            ssr[ok] = _dot(r, r)
        # The lowest SSR wins; argmin over the reversed starts gives a tie to the later one.
        # A mirror row goes to the later start whenever that start did not fail.
        failed = (status == "nonfinite").reshape(T, S)
        key = np.where(failed, np.inf, ssr.reshape(T, S))
        key[mirror & ~failed[:, -1], :-1] = np.inf
        corner = S - 1 - np.argmin(key[:, ::-1], axis=1)
        won = np.arange(T) * S + corner
        corner[failed.all(axis=1)] = -1
        return x[won], ssr[won], iterations[won], converged[won], status[won], corner

    pmfs = iter(pmfs)
    rows = []
    while chunk := list(itertools.islice(pmfs, max(1, size // S))):
        probs = np.array(chunk)
        T = len(probs)
        bins = _top_bins(probs, J)
        exact = np.zeros(T, dtype=bool)
        mirror = np.zeros(T, dtype=bool)
        if J == 1:
            trials, top = np.arange(T), bins[:, 0].astype(int)
            # One-hot: one nonzero bin, holding 1.0. A top bin of 1.0 alone
            # would not do, since (k - 1) / k rounds to 1.0 past k = 2**53;
            # the O(M) count runs only where some top bin is 1.0.
            exact = probs[trials, top] == 1.0
            if exact.any():
                exact &= np.count_nonzero(probs, axis=1) == 1
            # Mirror: p[(2 y0 - y) mod M] == p[y] for every y. The O(M)
            # comparison runs only on rows whose two neighbours of y0 agree.
            mirror = probs[trials, (top - 1) % M] == probs[trials, (top + 1) % M]
            if mirror.any():
                (screened,) = mirror.nonzero()
                reflected = (2 * top[screened, None] - np.arange(M)) % M
                same = probs[screened[:, None], reflected] == probs[screened]
                mirror[screened] = same.all(axis=1)
        if not exact.any():
            rows.append((*solve(probs, bins, mirror), bins))
            continue
        # The status column takes the solver's dtype, so a solved row's status fits.
        row = (
            bins / M, np.zeros(T), np.zeros(T, dtype=int), np.ones(T, dtype=bool),
            np.full(T, "exact", dtype="<U9"), np.full(T, S - 1),
        )
        # Only a chunk that mixes one-hot and other trials is compacted; at
        # n >= OBSERVED_MIN_N a chunk is one trial, so no O(M) pmf is copied.
        if not exact.all():
            for column, solved in zip(row, solve(probs[~exact], bins[~exact], mirror[~exact])):
                column[~exact] = solved
        rows.append((*row, bins))
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

    Runs the bounded solver from both ends of the half-bin interval around
    the argmax bin and keeps the solve with the lower SSR; an exact tie,
    and a histogram symmetric about its argmax bin, goes to the later, right
    start. At n = 1, theta and 1 - theta give the
    same distribution, so the fit returns one of two equal minima: the one
    from the right start.
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
