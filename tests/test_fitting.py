"""Phase recovery by bounded curve fitting: single and multi-phase."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import fd_jacobian, random_phase_model
from hypothesis import given, settings
from hypothesis import strategies as st

from qpecf import fitting
from qpecf.errors import DomainError, FitError
from qpecf.fitting import (
    NUDGE, FitBounds, _fit, _observed, _problem, _rows, _slope, _ssr, fit_multi, fit_single,
)
from qpecf.model import MAX_PHASES, OutcomeDistribution, PhaseModel, RegisterSpec
from qpecf.pmf import (
    _pmf_kernel,
    analytic_distribution,
    pmf_single,
    pmf_vector,
    score,
)
from qpecf.simulate import ShotHistogram, histogram_to_probs, sample_shots
from qpecf.solver import least_squares_box


def exact_dist(n: int, pairs) -> OutcomeDistribution:
    return analytic_distribution(RegisterSpec(n), PhaseModel.from_pairs(pairs))


class TestFitBounds:
    def test_width_is_one_bin(self):
        for n in (2, 3, 5, 8):
            result = fit_single(exact_dist(n, [(1 / 3, 1.0)]))
            assert abs(result.bounds[0].width - 1.0 / 2**n) < 1e-15

    def test_tied_top_bins_go_to_the_lower_index(self):
        # fit_single takes the argmax, fit_multi a stable sort of -p; both
        # give a tie to the lower outcome, and a box is its bin +- half a bin
        probs = np.array([[0.1, 0.4, 0.1, 0.4], [0.3, 0.3, 0.2, 0.2], [0.25] * 4])
        box = {y: FitBounds((y - 0.5) / 4 % 1.0, (y + 0.5) / 4) for y in range(4)}
        for p, single, multi in zip(probs, [1, 0, 0], [{1, 3}, {0, 1}, {0, 1}]):
            tied = OutcomeDistribution(RegisterSpec(2), p)
            assert fit_single(tied).bounds == (box[single],)
            assert set(fit_multi(tied, 2).bounds) == {box[y] for y in multi}
        assert box[1] == FitBounds(0.125, 0.375)

    def test_wrapped_contains(self):
        seam = FitBounds(0.9375, 0.0625)
        assert seam.contains(0.99)
        assert seam.contains(0.01)
        assert not seam.contains(0.5)
        plain = FitBounds(0.3125, 0.4375)
        assert plain.contains(1 / 3)
        assert not plain.contains(0.5)


class TestFitSingle:
    def test_zero_noise_recovery_grid(self):
        for theta in (1 / 3, 1 / 5, 1 / 7, 1 / 9):
            for n in range(2, 9):
                result = fit_single(exact_dist(n, [(theta, 1.0)]))
                assert abs(result.phases[0] - theta) < 1e-9
                assert result.converged
                assert result.weights == (1.0,)

    def test_representable_phase(self):
        result = fit_single(exact_dist(3, [(3 / 8, 1.0)]))
        assert abs(result.phases[0] - 0.375) < 1e-9
        assert result.residual_variance < 1e-18

    def test_wrapped_interval_recovery(self):
        for n in range(2, 9):
            theta = 0.99 + 0.005 / 2**n
            result = fit_single(exact_dist(n, [(theta, 1.0)]))
            assert abs(result.phases[0] - theta) < 1e-9
            assert result.bounds[0].contains(result.phases[0])

    def test_phase_always_inside_bounds(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            dist = exact_dist(n, [(float(rng.random()), 1.0)])
            hist = sample_shots(dist, 500, int(rng.integers(2**31)))
            result = fit_single(histogram_to_probs(hist))
            assert result.bounds[0].contains(result.phases[0])

    def test_start_symmetry_on_exact_representable_data(self):
        # reflecting a pmf about its top bin y0, a representable phase,
        # reflects its f' about y0 / M and swaps the rules of the two
        # starts, so the reflection's fit is the mirror image of the fit
        for n, y, delta in [(2, 1, 0.3), (3, 2, -0.2), (4, 0, 0.2), (5, 10, 0.1), (8, 85, 0.45)]:
            reg = RegisterSpec(n)
            M = reg.M
            probs = pmf_vector(reg, PhaseModel.single((y + delta) / M % 1.0))
            mirrored = probs[(2 * y - np.arange(M)) % M]
            fit, mirror_fit = (fit_single(OutcomeDistribution(reg, p)) for p in (probs, mirrored))
            gap = (fit.phases[0] + mirror_fit.phases[0] - 2 * y / M + 0.5) % 1.0 - 0.5
            assert abs(gap) * M < 1e-12
            assert {fit.start_used, mirror_fit.start_used} == {"left", "right"}

    def test_tie_break_selects_global_basin_on_exact_data(self, monkeypatch):
        # away from a representable phase one start can end in a spurious
        # interior basin; the lower-SSR start is the one that recovers the
        # true phase, which is why fit_single keeps both
        seen = []

        def recording(rows, theta, M):
            ssr = _ssr(rows, theta, M)
            seen.append((theta.copy(), ssr))
            return ssr

        monkeypatch.setattr("qpecf.fitting._ssr", recording)
        for theta, n in [(1 / 3, 3), (1 / 5, 4), (1 / 7, 2)]:
            seen.clear()
            fit = fit_single(exact_dist(n, [(theta, 1.0)]))
            ((ends, ssr),) = seen
            best = int(np.argmin(ssr))
            assert abs(ends[best] - theta) < 1e-9 and abs(ends[1 - best] - theta) > 1e-3
            assert fit.phases[0] == ends[best] % 1.0

    def test_jacobian_is_pmf_times_score(self):
        # the solver's analytic Jacobian holds w_j P(theta_j) d(log P)/d(theta_j)
        # in the column of each phase
        reg = RegisterSpec(3)
        _, jacobian = _problem(reg, 2, np.zeros(reg.M))
        thetas, w = (0.337, 0.58), 0.3
        jac = jacobian(np.array([[*thetas, w]]))[0]
        for y in range(reg.M):
            for j, weight in enumerate((w, 1 - w)):
                want = weight * pmf_single(reg, thetas[j], y) * score(reg, thetas[j], y)
                assert abs(jac[y, j] - want) < 1e-12

    def test_start_used_reported(self):
        result = fit_single(exact_dist(3, [(1 / 3, 1.0)]))
        assert result.start_used in ("left", "right")
        assert result.iterations >= 1

    def test_both_start_failures_surface_as_fit_error(self, monkeypatch):
        # an f' that is NaN at the scan nodes fails the trial, both starts
        def nan_square_sum(theta, M, curv=False):
            return tuple(np.full(np.shape(theta), np.nan) for _ in range(2 + curv))

        monkeypatch.setattr("qpecf.fitting._pmf_square_sum", nan_square_sum)
        with pytest.raises(FitError, match="all starts failed: left: .*; right: ") as failure:
            fit_single(exact_dist(3, [(1 / 3, 1.0)]))
        # the search fails at a scan node; it has no solver starting point
        assert "scan node" in str(failure.value)
        assert "starting point" not in str(failure.value)

    def test_exact_tie_goes_to_the_later_start(self):
        # at n = 1 the two starts reach mirror minima with the same SSR; the
        # right one is kept (the left one ends at 0.39758361765043326)
        result = fit_single(OutcomeDistribution(RegisterSpec(1), np.array([0.1, 0.9])))
        assert result.start_used == "right"
        assert abs(result.phases[0] - 0.6024163823495667) < 1e-12

    @pytest.mark.parametrize(
        "n, counts",
        [
            (2, {0: 2, 1: 6, 2: 2}),
            (3, {1: 1, 2: 1, 3: 6, 4: 1, 5: 1}),
            (4, {4: 1, 5: 8, 6: 1}),
        ],
    )
    def test_a_mirror_histogram_goes_to_the_later_start(self, n, counts):
        # symmetric about its top bin y0, so the box holds mirror minima
        # y0 +- delta of equal SSR; the left start won each of these on
        # rounding before the rule
        y0 = max(counts, key=counts.get)
        result = fit_single(counts_dist(n, counts))
        assert result.start_used == "right"
        assert 0.0 < result.phases[0] * 2**n - y0 < 0.5

    @pytest.mark.parametrize(
        "counts, start_used",
        [({0: 2, 2: 1, 3: 6, 4: 1}, "left"), ({6: 2, 2: 1, 3: 6, 4: 1}, "right")],
    )
    def test_a_screened_row_that_is_not_a_mirror_keeps_the_ssr_rule(self, counts, start_used):
        # both neighbours of y0 = 3 hold one count, but bin 0 (or 6) has no mirror
        assert fit_single(counts_dist(3, counts)).start_used == start_used

    @pytest.mark.parametrize(
        "n, counts, estimate",
        [
            (3, {1: 99, 4: 1}, 1.051336753),
            (6, {7: 99, 17: 1}, 7.050403326),
            (6, {7: 99, 9: 1}, 7.052334477),
            (6, {7: 99, 12: 1}, 7.050637553),
            (3, {1: 99, 5: 1}, 1.051105500),  # a mirror histogram
        ],
    )
    def test_close_minima_keep_the_right_start_minimum(self, n, counts, estimate):
        # both minima and the maximum at y0 between them lie within a
        # tenth of a bin, so a coarse scan of f' puts all three in one
        # bracket; SCAN_NODES crowd toward y0 to keep each start on its own side
        result = fit_single(counts_dist(n, counts))
        assert result.start_used == "right"
        assert abs(result.phases[0] * 2**n - estimate) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
        n=st.integers(2, 4),
        k=st.integers(30, 2000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_never_worse_than_traditional_property(self, theta, n, k, seed):
        reg = RegisterSpec(n)
        dist = analytic_distribution(reg, PhaseModel.single(theta))
        observed = histogram_to_probs(sample_shots(dist, k, seed))
        result = fit_single(observed)
        traditional = (int(np.argmax(observed.probs)) / reg.M) % 1.0
        resid = pmf_vector(reg, PhaseModel.single(traditional)) - observed.probs
        traditional_variance = float(resid @ resid) / (reg.M - 1)
        assert result.residual_variance <= traditional_variance + 1e-15


class TestFitMulti:
    def test_exact_two_phase_recovery(self):
        dist = exact_dist(3, [(1 / 3, 0.5), (0.5, 0.5)])
        result = fit_multi(dist, 2)
        assert abs(result.phases[0] - 1 / 3) < 1e-4
        assert abs(result.phases[1] - 0.5) < 1e-4
        assert abs(result.weights[0] - 0.5) < 1e-3
        assert result.phases[0] < result.phases[1]

    def test_degenerate_second_component(self):
        # single-phase data fitted with J=2: one weight collapses to zero
        result = fit_multi(exact_dist(3, [(1 / 3, 1.0)]), 2)
        dominant = int(np.argmax(result.weights))
        assert abs(result.phases[dominant] - 1 / 3) < 1e-6
        assert abs(result.weights[dominant] - 1.0) < 1e-3

    def test_unequal_weights_recovered(self):
        dist = exact_dist(4, [(0.3, 0.7), (0.62, 0.3)])
        result = fit_multi(dist, 2)
        assert abs(result.phases[0] - 0.3) < 1e-5
        assert abs(result.phases[1] - 0.62) < 1e-5
        assert abs(result.weights[0] - 0.7) < 1e-3
        assert abs(result.weights[1] - 0.3) < 1e-3

    def test_weights_sum_to_one_by_construction(self):
        result = fit_multi(exact_dist(3, [(1 / 3, 0.5), (0.5, 0.5)]), 2)
        assert abs(sum(result.weights) - 1.0) < 1e-15

    def test_result_is_sorted_with_matching_bounds(self):
        result = fit_multi(exact_dist(3, [(1 / 3, 0.5), (0.5, 0.5)]), 2)
        assert list(result.phases) == sorted(result.phases)
        for phase, bounds in zip(result.phases, result.bounds):
            assert bounds.contains(phase)

    def test_domain_errors(self):
        indicator = exact_dist(3, [(3 / 8, 1.0)])
        with pytest.raises(DomainError):
            fit_multi(indicator, 2)  # one nonzero bin cannot support two phases
        dist = exact_dist(3, [(1 / 3, 0.5), (0.5, 0.5)])
        with pytest.raises(DomainError):
            fit_multi(dist, 1)
        with pytest.raises(DomainError):
            fit_multi(exact_dist(1, [(1 / 3, 0.5), (0.61, 0.5)]), 2)  # 3 params, 2 bins

    def test_phase_count_is_capped_before_any_solve(self, monkeypatch):
        # 2**J corner solves of O(M) each: J = 24 at n = 20 would be 16.7 M
        # of them, so J past MAX_PHASES is rejected before the solver is reached
        def no_solve(*args):
            raise AssertionError("solver reached")

        monkeypatch.setattr("qpecf.fitting.least_squares_box", no_solve)
        # a point mass also fails the nonzero-bin rule, so the message must name the cap
        dist = exact_dist(20, [(3 / 2**20, 1.0)])
        for J in (MAX_PHASES + 1, 24):
            with pytest.raises(DomainError, match=f"J must be <= {MAX_PHASES}"):
                fit_multi(dist, J)
        spread = exact_dist(6, [(0.1, 0.5), (0.6, 0.5)])
        with pytest.raises(AssertionError, match="solver reached"):
            fit_multi(spread, MAX_PHASES)

    @staticmethod
    def fail_starts(monkeypatch, corners):
        """Make the residual non-finite at the start points of these corners.

        Every corner shares one solver call at n = 3, so corner i starts from row i.
        """
        solve = fitting.least_squares_box

        def failing(residual, jacobian, start, *args):
            failed = start[list(corners)]

            def broken(params):
                r = residual(params)
                r[(params[:, np.newaxis] == failed).all(axis=2).any(axis=1)] = np.nan
                return r

            return solve(broken, jacobian, start, *args)

        monkeypatch.setattr("qpecf.fitting.least_squares_box", failing)

    def test_a_failing_start_fails_alone_in_its_solver_call(self, monkeypatch):
        # the four corners share one solver call at n = 3; with every start
        # but the winner failed, the winner's fit is unchanged, bit for bit
        exact = exact_dist(3, [(1 / 3, 0.6), (0.7, 0.4)])
        dist = histogram_to_probs(sample_shots(exact, 1000, 1))
        whole = fit_multi(dist, 2)
        labels = ["corner LL", "corner LR", "corner RL", "corner RR"]
        self.fail_starts(monkeypatch, [i for i, c in enumerate(labels) if c != whole.start_used])
        assert fit_multi(dist, 2) == whole

    def test_every_failed_start_surfaces_as_fit_error(self, monkeypatch):
        self.fail_starts(monkeypatch, range(4))
        with pytest.raises(FitError, match="all starts failed: ") as failure:
            fit_multi(exact_dist(3, [(1 / 3, 0.6), (0.7, 0.4)]), 2)
        for corner in ("LL", "LR", "RL", "RR"):
            assert f"corner {corner}: non-finite residual at the starting point" in str(failure.value)

    def test_a_reflected_step_that_wins_is_kept(self):
        # one iteration of this fit takes the reflection of a step that left
        # the box over the clipped point; without reflections it takes 35
        # iterations and its phases move by 1.3e-9. Both boxes sit near one
        # component (the start rule of ROADMAP item 9), so item 9 will move
        # this pin.
        counts = [1, 0, 2, 1, 1, 1, 0, 12, 9, 3, 0, 1, 2, 34, 31, 2]
        dist = histogram_to_probs(ShotHistogram(RegisterSpec(4), np.array(counts), 100))
        result = fit_multi(dist, 2)
        phases = (0.7815600169540118, 0.8439950815127061)
        weights = (0.10934448542945502, 0.890655514570545)
        assert np.max(np.abs(np.subtract(result.phases, phases))) < 1e-12
        assert np.max(np.abs(np.subtract(result.weights, weights))) < 1e-12
        assert result.iterations == 30
        assert result.start_used == "corner LL"

    def test_multistart_labels(self):
        result = fit_multi(exact_dist(3, [(1 / 3, 0.5), (0.5, 0.5)]), 2)
        assert result.start_used.startswith("corner ")
        assert set(result.start_used.split()[1]) <= {"L", "R"}


class TestFitRows:
    """_fit returns per-trial arrays; fit_single builds the FitResult."""

    def test_a_failing_trial_fails_alone_in_a_shared_call(self):
        # all three trials share one chunk at n = 3
        reg = RegisterSpec(3)
        exact = analytic_distribution(reg, PhaseModel.single(0.2))
        p_a, p_b = (histogram_to_probs(sample_shots(exact, 1000, seed)) for seed in (1, 2))
        rows = _fit(reg, [p_a.probs, np.full(reg.M, np.nan), p_b.probs])
        phase, ssr, iterations, converged, status, corner, _ = rows
        assert corner[1] == -1 and status[1] == "nonfinite"
        for i, dist in ((0, p_a), (2, p_b)):
            lone = fit_single(dist)
            assert (phase[i],) == lone.phases
            assert ssr[i] / (reg.M - 1) == lone.residual_variance
            assert iterations[i] == lone.iterations
            assert converged[i] == lone.converged
            assert ("left", "right")[corner[i]] == lone.start_used
            # and the whole row equals the trial's lone _fit row
            for got, want in zip(rows, _fit(reg, [dist.probs])):
                assert np.array_equal(got[i], want[0])

    def test_a_single_phase_row_does_not_depend_on_its_batchmates(self):
        # one chunk mixes trials of 10, 4000 and 10**6 shots, whose observed
        # bins range from a few to all M; each row equals the trial's row
        # fit alone, bit for bit
        reg = RegisterSpec(6)
        dist = analytic_distribution(reg, PhaseModel.single(0.3))
        pmfs = [
            histogram_to_probs(sample_shots(dist, k, seed)).probs
            for seed, k in enumerate((10, 4000, 10**6, 10, 10**6, 4000))
        ]
        rows = _fit(reg, pmfs)
        for i, p in enumerate(pmfs):
            for got, want in zip(rows, _fit(reg, [p])):
                assert got[i].tobytes() == want[0].tobytes()

    def test_phases_are_wrapped_across_the_seam(self):
        # at theta = 0.975 and n = 3 the top bin is 0, so the box is
        # [-1/16, 1/16] and the search's coordinate of the phase is negative
        reg = RegisterSpec(3)

        def sample(theta, seed):
            dist = analytic_distribution(reg, PhaseModel.single(theta))
            return histogram_to_probs(sample_shots(dist, 10**4, seed))

        dist = sample(0.975, 1)
        want = fit_single(dist).phases
        assert abs(want[0] - 0.975) < 1e-3
        shared = [sample(0.3, 2).probs, dist.probs, sample(0.6, 3).probs]
        for pmfs, i in (([dist.probs], 0), (shared, 1)):
            phase, *_, top = _fit(reg, pmfs)
            assert top[i] == 0
            assert np.all((0 <= phase) & (phase < 1))
            assert (phase[i],) == want


class TestOneHotRows:
    """A single-phase pmf with all its mass in one bin y0 is fit as y0 / M, with no search."""

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 20])
    def test_one_hot_pmfs_are_fit_in_closed_form(self, n):
        # the solver would stop up to 2.5e-11 bins short at n = 2 (1.1e-5 at n = 20)
        M = 2**n
        for y in (0, M // 3, M - 1):
            result = fit_single(exact_dist(n, [(y / M, 1.0)]))
            assert result.phases == (y / M,)
            assert result.weights == (1.0,)
            assert result.residual_variance == 0.0
            assert result.iterations == 0
            assert result.converged is True
            assert result.start_used == "right"

    @pytest.mark.parametrize("n", [5, 17])
    def test_the_solver_never_sees_a_one_hot_trial(self, n, monkeypatch):
        # n = 5 puts the whole stream in one chunk; n = 17 one trial per chunk
        reg = RegisterSpec(n)
        M = reg.M
        ordinary = [
            histogram_to_probs(
                sample_shots(analytic_distribution(reg, PhaseModel.single(theta)), 100, seed)
            ).probs
            for seed, theta in enumerate((0.21, 0.48, 0.83))
        ]
        hot = {i: np.eye(1, M, y)[0] for i, y in ((1, 0), (3, M // 3), (4, M - 1))}
        assert all(np.count_nonzero(p) > 1 for p in ordinary)
        stream = [ordinary[0], hot[1], ordinary[1], hot[3], hot[4], ordinary[2]]
        brackets = []
        search = fitting._refine

        def recording(x, a, b, *args):
            brackets.append((a.copy(), b.copy()))
            return search(x, a, b, *args)

        monkeypatch.setattr("qpecf.fitting._refine", recording)
        rows = _fit(reg, iter(stream))
        phase, ssr, iterations, converged, status, corner, top = rows
        lower, upper = map(np.concatenate, zip(*brackets))
        assert len(lower) == 2 * len(ordinary)
        for i, p in hot.items():
            y = int(np.argmax(p))
            assert not np.any((upper > (y - 0.5) / M) & (lower < (y + 0.5) / M))
            assert phase[i] == y / M and ssr[i] == 0.0
            assert (iterations[i], converged[i], status[i]) == (0, True, "exact")
            assert corner[i] == 1 and top[i] == y
        for i, p in enumerate(stream):
            if i in hot:
                continue
            for got, want in zip(rows, _fit(reg, [p])):
                assert got[i].tobytes() == want[0].tobytes()

    def test_only_an_indicator_pmf_is_closed_form(self):
        # (k - 1) / k rounds to 1.0 past k = 2**53, but a second bin holds
        # counts; a lone bin below 1 is not P(y0 / M), so the search fits both
        reg = RegisterSpec(2)
        k = 2**60
        rounded = histogram_to_probs(ShotHistogram(reg, [k - 1, 1, 0, 0], k)).probs
        assert rounded[0] == 1.0
        short = OutcomeDistribution(reg, np.array([1 - 1e-11, 0.0, 0.0, 0.0])).probs
        _, _, iterations, _, status, _, _ = _fit(reg, [rounded, short])
        assert "exact" not in status
        assert np.all(iterations > 0)


def dense_problem(reg: RegisterSpec, probs: np.ndarray):
    """The single-phase residual P - p over all M bins and its Jacobian, for the solver."""
    M = reg.M
    bin_phases = np.arange(M) / M

    def residual(params):
        return _pmf_kernel(bin_phases, params[:, :1], M) - probs

    def jacobian(params):
        return _pmf_kernel(bin_phases, params[:, :1], M, pmf=False, grad=True)[:, :, None]

    return residual, jacobian


def dense_fit_single(dist: OutcomeDistribution) -> float:
    """fit_single's recipe by the solver on all M bins: both starts, lower SSR, ties right."""
    reg = dist.reg
    M = reg.M
    y = int(np.argmax(dist.probs))
    lo, hi = (y - 0.5) / M, (y + 0.5) / M
    starts = np.array([[lo + NUDGE / M], [hi - NUDGE / M]])
    result = least_squares_box(*dense_problem(reg, dist.probs), starts, lo, hi)
    best = 1 if result.ssr[1] <= result.ssr[0] else 0
    return float(result.x[best, 0] % 1.0)


def dense_ssr(residual, point: np.ndarray) -> np.ndarray:
    """The all-bins SSR at one single-phase point, as a length-1 array."""
    r = residual(point[np.newaxis])[0]
    return np.array([r @ r])


class TestObservedBins:
    """Single-phase fits run on the bins that hold counts."""

    def test_lumped_residual_is_the_dense_objective(self):
        # the SSR and f' on the observed bins, with the empty bins lumped
        # into S, equal the all-bins SSR and its derivative 2 sum (P - p) P';
        # S - sum_obs P^2 rounds at about 1e-16 absolute (S is near 1), and
        # S' to 2e-15 of its amplitude
        reg = RegisterSpec(16)
        M = reg.M
        dist = analytic_distribution(reg, PhaseModel.single(0.2718))
        probs = histogram_to_probs(sample_shots(dist, 10**5, 3)).probs
        y = int(np.argmax(probs))
        theta = np.append((y + np.linspace(-0.5, 0.5, 9)) / M, 0.2718)
        rows = _rows(_observed(probs[np.newaxis]), np.zeros(len(theta), dtype=int))
        assert rows[0].size == len(theta) * np.count_nonzero(probs)
        ssr, (slope,) = _ssr(rows, theta, M), _slope(rows, theta, M)
        residual, jacobian = dense_problem(reg, probs)
        points = theta[:, np.newaxis]
        rd, jd = residual(points), jacobian(points)[:, :, 0]
        amplitude = 2 * np.pi * (M - 1 / M) / 3
        for i in range(len(theta)):
            assert abs(ssr[i] - rd[i] @ rd[i]) <= 2e-15
            assert abs(slope[i] - 2 * jd[i] @ rd[i]) <= 4e-15 * amplitude

    @pytest.mark.parametrize(
        "n, theta, k, seed",
        [
            (16, 1 / 3, 10**5, 1),
            (16, 0.7, 10, 7),
            (17, 5 / 2**17, 100, 3),  # on-bin: one-hot histogram
            (17, 0.123, 10**6, 8),
            (18, 1 / 5, 10**5, 5),
        ],
    )
    def test_readouts_match_dense_solves(self, n, theta, k, seed):
        # fit_single finds the minimiser, and the dense solve stops short
        # of it; the one-hot readout differs most (1.1e-12): fit_single
        # returns its bin exactly, and the dense solve, whose basin there is
        # quartic, stops short of it
        dist = analytic_distribution(RegisterSpec(n), PhaseModel.single(theta))
        observed = histogram_to_probs(sample_shots(dist, k, seed))
        assert abs(fit_single(observed).phases[0] - dense_fit_single(observed)) <= 1e-11

    def test_batch_cap_does_not_move_observed_bin_fits(self, monkeypatch):
        # with a cap that puts 32 n = 16 trials in one chunk, not one, the
        # fit is unchanged
        dist = analytic_distribution(RegisterSpec(16), PhaseModel.single(1 / 3))
        observed = histogram_to_probs(sample_shots(dist, 10**5, 1))
        before = fit_single(observed)
        monkeypatch.setattr("qpecf.fitting.BATCH_ELEMENTS", 2**22)
        assert fit_single(observed) == before

    # 10**4 shots of theta = 0.2718 at n = 17 (sample_shots seed 0), as
    # counts by offset from bin 35625, and the least-squares minimiser of
    # those probabilities: the root of f' by mpmath 1.3.0 at 50 digits
    N17_COUNTS = {
        -327: 1, -263: 1, -182: 1, -116: 1, -96: 1, -85: 1, -74: 1, -65: 1, -62: 2, -53: 1,
        -50: 2, -47: 1, -45: 1, -42: 1, -38: 1, -36: 1, -35: 1, -34: 1, -32: 3, -31: 2, -29: 2,
        -26: 1, -25: 2, -24: 2, -23: 2, -22: 1, -21: 3, -20: 1, -19: 3, -18: 5, -17: 1, -16: 3,
        -15: 3, -14: 4, -13: 3, -12: 5, -11: 5, -10: 9, -9: 9, -8: 10, -7: 15, -6: 19, -5: 23,
        -4: 46, -3: 74, -2: 160, -1: 439, 0: 6315, 1: 2112, 2: 330, 3: 141, 4: 54, 5: 27,
        6: 27, 7: 14, 8: 16, 9: 7, 10: 7, 11: 12, 12: 8, 13: 8, 14: 2, 15: 2, 16: 2, 17: 1,
        18: 3, 19: 2, 20: 4, 21: 3, 24: 2, 25: 1, 26: 1, 31: 2, 32: 1, 34: 1, 37: 1, 38: 1,
        43: 1, 44: 2, 47: 1, 50: 1, 55: 1, 61: 1, 71: 1, 73: 1, 83: 1, 85: 1, 92: 1, 100: 1,
        111: 1, 136: 1, 165: 1, 176: 1, 201: 1,
    }
    N17_MINIMIZER = "0.27179997131439320537083075014677076329134265043301"

    def test_observed_bin_fit_is_float64_accurate(self):
        # the fit is the minimiser rounded to float64: measured 2.4e-13 bins
        # off, 0.03 of the 7.3e-12-bin float spacing at this theta; a solve
        # on the lumped residual alone stood 1.76e-9 bins off
        counts = {35625 + y: c for y, c in self.N17_COUNTS.items()}
        theta = fit_single(counts_dist(17, counts)).phases[0]
        off = abs(Fraction(theta) - Fraction(self.N17_MINIMIZER))
        assert off <= Fraction(np.spacing(theta)) / 2

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_one_hot_on_bin_histograms(self, n):
        # the test_representable_phase gate; y = 0 may land on either side of the seam
        M = 2**n
        for y in (0, M // 3, M - 1):
            result = fit_single(exact_dist(n, [(y / M, 1.0)]))
            assert abs((result.phases[0] - y / M + 0.5) % 1.0 - 0.5) < 1e-9


class TestJacobians:
    def test_single_jacobian_matches_finite_differences(self):
        # the single-phase search's f' is the derivative of the all-bins
        # SSR, and its f'' the derivative of f'
        rng = np.random.default_rng(41)
        reg = RegisterSpec(3)
        probs = pmf_vector(reg, PhaseModel.single(1 / 3))
        residual, _ = dense_problem(reg, probs)
        rows = _rows(_observed(probs[np.newaxis]), np.zeros(1, dtype=int))
        for _ in range(50):
            theta = np.array([(3 + rng.uniform(-0.45, 0.45)) / reg.M])
            slope, curvature = _slope(rows, theta, reg.M, curv=True)
            fd = fd_jacobian(lambda q: dense_ssr(residual, q), theta)[0, 0]
            assert np.isclose(slope[0], fd, rtol=1e-5, atol=1e-9)
            fd = fd_jacobian(lambda q: _slope(rows, q, reg.M)[0], theta)[0, 0]
            assert np.isclose(curvature[0], fd, rtol=1e-5, atol=1e-7)

    def test_multi_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        reg = RegisterSpec(3)
        probs = pmf_vector(reg, PhaseModel.from_pairs([(1 / 3, 0.5), (0.5, 0.5)]))
        residual, jacobian = _problem(reg, 2, probs)
        for _ in range(50):
            params = np.array(
                [
                    (3 + rng.uniform(-0.45, 0.45)) / reg.M,
                    (4 + rng.uniform(-0.45, 0.45)) / reg.M,
                    rng.uniform(0.1, 0.9),
                ]
            )
            analytic = jacobian(params[np.newaxis])[0]
            fd = fd_jacobian(lambda q: residual(q[np.newaxis])[0], params)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_rows_evaluate_alone(self, J):
        # the solver passes only its running starts, and the single-phase
        # search only its running trials' rows, so a row must not depend on
        # its batchmates or its position: a subset of rows equals those rows
        # of the full batch, and each row equals its point evaluated alone
        rng = np.random.default_rng(44 + J)
        reg = RegisterSpec(5)
        M = reg.M
        idx = rng.permutation(12)[:7]
        if J == 1:
            # f' and f'' on a chunk of 6 trials, row r reading trial r // 2,
            # and row r alone on its trial's pmf alone
            chunk = rng.dirichlet(np.ones(M), size=6)
            trials, theta = np.arange(12) // 2, rng.random(12)
            observed = _observed(chunk)
            got = _slope(_rows(observed, trials), theta, M, curv=True)
            part = _slope(_rows(observed, trials[idx]), theta[idx], M, curv=True)
            lone = [
                _slope(_rows(_observed(chunk[[t]]), np.zeros(1, dtype=int)), theta[[r]], M, curv=True)
                for r, t in enumerate(trials)
            ]
        else:
            residual, jacobian = _problem(reg, J, rng.dirichlet(np.ones(M)))
            weights = rng.dirichlet(np.ones(J), size=12)[:, : J - 1]
            batch = np.concatenate([rng.random((12, J)), weights], axis=1)
            got = residual(batch), jacobian(batch)
            part = residual(batch[idx]), jacobian(batch[idx])
            lone = [(residual(batch[[r]]), jacobian(batch[[r]])) for r in range(12)]
        for whole, some in zip(got, part):
            assert np.array_equal(some, whole[idx])
        for r, alone in enumerate(lone):
            for whole, one in zip(got, alone):
                assert np.array_equal(whole[r], one[0])

    def test_observed_rows_evaluate_alone(self):
        # the same subset check on a sampled pmf with empty bins, whose
        # kernel rows hold only its observed bins
        rng = np.random.default_rng(47)
        reg = RegisterSpec(10)
        dist = analytic_distribution(reg, PhaseModel.single(0.2718))
        probs = histogram_to_probs(sample_shots(dist, 1000, 3)).probs
        assert np.count_nonzero(probs) < reg.M
        theta = (int(np.argmax(probs)) + rng.uniform(-0.5, 0.5, 12)) / reg.M
        observed = _observed(np.broadcast_to(probs, (6, reg.M)))  # row r reads trial r // 2
        trials = np.arange(12) // 2
        idx = rng.permutation(12)[:7]
        got = _slope(_rows(observed, trials), theta, reg.M, curv=True)
        part = _slope(_rows(observed, trials[idx]), theta[idx], reg.M, curv=True)
        for whole, some in zip(got, part):
            assert np.array_equal(some, whole[idx])

    @pytest.mark.parametrize("J", [2, 3, 4])
    def test_multi_problem_matches_component_loop(self, J):
        # the (B, J, M) evaluation of a batch must equal, row by row, one
        # kernel call per component summed in component order, bit for bit
        rng = np.random.default_rng(43 + J)
        reg = RegisterSpec(4)
        M = reg.M
        bin_phases = np.arange(M) / M
        probs = pmf_vector(reg, PhaseModel.from_pairs(random_phase_model(rng, J)))
        batch = np.array(
            [np.concatenate([rng.random(J), rng.dirichlet(np.ones(J))[: J - 1]]) for _ in range(10)]
        )
        residual, jacobian = _problem(reg, J, probs)
        got_residual = residual(batch)
        got = jacobian(batch)
        assert got.flags.c_contiguous
        for params, got_r, got_j in zip(batch, got_residual, got):
            w = np.append(params[J:], 1.0 - params[J:].sum())
            P, dP = zip(*(_pmf_kernel(bin_phases, params[j], M, grad=True) for j in range(J)))
            total = np.zeros(M)
            for j in range(J):
                total += w[j] * P[j]
            want = np.zeros((M, 2 * J - 1))
            for j in range(J):
                want[:, j] = w[j] * dP[j]
            for j in range(J - 1):
                want[:, J + j] = P[j] - P[J - 1]
            assert np.array_equal(got_r, total - probs)
            assert np.array_equal(got_j, want)


class TestFitResultJson:
    def test_single_phase_shape(self):
        payload = fit_single(exact_dist(3, [(1 / 3, 1.0)])).to_json_dict()
        assert set(payload) == {
            "phases",
            "weights",
            "residual_variance",
            "converged",
            "iterations",
            "bounds",
        }
        assert payload["weights"] == [1.0]
        assert payload["bounds"] == [0.3125, 0.4375]

    def test_multi_phase_shape(self):
        payload = fit_multi(exact_dist(3, [(1 / 3, 0.5), (0.5, 0.5)]), 2).to_json_dict()
        assert len(payload["phases"]) == 2
        assert len(payload["bounds"]) == 2
        assert all(len(pair) == 2 for pair in payload["bounds"])


# Literal shot counts {outcome: count} with the phases, weights and residual
# variance the fits returned when they were recorded. A refactor of the fitting
# path must reproduce them to 1e-12; none depends on the sampler.
PINNED = [
    (1, {0: 21, 1: 29}, (0.7244252882740392,), (1.0,), 2.465190328815662e-32),
    # Re-recorded when the offset reduction became exact. The exact least-squares
    # minimiser for these probabilities (root of dSSR/dtheta to 50 digits) is
    # 0.19786389437298781752637099902530214515633625091694; the earlier
    # np.mod reduction stopped 3.66e-12 short of it at 0.1978638943693287,
    # and this fit lands 4.6e-14 from it.
    (2, {0: 6, 1: 87, 2: 5, 3: 2}, (0.19786389437303378,), (1.0,), 0.00010476903565610495),
    (
        3,
        {0: 2, 1: 10, 2: 25, 3: 143, 4: 10, 5: 6, 6: 2, 7: 2},
        (0.3364529310458992,),
        (1.0,),
        0.00019511106423825882,
    ),
    (
        4,
        {0: 1, 1: 11, 2: 217, 3: 42, 4: 9, 5: 3, 6: 1, 7: 2, 8: 2, 9: 2, 10: 2, 11: 2, 12: 3,
         15: 3},
        (0.14421989565752916,),
        (1.0,),
        2.273468507826803e-05,
    ),
    (
        5,
        {0: 212, 1: 9, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 9: 1, 18: 1, 19: 1, 21: 1, 22: 2, 24: 1,
         25: 1, 26: 1, 27: 3, 29: 3, 30: 7, 31: 51},
        (0.9899070197201969,),
        (1.0,),
        1.6260509655331674e-05,
    ),
    (
        6,
        {0: 1, 1: 1, 5: 1, 6: 1, 7: 386, 8: 7, 10: 2, 59: 1},
        (0.1110057574435428,),
        (1.0,),
        1.5596832366710018e-06,
    ),
    (
        7,
        {75: 1, 76: 1, 77: 1, 78: 2, 79: 390, 80: 3, 81: 1, 84: 1},
        (0.6178636174027898,),
        (1.0,),
        1.3882231320162256e-07,
    ),
    (
        8,
        {38: 1, 48: 1, 64: 1, 74: 1, 77: 1, 78: 3, 79: 1, 80: 1, 81: 2, 82: 1, 83: 10, 84: 25,
         85: 352, 86: 79, 87: 11, 88: 6, 89: 2, 90: 2},
        (0.3332861824894374,),
        (1.0,),
        8.062401704894187e-07,
    ),
    (
        3,
        {0: 24, 1: 28, 2: 103, 3: 427, 4: 38, 5: 114, 6: 240, 7: 26},
        (0.3344976669263614, 0.700170719291649),
        (0.597385396863956, 0.402614603136044),
        1.884167735357244e-05,
    ),
    (
        3,
        {0: 45, 1: 921, 2: 72, 3: 59, 4: 575, 5: 256, 6: 43, 7: 29},
        (0.14890137321697416, 0.5497175724980147),
        (0.5110192763813881, 0.4889807236186119),
        2.766683429732425e-06,
    ),
    (
        4,
        {0: 5, 2: 2, 3: 3, 4: 42, 5: 601, 6: 21, 7: 9, 8: 4, 9: 1, 10: 307, 11: 3, 13: 1,
         15: 1},
        (0.2995213477974427, 0.6272019220429473),
        (0.6933724919883701, 0.30662750801162986),
        5.805852566849317e-06,
    ),
    (
        4,
        {0: 65, 1: 344, 2: 805, 3: 84, 4: 28, 5: 13, 6: 14, 7: 5, 8: 4, 9: 17, 10: 7, 11: 21,
         12: 95, 13: 1409, 14: 57, 15: 32},
        (0.10028766246439885, 0.7996622730967203),
        (0.46159760092954516, 0.5384023990704548),
        4.770138275777791e-06,
    ),
]


# The least-squares minimisers of the single-phase PINNED cases at n = 2-8:
# roots of f'(theta) = S'(theta) - 2 sum_obs p_y P'_y(theta) by mpmath 1.3.0
# findroot at 50 digits, with p the case's float64 probabilities taken
# exactly. (n = 1 holds two equal minima, theta and 1 - theta.)
PINNED_MINIMIZERS = {
    2: "0.19786389437298781752637099902530214515633625091694",
    3: "0.33645293104554203639986170691806205367613496706946",
    4: "0.14421989565752969690762368636274703496899787555669",
    5: "0.98990701972019707830021461345388161075239406915372",
    6: "0.11100575744353414593265356124293868922273473439353",
    7: "0.61786361740269632187762186963403931097462659292514",
    8: "0.33328618248933217956182217470837245562484937508562",
}


def counts_dist(n: int, counts: dict) -> OutcomeDistribution:
    reg = RegisterSpec(n)
    hist = np.zeros(reg.M)
    for y, c in counts.items():
        hist[y] = c
    return OutcomeDistribution(reg, hist / hist.sum())


class TestPinnedEstimates:
    @pytest.mark.parametrize(
        "n, counts, phases, weights, variance",
        PINNED,
        ids=[f"n{case[0]}-J{len(case[2])}-{i}" for i, case in enumerate(PINNED)],
    )
    def test_matches_recorded_estimates(self, n, counts, phases, weights, variance):
        dist = counts_dist(n, counts)
        J = len(phases)
        result = fit_single(dist) if J == 1 else fit_multi(dist, J)
        assert np.max(np.abs(np.subtract(result.phases, phases))) < 1e-12
        assert np.max(np.abs(np.subtract(result.weights, weights))) < 1e-12
        assert abs(result.residual_variance - variance) < 1e-12

    @pytest.mark.parametrize(
        "n, counts", [case[:2] for case in PINNED if len(case[2]) == 1 and case[0] >= 2]
    )
    def test_single_phase_fits_sit_on_their_minimisers(self, n, counts):
        # measured 8.6e-18, 3.6e-16, 2.4e-16, 1.4e-15, 2.9e-16, 3.9e-15 and
        # 1.9e-15 bins at n = 2-8; the solver alone stopped up to 2.7e-11 bins short
        theta = fit_single(counts_dist(n, counts)).phases[0]
        assert abs(Fraction(theta) - Fraction(PINNED_MINIMIZERS[n])) * 2**n <= 5e-15
