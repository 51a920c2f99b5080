"""Campaign runner: per-cell aggregation, grid determinism, scaling exponents."""

import json
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpecf.bench import (
    CSV_HEADER,
    BenchGrid,
    BenchRecord,
    ScalingSummary,
    _trial_keys,
    circular_error,
    fit_scaling_exponents,
    records_to_csv,
    run_grid,
    trial_seed,
)
from qpecf.errors import ConfigError, DomainError
from qpecf import fitting
from qpecf.fitting import BATCH_ELEMENTS, fit_multi, fit_single
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import analytic_distribution, circuit_depth_units, crlb_mse
from qpecf.simulate import histogram_to_probs, sample_shots


def synthetic_record(theta: float, n: int, k: int, rmse: float) -> BenchRecord:
    # only theta_true, n, M, k, rmse enter the scaling regressions
    return BenchRecord(
        theta_true=theta,
        n=n,
        M=2**n,
        k=k,
        trials=100,
        excluded=0,
        rmse=rmse,
        mean_abs_error=rmse,
        crlb_rmse=1.0,
        ratio=rmse,
        traditional_error=0.0,
        depth_units=2**n - 1,
        valid=True,
        estimates=(),
    )


def one_cell(theta: float, n: int, k: int, trials: int, base_seed: int) -> BenchRecord:
    (record,) = run_grid(BenchGrid((theta,), (n,), (k,), trials, base_seed))
    return record


class TestCircularError:
    def test_wraps_around_the_circle(self):
        assert abs(circular_error(0.1, 0.9) - 0.2) < 1e-12
        assert abs(circular_error(0.9, 0.1) - 0.2) < 1e-12

    def test_interior_distance(self):
        assert abs(circular_error(0.375, 1 / 3) - 1 / 24) < 1e-12
        assert circular_error(0.25, 0.25) == 0.0

    def test_rejects_out_of_range_phases(self):
        for bad in (1.0, -0.1, 1.2):
            with pytest.raises(DomainError):
                circular_error(bad, 0.3)
            with pytest.raises(DomainError):
                circular_error(0.3, bad)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
        b=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
    )
    def test_symmetric_and_bounded_by_half(self, a, b):
        d = circular_error(a, b)
        assert d == circular_error(b, a)
        assert 0.0 <= d <= 0.5


LAST_PHASE = float(np.nextafter(1.0, 0.0))


class TestTrialSeed:
    def test_deterministic_for_equal_coordinates(self):
        first = trial_seed(12345, 1 / 3, 3, 1000, 7).generate_state(4)
        second = trial_seed(12345, 1 / 3, 3, 1000, 7).generate_state(4)
        assert np.array_equal(first, second)

    def test_every_coordinate_changes_the_stream(self):
        base = trial_seed(1, 0.2, 3, 100, 0).generate_state(4)
        variants = [
            trial_seed(2, 0.2, 3, 100, 0),
            trial_seed(1, 0.25, 3, 100, 0),
            trial_seed(1, 0.2, 4, 100, 0),
            trial_seed(1, 0.2, 3, 101, 0),
            trial_seed(1, 0.2, 3, 100, 1),
        ]
        for seed in variants:
            assert not np.array_equal(base, seed.generate_state(4))

    def test_adjacent_float_phases_hash_apart(self):
        near = float(np.nextafter(0.2, 1.0))
        a = trial_seed(1, 0.2, 3, 100, 0).generate_state(4)
        b = trial_seed(1, near, 3, 100, 0).generate_state(4)
        assert not np.array_equal(a, b)

    def test_coordinates_are_checked(self):
        # -0.0 is the campaign's zero phase, and each coordinate out of
        # range or of the wrong type raises DomainError
        good = (1, 0.2, 3, 10, 0)
        assert np.array_equal(trial_seed(1, -0.0, 3, 10, 0).generate_state(4),
                              trial_seed(1, 0.0, 3, 10, 0).generate_state(4))
        bad = [(-1, True, 1.0), (1.5, -0.1, float("nan"), "0.2"), (0, 31, 3.0), (0, 10.0), (-1, 1.0)]
        for i, value in ((i, v) for i, values in enumerate(bad) for v in values):
            with pytest.raises(DomainError):
                trial_seed(*good[:i], value, *good[i + 1:])

    # generate_state(4) of SeedSequence((base_seed, theta_bits, n, k, trial)),
    # recorded from the tuple form: coordinates of 0 and past 2**32 take one
    # and two uint32 words, and every campaign stream hangs on these words.
    @pytest.mark.parametrize(
        "coords, words",
        [
            ((0, 0.0, 2, 1, 0), [1679931629, 1434087467, 1830316578, 3132028911]),
            ((2**40, 0.0, 2, 1, 0), [2001633766, 3184796379, 1207469783, 3344835838]),
            ((0, LAST_PHASE, 2, 1, 0), [3767510450, 2040068732, 2337122659, 2527958528]),
            ((0, 0.0, 2, 2**33, 0), [3586784781, 831902890, 813606323, 1978198282]),
            ((0, 0.0, 2, 1, 2**32), [694128338, 1065413551, 3958812299, 179706217]),
            ((2**40, LAST_PHASE, 30, 2**33, 2**32), [2739315945, 250970304, 1053038199, 3578767089]),
            ((12345, 1 / 3, 3, 1000, 7), [2008295563, 3411863321, 627564757, 21031805]),
        ],
    )
    def test_stream_is_pinned(self, coords, words):
        seed = trial_seed(*coords)
        assert isinstance(seed, np.random.SeedSequence)
        assert seed.generate_state(4).tolist() == words

    def test_vectorised_keys_match_seed_sequence(self):
        # the campaign's keys re-implement two steps of SeedSequence's
        # mixing, so a drift in numpy's shows here: cells of one to three
        # words per coordinate, and trials across the one word a campaign takes
        cells = list(product((0.0, 0.999), (1, 2**32, 2**63 - 1)))
        trials = [0, 1, 2**31, 2**32 - 1]
        for base_seed, n in product((7, 2**32 + 5, 2**63 - 1), (2, 30)):
            keys = _trial_keys(base_seed, n, cells, trials)
            assert keys.shape == (len(cells), len(trials), 2) and keys.dtype == np.uint64
            for ((theta, k), trial), key in zip(product(cells, trials), keys.reshape(-1, 2)):
                philox = np.random.Philox(trial_seed(base_seed, theta, n, k, trial))
                assert key.tolist() == philox.state["state"]["key"].tolist()


def stub_fit(trials: int, failed: int):
    """_fit's return for trials whose first `failed` fits failed; the others estimate 0.3."""
    return (
        np.full(trials, 0.3),  # phase
        np.zeros(trials),  # SSR
        np.ones(trials, dtype=int),  # iterations
        np.ones(trials, dtype=bool),  # converged
        np.full(trials, "xtol"),  # status
        np.where(np.arange(trials) < failed, -1, 0),  # corner
        np.zeros(trials, dtype=int),  # top bin
    )


class TestRunCell:
    """One-cell grids."""

    def test_representable_phase_cell_is_exact(self):
        rec = one_cell(3 / 8, 3, 1000, 10, base_seed=12345)
        assert rec.rmse < 1e-6
        assert rec.excluded == 0
        assert rec.valid
        assert rec.traditional_error == 0.0

    def test_record_field_identities(self):
        reg = RegisterSpec(3)
        rec = one_cell(1 / 3, 3, 1000, 20, base_seed=99)
        assert rec.theta_true == 1 / 3
        assert rec.n == 3 and rec.M == 8 and rec.k == 1000 and rec.trials == 20
        assert abs(rec.crlb_rmse - np.sqrt(crlb_mse(reg, 1000))) < 1e-15
        assert abs(rec.ratio - rec.rmse / rec.crlb_rmse) < 1e-12
        assert abs(rec.traditional_error - 1 / 24) < 1e-15
        assert rec.traditional_error <= 1 / (2 * reg.M)
        assert rec.depth_units == circuit_depth_units(reg) == 7
        assert rec.rmse >= 0 and rec.ratio >= 0

    def test_cell_estimates_length_tracks_exclusions(self):
        rec = one_cell(1 / 3, 3, 200, 8, 5)
        assert rec.excluded == 0
        assert len(rec.estimates) == rec.trials - rec.excluded == 8
        assert "estimates" not in repr(rec)

    # (theta, n, trial, estimate) of trials whose two starts end on mirror
    # minima with SSRs 0-11 units in the last place apart, at k = 10 and
    # base seed 1. All three histograms are symmetric about their top bin,
    # so the later start wins by rule, and each estimate lies within 3e-16
    # bins of its 50-digit minimiser. Re-recorded when single-phase fits
    # gained the Newton polish; before it they stood 6.6e-12, 1.1e-14 and
    # 5.2e-12 bins off, at 0.35313246502120277, 0.14130537722520042 and
    # 0.11118764191304581. The n = 4 minimiser,
    # 0.141305377225201133196673335, lies between two floats, 1.9e-16 and
    # 2.5e-16 bins away; the Newton polish returned the upper one
    # (0.14130537722520115), the root search returns the lower one.
    MIRROR_TIES = [
        (1 / 3, 2, 0, 0.3531324650195613),
        (1 / 7, 4, 0, 0.14130537722520112),
        (1 / 9, 7, 5, 0.11118764191308615),
    ]

    @pytest.mark.parametrize("theta, n, trial, estimate", MIRROR_TIES)
    def test_batched_cell_keeps_mirror_ties(self, theta, n, trial, estimate):
        reg, k = RegisterSpec(n), 10
        dist = analytic_distribution(reg, PhaseModel.single(theta))
        one_by_one = []
        for t in range(10):
            hist = sample_shots(dist, k, trial_seed(1, theta, n, k, t))
            one_by_one.append(fit_single(histogram_to_probs(hist)).phases[0])
        rec = one_cell(theta, n, k, 10, 1)
        assert rec.excluded == 0
        assert np.array_equal(rec.estimates, one_by_one)
        assert rec.estimates[trial] == estimate

    def test_observed_bin_cell_matches_fit_single_loop(self):
        # at n = 16 every trial is alone in its chunk and is fit on its own
        # observed bins, so the cell still equals the loop
        theta, reg, k = 1 / 3, RegisterSpec(16), 100
        dist = analytic_distribution(reg, PhaseModel.single(theta))
        one_by_one = [
            fit_single(histogram_to_probs(sample_shots(dist, k, trial_seed(1, theta, 16, k, t))))
            .phases[0]
            for t in range(3)
        ]
        rec = one_cell(theta, 16, k, 3, 1)
        assert rec.excluded == 0
        assert np.array_equal(rec.estimates, one_by_one)

    def test_campaign_fits_the_public_paths_pmfs(self, monkeypatch):
        # every trial's pmf, bit for bit, is the one the public sampling
        # path gives: an on-bin phase (one-hot at n = 3), 1/3 at n = 2,
        # k = 1 and 10**6, and n = 16, where each chunk holds one trial
        received = []
        fit = fitting._fit

        def recording(reg, pmfs):
            pmfs = list(pmfs)
            received.append((reg.n, pmfs))
            return fit(reg, pmfs)

        monkeypatch.setattr("qpecf.bench._fit", recording)
        grid = BenchGrid((1 / 4, 1 / 3), (2, 3, 16), (1, 10**6), 3, 5)
        assert BATCH_ELEMENTS // (2 * 2**16) == 0
        run_grid(grid)
        assert [n for n, _ in received] == [2, 3, 16]
        for n, pmfs in received:
            reg = RegisterSpec(n)
            want = [
                histogram_to_probs(sample_shots(
                    analytic_distribution(reg, PhaseModel.single(theta)), k,
                    trial_seed(5, theta, n, k, trial),
                )).probs
                for theta, k in product(grid.phases, grid.shot_values)
                for trial in range(grid.trials)
            ]
            assert len(pmfs) == len(want)
            for got, expected in zip(pmfs, want):
                assert got.dtype == expected.dtype == np.float64
                assert got.tobytes() == expected.tobytes()
        one_hot = received[1][1][3]  # theta = 1/4, n = 3, k = 10**6, trial 0
        assert one_hot.tolist() == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_crlb_window_at_four_thousand_shots(self):
        rec = one_cell(1 / 3, 3, 4000, 100, base_seed=12345)
        assert 0.8 <= rec.ratio <= 1.5
        assert rec.valid

    def test_ten_shots_beat_the_traditional_bin(self):
        rec = one_cell(1 / 3, 3, 10, 100, base_seed=12345)
        assert rec.rmse <= rec.traditional_error + 1e-15
        assert rec.rmse <= rec.traditional_error + 3 * rec.crlb_rmse

    def test_failed_fits_are_excluded_and_flagged(self, monkeypatch):
        calls = {"count": 0}

        def flaky(reg, pmfs):
            calls["count"] += 1
            return stub_fit(len(list(pmfs)), failed=2)

        monkeypatch.setattr("qpecf.bench._fit", flaky)
        rec = one_cell(0.3, 3, 10, 50, base_seed=1)
        assert rec.excluded == 2
        assert not rec.valid  # 2/50 exceeds the 1% budget
        assert rec.rmse == 0.0  # stub estimates hit theta exactly
        assert rec.estimates == (0.3,) * 48  # the failed trials are dropped
        assert calls["count"] == 1  # all trials of the cell in one fit call

    def test_all_fits_failing_yields_nan_rmse(self, monkeypatch):
        def explode(reg, pmfs):
            trials = len(list(pmfs))
            return stub_fit(trials, failed=trials)

        monkeypatch.setattr("qpecf.bench._fit", explode)
        rec = one_cell(0.3, 3, 10, 5, base_seed=1)
        assert rec.excluded == 5 and rec.estimates == ()
        assert not rec.valid
        assert np.isnan(rec.rmse) and np.isnan(rec.mean_abs_error)


class TestRunGrid:
    def test_records_follow_cross_product_order(self):
        grid = BenchGrid(
            phases=(0.2, 1 / 3),
            n_values=(2, 3),
            shot_values=(50, 100),
            trials=3,
            base_seed=11,
        )
        records = run_grid(grid)
        coords = [(r.theta_true, r.n, r.k) for r in records]
        want = [(t, n, k) for t in (0.2, 1 / 3) for n in (2, 3) for k in (50, 100)]
        assert coords == want

    def test_one_distribution_per_phase(self, monkeypatch):
        built = []

        def counting(reg, model):
            built.append((reg.n, model.thetas))
            return analytic_distribution(reg, model)

        monkeypatch.setattr("qpecf.bench.analytic_distribution", counting)
        run_grid(BenchGrid((0.2, 1 / 3), (3,), (10, 100, 1000), 1, 11))
        assert built == [(3, (0.2,)), (3, (1 / 3,))]

    def test_cell_records_do_not_depend_on_grid_shape(self):
        forward = BenchGrid((0.2, 1 / 3), (2, 3), (50, 100), 3, 11)
        backward = BenchGrid((1 / 3, 0.2), (3, 2), (100, 50), 3, 11)
        by_coord = {
            (r.theta_true, r.n, r.k): r for r in run_grid(backward)
        }
        for rec in run_grid(forward):
            assert by_coord[(rec.theta_true, rec.n, rec.k)] == rec

    def test_grouped_fits_equal_the_per_cell_path(self):
        # the six n = 10 cells are one group of 6 * 12 = 72 trials; in
        # chunks of 32 trials, chunks end inside the third and the sixth
        # cell. Every split of the group by the worker pool moves those
        # boundaries, and no record may move with them.
        grid = BenchGrid((1 / 3, 0.2), (3, 10), (10, 100, 1000), 12, 7)
        assert BATCH_ELEMENTS // (2 * 2**10) == 32
        records = run_grid(grid)
        for rec in records:
            assert rec == one_cell(rec.theta_true, rec.n, rec.k, 12, 7)
        csv = records_to_csv(records)
        assert records_to_csv(run_grid(grid, workers=2)) == csv
        assert records_to_csv(run_grid(grid, workers=3)) == csv

    def test_worker_count_never_changes_results(self):
        grid = BenchGrid((1 / 3,), (2, 3), (50, 100), 4, 21)
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=3)
        assert serial == parallel
        assert records_to_csv(serial) == records_to_csv(parallel)

    def test_negative_zero_phase_is_the_zero_phase(self):
        # -0.0 would hash apart in trial_seed and render as "-0.0"; the
        # estimates agree either way, since at theta = 0 every shot lands in bin 0
        assert math.copysign(1.0, PhaseModel.single(-0.0).thetas[0]) == 1.0
        grid = BenchGrid((-0.0,), (3,), (10,), 5, 1)
        assert math.copysign(1.0, grid.phases[0]) == 1.0
        (record,) = run_grid(grid)
        (zero,) = run_grid(BenchGrid((0.0,), (3,), (10,), 5, 1))
        assert records_to_csv([record]) == records_to_csv([zero])
        assert records_to_csv([record]).splitlines()[1].startswith("0.0,3,8,10,5,0,")

    def test_sampled_cells_satisfy_error_invariants(self):
        grid = BenchGrid((1 / 3, 0.2), (2, 3), (50, 200), 10, 12345)
        for rec in run_grid(grid):
            assert rec.rmse >= 0 and rec.ratio >= 0
            assert rec.traditional_error <= 1 / (2 * rec.M)
            assert rec.rmse <= rec.traditional_error + 3 * rec.crlb_rmse


class TestStreaming:
    """Trials stream through the fitter: a campaign holds one chunk's pmfs."""

    @pytest.fixture
    def call_shapes(self, monkeypatch):
        shapes = []
        solve = fitting.least_squares_box

        def recording(residual, jacobian, start, lower, upper, **kwargs):
            shapes.append(np.shape(start))
            return solve(residual, jacobian, start, lower, upper, **kwargs)

        monkeypatch.setattr("qpecf.fitting.least_squares_box", recording)
        return shapes

    @pytest.fixture
    def single_chunks(self, monkeypatch):
        sizes = []
        search = fitting._single_rows

        def recording(probs):
            sizes.append(len(probs))
            return search(probs)

        monkeypatch.setattr("qpecf.fitting._single_rows", recording)
        return sizes

    def test_solver_calls_hold_whole_trials(self, call_shapes, single_chunks):
        # single-phase chunks hold whole trials and reach no solver: one
        # trial per chunk at n = 16, and 32 trials at n = 10
        dist = analytic_distribution(RegisterSpec(16), PhaseModel.single(1 / 3))
        fit_single(histogram_to_probs(sample_shots(dist, 1000, 1)))
        assert single_chunks == [1]
        single_chunks.clear()
        one_cell(1 / 3, 10, 100, 100, 1)
        assert single_chunks == [32, 32, 32, 4]
        assert call_shapes == []
        # 8 starts per call at n = 13, so one trial's 16 corners take two calls
        call_shapes.clear()
        bins = ((819, 0.4), (2457, 0.3), (4505, 0.2), (6553, 0.1))
        model = PhaseModel.from_pairs(tuple(((b + 0.25) / 2**13, w) for b, w in bins))
        fit_multi(analytic_distribution(RegisterSpec(13), model), 4)
        assert call_shapes == [(8, 7), (8, 7)]

    @pytest.mark.parametrize(
        "n, pairs",
        [(3, ((1 / 3, 0.6), (0.7, 0.4))), (4, ((0.15, 0.5), (0.45, 0.3), (0.8, 0.2)))],
    )
    def test_a_trial_split_across_calls_fits_the_same(self, call_shapes, monkeypatch, n, pairs):
        dist = analytic_distribution(RegisterSpec(n), PhaseModel.from_pairs(pairs))
        observed = histogram_to_probs(sample_shots(dist, 10**4, 2))
        J = len(pairs)
        whole = fit_multi(observed, J)
        assert call_shapes == [(2**J, 2 * J - 1)]
        call_shapes.clear()
        monkeypatch.setattr("qpecf.fitting.BATCH_ELEMENTS", 2**n)  # one start per call
        assert fit_multi(observed, J) == whole
        assert call_shapes == [(1, 2 * J - 1)] * 2**J

    def test_a_campaign_holds_one_calls_pmfs(self):
        grid = BenchGrid((1 / 3,), (16,), (1000,), 40, 1)
        run_grid(grid)  # warm-up: caches and first-use allocations
        tracemalloc.start()
        try:
            run_grid(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 10 float64 pmf rows at M = 2**16 are 5 MB; the whole cell is 40 rows
        assert peak < 10 * 2**16 * 8


class TestScalingExponents:
    def test_recovers_exact_power_laws(self):
        records = [
            synthetic_record(0.3, n, k, 0.3 * k**-0.5 * (2**n) ** -1.0)
            for n in (2, 3, 4)
            for k in (1000, 10000, 100000)
        ]
        summary = fit_scaling_exponents(records)
        assert abs(summary.slope_vs_k - (-0.5)) < 1e-6
        assert abs(summary.slope_vs_M - (-1.0)) < 1e-6
        assert summary.cells_used == 9

    def test_crlb_curve_has_half_power_shot_scaling(self):
        records = [
            synthetic_record(0.3, n, k, float(np.sqrt(crlb_mse(RegisterSpec(n), k))))
            for n in (2, 3, 4)
            for k in (1000, 4000, 10000, 100000)
        ]
        summary = fit_scaling_exponents(records)
        assert abs(summary.slope_vs_k - (-0.5)) < 1e-6

    def test_insufficient_shot_span_is_a_domain_error(self):
        records = [
            synthetic_record(0.3, n, k, 0.01) for n in (2, 3, 4) for k in (100, 1000)
        ]
        with pytest.raises(DomainError) as err:
            fit_scaling_exponents(records)
        assert "3 distinct shot counts" in str(err.value)

    def test_insufficient_register_span_is_a_domain_error(self):
        records = [
            synthetic_record(0.3, n, k, 0.01) for n in (2, 3) for k in (100, 1000, 10000)
        ]
        with pytest.raises(DomainError) as err:
            fit_scaling_exponents(records)
        assert "3 distinct register sizes" in str(err.value)

    def test_zero_and_nan_rmse_cells_are_skipped(self):
        base = [
            synthetic_record(0.3, n, k, 0.3 * k**-0.5 * (2**n) ** -1.0)
            for n in (2, 3, 4)
            for k in (1000, 10000, 100000)
        ]
        reference = fit_scaling_exponents(base)
        padded = base + [
            synthetic_record(0.3, 3, 777, 0.0),
            synthetic_record(0.3, 3, 778, float("nan")),
        ]
        summary = fit_scaling_exponents(padded)
        assert summary == reference
        assert summary.cells_used == 9

    def test_json_rendering(self):
        summary = ScalingSummary(slope_vs_k=-0.5, slope_vs_M=-1.0, cells_used=9)
        # the key order is the published one
        assert json.dumps(summary.to_json_dict()) == (
            '{"slope_vs_k": -0.5, "slope_vs_M": -1.0, "cells_used": 9}'
        )


class TestGridConfig:
    GOOD = {
        "phases": [0.2, 1 / 3],
        "n_values": [2, 3],
        "shot_values": [50, 100],
        "trials": 5,
        "base_seed": 7,
    }

    def test_roundtrip(self):
        grid = BenchGrid.from_json_dict(self.GOOD)
        assert BenchGrid.from_json_dict(grid.to_json_dict()) == grid

    def test_missing_field_names_the_field(self):
        for name in self.GOOD:
            data = {k: v for k, v in self.GOOD.items() if k != name}
            with pytest.raises(ConfigError) as err:
                BenchGrid.from_json_dict(data)
            assert f"'{name}' is missing" in str(err.value)

    def test_wrong_type_names_the_field(self):
        with pytest.raises(ConfigError, match="'phases' must be a list"):
            BenchGrid.from_json_dict({**self.GOOD, "phases": "0.2"})
        with pytest.raises(ConfigError, match="'trials' must be a int"):
            BenchGrid.from_json_dict({**self.GOOD, "trials": 5.0})
        with pytest.raises(ConfigError, match="'trials' must be a int"):
            BenchGrid.from_json_dict({**self.GOOD, "trials": True})

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            BenchGrid.from_json_dict([1, 2, 3])

    def test_value_errors_are_wrapped(self):
        for patch in (
            {"phases": [1.5]},
            {"shot_values": [0]},
            {"shot_values": []},
            {"trials": 0},
            {"trials": 2**32},
            {"n_values": [0]},
            {"base_seed": -1},
            {"shot_values": [2**63]},
            {"phases": [10**400]},
        ):
            with pytest.raises(ConfigError, match="invalid grid config"):
                BenchGrid.from_json_dict({**self.GOOD, **patch})

    @pytest.mark.parametrize("phase", ["0.5", False, True, None, [0.5]])
    def test_phase_must_be_a_real_number(self, phase):
        with pytest.raises(ConfigError, match="invalid grid config: theta must be a real number"):
            BenchGrid.from_json_dict({**self.GOOD, "phases": [phase]})

    def test_trials_fit_one_stream_word(self):
        # a campaign's trial index is one uint32 word of its entropy
        assert BenchGrid((0.2,), (2,), (100,), 2**32 - 1, 7).trials == 2**32 - 1
        with pytest.raises(DomainError, match="trials must be <= 4294967295"):
            BenchGrid((0.2,), (2,), (100,), 2**32, 7)

    def test_single_qubit_register_is_rejected(self):
        # at n = 1, theta and 1 - theta give the same distribution, so a
        # cell's RMSE would measure which of two equal minima the fit keeps
        with pytest.raises(DomainError, match="1 - theta give the same distribution"):
            BenchGrid((0.2,), (1, 2), (100,), 3, 7)
        with pytest.raises(ConfigError, match="1 - theta give the same distribution"):
            BenchGrid.from_json_dict({**self.GOOD, "n_values": [1]})


class TestCsvRendering:
    def test_header_is_the_published_column_order(self):
        assert CSV_HEADER == (
            "theta_true,n,M,k,trials,excluded,rmse,mean_abs_error,"
            "crlb_rmse,ratio,traditional_error,depth_units"
        )

    def test_single_record_rendering_is_frozen(self):
        rec = BenchRecord(
            theta_true=0.375,
            n=3,
            M=8,
            k=1000,
            trials=10,
            excluded=0,
            rmse=0.001,
            mean_abs_error=0.0005,
            crlb_rmse=0.002,
            ratio=0.5,
            traditional_error=0.0,
            depth_units=7,
            valid=True,
            estimates=(0.375,) * 10,
        )
        want = CSV_HEADER + "\n" + "0.375,3,8,1000,10,0,0.001,0.0005,0.002,0.5,0.0,7\n"
        assert records_to_csv([rec]) == want

    def test_twelve_significant_digits(self):
        rec = one_cell(1 / 3, 3, 100, 5, base_seed=2)
        row = records_to_csv([rec]).splitlines()[1]
        assert row.split(",")[0] == "0.333333333333"
