"""End-to-end gate: one test per published claim, each printing PASS or FAIL.

The expensive Monte Carlo grids are shared between tests through a module
cache so every cell is computed once per worker count.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    allowed_flips,
    central_log_diff,
    family_z,
    fd_jacobian,
    mirror_flip_probability,
    mirror_phase,
    on_bin_error_bound,
    oracle_pmf_vector,
    random_phase_model,
    src_env,
)
from test_pmf import FISHER_REFERENCE

from qpecf.bench import (
    BenchGrid,
    circular_error,
    fit_scaling_exponents,
    records_to_csv,
    run_grid,
)
from qpecf.fitting import _problem, fit_multi, fit_single
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import analytic_distribution, pmf_single, pmf_vector, score
from qpecf.simulate import SimUnitary, histogram_to_probs, sample_shots, simulate_distribution

BASE_SEED = 12345
CRLB_RMSE_MILLION = 3.473e-5  # 1/sqrt(k * FI) at n=3, k=1e6

GRIDS = {
    "mixed_phases": BenchGrid(
        phases=(1 / 5, 1 / 7, 1 / 9),
        n_values=(3, 5, 7),
        shot_values=(4000, 100000),
        trials=100,
        base_seed=BASE_SEED,
    ),
    "third_shot_ladder": BenchGrid(
        phases=(1 / 3,),
        n_values=(3,),
        shot_values=(4000, 10000, 100000, 1000000),
        trials=100,
        base_seed=BASE_SEED,
    ),
    "third_register_ladder": BenchGrid(
        phases=(1 / 3,),
        n_values=(2, 3, 4, 5, 6, 7, 8),
        shot_values=(100000,),
        trials=100,
        base_seed=BASE_SEED,
    ),
    "third_low_shot_corners": BenchGrid(
        phases=(1 / 3,),
        n_values=(5, 7),
        shot_values=(4000,),
        trials=100,
        base_seed=BASE_SEED,
    ),
    "few_shots": BenchGrid(
        phases=(1 / 3,),
        n_values=(3,),
        shot_values=(10, 20),
        trials=100,
        base_seed=BASE_SEED,
    ),
}

TWO_PHASE_MODEL = PhaseModel.from_pairs([(1 / 3, 0.5), (0.5, 0.5)])
TWO_PHASE_TRIALS = 20


@pytest.fixture(scope="module")
def cache():
    return {"records": {}, "elapsed": {}, "two_phase": {}}


def grid_records(cache, name, workers=1):
    key = (name, workers)
    if key not in cache["records"]:
        started = time.perf_counter()
        cache["records"][key] = run_grid(GRIDS[name], workers=workers)
        cache["elapsed"][key] = time.perf_counter() - started
    return cache["records"][key]


def grids_elapsed(cache, *names):
    return sum(cache["elapsed"].get((name, 1), 0.0) for name in names)


def two_phase_results(cache, tag):
    """20 seeded million-shot two-phase fits, keyed so reruns are independent."""
    if tag not in cache["two_phase"]:
        started = time.perf_counter()
        dist = analytic_distribution(RegisterSpec(3), TWO_PHASE_MODEL)
        payloads = []
        for trial in range(TWO_PHASE_TRIALS):
            seed = np.random.SeedSequence(entropy=(BASE_SEED, 777, trial))
            hist = sample_shots(dist, 10**6, seed)
            result = fit_multi(histogram_to_probs(hist), 2)
            payloads.append(json.dumps(result.to_json_dict(), sort_keys=True))
        cache["two_phase"][tag] = (payloads, time.perf_counter() - started)
    return cache["two_phase"][tag]


def _cell(records, theta, n, k):
    return next(r for r in records if r.theta_true == theta and r.n == n and r.k == k)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    # lets _report write through pytest's capture so every criterion emits
    # its PASS/FAIL line in the live -v output, not only on failure
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def test_fisher_table_matches_references():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qpecf", "fisher", "--n-min", "2", "--n-max", "8"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    worst = 0.0
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 7
    for row in rows:
        _, M, fisher, _ = row.split(",")
        want = FISHER_REFERENCE[int(M)]
        worst = max(worst, abs(float(fisher) - want) / want)
    _report(
        "fisher table vs references",
        worst < 1e-8 and elapsed < 1.0,
        f"worst rel err {worst:.2e} (< 1e-8), {elapsed:.2f}s (< 1s)",
    )


def test_simulator_analytic_and_oracle_agree():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sim = 0.0
    worst_oracle = 0.0
    for n in range(2, 9):
        reg = RegisterSpec(n)
        models = [PhaseModel.single(float(rng.random())) for _ in range(50)]
        models += [PhaseModel.from_pairs(random_phase_model(rng, 2)) for _ in range(20)]
        for model in models:
            analytic = pmf_vector(reg, model)
            simulated = simulate_distribution(reg, SimUnitary.from_model(model)).probs
            worst_sim = max(worst_sim, float(np.max(np.abs(simulated - analytic))))
            if n <= 6:
                pairs = [(c.theta, c.weight) for c in model.components]
                oracle = oracle_pmf_vector(n, pairs)
                worst_oracle = max(
                    worst_oracle,
                    float(np.max(np.abs(simulated - oracle))),
                    float(np.max(np.abs(analytic - oracle))),
                )
    elapsed = time.perf_counter() - started
    _report(
        "simulator = analytic = oracle",
        worst_sim < 1e-12 and worst_oracle < 1e-12 and elapsed < 10.0,
        f"sim vs analytic {worst_sim:.2e}, vs oracle {worst_oracle:.2e} "
        f"(< 1e-12), {elapsed:.1f}s (< 10s)",
    )


def test_score_and_jacobian_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    step = 1e-7

    worst_score = 0.0
    accepted = 0
    while accepted < 500:
        n = int(rng.integers(2, 9))
        reg = RegisterSpec(n)
        theta = float(rng.uniform(1e-6, 1 - 1e-6))
        y = int(rng.integers(reg.M))
        if pmf_single(reg, theta, y) <= 1e-8:
            continue
        analytic = score(reg, theta, y)
        if abs(analytic) < 1e-3:
            continue  # relative comparison is ill-posed at a score zero
        fd = central_log_diff(lambda t: pmf_single(reg, t, y), theta, step)
        worst_score = max(worst_score, abs(fd - analytic) / abs(analytic))
        accepted += 1

    # the solver's Jacobian of a two-phase fit: both phases and the free weight
    worst_jac = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        reg = RegisterSpec(n)
        probs = pmf_vector(reg, PhaseModel.single(float(rng.random())))
        residual, jacobian = _problem(reg, 2, probs)
        point = np.append(rng.uniform(1e-6, 1 - 1e-6, 2), rng.uniform(0.1, 0.9))
        fd = fd_jacobian(lambda q: residual(q[np.newaxis])[0], point, h=step)
        analytic = jacobian(point[np.newaxis])[0]
        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        worst_jac = max(worst_jac, float(np.linalg.norm(fd - analytic)) / denom)

    elapsed = time.perf_counter() - started
    _report(
        "score and Jacobian vs finite differences",
        worst_score < 1e-5 and worst_jac < 1e-5 and elapsed < 5.0,
        f"score rel {worst_score:.2e}, Jacobian rel {worst_jac:.2e} "
        f"(< 1e-5), {elapsed:.1f}s (< 5s)",
    )


def test_exact_pmf_phase_recovery_to_nine_digits():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        reg = RegisterSpec(n)
        for theta in (1 / 3, 1 / 5, 1 / 7, 1 / 9):
            fitted = fit_single(analytic_distribution(reg, PhaseModel.single(theta)))
            worst = max(worst, circular_error(fitted.phases[0], theta))
        wrapped = 0.99 + 0.005 / reg.M
        fitted = fit_single(analytic_distribution(reg, PhaseModel.single(wrapped)))
        worst = max(worst, circular_error(fitted.phases[0], wrapped))
    elapsed = time.perf_counter() - started
    _report(
        "zero-noise recovery incl. wrapped interval",
        worst < 1e-9 and elapsed < 5.0,
        f"worst circular error {worst:.2e} (< 1e-9), {elapsed:.1f}s (< 5s)",
    )


def test_million_shot_rmse_sits_on_the_bound():
    started = time.perf_counter()
    (record,) = run_grid(BenchGrid((1 / 3,), (3,), (10**6,), 100, BASE_SEED))
    errors = np.array([circular_error(est, 1 / 3) for est in record.estimates])
    rmse = float(np.sqrt(np.mean(errors**2)))
    worst_trial = float(np.max(errors))
    elapsed = time.perf_counter() - started
    ok = (
        record.excluded == 0
        and 0.8 * CRLB_RMSE_MILLION <= rmse <= 1.5 * CRLB_RMSE_MILLION
        and worst_trial < 4 * CRLB_RMSE_MILLION
        and elapsed < 120.0
    )
    _report(
        "million-shot RMSE on the bound",
        ok,
        f"rmse {rmse:.3e} in [{0.8 * CRLB_RMSE_MILLION:.3e}, {1.5 * CRLB_RMSE_MILLION:.3e}], "
        f"worst trial {worst_trial:.3e} (< {4 * CRLB_RMSE_MILLION:.3e}), "
        f"excluded {record.excluded}, {elapsed:.0f}s (< 120s)",
    )


def _basin_split(record):
    """Errors of a cell's trials that landed in the true basin, and the mirror count.

    A trial belongs to the basin of whichever of theta and its bin mirror
    2y/M - theta is circularly closer to its estimate.
    """
    theta = record.theta_true
    mirror = mirror_phase(RegisterSpec(record.n), theta)
    errors = np.array([circular_error(est, theta) for est in record.estimates])
    to_mirror = np.array([circular_error(est, mirror) for est in record.estimates])
    in_true = errors <= to_mirror
    return errors[in_true], int(np.count_nonzero(~in_true))


def test_bound_ratio_window_across_grid(cache):
    # The CRLB is a local bound, and the half-bin fit window always holds a
    # second likelihood maximum: the bin mirror 2y/M - theta, whose pmf is
    # that of theta reflected about y. With d = P(mirror) - P(theta) and
    # Sigma = diag(P) - P P^T, least squares picks the mirror with chance
    # Phi(-|d|^2 / (2 sqrt(d^T Sigma d / k))). At (theta=1/9, n=3, k=4000)
    # that is 1.58% (k * KL = 9.6; 1.5% measured over 1000 trials), and
    # two flips at BASE_SEED give a full ratio of 7.13 against 1.01 for
    # the unflipped trials (0.864-1.102 over base seeds 1-10). A
    # multinomial-likelihood chooser (5.20) and a grid-scan MLE (5.19) do
    # no better, so no estimator meets the window there. The check
    # therefore splits each cell's trials by basin and asserts (i) the
    # true-basin RMSE sits in the window on every cell, (ii) each cell's
    # flip count stays within the 1e-3 binomial tail of its predicted flip
    # chance (7 allowed at (1/9, 3, 4000), 1 at (1/7, 3, 4000), 0 elsewhere)
    # and (iii) the full RMSE sits in the window on every cell where any
    # flip among its trials has chance <= 5% (23 of the 24).
    records = list(grid_records(cache, "mixed_phases"))
    records += grid_records(cache, "third_low_shot_corners")
    ladder = grid_records(cache, "third_shot_ladder")
    registers = grid_records(cache, "third_register_ladder")
    records += [_cell(ladder, 1 / 3, 3, 4000), _cell(ladder, 1 / 3, 3, 100000)]
    records += [_cell(registers, 1 / 3, 5, 100000), _cell(registers, 1 / 3, 7, 100000)]
    assert len(records) == 24
    elapsed = grids_elapsed(
        cache,
        "mixed_phases",
        "third_low_shot_corners",
        "third_shot_ladder",
        "third_register_ladder",
    )

    true_ratios = []
    resolvable_ratios = []
    flagged = []
    ok = all(r.valid for r in records) and elapsed < 600.0
    for r in records:
        true_errors, flips = _basin_split(r)
        p_flip = mirror_flip_probability(RegisterSpec(r.n), r.theta_true, r.k)
        allowed = allowed_flips(r.trials, p_flip)
        if true_errors.size:
            true_ratios.append(float(np.sqrt(np.mean(true_errors**2))) / r.crlb_rmse)
            ok = ok and 0.8 <= true_ratios[-1] <= 1.5
        else:
            ok = False
        ok = ok and flips <= allowed
        if 1.0 - (1.0 - p_flip) ** r.trials <= 0.05:
            resolvable_ratios.append(r.ratio)
            ok = ok and 0.8 <= r.ratio <= 1.5
        if allowed or flips:
            flagged.append(
                f"({Fraction(r.theta_true).limit_denominator(1000)}, {r.n}, {r.k}) "
                f"{flips}/{allowed} flips, full ratio {r.ratio:.3f}"
            )
    _report(
        "CRLB ratio window across 24 cells",
        ok,
        f"true-basin ratio range [{min(true_ratios, default=np.nan):.3f}, "
        f"{max(true_ratios, default=np.nan):.3f}] over {len(true_ratios)} cells, "
        f"full ratio range [{min(resolvable_ratios):.3f}, {max(resolvable_ratios):.3f}] "
        f"on {len(resolvable_ratios)} resolvable cells (within [0.8, 1.5]); "
        f"flips vs allowed: {'; '.join(flagged) or 'none'}; {elapsed:.0f}s (< 600s)",
    )


def test_error_scaling_exponents(cache):
    ladder = grid_records(cache, "third_shot_ladder")
    registers = grid_records(cache, "third_register_ladder")
    seen = set()
    merged = []
    for rec in ladder + registers:
        coord = (rec.theta_true, rec.n, rec.k)
        if coord not in seen:
            seen.add(coord)
            merged.append(rec)
    summary = fit_scaling_exponents(merged)
    elapsed = grids_elapsed(cache, "third_shot_ladder", "third_register_ladder")
    ok = (
        -0.6 <= summary.slope_vs_k <= -0.4
        and -1.2 <= summary.slope_vs_M <= -0.8
        and elapsed < 900.0
    )
    _report(
        "error scaling exponents",
        ok,
        f"slope vs shots {summary.slope_vs_k:.3f} (in [-0.6, -0.4]), "
        f"slope vs register {summary.slope_vs_M:.3f} (in [-1.2, -0.8]), "
        f"{elapsed:.0f}s (< 900s)",
    )


def test_ten_and_twenty_shot_rmse_beats_binning(cache):
    records = grid_records(cache, "few_shots")
    bound = records[0].traditional_error  # |3/8 - 1/3| = 1/24
    worst = max(r.rmse for r in records)
    elapsed = grids_elapsed(cache, "few_shots")
    ok = worst <= bound and elapsed < 5.0
    _report(
        "few-shot RMSE beats the bin width",
        ok,
        f"worst rmse {worst:.3e} <= {bound:.3e}, {elapsed:.1f}s (< 5s)",
    )


def test_two_phase_recovery(cache):
    # The 1/2 component sits exactly on bin y0 = 4 of n = 3, so P(y) depends
    # on eps = theta_2 - 1/2 only through w c_y eps^2, with c_y = pi^2 /
    # sin^2(pi (y - y0) / M) off the bin and -pi^2 (M^2 - 1) / 3 on it: its
    # first-order Fisher information is zero. Only u = eps^2 is informative,
    # with single-shot information J2 = sum (w c_y)^2 / P(y) ~ 1.73e5, so
    # sigma_u = 1/sqrt(k J2) = 2.4e-6 at a million shots. About half the
    # fits land on eps ~ 0 and the rest scatter as sqrt(sigma_u |Z|); 35% of
    # trials exceed 1e-3, and in each the fitted SSR is no higher than the
    # SSR at the truth, so that is the data's limit, not the solver's. The
    # on-bin component is therefore held to eps^2 <= z sigma_u, with z set
    # so that all 20 trials pass with probability 1 - 1e-3 (bound ~3.1e-3),
    # while the off-bin 1/3 component keeps 1e-3 (worst 1.1e-4 against a
    # CRLB RMSE of 5.0e-5) and the exact-PMF fit keeps 1e-6.
    reg = RegisterSpec(3)
    exact = fit_multi(analytic_distribution(reg, TWO_PHASE_MODEL), 2)
    exact_err = max(
        circular_error(phase, truth)
        for phase, truth in zip(sorted(exact.phases), (1 / 3, 0.5))
    )

    payloads, elapsed = two_phase_results(cache, "first")
    on_bin_bound = on_bin_error_bound(
        reg, TWO_PHASE_MODEL, 1, 10**6, family_z(TWO_PHASE_TRIALS)
    )
    worst_off_bin = 0.0
    worst_on_bin = 0.0
    for payload in payloads:
        off_bin, on_bin = sorted(json.loads(payload)["phases"])
        worst_off_bin = max(worst_off_bin, circular_error(off_bin, 1 / 3))
        worst_on_bin = max(worst_on_bin, circular_error(on_bin, 0.5))

    ok = (
        exact_err < 1e-6
        and worst_off_bin < 1e-3
        and worst_on_bin <= on_bin_bound
        and elapsed < 60.0
    )
    _report(
        "two-phase recovery (exact and sampled)",
        ok,
        f"exact {exact_err:.2e} (< 1e-6), sampled worst {worst_off_bin:.2e} at 1/3 "
        f"(< 1e-3), {worst_on_bin:.2e} at on-bin 1/2 (<= {on_bin_bound:.2e}), "
        f"{elapsed:.0f}s (< 60s)",
    )


def test_worker_count_determinism(cache):
    started = time.perf_counter()
    mismatches = []
    for name in GRIDS:
        serial_csv = records_to_csv(grid_records(cache, name, workers=1))
        parallel_csv = records_to_csv(grid_records(cache, name, workers=8))
        if serial_csv != parallel_csv:
            mismatches.append(name)
    first, _ = two_phase_results(cache, "first")
    second, _ = two_phase_results(cache, "second")
    if first != second:
        mismatches.append("two_phase_json")
    elapsed = time.perf_counter() - started
    _report(
        "worker-count determinism",
        not mismatches,
        f"byte-identical outputs for {len(GRIDS)} grids + two-phase JSON "
        f"(mismatches: {mismatches or 'none'}), {elapsed:.0f}s",
    )
