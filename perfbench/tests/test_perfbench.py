"""Tests of the benchmark itself: the tracer's counts, the gates, the reference
clock, the entry point.

    python3 -m pytest perfbench/tests
"""

import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

from qpecf import bench, fitting  # noqa: E402
from qpecf.model import PhaseModel  # noqa: E402

import gates  # noqa: E402
from refclock import KERNEL_CALLS_PER_REF_S, KERNELS, RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_one_cell_three_trials_counts_fits_solves_and_shots():
    k = 400
    grid = bench.BenchGrid((1 / 3,), (3,), (k,), 3, 7)
    tracer = Tracer()
    with tracer:
        records = bench.run_grid(grid, workers=1)
    calls = tracer.span_counts()
    assert records[0].excluded == 0
    assert calls["fitting.fit_single"] == 3
    assert calls["solver.least_squares_box"] == 6
    assert tracer.counts["simulate.sample_shots.shots"] == 3 * k
    assert calls["bench.run_grid"] == 1 and calls["bench.run_cell"] == 1
    assert tracer.counts["pmf.kernel.evals"] == calls["pmf.kernel"] > 6


def test_uninstall_restores_every_site_and_results_do_not_change():
    grid = bench.BenchGrid((1 / 5,), (4,), (100,), 2, 3)
    original = bench.run_grid
    plain = bench.run_grid(grid)
    with Tracer():
        assert bench.run_grid is not original
        traced = bench.run_grid(grid)
    assert bench.run_grid is original
    assert fitting.least_squares_box.__module__ == "qpecf.solver"
    assert repr(traced) == repr(plain)


def test_self_time_excludes_child_spans():
    tracer = Tracer(sites=())
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans = {s[0]: s for s in tracer.spans}
    outer_span = spans["outer"]
    children = sum(s[2] - s[1] for s in tracer.spans if s[0] == "inner")
    assert outer_span[4] == pytest.approx(outer_span[2] - outer_span[1] - children)
    assert all(s[3] == 0 for s in tracer.spans if s[0] == "inner")


def test_missing_site_is_reported_absent_not_raised():
    module = types.ModuleType("perfbench_fake_module")
    sys.modules[module.__name__] = module
    try:
        sites = (
            (module.__name__, "gone", "fake.gone", None),
            ("perfbench_no_such_module", "f", "fake.module", None),
        )
        with Tracer(sites=sites) as tracer:
            pass
    finally:
        del sys.modules[module.__name__]
    assert tracer.absent == [f"{module.__name__}.gone", "perfbench_no_such_module.f"]
    assert tracer.installed == set()


def test_fit_error_counts_as_excluded():
    from qpecf.errors import FitError

    def failing():
        raise FitError("no fit")

    tracer = Tracer(sites=())
    wrapped = tracer.wrap("fitting.fit_single", failing, "fit_single")
    with pytest.raises(FitError):
        wrapped()
    assert tracer.counts["fitting.fit_single.excluded"] == 1
    assert tracer.span_counts()["fitting.fit_single"] == 1


def test_gates_pass_on_true_phases_and_fail_on_a_wrong_one():
    assert gates.fit_single_recovers(5, 1 / 3).ok
    assert not gates.fit_single_recovers(5, 1 / 3, theta_claimed=1 / 3 + 1e-6).ok
    model = PhaseModel.from_pairs(((1 / 3, 0.6), (0.7, 0.4)))
    assert gates.fit_multi_recovers(6, model).ok
    assert not gates.fit_multi_recovers(6, model, claimed=(1 / 3, 0.7 + 1e-4)).ok
    assert gates.simulator_matches_analytic(6, model).ok
    assert gates.fisher_matches_closed_form(10).ok


def test_reference_kernels_do_fixed_work():
    for kernel in KERNELS.values():
        assert kernel() == kernel()


def test_refclock_divides_wall_time_by_the_kernel_calls_around_it():
    clock = RefClock(KERNELS["campaign_few"])
    before = clock.last_kernel_s
    result, wall_s, ref_s = clock.time(sum, range(100_000))
    after = clock.last_kernel_s
    assert result == sum(range(100_000))
    assert clock.kernel_s[-2:] == [before, after]
    assert ref_s == pytest.approx(wall_s / ((before + after) / 2) / KERNEL_CALLS_PER_REF_S)
    clock.time(sum, range(10))
    assert clock.kernel_s[-3:-1] == [before, after]


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "campaign_few",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
