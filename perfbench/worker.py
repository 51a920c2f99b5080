"""One benchmark process, started fresh by run.py for each role.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py gates
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED OUT_DIR

qpecf must be importable (run.py puts the checkout's src on PYTHONPATH).
Every role except setup prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import qpecf
import workloads
from refclock import KERNELS, RefClock
from tracer import Tracer

MIN_PASSES = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ready(name: str, seed: int):
    work = workloads.make(name, seed)
    work.warm_up()
    return work


class Tally:
    """Fits attempted and failed over passes, with determinism across passes."""

    def __init__(self):
        self.fits = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, str] = {}
        self.outputs: list = []

    def add(self, index: int, outcome) -> None:
        self.fits += outcome.fits
        self.failed += outcome.failed
        self.problems += outcome.problems
        fingerprint = repr(outcome.output)
        if index not in self.first:
            self.first[index] = fingerprint
            self.outputs.append(outcome.output)
        elif fingerprint != self.first[index]:
            self.failed += outcome.fits - outcome.failed
            self.problems.append(f"unit {index}: output differs between passes")

    def to_json(self) -> dict:
        return {"fits": self.fits, "failed": self.failed, "problems": self.problems[:20]}


def _run_unit(work, tally: Tally, index: int) -> float:
    started = time.perf_counter()
    outcome = work.run_unit(index)
    elapsed = time.perf_counter() - started
    tally.add(index, outcome)
    return elapsed


def _pass(work, tally: Tally) -> float:
    return sum(_run_unit(work, tally, index) for index in range(len(work.units)))


def role_gates() -> dict:
    import gates

    results = gates.run_all()
    return {
        "checks": len(results),
        "failed": [f"{g.name}: {g.detail}" for g in results if not g.ok],
    }


def role_measure(name: str, seed: int, seconds: float) -> dict:
    work = _ready(name, seed)
    clock = RefClock(KERNELS[name])
    tally = Tally()
    units = len(work.units)
    wall: list[list[float]] = [[] for _ in range(units)]
    ref: list[list[float]] = [[] for _ in range(units)]
    started = time.perf_counter()
    done = 0
    # Units run in turn until the time is up, stopping between units, each
    # timed in wall and reference seconds (refclock.py).
    while done < MIN_PASSES * units or time.perf_counter() - started < seconds:
        index = done % units
        outcome, wall_s, ref_s = clock.time(work.run_unit, index)
        tally.add(index, outcome)
        wall[index].append(wall_s)
        ref[index].append(ref_s)
        done += 1
    # Inputs are the same on every pass, so a unit's passes repeat the same
    # work: each unit counts with its median pass.
    out = {
        "trials_per_s": work.trials_per_pass / sum(statistics.median(t) for t in ref),
        "trials_per_wall_s": work.trials_per_pass / sum(statistics.median(t) for t in wall),
        "samples": {"trials_per_s": done, "peak_rss_mb": 1},
        "passes": done / units,
        "units": units,
        "unit_times_s": [[round(x, 6) for x in t] for t in wall],
        "unit_times_ref_s": [[round(x, 6) for x in t] for t in ref],
        "kernel_s": [round(x, 6) for x in clock.kernel_s],
        "measured_s": time.perf_counter() - started,
        "peak_rss_mb": _peak_rss_mb(),
        **tally.to_json(),
    }
    if isinstance(work, workloads.Campaign):
        out["crlb_ratio_gmean"] = work.crlb_ratio_gmean(tally.outputs)
    return out


def _layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    c = tracer.counts
    self_s = tracer.self_seconds()
    calls = tracer.span_counts()
    solves = c["solver.solves"]
    fits = calls["fitting.fit_single"] + calls["fitting.fit_multi"]
    succeeded = c["fitting.fit_single.succeeded"] + c["fitting.fit_multi.succeeded"]
    shots = c["simulate.sample_shots.shots"]
    m = {
        "simulate.sample_shots.calls": calls["simulate.sample_shots"],
        "simulate.sample_shots.self_s": self_s["simulate.sample_shots"],
        "simulate.sample_shots.shots": shots,
        "simulate.sample_shots.ns_per_shot": 1e9 * self_s["simulate.sample_shots"] / shots
        if shots
        else 0.0,
        "simulate.simulate_distribution.calls": calls["simulate.simulate_distribution"],
        "simulate.simulate_distribution.self_s": self_s["simulate.simulate_distribution"],
        "simulate.simulate_distribution.dft_bytes_computed": c[
            "simulate.simulate_distribution.dft_bytes_computed"
        ],
        "simulate.histogram_to_probs.self_s": self_s["simulate.histogram_to_probs"],
        "solver.least_squares_box.calls": calls["solver.least_squares_box"],
        "solver.least_squares_box.self_s": self_s["solver.least_squares_box"],
        "solver.least_squares_box.iters_mean": c["solver.iters_sum"] / solves if solves else 0.0,
        "solver.least_squares_box.iters_max": c["solver.least_squares_box.iters_max"],
        "pmf.kernel.evals": c["pmf.kernel.evals"],
        "pmf.kernel.elements": c["pmf.kernel.elements"],
        "pmf.kernel.self_s": self_s["pmf.kernel"],
        "pmf.analytic_distribution.self_s": self_s["pmf.analytic_distribution"],
        "pmf.crlb_mse.self_s": self_s["pmf.crlb_mse"],
        "fitting.fit_single.calls": calls["fitting.fit_single"],
        "fitting.fit_single.self_s": self_s["fitting.fit_single"],
        "fitting.fit_single.excluded": c["fitting.fit_single.excluded"],
        "fitting.fit_single.start_right_frac": c["fitting.fit_single.start_right"]
        / c["fitting.fit_single.succeeded"]
        if c["fitting.fit_single.succeeded"]
        else 0.0,
        "fitting.fit_multi.calls": calls["fitting.fit_multi"],
        "fitting.fit_multi.self_s": self_s["fitting.fit_multi"],
        "fitting.solves_per_fit": solves / fits if fits else 0.0,
        "fitting.useful_solve_frac": succeeded / solves if solves else 0.0,
        "bench.run_cell.calls": calls["bench.run_cell"],
        "bench.run_cell.self_s": self_s["bench.run_cell"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unaccounted_frac": 1.0 - sum(self_s.values()) / traced_s,
    }
    for status in ("gtol", "xtol", "maxiter"):
        key = f"solver.least_squares_box.status_{status}"
        m[key] = c[key]
    m["solver.least_squares_box.nonconverged"] = c["solver.least_squares_box.nonconverged"]
    return {k: float(v) for k, v in m.items()}


def _layer_samples(tracer: Tracer, metrics: dict) -> dict:
    """Spans behind each per-layer metric; one pass for the whole-run ratios."""
    calls = tracer.span_counts()
    samples = {name: calls.get(name.rsplit(".", 1)[0], 0) for name in metrics}
    samples["fitting.solves_per_fit"] = calls.get("solver.least_squares_box", 0)
    samples["fitting.useful_solve_frac"] = calls.get("solver.least_squares_box", 0)
    samples.update({name: 1 for name in metrics if name.startswith("trace.")})
    samples["bench.run_grid.speedup_2w"] = 1
    return samples


def role_trace(name: str, seed: int, out_dir: str) -> dict:
    work = _ready(name, seed)
    tally = Tally()
    untraced_s = _pass(work, tally)
    tracer = Tracer()
    with tracer:
        traced_s = _pass(work, tally)
    metrics = _layer_metrics(tracer, untraced_s, traced_s)
    not_applicable = []
    if isinstance(work, workloads.Campaign):
        # Spawning the workers is part of the cost, so it is inside the timing.
        t0 = time.perf_counter()
        records = work.run_all(workers=2)
        metrics["bench.run_grid.speedup_2w"] = untraced_s / (time.perf_counter() - t0)
        if repr(records) != repr([r for out in tally.outputs for r in out]):
            tally.failed += len(records) * work.grid.trials
            tally.problems.append("workers=2 records differ from workers=1")
        tally.fits += len(records) * work.grid.trials
    else:
        metrics["bench.run_grid.speedup_2w"] = 0.0
        not_applicable.append("bench.run_grid.speedup_2w")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json.gz")
    tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "absent_sites": tracer.absent,
        "absent_layers": sorted(
            {layer for _, _, layer, _ in tracer.sites} - tracer.installed
        ),
        "not_applicable": not_applicable,
        "samples": _layer_samples(tracer, metrics),
        "spans_file": spans_path,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        **tally.to_json(),
    }


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "setup":
        _ready(argv[1], int(argv[2]))
        return 0
    if role == "gates":
        result = role_gates()
    elif role == "measure":
        result = role_measure(argv[1], int(argv[2]), float(argv[3]))
    elif role == "trace":
        result = role_trace(argv[1], int(argv[2]), argv[3])
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    result["qpecf_file"] = qpecf.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
