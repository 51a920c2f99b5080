#!/usr/bin/env python3
"""Write one point of the performance trajectory as JSON.

    python3 scripts/bench_perf.py BENCH_13.json

Three parts, all single-process:

1. Each north-star layer at pinned sizes, on inputs built outside the timed
   region, in wall seconds and in reference seconds per call. The reference
   clock is perfbench's (perfbench/refclock.py, with the campaign_few
   kernel): each timed run is divided by the fixed kernel timed right
   before and after it, so a machine that runs slower for a while stretches
   both and two points taken apart stay comparable. A timed run repeats the
   call as often as fits in RUN_BUDGET_REF_S (at least once); the layer
   records the per-call median of 5 runs. pmf_vector runs at n = 20, not
   24: at n = 24 one call peaks at 800 MB resident.
2. configs/smoke_grid.json end to end (median of 5 runs) and
   configs/full_grid.json (median of FULL_GRID_RUNS runs, 0.8–1.5 s each on
   2 vCPUs; single runs of equally fast code have read 20 % apart), on the
   same reference clock, in wall and reference seconds.
3. The three perfbench workloads, each run as
   ``perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0``,
   recording the reference-clocked trials_per_s, setup_s and peak_rss_mb.
   A workload that exits non-zero or reports correct: false stops the
   script with the tail of its stderr, and no point is written.

The point also records the CPU count and the Python and numpy versions.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from qpecf.bench import BenchGrid, run_grid
from qpecf.fitting import fit_multi, fit_single
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import analytic_distribution, fisher_information, pmf_vector
from qpecf.simulate import SimUnitary, histogram_to_probs, sample_shots, simulate_distribution

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from refclock import KERNELS, RefClock  # noqa: E402
REPEATS = 5
FULL_GRID_RUNS = 3
# Each timed run of a layer repeats its call for about as long as one
# reference-kernel call, so a sub-millisecond layer is not timed against a
# kernel a hundred times longer; a slower layer is still one call per run.
RUN_BUDGET_REF_S = 0.02
WORKLOADS = ("campaign_few", "campaign_mega", "readout_wide")
TWO = ((1 / 3, 0.6), (0.7, 0.4))
THREE = ((0.15, 0.5), (0.45, 0.3), (0.8, 0.2))


def observed(n: int, pairs, k: int):
    dist = analytic_distribution(RegisterSpec(n), PhaseModel.from_pairs(pairs))
    return histogram_to_probs(sample_shots(dist, k, 1))


def layer_calls():
    """(layer, size, zero-argument call) for every timed layer."""
    calls = []
    for pairs in (((1 / 3, 1.0),), THREE):
        model = PhaseModel.from_pairs(pairs)
        calls.append(("pmf_vector", f"n=20 J={len(pairs)}",
                      lambda m=model: pmf_vector(RegisterSpec(20), m)))
    for n, k in ((3, 10**6), (8, 10**6)):
        dist = analytic_distribution(RegisterSpec(n), PhaseModel.single(1 / 3))
        calls.append(("sample_shots", f"n={n} k={k}", lambda d=dist, k=k: sample_shots(d, k, 1)))
    # n = 6 at k = 100 leaves most bins empty, where the observed-bin search gains most.
    for n, k in ((3, 4000), (6, 100), (8, 4000), (12, 10**5), (16, 10**5), (20, 10**5)):
        dist = observed(n, ((1 / 3, 1.0),), k)
        calls.append(("fit_single", f"n={n} k={k}", lambda d=dist: fit_single(d)))
    for pairs, n in ((TWO, 3), (TWO, 8), (THREE, 5), (THREE, 10)):
        dist = observed(n, pairs, 10**5)
        J = len(pairs)
        calls.append(("fit_multi", f"J={J} n={n} k=100000", lambda d=dist, J=J: fit_multi(d, J)))
    for n in (12, 20):
        unitary = SimUnitary.from_model(PhaseModel.from_pairs(THREE))
        calls.append(("simulate_distribution", f"n={n} J=3",
                      lambda n=n, u=unitary: simulate_distribution(RegisterSpec(n), u)))
    calls.append(("fisher_information", "n=20", lambda: fisher_information(RegisterSpec(20))))
    # One grid cell; the layer keeps its run_cell label so the trajectory lines up.
    for n, k in ((3, 4000), (8, 10**6)):
        grid = BenchGrid((1 / 3,), (n,), (k,), 100, 12345)
        calls.append(("run_cell", f"100 trials n={n} k={k}", lambda g=grid: run_grid(g)))
    return calls


def repeated(fn, calls: int):
    def run():
        for _ in range(calls):
            fn()
    return run


def grid_run(name: str):
    with open(REPO / "configs" / f"{name}.json") as fh:
        grid = BenchGrid.from_json_dict(json.load(fh))
    return lambda: run_grid(grid, workers=1)


def perfbench(workload: str) -> dict:
    # run.py puts the checkout's src on its workers' path itself.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    # A failed or incorrect run must not become a committed point.
    if proc.returncode != 0 or not lines:
        failure = f"exited {proc.returncode}"
    else:
        result = json.loads(lines[-1])
        if result["correct"]:
            point = {name: metric["value"] for name, metric in result["metrics"].items()}
            point["correct"] = True
            return point
        failure = "reported correct: false"
    tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
    sys.exit(f"perfbench workload {workload} {failure}\n{tail}")


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT.json")
    layers = []
    clock = RefClock(KERNELS["campaign_few"])
    for layer, size, fn in layer_calls():
        # The first call warms caches and imports, and sizes the timed runs.
        calls = max(1, round(RUN_BUDGET_REF_S / clock.time(fn)[2]))
        runs = [clock.time(repeated(fn, calls))[1:] for _ in range(REPEATS)]
        median = statistics.median(wall_s for wall_s, _ in runs) / calls
        median_ref = statistics.median(ref_s for _, ref_s in runs) / calls
        layers.append({"layer": layer, "size": size, "median_s": median,
                       "median_ref_s": median_ref, "runs": REPEATS, "calls_per_run": calls})
        print(f"{layer:22s} {size:24s} {median * 1e3:10.3f} ms {median_ref * 1e3:10.3f} ref ms",
              flush=True)

    end_to_end = []
    for name, runs in (("smoke_grid", REPEATS), ("full_grid", FULL_GRID_RUNS)):
        times = [clock.time(grid_run(name))[1:] for _ in range(runs)]
        seconds = statistics.median(wall_s for wall_s, _ in times)
        median_ref = statistics.median(ref_s for _, ref_s in times)
        end_to_end.append({"grid": f"configs/{name}.json", "wall_s": seconds,
                           "median_ref_s": median_ref, "runs": runs})
        print(f"{name:22s} {'1 process':24s} {seconds:10.3f} s {median_ref:10.3f} ref s",
              flush=True)

    workloads = {}
    for workload in WORKLOADS:
        workloads[workload] = perfbench(workload)
        print(f"{workload:22s} {'perfbench':24s} {workloads[workload]}", flush=True)

    point = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "layers": layers,
        "end_to_end": end_to_end,
        "perfbench": workloads,
    }
    Path(sys.argv[1]).write_text(json.dumps(point, indent=2) + "\n")


if __name__ == "__main__":
    main()
