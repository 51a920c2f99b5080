#!/usr/bin/env python3
"""Print one sha256 per output family, to check that a change keeps results the same.

    python3 scripts/same_results.py

Each line is "name sha256". Run it on two checkouts: identical lines mean
identical bytes in every family below.

- smoke_csv, smoke_scaling, full_csv, full_scaling: the campaign CSV and
  scaling JSON of configs/smoke_grid.json and configs/full_grid.json on one
  process, as `qpecf bench` writes them.
- full_estimates: the .hex() of every full-grid estimate, in record order.
- fit_single: every FitResult field of seeded readouts at n = 2-20.
- fit_multi: every FitResult field of seeded J = 2 and 3 readouts at
  n = 3-12, and of the four mixtures of perfbench's readout_wide workload.
- pmf_kernel: the bytes of every _pmf_kernel output at phases on a bin,
  within NEAR_PEAK of one and off-bin: dense P and P + dP/dtheta over all M
  bins for each phase alone and all three together (J = 3) at n = 1, 3, 10
  and 20, and the rows modes P, dP/dtheta and dP/dtheta + d2P/dtheta2 on
  seven bins around each phase at n = 3, 10 and 30.
- draws: the bytes of sample_shots' counts at int and SeedSequence seeds,
  and of every trial's counts in one campaign cell at each n in {2, 8, 16}
  and k in {1, 10, 10**6}, drawn through the public trial_seed path, which
  the campaign's own draws equal bit for bit (tests/test_bench.py). A
  change to the random stream shows here as well as through the fits.

Floats are hashed through .hex(), so a change in the last bit shows.
"""

import dataclasses
import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np

from qpecf.bench import BenchGrid, fit_scaling_exponents, records_to_csv, run_grid, trial_seed
from qpecf.fitting import fit_multi, fit_single
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import _pmf_kernel, analytic_distribution
from qpecf.simulate import SimUnitary, histogram_to_probs, sample_shots, simulate_distribution

REPO = Path(__file__).resolve().parents[1]
SHOTS = 10**5
SEEDS = (1, 2, 3)
# perfbench/workloads.py's MIXTURES: (n, ((theta, weight), ...)).
MIXTURES = (
    (8, ((1 / 3, 0.6), (0.7, 0.4))),
    (10, ((1 / 3, 0.6), (0.7, 0.4))),
    (12, ((1 / 3, 0.6), (0.7, 0.4))),
    (10, ((0.15, 0.5), (0.45, 0.3), (0.8, 0.2))),
)
# Phase offsets from a bin, in bins: on it, within NEAR_PEAK of it, off-bin.
OFFSETS = np.array([0.0, -0.2, 0.45])
# Seeded J = 2 and 3 mixtures: phases spread over the circle, unequal weights.
SPREAD = {
    2: ((0.2718, 0.6), (0.6931, 0.4)),
    3: ((0.1414, 0.5), (0.4142, 0.3), (0.7320, 0.2)),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def exact(value):
    """value with every float as its .hex(), dataclasses as tuples of their fields."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple(exact(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(map(exact, value))
    return value


def readout(dist, seed):
    return histogram_to_probs(sample_shots(dist, SHOTS, seed))


def grid_lines(name: str, config: str):
    grid = BenchGrid.from_json_dict(json.loads((REPO / config).read_text()))
    records = run_grid(grid, workers=1)
    scaling = json.dumps(fit_scaling_exponents(records).to_json_dict()) + "\n"
    yield f"{name}_csv", digest(records_to_csv(records))
    yield f"{name}_scaling", digest(scaling)
    if name == "full":
        yield "full_estimates", digest(repr([exact(r.estimates) for r in records]))


def single_fits():
    for n in range(2, 21):
        dist = analytic_distribution(RegisterSpec(n), PhaseModel.single(0.2718))
        for seed in SEEDS:
            yield exact(fit_single(readout(dist, seed)))


def multi_fits():
    for J, pairs in SPREAD.items():
        for n in range(3, 13):
            dist = analytic_distribution(RegisterSpec(n), PhaseModel.from_pairs(pairs))
            for seed in SEEDS:
                yield exact(fit_multi(readout(dist, seed), J))
    for index, (n, pairs) in enumerate(MIXTURES):
        model = PhaseModel.from_pairs(pairs)
        dist = simulate_distribution(RegisterSpec(n), SimUnitary.from_model(model))
        for seed in SEEDS:
            observed = readout(dist, np.random.SeedSequence((seed, index)))
            yield exact(fit_multi(observed, len(pairs)))


def kernel_outputs():
    for n in (1, 3, 10, 20):
        M = 2**n
        bin_phases = np.arange(M) / M
        thetas = (M // 3 + OFFSETS) / M
        for grad in (False, True):
            for theta in (*thetas, thetas[:, None]):
                yield _pmf_kernel(bin_phases, theta, M, grad=grad)
    rows = np.repeat(np.arange(OFFSETS.size), 7)
    for n in (3, 10, 30):
        M = 2**n
        bins = M // 3 + np.tile(np.arange(-3, 4), OFFSETS.size)
        thetas = (M // 3 + OFFSETS) / M
        for modes in ({}, {"pmf": False, "grad": True}, {"pmf": False, "grad": True, "curv": True}):
            yield _pmf_kernel(bins % M / M, thetas, M, rows=rows, **modes)


def draw_counts():
    dist = analytic_distribution(RegisterSpec(3), PhaseModel.single(0.2718))
    for seed in (*SEEDS, np.random.SeedSequence(2**70), np.random.SeedSequence((1, 2))):
        yield sample_shots(dist, SHOTS, seed).counts
    for n, k in product((2, 8, 16), (1, 10, 10**6)):
        dist = analytic_distribution(RegisterSpec(n), PhaseModel.single(1 / 3))
        for trial in range(10):
            yield sample_shots(dist, k, trial_seed(12345, 1 / 3, n, k, trial)).counts


def array_digest(outputs) -> str:
    """sha256 of the bytes of every array, an output being an array or a tuple of them."""
    sha = hashlib.sha256()
    for out in outputs:
        for value in out if isinstance(out, tuple) else (out,):
            sha.update(value.tobytes())
    return sha.hexdigest()


def main() -> None:
    lines = [
        *grid_lines("smoke", "configs/smoke_grid.json"),
        *grid_lines("full", "configs/full_grid.json"),
        ("fit_single", digest(repr(list(single_fits())))),
        ("fit_multi", digest(repr(list(multi_fits())))),
        ("pmf_kernel", array_digest(kernel_outputs())),
        ("draws", array_digest(draw_counts())),
    ]
    for name, sha in lines:
        print(name, sha)


if __name__ == "__main__":
    main()
