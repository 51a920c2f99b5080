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

Floats are hashed through .hex(), so a change in the last bit shows.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from qpecf.bench import BenchGrid, fit_scaling_exponents, records_to_csv, run_grid
from qpecf.fitting import fit_multi, fit_single
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import analytic_distribution
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


def main() -> None:
    lines = [
        *grid_lines("smoke", "configs/smoke_grid.json"),
        *grid_lines("full", "configs/full_grid.json"),
        ("fit_single", digest(repr(list(single_fits())))),
        ("fit_multi", digest(repr(list(multi_fits())))),
    ]
    for name, sha in lines:
        print(name, sha)


if __name__ == "__main__":
    main()
