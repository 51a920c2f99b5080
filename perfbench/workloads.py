"""The benchmark's workloads: inputs from a seed, timed units, output checks.

Every call into qpecf goes through a module attribute (``bench.run_grid``,
``simulate.sample_shots``), never through a name bound at import, so the
tracer's wrappers see each call.

A workload is split into units. One pass runs every unit once, and a run
repeats passes; the throughput is the work of one pass over the sum of each
unit's median time across passes, each time taken in reference seconds
(refclock.py) so that a slow spell of the machine stretches the unit and
its reference alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpecf import bench, fitting, pmf, simulate
from qpecf.errors import FitError
from qpecf.model import PhaseModel, RegisterSpec

CAMPAIGN_PHASES = (1 / 3, 1 / 5, 1 / 7, 1 / 9)
READOUT_SHOTS = 10**5

# J = 2 mixtures at n 8, 10, 12 and a J = 3 mixture at n = 10, read out
# through the statevector simulator. Components sit off-bin and apart, with
# unequal weights, so the J most likely bins belong to J distinct components.
MIXTURES = (
    (8, ((1 / 3, 0.6), (0.7, 0.4))),
    (10, ((1 / 3, 0.6), (0.7, 0.4))),
    (12, ((1 / 3, 0.6), (0.7, 0.4))),
    (10, ((0.15, 0.5), (0.45, 0.3), (0.8, 0.2))),
)
# Single phases at n 16, 18, 20, read out through the analytic model, where
# the O(M) kernels and the Fisher sum dominate.
SINGLES = ((16, 1 / 3), (18, 1 / 5), (20, 1 / 7))


@dataclass
class Outcome:
    """What one unit produced: fits attempted and failed, and its output."""

    fits: int
    failed: int
    output: object
    problems: list


class Campaign:
    """run_grid(workers=1) over one grid, timed per (phase, n) sub-grid.

    Cell seeds derive from cell coordinates alone, so the sub-grids give the
    same records as the whole grid.
    """

    def __init__(self, phases, n_values, shot_values, trials: int, seed: int):
        self.grid = bench.BenchGrid(phases, n_values, shot_values, trials, seed)
        self.units = [
            bench.BenchGrid((theta,), (n,), shot_values, trials, seed)
            for theta in phases
            for n in n_values
        ]
        self.trials_per_pass = len(phases) * len(n_values) * len(shot_values) * trials
        first = (phases[0],), (n_values[0],), (shot_values[0],)
        self._warm = bench.BenchGrid(*first, 1, seed)

    def warm_up(self) -> None:
        bench.run_grid(self._warm, workers=1)

    def run_unit(self, index: int) -> Outcome:
        unit = self.units[index]
        records = bench.run_grid(unit, workers=1)
        fits = len(records) * unit.trials
        problems = [
            f"cell ({r.theta_true:.6g}, {r.n}, {r.k}): rmse {r.rmse!r}"
            for r in records
            if not (math.isfinite(r.rmse) and r.rmse >= 0)
        ]
        excluded = sum(r.excluded for r in records)
        return Outcome(fits, excluded + len(problems), records, problems)

    def run_all(self, workers: int):
        return bench.run_grid(self.grid, workers=workers)

    @staticmethod
    def crlb_ratio_gmean(outputs) -> float:
        """Geometric mean of rmse / crlb_rmse over cells with rmse > 0."""
        ratios = [
            r.ratio for records in outputs for r in records if math.isfinite(r.rmse) and r.rmse > 0
        ]
        return float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")


class Readout:
    """One experiment at a time through the Python API; one unit per experiment."""

    def __init__(self, seed: int):
        self.seed = seed
        self.experiments = [("multi", n, PhaseModel.from_pairs(pairs)) for n, pairs in MIXTURES]
        self.experiments += [("single", n, PhaseModel.single(theta)) for n, theta in SINGLES]
        self.units = list(range(len(self.experiments)))
        self.trials_per_pass = len(self.experiments)

    def _seed(self, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.seed, index))

    def warm_up(self) -> None:
        self.run_unit(0)

    def run_unit(self, index: int) -> Outcome:
        kind, n, model = self.experiments[index]
        reg = RegisterSpec(n)
        try:
            if kind == "multi":
                dist = simulate.simulate_distribution(reg, simulate.SimUnitary.from_model(model))
            else:
                dist = pmf.analytic_distribution(reg, model)
            hist = simulate.sample_shots(dist, READOUT_SHOTS, self._seed(index))
            observed = simulate.histogram_to_probs(hist)
            if kind == "multi":
                result = fitting.fit_multi(observed, len(model.components))
                crlb_rmse = float("nan")
            else:
                result = fitting.fit_single(observed)
                crlb_rmse = math.sqrt(pmf.crlb_mse(reg, READOUT_SHOTS))
        except FitError as exc:
            return Outcome(1, 1, None, [f"readout {index} (n={n}): {exc}"])
        problems = readout_problems(reg, model, result)
        return Outcome(1, int(bool(problems)), (result.phases, crlb_rmse), problems)


def readout_problems(reg: RegisterSpec, model: PhaseModel, result) -> list[str]:
    """A sampled readout must put every phase within half a bin of the truth."""
    truth = sorted(model.thetas)
    if len(result.phases) != len(truth):
        return [f"n={reg.n}: {len(result.phases)} phases for {len(truth)} components"]
    half_bin = 0.5 / reg.M
    return [
        f"n={reg.n}: phase {p!r} is {bench.circular_error(p, t):.3g} from {t!r}"
        for p, t in zip(result.phases, truth)
        if not bench.circular_error(p, t) < half_bin
    ]


def make(name: str, seed: int):
    if name == "campaign_few":
        return Campaign(CAMPAIGN_PHASES, tuple(range(2, 9)), (10, 100, 1000, 4000), 10, seed)
    if name == "campaign_mega":
        return Campaign(CAMPAIGN_PHASES[:3], (3, 5, 8), (10**6,), 10, seed)
    if name == "readout_wide":
        return Readout(seed)
    raise ValueError(f"unknown workload {name!r}")
