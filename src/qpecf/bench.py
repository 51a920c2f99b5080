"""Monte Carlo error campaigns over a (phase, qubits, shots) grid.

Each cell repeats the simulate-sample-fit pipeline and aggregates circular
estimation errors into an RMSE, compared against the square root of the
Cramer-Rao bound and against the traditional nearest-bin error; its record
also keeps the per-trial estimates. The cells of a grid that share a
register size n are fit together: each trial's counts are drawn one at a
time as the fitter reads them, through the sampling core of
simulate.sample_shots, so cells share the fitter's chunks and a campaign
holds one chunk's pmfs. A trial's stream is that of its trial_seed, a pure
function of (base_seed, theta, n, k, trial), keyed as _trial_keys derives
it. A fit does not depend on the chunk it lands in, so results are
bit-identical regardless of grouping, scheduling or worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain, product

import numpy as np

from .errors import ConfigError, DomainError
from .fitting import _fit
from .formatting import render_csv, sig12
from .model import (
    PhaseModel, RegisterSpec, _check_fields, _check_int, _check_seed, _check_shots, _check_theta,
)
from .pmf import analytic_distribution, circuit_depth_units, crlb_mse
from .simulate import _draws, _shot_weights

# A cell whose exclusion rate exceeds this fraction is flagged invalid.
MAX_EXCLUDED_FRACTION = 0.01

# The campaign CSV's columns: each BenchRecord field, in published order, with its formatter.
_CSV_COLUMNS = {
    "theta_true": sig12, "n": str, "M": str, "k": str, "trials": str, "excluded": str,
    "rmse": sig12, "mean_abs_error": sig12, "crlb_rmse": sig12, "ratio": sig12,
    "traditional_error": sig12, "depth_units": str,
}
CSV_HEADER = ",".join(_CSV_COLUMNS)
# The JSON type of each BenchGrid field.
_GRID_FIELDS = {
    "phases": list, "n_values": list, "shot_values": list, "trials": int, "base_seed": int,
}


@dataclass(frozen=True)
class BenchGrid:
    """Campaign definition: the cross product of phases, qubit counts, and shots."""

    phases: tuple[float, ...]
    n_values: tuple[int, ...]
    shot_values: tuple[int, ...]
    trials: int
    base_seed: int

    def __post_init__(self) -> None:
        phases = tuple(_check_theta(t) for t in self.phases)
        n_values = tuple(RegisterSpec(n).n for n in self.n_values)
        shot_values = tuple(_check_shots(k) for k in self.shot_values)
        if not phases or not n_values or not shot_values:
            raise DomainError("phases, n_values, and shot_values must be non-empty")
        if 1 in n_values:
            raise DomainError(
                "n_values must not contain 1: at n = 1, theta and 1 - theta "
                "give the same distribution"
            )
        # so each trial index is one uint32 word of the trial's entropy (_trial_keys)
        trials = _check_int(self.trials, "trials", 1, 2**32 - 1)
        base_seed = _check_seed(self.base_seed, "base_seed")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "shot_values", shot_values)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "base_seed", base_seed)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchGrid":
        _check_fields(data, _GRID_FIELDS, "grid config")
        try:
            return cls(**{name: data[name] for name in _GRID_FIELDS})
        except DomainError as exc:
            raise ConfigError(f"invalid grid config: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {name: kind(getattr(self, name)) for name, kind in _GRID_FIELDS.items()}


@dataclass(frozen=True)
class BenchRecord:
    """Aggregated estimation errors for one (theta, n, k) cell.

    estimates holds the phase estimates of the trials whose fit succeeded,
    in trial order, so it has trials - excluded entries.
    """

    theta_true: float
    n: int
    M: int
    k: int
    trials: int
    excluded: int
    rmse: float
    mean_abs_error: float
    crlb_rmse: float
    ratio: float
    traditional_error: float
    depth_units: int
    valid: bool
    estimates: tuple[float, ...] = field(repr=False)


def circular_error(theta_hat: float, theta_true: float) -> float:
    """Distance on the unit phase circle: min(|d|, 1 - |d|)."""
    d = abs(_check_theta(theta_hat) - _check_theta(theta_true))
    return min(d, 1.0 - d)


def trial_seed(base_seed: int, theta: float, n: int, k: int, trial: int) -> np.random.SeedSequence:
    """Seed for one trial, a pure function of the cell coordinates.

    theta enters through its float64 bit pattern, so any representable phase
    hashes uniquely. The entropy is the uint32 words SeedSequence would make
    of the tuple (base_seed, theta_bits, n, k, trial): each int in
    little-endian 32-bit words, 0 as one word. The pool and the stream are
    the tuple's; only the coercion of Python ints is skipped. The arguments
    pass the package's input checks (DomainError), and -0.0 is read as 0.0,
    as a campaign reads it. A campaign derives the same keys without a
    SeedSequence per trial (_trial_keys).
    """
    base_seed, theta = _check_seed(base_seed, "base_seed"), _check_theta(theta)
    trial = _check_int(trial, "trial", 0)
    words = _cell_words(base_seed, theta, RegisterSpec(n).n, _check_shots(k)) + _uint32_words(trial)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def _uint32_words(*values: int) -> list[int]:
    """SeedSequence's uint32 words for non-negative ints, concatenated."""
    words = []
    for value in values:
        value = int(value)
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return words


def _cell_words(base_seed: int, theta: float, n: int, k: int) -> list[int]:
    """The uint32 words a cell's trial entropy starts with: at least 4, one per coordinate."""
    return _uint32_words(base_seed, int(np.float64(theta).view(np.uint64)), n, k)


# numpy's SeedSequence constants, fixed so that seeded streams reproduce.
# mix_entropy's j-th hashmix xors with INIT_A * MULT_A**j and multiplies by
# INIT_A * MULT_A**(j + 1); generate_state's i-th word likewise with INIT_B, MULT_B.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MULT_A_POWERS = np.array([pow(_MULT_A, j, 2**32) for j in range(5)], dtype=np.uint32)
_STATE_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(5)],
                       dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _mix_word(pool: np.ndarray, word: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """mix_entropy's step for one entropy word past the pool: the word,
    hashmixed with the next four constants, is mixed into each pool word."""
    value = (word[None, :, None] ^ hashes[..., :4]) * hashes[..., 1:]
    value ^= value >> 16
    pool = _MIX_L * pool - _MIX_R * value
    pool ^= pool >> 16
    return pool


def _trial_keys(base_seed: int, n: int, cells, trials) -> np.ndarray:
    """Philox key of trial_seed(base_seed, theta, n, k, trial) for each (theta, k) cell and
    each trial index below 2**32: a (cells, trials, 2) uint64 array.

    This is the one account of how a campaign trial's key is derived. A key
    is SeedSequence(entropy).generate_state(2, np.uint64). A trial's entropy
    is its cell's words, at least the pool size of 4, then the trial index
    as one word (BenchGrid caps trials below 2**32), so numpy mixes each
    cell's words once, in SeedSequence(cell words).pool, with 4 hashmix
    calls per word. Two steps run here for every trial at once:
    mix_entropy's for the trial word (_mix_word), and generate_state.
    tests/test_bench.py holds the keys to SeedSequence's own, so a change in
    numpy's mixing shows there.
    """
    pools, hashes = [], []
    for theta, k in cells:
        words = _cell_words(base_seed, theta, n, k)
        pools.append(np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool)
        hashes.append(_INIT_A * pow(_MULT_A, 4 * len(words), 2**32) % 2**32)
    pool = np.array(pools)[:, None, :]
    hashes = (np.array(hashes, dtype=np.uint32)[:, None] * _MULT_A_POWERS)[:, None, :]
    pool = _mix_word(pool, np.asarray(trials, dtype=np.uint32), hashes)
    state = (pool ^ _STATE_HASH[:4]) * _STATE_HASH[1:]
    state ^= state >> 16
    # generate_state's uint64 words: pairs of uint32 words read little-endian
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _record(theta: float, reg: RegisterSpec, k: int, phases, failed) -> BenchRecord:
    """Aggregate one cell's trials into its record; the failed trials are excluded.

    phases and failed are (trials,) arrays of estimates and failure flags,
    in trial order. The errors are circular_error's operations on arrays.
    """
    estimates = phases[~failed]
    trials = len(phases)
    excluded = trials - estimates.size
    d = np.abs(estimates - theta)
    errors = np.minimum(d, 1.0 - d)
    with np.errstate(invalid="ignore"):  # a cell with no estimates gets NaN, from 0 / 0
        rmse = float(np.sqrt(np.add.reduce(errors**2) / errors.size))
        mean_abs = float(np.add.reduce(errors) / errors.size)
    crlb_rmse = float(np.sqrt(crlb_mse(reg, k)))
    # Circular distance from theta to its nearest representable bin value.
    traditional_error = abs(theta * reg.M - round(theta * reg.M)) / reg.M
    return BenchRecord(
        theta_true=theta,
        n=reg.n,
        M=reg.M,
        k=k,
        trials=trials,
        excluded=excluded,
        rmse=rmse,
        mean_abs_error=mean_abs,
        crlb_rmse=crlb_rmse,
        ratio=rmse / crlb_rmse,
        traditional_error=traditional_error,
        depth_units=circuit_depth_units(reg),
        valid=excluded <= MAX_EXCLUDED_FRACTION * trials,
        estimates=tuple(estimates.tolist()),
    )


def _run_cells(job: tuple) -> list[BenchRecord]:
    """Records of the (theta, k) cells of one register, fit together."""
    n, cells, trials, base_seed = job
    reg = RegisterSpec(n)
    weights = {
        theta: _shot_weights(analytic_distribution(reg, PhaseModel.single(theta)).probs)
        for theta in dict.fromkeys(theta for theta, _ in cells)
    }
    # Each trial's counts are drawn when _fit reads them, with the key
    # _trial_keys derives, through sample_shots' core (_draws): counts / k
    # are the bits of histogram_to_probs(sample_shots(..., trial_seed(...))).probs.
    keys = _trial_keys(base_seed, n, cells, np.arange(trials, dtype=np.uint32)).tolist()
    draws = [
        (weights[theta], k, key) for (theta, k), cell_keys in zip(cells, keys) for key in cell_keys
    ]
    pmfs = (counts / k for counts, (_, k, _) in zip(_draws(draws), draws))
    phase, *_, corner, _ = _fit(reg, pmfs)
    phases = phase.reshape(len(cells), trials)
    failed = (corner < 0).reshape(len(cells), trials)
    return [_record(theta, reg, k, p, f) for (theta, k), p, f in zip(cells, phases, failed)]


def run_grid(grid: BenchGrid, workers: int = 1) -> list[BenchRecord]:
    """Run every cell of the grid, in deterministic grid order.

    Cells that share n are fit together: each such group is one job, whose
    trials stream through one _fit call and so share its chunks. With
    workers > 1, each group is split into min(cells, workers) contiguous
    runs, and the jobs are fanned out to spawned processes. Records are
    identical for any grouping and worker count, because seeds derive from
    cell coordinates alone and a fit does not depend on its chunk.
    """
    workers = _check_int(workers, "workers", 1)
    cells = list(product(grid.phases, grid.n_values, grid.shot_values))
    jobs, slots = [], []
    for n in dict.fromkeys(grid.n_values):
        group = [i for i, (_, cell_n, _) in enumerate(cells) if cell_n == n]
        for part in np.array_split(group, min(len(group), workers)):
            job_cells = [(cells[i][0], cells[i][2]) for i in part]
            jobs.append((n, job_cells, grid.trials, grid.base_seed))
            slots.extend(part)
    if workers == 1:
        results = list(map(_run_cells, jobs))
    else:
        # Imported here: a single-process run does not pay for the pool's modules.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = list(pool.map(_run_cells, jobs, chunksize=1))
    records = [None] * len(cells)
    for slot, record in zip(slots, chain.from_iterable(results)):
        records[slot] = record
    return records


@dataclass(frozen=True)
class ScalingSummary:
    """Fitted error-scaling exponents and the record count behind them."""

    slope_vs_k: float
    slope_vs_M: float
    cells_used: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _group_slopes(records, key_fn, x_fn) -> tuple[list[float], set[int]]:
    groups: dict = {}
    for idx, rec in enumerate(records):
        # rmse = 0 cells (exactly representable phases) carry no log-scale information.
        if not np.isfinite(rec.rmse) or rec.rmse <= 0:
            continue
        groups.setdefault(key_fn(rec), []).append((idx, x_fn(rec), rec.rmse))
    slopes = []
    used: set[int] = set()
    for key in sorted(groups):
        entries = groups[key]
        xs = sorted({x for _, x, _ in entries})
        if len(xs) < 3:
            continue
        log_x = np.log10([x for _, x, _ in entries])
        log_r = np.log10([r for _, _, r in entries])
        slopes.append(float(np.polyfit(log_x, log_r, 1)[0]))
        used.update(idx for idx, _, _ in entries)
    return slopes, used


def fit_scaling_exponents(records: list[BenchRecord]) -> ScalingSummary:
    """Ordinary least squares of log10(rmse) against log10(k) and log10(M).

    The k slope is fitted within each (theta, n) group spanning at least 3
    distinct shot counts, the M slope within each (theta, k) group spanning
    at least 3 distinct register sizes; group slopes are averaged.
    cells_used counts the records that entered at least one regression.
    """
    k_slopes, k_used = _group_slopes(
        records, key_fn=lambda r: (r.theta_true, r.n), x_fn=lambda r: r.k
    )
    m_slopes, m_used = _group_slopes(
        records, key_fn=lambda r: (r.theta_true, r.k), x_fn=lambda r: r.M
    )
    if not k_slopes:
        raise DomainError("no (theta, n) group spans 3 distinct shot counts with rmse > 0")
    if not m_slopes:
        raise DomainError("no (theta, k) group spans 3 distinct register sizes with rmse > 0")
    return ScalingSummary(
        slope_vs_k=float(np.mean(k_slopes)),
        slope_vs_M=float(np.mean(m_slopes)),
        cells_used=len(k_used | m_used),
    )


def records_to_csv(records: list[BenchRecord]) -> str:
    """Render records as CSV, one row per cell, floats at 12 significant digits."""
    return render_csv(_CSV_COLUMNS, ([getattr(r, name) for name in _CSV_COLUMNS] for r in records))
