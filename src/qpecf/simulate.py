"""Statevector simulation of the phase estimation circuit, plus shot sampling.

simulate_distribution is the simulator's one entry point. It works on the
circuit's exact state: Hadamards put the recording register in a uniform
superposition, the controlled-unitary powers kick the eigenphases back onto
it, and the inverse Fourier transform is applied as one FFT. Probabilities,
not gate counts, are the product here, so no gate decomposition is
performed.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .model import (
    MAX_SHOTS, OutcomeDistribution, PhaseModel, RegisterSpec,
    _check_fields, _check_int, _check_seed, _check_shots, _check_theta,
)

AMP_NORM_TOL = 1e-12
# The (M, J) state sets the memory: at n = 20, J = 3 a simulation peaks at
# 192 MB resident (ru_maxrss), about 30 MB of it the interpreter.
MAX_SIM_QUBITS = 20

# theta is split at 26 bits so theta_hi * x is exact for x < 2**27 and the
# fractional part of theta * x carries no product roundoff.
_SPLIT = float(1 << 26)


def _phase_frac(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fractional part of theta * x, broadcast, without the O(x * eps) product error."""
    hi = np.floor(theta * _SPLIT) / _SPLIT
    lo = theta - hi
    return (np.mod(hi * x, 1.0) + lo * x) % 1.0


@dataclass(frozen=True)
class SimUnitary:
    """Diagonal unitary with eigenphases attached to system basis states."""

    eigenphases: tuple[float, ...]
    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        phases = tuple(_check_theta(t, "eigenphase") for t in self.eigenphases)
        amps = tuple(complex(a) for a in self.amplitudes)
        if not phases:
            raise DomainError("at least one eigenphase is required")
        if len(phases) != len(amps):
            raise DomainError(
                f"{len(phases)} eigenphases but {len(amps)} amplitudes"
            )
        norm = sum(abs(a) ** 2 for a in amps)
        if abs(norm - 1.0) > AMP_NORM_TOL:
            raise DomainError(f"amplitude norm must be 1 within {AMP_NORM_TOL}, got {norm!r}")
        object.__setattr__(self, "eigenphases", phases)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_model(cls, model: PhaseModel) -> "SimUnitary":
        return cls(model.thetas, tuple(math.sqrt(w) for w in model.weights))


@dataclass(frozen=True, eq=False)
class ShotHistogram:
    """Observed counts per outcome state from k circuit executions."""

    reg: RegisterSpec
    counts: np.ndarray = field(repr=False)
    shots: int = 0
    # Private: True keeps counts, an int64 array qpecf just made and shares with no one.
    _: KW_ONLY
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        counts = np.asarray(self.counts)
        shots = _check_shots(self.shots)
        if counts.shape != (self.reg.M,):
            raise DomainError(f"counts must have shape ({self.reg.M},), got {counts.shape}")
        # The int64 cast would truncate fractional counts and turn bools
        # into 0 and 1; reading the dtype alone costs O(1).
        if counts.dtype.kind not in "iu":
            raise DomainError(f"counts must be integers, got dtype {counts.dtype}")
        # A caller's array is copied, even a read-only one, since its owner
        # can make it writeable again.
        if not _owned:
            counts = counts.astype(np.int64)
        counts.setflags(write=False)
        if np.minimum.reduce(counts, initial=0) < 0:
            raise DomainError("counts must be non-negative")
        # The int64 sum wraps past 2**63 - 1. It cannot when no count exceeds
        # shots and M * shots < 2**63; otherwise the sum is taken exactly.
        if np.maximum.reduce(counts, initial=0) <= shots and counts.size * shots < 2**63:
            total = int(np.add.reduce(counts))
        else:
            total = sum(counts.tolist())
        if total != shots:
            raise DomainError(f"counts sum to {total}, expected shots = {shots}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)

    def to_json_dict(self) -> dict:
        return {"n": self.reg.n, "shots": self.shots, "counts": [int(c) for c in self.counts]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ShotHistogram":
        _check_fields(data, {"n": int, "shots": int, "counts": list}, "histogram JSON")
        try:
            counts = [_check_int(c, "count", 0, MAX_SHOTS) for c in data["counts"]]
            return cls(RegisterSpec(data["n"]), np.array(counts), data["shots"])
        except DomainError as exc:
            raise ConfigError(f"invalid histogram JSON: {exc}") from exc


def simulate_distribution(reg: RegisterSpec, unitary: SimUnitary) -> OutcomeDistribution:
    """Exact outcome distribution of the circuit: marginal over the system register.

    After the Hadamards and controlled-unitary powers, the recording
    amplitude at x on system branch j is a_j e^{2 pi i theta_j x} / sqrt(M),
    one column per eigenphase of an (M, J) state. numpy's forward FFT
    carries the kernel e^{-2 pi i y x / M}; scaled by 1/sqrt(M) it is the
    unitary inverse QFT. The outcome probabilities are the row sums of the
    squared moduli.
    """
    if reg.n > MAX_SIM_QUBITS:
        raise DomainError(f"simulation supports n <= {MAX_SIM_QUBITS}, got {reg.n}")
    M = reg.M
    phases = np.array(unitary.eigenphases)
    # Each stage rebinds state, so no array of an earlier stage outlives the next one.
    state = np.exp(2j * np.pi * _phase_frac(phases, np.arange(M, dtype=float)[:, None]))
    state = np.array(unitary.amplitudes) * state / math.sqrt(M)
    state = np.fft.fft(state, axis=0) / math.sqrt(M)
    return OutcomeDistribution(reg, np.sum(np.abs(state) ** 2, axis=1))


def _shot_weights(probs: np.ndarray) -> np.ndarray:
    """Multinomial weights of a pmf: a new array, clipped at 0 and renormalised.

    The tiny negative entries and sum error that OutcomeDistribution
    tolerates are clipped and renormalised away, since multinomial rejects
    both. The weights depend on the pmf alone, so one pmf's weights serve
    every draw from it.
    """
    weights = np.maximum(probs, 0.0)
    weights /= np.add.reduce(weights)
    return weights


# The seed of each _draws call's Philox, whose key every draw replaces. A
# Philox given a key alone would fill an unused SeedSequence from OS entropy.
_DRAW_SEED = np.random.SeedSequence(0)


def _draws(draws):
    """Counts of each (weights, k, key) draw: k outcomes in one multinomial draw.

    This is the one account of how counts are drawn: sample_shots and the
    campaign trials both draw through it. key is a seed's Philox key,
    seed.generate_state(2, np.uint64); a campaign's keys come from
    bench._trial_keys. Each call builds one Philox from _DRAW_SEED and
    re-keys it at counter 0 through its state setter for each draw, so a
    draw's counts are those of Generator(Philox(seed)). Threads share only
    _DRAW_SEED, which generate_state only reads.
    """
    bits = np.random.Philox(_DRAW_SEED)
    generator = np.random.Generator(bits)
    state = bits.state
    for weights, k, key in draws:
        state["state"]["key"] = key
        bits.state = state
        yield generator.multinomial(k, weights)


def sample_shots(dist: OutcomeDistribution, k: int, seed) -> ShotHistogram:
    """Draw k outcomes from dist in one multinomial draw; deterministic for a fixed seed.

    seed is an int >= 0 or a numpy SeedSequence; an int seed and a
    SeedSequence built from it give the same counts, those of
    Generator(Philox(seed)), drawn as _draws describes. The counter-based
    Philox generator keeps streams reproducible regardless of how calls are
    scheduled across processes. An entry below 0 that OutcomeDistribution
    tolerates gets no counts (_shot_weights).
    """
    k = _check_shots(k)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(_check_seed(seed))
    (counts,) = _draws([(_shot_weights(dist.probs), k, seed.generate_state(2, np.uint64))])
    return ShotHistogram(dist.reg, counts, k, _owned=True)


def histogram_to_probs(hist: ShotHistogram) -> OutcomeDistribution:
    """Empirical distribution counts[y] / shots."""
    return OutcomeDistribution(hist.reg, hist.counts / hist.shots, _owned=True)
