"""Core domain types: register geometry, phase mixtures, outcome distributions."""

from __future__ import annotations

import numbers
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

# M**2 terms must stay exact in float64, so n is capped well below 2**53.
MAX_RECORDING_QUBITS = 30
# multinomial draws its counts as int64, so a shot count must fit in one.
MAX_SHOTS = 2**63 - 1
# A J-phase fit runs 2**J corner starts, so J is capped at 256 of them.
MAX_PHASES = 8

WEIGHT_SUM_TOL = 1e-12
PROB_SUM_TOL = 1e-10
# Slack for float roundoff on individual probabilities.
PROB_ENTRY_TOL = 1e-12


def _check_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int; bools, non-integers and values outside [lo, hi] are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise DomainError(f"{name} must be <= {hi}, got {value}")
    return value


def _check_real(value, name: str):
    """value unchanged if it is a real number; bools, strings and other types are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return value


def _check_theta(value, name: str = "theta") -> float:
    """A phase in revolutions: a real number in [0, 1), as a float.

    The range is compared before the float cast, so 10**400 is out of range
    rather than an OverflowError, and again after it, since a Fraction just
    below 1 rounds to 1.0. NaN and infinities fail the comparison.
    """
    if not (0 <= _check_real(value, name) < 1 and float(value) < 1):
        raise DomainError(f"{name} must lie in [0, 1), got {value!r}")
    return float(value) + 0.0  # -0.0 becomes 0.0, so trial_seed and the CSV see one zero phase


def _check_shots(k) -> int:
    """A shot count: 1 <= k <= MAX_SHOTS."""
    return _check_int(k, "shots", 1, MAX_SHOTS)


def _check_seed(seed, name: str = "seed") -> int:
    """An integer seed: any int >= 0, as SeedSequence takes it."""
    return _check_int(seed, name, 0)


def _check_fields(data, fields: dict, what: str) -> None:
    """Raise ConfigError unless data is a JSON object holding each field with its type."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for name, kind in fields.items():
        if name not in data:
            raise ConfigError(f"{what} field '{name}' is missing")
        if not isinstance(data[name], kind) or isinstance(data[name], bool):
            raise ConfigError(f"{what} field '{name}' must be a {kind.__name__}")


@dataclass(frozen=True)
class RegisterSpec:
    """Recording register with n qubits and M = 2**n outcome states."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_int(self.n, "n", 1, MAX_RECORDING_QUBITS))

    @property
    def M(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class PhaseComponent:
    """One (phase, weight) term of a mixture; phase is in revolutions."""

    theta: float
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _check_theta(self.theta))
        if not 0 <= _check_real(self.weight, "weight") <= 1:
            raise DomainError(f"weight must lie in [0, 1], got {self.weight!r}")
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class PhaseModel:
    """Mixture of phase components, sorted ascending by phase, weights summing to 1."""

    components: tuple[PhaseComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise DomainError("a phase model needs at least one component")
        comps = tuple(sorted(comps, key=lambda c: c.theta))
        thetas = [c.theta for c in comps]
        if len(set(thetas)) != len(thetas):
            raise DomainError(f"phases must be pairwise distinct, got {thetas}")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def single(cls, theta: float) -> "PhaseModel":
        return cls((PhaseComponent(theta, 1.0),))

    @classmethod
    def from_pairs(cls, pairs) -> "PhaseModel":
        return cls(tuple(PhaseComponent(t, w) for t, w in pairs))

    @property
    def thetas(self) -> tuple[float, ...]:
        return tuple(c.theta for c in self.components)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(c.weight for c in self.components)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability vector over the M outcome states of a register."""

    reg: RegisterSpec
    probs: np.ndarray = field(repr=False)
    # Private: True keeps probs, a float64 array qpecf just made and shares with no one.
    _: KW_ONLY
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        probs = np.asarray(self.probs)
        # The float cast would drop an imaginary part.
        if probs.dtype.kind == "c":
            raise DomainError(f"probs must be real, got dtype {probs.dtype}")
        if probs.shape != (self.reg.M,):
            raise DomainError(f"probs must have shape ({self.reg.M},), got {probs.shape}")
        # A caller's array is copied, even a read-only one, since its owner
        # can make it writeable again.
        if not _owned:
            probs = probs.astype(float)
        probs.setflags(write=False)
        # NaN and infinities fail the range comparison too, so isfinite runs only on failure.
        lo = np.minimum.reduce(probs)
        hi = np.maximum.reduce(probs)
        if not (lo >= -PROB_ENTRY_TOL and hi <= 1.0 + PROB_ENTRY_TOL):
            if not np.isfinite(probs).all():
                raise DomainError("probs must be finite")
            raise DomainError("each probability must lie in [0, 1]")
        total = float(np.add.reduce(probs))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "probs", probs)
