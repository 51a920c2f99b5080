"""Shared test oracles, independent of the package's evaluation strategy.

The probability oracle sums the raw geometric series in 80-bit arithmetic
instead of using the closed sin-ratio form, so agreement between the two is
a real cross-check rather than the same formula twice.

The identifiability helpers at the end derive, from the package's pmf, the
limits that sampled data put on an estimator: the chance that least squares
prefers the bin-mirror phase, and the error an on-bin component keeps.
"""

import os
from pathlib import Path

import numpy as np
from scipy import stats

from qpecf.model import PhaseModel
from qpecf.pmf import pmf_vector

PI_LD = np.arccos(np.longdouble(-1.0))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for subprocesses."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}


def oracle_pmf_vector(n: int, components) -> np.ndarray:
    """P(y) for all y by direct summation: |sum_x e^{2 pi i (theta - y/M) x}|^2 / M^2.

    components: iterable of (theta, weight). Runs in longdouble; the
    amplitude sum has M terms, so the result carries ~1e-17 absolute error,
    far inside the 1e-12 comparisons it backs.
    """
    M = 1 << n
    xs = np.arange(M, dtype=np.longdouble)
    total = np.zeros(M, dtype=np.longdouble)
    for theta, weight in components:
        theta_ld = np.longdouble(float(theta))
        for y in range(M):
            # keep the accumulated angle small: theta*x mod 1 and (y*x mod M)/M
            phase = np.mod(theta_ld * xs, 1.0) - np.mod(y * np.arange(M), M) / np.longdouble(M)
            amp = np.exp(2j * PI_LD * phase).sum() / M
            total[y] += np.longdouble(weight) * (amp * np.conj(amp)).real
    return total.astype(float)


def oracle_pmf(n: int, theta: float, y: int) -> float:
    return float(oracle_pmf_vector(n, [(theta, 1.0)])[y])


def central_log_diff(f, x: float, h: float) -> float:
    """Central finite difference of log f at x."""
    return (np.log(f(x + h)) - np.log(f(x - h))) / (2.0 * h)


def fd_jacobian(residual, params: np.ndarray, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a residual vector function."""
    params = np.asarray(params, dtype=float)
    r0 = residual(params)
    out = np.empty((r0.size, params.size))
    for i in range(params.size):
        up = params.copy()
        down = params.copy()
        up[i] += h
        down[i] -= h
        out[:, i] = (residual(up) - residual(down)) / (2.0 * h)
    return out


def random_phase_model(rng: np.random.Generator, J: int):
    """A valid J-component model with distinct phases and normalized weights."""
    while True:
        thetas = rng.random(J)
        if len(set(thetas)) == J:
            break
    raw = rng.random(J) + 0.1
    weights = raw / raw.sum()
    # renormalize exactly against float rounding in the sum
    weights[-1] = 1.0 - weights[:-1].sum()
    return list(zip(thetas.tolist(), weights.tolist()))


def mirror_phase(reg, theta: float) -> float:
    """Reflection of theta through the centre of its most probable bin: 2y/M - theta.

    The half-bin fit window around y always contains it, and P(y') at the
    mirror equals P(2y - y') at theta, so only the outcomes off y tell the
    two apart.
    """
    y = int(np.argmax(pmf_vector(reg, PhaseModel.single(theta))))
    return (2 * y / reg.M - theta) % 1.0


def mirror_flip_probability(reg, theta: float, k: int) -> float:
    """Chance that the k-shot least-squares fit prefers the mirror phase to theta.

    With d = P(mirror) - P(theta) and sampled frequencies P + r, the mirror
    has the lower SSR when d.r > |d|^2 / 2; r is multinomial noise with
    covariance (diag(P) - P P^T) / k, so in the Gaussian limit the chance
    is Phi(-|d|^2 / (2 sqrt(d^T Sigma d / k))).
    """
    probs = pmf_vector(reg, PhaseModel.single(theta))
    d = pmf_vector(reg, PhaseModel.single(mirror_phase(reg, theta))) - probs
    var = (float(np.sum(d * d * probs)) - float(d @ probs) ** 2) / k
    if var <= 0.0:
        return 0.0
    return float(stats.norm.sf(float(d @ d) / (2.0 * np.sqrt(var))))


def allowed_flips(trials: int, p_flip: float, alpha: float = 1e-3) -> int:
    """Largest flip count a correct estimator exceeds with probability <= alpha."""
    return int(stats.binom.isf(alpha, trials, p_flip))


def on_bin_coefficients(M: int, y0: int) -> np.ndarray:
    """c_y in P_y(theta) = [y == y0] + c_y eps^2 + O(eps^4) for theta = y0/M + eps.

    c_y = pi^2 / sin^2(pi (y - y0) / M) off the bin and -pi^2 (M^2 - 1) / 3 on
    it; they sum to zero, so the distribution stays normalized.
    """
    m = np.arange(M) - y0
    c = np.empty(M)
    off = m != 0
    c[off] = np.pi**2 / np.sin(np.pi * m[off] / M) ** 2
    c[~off] = -(np.pi**2) * (M * M - 1) / 3.0
    return c


def family_z(trials: int, alpha: float = 1e-3) -> float:
    """One-sided normal quantile at which `trials` independent checks all pass w.p. 1 - alpha."""
    return float(stats.norm.isf(1.0 - (1.0 - alpha) ** (1.0 / trials)))


def on_bin_error_bound(reg, model, component: int, k: int, z: float) -> float:
    """Largest error of an on-bin component that k shots still leave plausible.

    A component theta_j = y0/M enters P only through u = eps^2 (first-order
    Fisher information zero), as P(y) + w c_y u. The single-shot information
    on u is J2 = sum (w c_y)^2 / P(y), so u_hat scatters with sigma_u =
    1/sqrt(k J2), clipped at u = 0: eps^2 > z sigma_u has probability
    Phi(-z). Returns sqrt(z sigma_u).
    """
    comp = model.components[component]
    y0 = comp.theta * reg.M
    if y0 != round(y0):
        raise ValueError(f"component {component} (theta={comp.theta}) is not on a bin")
    probs = pmf_vector(reg, model)
    slope = comp.weight * on_bin_coefficients(reg.M, int(y0))
    info = float(np.sum(slope[probs > 0] ** 2 / probs[probs > 0]))
    return float(np.sqrt(z / np.sqrt(k * info)))
