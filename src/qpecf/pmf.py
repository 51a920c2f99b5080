"""Closed-form outcome mathematics: probabilities, score, Fisher information, bounds.

The outcome model is P_y(theta) = sin^2(pi d) / (M^2 sin^2(pi d / M)) with
the offset d = y - theta*M, and its phase derivative is
dP/dtheta = 2 pi sin(pi d) [sin(pi d) cot(pi d / M) - M cos(pi d)] / (M^2 sin^2(pi d / M)).
One kernel, _pmf_kernel, evaluates both over integer outcomes y:

* the numerators are one value per phase: y is an integer, so sin^2(pi d)
  and sin(pi d) cos(pi d) equal sin^2(x) and sin(x) cos(x) with
  x = pi (rint(theta*M) - theta*M), the offset of the nearest bin; theta*M
  is exact because M is a power of two. Each element needs only the sine
  (and for dP/dtheta the cosine) of t = pi d / M, with d reduced mod M into
  [-M/2, M/2], where both are fully accurate;
* next to the peak, |d| < NEAR_PEAK, the bracket of dP/dtheta cancels to
  O(M d^2) and would lose about 1e-16 / d^2 relative, and P is 0/0 at
  d = 0. There both come from their Taylor series in x^2, whose
  coefficients are exact rationals in M: the series of
  P = (sinc(x) / sinc(x / M))^2 and of the cancellation-free form of the
  bracket, (M / x) [(sin x - x cos x) + sin x (t cot t - 1)] with t = x / M.
  At most one bin per phase lies that close.

The kernel takes any broadcasting shape, so a J-phase mixture or a solver
batch is one call on a (..., J, 1) phase array. Floating-point warnings are
silenced because the sine ratio is 0/0 at d = 0 before the series
overwrites it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import (
    OutcomeDistribution, PhaseModel, RegisterSpec, _check_int, _check_shots, _check_theta,
)

# |d| below which P and dP/dtheta come from their series. Past it the
# direct form of dP/dtheta was within 1.4e-15 relative of mpmath at
# n = 1, 2, 3, 5, 8, 12, 20 and 30; with the switch at 0.1 it reached
# 9.5e-15 just past it (n = 8, |d| = 0.1001).
NEAR_PEAK = 0.25
# A ufunc reduction: ndarray.any adds a Python wrapper to each call.
_any = np.logical_or.reduce
# Series terms kept: at |d| = NEAR_PEAK the first term left out is below
# 1e-19 of the sum for every M.
PEAK_TERMS = 11


@functools.lru_cache(maxsize=None)
def _peak_series(M: int) -> tuple[tuple[float, ...], ...]:
    """Series in z = x^2 at x = pi d of P, dP/dtheta / x and d2P/dtheta2, for register size M.

    Returns the coefficient tuples p, g and c of P = sum_k p_k z^k,
    dP/dtheta = x sum_k g_k z^k and d2P/dtheta2 = sum_k c_k z^k. P is the
    square of r(x) = sinc(x) / sinc(x / M), and r follows from
    sinc(x) = r(x) sinc(x / M) term by term; dP/dtheta = -M pi dP/dx gives
    g_k = -2 pi M (k + 1) p_(k+1), and once more c_k = -pi M (2k + 1) g_k.
    p_k and g_k are exact in integers over the common denominators below, so
    each is one correctly rounded division (the factor pi is float pi), and
    p_0 = 1; c_k is a product of floats, not one correctly rounded division,
    since d2P/dtheta2 only steers the single-phase root search.
    """
    K = PEAK_TERMS + 1
    F = math.factorial(2 * K - 1)
    # sinc(x) = sum_k S_k z^k / F
    S = [(-1) ** k * (F // math.factorial(2 * k + 1)) for k in range(K)]
    # r(x) = sum_k R_k z^k / (F^(k+1) M^(2k))
    R = []
    for k in range(K):
        R.append(S[k] * F**k * M ** (2 * k)
                 - sum(S[j] * R[k - j] * F ** (j - 1) for j in range(1, k + 1)))
    # P = sum_k Q_k z^k / (F^(k+2) M^(2k))
    Q = [sum(R[j] * R[k - j] for j in range(k + 1)) for k in range(K)]
    pi_num, pi_den = math.pi.as_integer_ratio()
    p = tuple(Q[k] / (F ** (k + 2) * M ** (2 * k)) for k in range(PEAK_TERMS))
    g = tuple(
        -2 * M * pi_num * (k + 1) * Q[k + 1] / (pi_den * F ** (k + 3) * M ** (2 * k + 2))
        for k in range(PEAK_TERMS)
    )
    return p, g, tuple(-math.pi * M * (2 * k + 1) * gk for k, gk in enumerate(g))


def _horner(coef: tuple, z: np.ndarray) -> np.ndarray:
    """sum_k coef[k] z^k by Horner's rule, from the highest term down."""
    out = coef[-1] * z
    out += coef[-2]
    for c in coef[-3::-1]:
        out *= z
        out += c
    return out


def _pmf_kernel(
    bin_phases: np.ndarray, theta, M: int, pmf: bool = True, grad: bool = False,
    curv: bool = False, rows=None,
):
    """P at outcomes y for phases theta, and its first and second phase derivatives.

    bin_phases holds the outcomes' phases y / M for integer y; theta
    broadcasts against it, e.g. (..., J, 1) phases against (M,) bins. With
    rows, theta holds one phase per row instead, element e of the (E,)
    bin_phases belongs to row rows[e], and the terms of the phase alone are
    computed once per row. Every element depends only on its own y and
    theta. Every caller's theta lies in [-1/(2M), 1), where t at the peak
    bin is exactly x / M, so the peak mask picks out exactly the elements
    whose offset is x / pi. Returns those of P (pmf), dP/dtheta (grad) and
    d2P/dtheta2 (curv) that are asked for, in that order, one alone bare.
    Away from the peak, with N and C the numerators of P and dP/dtheta,

        d2P/dtheta2 = (pi / sin t)^2 [2 cos 2x + 2 N - (4 / pi) C cot t + 6 N cot^2 t].

    Next to it, each output asked for is one real Horner pass of its
    _peak_series table over the phase's z = x^2 (times x for dP/dtheta),
    copied onto the peak elements.
    """
    theta = np.asarray(theta, dtype=float)
    u = theta * M
    x = np.pi * (np.rint(u) - u)
    s = np.sin(x)
    num = np.square(s / M)
    if grad or curv:
        cross = (2.0 * np.pi / M) * (s * np.cos(x))
    # Row terms reach the elements one at a time, so no more of them are held at once.
    at = (lambda term: term) if rows is None else (lambda term: term[rows])
    with np.errstate(all="ignore"):
        t = np.subtract(bin_phases, at(theta))
        buf = np.rint(t)
        t -= buf
        t *= np.pi
        near_peak = np.abs(t, out=buf) < np.pi * NEAR_PEAK / M
        np.sin(t, out=buf)
        if grad or curv:
            np.cos(t, out=t)
            t /= buf
        buf *= buf
        out = []
        if pmf:
            out.append(np.divide(at(num), buf, out=None if grad or curv else buf))
        if curv:
            # pi^2 times the bracket of d2P/dtheta2, a quadratic in cot t
            d2P = np.multiply(at(6.0 * np.pi**2 * num), t)
            d2P -= at(4.0 * np.pi * cross)
            d2P *= t
            d2P += at(np.pi**2 * (2.0 * np.cos(2.0 * x) + 2.0 * num))
            d2P /= buf
        if grad:
            t *= at(2.0 * np.pi * num)
            t -= at(cross)
            t /= buf
            out.append(t)
        if curv:
            out.append(d2P)
    if _any(near_peak, axis=None):
        z = np.square(x)
        p, g, c = _peak_series(M)
        peak = [_horner(p, z)] if pmf else []
        if grad:
            peak.append(x * _horner(g, z))
        if curv:
            peak.append(_horner(c, z))
        if rows is not None:
            (index,) = near_peak.nonzero()  # at most one element per row
        for value, term in zip(out, peak):
            if rows is None:
                np.copyto(value, term, where=near_peak)
            else:
                value[index] = term[rows[index]]
    return out[0] if len(out) == 1 else tuple(out)


def _pmf_square_sum(theta, M: int, curv: bool = False) -> tuple[np.ndarray, ...]:
    """S = sum_y P_y(theta)^2 over all M outcomes, and dS/dtheta, in closed form.

    Counting the index quadruples of the two Dirichlet kernels whose
    difference is a multiple of M gives

        S = [(2M^3 + M) + (M^3 - M) cos(2 pi u)] / (3 M^3),
        dS/dtheta = -2 pi M (M^3 - M) sin(2 pi u) / (3 M^3),

    with u = M theta - rint(M theta). M theta is exact because M is a power
    of two, so the reduction loses nothing; unreduced, the cosine's error
    grows with M theta (2.7e-13 relative at n = 12). The cubes are divided
    out through the exact 1/M^2, since 2M^3 + M is not exact in float64 past
    n = 25. Both agree with the O(M) sums of P^2 and 2 P P' to 2e-15 (dS
    relative to its amplitude) for every n = 1..20, and with a 50-digit
    evaluation of this closed form to 4e-16 for n = 21..30, where
    observed-bin fits still use it (tests/test_pmf.py). With curv, the
    second derivative -4 pi^2 (M^2 - 1) cos(2 pi u) / 3 follows as a third value.
    """
    u = np.asarray(theta, dtype=float) * M
    angle = 2.0 * np.pi * (u - np.rint(u))
    q = 1.0 / (M * M)
    S = ((2.0 + q) + (1.0 - q) * np.cos(angle)) / 3.0
    dS = -2.0 * np.pi * (M - 1.0 / M) * np.sin(angle) / 3.0
    if curv:
        return S, dS, -4.0 * np.pi**2 * (M * M - 1.0) * np.cos(angle) / 3.0
    return S, dS


def pmf_single(reg: RegisterSpec, theta: float, y: int) -> float:
    """Probability of outcome y for a single eigenphase theta."""
    theta = _check_theta(theta)
    y = _check_int(y, "y", 0, reg.M - 1)
    return float(_pmf_kernel(np.array([y / reg.M]), theta, reg.M)[0])


def pmf_vector(reg: RegisterSpec, model: PhaseModel) -> np.ndarray:
    """Probabilities of all M outcomes under a mixture model."""
    M = reg.M
    P = _pmf_kernel(np.arange(M) / M, np.array(model.thetas)[:, None], M)
    if len(P) == 1:
        return P[0]
    P *= np.array(model.weights)[:, None]
    return P.sum(axis=0)


def analytic_distribution(reg: RegisterSpec, model: PhaseModel) -> OutcomeDistribution:
    return OutcomeDistribution(reg, pmf_vector(reg, model))


def score(reg: RegisterSpec, theta: float, y: int) -> float:
    """Sensitivity d log P(y) / d theta at a single eigenphase.

    This is dP/dtheta over P, and -inf where P is exactly 0 (the offset
    y - theta*M is a nonzero integer); every consumer weights it by P.
    """
    theta = _check_theta(theta)
    y = _check_int(y, "y", 0, reg.M - 1)
    P, dP = _pmf_kernel(np.array([y / reg.M]), theta, reg.M, grad=True)
    return float(dP[0] / P[0]) if P[0] > 0.0 else -math.inf


def fisher_information(reg: RegisterSpec) -> float:
    """Single-shot Fisher information, 4 pi^2 (M^2 - 1) / 3.

    This is the closed form of sum_y score(y)^2 P(y), which is the same for
    every phase whose offsets y - theta*M are never integers and depends
    only on M. M^2 - 1 is an exact integer, so the value is correct to a few
    units in the last place for every n <= 30.
    """
    M = reg.M
    return 4.0 * math.pi**2 * (M * M - 1) / 3.0


def crlb_mse(reg: RegisterSpec, k: int) -> float:
    """Lowest possible mean squared error of any unbiased estimate from k shots."""
    return 1.0 / (_check_shots(k) * fisher_information(reg))


def circuit_depth_units(reg: RegisterSpec) -> int:
    """Controlled-unitary applications in the circuit: 2**n - 1."""
    return (1 << reg.n) - 1
