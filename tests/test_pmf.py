"""Closed-form model: PMF, score, Fisher information, CRLB, depth."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    PI_LD,
    central_log_diff,
    mirror_flip_probability,
    mirror_phase,
    on_bin_coefficients,
    oracle_pmf,
    oracle_pmf_vector,
    random_phase_model,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qpecf.errors import DomainError
from qpecf.model import OutcomeDistribution, PhaseComponent, PhaseModel, RegisterSpec
from qpecf.pmf import (
    NEAR_PEAK,
    _horner,
    _peak_series,
    _pmf_kernel,
    _pmf_square_sum,
    analytic_distribution,
    circuit_depth_units,
    crlb_mse,
    fisher_information,
    pmf_single,
    pmf_vector,
    score,
)
from qpecf.simulate import ShotHistogram, histogram_to_probs

# Reference single-shot Fisher information per register size.
FISHER_REFERENCE = {
    4: 197.39208802,
    8: 829.04676969,
    16: 3355.66549637,
    32: 13462.14040308,
    64: 53888.04002995,
    128: 215591.6385373,
    256: 862406.03256634,
}


def fisher_summation_at(reg: RegisterSpec, theta: float) -> float:
    """Independent FI evaluation through the public score/pmf interface."""
    return sum(score(reg, theta, y) ** 2 * pmf_single(reg, theta, y) for y in range(reg.M))


class TestRegisterSpec:
    def test_m_is_power_of_two(self):
        assert RegisterSpec(1).M == 2
        assert RegisterSpec(8).M == 256
        assert RegisterSpec(30).M == 2**30

    @pytest.mark.parametrize("bad", [0, -1, 31, 1.5, "3", True])
    def test_invalid_n_rejected(self, bad):
        with pytest.raises(DomainError):
            RegisterSpec(bad)


class TestModelTypes:
    def test_component_range_checks(self):
        with pytest.raises(DomainError):
            PhaseComponent(1.0, 0.5)
        with pytest.raises(DomainError):
            PhaseComponent(-0.1, 0.5)
        with pytest.raises(DomainError):
            PhaseComponent(0.5, 1.5)

    def test_component_values_must_be_real_numbers(self):
        # a float cast would take True as 1.0 and "1" as 1.0
        for theta, weight, name in (
            (0.5, True, "weight"),
            (0.5, "1", "weight"),
            ("0.5", 1.0, "theta"),
            (False, 1.0, "theta"),
        ):
            with pytest.raises(DomainError, match=f"{name} must be a real number"):
                PhaseComponent(theta, weight)
        assert PhaseComponent(Fraction(1, 3), np.float32(1)) == PhaseComponent(1 / 3, 1.0)

    def test_phase_range_is_checked_on_both_sides_of_the_float_cast(self):
        with pytest.raises(DomainError, match="must lie in"):
            PhaseComponent(10**400, 1.0)  # float() would overflow
        with pytest.raises(DomainError, match="must lie in"):
            PhaseComponent(Fraction(2**60 - 1, 2**60), 1.0)  # rounds up to 1.0

    def test_model_sorts_and_normalizes(self):
        model = PhaseModel.from_pairs([(0.7, 0.25), (0.2, 0.75)])
        assert model.thetas == (0.2, 0.7)
        assert model.weights == (0.75, 0.25)

    def test_model_rejects_bad_weight_sum(self):
        with pytest.raises(DomainError):
            PhaseModel.from_pairs([(0.1, 0.5), (0.2, 0.6)])

    def test_model_rejects_duplicate_phases(self):
        with pytest.raises(DomainError):
            PhaseModel.from_pairs([(0.3, 0.5), (0.3, 0.5)])

    def test_distribution_validation(self):
        reg = RegisterSpec(2)
        with pytest.raises(DomainError):
            OutcomeDistribution(reg, np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(DomainError):
            OutcomeDistribution(reg, np.array([0.5, 0.5]))
        # a float cast would drop the imaginary part with only a warning
        with pytest.raises(DomainError, match="probs must be real"):
            OutcomeDistribution(reg, np.array([0.25 + 0.25j, 0.25, 0.25, 0.25 - 0.25j]))
        dist = OutcomeDistribution(reg, np.array([0.25] * 4))
        with pytest.raises(ValueError):
            dist.probs[0] = 1.0  # stored read-only
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="probs must be finite"):
                OutcomeDistribution(reg, np.array([0.25, 0.25, 0.5, bad]))
        with pytest.raises(DomainError, match=r"each probability must lie in \[0, 1\]"):
            OutcomeDistribution(reg, np.array([0.5, 0.5 + 1e-9, 0.0, -1e-9]))
        with pytest.raises(DomainError, match="probabilities must sum to 1"):
            OutcomeDistribution(reg, np.array([0.25, 0.25, 0.25, 0.25 + 1e-9]))
        # a caller's writable array is copied, so writing to it later moves nothing
        probs = np.array([0.25] * 4)
        dist = OutcomeDistribution(reg, probs)
        probs[0] = 1.0
        assert dist.probs.tolist() == [0.25] * 4
        observed = histogram_to_probs(ShotHistogram(reg, np.array([1, 0, 2, 1]), 4))
        with pytest.raises(ValueError):
            observed.probs[0] = 1.0

    def test_a_read_only_array_is_copied_too(self):
        # its owner can make it writeable again, so it is not kept
        reg = RegisterSpec(2)
        probs = np.array([0.25] * 4)
        probs.setflags(write=False)
        dist = OutcomeDistribution(reg, probs)
        probs.setflags(write=True)
        probs[0] = 7.0
        assert dist.probs.tolist() == [0.25] * 4
        counts = np.array([1, 0, 2, 1])
        counts.setflags(write=False)
        hist = ShotHistogram(reg, counts, 4)
        counts.setflags(write=True)
        counts[0] = -5
        assert hist.counts.tolist() == [1, 0, 2, 1]
        # qpecf's own fresh arrays are kept: the private path skips the copy
        quotient = np.array([0.25] * 4)
        assert OutcomeDistribution(reg, quotient, _owned=True).probs is quotient
        draw = np.array([1, 0, 2, 1])
        assert ShotHistogram(reg, draw, 4, _owned=True).counts is draw


class TestPmfValues:
    def test_exact_alignment_is_one(self):
        reg = RegisterSpec(3)
        assert pmf_single(reg, 3 / 8, 3) == 1.0
        assert pmf_single(reg, 3 / 8, 5) == 0.0

    def test_known_off_grid_value(self):
        # frozen from the longdouble direct-sum oracle
        reg = RegisterSpec(3)
        value = pmf_single(reg, 1 / 3, 3)
        assert abs(value - 0.6878376625896214) < 1e-12
        assert abs(value - oracle_pmf(3, 1 / 3, 3)) < 1e-12

    @pytest.mark.parametrize("n", [20, 30])
    def test_peak_bins_match_longdouble_closed_form(self, n):
        # the peak bins have offsets below one; reducing a negative one by
        # np.mod rounded it onto the last place of M, up to 1.9e-10 relative
        # at n = 20 and 1.7e-7 at n = 30
        reg = RegisterSpec(n)
        M = np.longdouble(reg.M)
        for theta in (1 / 3, 0.7, 0.123456789):
            y0 = round(theta * reg.M)
            for y in range(y0 - 2, y0 + 3):
                d = np.longdouble(y) - np.longdouble(theta) * M
                want = np.sin(PI_LD * d) ** 2 / (M**2 * np.sin(PI_LD * d / M) ** 2)
                assert abs(pmf_single(reg, theta, y) - want) / want < 1e-15

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            theta = float(rng.random())
            got = pmf_vector(RegisterSpec(n), PhaseModel.single(theta))
            want = oracle_pmf_vector(n, [(theta, 1.0)])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_representable_phases_are_indicators(self):
        for n in range(1, 9):
            reg = RegisterSpec(n)
            for y_star in range(reg.M):
                probs = pmf_vector(reg, PhaseModel.single(y_star / reg.M))
                assert probs[y_star] == 1.0
                mask = np.ones(reg.M, dtype=bool)
                mask[y_star] = False
                assert np.all(probs[mask] == 0.0)

    def test_normalization_1000_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            reg = RegisterSpec(n)
            single = pmf_vector(reg, PhaseModel.single(float(rng.random())))
            assert abs(single.sum() - 1.0) < 1e-10
            model = PhaseModel.from_pairs(random_phase_model(rng, int(rng.integers(1, 5))))
            assert abs(pmf_vector(reg, model).sum() - 1.0) < 1e-10

    def test_domain_errors(self):
        reg = RegisterSpec(3)
        for bad_theta in (1.0, -0.2, float("nan"), 2.5):
            with pytest.raises(DomainError):
                pmf_single(reg, bad_theta, 0)
        for bad_y in (-1, 8, 0.5, True):
            with pytest.raises(DomainError):
                pmf_single(reg, 0.3, bad_y)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), theta=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False))
    def test_pmf_range_and_normalization_property(self, n, theta):
        probs = pmf_vector(RegisterSpec(n), PhaseModel.single(theta))
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        assert abs(probs.sum() - 1.0) < 1e-10


class TestKernels:
    @pytest.mark.parametrize("n", [1, 3, 8, 20, 30])
    def test_component_axis_matches_row_by_row_calls(self, n):
        # a (J, 1) phase array is how mixtures and solver batches reach the
        # kernel; each row must come out exactly as its own call, P alone
        # and with dP/dtheta, including the peak (d = 0, tiny offsets, the
        # series either side of NEAR_PEAK), the zeros of P (theta on a
        # bin), half-bin ties and the lowest phase a solver box reaches
        M = 1 << n
        rng = np.random.default_rng(n)
        y0 = M // 3
        offsets = [0.0, 3e-10, -8e-7, 0.1, NEAR_PEAK - 1e-9, -NEAR_PEAK - 1e-9, 0.5, -0.5]
        thetas = [(y0 - d) / M for d in offsets] + [0.0, 1e-300, -0.5 / M, 1 - 1e-12]
        thetas = np.array(thetas + list(rng.random(4)))[:, None]
        y = np.unique(np.concatenate([np.arange(y0 - 2, y0 + 3), rng.integers(0, M, 6), [0, M - 1]]))
        bin_phases = np.unique(y % M) / M
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            P = _pmf_kernel(bin_phases, thetas, M)
            both = _pmf_kernel(bin_phases, thetas, M, grad=True)
            dP = _pmf_kernel(bin_phases, thetas, M, pmf=False, grad=True)
            by_row = [_pmf_kernel(bin_phases, theta, M, grad=True) for theta in thetas[:, 0]]
        assert P.shape == both[1].shape == (len(thetas), len(bin_phases))
        assert not np.any(np.isnan(P)) and not np.any(np.isnan(both[1]))
        assert np.array_equal(P, both[0]) and np.array_equal(dP, both[1])
        for j, (P_row, dP_row) in enumerate(by_row):
            assert np.array_equal(both[0][j], P_row)
            assert np.array_equal(both[1][j], dP_row)

    @pytest.mark.parametrize("n", [2, 8, 20])
    def test_row_mode_matches_a_phase_per_element(self, n):
        # rows gathers each row's phase terms to its elements; the values are
        # those of a call with the phase repeated per element, bit for bit,
        # next to the peak and away from it
        M = 2**n
        rng = np.random.default_rng(n)
        y0 = M // 3
        theta = np.array([(y0 + d) / M for d in (0.0, 0.2, -0.4, 0.005)] + [-0.5 / M])
        lengths = rng.integers(1, 6, len(theta))
        rows = np.repeat(np.arange(len(theta)), lengths)
        y = (y0 + rng.integers(-3, 4, rows.size)) % M
        for kw in ({}, {"pmf": False, "grad": True}, {"pmf": False, "grad": True, "curv": True}):
            got = _pmf_kernel(y / M, theta, M, rows=rows, **kw)
            want = _pmf_kernel(y / M, theta[rows], M, **kw)
            for g, w in zip(*(v if isinstance(v, tuple) else (v,) for v in (got, want))):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_curvature_matches_differences_of_the_gradient(self, n):
        # d2P/dtheta2 from its closed form and, next to the peak, its series,
        # against central differences of dP/dtheta, relative to the largest
        # |d2P/dtheta2| of the row, 2 (pi M)^2 / 3: measured 1.3e-10
        M = 2**n
        rng = np.random.default_rng(n)
        h = 1e-6 / M
        scale = 2 * (np.pi * M) ** 2 / 3
        for theta in list(rng.uniform(0, 0.9, 6)) + [(M // 3 + d) / M for d in (0.1, 0.3)]:
            bin_phases = np.unique((np.rint(theta * M) + np.arange(-8, 9)) % M) / M
            dP, d2P = _pmf_kernel(bin_phases, theta, M, pmf=False, grad=True, curv=True)
            # theta + h rounds to the phase's float spacing, so divide by the step taken
            ends = theta + h, theta - h
            up, down = (_pmf_kernel(bin_phases, end, M, pmf=False, grad=True) for end in ends)
            assert np.max(np.abs(d2P - (up - down) / (ends[0] - ends[1]))) <= 1e-9 * scale

    def test_peak_series_leading_terms(self):
        # P = 1 - (1 - 1/M^2) x^2 / 3 + ..., dP/dtheta = 2 pi M (1 - 1/M^2) x / 3 + ...
        # and d2P/dtheta2 = -2 pi^2 (M^2 - 1) / 3 + ..., the curvature at the peak
        assert _horner((1.0, 2.0, 3.0), np.array([2.0]))[0] == 17.0
        for n in (1, 3, 20, 30):
            M = 2**n
            p, g, c = _peak_series(M)
            assert p[0] == 1.0
            assert p[1] == pytest.approx(-(1 - 1 / M**2) / 3, rel=1e-15)
            assert g[0] == pytest.approx(2 * np.pi * M * (1 - 1 / M**2) / 3, rel=1e-15)
            assert c[0] == pytest.approx(-2 * np.pi**2 * (M * M - 1) / 3, rel=1e-15)


# P and dP/dtheta next to the peak, from mpmath 1.3.0 at 50 digits on the
# exact binary value of each theta; d = y - theta*M is the reduced offset:
#
#     import mpmath as mp
#     mp.mp.dps = 50
#     x = mp.pi * (y - mp.mpf(theta) * M); t = x / M
#     P = mp.sin(x) ** 2 / (M * mp.sin(t)) ** 2
#     dP = 2 * mp.pi * mp.sin(x) * (mp.sin(x) * mp.cot(t) - M * mp.cos(x)) / (M * mp.sin(t)) ** 2
#
# with theta = (y - d) / M for d = 1.05e-6, -1.05e-6, 1e-4, -0.1, 0.2499,
# 0.2501 and -0.2501, and theta = 1 - 1e-12 (d = 1.05e-6 on bin 0) at n = 20.
PEAK_REFERENCE = [
    # (n, theta, y, P, dP/dtheta)
    (1, 0.499999475, 1, 0.9999999999972797, 1.036308462060122e-05),
    (1, 0.500000525, 1, 0.9999999999972797, -1.0363084621696967e-05),
    (1, 0.49995, 1, 0.9999999753259892, 0.0009869604238739787),
    (1, 0.55, 1, 0.9755282581475767, -0.9708055193627341),
    (1, 0.37505, 1, 0.8536644452177403, 2.2207434730469573),
    (1, 0.37495, 1, 0.8534423010744865, 2.2221392458639255),
    (1, 0.62505, 1, 0.8534423010744865, -2.2221392458639255),
    (20, 0.33333301544089317, 349525, 0.9999999999963729, 7.244376374941911),
    (20, 0.3333330154428959, 349525, 0.9999999999963729, -7.244376374941911),
    (20, 0.3333330153465271, 349525, 0.999999967101316, 689.9353682429487),
    (20, 0.33333311080932615, 349525, 0.9675312092900287, -671967.8810286218),
    (20, 0.33333277711868287, 349525, 0.8107086105361238, 1458810.6030172233),
    (20, 0.333332776927948, 349525, 0.8104302910149624, 1459580.816047904),
    (20, 0.33333325395584107, 349525, 0.8104302910149624, -1459580.816047904),
    (20, 0.999999999999, 0, 0.9999999999963829, 7.234336494162904),
    (30, 0.3333333330228915, 357913941, 0.9999999999962131, 7579.856180013664),
    (30, 0.3333333330228935, 357913941, 0.9999999999962131, -7579.856180013664),
    (30, 0.3333333330227993, 357913941, 0.9999999670903998, 706611.0186244295),
    (30, 0.33333333311602475, 357913941, 0.9675311939962966, -688095265.6997856),
    (30, 0.333333332790155, 357913941, 0.8107086336153447, 1493821992.0345433),
    (30, 0.3333333327899687, 357913941, 0.810430267923252, 1494610821.0165305),
    (30, 0.33333333325581627, 357913941, 0.810430267923252, -1494610821.0165305),
]


class TestPeakPrecision:
    @pytest.mark.parametrize("n, theta, y, P_ref, dP_ref", PEAK_REFERENCE)
    def test_matches_mpmath_next_to_the_peak(self, n, theta, y, P_ref, dP_ref):
        # measured: at most 1.4e-16 for P, 2.4e-16 for dP/dtheta inside the
        # series and 8.0e-16 just past it, where the sine form's bracket
        # starts to cancel; the former gradient form was up to 4e-5 off at
        # |d| = 1.05e-6 and 5e-9 at 1e-4
        M = 2**n
        P, dP = _pmf_kernel(np.array([y / M]), theta, M, grad=True)
        d = abs((y - theta * M + M / 2) % M - M / 2)
        assert abs(P[0] - P_ref) / P_ref <= 4e-16
        assert abs(dP[0] - dP_ref) / abs(dP_ref) <= (4e-16 if d < NEAR_PEAK else 1.5e-15)
        assert pmf_single(RegisterSpec(n), theta, y) == P[0]
        assert score(RegisterSpec(n), theta, y) == dP[0] / P[0]


class TestPmfMulti:
    def test_single_component_reduces_exactly(self):
        reg = RegisterSpec(3)
        rng = np.random.default_rng(22)
        for theta in rng.random(20):
            model = PhaseModel.from_pairs([(float(theta), 1.0)])
            for y in range(reg.M):
                assert pmf_vector(reg, model)[y] == pmf_single(reg, float(theta), y)

    def test_matches_component_loop_exactly(self):
        # one (J, M) kernel call summed over components must equal the
        # per-component sum in component order, bit for bit
        rng = np.random.default_rng(24)
        for J in range(1, 6):
            reg = RegisterSpec(4)
            model = PhaseModel.from_pairs(random_phase_model(rng, J))
            want = np.zeros(reg.M)
            for c in model.components:
                want += c.weight * np.array([pmf_single(reg, c.theta, y) for y in range(reg.M)])
            assert np.array_equal(pmf_vector(reg, model), want)

    def test_linearity_in_weights(self):
        reg = RegisterSpec(3)
        model = PhaseModel.from_pairs([(0.5, 0.5), (1 / 3, 0.5)])
        got = pmf_vector(reg, model)[4]
        want = 0.5 * pmf_single(reg, 0.5, 4) + 0.5 * pmf_single(reg, 1 / 3, 4)
        assert math.isclose(got, want, rel_tol=1e-15)
        # the representable component contributes exactly its weight at its bin
        assert abs(got - (0.5 + 0.5 * pmf_single(reg, 1 / 3, 4))) < 1e-15

    def test_mixture_matches_oracle_and_normalizes(self):
        pairs = [(1 / 3, 0.3), (1 / 5, 0.7)]
        got = pmf_vector(RegisterSpec(3), PhaseModel.from_pairs(pairs))
        want = oracle_pmf_vector(3, pairs)
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(got.sum() - 1.0) < 1e-10

    def test_analytic_distribution_wraps_pmf_vector(self):
        reg = RegisterSpec(4)
        model = PhaseModel.from_pairs([(0.3, 0.4), (0.71, 0.6)])
        dist = analytic_distribution(reg, model)
        assert isinstance(dist, OutcomeDistribution)
        assert np.array_equal(dist.probs, pmf_vector(reg, model))


class TestScore:
    def test_zero_at_exact_alignment(self):
        assert score(RegisterSpec(3), 3 / 8, 3) == 0.0
        assert score(RegisterSpec(5), 0.0, 0) == 0.0

    def test_matches_log_pmf_finite_difference(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 9))
            reg = RegisterSpec(n)
            theta = float(rng.random())
            y = int(rng.integers(0, reg.M))
            if pmf_single(reg, theta, y) <= 1e-8 or not 1e-6 < theta < 1 - 1e-6:
                continue
            fd = central_log_diff(lambda t: pmf_single(reg, t, y), theta, 1e-7)
            analytic = score(reg, theta, y)
            assert abs(analytic - fd) < 1e-5 * max(1.0, abs(analytic))
            checked += 1

    def test_named_points_match_finite_difference(self):
        for reg, theta, y in [(RegisterSpec(3), 1 / 3, 3), (RegisterSpec(2), 0.3, 1)]:
            fd = central_log_diff(lambda t: pmf_single(reg, t, y), theta, 1e-7)
            analytic = score(reg, theta, y)
            assert abs(analytic - fd) / abs(fd) < 1e-5

    def test_series_joins_direct_evaluation_continuously(self):
        # straddle the offset where dP/dtheta switches from its series to the sine form
        reg = RegisterSpec(4)
        inner = score(reg, (3 + NEAR_PEAK - 1e-9) / reg.M, 3)
        outer = score(reg, (3 + NEAR_PEAK + 1e-9) / reg.M, 3)
        assert abs(inner - outer) < 1e-6 * max(1.0, abs(outer))

    def test_infinite_exactly_at_zero_probability_outcomes(self):
        # at integer delta != 0 the probability vanishes and the log-slope diverges
        reg = RegisterSpec(3)
        assert pmf_single(reg, 3 / 8, 5) == 0.0
        assert math.isinf(score(reg, 3 / 8, 5))


class TestFisher:
    def test_reference_values(self):
        for M, want in FISHER_REFERENCE.items():
            got = fisher_information(RegisterSpec(M.bit_length() - 1))
            assert abs(got - want) / want < 1e-8

    def test_positive_and_strictly_increasing(self):
        values = [fisher_information(RegisterSpec(n)) for n in range(1, 9)]
        assert all(v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_independent_of_evaluation_phase(self):
        for n in (2, 3, 5, 8):
            reg = RegisterSpec(n)
            M = reg.M
            probes = [1 / (3 * M), 1 / (7 * M), 0.4999 / M, 1 / M + 0.4999 / M]
            values = [fisher_summation_at(reg, t) for t in probes]
            base = fisher_information(reg)
            for v in values:
                assert abs(v - base) / base < 1e-9

    def test_matches_quadratic_closed_form(self):
        # summation agrees with (4 pi^2 / 3)(M^2 - 1), itself matching the references
        for n in range(1, 9):
            reg = RegisterSpec(n)
            closed = (4 * math.pi**2 / 3) * (reg.M**2 - 1)
            assert abs(fisher_summation_at(reg, 1 / (3 * reg.M)) - closed) / closed < 1e-9

    def test_closed_form_is_float64_accurate_over_the_whole_domain(self):
        # exact rational 4 pi^2 (M^2 - 1) / 3 with pi to 50 digits
        pi = Fraction("3.14159265358979323846264338327950288419716939937510")
        for n in range(1, 31):
            M = 2**n
            exact = 4 * pi**2 * (M * M - 1) / 3
            got = Fraction(fisher_information(RegisterSpec(n)))
            assert abs(got - exact) / exact < 4 * 2.0**-53


def square_sum_phases(n: int) -> list:
    """20 phases for register n: random, on-bin, half-bin and just below 1."""
    M = 2**n
    rng = np.random.default_rng(700 + n)
    phases = [float(t) for t in rng.random(7)]
    phases += [0.0, 1 / M, 0.5, (M - 1) / M, 0.5 / M, (M - 0.5) / M]
    # offsets of the last bin from 1e-10 to 0.3 bins, across the kernels' series switch
    phases += [float(np.nextafter(1.0, 0.0)), 1 - 1e-12, 1 - 1e-7 / M, 1 - 3e-6 / M]
    phases += [1 - 0.02 / M, 1 - 0.3 / M, (M - 1 + 1e-9) / M]
    return phases


# S and dS/dtheta of _pmf_square_sum's closed form at n = 21-30, where the
# O(M) sums are too large for a test, evaluated with mpmath at 50 digits and
# kept to 25 significant digits. Per n: the phases of square_sum_phases(n) and 1/3
# with the largest S and dS errors, and the half-bin phase 0.5 / M.
SQUARE_SUM_REFERENCE = [
    (21, 0.9999998569488525, "5.636610017823622191658736e-1", "4.177292132903320010666486e+6"),
    (21, 0.9494493281413635, "3.547856453069668933385555e-1", "1.550239647672764791023774e+6"),
    (21, 2.384185791015625e-07, "3.333333333334849157836288e-1", "4.439243390092957201727416e-45"),
    (22, 0.4215496381032906, "5.000691996835928518143288e-1", "-7.608678527820011019501324e+6"),
    (22, 1.1920928955078125e-07, "3.333333333333712289459072e-1", "8.87848678018742845408352e-45"),
    (23, 0.9999999642372132, "5.63661002246041798678021e-1", "1.670916853955922588797158e+7"),
    (23, 5.960464477539063e-08, "3.333333333333428072364768e-1", "1.775697356037561393348138e-44"),
    (24, 0.9999999821186065, "5.636610003909467863828917e-1", "3.341833701557973494969955e+7"),
    (24, 0.4999067885347823, "8.252020721480110373384926e-1", "-3.090953808661957762776414e+7"),
    (24, 2.9802322387695312e-08, "3.333333333333357018091192e-1", "3.551394712075160637961994e-44"),
    (25, 0.18579985449039316, "3.7775563551491445184178e-1", "3.505183647900537431162503e+7"),
    (25, 0.6489885034492314, "4.068758275225525369771365e-1", "4.403233834013262325812061e+7"),
    (25, 1.4901161193847656e-08, "3.333333333333339254522798e-1", "7.102789424150340201556847e-44"),
    (26, 0.797564634660374, "3.95321114671938776699486e-1", "8.163477568353416812111607e+7"),
    (26, 7.450580596923828e-09, "3.3333333333333348136307e-1", "1.420557884830068986593012e-43"),
    (27, 0.9999999962747097, "3.333333333333333703407675e-1", "-2.841115769660138446326846e-43"),
    (27, 0.9853326934849223, "3.539966729895654314355738e-1", "-9.743329412844605941137794e+7"),
    (27, 3.725290298461914e-09, "3.333333333333333703407675e-1", "2.841115769660138446326846e-43"),
    (28, 0.08003133973466381, "8.161925110540744263375485e-1", "-5.024716844747062181509153e+8"),
    (28, 0.8409773868206738, "5.306492104311128937918754e-1", "-5.132743237957783623918687e+8"),
    (28, 1.862645149230957e-09, "3.333333333333333425851919e-1", "5.682231539320277129224103e-43"),
    (29, 0.3333333333333333, "4.999999819815225265652924e-1", "9.737760837695160593385404e+8"),
    (29, 9.313225746154785e-10, "3.33333333333333335646298e-1", "1.136446307864055437673341e-42"),
    (30, 0.3333333333333333, "5.000000360369568987657262e-1", "-1.947552378090581298861492e+9"),
    (30, 0.6746332986395255, "4.129816050926460254220095e-1", "1.458793340100668311989583e+9"),
    (30, 4.656612873077393e-10, "3.333333333333333339115745e-1", "2.272892615728110881260943e-42"),
]


class TestSquareSum:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_closed_form_matches_the_sums(self, n):
        # S = sum_y P^2 and dS/dtheta = sum_y 2 P P' against the O(M) sums
        # of the kernel's own P and P'; dS crosses zero, so its error is
        # relative to its amplitude 2 pi (M - 1/M) / 3
        M = 2**n
        bin_phases = np.arange(M) / M
        amplitude = 2 * np.pi * (M - 1 / M) / 3
        for theta in square_sum_phases(n):
            P, dP = _pmf_kernel(bin_phases, theta, M, grad=True)
            S, dS = _pmf_square_sum(theta, M)
            want = np.sum(P * P)
            assert abs(S - want) / want <= 2e-15, theta
            assert abs(dS - np.sum(2 * P * dP)) / amplitude <= 2e-15, theta

    @pytest.mark.parametrize("n, theta, S_ref, dS_ref", SQUARE_SUM_REFERENCE)
    def test_closed_form_is_float64_accurate_up_to_n_30(self, n, theta, S_ref, dS_ref):
        # observed-bin fits use S up to n = 30; measured over all of
        # square_sum_phases(n) and 1/3: at most 3.3e-16 for S and 3.0e-16
        # for dS relative to its amplitude
        M = 2**n
        S, dS = _pmf_square_sum(theta, M)
        amplitude = 2 * np.pi * (M - 1 / M) / 3
        assert abs(Fraction(float(S)) - Fraction(S_ref)) / Fraction(S_ref) <= 4e-16
        assert abs(Fraction(float(dS)) - Fraction(dS_ref)) / Fraction(amplitude) <= 4e-16


class TestIdentifiabilityLimits:
    """The closed forms behind the acceptance bounds, checked against the pmf itself."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_on_bin_coefficients_match_second_difference(self, n):
        # P_y(y0/M + eps) = [y == y0] + c_y eps^2 + O(eps^4)
        M = 2**n
        y = np.arange(M, dtype=float)
        h = 1e-5
        for y0 in (0, 1, M // 2, M - 1):
            def p(eps):
                return _pmf_kernel(y / M, y0 / M + eps, M)

            second = (p(h) - 2.0 * p(0.0) + p(-h)) / (2.0 * h * h)
            c = on_bin_coefficients(M, y0)
            assert np.max(np.abs(second - c) / np.abs(c)) < 1e-5
            assert abs(c.sum()) < 1e-9 * np.abs(c).max()

    def test_mirror_reflects_the_distribution_about_its_peak(self):
        reg = RegisterSpec(3)
        theta = 1 / 9
        assert mirror_phase(reg, theta) == pytest.approx(2 / 8 - theta, abs=1e-15)
        probs = pmf_vector(reg, PhaseModel.single(theta))
        mirrored = pmf_vector(reg, PhaseModel.single(mirror_phase(reg, theta)))
        assert np.allclose(mirrored, np.roll(probs[::-1], 3), atol=1e-15)

    @pytest.mark.parametrize(
        "theta, n, k", [(1 / 9, 3, 4000), (1 / 9, 3, 1000), (1 / 7, 3, 1000)]
    )
    def test_mirror_flip_probability_matches_sampled_least_squares(self, theta, n, k):
        reg = RegisterSpec(n)
        probs = pmf_vector(reg, PhaseModel.single(theta))
        mirrored = pmf_vector(reg, PhaseModel.single(mirror_phase(reg, theta)))
        draws = 20000
        freqs = np.random.default_rng(7).multinomial(k, probs, size=draws) / k
        flips = np.mean(((freqs - mirrored) ** 2).sum(1) < ((freqs - probs) ** 2).sum(1))
        predicted = mirror_flip_probability(reg, theta, k)
        assert abs(flips - predicted) < 4 * math.sqrt(predicted * (1 - predicted) / draws)


class TestTotalsAndDepth:
    def test_total_fisher_scales_linearly(self):
        # k shots carry k times the single-shot information: 1 / crlb_mse
        reg = RegisterSpec(2)
        assert abs(1 / crlb_mse(reg, 2) - 394.78417604) / 394.78417604 < 1e-8
        assert crlb_mse(reg, 10) == 1 / (10 * fisher_information(reg))

    def test_crlb_examples(self):
        rmse = math.sqrt(crlb_mse(RegisterSpec(3), 10**6))
        assert abs(rmse - 3.473e-5) < 1e-8
        assert abs(crlb_mse(RegisterSpec(2), 1) - 5.0661e-3) < 1e-7
        got = crlb_mse(RegisterSpec(4), 100)
        assert abs(got - 1.0 / 335566.549637) / got < 1e-8

    def test_zero_shots_rejected(self):
        reg = RegisterSpec(3)
        with pytest.raises(DomainError):
            crlb_mse(reg, 0)

    def test_depth_units(self):
        assert circuit_depth_units(RegisterSpec(3)) == 7
        assert circuit_depth_units(RegisterSpec(1)) == 1
        assert circuit_depth_units(RegisterSpec(8)) == 255
