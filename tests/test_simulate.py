"""Statevector simulation and shot sampling against the analytic model."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import oracle_pmf_vector, random_phase_model
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qpecf.errors import ConfigError, DomainError
from qpecf.model import OutcomeDistribution, PhaseModel, RegisterSpec
from qpecf.pmf import analytic_distribution, pmf_vector
from qpecf.simulate import (
    MAX_SIM_QUBITS,
    ShotHistogram,
    SimUnitary,
    _draws,
    histogram_to_probs,
    sample_shots,
    simulate_distribution,
)


def sim_probs(n: int, pairs) -> np.ndarray:
    reg = RegisterSpec(n)
    unitary = SimUnitary.from_model(PhaseModel.from_pairs(pairs))
    return simulate_distribution(reg, unitary).probs


class TestSimUnitary:
    def test_from_model_amplitudes(self):
        unitary = SimUnitary.from_model(PhaseModel.from_pairs([(0.25, 0.36), (0.5, 0.64)]))
        assert np.allclose(np.abs(np.asarray(unitary.amplitudes)) ** 2, [0.36, 0.64])

    def test_norm_validation(self):
        with pytest.raises(DomainError):
            SimUnitary((0.1, 0.2), (0.8, 0.7))
        with pytest.raises(DomainError):
            SimUnitary((0.1,), (1.0, 0.0))

    def test_needs_an_eigenphase(self):
        with pytest.raises(DomainError, match="at least one eigenphase"):
            SimUnitary((), ())


class TestCircuitStages:
    def test_state_norm_preserved_each_stage(self):
        # both stages are unitary, so the outcome marginal sums to 1
        probs = sim_probs(5, [(0.123, 0.5), (0.789, 0.5)])
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_register_size_guard(self):
        unitary = SimUnitary.from_model(PhaseModel.single(0.3))
        with pytest.raises(DomainError):
            simulate_distribution(RegisterSpec(MAX_SIM_QUBITS + 1), unitary)


class TestSimMatchesAnalytic:
    def test_representable_phase_gives_indicator(self):
        probs = sim_probs(3, [(3 / 8, 1.0)])
        assert abs(probs[3] - 1.0) < 1e-12
        assert np.all(np.delete(probs, 3) < 1e-12)

    def test_representable_phase_gives_indicator_widest_register(self):
        n, y0 = MAX_SIM_QUBITS, 12345
        probs = sim_probs(n, [(y0 / (1 << n), 1.0)])
        assert abs(probs[y0] - 1.0) < 1e-12
        assert np.all(np.delete(probs, y0) < 1e-12)

    def test_single_phase_register_sweep(self):
        rng = np.random.default_rng(30)
        for n in range(2, 9):
            reg = RegisterSpec(n)
            for theta in rng.random(50):
                got = sim_probs(n, [(float(theta), 1.0)])
                want = pmf_vector(reg, PhaseModel.single(float(theta)))
                assert np.max(np.abs(got - want)) < 1e-12

    def test_two_phase_register_sweep(self):
        rng = np.random.default_rng(31)
        for n in range(2, 9):
            reg = RegisterSpec(n)
            for _ in range(20):
                pairs = random_phase_model(rng, 2)
                got = sim_probs(n, pairs)
                want = pmf_vector(reg, PhaseModel.from_pairs(pairs))
                assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "pairs",
        [[(1 / 3, 1.0)], [(1 / 7, 1.0)], [(0.15, 0.5), (0.45, 0.3), (0.8, 0.2)]],
        ids=["1/3", "1/7", "J3"],
    )
    @pytest.mark.parametrize("n", [12, 16, MAX_SIM_QUBITS])
    def test_agrees_with_analytic_model_up_to_the_cap(self, n, pairs):
        # the kickback phases theta * x reach x = 2**20 - 1; with the
        # fractional part of the unsplit product instead of _phase_frac, the
        # peak bins are off by up to 2e-10 relative at n = 20
        reg = RegisterSpec(n)
        sim = sim_probs(n, pairs)
        analytic = pmf_vector(reg, PhaseModel.from_pairs(pairs))
        assert np.max(np.abs(sim - analytic)) <= 1e-15
        for theta, _ in pairs:
            peak = (int(theta * reg.M) + np.arange(-1, 3)) % reg.M
            rel = np.abs(sim[peak] - analytic[peak]) / analytic[peak]
            assert np.max(rel) <= 1e-15

    def test_triple_agreement_with_direct_sum(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            pairs = random_phase_model(rng, int(rng.integers(1, 6)))
            sim = sim_probs(n, pairs)
            analytic = pmf_vector(RegisterSpec(n), PhaseModel.from_pairs(pairs))
            brute = oracle_pmf_vector(n, pairs)
            assert np.max(np.abs(sim - brute)) < 2e-15
            assert np.max(np.abs(analytic - brute)) < 2e-15


class TestSampling:
    def test_counts_sum_and_determinism(self):
        dist = OutcomeDistribution(RegisterSpec(2), np.array([0.1, 0.2, 0.3, 0.4]))
        a = sample_shots(dist, 50_000, 7)
        b = sample_shots(dist, 50_000, 7)
        c = sample_shots(dist, 50_000, 8)
        assert a.counts.sum() == 50_000
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_seed_kinds_give_identical_counts(self):
        dist = OutcomeDistribution(RegisterSpec(3), pmf_vector(RegisterSpec(3), PhaseModel.single(1 / 3)))
        by_int = sample_shots(dist, 10_000, 7).counts
        by_sequence = sample_shots(dist, 10_000, np.random.SeedSequence(7)).counts
        assert np.array_equal(by_int, by_sequence)
        with pytest.raises(DomainError, match="seed"):
            sample_shots(dist, 10, -1)

    def test_wide_register_pmf_with_sum_roundoff(self):
        # sums to 1 + 9.6e-11, inside OutcomeDistribution's tolerance but
        # past what multinomial accepts unnormalised
        dist = analytic_distribution(RegisterSpec(20), PhaseModel.single(1 / 7))
        assert int(sample_shots(dist, 10_000, 3).counts.sum()) == 10_000

    def test_tolerated_negative_entry_gets_no_counts(self):
        dist = OutcomeDistribution(RegisterSpec(2), np.array([0.5 + 1e-12, -1e-12, 0.25, 0.25]))
        for seed in (0, 1, 12345):
            assert sample_shots(dist, 10_000, seed).counts[1] == 0

    # Literal counts of 1000 shots at seeds 0, 7 and 12345: every campaign
    # and readout draws from this stream, so a change that moves it fails
    # here. One pmf holds the tolerated -1e-12 entry; the other sums to
    # 1 - 9.9e-11, just inside PROB_SUM_TOL.
    PINNED_STREAMS = [
        (
            [0.3 + 1e-12, -1e-12, 0.2, 0.1, 0.15, 0.05, 0.12, 0.08],
            [
                [293, 0, 217, 98, 166, 46, 106, 74],
                [308, 0, 205, 93, 139, 45, 124, 86],
                [299, 0, 203, 94, 146, 50, 117, 91],
            ],
        ),
        (
            [0.05, 0.1, 0.2, 0.3, 0.15, 0.1, 0.06, 0.04 - 9.9e-11],
            [
                [48, 113, 230, 246, 156, 100, 63, 44],
                [41, 108, 193, 290, 147, 106, 67, 48],
                [53, 103, 186, 296, 150, 109, 55, 48],
            ],
        ),
    ]

    @pytest.mark.parametrize("probs, counts", PINNED_STREAMS)
    def test_stream_is_pinned(self, probs, counts):
        dist = OutcomeDistribution(RegisterSpec(3), np.array(probs))
        for seed, want in zip((0, 7, 12345), counts):
            assert sample_shots(dist, 1000, seed).counts.tolist() == want

    def test_draws_are_independent_per_call(self):
        # two generators stepped in turn each give a key its solo counts,
        # which are those of a Generator over Philox(SeedSequence)
        weights = [np.full(4, 0.25), np.array([0.1, 0.2, 0.3, 0.4])]
        seeds = [np.random.SeedSequence(s) for s in (0, 7, 12345, 2**70)]
        draws = [(weights[i % 2], 10**i, s.generate_state(2, np.uint64)) for i, s in enumerate(seeds)]
        solo = [next(_draws([draw])) for draw in draws]
        for (w, k, _), seed, counts in zip(draws, seeds, solo):
            want = np.random.Generator(np.random.Philox(seed)).multinomial(k, w)
            assert counts.tolist() == want.tolist()
        first, second = _draws(draws), _draws(draws[::-1])
        interleaved = [(next(first), next(second)) for _ in draws]
        assert [a.tolist() for a, _ in interleaved] == [c.tolist() for c in solo]
        assert [b.tolist() for _, b in interleaved] == [c.tolist() for c in solo[::-1]]

    def test_threads_draw_the_serial_counts(self):
        # _draws' calls share only their seed sequence, which no draw writes
        dist = analytic_distribution(RegisterSpec(3), PhaseModel.single(0.3))
        seeds = range(200)
        serial = [sample_shots(dist, 10**6, s).counts.tolist() for s in seeds]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda s: sample_shots(dist, 10**6, s).counts.tolist(), seeds))
        assert threaded == serial

    def test_zero_shots_rejected(self):
        dist = OutcomeDistribution(RegisterSpec(2), np.full(4, 0.25))
        for k in (0, 2**63):
            with pytest.raises(DomainError):
                sample_shots(dist, k, 1)

    def test_indicator_distribution(self):
        reg = RegisterSpec(3)
        probs = np.zeros(8)
        probs[3] = 1.0
        for seed in (0, 1, 12345):
            hist = sample_shots(OutcomeDistribution(reg, probs), 100, seed)
            assert hist.counts[3] == 100

    def test_uniform_frequencies(self):
        dist = OutcomeDistribution(RegisterSpec(2), np.full(4, 0.25))
        hist = sample_shots(dist, 10**6, 2024)
        freqs = hist.counts / 10**6
        assert np.max(np.abs(freqs - 0.25)) < 0.003

    def test_leaky_phase_frequencies(self):
        reg = RegisterSpec(3)
        model = PhaseModel.single(1 / 3)
        dist = OutcomeDistribution(reg, pmf_vector(reg, model))
        hist = sample_shots(dist, 10**6, 42)
        freqs = hist.counts / 10**6
        assert np.max(np.abs(freqs - dist.probs)) < 0.002

    def test_goodness_of_fit_pass_rate(self):
        # 1000 seeded draws; chi-squared vs the source distribution at the
        # 0.001 level must pass in at least 95% of them
        reg = RegisterSpec(3)
        probs = pmf_vector(reg, PhaseModel.single(1 / 3))
        dist = OutcomeDistribution(reg, probs)
        k = 10_000
        passed = 0
        for seed in range(1000):
            counts = sample_shots(dist, k, seed).counts
            _, p_value = stats.chisquare(counts, k * probs)
            passed += p_value > 0.001
        assert passed >= 950

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2000))
    def test_sampling_reproducibility_property(self, seed, k):
        dist = OutcomeDistribution(RegisterSpec(2), np.array([0.4, 0.1, 0.25, 0.25]))
        first = sample_shots(dist, k, seed)
        second = sample_shots(dist, k, seed)
        assert first.shots == k
        assert int(first.counts.sum()) == k
        assert np.array_equal(first.counts, second.counts)


class TestHistogram:
    def test_to_probs_examples(self):
        reg = RegisterSpec(2)
        hist = ShotHistogram(reg, np.array([5, 5, 0, 0]), 10)
        assert np.array_equal(histogram_to_probs(hist).probs, [0.5, 0.5, 0.0, 0.0])
        indicator = ShotHistogram(reg, np.array([10, 0, 0, 0]), 10)
        assert np.array_equal(histogram_to_probs(indicator).probs, [1.0, 0.0, 0.0, 0.0])

    def test_roundtrip_sum(self):
        dist = OutcomeDistribution(RegisterSpec(3), pmf_vector(RegisterSpec(3), PhaseModel.single(0.77)))
        probs = histogram_to_probs(sample_shots(dist, 997, 5)).probs
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_shots_has_no_default(self):
        # a histogram's shot count cannot be guessed, so it has no default
        with pytest.raises(TypeError, match="shots"):
            ShotHistogram(RegisterSpec(2), np.array([1, 0, 0, 0]))

    def test_count_sum_must_match_shots(self):
        with pytest.raises(DomainError):
            ShotHistogram(RegisterSpec(2), np.array([5, 5, 0, 0]), 11)
        with pytest.raises(DomainError):
            ShotHistogram(RegisterSpec(2), np.array([-1, 11, 0, 0]), 10)

    def test_counts_must_be_integers(self):
        # an int64 cast would keep [1, 2] of fractional counts, count bools as
        # 0 and 1, and reject NaN only as a negative count
        reg = RegisterSpec(1)
        for counts, shots in (
            (np.array([1.5, 2.5]), 3),
            (np.array([2.0, 1.0]), 3),
            (np.array([True, True]), 2),
            (np.array([np.nan, 3.0]), 3),
        ):
            with pytest.raises(DomainError, match="counts must be integers"):
                ShotHistogram(reg, counts, shots)
        for dtype in (np.int32, np.uint8, np.uint64):
            hist = ShotHistogram(reg, np.array([1, 2], dtype=dtype), 3)
            assert hist.counts.dtype == np.int64 and hist.counts.tolist() == [1, 2]

    def test_json_roundtrip(self):
        hist = ShotHistogram(RegisterSpec(2), np.array([1, 2, 3, 4]), 10)
        restored = ShotHistogram.from_json_dict(hist.to_json_dict())
        assert restored.reg.n == 2
        assert restored.shots == 10
        assert np.array_equal(restored.counts, hist.counts)

    def test_json_field_diagnostics(self):
        good = {"n": 2, "shots": 10, "counts": [1, 2, 3, 4]}
        for missing in ("n", "shots", "counts"):
            broken = {k: v for k, v in good.items() if k != missing}
            with pytest.raises(ConfigError, match=missing):
                ShotHistogram.from_json_dict(broken)
        with pytest.raises(ConfigError):
            ShotHistogram.from_json_dict({**good, "counts": [1, 2, 3]})
        with pytest.raises(ConfigError):
            ShotHistogram.from_json_dict({**good, "shots": "10"})
        # counts are int64, so a count must stay <= 2**63 - 1
        for big in (2**63, 2**64):
            with pytest.raises(ConfigError, match="count must be <="):
                ShotHistogram.from_json_dict({"n": 2, "shots": big, "counts": [big, 0, 0, 0]})
        # two maximal counts whose int64 sum wraps round to the stated 1 shot
        wrapped = {"n": 2, "shots": 1, "counts": [2**63 - 1, 2**63 - 1, 3, 0]}
        with pytest.raises(ConfigError, match=f"counts sum to {2**64 + 1}, expected shots = 1"):
            ShotHistogram.from_json_dict(wrapped)

    def test_count_sum_is_exact_past_int64(self):
        # the same wrapped counts, built directly rather than from JSON
        counts = np.array([2**63 - 1, 2**63 - 1, 3, 0])
        with pytest.raises(DomainError, match=f"counts sum to {2**64 + 1}, expected shots = 1"):
            ShotHistogram(RegisterSpec(2), counts, 1)
        # M * shots >= 2**63, so the sum is taken exactly and a true match passes
        hist = ShotHistogram(RegisterSpec(2), np.array([2**62, 2**62 - 1, 0, 0]), 2**63 - 1)
        assert hist.shots == 2**63 - 1

    def test_counts_are_not_shared_with_the_caller(self):
        # a view's later writes do not reach the histogram, and the caller's
        # own array stays writable; a sampled draw is kept, read-only
        reg = RegisterSpec(2)
        big = np.array([0, 3, 1, 0, 9, 9], dtype=np.int64)
        hist = ShotHistogram(reg, big[:4], 4)
        big[0] = 100
        assert hist.counts.tolist() == [0, 3, 1, 0]
        own = np.array([1, 1, 2, 0], dtype=np.int64)
        hist = ShotHistogram(reg, own, 4)
        assert own.flags.writeable and not hist.counts.flags.writeable
        own[0] = 7
        assert hist.counts.tolist() == [1, 1, 2, 0]
        sampled = sample_shots(OutcomeDistribution(reg, [0.25] * 4), 10, 1)
        assert not sampled.counts.flags.writeable
