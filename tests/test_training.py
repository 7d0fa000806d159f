import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_oracles
from uccfsim import training
from uccfsim.channel import ChannelRealization, subcarrier_gains
from uccfsim.topology import AssociationMap
from uccfsim.training import (PilotObservation, build_observation_matrix,
                              estimate_all, estimated_subcarrier_gains,
                              make_pilot_plan, mmse_estimate,
                              simulate_pilot_rx, tap_prior)


def naive_observation_matrix(plan, ue):
    """Entry-by-entry sum-over-elements construction used as an oracle."""
    N, tau_p = plan.num_subcarriers, plan.num_symbols
    L = plan.num_taps[ue]
    sub = list(plan.subcarrier_sets[ue])
    A = np.zeros((N * tau_p, L), dtype=complex)
    for i in range(tau_p):
        for n in range(N):
            for l in range(L):
                if n in sub:
                    pilot = plan.pilot_blocks[ue][sub.index(n), i]
                    A[i * N + n, l] = pilot * np.exp(-2j * np.pi * n * l / N)
    return np.sqrt(plan.pilot_power[ue]) * A


EPS = np.finfo(float).eps
# a backward-stable Hermitian solve of size n loses about n * cond * eps;
# the systems in these tests have n <= 16
COND_FACTOR = 1e3


def solve_cond(matrix):
    """Condition number of a Hermitian system over the eigenvalues that
    ``_guarded_inverse`` keeps."""
    lam = np.linalg.eigvalsh(matrix)
    kept = lam[lam > training._JITTER * lam.sum() / len(lam)]
    return kept.max() / kept.min()


def estimation_cond(obs, plan, group, priors):
    """The larger condition number of a group's N tau_p bracket and its
    sum L Gram system."""
    A = np.hstack([build_observation_matrix(plan, k) for k in group])
    s = np.sqrt(np.concatenate([np.diag(priors[k]).real for k in group]))
    level = obs.noise_var + obs.interference_var
    B = A * s
    return max(solve_cond(B @ B.conj().T + level * np.eye(len(B))),
               solve_cond(B.conj().T @ B + level * np.eye(len(s))))


def assert_within_cond(got, want, cond):
    err = np.linalg.norm(got - want)
    assert err <= COND_FACTOR * cond * EPS * np.linalg.norm(want), (err, cond)


def scaled(obs, gain):
    """The observation received through a complex gain: its samples scale
    by the gain and its noise and interference levels by |gain|^2."""
    return PilotObservation(matrix=gain * obs.matrix,
                            noise_var=abs(gain) ** 2 * obs.noise_var,
                            interference_var=abs(gain) ** 2
                            * obs.interference_var)


def make_channels(gains, taps, num_subcarriers):
    gains = np.asarray(gains, dtype=float)
    taps = np.asarray(taps, dtype=complex)
    freq = subcarrier_gains(taps, gains[..., None], num_subcarriers)
    M, K, L = taps.shape
    return ChannelRealization(gains=gains, taps=taps, freq=freq,
                              num_taps=np.full((M, K), L))


class TestObservationMatrix:
    def test_single_symbol_allones_pilot_single_tap(self):
        plan = make_pilot_plan(1, num_subcarriers=4, num_symbols=1, num_taps=1,
                               roots=[0])
        A = build_observation_matrix(plan, 0)
        assert np.allclose(A, np.ones((4, 1)))

    def test_linear_in_sqrt_power(self):
        p1 = make_pilot_plan(1, 8, 2, 2, pilot_power=1.0)
        p2 = make_pilot_plan(1, 8, 2, 2, pilot_power=2.0)
        assert np.allclose(build_observation_matrix(p2, 0),
                           np.sqrt(2) * build_observation_matrix(p1, 0))

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            sets = [np.sort(rng.choice(8, size=5, replace=False)),
                    np.arange(8)]
            plan = make_pilot_plan(2, 8, 3, num_taps=[3, 2],
                                   pilot_power=[0.7, 1.3],
                                   subcarrier_sets=sets,
                                   roots=[int(rng.integers(8)), 5])
            for k in range(2):
                A = build_observation_matrix(plan, k)
                B = naive_observation_matrix(plan, k)
                assert np.allclose(A, B)
                assert np.allclose(A.conj().T @ A, B.conj().T @ B)

    def test_gram_identity_for_full_band_pilots(self):
        # unit-modulus pilots on all N subcarriers: A^H A = P * tau_p * N * I
        plan = make_pilot_plan(1, 8, 2, 3, pilot_power=0.5)
        A = build_observation_matrix(plan, 0)
        assert np.allclose(A.conj().T @ A, 0.5 * 2 * 8 * np.eye(3))


class TestPilotReception:
    def test_noiseless_matches_formula(self):
        plan = make_pilot_plan(1, 8, 2, 2)
        ch = make_channels([[1.0]], [[[0.8 + 0.1j, -0.3j]]], 8)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.0, rng=0,
                                interference_var=0.0)
        expect = ch.freq[0, 0][:, None] * plan.pilot_blocks[0]
        assert np.allclose(obs[0].matrix, expect)

    def test_vectorization_identity(self):
        plan = make_pilot_plan(2, 8, 2, 2, pilot_power=[1.0, 2.0])
        rng = np.random.default_rng(1)
        taps = (rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2)))
        ch = make_channels([[0.5, 1.5]], taps, 8)
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.0, rng=0,
                                interference_var=0.0)
        total = sum(build_observation_matrix(plan, k)
                    @ (np.sqrt(ch.gains[0, k]) * ch.taps[0, k])
                    for k in range(2))
        assert np.allclose(obs[0].vec, total)

    def test_empty_ap_sees_configured_noise(self):
        plan = make_pilot_plan(1, 8, 64, 1)
        ch = make_channels([[1.0], [1.0]], np.zeros((2, 1, 1)) + 1j * 0, 8)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=2)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.3, rng=5,
                                interference_var=0.2)
        var = np.mean(np.abs(obs[1].matrix) ** 2)
        assert var == pytest.approx(0.5, rel=0.1)

    def test_default_interference_is_nonassociated_power(self):
        plan = make_pilot_plan(2, 8, 1, 1, pilot_power=[2.0, 4.0])
        ch = make_channels([[0.5, 0.25]], np.ones((1, 2, 1)), 8)
        assoc = AssociationMap.from_ap_sets([[0], []], num_aps=1)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.0, rng=0)
        # UE 1 not associated: sigma_J^2 = P_1 * g_01 * N_1 / N = 4 * 0.25 * 1
        assert obs[0].interference_var == pytest.approx(1.0)


class TestMmseEstimate:
    def test_noiseless_orthogonal_recovers_taps(self):
        plan = make_pilot_plan(1, 8, 2, 3)
        rng = np.random.default_rng(7)
        taps = (rng.standard_normal((1, 1, 3)) + 1j * rng.standard_normal((1, 1, 3)))
        ch = make_channels([[0.8]], taps, 8)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.0, rng=0,
                                interference_var=0.0)
        priors = {0: tap_prior(0.8, 3)}
        est = mmse_estimate(obs[0], plan, [0], priors)[0]
        assert np.allclose(est, np.sqrt(0.8) * ch.taps[0, 0], atol=1e-8)

    def test_zero_prior_raises(self):
        plan = make_pilot_plan(1, 8, 1, 2)
        obs = PilotObservation(matrix=np.ones((8, 1), dtype=complex),
                               noise_var=0.1, interference_var=0.0)
        with pytest.raises(ValueError, match="ill-conditioned"):
            mmse_estimate(obs, plan, [0], {0: np.zeros((2, 2))})

    def test_unbiased_at_fixed_channel(self):
        plan = make_pilot_plan(1, 8, 2, 2, pilot_power=1.0)
        rng = np.random.default_rng(3)
        taps = (rng.standard_normal((1, 1, 2)) + 1j * rng.standard_normal((1, 1, 2)))
        ch = make_channels([[1.0]], taps, 8)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        priors = {0: tap_prior(1.0, 2)}
        noise_var = 0.5
        draws = np.empty((10**4, 2), dtype=complex)
        for i in range(draws.shape[0]):
            obs = simulate_pilot_rx(plan, ch, assoc, noise_var=noise_var,
                                    rng=rng, interference_var=0.0)
            draws[i] = mmse_estimate(obs[0], plan, [0], priors)[0]
        true = ch.taps[0, 0]
        # per-tap estimator noise std, then a 3-sigma band on the mean
        std = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - true) < 3 * (std + 1e-12))

    def test_mui_mode_beats_single_on_shared_pilots(self):
        # one root on partly overlapping bands (UE 0 on subcarriers 0-5,
        # UE 1 on 2-7): contaminated pilots that suppression can separate
        overlap = [np.arange(0, 6), np.arange(2, 8)]
        plan = make_pilot_plan(2, 8, 2, 2, roots=[0, 0],
                               subcarrier_sets=overlap)
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        rng = np.random.default_rng(11)
        err_single, err_mui = 0.0, 0.0
        trials = 10**3
        for _ in range(trials):
            taps = (rng.standard_normal((1, 2, 2))
                    + 1j * rng.standard_normal((1, 2, 2))) / np.sqrt(2 * 2)
            ch = make_channels([[1.0, 1.0]], taps, 8)
            obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.05, rng=rng,
                                    interference_var=0.0)
            priors = {k: tap_prior(1.0, 2) for k in range(2)}
            for k in range(2):
                truth = np.sqrt(ch.gains[0, k]) * ch.taps[0, k]
                e_s = mmse_estimate(obs[0], plan, [k], priors,
                                    mode="single")[k]
                e_m = mmse_estimate(obs[0], plan, [0, 1], priors,
                                    mode="mui_suppress")[k]
                err_single += np.sum(np.abs(e_s - truth) ** 2)
                err_mui += np.sum(np.abs(e_m - truth) ** 2)
        assert err_mui < err_single
        assert err_mui < 0.5 * err_single

    def test_modes_agree_on_identical_observation_matrices(self):
        # identical roots on the same band: only h_0 + h_1 is observable,
        # and after unbiasing both modes return it for each UE
        plan = make_pilot_plan(2, 8, 2, 2, roots=[0, 0])
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        rng = np.random.default_rng(11)
        taps = (rng.standard_normal((1, 2, 2))
                + 1j * rng.standard_normal((1, 2, 2))) / 2.0
        ch = make_channels([[1.0, 1.0]], taps, 8)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.05, rng=rng,
                                interference_var=0.0)[0]
        priors = {k: tap_prior(1.0, 2) for k in range(2)}
        joint = mmse_estimate(obs, plan, [0, 1], priors, mode="mui_suppress")
        cond = estimation_cond(obs, plan, [0, 1], priors)
        for k in range(2):
            alone = mmse_estimate(obs, plan, [k], priors, mode="single")[k]
            assert_within_cond(joint[k], alone, cond)

    @pytest.mark.parametrize("power", [1.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("mode", ["single", "mui_suppress"])
    def test_orthogonal_pilots_give_the_matched_filter(self, mode, power):
        # roots 0 and 3 over two symbols make the UEs' observation matrices
        # orthogonal, so the unbiased estimate is A_k^H y / diag(A_k^H A_k)
        plan = make_pilot_plan(2, 8, 2, 2, pilot_power=power, roots=[0, 3])
        rng = np.random.default_rng(17)
        taps = (rng.standard_normal((1, 2, 2))
                + 1j * rng.standard_normal((1, 2, 2))) / 2.0
        # gains of an AP tens of metres away, against noise 1e-9: the
        # bracket's noise eigenvalues stay above the truncation floor
        ch = make_channels([[1e-4, 5e-5]], taps, 8)
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=1e-9, rng=rng,
                                interference_var=0.0)[0]
        priors = {k: tap_prior(ch.gains[0, k], 2) for k in range(2)}
        got = mmse_estimate(obs, plan, [0, 1], priors, mode=mode)
        for k in range(2):
            A = build_observation_matrix(plan, k)
            exact = A.conj().T @ obs.vec / np.sum(np.abs(A) ** 2, axis=0)
            err = np.linalg.norm(got[k] - exact) / np.linalg.norm(exact)
            assert err <= 1e-12

    def test_non_diagonal_prior_raises(self):
        plan = make_pilot_plan(1, 8, 1, 2)
        obs = PilotObservation(matrix=np.ones((8, 1), dtype=complex),
                               noise_var=0.1, interference_var=0.0)
        prior = np.array([[0.5, 0.1], [0.1, 0.5]])
        with pytest.raises(ValueError, match="diagonal"):
            mmse_estimate(obs, plan, [0], {0: prior})

    def test_noiseless_contamination_is_the_pseudo_inverse_solution(self):
        # noiseless and rank-deficient: G = diag(s) B^+ with B = A diag(s)
        plan = make_pilot_plan(2, 8, 2, 2, roots=[0, 0])
        rng = np.random.default_rng(19)
        taps = (rng.standard_normal((1, 2, 2))
                + 1j * rng.standard_normal((1, 2, 2)))
        ch = make_channels([[1.0, 0.5]], taps, 8)
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.0, rng=0,
                                interference_var=0.0)[0]
        priors = {k: tap_prior(ch.gains[0, k], 2, 0.3) for k in range(2)}
        got = mmse_estimate(obs, plan, [0, 1], priors, mode="mui_suppress")
        A = np.hstack([build_observation_matrix(plan, k) for k in range(2)])
        s = np.sqrt(np.concatenate([np.diag(priors[k]) for k in range(2)]))
        G = s[:, None] * np.linalg.pinv(A * s)
        want = (G @ obs.vec) / np.einsum("ij,ji->i", G, A)
        assert np.allclose(np.concatenate([got[0], got[1]]), want,
                           rtol=1e-10, atol=0)

    def test_error_vanishes_with_noise(self):
        plan = make_pilot_plan(2, 16, 2, 2, roots=[0, 3])
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        rng = np.random.default_rng(21)
        taps = (rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2)))
        ch = make_channels([[1.0, 1.0]], taps, 16)
        errs = []
        for nv in (1e-2, 1e-6, 1e-10):
            obs = simulate_pilot_rx(plan, ch, assoc, noise_var=nv, rng=rng,
                                    interference_var=0.0)
            priors = {k: tap_prior(1.0, 2) for k in range(2)}
            est = mmse_estimate(obs[0], plan, [0, 1], priors,
                                mode="mui_suppress")[0]
            errs.append(np.linalg.norm(est - np.sqrt(1.0) * ch.taps[0, 0]))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-4

    def test_estimated_frequency_gains_match_truth_noiseless(self):
        plan = make_pilot_plan(2, 8, 2, 2, roots=[0, 3])
        rng = np.random.default_rng(2)
        taps = (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        ch = make_channels([[1.0, 0.5], [0.25, 2.0]], taps, 8)
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.0, rng=0,
                                interference_var=0.0)
        est = estimate_all(obs, plan, assoc, ch, mode="mui_suppress")
        hf = estimated_subcarrier_gains(est, ch)
        assert np.allclose(hf, ch.freq, atol=1e-7)


class TestAgainstPerLinkOracle:
    """The Gram-form estimator against the two bracket-form oracles: the
    per-link ``dense_oracles.mmse_estimate`` and the per-AP
    ``dense_oracles.bracket_mmse_estimate``, which agree bit for bit.
    Observation matrices are bit-equal; estimates agree within a
    cond * eps bound, since at high pilot SNR the N tau_p bracket is the
    worse-conditioned side."""

    @staticmethod
    def scene(roots, seed):
        # AP 0 serves no UE, AP 1 one UE, AP 2 all three
        rng = np.random.default_rng(seed)
        sets = [np.arange(8), np.sort(rng.choice(8, size=5, replace=False)),
                np.arange(8)]
        plan = make_pilot_plan(3, 8, 2, num_taps=[2, 3, 2],
                               pilot_power=[1.0, 0.6, 1.4],
                               subcarrier_sets=sets, roots=roots)
        taps = (rng.standard_normal((3, 3, 3))
                + 1j * rng.standard_normal((3, 3, 3)))
        ch = make_channels(rng.uniform(0.2, 2.0, (3, 3)), taps, 8)
        assoc = AssociationMap.from_ap_sets([[2], [1, 2], [2]], num_aps=3)
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var=0.05, rng=rng)
        return plan, ch, assoc, obs, rng

    @pytest.mark.parametrize("roots", [[0, 3, 5], [0, 0, 3], [1, 1, 1]])
    @pytest.mark.parametrize("mode", ["single", "mui_suppress"])
    @pytest.mark.parametrize("gain", [1.0, 0.3 - 1.1j])
    def test_bit_equal_per_ap(self, roots, mode, gain):
        plan, ch, assoc, obs, rng = self.scene(roots, seed=sum(roots) + 40)
        for k in range(plan.num_ues):
            want = dense_oracles.observation_matrix(plan, k)
            assert np.array_equal(build_observation_matrix(plan, k), want)
            assert np.array_equal(plan.observation_matrices[k], want)
        for m, ues in enumerate(assoc.ue_sets):
            rx = scaled(obs[m], gain) if gain != 1.0 else obs[m]
            priors = {k: tap_prior(ch.gains[m, k], plan.num_taps[k], 0.3)
                      for k in ues}
            got = mmse_estimate(rx, plan, ues, priors, mode=mode)
            assert list(got) == list(ues)
            per_ap = dense_oracles.bracket_mmse_estimate(rx, plan, ues,
                                                         priors, mode=mode)
            for k in ues:
                per_link = dense_oracles.mmse_estimate(
                    rx, plan, k, priors, mode=mode, coestimated=ues)
                assert np.array_equal(per_ap[k], per_link)
                cond = estimation_cond(
                    rx, plan, ues if mode == "mui_suppress" else [k], priors)
                assert_within_cond(got[k], per_link, cond)

    @pytest.mark.parametrize("mode", ["single", "mui_suppress"])
    def test_estimate_all_bit_equal_and_link_ordered(self, mode):
        plan, ch, assoc, obs, _ = self.scene([0, 0, 3], seed=9)
        got = estimate_all(obs, plan, assoc, ch, mode=mode, decay=0.2)
        links = [(m, k) for m, ues in enumerate(assoc.ue_sets) for k in ues]
        assert list(got) == links
        for m, k in links:
            ues = assoc.ue_sets[m]
            priors = {l: tap_prior(ch.gains[m, l], plan.num_taps[l], 0.2)
                      for l in ues}
            want = dense_oracles.bracket_mmse_estimate(obs[m], plan, ues,
                                                       priors, mode=mode)
            group = ues if mode == "mui_suppress" else [k]
            cond = estimation_cond(obs[m], plan, group, priors)
            assert_within_cond(got[(m, k)], want[k], cond)

    @pytest.mark.parametrize("mode", ["single", "mui_suppress"])
    def test_subcarrier_gains_bit_equal_per_link_fft(self, mode):
        # UEs 0 and 2 carry 2 taps and UE 1 carries 3
        plan, ch, assoc, obs, _ = self.scene([0, 3, 5], seed=13)
        est = estimate_all(obs, plan, assoc, ch, mode=mode)
        assert sorted({len(t) for t in est.values()}) == [2, 3]
        want = dense_oracles.estimated_subcarrier_gains(est, ch)
        assert np.array_equal(estimated_subcarrier_gains(est, ch),
                              want)
        assert not want[0].any()            # AP 0 estimates no link

    def test_subcarrier_gains_of_random_tap_counts(self):
        rng = np.random.default_rng(31)
        for M, K, N in [(3, 4, 8), (5, 2, 1), (2, 6, 64)]:
            ch = make_channels(np.ones((M, K)), np.zeros((M, K, 1)), N)
            est = {}
            for m, k in zip(*np.nonzero(rng.random((M, K)) < 0.7)):
                L = rng.integers(1, N + 1)
                est[(int(m), int(k))] = (rng.standard_normal(L) + 1j
                                         * rng.standard_normal(L))
            assert np.array_equal(
                estimated_subcarrier_gains(est, ch),
                dense_oracles.estimated_subcarrier_gains(est, ch))
        est[(0, 0)] = np.ones(N + 1)
        with pytest.raises(ValueError, match="longer than symbol"):
            estimated_subcarrier_gains(est, ch)

    def test_subcarrier_gains_of_no_estimates_are_zero(self):
        _, ch, _, _, _ = self.scene([0, 3, 5], seed=2)
        hf = estimated_subcarrier_gains({}, ch)
        assert np.array_equal(hf, dense_oracles.estimated_subcarrier_gains(
            {}, ch))
        assert hf.shape == ch.freq.shape and hf.dtype == complex
        assert not hf.any()

    def test_observation_matrices_built_once_per_ue(self, monkeypatch):
        plan, ch, assoc, obs, _ = self.scene([0, 3, 5], seed=5)
        calls = []
        real = training.build_observation_matrix

        def spy(plan, ue):
            calls.append(ue)
            return real(plan, ue)

        monkeypatch.setattr(training, "build_observation_matrix", spy)
        for mode in ("mui_suppress", "single"):
            estimate_all(obs, plan, assoc, ch, mode=mode)
        assert sorted(calls) == [0, 1, 2]
        assert not plan.observation_matrices[0].flags.writeable

    def test_no_ues_no_estimates(self):
        plan, _, _, obs, _ = self.scene([0, 3, 5], seed=2)
        assert mmse_estimate(obs[0], plan, [], {}, mode="mui_suppress") == {}

    def test_one_inverse_per_ap_when_suppressing(self, monkeypatch):
        plan, ch, assoc, obs, _ = self.scene([0, 3, 5], seed=5)
        calls = []
        real = training._guarded_inverse

        def spy(bracket):
            calls.append(bracket)
            return real(bracket)

        monkeypatch.setattr(training, "_guarded_inverse", spy)
        counts = {}
        for mode in ("mui_suppress", "single"):
            calls.clear()
            estimate_all(obs, plan, assoc, ch, mode=mode)
            counts[mode] = len(calls)
        # two APs serve UEs, over four links
        assert counts == {"mui_suppress": 2, "single": 4}


def test_more_taps_than_pilot_observations_solve_the_bracket(monkeypatch):
    # N 4, tau_p 2 and three UEs with 3 taps each: a joint group has
    # sum L = 9 taps but only N tau_p = 8 observations
    plan = make_pilot_plan(3, 4, 2, 3, pilot_power=2.0)
    rng = np.random.default_rng(21)
    gains = rng.uniform(0.2, 2.0, (1, 3))
    taps = rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))
    ch = make_channels(gains, taps, 4)
    assoc = AssociationMap.from_ap_sets([[0]] * 3, num_aps=1)
    priors = {k: tap_prior(gains[0, k], 3, 0.5) for k in range(3)}
    sizes = []
    real = training._guarded_inverse

    def recording(matrix):
        sizes.append(len(matrix))
        return real(matrix)

    for noise_var in (1e-3, 1.0):
        obs = simulate_pilot_rx(plan, ch, assoc, noise_var, rng,
                                interference_var=0.0)[0]
        for mode in ("single", "mui_suppress"):
            sizes.clear()
            monkeypatch.setattr(training, "_guarded_inverse", recording)
            got = mmse_estimate(obs, plan, [0, 1, 2], priors, mode=mode)
            monkeypatch.undo()
            # one 3 x 3 Gram system per UE alone, the 8 x 8 bracket jointly
            assert sizes == ([3, 3, 3] if mode == "single" else [8])
            want = dense_oracles.bracket_mmse_estimate(obs, plan, [0, 1, 2],
                                                       priors, mode=mode)
            for k in range(3):
                group = [0, 1, 2] if mode == "mui_suppress" else [k]
                assert_within_cond(got[k], want[k],
                                   estimation_cond(obs, plan, group, priors))


@st.composite
def estimation_cases(draw):
    """One AP observation of a random pilot plan, drawn with its priors."""
    N = draw(st.sampled_from([4, 8]))
    K = draw(st.integers(1, 3))
    sets = [sorted(draw(st.lists(st.integers(0, N - 1), min_size=2,
                                 max_size=N, unique=True)))
            for _ in range(K)]
    num_taps = [draw(st.integers(1, min(3, len(sub)))) for sub in sets]
    roots = ([draw(st.integers(0, 7))] * K if draw(st.booleans())
             else draw(st.lists(st.integers(0, 7), min_size=K, max_size=K,
                                unique=True)))
    plan = make_pilot_plan(K, N, draw(st.integers(1, 2)), num_taps,
                           pilot_power=draw(st.floats(0.1, 100.0)),
                           subcarrier_sets=sets, roots=roots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = rng.uniform(0.2, 2.0, (1, K))
    taps = (rng.standard_normal((1, K, max(num_taps)))
            + 1j * rng.standard_normal((1, K, max(num_taps))))
    for k, L in enumerate(num_taps):
        taps[0, k, L:] = 0.0
    ch = make_channels(gains, taps, N)
    assoc = AssociationMap.from_ap_sets([[0]] * K, num_aps=1)
    obs = simulate_pilot_rx(plan, ch, assoc, rng=rng, interference_var=0.0,
                            noise_var=draw(st.sampled_from([0.0, 1e-3, 1.0])))
    gain = draw(st.sampled_from([1.0, 0.3 - 1.1j]))
    obs = scaled(obs[0], gain) if gain != 1.0 else obs[0]
    decay = draw(st.floats(0.0, 1.0))
    priors = {k: tap_prior(gains[0, k], L, decay)
              for k, L in enumerate(num_taps)}
    return plan, obs, priors


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=estimation_cases(),
       mode=st.sampled_from(["single", "mui_suppress"]))
def test_gram_form_matches_the_bracket_oracle(case, mode):
    plan, obs, priors = case
    ues = list(range(plan.num_ues))
    got = mmse_estimate(obs, plan, ues, priors, mode=mode)
    want = dense_oracles.bracket_mmse_estimate(obs, plan, ues, priors,
                                               mode=mode)
    for k in ues:
        group = ues if mode == "mui_suppress" else [k]
        assert_within_cond(got[k], want[k],
                           estimation_cond(obs, plan, group, priors))
