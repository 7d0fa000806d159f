import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccfsim.alloc import allocate_subcarriers_greedy, subcarrier_metric
from uccfsim.downlink import (artificial_noise_direction, compute_a0,
                              distributed_directions,
                              distributed_ofdm_directions, dl_sinr_ofdm,
                              expected_ap_element_powers, receive_downlink,
                              received_power_split, secrecy_transmit,
                              tmmse_bracket_solve, tmmse_central_ofdm,
                              tmmse_scale)
from uccfsim.modulation import sum_rate
from uccfsim.topology import AssociationMap

import dense_oracles
from dense_oracles import (dist_transmit, stacked_dl_channel,
                           stacked_precoders)


def random_channels(rng, M, K):
    return (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / np.sqrt(2)


def flat_precoders(h, noise_var, delta, assoc=None):
    """The (M, K) MMSE precoders of one subcarrier: tmmse_central_ofdm at
    N = 1 with every UE on it."""
    h = np.asarray(h, dtype=complex)
    K = h.shape[1]
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (K,))
    return tmmse_central_ofdm(h[:, :, None], [[0]] * K, noise_var,
                              delta[:, None], assoc)[0]


def flat_ap_powers(P):
    """Expected per-AP powers of (M, K) precoders: the element powers at
    N = 1."""
    return expected_ap_element_powers(P[None])[:, 0]


def flat_sinr(h, P, a0, noise_var):
    """Per-UE SINRs of (M, K) precoders on one subcarrier: dl_sinr_ofdm at
    N = 1."""
    K = P.shape[1]
    return np.concatenate(dl_sinr_ofdm(np.asarray(h)[:, :, None], P[None],
                                       [[0]] * K, a0, noise_var))


def all_served(K):
    return np.ones(K, dtype=bool)


class TestCentralSubcarrier:
    def test_scalar_case(self):
        h = 0.6 + 0.8j
        p = flat_precoders([[h]], noise_var=0.5, delta=[0.9])
        assert p[0, 0] == pytest.approx(np.sqrt(0.9) * np.conj(h) / (abs(h)**2 + 0.5))

    def test_defining_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = random_channels(rng, 4, 3)
            noise = 0.3
            delta = rng.uniform(0.1, 0.5, 3)
            P = flat_precoders(h, noise, delta)
            R = h.conj() @ h.T + noise * np.eye(4)
            rhs = h.conj() * np.sqrt(delta)
            assert np.linalg.norm(R @ P - rhs) / np.linalg.norm(rhs) < 1e-11

    def test_ul_dl_weight_equivalence(self):
        rng = np.random.default_rng(1)
        h = random_channels(rng, 4, 2)
        noise = 0.2
        delta = np.array([0.4, 0.6])
        P = flat_precoders(h, noise, delta)
        # receive MMSE weights of the dual uplink
        W = np.linalg.solve(h @ h.conj().T + noise * np.eye(4), h)
        assert np.allclose(P, W.conj() * np.sqrt(delta), atol=1e-12)

    def test_association_masks_channels(self):
        rng = np.random.default_rng(2)
        h = random_channels(rng, 3, 2)
        assoc = AssociationMap.from_ap_sets([[0, 1], [2]], num_aps=3)
        P = flat_precoders(h, 0.1, [0.5, 0.5], assoc=assoc)
        masked = h * assoc.zeta()
        expect = flat_precoders(masked, 0.1, [0.5, 0.5])
        assert np.allclose(P, expect)

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            flat_precoders([[1.0]], noise_var=0.0, delta=[1.0])


class TestCentralOfdm:
    def test_single_subcarrier_collapses(self):
        rng = np.random.default_rng(3)
        h = random_channels(rng, 3, 2)
        P_flat = np.linalg.solve(h.conj() @ h.T + 0.2 * np.eye(3),
                                 h.conj()) * np.sqrt([0.3, 0.7])
        P_ofdm = tmmse_central_ofdm(h[:, :, None], [[0], [0]], 0.2,
                                    np.array([[0.3], [0.7]]))
        for k in range(2):
            assert np.allclose(P_ofdm[0, :, k], P_flat[:, k], atol=1e-12)

    def test_blockwise_matches_per_subcarrier_solves(self):
        rng = np.random.default_rng(4)
        M, K, N = 3, 2, 4
        freq = (rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N)))
        sets = [np.arange(N), np.arange(N)]
        delta = rng.uniform(0.05, 0.2, size=(K, N))
        P = tmmse_central_ofdm(freq, sets, 0.4, delta)
        for n in range(N):
            flat = flat_precoders(freq[:, :, n], 0.4, delta[:, n])
            for k in range(K):
                got = P[n, :, k]
                assert np.allclose(got, flat[:, k], atol=1e-10)

    def test_defining_identity(self):
        rng = np.random.default_rng(5)
        M, K, N = 2, 2, 3
        freq = (rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N)))
        sets = [[0, 1], [1, 2]]
        delta = np.full((K, N), 0.1)
        P = tmmse_central_ofdm(freq, sets, 0.3, delta)
        bracket = 0.3 * np.eye(M * N, dtype=complex)
        for l in range(K):
            H = stacked_dl_channel(freq, l)
            mask = np.zeros(N)
            mask[sets[l]] = 1.0
            bracket += (H.conj() * mask) @ H.T
        for k, Pk in enumerate(stacked_precoders(P)):
            H = stacked_dl_channel(freq, k)
            rhs = (H.conj() * np.sqrt(delta[k]))[:, sets[k]]
            lhs = bracket @ Pk[:, sets[k]]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-11

    def test_one_bracket_solve_serves_every_power_split(self):
        # the bracket depends on the assignment, not on delta: one solve,
        # scaled per delta, gives the precoders bit for bit
        rng = np.random.default_rng(6)
        M, K, N = 3, 3, 5
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N)))
        sets = [[0, 1, 4], [1, 2], []]
        assoc = AssociationMap.from_ap_sets([[0, 1], [1, 2], [2]], num_aps=3)
        for zeta in (None, assoc):
            X, mask = tmmse_bracket_solve(freq, sets, 0.3, assoc=zeta)
            for _ in range(5):
                delta = rng.uniform(0.0, 0.2, size=(K, N))
                delta[rng.random((K, N)) < 0.2] = 0.0
                np.testing.assert_array_equal(
                    tmmse_scale(X, mask, delta),
                    tmmse_central_ofdm(freq, sets, 0.3, delta, assoc=zeta))


class TestAmplificationGain:
    def test_unity_when_binding(self):
        P = np.array([[np.sqrt(0.5)], [np.sqrt(0.5)]])   # one UE, two APs
        powers = flat_ap_powers(P)
        a0 = compute_a0(powers, p_max=0.5)
        assert a0 == pytest.approx(1.0)

    def test_binding_ap_dominates(self):
        a0 = compute_a0(np.array([0.5, 2.0]), p_max=1.0)
        assert a0 == pytest.approx(1.0 / np.sqrt(2.0))

    def test_scaling_law_on_symmetric_scene(self):
        rng = np.random.default_rng(6)
        h = random_channels(rng, 3, 2)
        P1 = flat_precoders(h, 0.2, [0.3, 0.3])
        P2 = flat_precoders(h, 0.2, [0.6, 0.6])
        a1 = compute_a0(flat_ap_powers(P1), 1.0)
        a2 = compute_a0(flat_ap_powers(P2), 1.0)
        # doubling every delta scales precoders by sqrt(2), the gain by 1/sqrt(2)
        assert a2 == pytest.approx(a1 / np.sqrt(2.0), rel=1e-10)
        g1 = flat_sinr(h, P1, a1, 0.2)
        g2 = flat_sinr(h, P2, a2, 0.2)
        assert np.allclose(g1, g2, rtol=1e-10)

    def test_every_constraint_met_one_tight(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            powers = rng.uniform(0.0, 3.0, size=4)
            caps = rng.uniform(0.5, 2.0, size=4)
            a0 = compute_a0(powers, caps)
            scaled = a0**2 * powers
            assert np.all(scaled <= caps + 1e-12)
            assert np.any(np.abs(scaled - caps) < 1e-9)

    def test_per_element_caps(self):
        elem = np.array([[0.1, 0.4], [0.2, 0.05]])
        a0 = compute_a0(elem.sum(axis=1), p_max=10.0,
                        element_powers=elem, element_max=0.2)
        assert a0 == pytest.approx(np.sqrt(0.2 / 0.4))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="nothing to transmit"):
            compute_a0(np.zeros(3), p_max=1.0)


class TestDlSinr:
    def test_single_ue_no_interference(self):
        rng = np.random.default_rng(8)
        h = random_channels(rng, 3, 1)
        P = flat_precoders(h, 0.1, [1.0])
        a0 = 2.0
        g = flat_sinr(h, P, a0, 0.1)
        expect = a0**2 * np.abs(h[:, 0] @ P[:, 0]) ** 2 / 0.1
        assert g[0] == pytest.approx(expect)

    def test_matches_empirical_ratio(self):
        rng = np.random.default_rng(9)
        h = random_channels(rng, 3, 2)
        P = flat_precoders(h, 0.2, [0.5, 0.5])
        a0 = compute_a0(flat_ap_powers(P), 1.0)
        g = flat_sinr(h, P, a0, 0.2)
        draws = 10**5
        from uccfsim.modulation import CONSTELLATIONS
        pts = CONSTELLATIONS["qpsk"]
        idx = rng.integers(0, 4, size=(draws, 2))
        x = pts[idx]
        rx = a0 * (x @ (h.T @ P).T)               # (draws, K receivers)
        for k in range(2):
            amp = a0 * (h[:, k] @ P[:, k])
            err = rx[:, k] - amp * x[:, k]
            noise = 0.2
            measured = np.abs(amp) ** 2 / (np.mean(np.abs(err) ** 2) + noise)
            assert abs(measured - g[k]) / g[k] < 0.05

    def test_sum_rate_values(self):
        assert sum_rate([np.array([3.0])]) == pytest.approx(2.0)
        assert sum_rate([np.array([0.0]), np.array([0.0])]) == 0.0

    def test_ofdm_equals_subcarrier_rate_for_single_symbol_ues(self):
        rng = np.random.default_rng(10)
        M, K = 3, 2
        freq = (rng.standard_normal((M, K, 1)) + 1j * rng.standard_normal((M, K, 1)))
        sets = [[0], [0]]
        delta = np.full((K, 1), 0.5)
        P = tmmse_central_ofdm(freq, sets, 0.2, delta)
        flat = dense_oracles.tmmse_central_ofdm(freq, sets, 0.2, delta)
        g_ofdm = dl_sinr_ofdm(freq, P, sets, 1.5, 0.2)
        g_flat = dense_oracles.dl_sinr_ofdm(freq, flat, sets, 1.5, 0.2)
        assert sum_rate(g_ofdm) == pytest.approx(sum_rate(g_flat), rel=1e-10)


class TestDistributed:
    def test_tzf_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            H = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
            P = distributed_directions(H, all_served(3), "tzf")
            assert np.linalg.norm(H.T @ P - np.eye(3)) < 1e-10

    def test_single_antenna_single_ue_is_mf_direction(self):
        h = np.array([[0.3 - 0.7j]])
        P = distributed_directions(h, all_served(1), "tzf")
        mf = distributed_directions(h, all_served(1), "mf")
        assert mf == pytest.approx(h.conj() / np.abs(h))
        cos = np.abs(np.vdot(P / np.linalg.norm(P), mf))
        assert cos == pytest.approx(1.0)

    def test_tzf_infeasible_cases(self):
        with pytest.raises(ValueError, match="TZF infeasible"):
            distributed_directions(np.ones((2, 3)), all_served(3), "tzf")
        H = np.ones((3, 2), dtype=complex)      # rank 1 < 2 served UEs
        with pytest.raises(ValueError, match="TZF infeasible"):
            distributed_directions(H, all_served(2), "tzf")

    def test_regmmse_limits(self):
        rng = np.random.default_rng(12)
        H = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        served = all_served(2)
        assert np.allclose(distributed_directions(H, served, "regmmse", 0.0),
                           distributed_directions(H, served, "tzf"))
        big = 1e8 * np.linalg.norm(H) ** 2
        P_inf = distributed_directions(H, served, "regmmse", big)
        P_inf = P_inf / np.linalg.norm(P_inf, axis=0)
        mf = distributed_directions(H, served, "mf")
        for j in range(2):
            cos = np.abs(np.vdot(P_inf[:, j], mf[:, j]))
            assert cos > 1.0 - 1e-6

    def test_regmmse_zero_with_rank_deficiency_raises(self):
        H = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            distributed_directions(H, all_served(2), "regmmse", 0.0)

    def test_mf_received_terms(self):
        # one AP, one UE: desired amplitude is sqrt(P) |h|, phase aligned
        h = np.array([[[1.2 - 0.9j]]])          # (M, U, K)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        dirs = distributed_directions(h, assoc.zeta() > 0, method="mf")
        powers = np.array([[2.0]])
        split = received_power_split(h, assoc, dirs, powers, 0)
        assert split["desired_amplitude"] == pytest.approx(
            np.sqrt(2.0) * np.abs(h[0, 0, 0]))
        assert split["co_associated"] == pytest.approx(0.0)

    def test_mf_coassociated_interference_nonzero(self):
        rng = np.random.default_rng(13)
        h = (rng.standard_normal((1, 1, 2)) + 1j * rng.standard_normal((1, 1, 2)))
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        dirs = distributed_directions(h, assoc.zeta() > 0, method="mf")
        powers = np.ones((1, 2))
        split = received_power_split(h, assoc, dirs, powers, 0)
        assert split["co_associated"] > 1e-6

    def test_empty_ap_sends_nothing(self):
        h = np.ones((2, 1, 1), dtype=complex)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=2)
        dirs = distributed_directions(h, assoc.zeta() > 0, method="mf")
        s = dist_transmit(dirs, np.ones((2, 1)), np.array([1.0 + 0j]))
        assert np.all(s[1] == 0)

    def test_tzf_kills_co_associated_interference_only(self):
        rng = np.random.default_rng(14)
        # AP 0: 3 antennas serving UEs 0, 1; AP 1: far AP serving UE 2
        h = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
        assoc = AssociationMap.from_ap_sets([[0], [0], [1]], num_aps=2)
        dirs = distributed_directions(h, assoc.zeta() > 0, method="tzf")
        powers = np.full((2, 3), 0.5)
        split = received_power_split(h, assoc, dirs, powers, 0)
        assert split["co_associated"] < 1e-20 * split["desired"]
        assert split["cross_ap"] > 1e-8

    @pytest.mark.parametrize("method", ["mf", "tzf"])
    def test_power_split_adds_up_to_the_mean_received_power(self, method):
        # stream 0 is served by both APs: its two copies add coherently
        rng = np.random.default_rng(16)
        h = (rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [0], [1]], num_aps=2)
        dirs = distributed_directions(h, assoc.zeta() > 0, method=method)
        powers = np.array([[0.3, 0.7, 0.0], [0.6, 0.0, 0.4]])
        # every BPSK symbol vector, equally likely: E|y_k|^2 exactly, and
        # stream l's received amplitude E[y_k x_l]
        x = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        y = np.array([receive_downlink(h, dist_transmit(dirs, powers, s))
                      for s in x])
        for k, shared in ((0, [1, 2]), (1, [0]), (2, [0])):
            split = received_power_split(h, assoc, dirs, powers, k)
            stream = np.abs(y[:, k] @ x / len(x)) ** 2
            total = split["desired"] + split["co_associated"] + split["cross_ap"]
            assert total == pytest.approx(np.mean(np.abs(y[:, k]) ** 2),
                                          rel=1e-12)
            assert split["desired"] == pytest.approx(stream[k], rel=1e-12)
            assert split["co_associated"] == pytest.approx(
                stream[shared].sum(), rel=1e-12, abs=1e-30)
            assert split["cross_ap"] == pytest.approx(
                stream.sum() - stream[k] - stream[shared].sum(), rel=1e-9,
                abs=1e-12)

    def test_tzf_reception_matches_structure(self):
        # co-associated-only scene: y_k = sum over serving APs of sqrt(P) x
        rng = np.random.default_rng(15)
        h = (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        dirs = distributed_directions(h, assoc.zeta() > 0, method="tzf")
        powers = np.array([[0.4, 0.6], [0.9, 0.1]])
        x = np.array([1.0 + 0j, -1.0 + 0j])
        y = receive_downlink(h, dist_transmit(dirs, powers, x))
        expect = np.array([(np.sqrt(0.4) + np.sqrt(0.9)) * x[0],
                           (np.sqrt(0.6) + np.sqrt(0.1)) * x[1]])
        assert np.allclose(y, expect, atol=1e-10)


def random_stacks(seed, lead, U, K, density=0.6):
    """(lead..., U, K) channels at a random scale and a random (lead..., K)
    served mask."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (U, K)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.uniform(-8, 2)
    return rng, h, rng.random(tuple(lead) + (K,)) < density


def raised(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


STACKS = dict(seed=st.integers(0, 2**32 - 1),
              lead=st.lists(st.integers(1, 4), max_size=2),
              U=st.integers(1, 4), K=st.integers(1, 6))


class TestAgainstLoopOracle:
    """The batched solve against the per-stack loop it replaced,
    ``dense_oracles.distributed_directions``."""

    @settings(max_examples=300, deadline=None)
    @given(**STACKS, one_ue=st.booleans(),
           method=st.sampled_from(["mf", "tzf", "regmmse"]),
           reg=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    def test_matches_the_loop_oracle(self, seed, lead, U, K, one_ue, method,
                                     reg):
        _, h, served = random_stacks(seed, lead, U, K)
        if one_ue:
            served &= np.cumsum(served, axis=-1) == 1
        reg *= np.mean(np.abs(h)) ** 2
        got = raised(distributed_directions, h, served, method, reg)
        want = raised(dense_oracles.distributed_directions, h, served,
                      method, reg)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        elif one_ue and U == 1:
            # single-antenna APs with at most one UE each: the engine's case
            np.testing.assert_array_equal(got, want)
        else:
            # 1e-12 relative up to a condition number of 100 of the
            # served Gram block, growing with it beyond
            for idx in np.ndindex(served.shape[:-1]):
                H = h[idx][:, served[idx]]
                cond = 1.0 if method == "mf" or not H.size else np.linalg.cond(
                    H.T @ H.conj() + (method == "regmmse") * reg
                    * np.eye(H.shape[1]))
                err = np.linalg.norm(got[idx] - want[idx])
                assert err <= 1e-14 * max(cond, 100.0) * np.linalg.norm(
                    want[idx]), (err, cond)

    @settings(max_examples=300, deadline=None)
    @given(**STACKS, fault=st.sampled_from(
        ["few antennas", "repeated column", "zero column", "no reg",
         "negative reg", "unknown method"]),
           density=st.sampled_from([0.1, 0.6]))
    def test_raises_as_the_loop_oracle(self, seed, lead, U, K, fault,
                                       density):
        rng, h, served = random_stacks(seed, lead, U, K + U + 1, density)
        # one stack has the fault; a stack drawn before it may raise first
        idx = tuple(int(rng.integers(n)) for n in lead)
        method, reg = "tzf", None
        if fault == "few antennas":
            served[idx][: U + 1] = True
            method, reg = rng.choice(["tzf", "regmmse"]), 0.0
        elif fault in ("repeated column", "zero column"):
            served[idx][:2] = True
            h[idx][:, 1] = h[idx][:, 0] if fault == "repeated column" else 0.0
        else:
            served[idx][0] = True
            method, reg = {"no reg": ("regmmse", None),
                           "negative reg": ("regmmse", -1e-3),
                           "unknown method": ("zf", 1.0)}[fault]
        got = raised(distributed_directions, h, served, method, reg)
        want = raised(dense_oracles.distributed_directions, h, served,
                      method, reg)
        assert isinstance(want, str) and got == want

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_the_first_infeasible_stack_names_the_error(self, order):
        # two-antenna stacks: one serves two UEs with equal channels, the
        # other three UEs
        rank = np.ones((2, 3), dtype=complex)
        few = np.random.default_rng(3).standard_normal((2, 3)) + 0j
        h = np.stack([rank, few])[list(order)]
        served = np.array([[True, True, False], [True, True, True]])[
            list(order)]
        want = raised(dense_oracles.distributed_directions, h, served, "tzf")
        assert want == "TZF infeasible: " + (
            "rank-deficient local channels" if order[0] == 0
            else "fewer antennas than served UEs")
        assert raised(distributed_directions, h, served, "tzf") == want

    @settings(max_examples=200, deadline=None)
    @given(**STACKS)
    def test_mf_names_and_zeroes_dead_links(self, seed, lead, U, K):
        rng, h, served = random_stacks(seed, lead, U, K)
        served.flat[0] = True
        dead = served & (rng.random(served.shape) < 0.3)
        dead.flat[0] = True
        h *= ~dead[..., None, :]
        with pytest.warns(UserWarning, match="zero channel") as record:
            got = distributed_directions(h, served, "mf")
        message = str(record[0].message)
        for link in np.argwhere(dead):
            assert str(tuple(map(int, link))) in message
        assert np.all(np.swapaxes(got, -1, -2)[dead] == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            want = dense_oracles.distributed_directions(h, served, "mf")
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), U=st.integers(1, 4),
           extra=st.integers(0, 2), scale=st.sampled_from([1e-6, 1e-12]))
    def test_tzf_rank_check_is_scale_invariant(self, seed, U, extra, scale):
        # U served UEs of U + extra: the square case is the worst conditioned
        rng = np.random.default_rng(seed)
        H = (rng.standard_normal((U, U + extra))
             + 1j * rng.standard_normal((U, U + extra)))
        served = np.arange(U + extra) < U
        P = distributed_directions(scale * H, served, "tzf")
        effective = scale * H.T @ P
        unit = np.linalg.cond(H[:, :U]) ** 2 * 1e-13
        assert np.allclose(effective[:U, :U], np.eye(U), rtol=0, atol=unit)
        assert np.all(P[:, U:] == 0)


def random_plan(rng, M, K, N, demand, max_aps=2):
    """OFDM channels, an association and a greedy exclusive assignment."""
    freq = (rng.standard_normal((M, K, N))
            + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
    assoc = AssociationMap.from_ap_sets(
        [rng.choice(M, size=rng.integers(1, max_aps + 1), replace=False)
         for _ in range(K)], num_aps=M)
    subs = allocate_subcarriers_greedy(subcarrier_metric(freq, assoc), demand)
    return freq, assoc, subs


class TestDistributedOfdm:
    def test_slices_are_the_subcarrier_directions(self):
        rng = np.random.default_rng(31)
        freq, assoc, subs = random_plan(rng, 5, 3, 8, 2)
        for method in ("mf", "tzf", "regmmse"):
            X, mask = distributed_ofdm_directions(freq, subs, assoc, method,
                                                  reg=0.1)
            _, want_mask = tmmse_bracket_solve(freq, subs, 1.0, assoc)
            assert np.array_equal(mask, want_mask)
            for n in range(8):
                on_n = [k for k in range(3) if mask[n, k]]
                want = np.zeros((5, 3), dtype=complex)
                if on_n:
                    sub_assoc = AssociationMap.from_ap_sets(
                        [assoc.ap_sets[k] if k in on_n else ()
                         for k in range(3)], num_aps=5)
                    want = dense_oracles.distributed_directions(
                        freq[:, None, :, n], sub_assoc.zeta() > 0, method,
                        reg=0.1)[:, 0]
                assert np.array_equal(X[n], want)
                # a UE's column is zero off its subcarriers and its APs
                assert np.all(X[n][:, mask[n] == 0] == 0)
                assert np.all(X[n][assoc.zeta() == 0] == 0)

    def test_large_reg_regmmse_gives_mf_directions(self):
        """Every UE on every subcarrier, so APs serve several UEs at once;
        each link's regularized direction is a positive multiple of MF."""
        rng = np.random.default_rng(32)
        for _ in range(20):
            freq, assoc, _ = random_plan(rng, 4, 3, 6, 0, max_aps=3)
            subs = [np.arange(6)] * 3
            mf, mask = distributed_ofdm_directions(freq, subs, assoc, "mf")
            big = 1e8 * np.max(np.abs(freq)) ** 2
            reg, _ = distributed_ofdm_directions(freq, subs, assoc, "regmmse",
                                                 reg=big)
            served = mf != 0
            assert np.array_equal(served, reg != 0)
            ratio = reg[served] / mf[served]
            assert np.all(ratio.real > 0)
            assert np.max(np.abs(ratio.imag / ratio.real)) < 1e-9

    def test_tzf_gives_unit_gain_per_ap_and_no_interference(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            freq, assoc, subs = random_plan(rng, 6, 4, 8, 2, max_aps=3)
            X, mask = distributed_ofdm_directions(freq, subs, assoc, "tzf")
            # effective[n, k, l]: UE k hears stream l through h_kn^T x_ln
            effective = np.einsum("mkn,nml->nkl", freq, X)
            for k, s in enumerate(subs):
                for n in s:
                    # each serving AP contributes a unit gain
                    gains = freq[:, k, n] * X[n, :, k]
                    assert np.allclose(gains[list(assoc.ap_sets[k])], 1.0,
                                       rtol=0, atol=1e-12)
                    assert effective[n, k, k] == pytest.approx(
                        len(assoc.ap_sets[k]), abs=1e-12)
                    others = np.delete(effective[n, k], k)
                    assert np.all(others == 0)
            delta = mask.T / mask.sum()
            P = tmmse_scale(X, mask, delta)
            sinrs = dl_sinr_ofdm(freq, P, subs, 1.0, 0.5)
            for k, s in enumerate(subs):
                want = len(assoc.ap_sets[k]) ** 2 * delta[k, s] / 0.5
                assert np.allclose(sinrs[k], want, rtol=1e-12)


class TestSecrecy:
    def test_noise_direction_orthogonal(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            h = random_channels(rng, 4, 2)
            p = artificial_noise_direction(h, rng)
            assert np.linalg.norm(p) == pytest.approx(1.0)
            assert np.max(np.abs(h.T @ p)) < 1e-12

    def test_needs_more_aps_than_ues(self):
        with pytest.raises(ValueError, match="null space"):
            artificial_noise_direction(np.ones((2, 2)), 0)

    def test_full_split_recovers_baseline(self):
        rng = np.random.default_rng(17)
        h = random_channels(rng, 4, 2)
        P = flat_precoders(h, 0.1, [0.5, 0.5])
        p_i = artificial_noise_direction(h, rng)
        x = np.array([1.0 + 0j, 0.0 + 1j])
        s = secrecy_transmit(P, p_i, 1.0, x, noise_symbol=0.7 + 0.1j, a0=1.3)
        assert np.allclose(s, 1.3 * (P @ x), atol=1e-12)

    def test_reception_scales_exactly_with_split(self):
        rng = np.random.default_rng(18)
        h = random_channels(rng, 5, 3)
        P = flat_precoders(h, 0.2, [0.3, 0.3, 0.3])
        p_i = artificial_noise_direction(h, rng)
        x = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
        rho = 0.6
        base = receive_downlink(h, (P @ x)[:, None])
        sec = receive_downlink(h, secrecy_transmit(P, p_i, rho, x, 1.0 - 0.3j))
        assert np.allclose(sec, np.sqrt(rho) * base, atol=1e-12)

    def test_eavesdropper_hears_noise_ues_do_not(self):
        rng = np.random.default_rng(19)
        leaked = 0.0
        for _ in range(10**3):
            h = random_channels(rng, 4, 2)
            p_i = artificial_noise_direction(h, rng)
            h_e = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
            assert np.max(np.abs(h.T @ p_i)) < 1e-12
            leaked += np.abs(h_e @ p_i) ** 2
        assert leaked / 10**3 > 0.1


class TestElementPowers:
    def test_ofdm_element_power_accounting(self):
        rng = np.random.default_rng(20)
        M, K, N = 2, 2, 3
        freq = (rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N)))
        sets = [[0, 2], [1]]
        delta = np.full((K, N), 0.2)
        P = tmmse_central_ofdm(freq, sets, 0.3, delta)
        elem = expected_ap_element_powers(P)
        # direct accumulation over transmitted columns
        expect = np.zeros((M, N))
        for k, s in enumerate(sets):
            for n in s:
                for m in range(M):
                    expect[m, n] += np.abs(P[n, m, k]) ** 2
        assert np.allclose(elem, expect)
        a0 = compute_a0(elem.sum(axis=1), 1.0, element_powers=elem,
                        element_max=0.5)
        assert a0 > 0


class TestRegularizationContinuum:
    def test_noise_level_regularization_equals_central_mmse_form(self):
        # push-through identity: H*(H^T H* + sI)^-1 = (H* H^T + sI)^-1 H*,
        # so the locally regularized precoder at the true noise level is the
        # central MMSE solution over that AP's own channels
        rng = np.random.default_rng(21)
        for _ in range(20):
            H = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
            s = float(rng.uniform(0.05, 0.5))
            local = distributed_directions(H, all_served(2), "regmmse", s)
            central = np.linalg.solve(H.conj() @ H.T + s * np.eye(4), H.conj())
            assert np.allclose(local, central, atol=1e-12)

    def test_mmse_point_never_worse_than_both_endpoints(self):
        # sum-rate at reg = noise sits at or above the worse of the
        # zero-forcing (reg=0) and matched-filter (reg->inf) endpoints
        rng = np.random.default_rng(22)
        noise = 0.3
        for _ in range(100):
            M, U, K = 2, 3, 4
            h = (rng.standard_normal((M, U, K))
                 + 1j * rng.standard_normal((M, U, K))) / np.sqrt(2)
            assoc = AssociationMap.from_ap_sets([[0, 1]] * 2 + [[0]] + [[1]],
                                                num_aps=M)
            powers = np.zeros((M, K))
            for m in range(M):
                served = assoc.ue_sets[m]
                for k in served:
                    powers[m, k] = 1.0 / len(served)
            rates = []
            for reg in (0.0, noise, 1e8):
                dirs = distributed_directions(h, assoc.zeta() > 0,
                                              method="regmmse", reg=reg)
                norms = np.linalg.norm(dirs, axis=1, keepdims=True)
                dirs = np.divide(dirs, norms, out=np.zeros_like(dirs),
                                 where=norms > 0)
                r = 0.0
                for k in range(K):
                    sp = received_power_split(h, assoc, dirs, powers, k)
                    r += np.log2(1 + sp["desired"]
                                 / (sp["co_associated"] + sp["cross_ap"] + noise))
                rates.append(r)
            assert rates[1] >= min(rates[0], rates[2]) - 1e-9


class TestDeadLinks:
    def test_mf_skips_zero_channel_with_warning(self):
        import warnings as w
        h = np.zeros((1, 1, 2), dtype=complex)
        h[0, 0, 0] = 1.0 + 0j        # UE 1's channel is exactly zero
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        with pytest.warns(UserWarning, match="zero channel"):
            dirs = distributed_directions(h, assoc.zeta() > 0, method="mf")
        assert np.all(dirs[0, :, 1] == 0)
        assert np.linalg.norm(dirs[0, :, 0]) == pytest.approx(1.0)
