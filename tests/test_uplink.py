from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from uccfsim.modulation import CONSTELLATIONS, ue_rates
from uccfsim.topology import AssociationMap
from uccfsim.uplink import (UplinkScene, combined_sinr,
                            combined_weights, combining_lambdas,
                            equal_power_scene, gmmse_per_subcarrier,
                            gmmse_weights, lmmse_column_sliced, lmmse_reduced,
                            measure_output, scene_covariance, simulate_uplink,
                            solo_unit_sinrs, stacked_channel, uplink_sinr_all,
                            weight_output_sinr)


def random_scene(rng, M=2, K=2, N=2, gamma_u=100.0, shared_band=True):
    freq = (rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N)))
    if shared_band:
        subs = [np.arange(N) for _ in range(K)]
    else:
        split = np.array_split(np.arange(N), K)
        subs = [np.asarray(s) for s in split]
    return equal_power_scene(freq, subs, gamma_u)


def closed_form(scene):
    """Per-UE closed-form MMSE SINRs of a scene at its own powers."""
    return scene.split(uplink_sinr_all(scene, np.concatenate(scene.power)))


def full_assoc(M, K):
    return AssociationMap.from_ap_sets([list(range(M))] * K, num_aps=M)


@st.composite
def dense_cases(draw, log_gammas=(0.0, 2.0, 6.0, 10.0, 14.0)):
    """UplinkScene fields of a random scene: M <= 8, K <= 5, N <= 16,
    shared or exclusive subcarriers, maybe a UE without any, zeroed links,
    zero-power symbols and gamma_u from 10 ** ``log_gammas``."""
    M, K, N = (draw(st.integers(1, 8)), draw(st.integers(1, 5)),
               draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freq = rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N))
    if draw(st.booleans()):
        freq *= rng.random((M, K, 1)) > 0.3
    if draw(st.booleans()):
        subs = [np.sort(rng.choice(N, size=rng.integers(1, N + 1),
                                   replace=False)) for _ in range(K)]
    else:
        owner = rng.integers(0, K, N)
        subs = [np.flatnonzero(owner == k) for k in range(K)]
    if draw(st.booleans()):
        subs[draw(st.integers(0, K - 1))] = np.array([], dtype=int)
    p = [rng.uniform(0.0, 1.0, len(s)) * (rng.random(len(s)) > 0.2)
         for s in subs]
    power = [q / max(q.sum(), 1.0) for q in p]
    gamma_u = 10.0 ** draw(st.sampled_from(log_gammas))
    return freq, subs, power, gamma_u


@st.composite
def raised_power_cases(draw):
    """A shared plan with M, K, N <= 4 and gamma_u <= 1e6, flat powers
    within the budgets, the same powers with symbol s raised within its
    UE's budget, and s."""
    M, K, N = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freq = rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N))
    subs = [np.sort(rng.choice(N, size=rng.integers(1, N + 1), replace=False))
            for _ in range(K)]
    plan = equal_power_scene(freq, subs, 10.0 ** draw(st.floats(0.0, 6.0)))
    q = rng.uniform(0.0, 1.0, plan.ue.size) * (rng.random(plan.ue.size) > 0.25)
    flat = q / np.bincount(plan.ue, q, K).clip(1.0)[plan.ue] * rng.uniform()
    s = draw(st.integers(0, plan.ue.size - 1))
    raised = flat.copy()
    raised[s] += draw(st.floats(0.0, 1.0)) * (
        1.0 - flat[plan.ue == plan.ue[s]].sum())
    return plan, flat, raised, s


class TestGmmse:
    def test_scalar_reduction(self):
        h = 0.7 - 0.4j
        scene = UplinkScene(freq=np.array([[[h]]]), subcarriers=[[0]],
                            power=[[1.0]], gamma_u=10.0)
        W = gmmse_weights(scene)
        assert W[0, 0] == pytest.approx(h / (abs(h) ** 2 + 0.1))

    def test_normal_equation_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scene = random_scene(rng, M=3, K=2, N=4)
            R = scene_covariance(scene)
            for k, V in enumerate(scene.split(gmmse_weights(scene), axis=1)):
                W = dense_oracles.stacked_weights(scene, k, V)
                rhs = stacked_channel(scene)[k] * np.sqrt(scene.power[k])
                rel = (np.linalg.norm(R @ W - rhs)
                       / max(np.linalg.norm(rhs), 1e-30))
                assert rel < 1e-10

    def test_matches_empirical_least_squares(self):
        rng = np.random.default_rng(1)
        scene = random_scene(rng, M=2, K=2, N=1, gamma_u=20.0)
        indices, y = simulate_uplink(scene, 10**5, rng)
        y = y.reshape(len(y), -1)
        for k, V in enumerate(scene.split(gmmse_weights(scene), axis=1)):
            W = dense_oracles.stacked_weights(scene, k, V)
            x = CONSTELLATIONS["qpsk"][indices[k]]
            Ry = y.T @ y.conj() / y.shape[0]
            Ryx = y.T @ x.conj() / y.shape[0]
            W_ls = np.linalg.solve(Ry, Ryx)
            assert np.linalg.norm(W_ls - W) / np.linalg.norm(W) < 0.05

    def test_per_subcarrier_equals_joint(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            scene = random_scene(rng, M=3, K=2, N=4)
            joint = gmmse_weights(scene)
            split = gmmse_per_subcarrier(scene)
            assert joint.shape == split.shape == (3, len(scene.sub))
            assert np.allclose(joint, split, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(case=dense_cases())
    def test_per_ap_weights_are_the_dense_solve_bit_for_bit(self, case):
        # the joint solve keeps the block pattern, so V holds every nonzero
        # of it: restacked, it is the solve, and its SINRs are the stacked
        # evaluation of the solve itself, NaN and inf included
        scene = UplinkScene(*case)
        R = scene_covariance(scene)
        rhs = [B * np.sqrt(p)
               for B, p in zip(stacked_channel(scene), scene.power)]
        try:
            X = np.linalg.solve(R, np.hstack(rhs))
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                gmmse_weights(scene)
            return
        solved = np.split(X, np.cumsum([B.shape[1] for B in rhs])[:-1],
                          axis=1)
        flat = gmmse_weights(scene)
        assert flat.shape == (scene.num_aps, len(scene.sub))
        weights = scene.split(flat, axis=1)
        sinrs = scene.split(weight_output_sinr(scene, flat))
        for k, (V, W) in enumerate(zip(weights, solved)):
            assert V.shape == (scene.num_aps, W.shape[1])
            assert np.array_equal(dense_oracles.stacked_weights(scene, k, V),
                                  W)
            assert np.array_equal(
                sinrs[k], dense_oracles.weight_output_sinr(scene, k, W),
                equal_nan=True)


class TestSinr:
    def test_single_ue_matched_filter_bound(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        scene = UplinkScene(freq=h.reshape(3, 1, 1), subcarriers=[[0]],
                            power=[[0.8]], gamma_u=50.0)
        expect = 0.8 * 50.0 * np.sum(np.abs(h) ** 2)
        assert closed_form(scene)[0][0] == pytest.approx(expect, rel=1e-9)

    def test_identical_ues_get_equal_sinr(self):
        h = np.array([0.9 + 0.1j, -0.2 + 0.5j])
        freq = np.stack([np.stack([h, h], axis=1)[:, :, None]])[0][..., None]
        freq = np.zeros((2, 2, 1), dtype=complex)
        freq[:, 0, 0] = h
        freq[:, 1, 0] = h
        scene = UplinkScene(freq=freq, subcarriers=[[0], [0]],
                            power=[[0.5], [0.5]], gamma_u=30.0)
        g = closed_form(scene)
        assert g[0][0] == pytest.approx(g[1][0], rel=1e-12)

    def test_analytic_matches_empirical(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, M=2, K=2, N=2, gamma_u=30.0)
        W = gmmse_weights(scene)
        indices, y = simulate_uplink(scene, 10**5, rng)
        analytic = weight_output_sinr(scene, W)
        measured, _ = measure_output(scene, W, y,
                                     np.concatenate(indices, axis=1))
        assert np.all(np.abs(measured - analytic) / analytic < 0.05)

    def test_weight_output_sinr_agrees_with_closed_form(self):
        rng = np.random.default_rng(6)
        scene = random_scene(rng, M=3, K=2, N=2, gamma_u=40.0)
        a = weight_output_sinr(scene, gmmse_weights(scene))
        assert np.allclose(a, uplink_sinr_all(scene, np.concatenate(
            scene.power)), rtol=1e-9)

    def test_zero_power_symbol_has_zero_sinr(self):
        # a water-filled symbol can get power 0: its SINR is 0 in every
        # evaluator, not 0/0
        rng = np.random.default_rng(8)
        freq = (rng.standard_normal((2, 1, 2))
                + 1j * rng.standard_normal((2, 1, 2)))
        scene = UplinkScene(freq=freq, subcarriers=[[0, 1]],
                            power=[[0.7, 0.0]], gamma_u=20.0)
        lambdas = combining_lambdas(scene, full_assoc(2, 1), "equal")
        for sinrs in (closed_form(scene)[0],
                      weight_output_sinr(scene, gmmse_weights(scene)),
                      combined_sinr(scene, combined_weights(scene, lambdas))):
            assert sinrs[0] > 0
            assert sinrs[1] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(case=raised_power_cases())
    def test_monotone_in_own_power(self, case):
        # Yates' standard interference, which max-min power control relies
        # on: more power never lowers a symbol's own SINR and never raises
        # another UE's
        plan, flat, raised, s = case
        before, after = (uplink_sinr_all(plan, eta) for eta in (flat, raised))
        assert after[s] >= before[s] * (1 - 1e-12)
        others = plan.ue != plan.ue[s]
        assert np.all(after[others] <= before[others] * (1 + 1e-12))


@st.composite
def plan_cases(draw, shared=True):
    """A random plan with three symbol-power vectors on it: shared (unless
    not ``shared``) or exclusive subcarriers, maybe a UE without any,
    zero-power symbols and gamma_u up to 1e23."""
    M, K, N = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
               draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freq = rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N))
    if shared and draw(st.booleans()):
        subs = [np.sort(rng.choice(N, size=rng.integers(1, N + 1),
                                   replace=False)) for _ in range(K)]
    else:
        owner = rng.integers(0, K, N)
        subs = [np.flatnonzero(owner == k) for k in range(K)]
    if draw(st.booleans()):
        subs[draw(st.integers(0, K - 1))] = np.array([], dtype=int)
    gamma_u = 10.0 ** draw(st.sampled_from([0.0, 2.0, 8.0, 16.0, 23.0]))
    powers = []
    for _ in range(3):
        p = [rng.uniform(0.0, 1.0, len(s)) * (rng.random(len(s)) > 0.25)
             for s in subs]
        powers.append([q / max(q.sum(), 1.0) for q in p])
    return freq, subs, gamma_u, powers


class TestPlanEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(case=plan_cases())
    def test_bit_identical_to_the_batched_oracle(self, case):
        # one scene serves every power vector of its plan
        freq, subs, gamma_u, powers = case
        plan = equal_power_scene(freq, subs, gamma_u)
        for power in powers:
            scene = UplinkScene(freq=freq, subcarriers=subs, power=power,
                                gamma_u=gamma_u)
            flat = np.concatenate(power)
            try:
                want = dense_oracles.batched_uplink_sinr_all(scene)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    uplink_sinr_all(plan, flat)
                continue
            for got in (plan.split(uplink_sinr_all(plan, flat)),
                        closed_form(scene)):
                assert len(got) == len(want) == len(subs)
                assert all(np.array_equal(g, w, equal_nan=True)
                           for g, w in zip(got, want))

    @settings(max_examples=150, deadline=None)
    @given(case=plan_cases(shared=False))
    def test_on_distinct_subcarriers_each_ue_sees_only_its_own_power(self,
                                                                     case):
        # what lets max-min power control read every UE's bound off one
        # evaluation at the full budgets: R_n of a subcarrier that only
        # UE k uses is the same whatever the others' powers
        freq, subs, gamma_u, powers = case
        plan = equal_power_scene(freq, subs, gamma_u)

        def sinrs(flat):
            try:
                return uplink_sinr_all(plan, flat)
            except np.linalg.LinAlgError:
                return None

        for power in powers:
            flat = np.concatenate(power)
            together = sinrs(flat)
            alone = [sinrs(np.where(plan.ue == k, flat, 0.0))
                     for k in range(len(subs))]
            if together is None:
                # a singular system is one UE's own, in both evaluations
                assert any(g is None for g in alone)
                continue
            for k, g in enumerate(alone):
                own = plan.ue == k
                assert np.array_equal(g[own], together[own], equal_nan=True)
                assert not g[~own].any()

    @pytest.mark.parametrize("flat,message", [
        ([0.6, 0.5, 0.5, 0.5], "UE 0: power budget exceeded"),
        ([0.5, 0.5, 0.6, 0.5], "UE 2: power budget exceeded"),
        ([0.2, -0.1, 0.9, 0.2], "UE 0: negative power"),
        ([0.5, 0.5, 0.9, -1e-300], "UE 2: negative power"),
        ([0.5, 0.5, 2.0, -0.1], "UE 2: power budget exceeded"),
        ([0.5, -0.5, 2.0, 0.1], "UE 0: negative power"),
    ])
    def test_bad_powers_raise_through_the_evaluator(self, flat, message):
        rng = np.random.default_rng(9)
        freq = (rng.standard_normal((2, 3, 4))
                + 1j * rng.standard_normal((2, 3, 4)))
        subs = [[0, 1], [], [2, 3]]
        plan = equal_power_scene(freq, subs, 10.0)
        with pytest.raises(ValueError, match=message):
            uplink_sinr_all(plan, np.array(flat))
        # the scene's per-UE checks name the same UE
        with pytest.raises(ValueError, match=message):
            UplinkScene(freq=freq, subcarriers=subs, gamma_u=10.0,
                        power=[flat[:2], [], flat[2:]])

    def test_bad_plans_raise(self):
        freq = np.ones((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="gamma_u"):
            equal_power_scene(freq, [[0], [1]], 0.0)
        plan = equal_power_scene(freq, [[0], [1]], 1.0)
        with pytest.raises(ValueError, match="does not match"):
            uplink_sinr_all(plan, np.array([0.5, 0.5, 0.5]))
        assert np.all(uplink_sinr_all(plan, np.array([0.5, 0.0])) >= 0)


# a channel component: 0, or a signed magnitude in [1e-6, 1e3]
_components = st.one_of(st.just(0.0), st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(-6, 3)))


@st.composite
def solo_cases(draw):
    """An uplink plan whose symbols all sit on distinct subcarriers: M <= 4
    APs, K <= 3 UEs with at most one symbol each, spare subcarriers, gamma_u
    from 1e-3 to 1e14 and powers from 0 to 1."""
    M, K = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    N = K + draw(st.integers(0, 2))
    parts = np.array(draw(st.lists(_components, min_size=2 * M * K * N,
                                   max_size=2 * M * K * N)))
    freq = (parts[::2] + 1j * parts[1::2]).reshape(M, K, N)
    order = draw(st.permutations(range(N)))
    subs = [[order[k]] if draw(st.booleans()) else [] for k in range(K)]
    power = [[draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))] * len(s)
             for s in subs]
    gamma_u = 10.0 ** draw(st.floats(-3, 14))
    return UplinkScene(freq=freq, subcarriers=subs, power=power,
                       gamma_u=gamma_u)


class TestSoloSinr:
    @settings(max_examples=300, deadline=None)
    @given(scene=solo_cases())
    def test_is_the_exact_sinr_of_a_symbol_alone_on_its_subcarrier(self,
                                                                   scene):
        """eta * solo_unit_sinrs is gamma_u * eta * ||h||^2 to within the
        (M + 3) roundings of its squares, sums and two products, each at
        most eps / 2.  ``uplink_sinr_all`` cancels eta b b^H out of R_n, so
        it agrees only to a relative 4 eps (1 + SINR): the cancelled
        entries of b b^H are each off by at most (2 sqrt(5) + 2) eps / 2 of
        |b_i| |b_j|, which moves the SINR by 3.2 eps SINR at first order,
        and the solve adds a few eps.  Measured on 40,000 random scenes
        with SINRs up to 1e12, where the second-order term is negligible:
        at most 2.31 eps (1 + SINR); past 1 / eps the kernel's error is
        not linear and it can lose every digit (see TestAudit in
        test_alloc.py), so it is held to the bound up to 1e12 only."""
        eps = np.finfo(float).eps
        eta = np.concatenate(scene.power)
        solo = eta * solo_unit_sinrs(scene.freq, scene.ue, scene.sub,
                                     scene.gamma_u)
        exact = [Fraction(scene.gamma_u) * Fraction(eta[s]) * sum(
            Fraction(h.real) ** 2 + Fraction(h.imag) ** 2
            for h in scene.freq[:, k, n])
            for s, (k, n) in enumerate(zip(scene.ue, scene.sub))]
        tol = Fraction((scene.num_aps + 3) * eps / 2)
        for got, want in zip(solo, exact):
            assert abs(Fraction(got) - want) <= tol * want
        if max(exact, default=0) <= 1e12:
            for got, want in zip(uplink_sinr_all(scene, eta), exact):
                assert abs(Fraction(got) - want) <= (
                    Fraction(4 * eps) * (1 + want) * want)


@st.composite
def cochannel_cases(draw):
    """An uplink plan in which every subcarrier carries 2 to 4 symbols: M
    <= 4 APs, K = 4 UEs, N <= 3 subcarriers, channel components as in
    ``solo_cases``, each UE's budget split over its symbols and gamma_u
    from 1 to 1e14."""
    M, K, N = draw(st.integers(1, 4)), 4, draw(st.integers(1, 3))
    parts = np.array(draw(st.lists(_components, min_size=2 * M * K * N,
                                   max_size=2 * M * K * N)))
    freq = (parts[::2] + 1j * parts[1::2]).reshape(M, K, N)
    on = [draw(st.sets(st.integers(0, K - 1), min_size=2, max_size=4))
          for _ in range(N)]
    subs = [[n for n in range(N) if k in on[n]] for k in range(K)]
    power = [[draw(st.floats(1e-6, 1.0)) / len(s) for _ in s] for s in subs]
    gamma_u = 10.0 ** draw(st.floats(0, 14))
    return UplinkScene(freq=freq, subcarriers=subs, power=power,
                       gamma_u=gamma_u)


class TestCochannelSinr:
    @settings(max_examples=100, deadline=None)
    @given(scene=cochannel_cases())
    def test_is_the_exact_sinr_where_the_covariance_is_resolved(self, scene):
        """``uplink_sinr_all`` against the exact rational MMSE SINRs of
        ``dense_oracles.exact_uplink_sinrs``, symbol by symbol, wherever
        1 + load <= 1e8, with load the sum over the subcarrier's symbols of
        gamma_u eta ||h||^2 as ``ul_covariance_resolved`` defines it.  The
        kernel cancels eta b b^H out of R_n, whose entries are up to
        (1 + load) / gamma_u, and solves a system whose condition number
        is up to 1 + load, so it is held to 32 eps (1 + load) relative.
        Measured on 14,300 random co-channel scenes (M <= 4, 2 to 4 symbols
        per subcarrier, gamma_u from 1 to 1e14, 84,000 symbols): at most
        2.1 eps (1 + load) where 1 + load <= 1e8, or 1.9e-8 relative; past
        it the error reached 1.97 relative."""
        eps = np.finfo(float).eps
        eta = np.concatenate(scene.power)
        load = np.bincount(scene.sub, eta * solo_unit_sinrs(
            scene.freq, scene.ue, scene.sub, scene.gamma_u),
            scene.num_subcarriers)
        try:
            got = uplink_sinr_all(scene, eta)
        except np.linalg.LinAlgError:
            # a subcarrier whose R_n - eta b b^H rounds to singular
            assert 1 + load.max() > 1e8
            return
        exact = dense_oracles.exact_uplink_sinrs(scene, eta)
        for g, want, n in zip(got, exact, scene.sub):
            if 1 + load[n] <= 1e8:
                assert abs(Fraction(g) - want) <= (
                    Fraction(32 * eps) * Fraction(1 + load[n]) * want)


class TestSumRate:
    def test_unit_sinr_single_symbol(self):
        assert ue_rates([np.array([1.0])]).sum() == pytest.approx(1.0)

    def test_zero_power_gives_zero(self):
        rng = np.random.default_rng(8)
        freq = (rng.standard_normal((2, 1, 2))
                + 1j * rng.standard_normal((2, 1, 2)))
        scene = UplinkScene(freq=freq, subcarriers=[[0, 1]],
                            power=[[0.0, 0.0]], gamma_u=10.0)
        assert ue_rates(closed_form(scene)).sum() == pytest.approx(0.0)

    def test_additive_over_independent_components(self):
        rng = np.random.default_rng(9)
        h1 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        h2 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        freq = np.zeros((2, 2, 1), dtype=complex)
        freq[0, 0, 0] = h1[0]      # UE 0 visible only at AP 0
        freq[1, 1, 0] = h2[0]      # UE 1 visible only at AP 1
        joint = UplinkScene(freq=freq, subcarriers=[[0], [0]],
                            power=[[1.0], [1.0]], gamma_u=15.0)
        alone0 = UplinkScene(freq=freq[:1, :1], subcarriers=[[0]],
                             power=[[1.0]], gamma_u=15.0)
        alone1 = UplinkScene(freq=freq[1:, 1:], subcarriers=[[0]],
                             power=[[1.0]], gamma_u=15.0)
        assert ue_rates(closed_form(joint)).sum() == pytest.approx(
            ue_rates(closed_form(alone0)).sum()
            + ue_rates(closed_form(alone1)).sum(), rel=1e-9)


class TestColumnSliced:
    def test_full_association_equals_gmmse(self):
        rng = np.random.default_rng(10)
        scene = random_scene(rng, M=3, K=2, N=2)
        assoc = full_assoc(3, 2)
        assert np.allclose(lmmse_column_sliced(scene, assoc),
                           gmmse_weights(scene), atol=1e-12)

    def test_no_association_gives_zero_weights(self):
        rng = np.random.default_rng(11)
        scene = random_scene(rng, M=2, K=1, N=2)
        assoc = AssociationMap.from_ap_sets([[]], num_aps=2)
        assert np.all(lmmse_column_sliced(scene, assoc) == 0)

    def test_partial_association_loses_rate_on_average(self):
        rng = np.random.default_rng(12)
        wins = 0
        trials = 100
        for _ in range(trials):
            scene = random_scene(rng, M=3, K=2, N=1, gamma_u=50.0)
            assoc = AssociationMap.from_ap_sets([[0, 1], [1, 2]], num_aps=3)
            sliced = lmmse_column_sliced(scene, assoc)
            r_sliced = np.sum(np.log2(1 + weight_output_sinr(scene, sliced)))
            r_full = ue_rates(closed_form(scene)).sum()
            if r_full >= r_sliced - 1e-9:
                wins += 1
        assert wins == trials


class TestReduced:
    def test_full_set_equals_gmmse(self):
        rng = np.random.default_rng(13)
        scene = random_scene(rng, M=3, K=2, N=2)
        assoc = full_assoc(3, 2)
        assert np.allclose(lmmse_reduced(scene, assoc), gmmse_weights(scene),
                           atol=1e-12)

    def test_single_ap_reduces_to_local(self):
        rng = np.random.default_rng(14)
        scene = random_scene(rng, M=3, K=2, N=2)
        assoc = AssociationMap.from_ap_sets([[1], [0, 1, 2]], num_aps=3)
        W = dense_oracles.stacked_weights(
            scene, 0, scene.split(lmmse_reduced(scene, assoc), axis=1)[0])
        local = dense_oracles.local_ap_weights(scene, 1, 0)
        assert np.allclose(W[1 * 2:2 * 2], local, atol=1e-12)
        assert np.all(W[0:2] == 0) and np.all(W[4:6] == 0)

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(15)
        scene = random_scene(rng, M=2, K=1, N=1)
        assoc = AssociationMap.from_ap_sets([[]], num_aps=2)
        with pytest.raises(ValueError, match="unassociated UE"):
            lmmse_reduced(scene, assoc)

    def test_reduced_below_sliced_on_average(self):
        # regime matching the locality premise: channels at excluded APs sit
        # well below the noise floor, so the zero-filled model is near-exact
        # and the discarded observations still carry interference energy
        from uccfsim.topology import associate_large_scale
        rng = np.random.default_rng(16)
        adv = 0.0
        for _ in range(100):
            M, K = 4, 3
            g = np.full((M, K), 0.001)
            for k in range(K):
                g[rng.choice(M, size=2, replace=False), k] = 1.0
            freq = np.sqrt(g)[:, :, None] * (
                rng.standard_normal((M, K, 1))
                + 1j * rng.standard_normal((M, K, 1))) / np.sqrt(2)
            assoc = associate_large_scale(g, max_count=2)
            scene = equal_power_scene(freq, [np.arange(1)] * K, 10.0)
            g_sliced = weight_output_sinr(scene,
                                          lmmse_column_sliced(scene, assoc))
            g_red = weight_output_sinr(scene, lmmse_reduced(scene, assoc))
            adv += np.sum(np.log2(1 + g_sliced)) - np.sum(np.log2(1 + g_red))
        assert adv > 0


def unit_lambdas(scene, m):
    """Fusion weights 1 at AP m alone for every symbol: the fused weight is
    AP m's local MMSE weight."""
    lambdas = np.zeros((scene.num_aps, len(scene.sub)), dtype=complex)
    lambdas[m] = 1.0
    return lambdas


class TestLocalDetection:
    def test_defining_identity(self):
        rng = np.random.default_rng(17)
        scene = random_scene(rng, M=2, K=2, N=3)
        for m in range(2):
            fused = scene.split(
                combined_weights(scene, unit_lambdas(scene, m)), axis=1)
            for k in range(2):
                W = dense_oracles.stacked_weights(scene, k, fused[k])
                assert np.all(W[(1 - m) * 3:(2 - m) * 3] == 0)
                W = W[m * 3:(m + 1) * 3]
                diag = np.full(3, 1.0 / scene.gamma_u)
                for l in range(2):
                    diag += np.abs(scene.freq[m, l]) ** 2 * scene.power[l][0]
                rhs = np.zeros((3, 3), dtype=complex)
                sub = scene.subcarriers[k]
                rhs[sub, np.arange(3)] = scene.freq[m, k, sub] * np.sqrt(scene.power[k])
                assert np.allclose(diag[:, None] * W, rhs, atol=1e-12)

    def test_noiseless_single_ue_recovers_symbol(self):
        h = np.array([[[1.3 - 0.2j]]])
        scene = UplinkScene(freq=h, subcarriers=[[0]], power=[[1.0]],
                            gamma_u=1e12)
        x = 0.6 + 0.8j
        y = np.array([[[h[0, 0, 0] * x]]])
        z = dense_oracles.stacked_output(
            scene, 0, combined_weights(scene, unit_lambdas(scene, 0)), y)
        assert z[0, 0] == pytest.approx(x, rel=1e-6)


def fused_sinr(scene, assoc, mode):
    """UE 0's SINRs after local detection fused in ``mode``."""
    lambdas = combining_lambdas(scene, assoc, mode)
    return combined_sinr(scene, combined_weights(scene, lambdas))[
        scene.ue == 0]


class TestCombining:
    def make_two_ap_scene(self, rng, gamma_u=20.0):
        scene = random_scene(rng, M=2, K=2, N=1, gamma_u=gamma_u)
        assoc = full_assoc(2, 2)
        return scene, assoc

    def test_single_ap_decision_equivalent_in_every_mode(self):
        # one AP: every mode scales each symbol by a positive real factor,
        # so the fused output is decision-equivalent to the local one
        rng = np.random.default_rng(19)
        scene = random_scene(rng, M=1, K=1, N=2)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        y = (rng.standard_normal((5, 1, 2))
             + 1j * rng.standard_normal((5, 1, 2)))
        local = dense_oracles.stacked_output(
            scene, 0, combined_weights(scene, unit_lambdas(scene, 0)), y)
        for mode in ("equal", "mrc", "large_scale_linear",
                     "large_scale_sqrt"):
            lam = combining_lambdas(scene, assoc, mode, gains=[[0.5]])
            out = dense_oracles.stacked_output(
                scene, 0, combined_weights(scene, lam), y)
            ratio = out / local
            assert np.allclose(ratio.imag, 0.0, atol=1e-10)
            assert np.all(ratio.real > 0)
            assert np.allclose(ratio, ratio[0])
            if mode != "mrc":
                assert np.allclose(ratio, ratio[0, 0])

    def test_equal_gains_collapse_large_scale_modes(self):
        rng = np.random.default_rng(26)
        scene = random_scene(rng, M=3, K=1, N=2)
        assoc = full_assoc(3, 1)
        eq = combining_lambdas(scene, assoc, "equal")
        for mode in ("large_scale_linear", "large_scale_sqrt"):
            lam = combining_lambdas(scene, assoc, mode,
                                    gains=[[0.3], [0.3], [0.3]])
            assert np.allclose(lam, eq)

    def test_mrc_beats_equal_on_unbalanced_branches(self):
        # single UE, one strong and one weak AP: MRC is the optimal
        # combiner of independent branches, equal combining is not
        rng = np.random.default_rng(20)
        for _ in range(50):
            freq = (rng.standard_normal((2, 1, 1))
                    + 1j * rng.standard_normal((2, 1, 1)))
            freq[1] *= 0.3
            scene = equal_power_scene(freq, [np.arange(1)], 20.0)
            assoc = AssociationMap.from_ap_sets([[0, 1]], num_aps=1 + 1)
            g_mrc = fused_sinr(scene, assoc, "mrc")
            g_eq = fused_sinr(scene, assoc, "equal")
            assert g_mrc.mean() >= g_eq.mean() - 1e-12

    def test_mrc_beats_equal_on_average_with_interference(self):
        # per-AP MRC ignores cross-AP interference correlation, so single
        # scenes may flip; the advantage must survive on average
        rng = np.random.default_rng(22)
        adv = 0.0
        for _ in range(100):
            scene, assoc = self.make_two_ap_scene(rng)
            g_mrc = fused_sinr(scene, assoc, "mrc")
            g_eq = fused_sinr(scene, assoc, "equal")
            adv += g_mrc.mean() - g_eq.mean()
        assert adv > 0

    def test_mrc_beats_equal_empirically(self):
        rng = np.random.default_rng(21)
        freq = np.array([[[1.1 - 0.4j]], [[0.25 + 0.1j]]])
        scene = equal_power_scene(freq, [np.arange(1)], 20.0)
        assoc = AssociationMap.from_ap_sets([[0, 1]], num_aps=2)
        indices, y = simulate_uplink(scene, 10**4, rng)

        def meas(mode):
            # the CPU measures the fused output's amplitude from the draws
            W = combined_weights(scene, combining_lambdas(scene, assoc, mode))
            return measure_output(scene, W, y, indices[0],
                                  measured=True)[0][0]
        assert meas("mrc") >= meas("equal")

    def test_missing_side_info_raises(self):
        rng = np.random.default_rng(27)
        scene, assoc = self.make_two_ap_scene(rng)
        for mode in ("large_scale_linear", "large_scale_sqrt"):
            with pytest.raises(ValueError, match="per-AP gains"):
                combining_lambdas(scene, assoc, mode)
        with pytest.raises(ValueError, match="unknown combining mode"):
            combining_lambdas(scene, assoc, "median")


class TestSampleCovariance:
    def test_converges_with_draw_count(self):
        rng = np.random.default_rng(22)
        scene = random_scene(rng, M=2, K=2, N=2, gamma_u=10.0)
        R = scene_covariance(scene)
        errs = []
        for U in (10**2, 10**3, 10**4):
            reps = []
            for r in range(5):
                _, y = simulate_uplink(scene, U, np.random.default_rng(100 + r))
                y = y.reshape(U, -1)
                sample = y.T @ y.conj() / U
                reps.append(np.linalg.norm(sample - R) / np.linalg.norm(R))
            errs.append(np.mean(reps))
        assert errs[2] < errs[1] < errs[0]
        # 1/sqrt(U) trend: two decades of draws buy about one decade of error
        assert 4.0 < errs[0] / errs[2] < 25.0


class TestMeasuredOutput:
    @settings(max_examples=100, deadline=None)
    @given(case=dense_cases(log_gammas=(0.0, 1.0, 2.0, 3.0)),
           draws=st.sampled_from([1, 3, 50]), measured=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_per_ap_output_is_the_stacked_output(self, case, draws, measured,
                                                 seed):
        # every detector's weights, measured per AP and as y W^* on the
        # stacked layout: only the rounding of the sums may differ
        scene = UplinkScene(*case)
        M, K = scene.num_aps, scene.num_ues
        rng = np.random.default_rng(seed)
        assoc = AssociationMap.from_ap_sets(
            [sorted(rng.choice(M, size=rng.integers(1, M + 1),
                               replace=False).tolist()) for _ in range(K)],
            num_aps=M)
        detectors = [
            gmmse_weights(scene), gmmse_per_subcarrier(scene),
            lmmse_column_sliced(scene, assoc), lmmse_reduced(scene, assoc),
            combined_weights(scene, combining_lambdas(scene, assoc, "mrc"))]
        indices, y = simulate_uplink(scene, draws, rng)
        assert y.shape == (draws, M, scene.num_subcarriers)
        for flat in detectors:
            sinrs, decided = measure_output(scene, flat, y,
                                            np.concatenate(indices, axis=1),
                                            measured=measured)
            for k, V in enumerate(scene.split(flat, axis=1)):
                want_sinrs, want_decided = dense_oracles.measure_output(
                    scene, k, dense_oracles.stacked_weights(scene, k, V),
                    y.reshape(draws, -1), indices[k], measured=measured)
                np.testing.assert_allclose(scene.split(sinrs)[k], want_sinrs,
                                           rtol=1e-12, atol=0)
                assert np.array_equal(scene.split(decided, axis=1)[k],
                                      want_decided)

    def test_measured_decisions_recover_clean_transmissions(self):
        rng = np.random.default_rng(25)
        scene = random_scene(rng, M=3, K=2, N=2, gamma_u=1e6)
        indices, y = simulate_uplink(scene, 200, rng)
        sent = np.concatenate(indices, axis=1)
        # MMSE output is biased toward zero but decision-region safe at
        # this SNR for QPSK
        _, decided = measure_output(scene, gmmse_weights(scene), y, sent)
        assert decided.shape == sent.shape
        for k, d in enumerate(scene.split(decided, axis=1)):
            assert np.mean(d != indices[k]) < 0.01

    def test_both_amplitudes_decide_noiseless_draws_exactly(self):
        rng = np.random.default_rng(28)
        scene = random_scene(rng, M=2, K=1, N=2, gamma_u=1e30)
        W = gmmse_weights(scene)
        indices, y = simulate_uplink(scene, 50, rng, "bpsk")
        for measured in (False, True):
            sinrs, decided = measure_output(scene, W, y, indices[0],
                                            "bpsk", measured)
            assert np.all(sinrs > 1e20)
            assert np.array_equal(decided, indices[0])
