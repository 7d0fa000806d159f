"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Scales are desk-sized (M <= 16, K <= 8, N <= 16, <= 1e5 draws) and every
tolerance is pinned in the assertions below.
"""

import functools
import sys

import numpy as np
import pytest

import dense_oracles

from uccfsim.alloc import (allocate_power_waterfill, successive_optimize,
                           ul_rates)
from uccfsim.apmp import ApmpConfig, apmp_detect, map_oracle
from uccfsim.channel import (DoubleSlope, LargeScaleModel,
                             pathloss_triple_slope, sample_large_scale,
                             sample_small_scale)
from uccfsim.downlink import (artificial_noise_direction, compute_a0,
                              distributed_directions, receive_downlink,
                              received_power_split, secrecy_transmit,
                              tmmse_central_ofdm)
from uccfsim.engine import results_to_csv, run_scenario
from uccfsim.modulation import CONSTELLATIONS
from uccfsim.topology import AssociationMap, associate_large_scale, \
    build_factor_graph
from uccfsim.uplink import (combined_sinr, combined_weights,
                            combining_lambdas, equal_power_scene,
                            gmmse_per_subcarrier,
                            gmmse_weights, lmmse_column_sliced, lmmse_reduced,
                            scene_covariance, simulate_uplink,
                            stacked_channel, uplink_sinr_all,
                            weight_output_sinr)

from test_downlink import all_served, flat_ap_powers, flat_precoders, \
    flat_sinr


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{label}]: FAIL", file=sys.stderr)
                raise
            print(f"ACCEPTANCE {number} [{label}]: PASS")
        return run
    return wrap


def random_ul_scene(rng, M=3, K=2, N=2, gamma_u=30.0):
    freq = (rng.standard_normal((M, K, N))
            + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
    return equal_power_scene(freq, [np.arange(N)] * K, gamma_u)


@criterion(1, "linear-algebra identities")
def test_criterion_1_identities():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        scene = random_ul_scene(rng, M=3, K=2, N=2)
        R = scene_covariance(scene)
        for k, V in enumerate(scene.split(gmmse_weights(scene), axis=1)):
            W = dense_oracles.stacked_weights(scene, k, V)
            rhs = stacked_channel(scene)[k] * np.sqrt(scene.power[k])
            worst = max(worst, np.linalg.norm(R @ W - rhs)
                        / np.linalg.norm(rhs))
    assert worst <= 1e-10

    worst = 0.0
    for _ in range(100):
        h = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        noise = float(rng.uniform(0.05, 1.0))
        delta = rng.uniform(0.1, 0.5, 3)
        P = flat_precoders(h, noise, delta)
        R = h.conj() @ h.T + noise * np.eye(4)
        rhs = h.conj() * np.sqrt(delta)
        worst = max(worst, np.linalg.norm(R @ P - rhs) / np.linalg.norm(rhs))
    assert worst <= 1e-10

    worst = 0.0
    for _ in range(100):
        H = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        P = distributed_directions(H, all_served(3), "tzf")
        worst = max(worst, np.linalg.norm(H.T @ P - np.eye(3)) / np.sqrt(3))
    assert worst <= 1e-10


@criterion(2, "reduction equivalences")
def test_criterion_2_reductions():
    rng = np.random.default_rng(202)
    for _ in range(25):
        scene = random_ul_scene(rng, M=3, K=2, N=3)
        assoc = AssociationMap.from_ap_sets([[0, 1, 2]] * 2, num_aps=3)
        gm = gmmse_weights(scene)
        assert np.allclose(lmmse_column_sliced(scene, assoc), gm, atol=1e-12)
        assert np.allclose(gmmse_per_subcarrier(scene), gm, atol=1e-12)
        assert np.allclose(lmmse_reduced(scene, assoc), gm, atol=1e-12)

    for _ in range(25):
        H = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        assert np.allclose(
            distributed_directions(H, all_served(2), "regmmse", 0.0),
            distributed_directions(H, all_served(2), "tzf"), atol=1e-12)

    for _ in range(25):
        h = (rng.standard_normal((3, 2, 1))
             + 1j * rng.standard_normal((3, 2, 1)))
        noise = float(rng.uniform(0.05, 0.5))
        delta = rng.uniform(0.1, 0.4, size=(2, 1))
        P_ofdm = tmmse_central_ofdm(h, [[0], [0]], noise, delta)
        h0 = h[:, :, 0]
        P_flat = np.linalg.solve(h0.conj() @ h0.T + noise * np.eye(3),
                                 h0.conj()) * np.sqrt(delta[:, 0])
        for k in range(2):
            assert np.allclose(P_ofdm[0, :, k], P_flat[:, k], atol=1e-12)


@criterion(3, "oracle equivalence")
def test_criterion_3_oracles():
    from test_apmp import random_bipartite_tree, scene_on_association, transmit

    rng = np.random.default_rng(303)
    config = ApmpConfig(max_iterations=40, tol=1e-13, llr_clamp=1e9)
    for _ in range(50):
        M = int(rng.integers(2, 6))
        K = int(rng.integers(1, 5))
        assoc = random_bipartite_tree(M, K, rng)
        scene = scene_on_association(assoc, rng, gamma_u=5.0)
        idx = [np.array([int(rng.integers(2))]) for _ in range(K)]
        y = transmit(scene, idx, rng)
        res = apmp_detect(scene, assoc, y, config)
        for comp in build_factor_graph(assoc).components:
            exact = map_oracle(scene, assoc, comp, y)
            for k in comp[1]:
                got = np.log(res.marginals[k][0]) - np.log(res.marginals[k][0][0])
                want = np.log(exact[(k, 0)]) - np.log(exact[(k, 0)][0])
                assert np.max(np.abs(got - want)) <= 1e-6

    # greedy + water-filling within 20% of the exhaustive joint optimum
    ratios = []
    for _ in range(100):
        freq = (rng.standard_normal((2, 2, 2))
                + 1j * rng.standard_normal((2, 2, 2))) / np.sqrt(2)
        best = 0.0
        # subcarrier picks x power grid, full association as in the pipeline
        for n0, n1 in ((0, 1), (1, 0)):
            for e0 in np.linspace(0.25, 1.0, 4):
                for e1 in np.linspace(0.25, 1.0, 4):
                    rates, _ = ul_rates(freq, 10.0,
                                        [np.array([n0]), np.array([n1])],
                                        [np.array([e0]), np.array([e1])])
                    best = max(best, float(rates.sum()))
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], 2)
        plan = successive_optimize(freq, assoc, demands=1, gamma_u=10.0)
        ratios.append(plan.objective / best)
    assert np.mean(ratios) >= 0.8

    # water-filling within 1e-3 of a fine grid search
    for _ in range(20):
        s = rng.uniform(0.2, 8.0, size=3)
        p = allocate_power_waterfill(s, 1.0)
        rate = float(np.sum(np.log2(1 + p * s)))
        axis = np.linspace(0, 1, 101)
        best = 0.0
        for p0 in axis:
            for p1 in axis[axis <= 1 - p0 + 1e-12]:
                p2 = 1 - p0 - p1
                best = max(best, np.log2(1 + p0 * s[0])
                           + np.log2(1 + p1 * s[1]) + np.log2(1 + p2 * s[2]))
        assert rate >= best - 1e-3


@criterion(4, "analytic vs empirical SINR")
def test_criterion_4_sinr_match():
    rng = np.random.default_rng(404)
    for _ in range(20):
        scene = random_ul_scene(rng, M=2, K=2, N=2, gamma_u=20.0)
        flat = gmmse_weights(scene)
        indices, y = simulate_uplink(scene, 10**5, rng)
        pts = CONSTELLATIONS["qpsk"]
        weights = scene.split(flat, axis=1)
        for k, analytic in enumerate(scene.split(
                weight_output_sinr(scene, flat))):
            # each AP's observation on the symbol's subcarrier, weighted
            sub = scene.subcarriers[k]
            z = np.einsum("dmi,mi->di", y[:, :, sub], weights[k].conj())
            amp = np.sqrt(scene.power[k]) * np.einsum(
                "mi,mi->i", weights[k].conj(), scene.freq[:, k, sub])
            err = z - pts[indices[k]] * amp
            emp = np.abs(amp) ** 2 / np.mean(np.abs(err) ** 2, axis=0)
            assert np.all(np.abs(emp - analytic) / analytic <= 0.05)

    for _ in range(20):
        h = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        noise = 0.2
        P = flat_precoders(h, noise, [0.5, 0.5])
        a0 = compute_a0(flat_ap_powers(P), 1.0)
        analytic = flat_sinr(h, P, a0, noise)
        pts = CONSTELLATIONS["qpsk"]
        idx = rng.integers(0, 4, size=(10**5, 2))
        x = pts[idx]
        rx = a0 * (x @ (h.T @ P).T)
        for k in range(2):
            amp = a0 * (h[:, k] @ P[:, k])
            err = rx[:, k] - amp * x[:, k]
            emp = np.abs(amp) ** 2 / (np.mean(np.abs(err) ** 2) + noise)
            assert abs(emp - analytic[k]) / analytic[k] <= 0.05


@criterion(5, "statistical channel checks")
def test_criterion_5_channel_statistics():
    rng = np.random.default_rng(505)
    n = 10**5
    std = 5.0
    model = LargeScaleModel(DoubleSlope(2.0, 2.0, 100.0), shadowing_std_db=std)
    g = sample_large_scale(np.full(n, 80.0), model, rng)
    db = 10 * np.log10(g)
    mean_expected = model.pathloss.mean_db(80.0)
    assert abs(db.mean() - mean_expected) <= 3 * std / np.sqrt(n)
    assert abs(db.std(ddof=1) - std) <= 0.02 * std

    powers = np.array([np.sum(np.abs(sample_small_scale(4, rng)) ** 2)
                       for _ in range(10**5)])
    assert abs(powers.mean() - 1.0) <= 0.01

    args = dict(d0=10.0, d1=50.0, f_mhz=1900.0, h_ap=15.0, h_ue=1.65)
    # branch expressions evaluated exactly at the breakpoints
    far = pathloss_triple_slope(np.array([50.0 * (1 + 1e-15)]), **args)[0]
    mid_at_d1 = pathloss_triple_slope(np.array([50.0]), **args)[0]
    assert abs(far - mid_at_d1) <= 1e-9
    mid_at_d0 = pathloss_triple_slope(np.array([10.0 * (1 + 1e-15)]), **args)[0]
    near = pathloss_triple_slope(np.array([10.0]), **args)[0]
    assert abs(mid_at_d0 - near) <= 1e-9


@criterion(6, "secrecy invariants")
def test_criterion_6_secrecy():
    rng = np.random.default_rng(606)
    for _ in range(10**3):
        M = int(rng.integers(3, 7))
        K = int(rng.integers(1, M))
        h = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K)))
        p_i = artificial_noise_direction(h, rng)
        assert np.max(np.abs(h.T @ p_i)) <= 1e-12

    for _ in range(50):
        h = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        P = flat_precoders(h, 0.2, [0.3, 0.3, 0.3])
        p_i = artificial_noise_direction(h, rng)
        x = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
        rho = float(rng.uniform(0.1, 1.0))
        base = receive_downlink(h, (P @ x)[:, None])
        sec = receive_downlink(h, secrecy_transmit(P, p_i, rho, x,
                                                   noise_symbol=1.1 - 0.4j))
        assert np.allclose(sec, np.sqrt(rho) * base, atol=1e-12)


@criterion(7, "ordering properties")
def test_criterion_7_orderings():
    # Detector ordering in the locality regime the approximations assume:
    # channels at excluded APs sit far below the noise floor.
    rng = np.random.default_rng(707)
    trials = 120
    r_gm = np.empty(trials)
    r_sl = np.empty(trials)
    r_rd = np.empty(trials)
    for t in range(trials):
        M, K = 4, 3
        g = np.full((M, K), 0.001)
        for k in range(K):
            g[rng.choice(M, size=2, replace=False), k] = 1.0
        freq = np.sqrt(g)[:, :, None] * (
            rng.standard_normal((M, K, 1))
            + 1j * rng.standard_normal((M, K, 1))) / np.sqrt(2)
        assoc = associate_large_scale(g, max_count=2)
        scene = equal_power_scene(freq, [np.arange(1)] * K, 10.0)
        sliced = lmmse_column_sliced(scene, assoc)
        r_gm[t] = sum(np.log2(1 + s).sum() for s in scene.split(
            uplink_sinr_all(scene, np.concatenate(scene.power))))
        r_sl[t] = sum(np.log2(1 + s).sum() for s in scene.split(
            weight_output_sinr(scene, sliced)))
        r_rd[t] = sum(np.log2(1 + s).sum() for s in scene.split(
            weight_output_sinr(scene, lmmse_reduced(scene, assoc))))
    assert r_gm.mean() >= r_sl.mean()
    assert r_sl.mean() >= r_rd.mean()
    assert np.all(r_gm >= r_sl - 1e-9)

    # MRC vs equal combining, paired means over random two-AP scenes
    adv = np.empty(trials)
    for t in range(trials):
        freq = (rng.standard_normal((2, 2, 1))
                + 1j * rng.standard_normal((2, 2, 1)))
        scene = equal_power_scene(freq, [np.arange(1)] * 2, 20.0)
        assoc = AssociationMap.from_ap_sets([[0, 1]] * 2, num_aps=2)
        g_m, g_e = (scene.split(combined_sinr(scene, combined_weights(
            scene, combining_lambdas(scene, assoc, mode))))[0]
            for mode in ("mrc", "equal"))
        adv[t] = g_m.mean() - g_e.mean()
    assert adv.mean() >= 0.0

    # TZF nulls co-associated interference, MF does not
    for _ in range(100):
        h = (rng.standard_normal((2, 3, 3))
             + 1j * rng.standard_normal((2, 3, 3)))
        assoc = AssociationMap.from_ap_sets([[0], [0], [1]], num_aps=2)
        powers = np.full((2, 3), 0.4)
        tzf = distributed_directions(h, assoc.zeta() > 0, method="tzf")
        mf = distributed_directions(h, assoc.zeta() > 0, method="mf")
        split_tzf = received_power_split(h, assoc, tzf, powers, 0)
        split_mf = received_power_split(h, assoc, mf, powers, 0)
        assert split_tzf["co_associated"] <= 1e-20 * split_tzf["desired"]
        assert split_mf["co_associated"] > 0.0


@criterion(8, "constraint audit and determinism")
def test_criterion_8_audit_and_determinism():
    rng = np.random.default_rng(808)
    for trial in range(10**3):
        M = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        N = int(rng.integers(K, 7))
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
        gains = np.abs(freq[:, :, 0]) ** 2
        assoc = associate_large_scale(gains, max_count=min(2, M))
        direction = "ul" if trial % 2 == 0 else "dl"
        if direction == "ul":
            plan = successive_optimize(freq, assoc, demands=1,
                                       gamma_u=float(rng.uniform(5, 50)))
            assert plan.audit["pass"]
            for p in plan.ul_power:
                assert p.sum() <= 1.0 + 1e-9
        else:
            p_max = float(rng.uniform(0.5, 2.0))
            plan = successive_optimize(freq, assoc, demands=1, direction="dl",
                                       noise_var=float(rng.uniform(0.05, 0.5)),
                                       p_max=p_max)
            assert plan.audit["pass"]
            assert plan.dl_power.sum() <= 1.0 + 1e-9
            assert plan.a0 > 0

    cfg = {"name": "determinism", "trials": 3, "seed": 12,
           "topology": {"num_aps": 4, "num_ues": 2},
           "ofdm": {"num_subcarriers": 4},
           "allocation": {"demands": 2},
           "uplink": {"detector": "gmmse", "symbol_draws": 100}}
    assert results_to_csv(run_scenario(cfg)) == results_to_csv(run_scenario(cfg))
