import dataclasses

import numpy as np
import pytest

import dense_oracles
from dense_oracles import map_oracle
from uccfsim.apmp import ApmpConfig, EdgeIndex, apmp_detect, message_round
from uccfsim.modulation import CONSTELLATIONS
from uccfsim.topology import AssociationMap, build_factor_graph
from uccfsim.uplink import UplinkScene, equal_power_scene

EXACT = ApmpConfig(max_iterations=40, tol=1e-13, llr_clamp=1e9)

# Where a factor has degree > 1 the edge-index round adds the same float64
# terms as the dict-keyed oracle in another order (the joint mean
# sum_j c_j x_j against y - partial - c_p x_p), so marginals, which lie in
# [0, 1], may differ by a few ulps; 1e-13 is about 450 ulps of 1.0.
MARGINAL_BOUND = 1e-13


def intrinsic_llr(scene, assoc, m, y_m, config: ApmpConfig = ApmpConfig()):
    """Uniform-prior (intrinsic) log-likelihood vectors at a single AP.

    Returns {(ue, slot): normalized log-prob vector} for every symbol AP m
    monitors in its own observation y_m (length N): the first round's
    messages when only AP m observes anything.
    """
    index = EdgeIndex(scene, assoc, config.points)
    y = np.zeros((scene.num_aps, scene.num_subcarriers), dtype=complex)
    y[m] = y_m
    msgs = message_round(index, y, None, config)
    return {(k, i): msgs[e] for (ap, k, i), e in edge_lookup(index).items()
            if ap == m}


def edge_lookup(index) -> dict:
    """The (AP m, UE k, slot i) -> edge e map of an :class:`EdgeIndex`."""
    return {(m,) + index.slots[r]: e for e, (m, r)
            in enumerate(zip(index.ap.tolist(), index.slot.tolist()))}


def random_bipartite_tree(num_aps, num_ues, rng):
    """Connected cycle-free AP-UE graph: every new node hangs off one
    already-placed node of the other side, giving exactly
    num_aps + num_ues - 1 edges."""
    ap_sets = [[] for _ in range(num_ues)]
    placed_aps, placed_ues = [0], []
    pending = ([("ue", k) for k in range(num_ues)]
               + [("ap", m) for m in range(1, num_aps)])
    rng.shuffle(pending)
    # a UE must come first so every later AP has a UE to anchor to
    first_ue = next(i for i, (kind, _) in enumerate(pending) if kind == "ue")
    pending.insert(0, pending.pop(first_ue))
    for kind, idx in pending:
        if kind == "ue":
            ap_sets[idx].append(int(rng.choice(placed_aps)))
            placed_ues.append(idx)
        else:
            k = int(rng.choice(placed_ues))
            ap_sets[k].append(idx)
            placed_aps.append(idx)
    assert sum(len(s) for s in ap_sets) == num_aps + num_ues - 1
    return AssociationMap.from_ap_sets(ap_sets, num_aps)


def scene_on_association(assoc, rng, N=1, gamma_u=5.0, off_gain=0.0):
    """Channels live on the association edges; elsewhere ``off_gain``."""
    M, K = assoc.num_aps, assoc.num_ues
    freq = np.sqrt(off_gain) * (rng.standard_normal((M, K, N))
                                + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
    for k in range(K):
        for m in assoc.ap_sets[k]:
            freq[m, k] = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2)
    return equal_power_scene(freq, [np.arange(N)] * K, gamma_u)


def transmit(scene, indices, rng, points="bpsk"):
    """Physical observation y (M, N) for given symbol indices per UE."""
    pts = CONSTELLATIONS[points] if isinstance(points, str) else points
    M, N = scene.num_aps, scene.num_subcarriers
    y = np.sqrt(0.5 / scene.gamma_u) * (rng.standard_normal((M, N))
                                        + 1j * rng.standard_normal((M, N)))
    for k in range(scene.num_ues):
        for i, n in enumerate(scene.subcarriers[k]):
            y[:, n] += np.sqrt(scene.power[k][i]) * scene.freq[:, k, n] * pts[indices[k][i]]
    return y


def random_loopy(num_aps, num_ues, rng):
    """Every UE on a random nonempty AP subset: two UEs sharing two APs
    close a cycle."""
    return AssociationMap.from_ap_sets(
        [rng.choice(num_aps, size=int(rng.integers(1, num_aps + 1)),
                    replace=False) for _ in range(num_ues)], num_aps)


def random_case(assoc, rng, points, N=1):
    Q = len(CONSTELLATIONS[points])
    scene = scene_on_association(assoc, rng, N=N,
                                 gamma_u=float(rng.uniform(0.5, 5.0)))
    idx = [rng.integers(Q, size=N) for _ in range(assoc.num_ues)]
    return scene, transmit(scene, idx, rng, points)


def assert_matches_oracle(scene, assoc, y, cfg, bit_identical=False):
    """Same decisions, iterations and convergence as the dict-keyed
    oracle, and marginals within the rounding bound, for every round
    bound r from 0 to ``cfg.max_iterations``: the run stopped at round r
    checks that round's beliefs."""
    for r in range(cfg.max_iterations + 1):
        bounded = dataclasses.replace(cfg, max_iterations=r)
        got = apmp_detect(scene, assoc, y, bounded)
        want = dense_oracles.apmp_detect(scene, assoc, y, bounded)
        assert ((got.iterations, got.converged)
                == (want.iterations, want.converged))
        assert got.undetected == want.undetected
        assert len(got.trace) == len(want.trace)
        for a, b in zip(got.decisions, want.decisions):
            assert (a is None and b is None) or np.array_equal(a, b)
        for a, b in zip(got.marginals, want.marginals):
            if a is None and b is None:
                continue
            if bit_identical:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= MARGINAL_BOUND


def llr_vector(marginal):
    return np.log(marginal) - np.log(marginal[0])


@pytest.mark.parametrize("kwargs", [
    {"llr_clamp": 0.0}, {"llr_clamp": -1.0}, {"tol": -1e-3},
    {"max_iterations": 2.5}, {"max_iterations": -1}, {"damping": 1.0}])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ApmpConfig(**kwargs)


class TestIntrinsic:
    def test_single_ue_bpsk_matched_filter(self):
        h = 0.8 - 0.3j
        gamma_u = 4.0
        scene = UplinkScene(freq=np.array([[[h]]]), subcarriers=[[0]],
                            power=[[1.0]], gamma_u=gamma_u)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        y = np.array([[0.5 + 0.2j]])
        out = intrinsic_llr(scene, assoc, 0, y[0], EXACT)
        msg = out[(0, 0)]
        # log P(+1) - log P(-1) = 4 Re(h* y) / noise_var
        expect = 4.0 * gamma_u * np.real(np.conj(h) * y[0, 0])
        assert msg[0] - msg[1] == pytest.approx(expect, rel=1e-10)

    def test_zero_observation_is_uninformative(self):
        scene = UplinkScene(freq=np.array([[[1.0 + 0j]]]), subcarriers=[[0]],
                            power=[[1.0]], gamma_u=3.0)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        out = intrinsic_llr(scene, assoc, 0, np.array([0.0 + 0j]), EXACT)
        assert np.allclose(out[(0, 0)], 0.0)

    def test_two_ue_llrs_match_enumeration(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gamma_u = 2.5
        freq = h.reshape(1, 2, 1)
        scene = UplinkScene(freq=freq, subcarriers=[[0], [0]],
                            power=[[1.0], [1.0]], gamma_u=gamma_u)
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        y = np.array([0.3 - 0.9j])
        out = intrinsic_llr(scene, assoc, 0, y, EXACT)
        pts = CONSTELLATIONS["bpsk"]
        # independent four-hypothesis enumeration
        for k in range(2):
            post = np.zeros(2)
            for q in range(2):
                terms = []
                for qo in range(2):
                    x = [0, 0]
                    x[k], x[1 - k] = q, qo
                    mean = h[0] * pts[x[0]] + h[1] * pts[x[1]]
                    terms.append(-gamma_u * np.abs(y[0] - mean) ** 2)
                post[q] = np.log(np.sum(np.exp(terms)))
            expect = post - post[0]
            got = out[(k, 0)]
            assert np.allclose(got - got[0], expect, atol=1e-9)

    def test_local_guard_rejects_large_marginalization(self):
        K = 9
        freq = np.ones((1, K, 1), dtype=complex)
        scene = UplinkScene(freq=freq, subcarriers=[[0]] * K,
                            power=[[1.0]] * K, gamma_u=1.0)
        assoc = AssociationMap.from_ap_sets([[0]] * K, num_aps=1)
        with pytest.raises(ValueError, match="local marginalization too large"):
            intrinsic_llr(scene, assoc, 0, np.zeros(1, dtype=complex), EXACT)


class TestDetect:
    def test_singleton_component_is_local_map(self):
        rng = np.random.default_rng(2)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        scene = scene_on_association(assoc, rng)
        y = transmit(scene, [np.array([0])], rng)
        res0 = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=0,
                                                       llr_clamp=1e9))
        res5 = apmp_detect(scene, assoc, y, EXACT)
        intr = intrinsic_llr(scene, assoc, 0, y[0], EXACT)
        local_map = int(np.argmax(intr[(0, 0)]))
        assert res0.decisions[0][0] == local_map
        assert res5.decisions[0][0] == local_map

    def test_zero_iterations_equal_intrinsic_decisions(self):
        rng = np.random.default_rng(3)
        assoc = random_bipartite_tree(3, 3, rng)
        scene = scene_on_association(assoc, rng)
        idx = [np.array([int(rng.integers(2))]) for _ in range(3)]
        y = transmit(scene, idx, rng)
        res = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=0,
                                                      llr_clamp=1e9))
        for k in range(3):
            designated = min(assoc.ap_sets[k])
            intr = intrinsic_llr(scene, assoc, designated, y[designated], EXACT)
            assert res.decisions[k][0] == int(np.argmax(intr[(k, 0)]))

    def test_exact_on_random_trees(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            M = int(rng.integers(2, 6))
            K = int(rng.integers(1, 5))
            assoc = random_bipartite_tree(M, K, rng)
            scene = scene_on_association(assoc, rng, gamma_u=5.0)
            idx = [np.array([int(rng.integers(2))]) for _ in range(K)]
            y = transmit(scene, idx, rng)
            res = apmp_detect(scene, assoc, y, EXACT)
            graph = build_factor_graph(assoc)
            for comp in graph.components:
                exact = map_oracle(scene, assoc, comp, y)
                for k in comp[1]:
                    got = llr_vector(res.marginals[k][0])
                    want = llr_vector(exact[(k, 0)])
                    assert np.max(np.abs(got - want)) < 1e-6

    def test_component_independence(self):
        rng = np.random.default_rng(5)
        # two disjoint 2-AP/2-UE blocks sharing the band
        ap_sets = [[0, 1], [0, 1], [2, 3], [2, 3]]
        assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=4)
        scene = scene_on_association(assoc, rng, gamma_u=4.0)
        idx = [np.array([int(rng.integers(2))]) for _ in range(4)]
        y = transmit(scene, idx, rng)
        full = apmp_detect(scene, assoc, y, EXACT)
        # re-run with only the first component associated
        alone = AssociationMap.from_ap_sets([[0, 1], [0, 1], [], []], num_aps=4)
        part = apmp_detect(scene, alone, y, EXACT)
        for k in (0, 1):
            assert np.allclose(full.marginals[k], part.marginals[k], atol=1e-12)
        assert part.undetected == {2, 3}

    def test_extrinsic_self_exclusion(self):
        rng = np.random.default_rng(6)
        # APs 0 and 1 share UE 0; each also serves a private UE.  Weak
        # evidence keeps the log-domain sums away from saturation so the
        # cross-UE dependence stays numerically visible.
        assoc = AssociationMap.from_ap_sets([[0, 1], [0], [1]], num_aps=2)
        scene = scene_on_association(assoc, rng, gamma_u=0.5)
        idx = [np.array([int(rng.integers(2))]) for _ in range(3)]
        y = transmit(scene, idx, rng)
        cfg = ApmpConfig(max_iterations=5, llr_clamp=1e9)
        index = EdgeIndex(scene, assoc, cfg.points)
        e = edge_lookup(index)
        r1 = message_round(index, y, None, cfg)
        # perturb what AP 0 received from AP 1 about the shared UE
        perturbed = r1.copy()
        perturbed[e[(1, 0, 0)]] = perturbed[e[(1, 0, 0)]] + np.array([0.0, 2.0])
        out = message_round(index, y, r1, cfg)
        out_p = message_round(index, y, perturbed, cfg)
        # AP 0's same-round message about UE 0 must not move
        assert np.allclose(out[e[(0, 0, 0)]], out_p[e[(0, 0, 0)]], atol=1e-12)
        # but its message about its private UE 1 legitimately does
        assert np.max(np.abs(out[e[(0, 1, 0)]] - out_p[e[(0, 1, 0)]])) > 1e-6

    def test_deterministic_given_inputs(self):
        rng = np.random.default_rng(7)
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        scene = scene_on_association(assoc, rng, gamma_u=4.0)
        y = transmit(scene, [np.array([0]), np.array([1])], rng)
        cfg = ApmpConfig(max_iterations=10, damping=0.2)
        a = apmp_detect(scene, assoc, y, cfg)
        b = apmp_detect(scene, assoc, y, cfg)
        assert all(np.array_equal(x, z) for x, z in zip(a.decisions, b.decisions))
        assert all(np.array_equal(x, z) for x, z in zip(a.marginals, b.marginals))

    def test_message_passing_reduces_ser_on_loopy_scenes(self):
        rng = np.random.default_rng(8)
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        err_intrinsic = err_apmp = 0
        trials = 1000
        for _ in range(trials):
            scene = scene_on_association(assoc, rng, gamma_u=2.0)
            idx = [np.array([int(rng.integers(2))]) for _ in range(2)]
            y = transmit(scene, idx, rng)
            r0 = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=0))
            r1 = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=8,
                                                         damping=0.1))
            for k in range(2):
                err_intrinsic += int(r0.decisions[k][0] != idx[k][0])
                err_apmp += int(r1.decisions[k][0] != idx[k][0])
        assert err_apmp <= err_intrinsic

    def test_ser_non_increasing_in_iterations_on_trees(self):
        rng = np.random.default_rng(40)
        iters = [0, 1, 2, 5, 10]
        errors = {i: 0 for i in iters}
        trials = 300
        for _ in range(trials):
            assoc = random_bipartite_tree(4, 3, rng)
            scene = scene_on_association(assoc, rng, gamma_u=1.5)
            idx = [np.array([int(rng.integers(2))]) for _ in range(3)]
            y = transmit(scene, idx, rng)
            for it in iters:
                res = apmp_detect(scene, assoc, y,
                                  ApmpConfig(max_iterations=it))
                for k in range(3):
                    errors[it] += int(res.decisions[k][0] != idx[k][0])
        sers = [errors[i] / (trials * 3) for i in iters]
        assert all(b <= a + 1e-12 for a, b in zip(sers, sers[1:]))
        assert sers[-1] < sers[0]

    def test_multi_subcarrier_slots_factorize(self):
        rng = np.random.default_rng(9)
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        scene = scene_on_association(assoc, rng, N=2, gamma_u=4.0)
        idx = [np.array([0, 1]), np.array([1, 0])]
        y = transmit(scene, idx, rng)
        res = apmp_detect(scene, assoc, y, EXACT)
        # solving each subcarrier alone gives the same marginals
        for n in range(2):
            sub_scene = UplinkScene(freq=scene.freq[:, :, n:n + 1],
                                    subcarriers=[[0], [0]],
                                    power=[[0.5], [0.5]], gamma_u=4.0)
            sub = apmp_detect(sub_scene, assoc, y[:, n:n + 1], EXACT)
            for k in range(2):
                assert np.allclose(res.marginals[k][n], sub.marginals[k][0],
                                   atol=1e-9)


class TestOracle:
    def test_single_ue_equals_intrinsic_posterior(self):
        rng = np.random.default_rng(10)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        scene = scene_on_association(assoc, rng)
        y = transmit(scene, [np.array([1])], rng)
        exact = map_oracle(scene, assoc, (frozenset({0}), frozenset({0})), y)
        intr = intrinsic_llr(scene, assoc, 0, y[0], EXACT)[(0, 0)]
        p = np.exp(intr - intr.max())
        assert np.allclose(exact[(0, 0)], p / p.sum(), atol=1e-12)

    def test_symmetric_ues_get_symmetric_marginals(self):
        h = 0.9 + 0.2j
        freq = np.array([[[h], [h]]])
        scene = UplinkScene(freq=freq, subcarriers=[[0], [0]],
                            power=[[1.0], [1.0]], gamma_u=2.0)
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        y = np.array([[0.1 - 0.4j]])
        exact = map_oracle(scene, assoc, (frozenset({0}), frozenset({0, 1})), y)
        assert np.allclose(exact[(0, 0)], exact[(1, 0)], atol=1e-12)

    def test_marginals_normalized_and_ml_recovered_noiselessly(self):
        rng = np.random.default_rng(11)
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1], [1]], num_aps=2)
        scene = scene_on_association(assoc, rng, gamma_u=200.0)
        idx = [np.array([int(rng.integers(2))]) for _ in range(3)]
        pts = CONSTELLATIONS["bpsk"]
        y = np.zeros((2, 1), dtype=complex)
        for k in range(3):
            y[:, 0] += np.sqrt(scene.power[k][0]) * scene.freq[:, k, 0] * pts[idx[k][0]]
        exact = map_oracle(scene, assoc,
                           (frozenset({0, 1}), frozenset({0, 1, 2})), y)
        for k in range(3):
            p = exact[(k, 0)]
            assert p.sum() == pytest.approx(1.0)
            assert int(np.argmax(p)) == idx[k][0]

    def test_guard_rejects_huge_state_space(self):
        K = 11
        freq = np.ones((1, K, 1), dtype=complex)
        scene = UplinkScene(freq=freq, subcarriers=[[0]] * K,
                            power=[[1.0]] * K, gamma_u=1.0)
        assoc = AssociationMap.from_ap_sets([[0]] * K, num_aps=1)
        with pytest.raises(ValueError, match="state space too large"):
            map_oracle(scene, assoc, (frozenset({0}), frozenset(range(K))),
                       np.zeros((1, 1), dtype=complex), points="qpsk")


class TestDegenerateGraphs:
    def test_empty_graph_gives_empty_result(self):
        freq = np.ones((2, 2, 1), dtype=complex)
        scene = UplinkScene(freq=freq, subcarriers=[[0], [0]],
                            power=[[1.0], [1.0]], gamma_u=1.0)
        assoc = AssociationMap.from_ap_sets([[], []], num_aps=2)
        res = apmp_detect(scene, assoc, np.zeros((2, 1), dtype=complex),
                          ApmpConfig(max_iterations=5))
        assert res.undetected == {0, 1}
        assert res.decisions == [None, None]
        assert res.marginals == [None, None]

    def test_disconnected_ue_flagged_among_detected(self):
        rng = np.random.default_rng(33)
        assoc = AssociationMap.from_ap_sets([[0], []], num_aps=1)
        scene = scene_on_association(assoc, rng)
        y = transmit(scene, [np.array([1]), np.array([0])], rng)
        res = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=2))
        assert res.undetected == {1}
        assert res.decisions[0] is not None
        assert res.decisions[1] is None


class TestAgainstDictOracle:
    """The edge-index rounds against the dict-keyed message passing they
    replaced (``dense_oracles.apmp_detect``)."""

    @pytest.mark.parametrize("points", ["bpsk", "qpsk"])
    def test_random_trees(self, points):
        rng = np.random.default_rng(50)
        for _ in range(100):
            assoc = random_bipartite_tree(int(rng.integers(2, 6)),
                                          int(rng.integers(1, 5)), rng)
            scene, y = random_case(assoc, rng, points,
                                   N=int(rng.integers(1, 3)))
            cfg = ApmpConfig(max_iterations=int(rng.integers(0, 15)),
                             tol=float(rng.choice([1e-4, 1e-13])),
                             points=points,
                             llr_clamp=float(rng.choice([50.0, 1e9])))
            assert_matches_oracle(scene, assoc, y, cfg)

    @pytest.mark.parametrize("points", ["bpsk", "qpsk"])
    def test_loopy_damped(self, points):
        rng = np.random.default_rng(51)
        for _ in range(100):
            assoc = random_loopy(int(rng.integers(2, 5)),
                                 int(rng.integers(2, 5)), rng)
            scene, y = random_case(assoc, rng, points,
                                   N=int(rng.integers(1, 3)))
            cfg = ApmpConfig(max_iterations=int(rng.integers(1, 15)),
                             damping=float(rng.choice([0.0, 0.1, 0.5])),
                             points=points)
            assert_matches_oracle(scene, assoc, y, cfg)

    def test_zero_iterations_and_trace(self):
        rng = np.random.default_rng(52)
        for it in (0, 0, 3, 8):
            assoc = random_loopy(3, 3, rng)
            scene, y = random_case(assoc, rng, "bpsk", N=2)
            cfg = ApmpConfig(max_iterations=it, tol=0.0, damping=0.2)
            assert_matches_oracle(scene, assoc, y, cfg)

    @pytest.mark.parametrize("points", ["bpsk", "qpsk"])
    def test_exclusive_subcarriers_are_bit_identical(self, points):
        # one UE per subcarrier: every factor has degree 1
        rng = np.random.default_rng(53)
        for _ in range(40):
            M, K = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            assoc = random_loopy(M, K, rng)
            Q = len(CONSTELLATIONS[points])
            freq = (rng.standard_normal((M, K, 2 * K))
                    + 1j * rng.standard_normal((M, K, 2 * K))) / np.sqrt(2)
            scene = UplinkScene(freq=freq,
                                subcarriers=[[2 * k, 2 * k + 1] for k in range(K)],
                                power=[[0.5, 0.5]] * K, gamma_u=3.0)
            y = transmit(scene, [rng.integers(Q, size=2) for _ in range(K)],
                         rng, points)
            cfg = ApmpConfig(max_iterations=int(rng.integers(0, 10)),
                             damping=float(rng.choice([0.0, 0.3])),
                             points=points)
            assert_matches_oracle(scene, assoc, y, cfg, bit_identical=True)

    def test_empty_and_disconnected_graphs(self):
        rng = np.random.default_rng(54)
        for ap_sets in ([[], []], [[0], []], [[], [1]], [[0, 1], [], [1]]):
            assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=2)
            scene, y = random_case(assoc, rng, "bpsk")
            for it in (0, 4):
                assert_matches_oracle(scene, assoc, y,
                                      ApmpConfig(max_iterations=it))


def random_assignment(assoc, rng, N):
    """Random channels, each UE on a random (possibly empty) sorted subset
    of N subcarriers with random powers: UEs sharing an AP and a
    subcarrier make factors of degree > 1."""
    M, K = assoc.num_aps, assoc.num_ues
    subs = [np.sort(rng.choice(N, size=int(rng.integers(0, N + 1)),
                               replace=False)) for _ in range(K)]
    freq = (rng.standard_normal((M, K, N))
            + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
    return UplinkScene(freq=freq, subcarriers=subs,
                       power=[rng.random(len(s)) / len(s) if len(s) else []
                              for s in subs],
                       gamma_u=float(rng.uniform(0.5, 5.0)))


def assert_same_index(scene, assoc, points):
    """The array-built index equals the dict-built one bit for bit: edge
    order and lookups, symbol rows, designated edges, per-UE rows, the
    undetected UEs, sibling table and every degree group.  Returns the
    largest factor degree."""
    got = EdgeIndex(scene, assoc, points)
    want = dense_oracles.EdgeIndex(scene, assoc, points)
    assert edge_lookup(got) == want.edge
    assert got.slots == want.slots
    assert got.ue_rows == want.ue_rows
    assert got.undetected == want.undetected
    arrays = [(got.slot, want.slot), (got.designated, want.designated),
              (got.siblings, want.siblings)]
    assert len(got.groups) == len(want.groups)
    for (edges, (m, n), mean, table), (edges0, (m0, n0), mean0, table0) \
            in zip(got.groups, want.groups):
        arrays += [(edges, edges0), (m, m0), (n, n0), (mean, mean0),
                   (table, table0)]
    for a, b in arrays:
        assert a.shape == b.shape and np.array_equal(a, b)
    return max((edges.shape[1] for edges, *_ in got.groups), default=0)


class TestIndexAgainstDictBuild:
    """The edge index read off the incidence array against the dict-built
    index it replaced (``dense_oracles.EdgeIndex``)."""

    @pytest.mark.parametrize("points", ["bpsk", "qpsk"])
    def test_random_trees(self, points):
        rng = np.random.default_rng(60)
        for _ in range(100):
            assoc = random_bipartite_tree(int(rng.integers(2, 6)),
                                          int(rng.integers(1, 5)), rng)
            assert_same_index(random_assignment(assoc, rng,
                                                int(rng.integers(1, 5))),
                              assoc, points)

    @pytest.mark.parametrize("points", ["bpsk", "qpsk"])
    def test_loopy_graphs_with_shared_factors(self, points):
        rng = np.random.default_rng(61)
        degrees = set()
        for _ in range(100):
            assoc = random_loopy(int(rng.integers(2, 5)),
                                 int(rng.integers(2, 5)), rng)
            degrees.add(assert_same_index(
                random_assignment(assoc, rng, int(rng.integers(1, 5))),
                assoc, points))
        assert max(degrees) >= 3

    def test_undetected_ues(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            M, K = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            # every UE on a random, possibly empty, AP subset
            assoc = AssociationMap.from_ap_sets(
                [np.flatnonzero(rng.random(M) < 0.4) for _ in range(K)], M)
            assert_same_index(random_assignment(assoc, rng,
                                                int(rng.integers(1, 4))),
                              assoc, "bpsk")

    def test_empty_graphs(self):
        rng = np.random.default_rng(63)
        for ap_sets in ([[], []], [[0], []], [[], [1]], [[0, 1], [], [1]]):
            assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=2)
            assert_same_index(random_assignment(assoc, rng, 2), assoc, "qpsk")
        # associated UEs without subcarriers give no edge either
        assoc = AssociationMap.from_ap_sets([[0, 1], [1]], num_aps=2)
        scene = UplinkScene(freq=np.ones((2, 2, 3)), subcarriers=[[], []],
                            power=[[], []], gamma_u=1.0)
        assert assert_same_index(scene, assoc, "bpsk") == 0
        assert EdgeIndex(scene, assoc).siblings.shape == (0, 0)

    def test_local_guard_applies_to_both(self):
        assoc = AssociationMap.from_ap_sets([[0]] * 5, num_aps=1)
        scene = equal_power_scene(np.ones((1, 5, 1)), [np.arange(1)] * 5, 1.0)
        for build in (EdgeIndex, dense_oracles.EdgeIndex):
            with pytest.raises(ValueError, match="local marginalization"):
                build(scene, assoc, "qpsk")


def assert_batch_matches_singles(scene, assoc, ys, cfg):
    """A (D, M, N) stack detected at once gives every draw the decisions,
    iteration count and marginals of a single-observation call."""
    got = apmp_detect(scene, assoc, ys, cfg)
    singles = [apmp_detect(scene, assoc, y, cfg) for y in ys]
    rounds = [r.iterations for r in singles]
    assert got.draw_iterations.tolist() == rounds
    assert got.iterations == max(rounds, default=0)
    assert got.converged == all(r.converged for r in singles)
    assert isinstance(got.iterations, int) and isinstance(got.converged, bool)
    assert got.undetected == singles[0].undetected
    for k in range(scene.num_ues):
        if singles[0].decisions[k] is None:
            assert got.decisions[k] is None and got.marginals[k] is None
            continue
        assert got.decisions[k].shape == (len(ys),) + singles[0].decisions[k].shape
        assert got.marginals[k].shape == (len(ys),) + singles[0].marginals[k].shape
        for d, r in enumerate(singles):
            assert np.array_equal(got.decisions[k][d], r.decisions[k])
            assert np.max(np.abs(got.marginals[k][d] - r.marginals[k])) \
                <= MARGINAL_BOUND
    return got.draw_iterations


class TestDrawBatch:
    """apmp_detect on a (D, M, N) stack against D single calls."""

    @pytest.mark.parametrize("points", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("graph", ["tree", "loopy"])
    def test_stack_equals_single_calls(self, points, graph):
        rng = np.random.default_rng(60)
        Q = len(CONSTELLATIONS[points])
        spread = False
        for _ in range(40):
            M, K = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            assoc = (random_bipartite_tree(M, K, rng) if graph == "tree"
                     else random_loopy(M, K, rng))
            N = int(rng.integers(1, 3))
            scene = scene_on_association(assoc, rng, N=N,
                                         gamma_u=float(rng.uniform(0.5, 5.0)))
            ys = np.stack([transmit(scene, [rng.integers(Q, size=N)
                                            for _ in range(K)], rng, points)
                           for _ in range(6)])
            cfg = ApmpConfig(max_iterations=int(rng.integers(0, 12)),
                             tol=float(rng.choice([1e-1, 1e-3, 1e-6])),
                             damping=float(rng.choice([0.0, 0.3])),
                             points=points)
            rounds = assert_batch_matches_singles(scene, assoc, ys, cfg)
            spread |= len(set(rounds.tolist())) > 1
        # some draws stopped while others of their stack ran on
        assert spread

    def test_zero_iterations(self):
        rng = np.random.default_rng(61)
        assoc = random_loopy(3, 3, rng)
        scene = scene_on_association(assoc, rng, N=2)
        ys = np.stack([transmit(scene, [rng.integers(2, size=2)
                                        for _ in range(3)], rng)
                       for _ in range(4)])
        rounds = assert_batch_matches_singles(
            scene, assoc, ys, ApmpConfig(max_iterations=0, damping=0.3))
        assert rounds.tolist() == [0] * 4

    def test_empty_and_disconnected_graphs(self):
        rng = np.random.default_rng(62)
        for ap_sets in ([[], []], [[0], []], [[], [1]], [[0, 1], [], [1]]):
            assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=2)
            scene = scene_on_association(assoc, rng)
            ys = np.stack([transmit(scene, [rng.integers(2, size=1)
                                            for _ in ap_sets], rng)
                           for _ in range(3)])
            for it in (0, 4):
                assert_batch_matches_singles(scene, assoc, ys,
                                             ApmpConfig(max_iterations=it))

    def test_single_observation_keeps_its_shapes(self):
        rng = np.random.default_rng(63)
        assoc = random_loopy(3, 2, rng)
        scene, y = random_case(assoc, rng, "qpsk", N=2)
        res = apmp_detect(scene, assoc, y, ApmpConfig(points="qpsk"))
        assert [d.shape for d in res.decisions] == [(2,), (2,)]
        assert [p.shape for p in res.marginals] == [(2, 4), (2, 4)]
        assert res.draw_iterations.tolist() == [res.iterations]
