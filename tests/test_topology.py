import numpy as np
import pytest

from uccfsim.topology import (AssociationMap, NetworkTopology,
                              associate_distance, associate_large_scale,
                              build_factor_graph, generate_topology)


def line_topology(ap_xs, ue_xs, **kw):
    ap = np.column_stack([ap_xs, np.zeros(len(ap_xs))])
    ue = np.column_stack([ue_xs, np.zeros(len(ue_xs))])
    return NetworkTopology(ap_positions=ap, ue_positions=ue, **kw)


class TestDistanceAssociation:
    def test_threshold_keeps_only_near_aps(self):
        topo = line_topology([50.0, 120.0, 200.0], [0.0])
        assoc = associate_distance(topo, radius=100.0)
        assert assoc.ap_sets[0] == (0,)

    def test_colocated_ap_always_included(self):
        topo = line_topology([0.0, 300.0], [0.0])
        assoc = associate_distance(topo, radius=1.0)
        assert 0 in assoc.ap_sets[0]

    def test_fallback_to_nearest_when_feasible(self):
        topo = line_topology([500.0, 800.0], [0.0])
        assoc = associate_distance(topo, radius=100.0)
        assert assoc.ap_sets[0] == (0,)
        assert assoc.ue_sets == ((0,), ())

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        topo = generate_topology(8, 5, area_size=400.0, rng=rng)
        small = associate_distance(topo, radius=120.0)
        large = associate_distance(topo, radius=250.0)
        for k in range(5):
            assert set(small.ap_sets[k]) <= set(large.ap_sets[k])

    def test_rejects_bad_radius(self):
        topo = line_topology([10.0], [0.0])
        with pytest.raises(ValueError):
            associate_distance(topo, radius=0.0)


class TestLargeScaleAssociation:
    def test_max_count_takes_top_gains(self):
        gains = np.array([[0.9], [0.5], [0.1]])
        assoc = associate_large_scale(gains, max_count=2)
        assert assoc.ap_sets[0] == (0, 1)

    def test_threshold_filters(self):
        gains = np.array([[0.9], [0.5], [0.1]])
        assoc = associate_large_scale(gains, min_gain=0.4)
        assert assoc.ap_sets[0] == (0, 1)

    def test_tie_breaks_to_lowest_index(self):
        gains = np.full((4, 1), 0.3)
        assoc = associate_large_scale(gains, max_count=1)
        assert assoc.ap_sets[0] == (0,)

    def test_requires_stop_rule(self):
        with pytest.raises(ValueError, match="no stop condition"):
            associate_large_scale(np.ones((2, 2)))

    def test_all_below_threshold_disconnects(self):
        gains = np.array([[0.01], [0.02]])
        assoc = associate_large_scale(gains, min_gain=0.5)
        assert assoc.ap_sets == ((),)
        assert assoc.ue_sets == ((), ())


class TestConsistency:
    def test_bidirectional_after_every_association(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            topo = generate_topology(6, 4, area_size=300.0, rng=rng)
            a1 = associate_distance(topo, radius=150.0)
            a1.validate()
            gains = rng.uniform(0.0, 1.0, size=(6, 4))
            a2 = associate_large_scale(gains, max_count=3)
            a2.validate()

    def test_zeta_matches_sets(self):
        assoc = AssociationMap.from_ap_sets([[0], [0, 1], [2]], num_aps=3)
        z = assoc.zeta()
        assert z.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]


class TestFactorGraph:
    def test_two_components_from_three_ues(self):
        assoc = AssociationMap.from_ap_sets([[0], [0, 1], [2]], num_aps=3)
        graph = build_factor_graph(assoc)
        comps = {(tuple(sorted(a)), tuple(sorted(u))) for a, u in graph.components}
        assert comps == {((0, 1), (0, 1)), ((2,), (2,))}

    def test_idle_ap_is_isolated(self):
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=2)
        graph = build_factor_graph(assoc)
        assert graph.idle_aps == {1}
        assert all(1 not in aps for aps, _ in graph.components)

    def test_singleton_component(self):
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        graph = build_factor_graph(assoc)
        assert graph.components == ((frozenset({0}), frozenset({0})),)

    def test_edges_partitioned_by_components(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            M, K = rng.integers(2, 9), rng.integers(2, 7)
            gains = rng.uniform(size=(M, K))
            assoc = associate_large_scale(gains, max_count=int(rng.integers(1, 4)))
            graph = build_factor_graph(assoc)
            assert set(graph.edges) == {(m, k) for k in range(K)
                                        for m in assoc.ap_sets[k]}
            for m, k in graph.edges:
                hits = [c for c in graph.components if m in c[0] and k in c[1]]
                assert len(hits) == 1

    def test_adjacency_iff_shared_ue(self):
        rng = np.random.default_rng(19)
        for trial in range(15):
            M, K = int(rng.integers(2, 13)), int(rng.integers(2, 7))
            gains = rng.uniform(size=(M, K))
            assoc = associate_large_scale(gains, max_count=2)
            graph = build_factor_graph(assoc)
            for i in range(M):
                for j in range(M):
                    if i == j:
                        continue
                    shared = set(assoc.ue_sets[i]) & set(assoc.ue_sets[j])
                    assert (j in graph.ap_adjacency[i]) == bool(shared)

    def test_multi_component_layout_with_idle_ap(self):
        # 9 APs, 12 UEs, three edge-bearing components with FN sets
        # {0,1,2}, {3,4,6,7}, {5}; AP 8 idle.
        ap_sets = [[0], [0, 1], [1, 2], [2], [3], [3, 4], [4, 6], [6, 7],
                   [5], [7], [7], [6]]
        assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=9)
        graph = build_factor_graph(assoc)
        fn_sets = sorted(tuple(sorted(a)) for a, _ in graph.components)
        assert fn_sets == [(0, 1, 2), (3, 4, 6, 7), (5,)]
        assert graph.idle_aps == {8}


class TestTopologyGeneration:
    def test_grid_layout_inside_area(self):
        topo = generate_topology(9, 3, area_size=300.0, layout="grid", rng=0)
        assert topo.ap_positions.shape == (9, 2)
        assert np.all(topo.ap_positions >= 0) and np.all(topo.ap_positions <= 300)

    def test_seed_reproducibility(self):
        t1 = generate_topology(5, 4, rng=42)
        t2 = generate_topology(5, 4, rng=42)
        assert np.array_equal(t1.ap_positions, t2.ap_positions)
        assert np.array_equal(t1.ue_positions, t2.ue_positions)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            NetworkTopology(ap_positions=np.zeros((0, 2)),
                            ue_positions=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            NetworkTopology(ap_positions=[[0.0, 0.0]],
                            ue_positions=[[np.inf, 0.0]])
        with pytest.raises(ValueError):
            NetworkTopology(ap_positions=[[0.0, 0.0]],
                            ue_positions=[[1.0, 0.0]], noise_variance=0.0)
