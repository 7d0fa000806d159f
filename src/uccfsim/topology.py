"""AP/UE geometry, user association, and the AP-UE factor graph.

APs and UEs live in a 2-D plane; antenna heights only matter inside the
pathloss formulas.  Association produces per-UE AP sets and per-AP UE sets
that stay bidirectionally consistent; a UE that no AP serves has an empty
AP set.  The factor graph built from an association decomposes the
network into independent components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NetworkTopology:
    """AP/UE positions plus the radio parameters shared by all links."""

    ap_positions: np.ndarray          # (M, 2) meters
    ue_positions: np.ndarray          # (K, 2) meters
    max_ue_power: float = 0.1         # watts
    noise_variance: float = 1e-12     # watts

    def __post_init__(self):
        ap = np.atleast_2d(np.asarray(self.ap_positions, dtype=float))
        ue = np.atleast_2d(np.asarray(self.ue_positions, dtype=float))
        object.__setattr__(self, "ap_positions", ap)
        object.__setattr__(self, "ue_positions", ue)
        if ap.shape[0] < 1 or ue.shape[0] < 1:
            raise ValueError("need at least one AP and one UE")
        if ap.shape[1] != 2 or ue.shape[1] != 2:
            raise ValueError("positions must be 2-D coordinates")
        if not (np.all(np.isfinite(ap)) and np.all(np.isfinite(ue))):
            raise ValueError("positions must be finite")
        for name in ("max_ue_power", "noise_variance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def num_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def num_ues(self) -> int:
        return self.ue_positions.shape[0]

    def distances(self) -> np.ndarray:
        """AP-to-UE distance matrix, shape (M, K)."""
        diff = self.ap_positions[:, None, :] - self.ue_positions[None, :, :]
        return np.linalg.norm(diff, axis=-1)


def generate_topology(num_aps, num_ues, area_size=500.0, layout="uniform",
                      rng=None, **radio) -> NetworkTopology:
    """Drop APs (uniform-random or regular-grid) and UEs (uniform) in a square.

    ``radio`` forwards keyword overrides such as ``noise_variance`` to the
    :class:`NetworkTopology` constructor.
    """
    rng = np.random.default_rng(rng)
    if layout == "uniform":
        ap = rng.uniform(0.0, area_size, size=(num_aps, 2))
    elif layout == "grid":
        side = int(np.ceil(np.sqrt(num_aps)))
        step = area_size / side
        xs = (np.arange(side) + 0.5) * step
        grid = np.array([(x, y) for y in xs for x in xs])
        ap = grid[:num_aps]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    ue = rng.uniform(0.0, area_size, size=(num_ues, 2))
    return NetworkTopology(ap_positions=ap, ue_positions=ue, **radio)


@dataclass(frozen=True)
class AssociationMap:
    """Per-UE AP sets and per-AP UE sets, kept mutually consistent."""

    ap_sets: tuple            # ap_sets[k] = sorted tuple of APs serving UE k
    ue_sets: tuple            # ue_sets[m] = sorted tuple of UEs served by AP m

    @classmethod
    def from_ap_sets(cls, ap_sets, num_aps) -> "AssociationMap":
        ue_sets = [[] for _ in range(num_aps)]
        clean = []
        for k, aps in enumerate(ap_sets):
            aps = sorted(set(int(m) for m in aps))
            if aps and (aps[0] < 0 or aps[-1] >= num_aps):
                raise ValueError(f"AP index out of range for UE {k}")
            clean.append(tuple(aps))
            for m in aps:
                ue_sets[m].append(k)
        return cls(ap_sets=tuple(clean),
                   ue_sets=tuple(tuple(u) for u in ue_sets))

    @property
    def num_aps(self) -> int:
        return len(self.ue_sets)

    @property
    def num_ues(self) -> int:
        return len(self.ap_sets)

    def zeta(self) -> np.ndarray:
        """Binary association matrix, shape (M, K)."""
        z = np.zeros((self.num_aps, self.num_ues), dtype=int)
        for k, aps in enumerate(self.ap_sets):
            z[list(aps), k] = 1
        return z

    def validate(self):
        """Check the bidirectional consistency  m in M_k  <=>  k in K_m."""
        for k, aps in enumerate(self.ap_sets):
            for m in aps:
                if k not in self.ue_sets[m]:
                    raise ValueError(f"UE {k} lists AP {m} but not vice versa")
        for m, ues in enumerate(self.ue_sets):
            for k in ues:
                if m not in self.ap_sets[k]:
                    raise ValueError(f"AP {m} lists UE {k} but not vice versa")


def associate_distance(topology: NetworkTopology,
                       radius: float) -> AssociationMap:
    """Associate each UE with every AP within ``radius`` meters.

    A UE with no AP inside the radius falls back to its nearest AP, ties
    toward the lower AP index.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = topology.distances()
    ap_sets = []
    for k in range(topology.num_ues):
        inside = np.flatnonzero(d[:, k] <= radius)
        ap_sets.append(inside.tolist() if inside.size
                       else [int(np.argmin(d[:, k]))])
    return AssociationMap.from_ap_sets(ap_sets, topology.num_aps)


def associate_large_scale(gains: np.ndarray, max_count=None,
                          min_gain=None) -> AssociationMap:
    """Associate each UE with its strongest APs by large-scale gain.

    APs are taken in descending gain order (ties to the lower AP index)
    until a stop rule fires: at most ``max_count`` APs, or gain dropping
    below ``min_gain``.  At least one rule must be given.  A UE whose
    strongest gain is below ``min_gain`` gets an empty AP set.
    """
    if max_count is None and min_gain is None:
        raise ValueError("no stop condition: give max_count and/or min_gain")
    gains = np.asarray(gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("gains must be nonnegative")
    num_aps, num_ues = gains.shape
    ap_sets = []
    for k in range(num_ues):
        # stable sort on -gain keeps the lower index first on ties
        order = np.argsort(-gains[:, k], kind="stable")
        chosen = []
        for m in order:
            if min_gain is not None and gains[m, k] < min_gain:
                break
            chosen.append(int(m))
            if max_count is not None and len(chosen) >= max_count:
                break
        ap_sets.append(chosen)
    return AssociationMap.from_ap_sets(ap_sets, num_aps)


@dataclass(frozen=True)
class FactorGraph:
    """Bipartite AP (function node) / UE (variable node) graph."""

    edges: tuple                      # tuple of (ap, ue) pairs
    components: tuple                 # tuple of (frozenset aps, frozenset ues)
    ap_adjacency: dict = field(default_factory=dict)
    idle_aps: frozenset = frozenset() # no associated UEs; switchable off


def build_factor_graph(assoc: AssociationMap) -> FactorGraph:
    """Build the AP-UE factor graph and its connected components.

    Components cover every edge exactly once; APs without UEs appear only
    in ``idle_aps``.  Two APs are adjacent iff they share at least one UE.
    """
    assoc.validate()
    M, K = assoc.num_aps, assoc.num_ues
    edges = tuple((m, k) for k in range(K) for m in assoc.ap_sets[k])

    adjacency = {m: set() for m in range(M)}
    for i in range(M):
        for j in range(i + 1, M):
            if set(assoc.ue_sets[i]) & set(assoc.ue_sets[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)

    # BFS over the bipartite graph; only edge-bearing nodes join components
    seen_ap, seen_ue = set(), set()
    components = []
    for k0 in range(K):
        if k0 in seen_ue or not assoc.ap_sets[k0]:
            continue
        comp_ues, comp_aps = set(), set()
        stack = [("ue", k0)]
        while stack:
            kind, idx = stack.pop()
            if kind == "ue":
                if idx in comp_ues:
                    continue
                comp_ues.add(idx)
                stack.extend(("ap", m) for m in assoc.ap_sets[idx])
            else:
                if idx in comp_aps:
                    continue
                comp_aps.add(idx)
                stack.extend(("ue", k) for k in assoc.ue_sets[idx])
        seen_ue |= comp_ues
        seen_ap |= comp_aps
        components.append((frozenset(comp_aps), frozenset(comp_ues)))

    idle = frozenset(m for m in range(M) if not assoc.ue_sets[m])
    return FactorGraph(edges=edges, components=tuple(components),
                       ap_adjacency={m: frozenset(a) for m, a in adjacency.items()},
                       idle_aps=idle)
