# Message-passing detection on the AP-UE factor graph: exact on trees,
# near-optimal on loopy graphs, and strictly better than intrinsic-only
# decisions.
#
# Run: python demos/05_apmp_detection.py

from itertools import product

import numpy as np

from uccfsim.apmp import ApmpConfig, apmp_detect
from uccfsim.modulation import CONSTELLATIONS
from uccfsim.topology import AssociationMap
from uccfsim.uplink import equal_power_scene

rng = np.random.default_rng(5)
pts = CONSTELLATIONS["bpsk"]


def make_scene(ap_sets, M, gamma_u=3.0):
    assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=M)
    K = len(ap_sets)
    freq = np.zeros((M, K, 1), dtype=complex)
    for k in range(K):
        for m in ap_sets[k]:
            freq[m, k, 0] = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    scene = equal_power_scene(freq, [np.arange(1)] * K, gamma_u)
    return scene, assoc


def transmit(scene, symbols):
    y = np.sqrt(0.5 / scene.gamma_u) * (rng.standard_normal((scene.num_aps, 1))
                                        + 1j * rng.standard_normal((scene.num_aps, 1)))
    for k in range(scene.num_ues):
        y[:, 0] += scene.freq[:, k, 0] * pts[symbols[k]]
    return y


print("=== tree-shaped component: message passing is exact ===")
# UE 0 - {AP0, AP1}, UE 1 - {AP1, AP2}: a 5-node chain, no cycles
scene, assoc = make_scene([[0, 1], [1, 2]], M=3)
sent = [rng.integers(2) for _ in range(2)]
y = transmit(scene, sent)
cfg = ApmpConfig(max_iterations=20, tol=1e-12, llr_clamp=1e9)
res = apmp_detect(scene, assoc, y, cfg)
# exact posterior marginals: enumerate every joint decision of the 2 UEs
combos = np.array(list(product(range(2), repeat=2)))
loglik = -scene.gamma_u * np.sum(
    np.abs(y[:, 0] - pts[combos] @ scene.freq[:, :, 0].T) ** 2, axis=1)
joint = np.exp(loglik - loglik.max())
exact = [np.bincount(combos[:, k], joint) / joint.sum() for k in range(2)]
print(f"sent symbols: {sent}, decided: {[int(d[0]) for d in res.decisions]}, "
      f"iterations: {res.iterations}")
for k in range(2):
    print(f"  UE {k} marginal  BP: {np.round(res.marginals[k][0], 6)}  "
          f"exact: {np.round(exact[k], 6)}")

print("\n=== loopy graph: BP beats intrinsic-only decisions ===")
# two APs both hearing both UEs: a 4-cycle
err0 = err8 = 0
trials = 2000
for _ in range(trials):
    scene, assoc = make_scene([[0, 1], [0, 1]], M=2, gamma_u=2.0)
    sent = [rng.integers(2) for _ in range(2)]
    y = transmit(scene, sent)
    r0 = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=0))
    r8 = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=8, damping=0.1))
    for k in range(2):
        err0 += int(r0.decisions[k][0] != sent[k])
        err8 += int(r8.decisions[k][0] != sent[k])
print(f"intrinsic-only SER : {err0 / (2 * trials):.4f}")
print(f"APMP (8 rounds) SER: {err8 / (2 * trials):.4f}")

print("\n=== iteration trace on a larger component ===")
scene, assoc = make_scene([[0, 1], [1, 2], [2, 3], [0, 3]], M=4, gamma_u=2.0)
y = transmit(scene, [0, 1, 1, 0])
res = apmp_detect(scene, assoc, y, ApmpConfig(max_iterations=15, damping=0.2))
print("max belief change per round:",
      [f"{d:.2e}" for d in res.trace])
print(f"converged: {res.converged} after {res.iterations} rounds")
