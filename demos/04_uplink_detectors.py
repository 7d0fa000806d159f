# The uplink detector family side by side: global MMSE, its per-subcarrier
# split, the column-sliced and reduced local variants, and per-AP detection
# with CPU combining.
#
# Run: python demos/04_uplink_detectors.py

import numpy as np

from uccfsim.topology import associate_large_scale
from uccfsim.uplink import (combined_sinr, combined_weights,
                            combining_lambdas, equal_power_scene,
                            gmmse_per_subcarrier,
                            gmmse_weights, lmmse_column_sliced, lmmse_reduced,
                            uplink_sinr_all, weight_output_sinr)

rng = np.random.default_rng(21)
M, K, N = 4, 3, 2

# deep-isolation regime: each UE is strong at two APs and sits far below
# the noise floor everywhere else (the setting the local detectors assume)
g = np.full((M, K), 0.001)
for k in range(K):
    g[rng.choice(M, size=2, replace=False), k] = 1.0
freq = np.sqrt(g)[:, :, None] * (rng.standard_normal((M, K, N))
                                 + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
assoc = associate_large_scale(g, max_count=2)
scene = equal_power_scene(freq, [np.arange(N)] * K, gamma_u=10.0)

print("association:", [list(a) for a in assoc.ap_sets])


def rate_of(weights):
    # every detector gives per-AP weights (M, S), column s symbol s's
    return sum(float(np.sum(np.log2(1 + s)))
               for s in scene.split(weight_output_sinr(scene, weights)))


gm = gmmse_weights(scene)
print("\n=== sum-rate by detector [bits/s/Hz] ===")
print(f"  global MMSE (joint solve)  : {rate_of(gm):7.3f}")
print(f"  global MMSE (per subcarrier): {rate_of(gmmse_per_subcarrier(scene)):7.3f}"
      "   (identical: subcarriers do not couple)")
print(f"  column-sliced local MMSE    : {rate_of(lmmse_column_sliced(scene, assoc)):7.3f}")
print(f"  reduced-dimension local MMSE: {rate_of(lmmse_reduced(scene, assoc)):7.3f}")

# the closed-form kernel maps flat symbol powers to flat symbol SINRs of
# the scene's plan
closed = uplink_sinr_all(scene, np.concatenate(scene.power))
print("\nclosed-form MMSE symbol SINRs per UE:")
for k, s in enumerate(scene.split(closed)):
    print(f"  UE {k}:", np.round(s, 2))

print("\n=== solve cost (cubic-order flop estimate) ===")
print(f"  one ({M * N}x{M * N}) solve: {(M * N) ** 3:10d} flops")
print(f"  {N} parallel ({M}x{M}) solves: {N * M ** 3:10d} flops")

print("\n=== per-AP detection + CPU combining for UE 0 ===")
# each AP's local MMSE estimate, fused at the CPU: one per-AP weight per
# symbol, (M, S); UE 0's symbols are its split's first
for mode in ("equal", "mrc"):
    V = combined_weights(scene, combining_lambdas(scene, assoc, mode))
    sinr = scene.split(combined_sinr(scene, V))[0]
    print(f"  {mode:6s} combining: mean symbol SINR {sinr.mean():8.3f}")
print("MRC weighs the stronger AP more and never loses to equal weights on")
print("interference-free branches.")
