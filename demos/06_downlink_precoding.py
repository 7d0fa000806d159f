# Downlink transmission: centralized MMSE precoding with the common
# amplification gain, the distributed MF / zero-forcing / regularized
# family, and artificial-noise secrecy.
#
# Run: python demos/06_downlink_precoding.py

import numpy as np

from uccfsim.downlink import (artificial_noise_direction, compute_a0,
                              dist_regmmse_precode, distributed_directions,
                              dl_sinr_subcarrier,
                              expected_ap_powers_subcarrier, normalize_columns,
                              receive_downlink, received_power_split,
                              secrecy_transmit, tmmse_central_subcarrier)
from uccfsim.modulation import sum_rate
from uccfsim.topology import AssociationMap

rng = np.random.default_rng(9)
M, K = 5, 3
h = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / np.sqrt(2)
noise = 0.05

print("=== centralized MMSE precoding ===")
delta = np.full(K, 1.0 / K)
P = tmmse_central_subcarrier(h, noise, delta)
a0 = compute_a0(expected_ap_powers_subcarrier(P), p_max=1.0)
sinr = dl_sinr_subcarrier(h, P, a0, noise)
print(f"common amplification gain A0 = {a0:.4f} "
      "(largest gain meeting every AP power cap)")
print("per-UE SINR:", np.round(sinr, 3), " sum-rate",
      round(sum_rate([sinr]), 3), "bits/s/Hz")
scaled = a0**2 * expected_ap_powers_subcarrier(P)
print("per-AP expected power after amplification:", np.round(scaled, 4))

print("\n=== regularization continuum at one multi-antenna AP ===")
H = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
for reg, label in ((0.0, "zero forcing"), (noise, "MMSE"),
                   (1e8 * np.linalg.norm(H) ** 2, "matched filter limit")):
    Pm = dist_regmmse_precode(H, reg)
    residual = np.linalg.norm(H.T @ Pm - np.eye(3))
    mf_align = np.abs(np.vdot(normalize_columns(Pm)[:, 0],
                              normalize_columns(H.conj())[:, 0]))
    print(f"  reg = {reg:10.3g} ({label:20s}): "
          f"||H^T P - I|| = {residual:8.2e}, MF alignment = {mf_align:.4f}")

print("\n=== distributed precoding: interference structure at UE 0 ===")
h3 = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
assoc = AssociationMap.from_ap_sets([[0], [0], [1]], num_aps=2)
powers = np.full((2, 3), 0.3)
for method in ("mf", "tzf"):
    dirs = distributed_directions(h3, assoc, method=method)
    split = received_power_split(h3, assoc, dirs, powers, 0)
    print(f"  {method:4s}: desired {split['desired']:8.3f}  "
          f"co-associated MUI {split['co_associated']:10.3e}  "
          f"cross-AP MUI {split['cross_ap']:8.3f}")
print("zero forcing removes exactly the interference from shared APs")

print("\n=== artificial-noise secrecy ===")
p_i = artificial_noise_direction(h, rng)
print("max |h_k^T p_I| over UEs:", float(np.max(np.abs(h.T @ p_i))))
x = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / np.sqrt(2)
rho = 0.8
base = receive_downlink(h, (P @ x)[:, None])
sec = receive_downlink(h, secrecy_transmit(P, p_i, rho, x, noise_symbol=0.9 + 0.2j))
print("UE reception equals sqrt(rho) x baseline:",
      bool(np.allclose(sec, np.sqrt(rho) * base)))
h_eve = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2)
print(f"eavesdropper artificial-noise pickup |h_e^T p_I|^2 = "
      f"{np.abs(h_eve @ p_i) ** 2:.4f}  (UEs pick up none)")
