"""Dense stacked (M*N) x (M*N) reference forms of the per-subcarrier kernels.

The library solves every OFDM system per subcarrier.  These are the
straightforward stacked formulations it replaced, kept only as oracles:
they make no use of the block-diagonal structure, so agreement with them
checks the batched kernels independently.
"""

from __future__ import annotations

import numpy as np

from uccfsim.uplink import UplinkScene, scene_covariance, stacked_channel


def uplink_sinr_all(scene: UplinkScene):
    """Per-UE closed-form MMSE symbol SINRs, one dense solve per symbol."""
    R = scene_covariance(scene)
    out = []
    for k in range(scene.num_ues):
        B = stacked_channel(scene, k)
        sinrs = np.empty(B.shape[1])
        for i in range(B.shape[1]):
            b = B[:, i]
            eta = scene.power[k][i]
            Rki = R - eta * np.outer(b, b.conj())
            sinrs[i] = np.real(eta * b.conj() @ np.linalg.solve(Rki, b))
        out.append(sinrs)
    return out


def stacked_dl_channel(freq, k) -> np.ndarray:
    """Stacked diagonal channel block of UE k, shape (M*N, N)."""
    M, _, N = freq.shape
    H = np.zeros((M * N, N), dtype=complex)
    for m in range(M):
        H[m * N + np.arange(N), np.arange(N)] = freq[m, k]
    return H


def tmmse_central_ofdm(freq, subcarrier_sets, noise_var, delta, assoc=None):
    """OFDM MMSE precoders, one (M*N, N) per UE, from the stacked bracket."""
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    if assoc is not None:
        freq = freq * assoc.zeta()[:, :, None]
    delta = np.asarray(delta, dtype=float)
    bracket = noise_var * np.eye(M * N, dtype=complex)
    blocks = []
    for l in range(K):
        H = stacked_dl_channel(freq, l)
        mask = np.zeros(N)
        mask[np.asarray(subcarrier_sets[l], dtype=int)] = 1.0
        blocks.append(H)
        bracket += (H.conj() * mask) @ H.T
    return [np.linalg.solve(bracket, blocks[k].conj()) * np.sqrt(delta[k])
            for k in range(K)]


def dl_sinr_ofdm(freq, precoders, subcarrier_sets, a0, noise_var):
    """Per-UE per-symbol downlink SINRs, one stacked row product per term."""
    freq = np.asarray(freq, dtype=complex)
    K = freq.shape[1]
    sets = [np.asarray(s, dtype=int) for s in subcarrier_sets]
    out = []
    for k in range(K):
        Hk = stacked_dl_channel(freq, k)
        sinrs = np.empty(len(sets[k]))
        for i, n in enumerate(sets[k]):
            row = Hk[:, n]                         # received row at subcarrier n
            desired = np.abs(row @ precoders[k][:, n]) ** 2
            interf = 0.0
            for j in sets[k]:
                if j != n:
                    interf += np.abs(row @ precoders[k][:, j]) ** 2
            for l in range(K):
                if l == k:
                    continue
                for j in sets[l]:
                    interf += np.abs(row @ precoders[l][:, j]) ** 2
            sinrs[i] = desired / (interf + noise_var / a0**2)
        out.append(sinrs)
    return out
