"""Dense stacked (M*N) x (M*N) reference forms of the per-subcarrier kernels.

The library solves every OFDM system per subcarrier.  These are the
straightforward stacked formulations it replaced, kept only as oracles:
they make no use of the block-diagonal structure, so agreement with them
checks the batched kernels independently.  The local-detection oracles
build each AP's model matrices and loop over symbols, interferers and
draws instead of using the diagonal closed forms.
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


def stacked_precoders(precoders) -> list:
    """Per-subcarrier (N, M, K) precoders as one (M*N, N) matrix per UE.

    Column n of UE k's matrix carries its precoder on subcarrier n in the
    AP-major rows m*N + n; every other entry is zero.
    """
    P = np.asarray(precoders)
    N, M, K = P.shape
    out = []
    for k in range(K):
        S = np.zeros((M, N, N), dtype=complex)
        S[:, np.arange(N), np.arange(N)] = P[:, :, k].T
        out.append(S.reshape(M * N, N))
    return out


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


def _ap_rows(scene: UplinkScene, aps) -> np.ndarray:
    N = scene.num_subcarriers
    return (np.asarray(list(aps), dtype=int)[:, None] * N
            + np.arange(N)).ravel()


def stacked_covariance(scene: UplinkScene, aps) -> np.ndarray:
    """Autocorrelation of the stacked observation over the chosen APs."""
    rows = _ap_rows(scene, aps)
    R = (1.0 / scene.gamma_u) * np.eye(len(rows), dtype=complex)
    for l in range(scene.num_ues):
        B = stacked_channel(scene, l)[rows]
        R += (B * scene.power[l]) @ B.conj().T
    return R


def lmmse_column_sliced(scene: UplinkScene, assoc):
    """Column-sliced weights from the dense inverse of the covariance."""
    M, N = scene.num_aps, scene.num_subcarriers
    Rinv = np.linalg.inv(scene_covariance(scene))
    out = []
    for k in range(scene.num_ues):
        sub = scene.subcarriers[k]
        W = np.zeros((M * N, len(sub)), dtype=complex)
        for m in assoc.ap_sets[k]:
            local = np.zeros((N, len(sub)), dtype=complex)
            local[sub, np.arange(len(sub))] = (scene.freq[m, k, sub]
                                               * np.sqrt(scene.power[k]))
            W += Rinv[:, m * N:(m + 1) * N] @ local
        out.append(W)
    return out


def lmmse_reduced(scene: UplinkScene, assoc, k: int) -> np.ndarray:
    """Reduced MMSE weights from one dense solve over the associated APs."""
    rows = _ap_rows(scene, assoc.ap_sets[k])
    B = stacked_channel(scene, k)[rows]
    W = np.zeros((scene.num_aps * scene.num_subcarriers, B.shape[1]),
                 dtype=complex)
    W[rows] = np.linalg.solve(stacked_covariance(scene, assoc.ap_sets[k]),
                              B * np.sqrt(scene.power[k]))
    return W


def local_block(scene: UplinkScene, m: int, l: int) -> np.ndarray:
    """UE l's power-scaled channel at AP m, shape (N, N_l)."""
    N = scene.num_subcarriers
    sub = scene.subcarriers[l]
    B = np.zeros((N, len(sub)), dtype=complex)
    B[sub, np.arange(len(sub))] = scene.freq[m, l, sub] * np.sqrt(scene.power[l])
    return B


def local_ap_weights(scene: UplinkScene, m: int, k: int) -> np.ndarray:
    """AP m's MMSE weights (N, N_k) against its own diagonal covariance."""
    diag = np.full(scene.num_subcarriers, 1.0 / scene.gamma_u)
    for l in range(scene.num_ues):
        sub = scene.subcarriers[l]
        diag[sub] += np.abs(scene.freq[m, l, sub]) ** 2 * scene.power[l]
    return local_block(scene, m, k) / diag[:, None]


def local_combining_stats(scene: UplinkScene, assoc, k: int):
    """Per-AP (A, C) from the (N, N) local covariance matrices."""
    N = scene.num_subcarriers
    stats = {}
    for m in assoc.ap_sets[k]:
        W = local_ap_weights(scene, m, k)
        Bk = local_block(scene, m, k)
        Rm = (1.0 / scene.gamma_u) * np.eye(N, dtype=complex)
        for l in range(scene.num_ues):
            Bl = local_block(scene, m, l)
            Rm += Bl @ Bl.conj().T
        stats[m] = (W.conj().T @ Bk, W.conj().T @ (Rm - Bk @ Bk.conj().T) @ W)
    return stats


def mrc_lambdas(scene: UplinkScene, assoc, k: int) -> dict:
    """MRC fusion weights diag(C^-1 A^H) / |A_k| from the matrix statistics."""
    stats = local_combining_stats(scene, assoc, k)
    return {m: np.diag(np.linalg.solve(C, A.conj().T)) / len(stats)
            for m, (A, C) in stats.items()}


def combined_sinr(scene: UplinkScene, k: int, lambdas: dict) -> np.ndarray:
    """Post-combining SINR, one interfering symbol at a time."""
    aps = sorted(lambdas)
    weights = {m: local_ap_weights(scene, m, k) for m in aps}
    nk = len(scene.subcarriers[k])
    sinrs = np.empty(nk)
    for i in range(nk):
        amp = sum(lambdas[m][i] * (weights[m][:, i].conj()
                                   @ local_block(scene, m, k)[:, i])
                  for m in aps)
        var = 0.0
        for l in range(scene.num_ues):
            for j in range(len(scene.subcarriers[l])):
                if l == k and j == i:
                    continue
                coef = sum(lambdas[m][i] * (weights[m][:, i].conj()
                                            @ local_block(scene, m, l)[:, j])
                           for m in aps)
                var += np.abs(coef) ** 2
        var += sum(np.abs(lambdas[m][i]) ** 2
                   * np.linalg.norm(weights[m][:, i]) ** 2
                   for m in aps) / scene.gamma_u
        sinrs[i] = np.abs(amp) ** 2 / var
    return sinrs


def fused_estimates(scene: UplinkScene, k: int, lambdas: dict,
                    y: np.ndarray) -> np.ndarray:
    """CPU fusion sum_m lambda_m (W_m^H y_m) of the local estimates, draw by
    draw; y is (draws, M*N)."""
    N = scene.num_subcarriers
    z = np.zeros((y.shape[0], len(scene.subcarriers[k])), dtype=complex)
    for u in range(y.shape[0]):
        for m, lam in lambdas.items():
            z[u] += lam * (local_ap_weights(scene, m, k).conj().T
                           @ y[u, m * N:(m + 1) * N])
    return z
