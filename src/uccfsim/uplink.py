"""Uplink multiuser detection: global MMSE and its local approximations.

A scene holds the per-subcarrier channel gains every detector works from,
the subcarrier assignment, and the per-symbol power coefficients.  Weights
are stored per UE as (M*N, N_k) matrices over the stacked observation
y = [y_1; ...; y_M]; local detectors simply leave the rows of APs they do
not use at zero, so every detector can be evaluated against the same
physical scene (interference from unmodeled UEs stays present).

The stacked (M*N, .) layout is storage only.  Each link has one complex
gain per subcarrier and subcarriers do not couple, so the stacked
covariance is N independent M x M blocks R_n.  The SINR evaluator and the
per-subcarrier, column-sliced and reduced MMSE detectors solve those
blocks as (N, M, M) batches, the reduced one restricted to the associated
APs.  A local detector only sees the diagonals [R_n]_mm, so local
detection followed by CPU fusion is one stacked weight per UE, evaluated
per subcarrier in closed form.

Two paths stay dense: ``gmmse_weights`` solves the (M*N, M*N) covariance,
built once per scene, and ``weight_output_sinr`` evaluates
w^H R w - eta |w^H b|^2 on it.  That difference cancels at high SINR, so
the SINRs it reports depend on the last bits of W and R, and the
benchmark's reference outputs pin those bits; both move to the batched
core together with a cancellation-free SINR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modulation import (constellation, nearest_point, random_symbol_indices,
                         sum_rate)


@dataclass(frozen=True)
class UplinkScene:
    """Channels, subcarrier assignment, powers, and the normalized SNR."""

    freq: np.ndarray        # (M, K, N) complex subcarrier gains
    subcarriers: tuple      # subcarriers[k]: sorted int array, N_k entries
    power: tuple            # power[k]: eta_kn array matching subcarriers[k]
    gamma_u: float          # P_u / sigma^2

    def __post_init__(self):
        object.__setattr__(self, "freq", np.asarray(self.freq, dtype=complex))
        subs = tuple(np.asarray(s, dtype=int) for s in self.subcarriers)
        pows = tuple(np.asarray(p, dtype=float) for p in self.power)
        object.__setattr__(self, "subcarriers", subs)
        object.__setattr__(self, "power", pows)
        if self.gamma_u <= 0:
            raise ValueError("gamma_u must be positive")
        for k, (s, p) in enumerate(zip(subs, pows)):
            if len(s) != len(p):
                raise ValueError(f"UE {k}: power vector does not match subcarriers")
            if p.sum() > 1.0 + 1e-9:
                raise ValueError(f"UE {k}: power budget exceeded")
            if np.any(p < 0):
                raise ValueError(f"UE {k}: negative power")

    @property
    def num_aps(self) -> int:
        return self.freq.shape[0]

    @property
    def num_ues(self) -> int:
        return self.freq.shape[1]

    @property
    def num_subcarriers(self) -> int:
        return self.freq.shape[2]

    @cached_property
    def _covariance(self) -> np.ndarray:
        # the scene is treated as immutable, so one build serves every caller
        R = (1.0 / self.gamma_u) * np.eye(self.num_aps * self.num_subcarriers,
                                          dtype=complex)
        for l in range(self.num_ues):
            B = stacked_channel(self, l)
            R += (B * self.power[l]) @ B.conj().T
        R.setflags(write=False)
        return R


def equal_power_scene(freq, subcarriers, gamma_u, budget=1.0) -> UplinkScene:
    """Scene with each UE's budget split evenly over its subcarriers."""
    power = tuple(np.full(len(s), budget / max(len(s), 1)) for s in subcarriers)
    return UplinkScene(freq=freq, subcarriers=subcarriers, power=power,
                       gamma_u=gamma_u)


def _stacked(scene: UplinkScene, k: int, V) -> np.ndarray:
    """Per-AP coefficients V (M, N_k) of UE k's symbols in the stacked
    (M*N, N_k) layout: symbol i occupies its own subcarrier only."""
    M, N = scene.num_aps, scene.num_subcarriers
    sub = scene.subcarriers[k]
    W = np.zeros((M, N, len(sub)), dtype=complex)
    W[:, sub, np.arange(len(sub))] = V
    return W.reshape(M * N, len(sub))


def stacked_channel(scene: UplinkScene, k: int) -> np.ndarray:
    """Channel-times-mapping block H_k Phi_k, shape (M*N, N_k)."""
    return _stacked(scene, k, scene.freq[:, k, scene.subcarriers[k]])


def scene_covariance(scene: UplinkScene) -> np.ndarray:
    """Autocorrelation of the stacked observation, built once per scene
    and returned read-only."""
    return scene._covariance


def _power_grid(scene: UplinkScene) -> np.ndarray:
    """Power coefficients eta_kn as a (K, N) grid, zero where unassigned."""
    eta = np.zeros((scene.num_ues, scene.num_subcarriers))
    for k, (sub, p) in enumerate(zip(scene.subcarriers, scene.power)):
        eta[k, sub] = p
    return eta


def subcarrier_covariances(scene: UplinkScene) -> np.ndarray:
    """Per-subcarrier covariances R_n = I / gamma_u + sum_l eta_ln h_ln h_ln^H.

    Shape (N, M, M): the diagonal blocks of :func:`scene_covariance`.
    """
    H = scene.freq.transpose(2, 0, 1)                    # (N, M, K)
    R = (H * _power_grid(scene).T[:, None, :]) @ H.conj().transpose(0, 2, 1)
    return R + (1.0 / scene.gamma_u) * np.eye(scene.num_aps)


def gmmse_weights(scene: UplinkScene):
    """Global MMSE weights per UE, solved jointly on the (MN, MN) system
    with every UE's right-hand side in one factorization."""
    # Kept dense: weight_output_sinr's w^H R w - eta |w^H b|^2 cancels at
    # high SINR, so reported SINRs there depend on the last bits of W.
    R = scene_covariance(scene)
    rhs = [stacked_channel(scene, k) * np.sqrt(scene.power[k])
           for k in range(scene.num_ues)]
    X = np.linalg.solve(R, np.hstack(rhs))
    cuts = np.cumsum([B.shape[1] for B in rhs])[:-1]
    return np.split(X, cuts, axis=1)


def _subcarrier_mmse(scene: UplinkScene, zeta=1.0):
    """Weights R_n^-1 (zeta_k * h_kn) sqrt(eta_kn) of every UE, in one
    (N, M, M) solve; an association ``zeta`` (M, K) restricts the
    right-hand sides to each UE's APs."""
    H = scene.freq.transpose(2, 0, 1)                    # (N, M, K)
    rhs = H * zeta * np.sqrt(_power_grid(scene).T)[:, None, :]
    X = np.linalg.solve(subcarrier_covariances(scene), rhs)
    return [_stacked(scene, k, X[sub, :, k].T)
            for k, sub in enumerate(scene.subcarriers)]


def gmmse_per_subcarrier(scene: UplinkScene):
    """N parallel M-dimensional MMSE solves; equals the joint solution
    when subcarriers do not interfere (diagonal per-link channels)."""
    return _subcarrier_mmse(scene)


def solve_flop_estimate(num_aps: int, num_subcarriers: int, joint: bool) -> float:
    """Cubic-order flop count of the covariance solve(s)."""
    if joint:
        return float((num_aps * num_subcarriers) ** 3)
    return float(num_subcarriers * num_aps**3)


def uplink_sinr(scene: UplinkScene, k: int, i: int) -> float:
    """Closed-form MMSE output SINR of UE k's i-th symbol."""
    return float(uplink_sinr_all(scene)[k][i])


def uplink_sinr_all(scene: UplinkScene):
    """Per-UE arrays of closed-form MMSE symbol SINRs.

    Symbol s of UE k on subcarrier n with power eta has SINR
    Re(eta b^H x), where (R_n - eta b b^H) x = b and b = h_kn; all symbols
    are solved in one (S, M, M) batch.
    """
    ue = np.concatenate([np.full(len(s), k)
                         for k, s in enumerate(scene.subcarriers)])
    sub = np.concatenate(scene.subcarriers)
    eta = np.concatenate(scene.power)
    b = scene.freq[:, ue, sub].T                         # (S, M)
    own = eta[:, None, None] * (b[:, :, None] * b.conj()[:, None, :])
    x = np.linalg.solve(subcarrier_covariances(scene)[sub] - own,
                        b[:, :, None])[:, :, 0]
    sinrs = np.real(eta * np.einsum("sm,sm->s", b.conj(), x))
    return np.split(sinrs, np.cumsum([len(s) for s in scene.subcarriers])[:-1])


def uplink_sum_rate(scene: UplinkScene) -> float:
    return sum_rate(uplink_sinr_all(scene))


def lmmse_column_sliced(scene: UplinkScene, assoc):
    """Approximate weights using only the R_y^-1 column blocks of the
    associated APs; with full association this reconstructs the GMMSE.

    Those column blocks applied to b are R_y^-1 P_A b, with P_A zeroing the
    entries of unassociated APs, so each UE is solved per subcarrier.
    """
    return _subcarrier_mmse(scene, assoc.zeta())


def lmmse_reduced(scene: UplinkScene, assoc, k: int) -> np.ndarray:
    """GMMSE restricted to the observations of UE k's associated APs.

    Each of UE k's subcarriers solves R_n restricted to those APs, all in
    one batch.  Returns full-size (M*N, N_k) weights with zero rows at
    excluded APs.
    """
    aps = np.asarray(assoc.ap_sets[k], dtype=int)
    if not aps.size:
        raise ValueError("unassociated UE")
    sub = scene.subcarriers[k]
    R = subcarrier_covariances(scene)[np.ix_(sub, aps, aps)]
    b = scene.freq[aps][:, k, sub] * np.sqrt(scene.power[k])    # (|A|, N_k)
    V = np.zeros((scene.num_aps, len(sub)), dtype=complex)
    V[aps] = np.linalg.solve(R, b.T[:, :, None])[:, :, 0].T
    return _stacked(scene, k, V)


def weight_output_sinr(scene: UplinkScene, k: int, W: np.ndarray) -> np.ndarray:
    """Analytic output SINR of arbitrary stacked weights for UE k; a symbol
    whose signal is zero (zero power or zero weights) has SINR 0."""
    R = scene_covariance(scene)
    B = stacked_channel(scene, k)
    sinrs = np.empty(B.shape[1])
    for i in range(B.shape[1]):
        w = W[:, i]
        b = B[:, i]
        eta = scene.power[k][i]
        signal = eta * np.abs(w.conj() @ b) ** 2
        total = np.real(w.conj() @ R @ w)
        denom = total - signal
        sinrs[i] = signal / denom if denom > 0 else np.inf if signal else 0.0
    return sinrs


def _local_terms(scene: UplinkScene, k: int):
    """AP-local model of UE k's symbols, each (M, N_k): the channel
    b = sqrt(eta) h, the diagonal d = [R_n]_mm an AP sees, and the
    interference-plus-noise r of d, summed without the own term."""
    sub = scene.subcarriers[k]
    load = np.abs(scene.freq[:, :, sub]) ** 2 * _power_grid(scene)[:, sub]
    d = load.sum(axis=1) + 1.0 / scene.gamma_u
    load[:, k] = 0.0
    r = load.sum(axis=1) + 1.0 / scene.gamma_u
    return scene.freq[:, k, sub] * np.sqrt(scene.power[k]), d, r


def local_ap_weights(scene: UplinkScene, m: int, k: int) -> np.ndarray:
    """Per-AP MMSE weights (N, N_k) from AP m's own observation model."""
    b, d, _ = _local_terms(scene, k)
    N = scene.num_subcarriers
    return _stacked(scene, k, b / d)[m * N:(m + 1) * N]


def local_ap_estimate(scene: UplinkScene, assoc, y_m: np.ndarray,
                      m: int, k: int) -> np.ndarray:
    """Local soft symbol estimate z_mk = W_mk^H y_m at an associated AP."""
    if m not in assoc.ap_sets[k]:
        raise ValueError(f"AP {m} is not associated with UE {k}")
    return local_ap_weights(scene, m, k).conj().T @ y_m


def local_combining_stats(scene: UplinkScene, assoc, k: int):
    """Per-AP (A_mk, C_mk) of the decomposition z_mk = A_mk x_k + noise.

    A_mk is the signal gain matrix and C_mk the interference-plus-noise
    covariance of AP m's local estimate; both are exact scene statistics,
    diagonal because the local weights are.
    """
    b, d, r = _local_terms(scene, k)
    w = b / d
    return {m: (np.diag(w[m].conj() * b[m]), np.diag(np.abs(w[m]) ** 2 * r[m]))
            for m in assoc.ap_sets[k]}


def sample_combining_stats(scene: UplinkScene, assoc, k: int,
                           num_draws: int, rng, points="qpsk"):
    """Per-AP (A_mk, C_mk) estimated from simulated piloted draws.

    Realism counterpart of :func:`local_combining_stats`: the CPU measures
    the signal gains and residual covariances instead of reading them off
    the scene.  Approaches the analytic statistics as draws grow.
    """
    indices, y = simulate_uplink(scene, num_draws, rng, points)
    pts = constellation(points)
    N = scene.num_subcarriers
    x = pts[indices[k]]                              # (draws, N_k)
    stats = {}
    for m in assoc.ap_sets[k]:
        W = local_ap_weights(scene, m, k)
        z = y[:, m * N:(m + 1) * N] @ W.conj()       # (draws, N_k)
        A = np.diag(np.mean(z * x.conj(), axis=0))   # unit-power symbols
        resid = z - x @ A.T
        C = resid.T @ resid.conj() / num_draws
        stats[m] = (A, C)
    return stats


def cpu_combine(estimates: dict, mode: str, gains=None, stats=None) -> np.ndarray:
    """Fuse per-AP local estimates {m: z_mk} into one decision vector.

    Modes: ``equal`` (no side knowledge), ``mrc`` (needs ``stats`` from
    :func:`local_combining_stats`), ``large_scale_linear`` and
    ``large_scale_sqrt`` (need per-AP ``gains``).
    """
    if not estimates:
        raise ValueError("no associated APs to combine")
    aps = sorted(estimates)
    count = len(aps)
    first = np.asarray(estimates[aps[0]])
    if mode == "equal":
        return sum(np.asarray(estimates[m]) for m in aps) / count
    if mode == "mrc":
        if stats is None:
            raise ValueError("mrc combining needs per-AP (A, C) statistics")
        z = np.zeros_like(first, dtype=complex)
        for m in aps:
            A, C = stats[m]
            z += np.linalg.solve(C, A.conj().T @ np.asarray(estimates[m]))
        return z / count
    if mode in ("large_scale_linear", "large_scale_sqrt"):
        shares = _large_scale_shares(gains, aps, mode)
        return sum(s * np.asarray(estimates[m]) for s, m in zip(shares, aps))
    raise ValueError(f"unknown combining mode {mode!r}")


def _large_scale_shares(gains, aps, mode: str) -> np.ndarray:
    """Fusion weights of the APs, proportional to their large-scale gains
    (``large_scale_linear``) or to the square roots (``large_scale_sqrt``)."""
    if gains is None:
        raise ValueError("large-scale combining needs per-AP gains")
    g = np.array([gains[m] for m in aps], dtype=float)
    if mode == "large_scale_sqrt":
        g = np.sqrt(g)
    return g / g.sum()


def _fused(scene: UplinkScene, k: int, lambdas: dict) -> np.ndarray:
    """Per-AP coefficients (M, N_k) of local detection fused with the
    diagonal ``lambdas``: conj(lambda_m) w_m, zero at the other APs."""
    b, d, _ = _local_terms(scene, k)
    V = np.zeros_like(b)
    for m, lam in lambdas.items():
        V[m] = np.conj(lam) * b[m] / d[m]
    return V


def combined_weights(scene: UplinkScene, k: int, lambdas: dict) -> np.ndarray:
    """Stacked (M*N, N_k) weights W with W^H y equal to the CPU's fusion
    sum_m lambda_m z_mk of the local estimates."""
    return _stacked(scene, k, _fused(scene, k, lambdas))


def combined_sinr(scene: UplinkScene, assoc, k: int, lambdas: dict) -> np.ndarray:
    """Analytic post-combining SINR for per-AP diagonal combining weights.

    ``lambdas`` maps AP -> (N_k,) per-symbol weights.  Interference is
    correlated across APs (same transmitted symbols), which the variance
    below accounts for exactly: on symbol i's subcarrier n the fused
    weight v passes UE l with gain v^H h_ln sqrt(eta_ln).  A symbol whose
    signal is zero has SINR 0.
    """
    sub = scene.subcarriers[k]
    v = _fused(scene, k, lambdas)
    g = np.einsum("mi,mli->il", v.conj(),
                  scene.freq[:, :, sub] * np.sqrt(_power_grid(scene)[:, sub]))
    signal = np.abs(g[:, k]) ** 2
    g[:, k] = 0.0            # zeroed, not subtracted: nothing cancels
    noise = np.sum(np.abs(v) ** 2, axis=0) / scene.gamma_u
    return np.divide(signal, np.sum(np.abs(g) ** 2, axis=1) + noise,
                     out=np.zeros_like(signal), where=signal > 0)


def combining_lambdas(scene: UplinkScene, assoc, k: int, mode: str,
                      gains=None) -> dict:
    """Per-AP diagonal combining weights {m: (N_k,)} of the CPU fusion
    modes; the large-scale modes need per-AP ``gains`` indexed by AP."""
    aps = list(assoc.ap_sets[k])
    nk = len(scene.subcarriers[k])
    count = len(aps)
    if mode == "equal":
        return {m: np.ones(nk, dtype=complex) / count for m in aps}
    if mode == "mrc":
        # conj(A_mk) / C_mk per symbol, with A = |b|^2 / d, C = |b|^2 r / d^2
        _, d, r = _local_terms(scene, k)
        return {m: (d[m] / r[m]).astype(complex) / count for m in aps}
    if mode in ("large_scale_linear", "large_scale_sqrt"):
        shares = _large_scale_shares(gains, aps, mode)
        return {m: np.full(nk, s, dtype=complex) for m, s in zip(aps, shares)}
    raise ValueError(f"unknown combining mode {mode!r}")


def simulate_uplink(scene: UplinkScene, num_draws: int, rng,
                    points="qpsk"):
    """Draw symbols and stacked observations from the scene model.

    Returns (symbol index arrays per UE, y) with y of shape
    (num_draws, M*N).
    """
    rng = np.random.default_rng(rng)
    pts = constellation(points)
    M, N = scene.num_aps, scene.num_subcarriers
    y = np.sqrt(0.5 / scene.gamma_u) * (
        rng.standard_normal((num_draws, M * N))
        + 1j * rng.standard_normal((num_draws, M * N)))
    indices = []
    for k in range(scene.num_ues):
        idx = random_symbol_indices(pts, (num_draws, len(scene.subcarriers[k])), rng)
        indices.append(idx)
        y += (pts[idx] * np.sqrt(scene.power[k])) @ stacked_channel(scene, k).T
    return indices, y


def empirical_output_sinr(scene: UplinkScene, k: int, W: np.ndarray,
                          num_draws: int, rng, points="qpsk") -> np.ndarray:
    """Measured per-symbol SINR at the detector output over symbol draws."""
    indices, y = simulate_uplink(scene, num_draws, rng, points)
    pts = constellation(points)
    z = y @ W.conj()                                    # (draws, N_k)
    amp = np.sqrt(scene.power[k]) * np.einsum(
        "ni,ni->i", W.conj(), stacked_channel(scene, k))
    desired = pts[indices[k]] * amp
    err = z - desired
    return (np.abs(amp) ** 2) / np.mean(np.abs(err) ** 2, axis=0)


def sample_scene_covariance(scene: UplinkScene, num_draws: int, rng,
                            points="qpsk") -> np.ndarray:
    """Sample estimate of the stacked-observation autocorrelation."""
    _, y = simulate_uplink(scene, num_draws, rng, points)
    return y.T @ y.conj() / num_draws


def detect_symbols(weights, y, points="qpsk"):
    """Hard decisions per UE from stacked observations y (draws, M*N)."""
    pts = constellation(points)
    return [nearest_point(y @ W.conj(), pts) for W in weights]
