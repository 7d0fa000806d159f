"""Uplink multiuser detection: global MMSE and its local approximations.

A scene holds the per-subcarrier channel gains every detector works from,
the subcarrier assignment, and the per-symbol power coefficients, its S
symbols flat and UE-major (``ue``, ``sub``, ``split``).  Each linear
detector gives per-AP weights V (M, S), column s the combiner of symbol
s; local detectors leave the rows of APs a UE does not use at zero, so
every detector is evaluated against the same physical scene
(interference from unmodeled UEs stays present).

Each link has one complex gain per subcarrier and subcarriers do not
couple, so the stacked covariance is N independent M x M blocks R_n.  The
SINR evaluator and the per-subcarrier, column-sliced and reduced MMSE
detectors solve those blocks as (N, M, M) batches, the reduced one
restricted to each UE's associated APs.  A local detector only sees the
diagonals [R_n]_mm, so local MMSE at each AP followed by CPU fusion is one
per-AP weight per symbol: ``combining_lambdas`` gives the fusion weights
of a mode, ``combined_weights`` the fused weights, and ``combined_sinr``
the closed-form SINRs of any per-AP weights.

Symbol draws come from ``simulate_uplink`` as per-AP observations
(draws, M, N), and ``measure_output`` is the one path from any detector's
weights to its output amplitudes, empirical SINRs and hard decisions.

The closed-form MMSE SINR has one kernel, ``uplink_sinr_all(scene, eta)``,
from flat symbol powers to flat symbol SINRs.  The scene keeps on first
use what does not depend on the powers (each symbol's channel and outer
product, the per-subcarrier channel view), so a power-control loop pays
per evaluation only for the power checks, R_n, one (S, M, M) solve and
the products.  A symbol alone on its subcarrier needs none of that: its
SINR is its power times ``solo_unit_sinrs``, gamma_u ||h_kn||^2.

The stacked (M*N, .) layout is left only at the dense edge whose bits the
benchmark's references pin, and the engine scores global MMSE weights there
only on sum-rate plans and plans with co-channel symbols; a max-min plan
without them carries its exact SINRs.  ``gmmse_weights`` solves the
(M*N, M*N) covariance, built once per scene like each UE's stacked channel
block H_k Phi_k, and reads V off it without loss; ``weight_output_sinr``
restacks V to evaluate w^H R w - eta |w^H b|^2 on it, which cancels at
high SINR; and ``simulate_uplink`` draws y with one stacked product per
UE.  R is built on each UE's own rows m*N + n, over the full column range,
which keeps the bits of the full stacked products; restricting the
columns as well rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modulation import constellation, nearest_point, random_symbol_indices


@dataclass(frozen=True)
class UplinkScene:
    """Channels, subcarrier assignment, powers, and the normalized SNR; its
    symbol s, UE-major, is UE ``ue[s]``'s on subcarrier ``sub[s]``."""

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
        object.__setattr__(self, "ue", np.arange(len(subs)).repeat(
            [len(s) for s in subs]))
        object.__setattr__(self, "sub", np.concatenate(subs))
        _checked(self, np.concatenate(pows), map(len, pows))

    @property
    def num_aps(self) -> int:
        return self.freq.shape[0]

    @property
    def num_ues(self) -> int:
        return self.freq.shape[1]

    @property
    def num_subcarriers(self) -> int:
        return self.freq.shape[2]

    def split(self, flat, axis=0):
        """Per-UE arrays of a flat per-symbol array."""
        cuts = np.cumsum([len(s) for s in self.subcarriers])[:-1]
        return np.split(flat, cuts, axis=axis)

    @cached_property
    def _symbols(self) -> tuple:
        # each symbol's channel b = h_kn (S, M), its conjugate and b b^H
        b = self.freq[:, self.ue, self.sub].T
        b_conj = b.conj()
        return b, b_conj, b[:, :, None] * b_conj[:, None, :]

    @cached_property
    def _per_subcarrier(self) -> tuple:
        # the (N, M, K) channel view, its Hermitian and I / gamma_u
        H = self.freq.transpose(2, 0, 1)
        return (H, H.conj().transpose(0, 2, 1),
                (1.0 / self.gamma_u) * np.eye(self.num_aps))

    @cached_property
    def _covariance(self) -> np.ndarray:
        # the scene is treated as immutable, so one build serves every caller.
        # UE l adds only its nonzero rows m*N + n; the columns stay full,
        # since a narrower product rounds differently (see module docstring)
        M, N = self.num_aps, self.num_subcarriers
        R = np.zeros((M * N, M * N), dtype=complex)
        np.fill_diagonal(R, 1.0 / self.gamma_u)
        for l, sub in enumerate(self.subcarriers):
            rows = (np.arange(M)[:, None] * N + sub).ravel()
            B = self._channel_blocks[l]
            R[rows] += (B[rows] * self.power[l]) @ B.conj().T
        R.setflags(write=False)
        return R

    @cached_property
    def _channel_blocks(self) -> tuple:
        # built once per scene for the covariance, the SINRs of weights and
        # the symbol draws, each block contiguous and read-only
        blocks = tuple(map(np.ascontiguousarray, self.split(_stacked(
            self, self.freq[:, self.ue, self.sub]), axis=1)))
        for B in blocks:
            B.setflags(write=False)
        return blocks


def equal_power_scene(freq, subcarriers, gamma_u) -> UplinkScene:
    """Scene with each UE's unit budget split evenly over its subcarriers."""
    power = tuple([1.0 / max(len(s), 1)] * len(s) for s in subcarriers)
    return UplinkScene(freq=freq, subcarriers=subcarriers, power=power,
                       gamma_u=gamma_u)


def _stacked(scene: UplinkScene, V) -> np.ndarray:
    """Per-AP coefficients V (M, S) in the stacked (M*N, S) layout: symbol
    s occupies its own subcarrier only."""
    M, N, S = scene.num_aps, scene.num_subcarriers, len(scene.sub)
    W = np.zeros((M, N, S), dtype=complex)
    W[:, scene.sub, np.arange(S)] = V
    return W.reshape(M * N, S)


def stacked_channel(scene: UplinkScene) -> tuple:
    """Each UE's channel-times-mapping block H_k Phi_k, shape (M*N, N_k),
    built once per scene and returned read-only."""
    return scene._channel_blocks


def scene_covariance(scene: UplinkScene) -> np.ndarray:
    """Autocorrelation of the stacked observation, built once per scene
    and returned read-only."""
    return scene._covariance


def power_breaches(counts, eta, lengths=None) -> tuple:
    """The uplink power rule for a plan whose UE k has ``counts[k]``
    symbols: the flat powers ``eta``, UE k's ``lengths[k]`` of them (by
    default, one per symbol), hold one power per symbol, none negative,
    and each UE's sum is at most 1 + 1e-9.  Returns (one power per symbol,
    UEs over budget, UEs with a negative power)."""
    counts = list(counts)
    lengths = counts if lengths is None else list(lengths)
    owner = np.arange(len(lengths)).repeat(lengths)
    if eta.shape != owner.shape:
        return False, np.zeros(0, bool), np.zeros(0, bool)
    return (lengths == counts,
            np.bincount(owner, eta, len(lengths)) > 1.0 + 1e-9,
            np.bincount(owner, eta < 0, len(lengths)) > 0)


def _checked(scene: UplinkScene, eta, lengths=None) -> np.ndarray:
    """Flat symbol powers ``eta`` as floats, checked against the power rule
    (``lengths`` as there); errors name the first UE."""
    eta = np.asarray(eta, dtype=float)
    fits, over, negative = power_breaches(map(len, scene.subcarriers), eta,
                                          lengths)
    if not fits:
        raise ValueError("power vector does not match subcarriers")
    if over.any() or negative.any():
        k = int(np.argmax(over | negative))
        raise ValueError(f"UE {k}: power budget exceeded" if over[k]
                         else f"UE {k}: negative power")
    return eta


def _power_grid(scene: UplinkScene, eta=None) -> np.ndarray:
    """Flat powers (default: the scene's) as a zero-padded (K, N) grid."""
    grid = np.zeros(scene.freq.shape[1:])
    grid[scene.ue, scene.sub] = (np.concatenate(scene.power) if eta is None
                                 else eta)
    return grid


def subcarrier_covariances(scene: UplinkScene, eta=None) -> np.ndarray:
    """Per-subcarrier covariances R_n = I / gamma_u + sum_l eta_ln h_ln h_ln^H
    at the flat symbol powers ``eta``, the scene's by default.

    Shape (N, M, M): the diagonal blocks of :func:`scene_covariance`.
    """
    H, H_herm, noise = scene._per_subcarrier
    return (H * _power_grid(scene, eta).T[:, None, :]) @ H_herm + noise


def gmmse_weights(scene: UplinkScene) -> np.ndarray:
    """Global MMSE weights V (M, S), solved jointly on the (MN, MN) system
    with every symbol's right-hand side in one factorization."""
    # Kept dense: weight_output_sinr's w^H R w - eta |w^H b|^2 cancels at
    # high SINR, so reported SINRs there depend on the last bits of W.
    S = len(scene.sub)
    X = np.linalg.solve(scene_covariance(scene), _stacked(scene, scene.freq[
        :, scene.ue, scene.sub] * np.sqrt(np.concatenate(scene.power))))
    return X.reshape(scene.num_aps, scene.num_subcarriers, S)[
        :, scene.sub, np.arange(S)]


def _subcarrier_mmse(scene: UplinkScene, zeta=1.0):
    """Weights R_n^-1 (zeta_k * h_kn) sqrt(eta_kn) of every UE, in one
    (N, M, M) solve; an association ``zeta`` (M, K) restricts the
    right-hand sides to each UE's APs."""
    H = scene._per_subcarrier[0]                         # (N, M, K)
    rhs = H * zeta * np.sqrt(_power_grid(scene).T)[:, None, :]
    return np.linalg.solve(subcarrier_covariances(scene), rhs)[
        scene.sub, :, scene.ue].T


def gmmse_per_subcarrier(scene: UplinkScene):
    """N parallel M-dimensional MMSE solves; equals the joint solution
    when subcarriers do not interfere (diagonal per-link channels)."""
    return _subcarrier_mmse(scene)


def uplink_sinr_all(scene: UplinkScene, eta) -> np.ndarray:
    """Flat closed-form MMSE symbol SINRs of the scene's plan at the flat
    symbol powers ``eta``, which must pass the scene's power checks.

    Symbol s of UE k on subcarrier n with power eta has SINR Re(eta b^H x),
    where (R_n - eta b b^H) x = b and b = h_kn, all in one (S, M, M) solve.
    """
    eta = _checked(scene, eta)
    b, b_conj, outer = scene._symbols
    x = np.linalg.solve(subcarrier_covariances(scene, eta)[scene.sub]
                        - eta[:, None, None] * outer, b[:, :, None])[:, :, 0]
    return np.real(eta * np.einsum("sm,sm->s", b_conj, x))


def solo_unit_sinrs(freq, ue, sub, gamma_u) -> np.ndarray:
    """SINR per unit power of each symbol s, UE ``ue[s]``'s on subcarrier
    ``sub[s]``, alone on its subcarrier: gamma_u ||h_kn||^2 over all M APs.

    There R_n = I / gamma_u + eta b b^H, so the exact MMSE SINR at power
    eta is eta gamma_u ||b||^2: no solve, and nothing cancels.
    """
    h = freq[:, ue, sub]
    return gamma_u * np.sum(h.real ** 2 + h.imag ** 2, axis=0)


def lmmse_column_sliced(scene: UplinkScene, assoc):
    """Approximate weights using only the R_y^-1 column blocks of the
    associated APs; with full association this reconstructs the GMMSE.

    Those column blocks applied to b are R_y^-1 P_A b, with P_A zeroing the
    entries of unassociated APs, so each UE is solved per subcarrier.
    """
    return _subcarrier_mmse(scene, assoc.zeta())


def lmmse_reduced(scene: UplinkScene, assoc) -> np.ndarray:
    """GMMSE restricted to the observations of each UE's associated APs.

    A UE's subcarriers solve R_n restricted to its APs, in one batch per
    UE.  Returns (M, S) weights with zero rows at each UE's excluded APs.
    """
    R = subcarrier_covariances(scene)
    V = np.zeros((scene.num_aps, len(scene.sub)), dtype=complex)
    for k, cols in enumerate(scene.split(np.arange(len(scene.sub)))):
        aps = np.asarray(assoc.ap_sets[k], dtype=int)
        if cols.size and not aps.size:
            raise ValueError("unassociated UE")
        sub = scene.subcarriers[k]
        b = scene.freq[aps][:, k, sub] * np.sqrt(scene.power[k])  # (|A|, N_k)
        V[np.ix_(aps, cols)] = np.linalg.solve(
            R[np.ix_(sub, aps, aps)], b.T[:, :, None])[:, :, 0].T
    return V


def weight_output_sinr(scene: UplinkScene, V: np.ndarray) -> np.ndarray:
    """Analytic output SINRs (S,) of arbitrary per-AP weights V (M, S); a
    symbol whose signal is zero (zero power or zero weights) has SINR 0."""
    R = scene_covariance(scene)
    # w is a column of the stacked (M*N, S) layout gmmse_weights solves in
    # and b one of its UE's own block: BLAS rounds unit-stride and strided
    # dots differently, so the pinned SINR bits need those strides
    W = _stacked(scene, V)
    b = [B[:, i] for B in stacked_channel(scene) for i in range(B.shape[1])]
    sinrs = np.empty(len(b))
    for i, eta in enumerate(np.concatenate(scene.power)):
        w = W[:, i]
        signal = eta * np.abs(w.conj() @ b[i]) ** 2
        denom = np.real(w.conj() @ R @ w) - signal
        sinrs[i] = signal / denom if denom > 0 else np.inf if signal else 0.0
    return sinrs


def _local_terms(scene: UplinkScene):
    """AP-local model of every symbol, each (M, S): the channel
    b = sqrt(eta) h, the diagonal d = [R_n]_mm an AP sees, and the
    interference-plus-noise r of d, summed without the own term."""
    ue, sub = scene.ue, scene.sub
    load = np.abs(scene.freq[:, :, sub]) ** 2 * _power_grid(scene)[:, sub]
    d = load.sum(axis=1) + 1.0 / scene.gamma_u
    load[:, ue, np.arange(len(sub))] = 0.0
    r = load.sum(axis=1) + 1.0 / scene.gamma_u
    return scene.freq[:, ue, sub] * np.sqrt(np.concatenate(scene.power)), d, r


def combined_weights(scene: UplinkScene, lambdas: np.ndarray) -> np.ndarray:
    """Per-AP weights V (M, S) of the CPU's fusion sum_m lambda_m z_m of
    the local MMSE estimates z_m = (b / d)^* y_m: conj(lambda) b / d."""
    b, d, _ = _local_terms(scene)
    return np.conj(lambdas) * b / d


def combined_sinr(scene: UplinkScene, V: np.ndarray) -> np.ndarray:
    """Analytic output SINRs (S,) of per-AP weights V (M, S), in closed
    form per subcarrier.

    Interference is correlated across APs (same transmitted symbols), which
    the variance below accounts for exactly: on symbol s's subcarrier n the
    weight v passes UE l with gain v^H h_ln sqrt(eta_ln).  A symbol whose
    signal is zero has SINR 0.
    """
    own = (np.arange(len(scene.sub)), scene.ue)
    g = np.einsum("ms,mls->sl", V.conj(), scene.freq[:, :, scene.sub]
                  * np.sqrt(_power_grid(scene)[:, scene.sub]))
    signal = np.abs(g[own]) ** 2
    g[own] = 0.0             # zeroed, not subtracted: nothing cancels
    noise = np.sum(np.abs(V) ** 2, axis=0) / scene.gamma_u
    return np.divide(signal, np.sum(np.abs(g) ** 2, axis=1) + noise,
                     out=np.zeros_like(signal), where=signal > 0)


def combining_lambdas(scene: UplinkScene, assoc, mode: str,
                      gains=None) -> np.ndarray:
    """Per-AP diagonal combining weights (M, S) of the CPU fusion modes,
    zero at the APs outside each symbol's UE's association; the
    large-scale modes need per-link ``gains`` (M, K)."""
    served = assoc.zeta()[:, scene.ue] > 0
    # column-major like the channels: combined_sinr sums a column pairwise
    lambdas = np.zeros(served.shape, dtype=complex, order="F")
    if mode in ("equal", "mrc"):
        # mrc: conj(A_m) / C_m, with A = |b|^2 / d and C = |b|^2 r / d^2
        lambdas[served] = 1.0 if mode == "equal" else np.divide(
            *_local_terms(scene)[1:])[served]
        lambdas /= np.maximum(served.sum(axis=0), 1)
    elif mode in ("large_scale_linear", "large_scale_sqrt"):
        # shares proportional to the gains, or to their square roots
        if gains is None:
            raise ValueError("large-scale combining needs per-AP gains")
        g = np.asarray(gains, dtype=float)
        if mode == "large_scale_sqrt":
            g = np.sqrt(g)
        total = np.array([g[list(aps), k].sum()
                          for k, aps in enumerate(assoc.ap_sets)])
        lambdas[served] = (g[:, scene.ue] / total[scene.ue])[served]
    else:
        raise ValueError(f"unknown combining mode {mode!r}")
    return lambdas


def simulate_uplink(scene: UplinkScene, num_draws: int, rng,
                    points="qpsk"):
    """Draw symbols and per-AP observations from the scene model.

    Returns (symbol index arrays per UE, y) with y of shape
    (num_draws, M, N).
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
        y += (pts[idx] * np.sqrt(scene.power[k])) @ stacked_channel(scene)[k].T
    return indices, y.reshape(num_draws, M, N)


def measure_output(scene: UplinkScene, V: np.ndarray, y: np.ndarray,
                   sent: np.ndarray, points="qpsk", measured: bool = False):
    """Empirical symbol SINRs and hard decisions of the outputs
    z = sum_m V_m^* y_m of per-AP weights V (M, S) over draws y
    (draws, M, N) that sent the point indices ``sent`` (draws, S).

    The output amplitude is v^H h sqrt(eta), or, when ``measured``, the
    one a local detector's CPU fits to the draws, mean(z x^*).  A symbol
    with amplitude zero has SINR 0, not 0/0, and is decided on z itself.
    A fitted amplitude matches a single draw exactly and leaves no error
    to measure, so from one draw the measured SINRs are NaN.  Returns
    (SINRs (S,), decided point indices (draws, S)).
    """
    pts = constellation(points)
    x = pts[sent]
    z = np.einsum("dms,ms->ds", y[:, :, scene.sub], V.conj())
    if measured:
        amp = np.mean(z * x.conj(), axis=0)
    else:
        amp = np.sqrt(np.concatenate(scene.power)) * np.einsum(
            "ms,ms->s", V.conj(), scene.freq[:, scene.ue, scene.sub])
    signal = np.abs(amp) ** 2
    if measured and len(y) == 1:
        sinrs = np.full(signal.shape, np.nan)
    else:
        sinrs = np.divide(signal, np.mean(np.abs(z - x * amp) ** 2, axis=0),
                          out=np.zeros_like(signal), where=signal > 0)
    decided = nearest_point(z / np.where(np.abs(amp) > 0, amp, 1.0), pts)
    return sinrs, decided
