"""Pilot training and channel estimation.

UEs send unit-modulus pilot blocks over their assigned subcarriers for
``num_symbols`` OFDM symbols.  Each AP sees the superposition of its
associated UEs through the frequency-domain observation model.
``simulate_pilot_rx`` returns every AP's column-stacked observation as one
row of Y (M, N tau_p), with its noise plus interference level (M,).
Both estimators give the unbiased (diagonally renormalized) MMSE tap
estimate.  ``estimate_all`` serves plans whose stacked tap columns are
pairwise orthogonal or parallel, as the engine's full-band staggered-root
plans are: each column is then an eigenvector of A Q A^H + sigma^2 I, so in
both modes and for any priors a tap's estimate is its matched filter
a^H y / ||a||^2.  ``mmse_estimate`` serves any plan, one AP at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# relative eigenvalue floor: _guarded_inverse truncates below _JITTER*trace/n,
# with n = sum L for the Gram system (trace/n is its mean eigenvalue)
_JITTER = 1e-12


@dataclass(frozen=True)
class PilotPlan:
    """Per-UE pilot blocks and subcarrier maps; one tap count and power."""

    pilot_blocks: tuple          # pilot_blocks[k]: (N_k, tau_p) complex
    subcarrier_sets: tuple       # subcarrier_sets[k]: sorted int array (N_k,)
    num_taps: int                # modeled CIR length L
    pilot_power: float           # watts per active subcarrier
    num_subcarriers: int
    num_symbols: int             # tau_p

    def __post_init__(self):
        for k, (s, sub) in enumerate(zip(self.pilot_blocks,
                                         self.subcarrier_sets)):
            nk = len(sub)
            if s.shape != (nk, self.num_symbols):
                raise ValueError(f"pilot block of UE {k} has wrong shape")
            if not self.num_taps <= nk <= self.num_subcarriers:
                raise ValueError(f"UE {k} needs L <= N_k <= N")

    @property
    def num_ues(self) -> int:
        return len(self.pilot_blocks)

    @cached_property
    def observation_matrices(self) -> tuple:
        """Every UE's observation matrix, built once per plan, read-only."""
        mats = tuple(build_observation_matrix(self, k)
                     for k in range(self.num_ues))
        for A in mats:
            A.flags.writeable = False
        return mats

    @cached_property
    def matched_filter(self) -> np.ndarray:
        """Every tap's matched filter conj(a) / ||a||^2, (N tau_p, K, L),
        built once per plan, read-only; raises ValueError unless any two
        tap columns are orthogonal or parallel, their |cosine| within 1e-9
        of 0 or 1 (engine plans: 3e-14)."""
        A = np.hstack(self.observation_matrices)
        power = np.sum(np.abs(A) ** 2, axis=0)
        cos = np.abs(A.conj().T @ A) / np.sqrt(np.outer(power, power))
        if np.any((cos > 1e-9) & (cos < 1.0 - 1e-9)):
            raise ValueError("pilot tap columns are neither orthogonal nor "
                             "parallel: estimate each AP with mmse_estimate")
        F = (A.conj() / power).reshape(len(A), self.num_ues, self.num_taps)
        F.flags.writeable = False
        return F


def make_pilot_plan(num_ues, num_subcarriers, num_symbols, num_taps,
                    pilot_power=1.0, subcarrier_sets=None, roots=None) -> PilotPlan:
    """Build a DFT-family pilot plan: one tap count and power for all UEs.

    UE k repeats the unit-modulus sequence exp(j 2 pi r_k t / (N_k tau_p))
    over its pilot resource grid; distinct roots make the observation
    matrices nearly orthogonal, repeated roots force pilot contamination.
    By default every UE pilots on all N subcarriers with root index k.
    """
    if subcarrier_sets is None:
        subcarrier_sets = [np.arange(num_subcarriers)] * num_ues
    subcarrier_sets = [np.sort(np.asarray(s, dtype=int)) for s in subcarrier_sets]
    if roots is None:
        # stagger the roots: a time offset inside tau_p plus hops of
        # tau_p * L keeps both the symbol dimension and the tap subspaces
        # of different UEs orthogonal (up to N * tau_p / L users)
        roots = [(k % num_symbols) + num_symbols * num_taps * (k // num_symbols)
                 for k in range(num_ues)]

    blocks = []
    for k in range(num_ues):
        nk = len(subcarrier_sets[k])
        t = np.arange(nk * num_symbols)
        seq = np.exp(2j * np.pi * roots[k] * t / (nk * num_symbols))
        blocks.append(seq.reshape(num_symbols, nk).T.copy())
    return PilotPlan(pilot_blocks=tuple(blocks),
                     subcarrier_sets=tuple(subcarrier_sets),
                     num_taps=int(num_taps), pilot_power=float(pilot_power),
                     num_subcarriers=num_subcarriers,
                     num_symbols=num_symbols)


@lru_cache(maxsize=32)
def _dft_columns(n, L):
    F = np.exp(-2j * np.pi * (np.arange(n)[:, None] * np.arange(L)) / n)
    F.flags.writeable = False
    return F


def build_observation_matrix(plan: PilotPlan, ue: int) -> np.ndarray:
    """Observation matrix mapping UE ``ue``'s taps into the stacked pilot rx.

    Shape (N * tau_p, L): symbol block i equals
    sqrt(P) * diag(scattered pilot column i) * F[:, :L].
    """
    N, tau_p, L = plan.num_subcarriers, plan.num_symbols, plan.num_taps
    scattered = np.zeros((tau_p, N, 1), dtype=complex)
    scattered[:, plan.subcarrier_sets[ue], 0] = plan.pilot_blocks[ue].T
    A = (scattered * _dft_columns(N, L)).reshape(N * tau_p, L)
    return np.sqrt(plan.pilot_power) * A


def simulate_pilot_rx(plan: PilotPlan, channels, assoc, noise_var, rng,
                      interference_var=None):
    """Received pilots at every AP: ``(Y, level)``.

    ``Y`` (M, N * tau_p) holds each AP's column-stacked observation and
    ``level`` (M,) its noise plus interference variance.
    ``interference_var`` may be a scalar, a per-AP sequence, or None for
    the mean per-element rx power of the UEs each AP does not serve.
    """
    rng = np.random.default_rng(rng)
    N, tau_p = plan.num_subcarriers, plan.num_symbols
    M = channels.gains.shape[0]
    served = assoc.zeta().astype(bool)
    Y = np.zeros((M, tau_p, N), dtype=complex)
    interference = np.zeros(M)
    # UE by UE, so every AP adds its UEs in ascending order
    for k in range(plan.num_ues):
        sub = plan.subcarrier_sets[k]
        scattered = np.zeros((tau_p, N), dtype=complex)
        scattered[:, sub] = plan.pilot_blocks[k].T
        aps = served[:, k]
        Y[aps] += (np.sqrt(plan.pilot_power)
                   * channels.freq[aps, k][:, None, :] * scattered)
        interference += np.where(aps, 0.0, plan.pilot_power
                                 * channels.gains[:, k] * len(sub) / N)
    if interference_var is not None:
        interference = np.broadcast_to(interference_var, (M,)).astype(float)
    level = noise_var + interference
    live = level > 0
    # one draw: each AP's real then imaginary (N, tau_p) block, AP by AP
    z = rng.standard_normal((np.count_nonzero(live), 2, N, tau_p))
    noise = np.sqrt(level[live] / 2.0)[:, None, None] * (z[:, 0] + 1j * z[:, 1])
    Y[live] += noise.transpose(0, 2, 1)
    return Y.reshape(M, tau_p * N), level


def tap_prior(gain, num_taps, decay=0.0) -> np.ndarray:
    """Diagonal prior covariance: large-scale gain times the tap profile."""
    from .channel import pdp_profile
    return gain * np.diag(pdp_profile(num_taps, decay))


def _guarded_inverse(bracket):
    """Hermitian inverse with eigenvalues below 1e-12 * trace/n truncated.

    Truncation (rather than plain diagonal jitter) keeps the noiseless,
    rank-deficient case exact instead of amplifying rounding noise in the
    null directions.
    """
    n = bracket.shape[0]
    lam, V = np.linalg.eigh((bracket + bracket.conj().T) / 2.0)
    floor = _JITTER * np.trace(bracket).real / n
    keep = lam > floor
    if not np.any(keep):
        raise ValueError("ill-conditioned training")
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return (V * inv) @ V.conj().T


def _prior_diagonal(prior, ue, num_taps) -> np.ndarray:
    """The diagonal of UE ``ue``'s tap prior; anything else is refused."""
    Q = np.asarray(prior)
    if Q.shape == (num_taps, num_taps):
        d = np.diagonal(Q)
        if (np.count_nonzero(Q) == np.count_nonzero(d)
                and not np.any(d.imag) and d.real.min() >= 0):
            return d.real
    raise ValueError(f"prior of UE {ue} must be a nonnegative diagonal "
                     f"{num_taps}x{num_taps} matrix")


def mmse_estimate(y, level, plan: PilotPlan, ues, priors,
                  mode="single") -> dict:
    """Unbiased MMSE estimates {k: taps} of UEs ``ues`` from one AP's
    observation ``y`` (N * tau_p,) at noise plus interference ``level``,
    on any pilot plan (``estimate_all`` serves the orthogonal ones).

    ``priors`` maps UE index -> diagonal tap covariance (a non-diagonal or
    negative one raises ValueError).  In ``single`` mode each UE is its own
    estimation group (near-orthogonal pilots); in ``mui_suppress`` mode all
    of ``ues`` form one group.  A group stacks its observation matrices
    into A and its prior standard deviations into s, sets B = A diag(s),
    and solves the sum L x sum L Gram system
    G = diag(s) (B^H B + level I)^+ B^H; each UE reads its own rows of G.
    A group with sum L > N tau_p solves the equal, smaller bracket form
    G = Q A^H (A Q A^H + level I)^+ instead.  A per-tap diagonal
    renormalization c = diag(G_k A_k) makes the estimator unbiased.
    """
    if mode not in ("single", "mui_suppress"):
        raise ValueError(f"unknown mode {mode!r}")
    q = {k: _prior_diagonal(priors[k], k, plan.num_taps) for k in ues}
    joint = mode == "mui_suppress"
    out = {}
    for group in [sorted(ues)] if joint and len(ues) else [[k] for k in ues]:
        A = np.hstack([plan.observation_matrices[k] for k in group])
        qg = np.concatenate([q[k] for k in group])
        if len(qg) > len(A):
            # more taps than pilot observations: the bracket is smaller
            bracket = (A * qg) @ A.conj().T + level * np.eye(len(A))
            G = qg[:, None] * (A.conj().T @ _guarded_inverse(bracket))
        else:
            s = np.sqrt(qg)
            B = A * s
            small = B.conj().T @ B + level * np.eye(len(s))
            G = s[:, None] * (_guarded_inverse(small) @ B.conj().T)
        c = np.einsum("ij,ji->i", G, A)
        if np.any(np.abs(c) < 1e-300):
            raise ValueError("ill-conditioned training: degenerate prior")
        est = (G @ y) / c
        out.update(zip(group, est.reshape(len(group), plan.num_taps)))
    return {k: out[k] for k in ues}


def estimate_all(Y, plan: PilotPlan, assoc) -> np.ndarray:
    """Every associated link's taps (M, K, L), zero off the association,
    from ``simulate_pilot_rx``'s Y in one product
    with ``plan.matched_filter`` (see the module docstring)."""
    F = plan.matched_filter
    est = (Y @ F.reshape(len(F), -1)).reshape(len(Y), *F.shape[1:])
    est[~assoc.zeta().astype(bool)] = 0.0
    return est


def nmse(estimates, channels, assoc) -> float:
    """Normalized squared error of ``estimate_all``'s taps over the
    associated links against the true sqrt(g)-scaled taps; NaN when the
    true links carry no power.  The per-link sums are added one link at a
    time in (AP, UE) order."""
    truth = (np.sqrt(channels.gains)[..., None]
             * channels.taps[..., :estimates.shape[-1]])
    served = assoc.zeta().astype(bool)
    err = np.sum(np.abs(estimates - truth) ** 2, axis=-1)[served]
    power = np.sum(np.abs(truth) ** 2, axis=-1)[served]
    err, power = (float(np.cumsum(np.append(0.0, x))[-1]) for x in (err, power))
    return err / power if power > 0 else np.nan
