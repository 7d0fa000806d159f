"""Batched per-subcarrier kernels against their dense stacked oracles.

Tolerances follow from conditioning.  A backward-stable solve of an n x n
system A has a backward error of about n * eps * ||A||; for a Hermitian
positive-definite A this moves x^H A x = b^H A^-1 b, and the solution
itself, by at most cond(A) times that relative amount.  Each comparison
below therefore allows ``SAFETY * n * cond * eps`` with n the size of the
dense stacked system (the larger of the two solves), cond its 2-norm
condition number and SAFETY = 8 for the two solves and the final products.
"""

import numpy as np
import pytest

import dense_oracles as dense
from uccfsim.downlink import dl_sinr_ofdm, tmmse_central_ofdm
from uccfsim.topology import AssociationMap
from uccfsim.uplink import (UplinkScene, gmmse_weights, scene_covariance,
                            stacked_channel, subcarrier_covariances,
                            uplink_sinr, uplink_sinr_all)

EPS = np.finfo(float).eps
SAFETY = 8.0


def random_sets(rng, K, N, shared, empty_ue=None):
    """Subcarrier sets: shared (random overlapping subsets) or exclusive."""
    if shared:
        sets = [np.sort(rng.choice(N, size=rng.integers(1, N + 1),
                                   replace=False)) for _ in range(K)]
    else:
        owner = rng.integers(0, K, N)
        sets = [np.flatnonzero(owner == k) for k in range(K)]
    if empty_ue is not None:
        sets[empty_ue] = np.array([], dtype=int)
    return sets


def random_scene(rng, M, K, N, gamma_u, shared=True, empty_ue=None):
    freq = rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N))
    sets = random_sets(rng, K, N, shared, empty_ue)
    power = []
    for s in sets:
        p = rng.uniform(0.1, 1.0, len(s))
        power.append(p / max(p.sum(), 1.0))
    return UplinkScene(freq=freq, subcarriers=sets, power=power,
                       gamma_u=gamma_u)


# every case: (M, K, N, gamma_u, shared band, UE with no subcarriers)
CASES = [
    (3, 4, 5, 100.0, True, None),     # several UEs per subcarrier
    (4, 3, 6, 100.0, False, None),    # exclusive subcarriers
    (3, 3, 4, 100.0, True, 1),        # one UE without subcarriers
    (4, 3, 1, 100.0, True, None),     # N = 1
    (2, 2, 3, 1e4, True, None),       # higher SNR, larger cond
    (5, 2, 1, 30.0, False, 0),        # N = 1 and an empty UE
]


def uplink_tolerance(scene):
    """SAFETY * MN * cond * eps over the exclude-self systems of the scene."""
    R = np.array(scene_covariance(scene))
    worst = 1.0
    for k in range(scene.num_ues):
        B = stacked_channel(scene, k)
        for i in range(B.shape[1]):
            b = B[:, i]
            A = R - scene.power[k][i] * np.outer(b, b.conj())
            worst = max(worst, np.linalg.cond(A))
    return SAFETY * R.shape[0] * worst * EPS


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_uplink_sinr_all_matches_dense(M, K, N, gamma_u, shared, empty_ue):
    rng = np.random.default_rng([M, K, N, int(gamma_u)])
    for _ in range(5):
        scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
        rtol = uplink_tolerance(scene)
        got = uplink_sinr_all(scene)
        want = dense.uplink_sinr_all(scene)
        assert len(got) == len(want) == K
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.shape == (len(scene.subcarriers[k]),)
            np.testing.assert_allclose(g, w, rtol=rtol, atol=0)
            for i in range(len(g)):
                assert uplink_sinr(scene, k, i) == g[i]


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_subcarrier_covariances_are_the_diagonal_blocks(M, K, N, gamma_u,
                                                        shared, empty_ue):
    rng = np.random.default_rng([7, M, K, N])
    scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
    R = scene_covariance(scene).reshape(M, N, M, N)
    blocks = subcarrier_covariances(scene)
    scale = np.abs(R).max()
    for n in range(N):
        # a few roundings per accumulated term; no term exceeds the
        # largest diagonal entry
        np.testing.assert_allclose(blocks[n], R[:, n, :, n], rtol=0,
                                   atol=SAFETY * (K + 1) * EPS * scale)
        off = np.delete(R[:, n, :, :], n, axis=2)
        assert np.all(off == 0)


def test_gmmse_multi_rhs_equals_per_ue_solves():
    rng = np.random.default_rng(11)
    for M, K, N, gamma_u, shared, empty_ue in CASES:
        scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
        R = np.array(scene_covariance(scene))
        # both sides use the same LU factors; only the triangular solves
        # may order their sums differently
        atol_scale = SAFETY * R.shape[0] * np.linalg.cond(R) * EPS
        for k, W in enumerate(gmmse_weights(scene)):
            B = stacked_channel(scene, k) * np.sqrt(scene.power[k])
            want = np.linalg.solve(R, B)
            assert W.shape == want.shape
            np.testing.assert_allclose(
                W, want, rtol=0,
                atol=atol_scale * np.abs(want).max(initial=0.0))


def test_scene_covariance_is_built_once_and_read_only():
    rng = np.random.default_rng(12)
    scene = random_scene(rng, 3, 2, 4, 100.0)
    first = scene_covariance(scene)
    snapshot = first.copy()
    with pytest.raises(ValueError):
        first[0, 0] = 123.0
    again = scene_covariance(scene)
    np.testing.assert_array_equal(again, snapshot)
    # the cached matrix is the same arithmetic as an explicit build
    np.testing.assert_array_equal(
        again, scene_covariance(scene, aps=range(scene.num_aps)))
    # a subset build is independent of the cache and writable
    sub = scene_covariance(scene, aps=[0, 2])
    sub[0, 0] = 5.0
    np.testing.assert_array_equal(scene_covariance(scene), snapshot)


def precoder_tolerance(freq, sets, noise_var, assoc):
    """SAFETY * MN * cond * eps of the stacked downlink bracket."""
    M, K, N = freq.shape
    h = freq if assoc is None else freq * assoc.zeta()[:, :, None]
    bracket = noise_var * np.eye(M * N, dtype=complex)
    for l in range(K):
        H = dense.stacked_dl_channel(h, l)
        mask = np.zeros(N)
        mask[sets[l]] = 1.0
        bracket += (H.conj() * mask) @ H.T
    return SAFETY * M * N * np.linalg.cond(bracket) * EPS


def random_assoc(rng, M, K):
    ap_sets = [sorted(rng.choice(M, size=rng.integers(1, M + 1),
                                 replace=False).tolist()) for _ in range(K)]
    return AssociationMap.from_ap_sets(ap_sets, num_aps=M)


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
@pytest.mark.parametrize("masked", [False, True])
def test_tmmse_central_ofdm_matches_dense(M, K, N, gamma_u, shared, empty_ue,
                                          masked):
    rng = np.random.default_rng([21, M, K, N, masked])
    noise_var = 1.0 / gamma_u
    for _ in range(3):
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N)))
        sets = random_sets(rng, K, N, shared, empty_ue)
        delta = rng.uniform(0.05, 1.0, (K, N))
        assoc = random_assoc(rng, M, K) if masked else None
        tol = precoder_tolerance(freq, sets, noise_var, assoc)
        got = tmmse_central_ofdm(freq, sets, noise_var, delta, assoc=assoc)
        want = dense.tmmse_central_ofdm(freq, sets, noise_var, delta,
                                        assoc=assoc)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (M * N, N)
            # the stacked layout keeps its exact zeros off the diagonal
            assert np.all(g[w == 0] == 0)
            assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w)


def dl_sinr_tolerance(freq, precoders, sets, a0, noise_var):
    """Per-symbol rounding bound of the desired and interference sums.

    No solve is involved: each gain is an M-term dot product h^T p, whose
    squared magnitude carries a relative error of at most
    2 M eps (sum |h||p|)^2 / |h^T p|^2.  The bound adds those errors over
    the desired term and every interfering stream, plus one rounding per
    summed stream, and doubles the total because both sides round.
    """
    M, K, N = freq.shape
    streams = np.concatenate([P[:, s] for P, s in zip(precoders, sets)],
                             axis=1).reshape(M, N, -1)
    count = streams.shape[2]
    out = []
    first = 0
    for k, s in enumerate(sets):
        exact = np.abs(np.einsum("mi,mis->is", freq[:, k, s],
                                 streams[:, s, :])) ** 2
        upper = np.einsum("mi,mis->is", np.abs(freq[:, k, s]),
                          np.abs(streams[:, s, :])) ** 2
        rows = np.arange(len(s))
        own = first + rows
        desired, desired_up = exact[rows, own], upper[rows, own]
        exact[rows, own] = 0.0
        upper[rows, own] = 0.0
        denom = exact.sum(axis=1) + noise_var / a0**2
        out.append(4 * M * EPS * (desired_up / desired
                                  + upper.sum(axis=1) / denom)
                   + 2 * count * EPS)
        first += len(s)
    return out


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
@pytest.mark.parametrize("structured", [True, False])
def test_dl_sinr_ofdm_matches_dense(M, K, N, gamma_u, shared, empty_ue,
                                    structured):
    rng = np.random.default_rng([31, M, K, N, structured])
    noise_var = 1.0 / gamma_u
    for _ in range(3):
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N)))
        sets = random_sets(rng, K, N, shared, empty_ue)
        if structured:
            precoders = tmmse_central_ofdm(
                freq, sets, noise_var, rng.uniform(0.05, 1.0, (K, N)),
                assoc=random_assoc(rng, M, K))
        else:
            # no block structure at all: every AP output mixes every stream
            precoders = [rng.standard_normal((M * N, N))
                         + 1j * rng.standard_normal((M * N, N))
                         for _ in range(K)]
        a0 = float(rng.uniform(0.5, 2.0))
        got = dl_sinr_ofdm(freq, precoders, sets, a0, noise_var)
        want = dense.dl_sinr_ofdm(freq, precoders, sets, a0, noise_var)
        bounds = dl_sinr_tolerance(freq, precoders, sets, a0, noise_var)
        for g, w, b in zip(got, want, bounds):
            assert g.shape == w.shape
            assert np.all(np.abs(g - w) <= b * np.abs(w))
