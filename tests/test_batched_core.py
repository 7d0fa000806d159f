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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracles as dense
from uccfsim.downlink import dl_sinr_ofdm, tmmse_central_ofdm
from uccfsim.topology import AssociationMap
from uccfsim.uplink import (SinrSkeleton, UplinkScene, combined_sinr,
                            combined_weights, combining_lambdas,
                            gmmse_weights, lmmse_column_sliced, lmmse_reduced,
                            scene_covariance, stacked_channel,
                            subcarrier_covariances, uplink_sinr_all)

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
        skeleton = SinrSkeleton(scene.freq, scene.subcarriers, scene.gamma_u)
        got = skeleton.split(uplink_sinr_all(skeleton,
                                             np.concatenate(scene.power)))
        want = dense.uplink_sinr_all(scene)
        assert len(got) == len(want) == K
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.shape == (len(scene.subcarriers[k]),)
            np.testing.assert_allclose(g, w, rtol=rtol, atol=0)


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
        for k, V in enumerate(gmmse_weights(scene)):
            B = stacked_channel(scene, k) * np.sqrt(scene.power[k])
            want = np.linalg.solve(R, B)
            assert V.shape == (M, B.shape[1])
            W = dense.stacked_weights(scene, k, V)
            np.testing.assert_allclose(
                W, want, rtol=0,
                atol=atol_scale * np.abs(want).max(initial=0.0))


def assert_covariance_bit_equal(scene):
    """The row-wise build against the full stacked products: same bits."""
    np.testing.assert_array_equal(
        scene_covariance(scene),
        dense.stacked_covariance(scene, range(scene.num_aps)))


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
    assert_covariance_bit_equal(scene)
    for case in CASES:
        assert_covariance_bit_equal(random_scene(rng, *case))


@settings(max_examples=120, deadline=None)
@given(M=st.integers(1, 6), K=st.integers(1, 5), N=st.integers(1, 9),
       log_gamma=st.floats(0.0, 12.0), shared=st.booleans(),
       empty=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(M=3, K=4, N=5, log_gamma=2.0, shared=True, empty=True, seed=0)
@example(M=4, K=3, N=1, log_gamma=2.0, shared=False, empty=False, seed=1)
@example(M=5, K=1, N=6, log_gamma=8.0, shared=True, empty=False, seed=2)
def test_scene_covariance_bit_equal_to_stacked_products(M, K, N, log_gamma,
                                                       shared, empty, seed):
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, M, K, N, 10.0 ** log_gamma, shared,
                         empty_ue=int(rng.integers(K)) if empty else None)
    assert_covariance_bit_equal(scene)


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
        assert got.shape == (N, M, K)
        for g, w, s in zip(dense.stacked_precoders(got), want, sets):
            assert g.shape == w.shape == (M * N, N)
            # the stacked layout keeps its exact zeros off the diagonal
            assert np.all(g[w == 0] == 0)
            # only the assigned subcarriers' columns are transmitted
            g, w = g[:, s], w[:, s]
            assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w)


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_tmmse_central_ofdm_is_zero_off_the_assignment(M, K, N, gamma_u,
                                                       shared, empty_ue):
    rng = np.random.default_rng([22, M, K, N])
    for _ in range(3):
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N)))
        sets = random_sets(rng, K, N, shared, empty_ue)
        # a power on every subcarrier, so the mask alone must zero the rest
        delta = rng.uniform(0.05, 1.0, (K, N))
        P = tmmse_central_ofdm(freq, sets, 1.0 / gamma_u, delta,
                               assoc=random_assoc(rng, M, K))
        for k, s in enumerate(sets):
            off = np.setdiff1d(np.arange(N), s)
            assert np.all(P[off, :, k] == 0)
            assert np.all(np.any(P[s, :, k] != 0, axis=1))


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
            # arbitrary per-subcarrier precoders, masked to the assignment
            mask = np.zeros((N, 1, K))
            for k, s in enumerate(sets):
                mask[s, 0, k] = 1.0
            precoders = mask * (rng.standard_normal((N, M, K))
                                + 1j * rng.standard_normal((N, M, K)))
        stacked = dense.stacked_precoders(precoders)
        a0 = float(rng.uniform(0.5, 2.0))
        got = dl_sinr_ofdm(freq, precoders, sets, a0, noise_var)
        want = dense.dl_sinr_ofdm(freq, stacked, sets, a0, noise_var)
        bounds = dl_sinr_tolerance(freq, stacked, sets, a0, noise_var)
        for g, w, b in zip(got, want, bounds):
            assert g.shape == w.shape
            assert np.all(np.abs(g - w) <= b * np.abs(w))


# ---------------------------------------------------------------------------
# association-restricted MMSE and local detection with CPU fusion

@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_lmmse_column_sliced_matches_dense_inverse(M, K, N, gamma_u, shared,
                                                   empty_ue):
    rng = np.random.default_rng([41, M, K, N])
    for _ in range(3):
        scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
        assoc = random_assoc(rng, M, K)
        # the dense inverse and the batched solve each err by n * cond * eps
        tol = SAFETY * M * N * np.linalg.cond(scene_covariance(scene)) * EPS
        got = lmmse_column_sliced(scene, assoc)
        want = dense.lmmse_column_sliced(scene, assoc)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.shape == (M, w.shape[1])
            g = dense.stacked_weights(scene, k, g)
            assert np.all(g[w == 0] == 0)
            assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w)


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_lmmse_reduced_matches_dense_restricted_solve(M, K, N, gamma_u, shared,
                                                      empty_ue):
    rng = np.random.default_rng([42, M, K, N])
    for _ in range(3):
        scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
        assoc = random_assoc(rng, M, K)
        for k in range(K):
            R = dense.stacked_covariance(scene, assoc.ap_sets[k])
            tol = SAFETY * R.shape[0] * np.linalg.cond(R) * EPS
            got = lmmse_reduced(scene, assoc, k)
            want = dense.lmmse_reduced(scene, assoc, k)
            assert got.shape == (M, want.shape[1])
            got = dense.stacked_weights(scene, k, got)
            # rows of unassociated APs stay exactly zero
            assert np.all(got[want == 0] == 0)
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def single_ap_lambdas(scene, m, k):
    """Unit fusion weights at AP m alone: the fused weight is AP m's local
    MMSE weight and the fused output its local estimate."""
    lambdas = np.zeros((scene.num_aps, len(scene.subcarriers[k])),
                       dtype=complex)
    lambdas[m] = 1.0
    return lambdas


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_local_ap_weights_match_per_ap_model(M, K, N, gamma_u, shared,
                                             empty_ue):
    rng = np.random.default_rng([43, M, K, N])
    scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
    # a quotient by a sum of K + 1 positive terms, rounded by at most
    # (K + 1) eps relative on each side
    rtol = SAFETY * (K + 1) * EPS
    for m in range(M):
        for k in range(K):
            got = combined_weights(scene, k, single_ap_lambdas(scene, m, k))
            want = dense.local_ap_weights(scene, m, k)
            assert got.shape == (M, want.shape[1])
            got = dense.stacked_weights(scene, k, got)
            assert np.all(np.delete(got.reshape(M, N, -1), m, axis=0) == 0)
            got = got[m * N:(m + 1) * N]
            assert np.all(np.abs(got - want) <= rtol * np.abs(want))


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_local_stats_and_mrc_match_matrix_forms(M, K, N, gamma_u, shared,
                                                empty_ue):
    # the local statistics (A_mk, C_mk) enter the fusion through the MRC
    # weights conj(A) / C and through each AP's own SINR |A|^2 / C, the
    # SINR of the fused weight at that AP alone
    rng = np.random.default_rng([44, M, K, N])
    rtol = SAFETY * (K + 1) * EPS
    for _ in range(3):
        scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
        assoc = random_assoc(rng, M, K)
        for k in range(K):
            want = dense.local_combining_stats(scene, assoc, k)
            lam = combining_lambdas(scene, assoc, k, "mrc")
            lam_want = dense.mrc_lambdas(scene, assoc, k)
            assert lam.shape == (M, len(scene.subcarriers[k]))
            assert np.all(np.delete(lam, list(want), axis=0) == 0)
            for m, (A, C) in want.items():
                a, c = np.diag(A), np.diag(C)
                # the matrix form subtracts the own term from [R_n]_mm,
                # which amplifies its rounding by [R_n]_mm / C = |A / C|
                amplify = np.abs(a / c)
                assert np.all(np.abs(lam[m] - lam_want[m])
                              <= rtol * amplify * np.abs(lam_want[m]))
                alone = combined_weights(scene, k,
                                         single_ap_lambdas(scene, m, k))
                B = stacked_channel(scene, k) * np.sqrt(scene.power[k])
                gain = np.einsum("ni,ni->i", dense.stacked_weights(
                    scene, k, alone).conj(), B)
                assert np.all(np.abs(gain - a) <= rtol * np.abs(a))
                sinr = combined_sinr(scene, k, alone)
                sinr_want = np.abs(a) ** 2 / np.real(c)
                assert np.all(np.abs(sinr - sinr_want)
                              <= rtol * (2 + amplify) * sinr_want)


def fused_oracle_weights(scene, k, lambdas):
    """Stacked conj(lambda_m) W_m from the per-AP oracle weights."""
    N = scene.num_subcarriers
    W = np.zeros((scene.num_aps * N, len(scene.subcarriers[k])), dtype=complex)
    for m, lam in enumerate(lambdas):
        W[m * N:(m + 1) * N] = np.conj(lam) * dense.local_ap_weights(scene, m, k)
    return W


def all_lambdas(rng, scene, assoc, k):
    """Every fusion mode's weights plus arbitrary complex per-AP weights."""
    gains = rng.uniform(0.1, 1.0, scene.num_aps)
    out = [combining_lambdas(scene, assoc, k, mode, gains=gains)
           for mode in ("equal", "mrc", "large_scale_linear",
                        "large_scale_sqrt")]
    aps = list(assoc.ap_sets[k])
    shape = (len(aps), len(scene.subcarriers[k]))
    arbitrary = np.zeros((scene.num_aps, shape[1]), dtype=complex)
    arbitrary[aps] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out.append(arbitrary)
    return out


def combined_sinr_tolerance(scene, k, lambdas):
    """Rounding bound of the fused gains and of their sums.

    Each gain W^H b is a sum of at most M products whose factors the two
    sides round differently by at most (K + 1) eps (the local diagonal),
    so its squared magnitude carries a relative error of at most
    2 (M + K + 1) eps (sum |W||b|)^2 / |W^H b|^2.  The bound adds those
    over the desired term, every interfering symbol and the noise term,
    plus one rounding per summed symbol, and doubles the total because
    both sides round.
    """
    M, K, N = scene.freq.shape
    W = fused_oracle_weights(scene, k, lambdas)
    i = np.arange(W.shape[1])
    exact, upper = [], []
    for l in range(K):
        B = stacked_channel(scene, l) * np.sqrt(scene.power[l])
        exact.append(np.abs(W.conj().T @ B) ** 2)
        upper.append((np.abs(W).T @ np.abs(B)) ** 2)
    desired, desired_up = exact[k][i, i], upper[k][i, i]
    exact[k][i, i] = upper[k][i, i] = 0.0
    denom = (sum(e.sum(axis=1) for e in exact)
             + np.sum(np.abs(W) ** 2, axis=0) / scene.gamma_u)
    count = sum(len(s) for s in scene.subcarriers) + 1
    return (4 * (M + K + 1) * EPS
            * (desired_up / desired + sum(u.sum(axis=1) for u in upper) / denom
               + 1.0)
            + 2 * count * EPS)


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_combined_sinr_matches_symbol_loop(M, K, N, gamma_u, shared,
                                           empty_ue):
    rng = np.random.default_rng([45, M, K, N])
    for _ in range(3):
        scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
        assoc = random_assoc(rng, M, K)
        for k in range(K):
            for lambdas in all_lambdas(rng, scene, assoc, k):
                got = combined_sinr(scene, k,
                                    combined_weights(scene, k, lambdas))
                want = dense.combined_sinr(scene, k, lambdas)
                bound = combined_sinr_tolerance(scene, k, lambdas)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= bound * want)


@pytest.mark.parametrize("M,K,N,gamma_u,shared,empty_ue", CASES)
def test_combined_weights_equal_per_draw_fusion(M, K, N, gamma_u, shared,
                                                empty_ue):
    rng = np.random.default_rng([46, M, K, N])
    scene = random_scene(rng, M, K, N, gamma_u, shared, empty_ue)
    assoc = random_assoc(rng, M, K)
    y = (rng.standard_normal((20, M, N))
         + 1j * rng.standard_normal((20, M, N)))
    for k in range(K):
        for lambdas in all_lambdas(rng, scene, assoc, k):
            got = dense.stacked_output(scene, k,
                                       combined_weights(scene, k, lambdas), y)
            want = dense.fused_estimates(scene, k, lambdas, y)
            # at most M products per entry, each factor off by (K + 1) eps
            scale = (np.abs(y.reshape(20, -1))
                     @ np.abs(fused_oracle_weights(scene, k, lambdas)))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want)
                          <= SAFETY * (M + K + 1) * EPS * scale)
