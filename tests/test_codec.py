import itertools
import tracemalloc

import numpy as np
import pytest

from srldpc import blas, codec
from srldpc.codec import (
    COLUMN_BLOCK, DesignMatrix, _column_keys, awgn, hard_decision,
    index_codeword, rng_stream, snr_to_sigma2, STREAM_BITS, STREAM_MATRIX,
    STREAM_NOISE,
)
from srldpc.denoiser import local_posterior
from srldpc.gf import GF2m
from srldpc.harness import SimConfig, _sigma2
from srldpc.ldpc import build_code, syndrome_check


@pytest.fixture(scope="module")
def desk():
    field = GF2m(4)
    code, enc = build_code(field, L=128, P=8, dv=3, seed=5)
    A = DesignMatrix(600, field.q * code.L, seed=77)
    return field, code, enc, A


# ---------------------------------------------------------------------------
# Indexing and hard decisions
# ---------------------------------------------------------------------------

def test_index_all_zero_codeword():
    s = index_codeword(np.zeros(5, dtype=int), q=4)
    assert np.array_equal(s.reshape(5, 4)[:, 0], np.ones(5))
    assert s.sum() == 5


def test_index_example():
    s = index_codeword([2, 0], q=4)
    assert np.array_equal(s, [0, 0, 1, 0, 1, 0, 0, 0])


def test_index_norms():
    rng = np.random.default_rng(0)
    v = rng.integers(0, 16, size=40)
    s = index_codeword(v, q=16)
    assert np.count_nonzero(s) == 40
    assert s @ s == 40


def test_index_rejects_bad_symbols():
    with pytest.raises(ValueError):
        index_codeword([4], q=4)


def test_hard_decision_inverts_indexing():
    rng = np.random.default_rng(1)
    v = rng.integers(0, 8, size=30)
    assert np.array_equal(hard_decision(index_codeword(v, 8), 8), v)


def test_hard_decision_tie_rule():
    assert hard_decision(np.full(4, 0.25), 4)[0] == 0
    assert hard_decision(np.array([0.1, 0.7, 0.2, 0.0]), 4)[0] == 1


# ---------------------------------------------------------------------------
# Design matrix and transmit
# ---------------------------------------------------------------------------

def test_transmit_zero(desk):
    _, _, _, A = desk
    assert np.all(A.matvec(np.zeros(A.n_cols)) == 0)


def test_transmit_one_hot_column_sum(desk):
    field, code, enc, A = desk
    rng = np.random.default_rng(2)
    v = rng.integers(0, field.q, size=code.L)
    s = index_codeword(v, field.q)
    x = A.matvec(s)
    manual = np.zeros(A.n)
    for l in range(code.L):
        manual += A._A[:, l * field.q + v[l]]
    assert np.allclose(x, manual, atol=1e-5)


def test_transmit_energy_near_L(desk):
    # expectation is over codewords and matrices jointly, so draw both
    field, code, enc, _ = desk
    rng = np.random.default_rng(3)
    energies = []
    for seed in range(10):
        A = DesignMatrix(600, field.q * code.L, seed=1000 + seed)
        for _ in range(20):
            v = enc.encode(rng.integers(0, field.q, size=enc.k))
            x = A.matvec(index_codeword(v, field.q))
            energies.append(x @ x)
    energies = np.asarray(energies)
    sem = energies.std(ddof=1) / np.sqrt(len(energies))
    assert abs(energies.mean() - code.L) < 3 * sem


def test_column_norms_concentrate(desk):
    _, _, _, A = desk
    norms = np.linalg.norm(A._A.astype(np.float64), axis=0)
    assert np.all(np.abs(norms - 1.0) < 5.0 / np.sqrt(A.n))


def test_matrix_deterministic():
    A1 = DesignMatrix(50, 64, seed=9)
    A2 = DesignMatrix(50, 64, seed=9)
    A3 = DesignMatrix(50, 64, seed=10)
    assert np.array_equal(A1._A, A2._A)
    assert not np.array_equal(A1._A, A3._A)


def test_column_is_its_own_seeded_stream():
    """Column j of a seeded matrix is regenerable from its own stream,
    also across the blocks of columns the matrix is built in, for
    one- and two-word seeds."""
    for seed, n_cols in itertools.product((11, 0, 2 ** 32 + 5),
                                          (96, 3 * COLUMN_BLOCK + 5)):
        A = DesignMatrix(40, n_cols, seed=seed)
        assert A._A.flags["C_CONTIGUOUS"]
        for j in {0, 1, 37, COLUMN_BLOCK - 1, COLUMN_BLOCK,
                  2 * COLUMN_BLOCK + 1, n_cols - 1} & set(range(n_cols)):
            col = rng_stream(A.seed, STREAM_MATRIX, j).standard_normal(A.n)
            expected = (col * (1 / np.sqrt(A.n))).astype(np.float32)
            assert np.array_equal(A._A[:, j], expected)


@pytest.mark.parametrize("stream", [STREAM_MATRIX, STREAM_BITS])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                  2 ** 130 + 9, [7, 2 ** 40]])
def test_column_keys_match_seed_sequence(seed, stream):
    """Each vectorized key is the Philox key SeedSequence derives for
    the (seed, stream, j) stream, for one- to five-word seeds and a
    sequence seed."""
    n_cols = 300
    keys = _column_keys(seed, stream, n_cols)
    assert keys.shape == (n_cols, 2) and keys.dtype == np.uint64
    for j in (0, 1, 255, 256, n_cols - 1):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream, j))
        assert np.array_equal(keys[j], seq.generate_state(2, np.uint64))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_column_keys_reject_bad_seeds_like_rng_stream(seed, error):
    with pytest.raises(error):
        rng_stream(seed, STREAM_MATRIX, 0)
    with pytest.raises(error):
        _column_keys(seed, STREAM_MATRIX, 4)
    with pytest.raises(error):
        DesignMatrix(4, 4, seed)


def test_design_matrix_rejects_no_rows():
    with pytest.raises(ValueError, match=r"^n must"):
        DesignMatrix(0, 16, seed=1)


def test_design_matrix_rejects_no_columns():
    with pytest.raises(ValueError, match=r"^n_cols must"):
        DesignMatrix(16, 0, seed=1)


def test_design_matrix_build_holds_one_copy():
    """Building the matrix allocates little beyond the matrix itself."""
    tracemalloc.start()
    try:
        A = DesignMatrix(300, 4096, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * A._A.nbytes


def test_matvec_shape_checks(desk):
    _, _, _, A = desk
    with pytest.raises(ValueError):
        A.matvec(np.zeros(3))
    with pytest.raises(ValueError):
        A.rmatvec(np.zeros(3))


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, None), ()])
def test_stacked_matvec_shape_checks(desk, shape):
    """Neither product takes a stack of more than two dimensions, a
    scalar or vectors of the wrong length."""
    _, _, _, A = desk
    for product, name, length in ((A.matvec, "s", A.n_cols),
                                  (A.rmatvec, "z", A.n)):
        bad = tuple(length if d is None else d for d in shape)
        with pytest.raises(ValueError, match=f"expected {name} "):
            product(np.zeros(bad))


@pytest.fixture(scope="module")
def matrices():
    """A desk-width design matrix for each row count n."""
    return {n: DesignMatrix(n, 2048, seed=n)
            for n in (127, 165, 600, 601, 603)}


def _full_gemvs(M, V):
    """One whole-matrix float32 gemv per row of V, on one OpenBLAS
    thread, returned in float64."""
    with blas.one_thread():
        return np.stack([M @ v.astype(np.float32) for v in V]
                        ).astype(np.float64)


@pytest.mark.parametrize("budget", ["default", "64 rows"])
@pytest.mark.parametrize("n", [127, 165, 600, 601, 603])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_stacked_matvec_equals_full_gemvs_bitwise(matrices, monkeypatch,
                                                  budget, n, K):
    """Row k of A s for a (K, n_cols) stack is bitwise the whole-matrix
    gemv of s[k].  With a 64-row budget the product walks several
    64-row blocks and a partial one at every n here; a block of 120
    rows rounds some rows differently at n=601."""
    A = matrices[n]
    if budget != "default":
        monkeypatch.setattr(codec, "ROW_BLOCK_BYTES", 4 * 64 * A.n_cols)
    S = np.random.default_rng(K * n).standard_normal((K, A.n_cols))
    got = A.matvec(S)
    assert got.shape == (K, n) and got.dtype == np.float64
    assert np.array_equal(got, _full_gemvs(A._A, S))
    assert np.array_equal(A.matvec(S[0]), got[0])


@pytest.mark.parametrize("n", [127, 601])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_stacked_rmatvec_equals_full_gemvs_bitwise(matrices, n, K):
    A = matrices[n]
    Z = np.random.default_rng(K * n).standard_normal((K, n))
    got = A.rmatvec(Z)
    assert got.shape == (K, A.n_cols) and got.dtype == np.float64
    assert np.array_equal(got, _full_gemvs(A._A.T, Z))
    assert np.array_equal(A.rmatvec(Z[0]), got[0])


def test_products_run_blas_on_one_thread(getters, monkeypatch):
    """Both products run every OpenBLAS on one thread, whatever count
    the caller set, and leave the caller's count in place."""
    inside = []
    real = np.matmul

    def spy(a, b, out=None):
        inside.append([get() for get in getters])
        return real(a, b, out=out)

    monkeypatch.setattr(codec.np, "matmul", spy)
    A = DesignMatrix(200, 2048, seed=1)
    A.matvec(np.zeros((2, 2048)))
    A.rmatvec(np.zeros((2, 200)))
    assert inside == [[1] * len(getters)] * (2 * 2 + 2)
    assert [get() for get in getters] == [2] * len(getters)


def test_matvec_row_blocks_are_64_row_multiples(monkeypatch):
    """The row block is about ROW_BLOCK_BYTES of A, rounded down to a
    multiple of 64 rows, and never fewer than 64 rows: 128 rows at desk
    width, 64 where one row alone passes the budget."""
    blocks = []
    real = np.matmul

    def spy(a, b, out=None):
        blocks.append(len(a))
        return real(a, b, out=out)

    monkeypatch.setattr(codec.np, "matmul", spy)
    for n_cols, rows in ((2048, 128), (3000, 64), (9000, 64)):
        blocks.clear()
        A = DesignMatrix(200, n_cols, seed=1)
        A.matvec(np.zeros(n_cols))
        assert blocks == [rows] * (200 // rows) + [200 % rows]


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_awgn_small_variance_limit():
    x = np.linspace(-1, 1, 100)
    y = awgn(x, 1e-30, rng=rng_stream(0, STREAM_NOISE))
    assert np.abs(y - x).max() < 1e-12


def test_awgn_empirical_variance():
    x = np.zeros(10 ** 5)
    y = awgn(x, 0.37, rng=rng_stream(1, STREAM_NOISE))
    assert abs(y.var() - 0.37) / 0.37 < 0.02


def test_awgn_deterministic():
    x = np.ones(64)
    assert np.array_equal(awgn(x, 0.5, rng=rng_stream(3, STREAM_NOISE)),
                          awgn(x, 0.5, rng=rng_stream(3, STREAM_NOISE)))


def test_awgn_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        awgn(np.ones(4), 0.0, rng=rng_stream(0, STREAM_NOISE))


def test_snr_to_sigma2_unit_point():
    # choose ebno so that 10^(ebno/10) = L / (2B): sigma2 == 1
    L, B = 100, 50
    ebno = 10 * np.log10(L / (2 * B))
    assert snr_to_sigma2(ebno, B, L) == pytest.approx(1.0, rel=1e-12)


def test_snr_to_sigma2_reference_value():
    # the paper's operating point: B=5888, L=766 at 2.5 dB
    assert snr_to_sigma2(2.5, 5888, 766) == pytest.approx(0.03658, rel=1e-3)


def test_snr_to_sigma2_scaling():
    s1 = snr_to_sigma2(3.0, 480, 128)
    s2 = snr_to_sigma2(3.0, 960, 128)
    assert s2 == pytest.approx(s1 / 2, rel=1e-12)


def test_channel_params():
    # the paper's operating point as an experiment config carries it:
    # q=256, L=766, P=30, so B=5888, with n=7350 channel uses
    cfg = SimConfig(m=8, L=766, P=30, B=5888, n=7350, ebno_db=(2.5,))
    assert cfg.rate_overall == pytest.approx(5888 / 7350, rel=1e-12)
    assert _sigma2(cfg, 2.5) == snr_to_sigma2(2.5, 5888, 766)
    assert _sigma2(cfg, 2.5) == pytest.approx(0.03658, rel=1e-3)


def test_rng_streams_reproducible_and_distinct():
    a = rng_stream(5, 1, 2).standard_normal(8)
    b = rng_stream(5, 1, 2).standard_normal(8)
    c = rng_stream(5, 1, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Geometric uniformity and section-channel symmetry
# ---------------------------------------------------------------------------

def test_geometric_uniformity(desk):
    field, code, enc, _ = desk
    rng = np.random.default_rng(5)
    v = enc.encode(rng.integers(0, field.q, size=enc.k))
    v2 = enc.encode(rng.integers(0, field.q, size=enc.k))
    u = v ^ v2   # difference codeword; XOR is field subtraction
    samples = [enc.encode(rng.integers(0, field.q, size=enc.k))
               for _ in range(50)]
    # the induced section permutation w -> w (+) u maps codewords to
    # codewords and maps v to v2
    assert np.array_equal(v ^ u, v2)
    for w in samples:
        assert syndrome_check(code, w ^ u)
    # pairwise distances between indexed states are preserved exactly
    for i in range(0, 10, 2):
        a, b = samples[i], samples[i + 1]
        d_before = np.sum(a != b)
        d_after = np.sum((a ^ u) != (b ^ u))
        assert d_before == d_after   # squared distance is 2 * (# diffs)


def test_section_channel_permutation_invariance():
    """Posterior of a permuted observation equals the permuted posterior;
    this is a deterministic identity of the softmax form."""
    rng = np.random.default_rng(6)
    q = 16
    r = rng.standard_normal(q)
    perm = rng.permutation(q)
    a_perm = local_posterior(r[perm], 0.3)
    a_orig = local_posterior(r, 0.3)[perm]
    assert np.allclose(a_perm, a_orig, rtol=1e-13, atol=0)


def test_noiseless_round_trip_desk_scale(desk):
    from srldpc.amp import DecoderParams, decode
    from srldpc.denoiser import Schedule
    from srldpc.ldpc import bits_to_symbols

    field, code, enc, A = desk
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=480)
    v = enc.encode(bits_to_symbols(bits, field.m))
    x = A.matvec(index_codeword(v, field.q))
    y = awgn(x, 1e-12, rng=rng_stream(8, STREAM_NOISE))
    params = DecoderParams(amp_iters=25, final_bp_iters=50,
                           schedule=Schedule("bpn"), tau2_floor=1e-14)
    res = decode(y, A, code, enc, params)
    assert res.success
    assert np.array_equal(res.symbols, v)
    assert np.array_equal(res.bits, bits)
