import numpy as np
import pytest

from srldpc.codec import (
    DesignMatrix, awgn, hard_decision, index_codeword,
    rng_stream, snr_to_sigma2, transmit,
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
    assert np.all(transmit(np.zeros(A.n_cols), A) == 0)


def test_transmit_one_hot_column_sum(desk):
    field, code, enc, A = desk
    rng = np.random.default_rng(2)
    v = rng.integers(0, field.q, size=code.L)
    s = index_codeword(v, field.q)
    x = transmit(s, A)
    manual = np.zeros(A.n)
    for l in range(code.L):
        manual += A.column(l * field.q + v[l])
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
            x = transmit(index_codeword(v, field.q), A)
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


def test_on_the_fly_matches_dense():
    A = DesignMatrix(40, 96, seed=11)
    B = DesignMatrix(40, 96, seed=11, dense=False, chunk=17)
    rng = np.random.default_rng(4)
    s = rng.standard_normal(96)
    z = rng.standard_normal(40)
    assert np.allclose(A.matvec(s), B.matvec(s), atol=1e-5)
    assert np.allclose(A.rmatvec(z), B.rmatvec(z), atol=1e-5)
    assert np.allclose(A.column(37), B.column(37), atol=1e-7)


def test_matvec_shape_checks(desk):
    _, _, _, A = desk
    with pytest.raises(ValueError):
        A.matvec(np.zeros(3))
    with pytest.raises(ValueError):
        A.rmatvec(np.zeros(3))


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_awgn_small_variance_limit():
    x = np.linspace(-1, 1, 100)
    y = awgn(x, 1e-30, seed=0)
    assert np.abs(y - x).max() < 1e-12


def test_awgn_empirical_variance():
    x = np.zeros(10 ** 5)
    y = awgn(x, 0.37, seed=1)
    assert abs(y.var() - 0.37) / 0.37 < 0.02


def test_awgn_deterministic():
    x = np.ones(64)
    assert np.array_equal(awgn(x, 0.5, seed=3), awgn(x, 0.5, seed=3))


def test_awgn_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        awgn(np.ones(4), 0.0, seed=0)


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
    x = transmit(index_codeword(v, field.q), A)
    y = awgn(x, 1e-12, seed=8)
    params = DecoderParams(amp_iters=25, final_bp_iters=50,
                           schedule=Schedule("bpn"), tau2_floor=1e-14)
    res = decode(y, A, code, enc, params)
    assert res.success
    assert np.array_equal(res.symbols, v)
    assert np.array_equal(res.bits, bits)
