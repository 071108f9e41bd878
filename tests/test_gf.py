import numpy as np
import pytest

from helpers import check_round_message, fq_convolve
from srldpc.gf import GF2m, _mul_bitwise, fwht


def table_oracle(field):
    """Exhaustive product table built directly from the bitwise multiply."""
    q = field.q
    return np.array([
        [_mul_bitwise(a, b, field.poly, q) for b in range(q)]
        for a in range(q)
    ])


# ---------------------------------------------------------------------------
# Field element arithmetic
# ---------------------------------------------------------------------------

def test_mul_identity_gf2():
    assert GF2m(1).mul(1, 1) == 1


def test_mul_gf4_example():
    assert GF2m(2).mul(2, 2) == 3


def test_mul_gf256_example():
    assert GF2m(8).mul(2, 128) == 27


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_mul_table_matches_bitwise_oracle(m):
    field = GF2m(m)
    assert np.array_equal(field.mul_table, table_oracle(field))


def test_inv_one():
    assert GF2m(3).inv(1) == 1


def test_inv_gf4():
    assert GF2m(2).inv(2) == 3


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_inv_defining_property_exhaustive(m):
    field = GF2m(m)
    a = np.arange(1, field.q)
    assert np.all(field.mul(a, field.inv(a)) == 1)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF2m(4).inv(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_field_axioms_exhaustive(m):
    field = GF2m(m)
    q = field.q
    M = field.mul_table.astype(np.int32)
    idx = np.arange(q)
    xor = idx[:, None] ^ idx[None, :]

    # identities
    assert np.array_equal(M[:, 1], idx)
    assert np.all(M[:, 0] == 0)
    # commutativity
    assert np.array_equal(M, M.T)
    # associativity: (a*b)*c == a*(b*c)
    assert np.array_equal(M[M][:, :, :], M[:, M])
    # distributivity: a*(b^c) == (a*b)^(a*c)
    assert np.array_equal(M[:, xor], M[:, :, None] ^ M[:, None, :])
    # multiplicative group is cyclic of order q-1
    assert sorted(field.exp.tolist()) == list(range(1, q))


def test_bad_polynomial_rejected():
    with pytest.raises(ValueError):
        GF2m(4, poly=0x18)   # x^4 + x^3 is reducible


# ---------------------------------------------------------------------------
# Label permutations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 4])
def test_operators_are_permutations(m):
    # BpDenoiser absorbs and reapplies edge labels by gathering messages
    # along these columns, which must therefore permute the indices
    field = GF2m(m)
    for g in range(1, field.q):
        assert np.array_equal(np.sort(field.mul_table[:, g]),
                              np.arange(field.q))


# ---------------------------------------------------------------------------
# F_q-convolution and FWHT
# ---------------------------------------------------------------------------

def test_convolve_delta_identity():
    field = GF2m(3)
    rng = np.random.default_rng(5)
    b = rng.random(field.q)
    e0 = np.zeros(field.q)
    e0[0] = 1.0
    assert np.allclose(fq_convolve(e0, b, field), b, atol=1e-15)


def test_convolve_q2_example():
    field = GF2m(1)
    out = fq_convolve([0.9, 0.1], [0.8, 0.2], field)
    assert np.allclose(out, [0.74, 0.26], atol=1e-15)


def test_one_norm_multiplicative():
    field = GF2m(4)
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = rng.random(field.q)
        b = rng.random(field.q)
        out = fq_convolve(a, b, field)
        assert out.sum() == pytest.approx(a.sum() * b.sum(), rel=1e-12)


def test_fwht_delta_to_ones():
    v = np.zeros(16)
    v[0] = 1.0
    assert np.array_equal(fwht(v), np.ones(16))


def test_fwht_round_trip():
    rng = np.random.default_rng(7)
    for q in (2, 4, 8, 16, 64, 256):
        v = rng.standard_normal(q)
        assert np.allclose(fwht(fwht(v)) / q, v, atol=1e-12)


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht(np.ones(6))


# The transform-domain convolution ships inside the BP check round; with
# every edge label 1 the check message is the normalized convolution of
# the incoming vectors.

@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_fast_convolution_matches_direct(q):
    m = q.bit_length() - 1
    field = GF2m(m)
    rng = np.random.default_rng(8)
    for _ in range(50):
        vs = rng.random((3, q))
        direct = vs[0]
        for v in vs[1:]:
            direct = fq_convolve(direct, v, field)
        fast = check_round_message([(v, 1) for v in vs], 1, field)
        assert np.abs(fast - direct / direct.sum()).max() < 1e-10


def test_fast_convolution_single_input():
    v = np.random.default_rng(9).random(8)
    out = check_round_message([(v, 1)], 1, GF2m(3))
    assert np.allclose(out, v / v.sum(), atol=1e-12)


def test_fast_convolution_deltas_xor():
    field = GF2m(3)
    q = field.q
    supports = [3, 5, 6]
    vs = np.zeros((3, q))
    for i, g in enumerate(supports):
        vs[i, g] = 1.0
    out = check_round_message([(v, 1) for v in vs], 1, field)
    expected = np.zeros(q)
    expected[3 ^ 5 ^ 6] = 1.0
    assert np.allclose(out, expected, atol=1e-12)


def test_fast_convolution_five_random_probability_vectors():
    rng = np.random.default_rng(10)
    field = GF2m(3)
    vs = rng.random((5, 8))
    vs /= vs.sum(axis=1, keepdims=True)
    direct = vs[0]
    for v in vs[1:]:
        direct = fq_convolve(direct, v, field)
    out = check_round_message([(v, 1) for v in vs], 1, field)
    assert np.abs(out - direct).max() < 1e-10


def test_convolution_preserves_dominance():
    """Convolving dominant group-symmetric likelihood vectors keeps the
    true-symbol mean on top (Monte-Carlo, 3-sigma one-sided)."""
    field = GF2m(3)
    q = field.q
    rng = np.random.default_rng(11)
    tau = 0.8
    trials = 4000
    n0 = np.empty(trials)
    nbullet = np.empty(trials)
    for i in range(trials):
        r = rng.standard_normal((2, q)) * tau
        r[:, 0] += 1.0
        likes = np.exp(r / tau ** 2 - r.max())
        out = fq_convolve(likes[0], likes[1], field)
        n0[i] = out[0]
        nbullet[i] = out[1:].mean()
    diff = n0 - nbullet
    sem = diff.std(ddof=1) / np.sqrt(trials)
    assert diff.mean() > -3 * sem
