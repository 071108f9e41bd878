"""Inner sparse-regression layer: indexing, design matrix, AWGN channel.

A length-L symbol vector is indexed into an L-sparse state of length qL
(one standard basis vector per section), multiplied by a dense Gaussian
design matrix, and sent over a real AWGN channel.  All randomness comes
from counter-based Philox streams keyed by (seed, stream id, ...), so
matrix, labels, noise, and trials are independently reproducible.
"""

import numpy as np

from . import blas

STREAM_MATRIX = 0
STREAM_LABELS = 1
STREAM_NOISE = 2
STREAM_BITS = 3

COLUMN_BLOCK = 256    # columns DesignMatrix draws before writing them out
ROW_BLOCK_BYTES = 1 << 20   # about the bytes of A per matvec row block

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def rng_stream(seed, *key):
    """Independent reproducible generator for a (seed, key...) pair."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _entropy_words(x):
    """Number of 32-bit words SeedSequence splits an entropy value into."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_entropy_words(v) for v in x)


def _column_keys(seed, stream, n_cols):
    """Philox keys of the streams rng_stream(seed, stream, j), j < n_cols.

    Row j is SeedSequence(entropy=seed, spawn_key=(stream, j))
    .generate_state(2, np.uint64), as a (n_cols, 2) uint64 array.  The
    pool of SeedSequence(entropy=seed, spawn_key=(stream,)) is that
    sequence's state before the word j is mixed in, so only the last
    hashmix/mix step and generate_state remain; they run here as uint32
    arithmetic over all j at once.  Each j is one 32-bit word, so
    n_cols is at most 2**32.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    # the seed is padded to the pool size when a spawn key follows it
    words = (max(_entropy_words(seq.entropy), seq.pool_size)
             + _entropy_words(stream))
    # every entropy word mixed in so far advanced hash_a pool_size times
    hash_a = _INIT_A * pow(_MULT_A, seq.pool_size * words, 1 << 32) & _MASK32
    hash_b = _INIT_B
    j = np.arange(n_cols, dtype=np.uint32)
    state = np.empty((seq.pool_size, n_cols), dtype=np.uint64)
    for i, pool_word in enumerate(seq.pool.tolist()):
        h = j ^ np.uint32(hash_a)                        # hashmix(j)
        hash_a = hash_a * _MULT_A & _MASK32
        h *= np.uint32(hash_a)
        h ^= h >> 16
        x = np.uint32(_MIX_MULT_L * pool_word & _MASK32)  # mix(pool, h)
        x = x - h * np.uint32(_MIX_MULT_R)
        x ^= x >> 16
        x ^= np.uint32(hash_b)                           # generate_state
        hash_b = hash_b * _MULT_B & _MASK32
        x *= np.uint32(hash_b)
        x ^= x >> 16
        state[i] = x
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    axis=1)


def index_codeword(v, q):
    """Map symbols to stacked basis vectors: section l equals e_{v_l}."""
    v = np.asarray(v, dtype=np.int64)
    if np.any(v < 0) or np.any(v >= q):
        raise ValueError("symbols must lie in [0, q)")
    L = v.size
    s = np.zeros(q * L)
    s[np.arange(L) * q + v] = 1.0
    return s


def hard_decision(s_hat, q):
    """Per-section argmax; ties break toward the lowest index."""
    sections = np.asarray(s_hat).reshape(-1, q)
    return np.argmax(sections, axis=1)


class DesignMatrix:
    """n x n_cols sensing matrix with i.i.d. N(0, 1/n) entries.

    Column j is drawn from its own (seed, STREAM_MATRIX, j) stream.  That
    stream is what defines a seeded matrix: any column can be regenerated
    alone, and a matrix does not depend on the order its columns are
    drawn in.  The Philox keys of all columns are derived in one
    vectorized pass (_column_keys), and one Philox generator is re-keyed
    at counter 0 for each column, so column j is exactly what
    rng_stream(seed, STREAM_MATRIX, j) draws.  Storage is float32,
    row-major; products are returned in float64.

    matvec and rmatvec take one vector or a (K, ...) stack of them and
    run float32 matrix-vector products (gemv), one per vector and row
    block, so row k of a stacked product is bitwise the product of
    vector k alone.  matvec walks A in row blocks of about
    ROW_BLOCK_BYTES (a multiple of 64 rows, 128 rows at the desk's 2048
    columns) and finishes all K gemvs on a block before the next, so a
    stack reads A from memory once instead of K times.  Each output row
    is still one dot product of the same OpenBLAS kernel: blocks of a
    multiple of 64 rows give the whole-matrix gemv's bits, while blocks
    of other sizes (120 rows, say) round some rows differently.
    rmatvec runs one whole-matrix gemv per vector: column blocks of
    A^T z measured slower.  Every product runs OpenBLAS on one thread,
    since a threaded gemv splits the rows at other points and rounds
    some differently, so a seeded decode gives the same bits inline and
    in a forked worker.
    """

    def __init__(self, n, n_cols, seed):
        self.n = int(n)
        self.n_cols = int(n_cols)
        self.seed = seed
        for name, value in (("n", self.n), ("n_cols", self.n_cols)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        keys = _column_keys(seed, STREAM_MATRIX, self.n_cols)
        bitgen = np.random.Philox(0)
        rng = np.random.Generator(bitgen)
        state = bitgen.state    # counter 0, empty buffer; key set per column
        # Columns are drawn into a small block of rows and written into
        # the row-major matrix a block at a time, so the build holds the
        # matrix once.
        self._A = np.empty((self.n, self.n_cols), dtype=np.float32)
        block = np.empty((min(COLUMN_BLOCK, self.n_cols), self.n),
                         dtype=np.float32)
        column = np.empty(self.n)
        scale = 1.0 / np.sqrt(self.n)
        for start in range(0, self.n_cols, len(block)):
            stop = min(start + len(block), self.n_cols)
            for j in range(start, stop):
                state["state"]["key"] = keys[j]
                bitgen.state = state
                rng.standard_normal(out=column)
                np.multiply(column, scale, out=block[j - start])
            self._A[:, start:stop] = block[:stop - start].T

    def matvec(self, s):
        """A @ s for a length-n_cols vector, or row by row for a
        (K, n_cols) stack."""
        S = _stack(s, self.n_cols, "s")
        out = np.empty((len(S), self.n), dtype=np.float32)
        # about ROW_BLOCK_BYTES of A: a multiple of 64 rows, at least 64
        step = max(1, ROW_BLOCK_BYTES // (4 * 64 * self.n_cols)) * 64
        with blas.one_thread():
            for start in range(0, self.n, step):
                block = self._A[start:start + step]
                for s32, row in zip(S, out):
                    np.matmul(block, s32, out=row[start:start + step])
        return out.astype(np.float64).reshape(np.shape(s)[:-1] + (self.n,))

    def rmatvec(self, z):
        """A^T @ z for a length-n vector, or row by row for a (K, n)
        stack."""
        Z = _stack(z, self.n, "z")
        out = np.empty((len(Z), self.n_cols), dtype=np.float32)
        with blas.one_thread():
            for z32, row in zip(Z, out):
                np.matmul(self._A.T, z32, out=row)
        return out.astype(np.float64).reshape(np.shape(z)[:-1]
                                              + (self.n_cols,))


def _stack(v, length, name):
    """A vector or (K, length) stack as a (K, length) float32 array."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != length:
        raise ValueError(f"expected {name} of length {length} or a "
                         f"(K, {length}) stack, got shape {v.shape}")
    return v.reshape(-1, length).astype(np.float32)


def awgn(x, sigma2, rng):
    """Add i.i.d. N(0, sigma2) noise drawn from the Generator rng."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    x = np.asarray(x, dtype=np.float64)
    return x + np.sqrt(sigma2) * rng.standard_normal(x.size)


def snr_to_sigma2(ebno_db, B, L):
    """Noise variance for a target Eb/N0, using E||x||^2 = L.

    The design matrix keeps variance 1/n per entry, so the transmitted
    energy is L on average and Eb/N0 = L / (2 B sigma^2).
    """
    if B <= 0 or L <= 0:
        raise ValueError("B and L must be positive")
    return L / (2.0 * B * 10.0 ** (ebno_db / 10.0))
