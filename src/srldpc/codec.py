"""Inner sparse-regression layer: indexing, design matrix, AWGN channel.

A length-L symbol vector is indexed into an L-sparse state of length qL
(one standard basis vector per section), multiplied by a dense Gaussian
design matrix, and sent over a real AWGN channel.  All randomness comes
from counter-based Philox streams keyed by (seed, stream id, ...), so
matrix, labels, noise, and trials are independently reproducible.
"""

import numpy as np

STREAM_MATRIX = 0
STREAM_LABELS = 1
STREAM_NOISE = 2
STREAM_BITS = 3


def rng_stream(seed, *key):
    """Independent reproducible generator for a (seed, key...) pair."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


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

    Every column is generated from its own (seed, STREAM_MATRIX, column)
    stream, so the dense default and the on-the-fly low-memory mode
    yield the same matrix.  Dense storage is float32, row-major;
    products are returned in float64.
    """

    def __init__(self, n, n_cols, seed, dense=True, chunk=256):
        self.n = int(n)
        self.n_cols = int(n_cols)
        self.seed = seed
        self.dense = dense
        self.chunk = chunk
        if dense:
            self._A = self._block(0, self.n_cols)

    def _block(self, start, stop):
        cols = np.empty((self.n, stop - start), dtype=np.float32, order="F")
        scale = 1.0 / np.sqrt(self.n)
        for j in range(start, stop):
            rng = rng_stream(self.seed, STREAM_MATRIX, j)
            cols[:, j - start] = rng.standard_normal(self.n) * scale
        return np.ascontiguousarray(cols)

    def column(self, j):
        if self.dense:
            return self._A[:, j].astype(np.float64)
        return self._block(j, j + 1)[:, 0].astype(np.float64)

    def matvec(self, s):
        """A @ s for a length-n_cols vector."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.n_cols,):
            raise ValueError(f"expected length-{self.n_cols} vector")
        if self.dense:
            return (self._A @ s.astype(np.float32)).astype(np.float64)
        out = np.zeros(self.n)
        for start in range(0, self.n_cols, self.chunk):
            stop = min(start + self.chunk, self.n_cols)
            block = self._block(start, stop)
            out += block @ s[start:stop].astype(np.float32)
        return out

    def rmatvec(self, z):
        """A^T @ z for a length-n vector."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.n,):
            raise ValueError(f"expected length-{self.n} vector")
        if self.dense:
            return (self._A.T @ z.astype(np.float32)).astype(np.float64)
        out = np.zeros(self.n_cols)
        z32 = z.astype(np.float32)
        for start in range(0, self.n_cols, self.chunk):
            stop = min(start + self.chunk, self.n_cols)
            out[start:stop] = self._block(start, stop).T @ z32
        return out


def transmit(s, A):
    """Channel input x = A s; for one-hot s this sums L columns of A."""
    return A.matvec(s)


def awgn(x, sigma2, seed=None, rng=None):
    """Add i.i.d. N(0, sigma2) noise; pass either a seed or a Generator."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if rng is None:
        rng = rng_stream(seed, STREAM_NOISE)
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
