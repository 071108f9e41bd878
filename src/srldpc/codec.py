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

COLUMN_BLOCK = 256    # columns DesignMatrix draws before writing them out


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

    Column j is drawn from its own (seed, STREAM_MATRIX, j) stream.  That
    stream is what defines a seeded matrix: any column can be regenerated
    alone, and a matrix does not depend on the order its columns are
    drawn in.  Storage is float32, row-major; products are returned in
    float64.
    """

    def __init__(self, n, n_cols, seed):
        self.n = int(n)
        self.n_cols = int(n_cols)
        self.seed = seed
        # Columns are drawn into a small block of rows and written into
        # the row-major matrix a block at a time, so the build holds the
        # matrix once.
        self._A = np.empty((self.n, self.n_cols), dtype=np.float32)
        block = np.empty((min(COLUMN_BLOCK, self.n_cols), self.n),
                         dtype=np.float32)
        scale = 1.0 / np.sqrt(self.n)
        for start in range(0, self.n_cols, len(block)):
            stop = min(start + len(block), self.n_cols)
            for j in range(start, stop):
                rng = rng_stream(self.seed, STREAM_MATRIX, j)
                block[j - start] = rng.standard_normal(self.n) * scale
            self._A[:, start:stop] = block[:stop - start].T

    def matvec(self, s):
        """A @ s for a length-n_cols vector."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.n_cols,):
            raise ValueError(f"expected length-{self.n_cols} vector")
        return (self._A @ s.astype(np.float32)).astype(np.float64)

    def rmatvec(self, z):
        """A^T @ z for a length-n vector."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.n,):
            raise ValueError(f"expected length-{self.n} vector")
        return (self._A.T @ z.astype(np.float32)).astype(np.float64)


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
