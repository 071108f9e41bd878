"""GF(2^m) arithmetic and the Walsh-Hadamard transform.

Belief vectors over F_q are plain numpy arrays of length q = 2^m, indexed
by the integer representation of field elements: 0 is the additive
identity, 1 the multiplicative identity.  Addition is bitwise XOR, so
subtraction coincides with addition and the F_q-convolution is an
XOR-convolution, which the Walsh-Hadamard transform diagonalizes.
"""

import numpy as np

# Fixed irreducible polynomial per bit width, for reproducible codewords
# across runs and machines.  0x11B is the usual choice for m = 8.
IRREDUCIBLE_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11B,
}


def _mul_bitwise(a, b, poly, q):
    """Carry-less product of a and b reduced by poly (reference path)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & q:
            a ^= poly
    return r


class GF2m:
    """Galois field GF(2^m), q = 2^m <= 256.

    Multiplication goes through exp/log tables built once at construction
    from a generator of the multiplicative group; the full q x q product
    table is also materialized so that permuting a belief vector by an
    edge label reduces to a numpy gather.
    """

    def __init__(self, m, poly=None):
        if not 1 <= m <= 8:
            raise ValueError(f"m must be in [1, 8], got {m}")
        self.m = m
        self.q = 1 << m
        self.poly = IRREDUCIBLE_POLY[m] if poly is None else poly

        self._build_tables()

    def _build_tables(self):
        q = self.q
        # Find a generator of the multiplicative group.  One exists iff
        # the polynomial is irreducible, so failure means a bad poly.
        gen = None
        for cand in ([1] if q == 2 else range(2, q)):
            seen = set()
            x = 1
            for _ in range(q - 1):
                seen.add(x)
                x = _mul_bitwise(x, cand, self.poly, q)
            if len(seen) == q - 1 and x == 1:
                gen = cand
                break
        if gen is None:
            raise ValueError(
                f"0x{self.poly:X} is not irreducible of degree {self.m}"
            )
        self.generator = gen

        self.exp = np.zeros(q - 1, dtype=np.int64)
        self.log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            self.exp[i] = x
            self.log[x] = i
            x = _mul_bitwise(x, gen, self.poly, q)

        # Full product table: mul_table[a, b] = a (x) b.
        logs = self.log[1:]
        table = np.zeros((q, q), dtype=np.int64)
        table[1:, 1:] = self.exp[(logs[:, None] + logs[None, :]) % (q - 1)]
        self.mul_table = table

        # inv_table[a] = a^{-1}; entry 0 is unused.
        self.inv_table = np.zeros(q, dtype=np.int64)
        self.inv_table[1:] = self.exp[(-logs) % (q - 1)]

    def mul(self, a, b):
        """Field product; accepts scalars or arrays."""
        return self.mul_table[a, b]

    def inv(self, a):
        """Multiplicative inverse of a nonzero element."""
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def __repr__(self):
        return f"GF2m(m={self.m}, poly=0x{self.poly:X})"


def fwht(v):
    """Unnormalized Walsh-Hadamard transform along the last axis, length
    a power of two; it is its own inverse up to a factor q."""
    a = np.array(v, dtype=np.float64, copy=True)
    q = a.shape[-1]
    if q & (q - 1):
        raise ValueError(f"length must be a power of two, got {q}")
    h = 1
    while h < q:
        a = a.reshape(a.shape[:-1] + (q // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape(a.shape[:-3] + (q,))
        h *= 2
    return a

