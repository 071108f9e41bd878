"""Outer non-binary LDPC code: Tanner graph, encoder, syndrome check.

The code is an edge-labeled bipartite graph with L variable nodes and P
check nodes over GF(q).  A length-L symbol vector v is a codeword when
every check p satisfies  sum_{l in N(c_p)} w_{l,p} (x) v_l = 0  with all
arithmetic in the field.  Edges are kept in arrays sorted by
(check, slot) so the BP check updates operate on contiguous segments;
this ordering is part of the code object.
"""

import copy
import math

import numpy as np

LABEL_DRAWS = 16    # label draws build_code tries before giving up


class RankDeficientError(ValueError):
    """Parity-check matrix does not have full row rank over GF(q)."""

    def __init__(self, rank, rows):
        self.rank = rank
        self.rows = rows
        super().__init__(f"parity matrix rank {rank} < {rows} rows")


class LdpcCode:
    """Edge-labeled Tanner graph over GF(2^m).

    Attributes:
        field: GF2m instance
        L, P: variable / check node counts
        edge_var, edge_chk, edge_label: per-edge arrays, sorted by
            (check index, slot); labels are nonzero field elements
        girth: length of the shortest cycle (math.inf when acyclic)
    """

    def __init__(self, field, L, P, edge_var, edge_chk, edge_label, girth=None):
        self.field = field
        self.L = int(L)
        self.P = int(P)

        order = np.lexsort((edge_var, edge_chk))
        self.edge_var = np.asarray(edge_var, dtype=np.int64)[order]
        self.edge_chk = np.asarray(edge_chk, dtype=np.int64)[order]
        self.edge_label = np.asarray(edge_label, dtype=np.int64)[order]
        self.n_edges = len(self.edge_var)

        self._validate()
        self.girth = compute_girth(self) if girth is None else girth

    def _validate(self):
        if self.n_edges and (
            self.edge_var.min() < 0
            or self.edge_var.max() >= self.L
            or self.edge_chk.min() < 0
            or self.edge_chk.max() >= self.P
        ):
            raise ValueError("edge endpoint out of range")
        self._check_labels(self.edge_label)
        # sorted by (check, variable), parallel edges are neighbours
        if np.any((self.edge_chk[1:] == self.edge_chk[:-1])
                  & (self.edge_var[1:] == self.edge_var[:-1])):
            raise ValueError("parallel edges are not allowed")

    def _check_labels(self, labels):
        if np.any(labels < 1) or np.any(labels >= self.field.q):
            raise ValueError("edge labels must be nonzero field elements")

    def var_degrees(self):
        return np.bincount(self.edge_var, minlength=self.L)

    def chk_degrees(self):
        return np.bincount(self.edge_chk, minlength=self.P)

    def parity_matrix(self):
        """Dense P x L parity-check matrix of field elements."""
        H = np.zeros((self.P, self.L), dtype=np.int64)
        H[self.edge_chk, self.edge_var] = self.edge_label
        return H

    def with_labels(self, labels):
        """Copy of this graph with replaced edge labels, one per edge in
        edge order.  The copy shares the graph's edge arrays; only the
        labels are checked, since the graph already was."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self.n_edges,):
            raise ValueError(f"expected {self.n_edges} edge labels, got "
                             f"shape {labels.shape}")
        self._check_labels(labels)
        code = copy.copy(self)
        code.edge_label = labels
        return code


def check_peg_profile(L, P, dv):
    """Raise ValueError unless peg_construct can build (L, P, dv)."""
    if not (L > P >= 1):
        raise ValueError(f"need L > P >= 1, got L={L}, P={P}")
    if dv < 2:
        raise ValueError(f"need dv >= 2, got dv={dv}")
    if dv > P:
        raise ValueError(f"infeasible degree profile: dv={dv} > P={P}")


def peg_construct(field, L, P, dv):
    """Build a variable-regular Tanner graph by progressive edge growth.

    Each variable node receives dv edges, placed one at a time on the
    check that is farthest in the current graph (unreachable checks
    first).  Ties break toward the lowest-degree check, then the lowest
    index, which makes the construction deterministic.  Labels are
    initialized to 1; use assign_edge_labels for a random labeling.

    The search runs on the check graph, where two checks are adjacent
    when they share a variable: the BFS from variable v starts at v's
    checks (depth 0), and a layer is the union of its checks' neighbour
    sets, each kept as an int bitmask over the P checks and looked up by
    the check's own bit, so the BFS walks a layer's set bits without
    turning them into indices.  An edge to a check at depth d closes a
    shortest cycle of length 2d + 2, and every cycle is closed by its
    last edge, so the girth is the least such length over the
    construction.
    """
    check_peg_profile(L, P, dv)

    every = (1 << P) - 1
    # checks sharing a variable with each check, keyed by the check's bit
    nbrs = {1 << p: 0 for p in range(P)}
    by_deg = [every, 0]    # by_deg[d]: the checks of degree d
    low_deg = 0            # the lowest degree of any check
    edge_chk = []
    girth = math.inf

    for _ in range(L):
        own = 0            # this variable's checks so far
        for _ in range(dv):
            seen = layer = own
            depth = 0
            while seen != every:
                reach = 0
                rest = layer
                while rest:
                    low = rest & -rest
                    reach |= nbrs[low]
                    if reach | seen == every:
                        break    # the rest cannot change reach & ~seen
                    rest ^= low
                reach &= ~seen
                if not reach:
                    break
                seen |= reach
                layer = reach
                depth += 1
            if seen != every:
                candidates = every & ~seen
            else:
                # depth >= 1 here, since dv <= P leaves a check outside own
                candidates = layer
                girth = min(girth, 2 * depth + 2)

            d = low_deg
            while not candidates & by_deg[d]:
                d += 1
            pick = candidates & by_deg[d]
            bit = pick & -pick
            c = bit.bit_length() - 1
            by_deg[d] ^= bit
            by_deg[d + 1] |= bit
            if d + 2 == len(by_deg):
                by_deg.append(0)
            while not by_deg[low_deg]:
                low_deg += 1

            rest = own
            while rest:
                low = rest & -rest
                nbrs[low] |= bit
                rest ^= low
            nbrs[bit] |= own
            own |= bit
            edge_chk.append(c)

    edge_var = np.repeat(np.arange(L), dv)
    edge_label = np.ones(L * dv, dtype=np.int64)
    return LdpcCode(field, L, P, edge_var, edge_chk, edge_label, girth=girth)


def compute_girth(code):
    """Shortest cycle length via BFS from every variable node.

    Returns math.inf for acyclic graphs.  Every cycle in a bipartite
    graph passes through a variable node, so these starts suffice.
    """
    n_nodes = code.L + code.P
    adj = [[] for _ in range(n_nodes)]
    for v, c in zip(code.edge_var.tolist(), code.edge_chk.tolist()):
        adj[v].append(code.L + c)
        adj[code.L + c].append(v)

    best = math.inf
    dist = np.empty(n_nodes, dtype=np.int64)
    parent = np.empty(n_nodes, dtype=np.int64)
    for s in range(code.L):
        dist.fill(-1)
        dist[s] = 0
        parent[s] = -1
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
        if best == 4:
            break
    return best


def assign_edge_labels(code, seed):
    """Redraw all edge labels i.i.d. uniform over {1, ..., q-1}."""
    q = code.field.q
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = rng.integers(1, q, size=code.n_edges, dtype=np.int64)
    return code.with_labels(labels)


def syndrome_check(code, v):
    """True iff symbol vector v satisfies every parity equation; for a
    (trials, L) stack, a bool array with that answer for each row."""
    v = np.asarray(v, dtype=np.int64)
    if v.ndim not in (1, 2) or v.shape[-1] != code.L:
        raise ValueError(f"expected length-{code.L} symbol vectors")
    contrib = code.field.mul_table[code.edge_label, v[..., code.edge_var]]
    synd = np.zeros((code.P,) + v.shape[:-1], dtype=np.int64)
    np.bitwise_xor.at(synd, code.edge_chk, contrib.T)
    valid = ~synd.any(axis=0)
    return bool(valid) if v.ndim == 1 else valid


class Encoder:
    """Systematic encoding map derived from the parity-check matrix.

    Gaussian elimination over GF(q) brings H to reduced row-echelon
    form; pivot columns carry parity symbols, the remaining columns
    carry the k = L - P message symbols.
    """

    def __init__(self, code):
        self.code = code
        self.field = code.field
        H = code.parity_matrix()
        P, L = H.shape
        mul = self.field.mul_table

        piv_cols = []
        r = 0
        for c in range(L):
            if r == P:
                break
            nz = np.flatnonzero(H[r:, c])
            if nz.size == 0:
                continue
            rr = r + nz[0]
            if rr != r:
                H[[r, rr]] = H[[rr, r]]
            # Row r is zero left of c (every row from r on is), so the
            # columns before c stay as they are.
            H[r, c:] = mul[H[r, c:], self.field.inv(H[r, c])]
            factors = H[:, c].copy()
            factors[r] = 0
            H[:, c:] ^= mul[factors[:, None], H[r, c:][None, :]]
            piv_cols.append(c)
            r += 1
        if r < P:
            raise RankDeficientError(r, P)

        self.parity_positions = np.asarray(piv_cols, dtype=np.int64)
        mask = np.ones(L, dtype=bool)
        mask[self.parity_positions] = False
        self.message_positions = np.flatnonzero(mask)
        self.k = L - P
        # Row r of H restricted to message columns gives the GF-linear
        # combination that fills parity position piv_cols[r].
        self.parity_rows = H[:, self.message_positions]

    def encode(self, msg_symbols):
        """Map k message symbols to a length-L codeword."""
        msg = np.asarray(msg_symbols, dtype=np.int64)
        if msg.shape != (self.k,):
            raise ValueError(f"expected {self.k} message symbols")
        v = np.zeros(self.code.L, dtype=np.int64)
        v[self.message_positions] = msg
        contrib = self.field.mul_table[self.parity_rows, msg[None, :]]
        v[self.parity_positions] = np.bitwise_xor.reduce(contrib, axis=1)
        return v


def build_code(field, L, P, dv, seed):
    """PEG graph + random labels + encoder, redrawing labels on rank loss.

    Random GF(q) labels make a rank-deficient parity matrix exceedingly
    unlikely, so on failure the labels are simply redrawn with seed+1,
    seed+2, ... before giving up.  Returns (code, encoder).
    """
    if P == 0:
        code = LdpcCode(
            field, L, 0,
            np.arange(0), np.arange(0), np.arange(0), girth=math.inf,
        )
        return code, Encoder(code)

    graph = peg_construct(field, L, P, dv)
    last = None
    for attempt in range(LABEL_DRAWS):
        code = assign_edge_labels(graph, seed + attempt)
        try:
            return code, Encoder(code)
        except RankDeficientError as exc:
            last = exc
    raise RankDeficientError(last.rank, last.rows)


def bits_to_symbols(bits, m):
    """Pack bits into m-bit field symbols, big-endian within a symbol."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or bits.size % m:
        raise ValueError(f"bit count {bits.size} not divisible by m={m}")
    weights = 1 << np.arange(m - 1, -1, -1)
    return bits.reshape(-1, m) @ weights


def symbols_to_bits(symbols, m):
    """Unpack field symbols into bits, inverse of bits_to_symbols."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1)
    return ((symbols[:, None] >> shifts) & 1).ravel()

