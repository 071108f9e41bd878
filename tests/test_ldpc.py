import math

import numpy as np
import pytest
from scipy.stats import chisquare

from srldpc.gf import GF2m
from srldpc.ldpc import (
    Encoder, LdpcCode, RankDeficientError, assign_edge_labels,
    bits_to_symbols, build_code, compute_girth, peg_construct,
    symbols_to_bits, syndrome_check,
)

from helpers import chk_edges, reference_peg_construct, var_edges


@pytest.fixture(scope="module")
def desk_code():
    field = GF2m(4)
    return build_code(field, L=128, P=8, dv=3, seed=5)


# ---------------------------------------------------------------------------
# PEG construction
# ---------------------------------------------------------------------------

def test_peg_small_degrees():
    code = peg_construct(GF2m(2), L=6, P=3, dv=2)
    assert code.n_edges == 12
    assert np.all(code.var_degrees() == 2)


def test_peg_degree_audit():
    code = peg_construct(GF2m(4), L=40, P=10, dv=3)
    assert code.var_degrees().sum() == code.n_edges
    assert code.chk_degrees().sum() == code.n_edges


def test_peg_no_parallel_edges_girth_at_least_4():
    code = peg_construct(GF2m(4), L=24, P=12, dv=2)
    assert code.girth >= 4


def test_peg_infeasible_profile():
    with pytest.raises(ValueError, match=r"infeasible degree profile: "
                                         r"dv=4 > P=3"):
        peg_construct(GF2m(2), L=6, P=3, dv=4)
    with pytest.raises(ValueError, match=r"need L > P >= 1, got L=3, P=3"):
        peg_construct(GF2m(2), L=3, P=3, dv=2)
    with pytest.raises(ValueError, match=r"need L > P >= 1, got L=6, P=0"):
        peg_construct(GF2m(2), L=6, P=0, dv=2)
    with pytest.raises(ValueError, match=r"need dv >= 2, got dv=1"):
        peg_construct(GF2m(2), L=6, P=3, dv=1)


# The rate-sweep candidates at the desk message size (L=124..159,
# P=L-120), the desk code, the paper's code, and dv=2..6 with P just
# above dv and just below L.
PEG_ORACLE_CASES = (
    [(L, L - 120, 3) for L in range(124, 160)]
    + [(128, 8, 3), (766, 30, 3)]
    + [(L, P, dv) for dv in range(2, 7)
       for L, P in ((dv + 1, dv), (40, dv), (40, dv + 1), (40, 39),
                    (dv + 2, dv + 1))]
)


@pytest.mark.parametrize("L,P,dv", PEG_ORACLE_CASES,
                         ids=[f"L{L}-P{P}-dv{dv}"
                              for L, P, dv in PEG_ORACLE_CASES])
def test_peg_matches_reference_bfs(L, P, dv):
    """The check-graph bitmask PEG places every edge where the variable/
    check BFS does, and the girth it records is compute_girth's."""
    field = GF2m(4)
    code = peg_construct(field, L, P, dv)
    ref = reference_peg_construct(field, L, P, dv)
    assert np.array_equal(code.edge_var, ref.edge_var)
    assert np.array_equal(code.edge_chk, ref.edge_chk)
    assert code.girth == ref.girth == compute_girth(code)
    for l, edges in enumerate(var_edges(code)):
        assert np.array_equal(edges, np.flatnonzero(code.edge_var == l))
    for p, edges in enumerate(chk_edges(code)):
        assert np.array_equal(edges, np.flatnonzero(code.edge_chk == p))


def test_peg_reference_scale_shape():
    code = peg_construct(GF2m(8), L=766, P=30, dv=3)
    assert code.n_edges == 2298
    assert np.all(code.var_degrees() == 3)
    assert code.chk_degrees().mean() == pytest.approx(76.6)
    assert code.girth >= 4


def test_girth_on_known_graphs():
    field = GF2m(2)
    # 4-cycle: two variables sharing two checks (parallel edges are
    # disallowed, so use 2 variables x 2 checks).
    cycle4 = LdpcCode(field, 2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1])
    assert cycle4.girth == 4
    # tree: star around one check
    tree = LdpcCode(field, 3, 1, [0, 1, 2], [0, 0, 0], [1, 1, 1])
    assert math.isinf(tree.girth)
    # 6-cycle
    cycle6 = LdpcCode(field, 3, 3, [0, 0, 1, 1, 2, 2],
                      [0, 1, 1, 2, 2, 0], [1] * 6)
    assert cycle6.girth == 6
    assert compute_girth(cycle6) == 6


def test_parallel_edges_rejected():
    with pytest.raises(ValueError):
        LdpcCode(GF2m(2), 2, 1, [0, 0], [0, 0], [1, 1])


def test_zero_label_rejected():
    with pytest.raises(ValueError):
        LdpcCode(GF2m(2), 2, 1, [0, 1], [0, 0], [1, 0])


def test_parallel_edges_rejected_among_others():
    with pytest.raises(ValueError, match="parallel"):
        LdpcCode(GF2m(2), 3, 2, [2, 1, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# Edge labels
# ---------------------------------------------------------------------------

def test_labels_q2_all_one():
    code = assign_edge_labels(peg_construct(GF2m(1), L=6, P=3, dv=2), seed=0)
    assert np.all(code.edge_label == 1)


def test_labels_deterministic():
    graph = peg_construct(GF2m(4), L=40, P=10, dv=3)
    a = assign_edge_labels(graph, seed=9)
    b = assign_edge_labels(graph, seed=9)
    c = assign_edge_labels(graph, seed=10)
    assert np.array_equal(a.edge_label, b.edge_label)
    assert not np.array_equal(a.edge_label, c.edge_label)


def test_with_labels_copies_the_graph_and_checks_the_labels():
    """with_labels gives the code that a fresh LdpcCode builds from the
    graph's edges and the new labels, sharing the graph's arrays."""
    field = GF2m(4)
    graph = peg_construct(field, L=40, P=10, dv=3)
    labels = np.arange(graph.n_edges) % (field.q - 1) + 1
    code = graph.with_labels(labels)
    fresh = LdpcCode(field, graph.L, graph.P, graph.edge_var,
                     graph.edge_chk, labels)
    for name in ("edge_var", "edge_chk", "edge_label"):
        assert np.array_equal(getattr(code, name), getattr(fresh, name))
    assert code.girth == fresh.girth == graph.girth
    assert code.edge_var is graph.edge_var
    assert np.all(graph.edge_label == 1)
    with pytest.raises(ValueError, match="nonzero"):
        graph.with_labels(np.where(labels == 3, 0, labels))
    with pytest.raises(ValueError, match="nonzero"):
        graph.with_labels(np.full(graph.n_edges, field.q))
    with pytest.raises(ValueError, match="^expected"):
        graph.with_labels(labels[1:])


def test_labels_uniform_chi2():
    field = GF2m(4)
    graph = peg_construct(field, L=128, P=8, dv=3)
    labels = np.concatenate([
        assign_edge_labels(graph, seed=s).edge_label for s in range(265)
    ])
    assert labels.size >= 10 ** 5
    counts = np.bincount(labels, minlength=field.q)[1:]
    assert chisquare(counts).pvalue > 0.01


# ---------------------------------------------------------------------------
# Encoder and syndrome
# ---------------------------------------------------------------------------

def test_encode_zero_message(desk_code):
    code, enc = desk_code
    assert np.all(enc.encode(np.zeros(enc.k, dtype=np.int64)) == 0)


def test_encode_valid_codewords(desk_code):
    code, enc = desk_code
    rng = np.random.default_rng(0)
    for _ in range(100):
        msg = rng.integers(0, code.field.q, size=enc.k)
        assert syndrome_check(code, enc.encode(msg))


def test_encode_linearity(desk_code):
    code, enc = desk_code
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, code.field.q, size=enc.k)
        b = rng.integers(0, code.field.q, size=enc.k)
        assert np.array_equal(enc.encode(a) ^ enc.encode(b),
                              enc.encode(a ^ b))


def test_codeword_sum_is_codeword(desk_code):
    code, enc = desk_code
    rng = np.random.default_rng(2)
    v1 = enc.encode(rng.integers(0, code.field.q, size=enc.k))
    v2 = enc.encode(rng.integers(0, code.field.q, size=enc.k))
    assert syndrome_check(code, v1 ^ v2)


def test_zero_syndrome_bulk(desk_code):
    code, enc = desk_code
    rng = np.random.default_rng(3)
    for _ in range(1000):
        assert syndrome_check(
            code, enc.encode(rng.integers(0, code.field.q, size=enc.k)))


def test_syndrome_all_zero(desk_code):
    code, _ = desk_code
    assert syndrome_check(code, np.zeros(code.L, dtype=np.int64))


def test_syndrome_single_flip(desk_code):
    code, enc = desk_code
    rng = np.random.default_rng(4)
    v = enc.encode(rng.integers(0, code.field.q, size=enc.k))
    for pos in rng.integers(0, code.L, size=10):
        bad = v.copy()
        bad[pos] ^= 1 + int(rng.integers(0, code.field.q - 1))
        assert not syndrome_check(code, bad)


def test_syndrome_random_noncodewords():
    field = GF2m(8)
    code, _ = build_code(field, L=766, P=30, dv=3, seed=2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert not syndrome_check(code, rng.integers(0, 256, size=766))


def _assert_stack_matches_rows(code, V):
    got = syndrome_check(code, V)
    assert got.dtype == bool and got.shape == (len(V),)
    assert got.tolist() == [syndrome_check(code, v) for v in V]
    return got


def test_syndrome_stack_matches_rows(desk_code):
    code, enc = desk_code
    rng = np.random.default_rng(6)
    V = rng.integers(0, code.field.q, size=(12, code.L))
    for k in (0, 3, 4, 11):
        V[k] = enc.encode(rng.integers(0, code.field.q, size=enc.k))
    V[4, 17] ^= 5   # one flipped symbol: no longer a codeword
    got = _assert_stack_matches_rows(code, V)
    assert np.flatnonzero(got).tolist() == [0, 3, 11]
    assert _assert_stack_matches_rows(code, V[:0]).shape == (0,)


def test_syndrome_stack_p0_all_true():
    code, _ = build_code(GF2m(4), L=120, P=0, dv=3, seed=0)
    V = np.random.default_rng(7).integers(0, 16, size=(5, 120))
    assert _assert_stack_matches_rows(code, V).all()


def test_syndrome_stack_degree_zero_check():
    # check 1 has no edges, so it holds for every word
    field = GF2m(2)
    code = LdpcCode(field, 3, 2, [0, 1, 2], [0, 0, 0], [1, 2, 3])
    assert list(code.chk_degrees()) == [3, 0]
    V = np.array([[0, 0, 0], [1, 0, 0], [1, 2, 3], [0, 0, 1]])
    got = _assert_stack_matches_rows(code, V)
    # in GF(4), 1*1 + 2*2 + 3*3 = 1 + 3 + 2 = 0
    assert got.tolist() == [True, False, True, False]


@pytest.mark.parametrize("shape", [(4, 129), (2, 4, 128)],
                         ids=["long-rows", "3d"])
def test_syndrome_stack_rejects_bad_shapes(desk_code, shape):
    code, _ = desk_code
    with pytest.raises(ValueError):
        syndrome_check(code, np.zeros(shape, dtype=np.int64))


def _full_row_elimination(code):
    """Pivot columns and reduced rows of H, eliminating over every column
    of each row (the encoder skips the columns left of the pivot)."""
    H = code.parity_matrix()
    mul, inv = code.field.mul_table, code.field.inv
    pivots, r = [], 0
    for c in range(code.L):
        nz = np.flatnonzero(H[r:, c]) if r < code.P else []
        if len(nz) == 0:
            continue
        H[[r, r + nz[0]]] = H[[r + nz[0], r]]
        H[r] = mul[H[r], inv(H[r, c])]
        factors = H[:, c].copy()
        factors[r] = 0
        H ^= mul[factors[:, None], H[r][None, :]]
        pivots.append(c)
        r += 1
    return pivots, H


@pytest.mark.parametrize("m, L, P, dv, seed", [
    (4, 128, 8, 3, 5), (2, 30, 12, 3, 1), (6, 60, 20, 4, 2), (3, 40, 25, 2, 3),
])
def test_encoder_matches_full_row_elimination(m, L, P, dv, seed):
    code, enc = build_code(GF2m(m), L, P, dv, seed)
    pivots, H = _full_row_elimination(code)
    assert enc.parity_positions.tolist() == pivots
    assert np.array_equal(enc.parity_rows, H[:, enc.message_positions])


def test_rank_deficient_reported():
    field = GF2m(2)
    # identical check rows: rank 1 < 2
    code = LdpcCode(field, 4, 2, [0, 1, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2])
    with pytest.raises(RankDeficientError) as err:
        Encoder(code)
    assert err.value.rank == 1
    assert err.value.rows == 2


def test_build_code_retries_on_rank_loss():
    field = GF2m(4)
    code, enc = build_code(field, L=16, P=4, dv=2, seed=0)
    msg = np.arange(enc.k) % field.q
    assert syndrome_check(code, enc.encode(msg))


def test_build_code_p0():
    code, enc = build_code(GF2m(4), L=120, P=0, dv=3, seed=0)
    assert code.n_edges == 0
    assert enc.k == 120
    v = enc.encode(np.arange(120) % 16)
    assert syndrome_check(code, v)


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------

def test_bits_to_symbols_big_endian():
    assert bits_to_symbols([0, 1, 0, 1], 4)[0] == 5


def test_bits_round_trip():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=5888)
    syms = bits_to_symbols(bits, 8)
    assert syms.size == 736
    assert np.array_equal(symbols_to_bits(syms, 8), bits)


def test_bits_length_mismatch():
    with pytest.raises(ValueError):
        bits_to_symbols([0, 1, 1], 2)
