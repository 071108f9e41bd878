import threading

import numpy as np
import pytest

from helpers import (
    _pad_adjacency, _reference_excl_prod, check_round_message,
    check_update_bruteforce, check_update_convolution, exhaustive_posteriors,
    chk_edges, fq_convolve, openblas_thread_getters, reference_bp_round,
    reference_estimate, var_edges,
)
from srldpc import denoiser
from srldpc.denoiser import (
    BpDenoiser, Schedule, _excl_prod, _Hadamard, _part_major, _ranges,
    _slot_major, divergence_terms, hadamard_matrix, local_posterior,
    part_count,
)
from srldpc.gf import GF2m, fwht
from srldpc.harness import SimConfig, build_experiment
from srldpc.ldpc import LdpcCode, build_code


# ---------------------------------------------------------------------------
# Local posterior
# ---------------------------------------------------------------------------

def test_local_posterior_uniform_for_zero_input():
    out = local_posterior(np.zeros(8), 0.5)
    assert np.allclose(out, 1 / 8, atol=1e-12)


def test_local_posterior_q2_value():
    out = local_posterior(np.array([1.0, 0.0]), 1.0)
    assert out[0] == pytest.approx(1 / (1 + np.exp(-1)), rel=1e-12)


def test_local_posterior_shift_invariant():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(16)
    a = local_posterior(r, 0.3)
    b = local_posterior(r + 7.25, 0.3)
    assert np.allclose(a, b, rtol=1e-12)


def test_local_posterior_rejects_bad_tau2():
    with pytest.raises(ValueError):
        local_posterior(np.zeros(4), 0.0)


# ---------------------------------------------------------------------------
# Hadamard matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 9))
def test_hadamard_matrix_entries_and_inverse(m):
    q = 1 << m
    H = hadamard_matrix(q)
    ref = np.array([[(-1) ** bin(i & j).count("1") for j in range(q)]
                    for i in range(q)])
    assert np.array_equal(H, ref)
    assert np.array_equal(H @ H, q * np.eye(q))


def _transform(T, x):
    return T(x, np.empty_like(x))


@pytest.mark.parametrize("m", range(1, 9))
def test_hadamard_transform_matches_fwht(m):
    q = 1 << m
    rng = np.random.default_rng(20 + m)
    x = rng.standard_normal((37, q)) * rng.random((37, 1)) * 10.0
    T = _Hadamard(q)
    got = _transform(T, x.copy())
    ref = fwht(x)
    err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
    assert err.max() <= 1e-13
    if m <= 4:
        # one stage: the dense product itself
        assert len(T.factors) == 1
        assert np.array_equal(got, x @ hadamard_matrix(q))
    # on small integers every sum is exact, so the stages must agree
    # with the butterfly exactly
    k = rng.integers(-50, 50, size=(37, q)).astype(np.float64)
    assert np.array_equal(_transform(T, k.copy()), fwht(k))


@pytest.mark.parametrize("m", range(1, 9))
def test_hadamard_transform_twice_is_q_times_identity(m):
    q = 1 << m
    rng = np.random.default_rng(40 + m)
    T = _Hadamard(q)
    k = rng.integers(-50, 50, size=(9, q)).astype(np.float64)
    assert np.array_equal(_transform(T, _transform(T, k.copy())), q * k)
    x = rng.random((9, q))
    assert np.abs(_transform(T, _transform(T, x.copy())) - q * x).max() \
        <= 1e-13 * q


@pytest.mark.parametrize("m", [1, 4, 5, 8])
def test_hadamard_transform_result_in_x_or_work(m):
    """One stage (m <= 4) and two stages (m > 4): the result takes the
    memory of x or of work, and the other array is free to overwrite."""
    q = 1 << m
    rng = np.random.default_rng(60 + m)
    k = rng.integers(-50, 50, size=(11, q)).astype(np.float64)
    x, work = k.copy(), np.empty_like(k)
    got = _Hadamard(q)(x, work)
    assert got is x or got is work
    free = work if got is x else x
    free[...] = np.nan
    assert np.array_equal(got, fwht(k))


# ---------------------------------------------------------------------------
# Exclusive products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("slots", [1, 2, 3, 7])
def test_excl_prod_writes_out_and_matches_reference(slots):
    """_excl_prod on a slot-major (slots, nodes, trials, q) stack returns
    out, bitwise the node-major cumprod form on the same products."""
    rng = np.random.default_rng(slots)
    a = rng.random((slots, 5, 3, 8)) + 0.5
    out = np.empty_like(a)
    got = _excl_prod(a.copy(), out)
    assert got is out
    ref = np.moveaxis(_reference_excl_prod(np.moveaxis(a, 0, 1)), 1, 0)
    assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# Check update (one check of the shipped BP round)
# ---------------------------------------------------------------------------

def test_check_update_single_delta_passthrough():
    field = GF2m(3)
    e5 = np.zeros(8)
    e5[5] = 1.0
    out = check_round_message([(e5, 1)], 1, field)
    assert np.argmax(out) == 5
    assert out[5] == pytest.approx(1.0, abs=1e-12)


def test_check_update_q2_example():
    field = GF2m(1)
    out = check_round_message([(np.array([0.9, 0.1]), 1),
                               (np.array([0.8, 0.2]), 1)], 1, field)
    assert np.allclose(out, [0.74, 0.26], atol=1e-12)


def test_check_update_labels_one_is_convolution():
    field = GF2m(3)
    rng = np.random.default_rng(1)
    a, b = rng.random(8), rng.random(8)
    out = check_round_message([(a, 1), (b, 1)], 1, field)
    conv = fq_convolve(a, b, field)
    assert np.allclose(out, conv / conv.sum(), atol=1e-12)


def test_check_update_matches_bruteforce_q8_degree5():
    field = GF2m(3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        incoming = [
            (rng.random(8) + 1e-3, int(rng.integers(1, 8)))
            for _ in range(4)
        ]
        out_label = int(rng.integers(1, 8))
        fast = check_round_message(incoming, out_label, field)
        slow = check_update_bruteforce(incoming, out_label, field)
        assert np.abs(fast - slow).max() < 1e-10


def test_check_update_label_absorption_identity():
    # scaling an input's index by w while multiplying its label by w
    # leaves the outgoing message unchanged
    field = GF2m(4)
    rng = np.random.default_rng(3)
    b1 = rng.random(16) + 1e-3
    b2 = rng.random(16) + 1e-3
    lbl1, lbl2, out_label = 7, 9, 3
    base = check_round_message([(b1, lbl1), (b2, lbl2)], out_label, field)
    w = 5
    twisted = check_round_message(
        [(b1[field.mul_table[:, w]], field.mul(lbl1, w)), (b2, lbl2)],
        out_label, field,
    )
    assert np.allclose(base, twisted, atol=1e-12)


# ---------------------------------------------------------------------------
# Variable update (one variable of the shipped BP round)
# ---------------------------------------------------------------------------

def _variable_star(alpha, incoming):
    """Denoiser on one variable whose degree-1 checks have sent incoming.

    Its estimate() is the full product of alpha and the incoming
    messages; after one bp_round, v2c[i] is the product excluding
    incoming[i].
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    field = GF2m(alpha.size.bit_length() - 1)
    d = len(incoming)
    code = LdpcCode(field, 1, d, np.zeros(d, dtype=np.int64), np.arange(d),
                    np.ones(d, dtype=np.int64))
    den = BpDenoiser(code, Schedule("bp0"))
    den.alpha = alpha[None, :]
    den.c2v[:] = incoming
    return den


def test_variable_update_uniform_incoming_returns_alpha():
    alpha = np.array([0.5, 0.25, 0.125, 0.125])
    den = _variable_star(alpha, [np.full(4, 0.25), np.full(4, 0.25)])
    assert np.allclose(den.estimate()[0], alpha, atol=1e-12)


def test_variable_update_q2_example():
    den = _variable_star([0.6, 0.4], [np.array([0.9, 0.1])])
    assert np.allclose(den.estimate()[0], [0.54 / 0.58, 0.04 / 0.58],
                       atol=1e-12)


def test_variable_update_exclude_only_edge():
    alpha = np.array([0.7, 0.1, 0.1, 0.1])
    den = _variable_star(alpha, [np.array([0.9, 0.05, 0.03, 0.02])])
    den.bp_round()
    assert np.allclose(den.v2c[0], alpha, atol=1e-12)


def test_variable_update_zero_product_falls_back_to_uniform():
    den = _variable_star([1.0, 0.0], [np.array([0.0, 1.0])])
    assert np.allclose(den.estimate()[0], [0.5, 0.5], atol=1e-12)
    assert den.underflow_events == 1


# ---------------------------------------------------------------------------
# Divergence terms
# ---------------------------------------------------------------------------

def test_divergence_terms_one_hot():
    s = np.zeros(32)
    s[[3, 8, 17, 25]] = 1.0
    l1, l2sq = divergence_terms(s)
    assert l1 == 4.0 and l2sq == 4.0


def test_divergence_terms_uniform():
    L, q = 6, 8
    s = np.full(L * q, 1 / q)
    l1, l2sq = divergence_terms(s)
    assert l1 == pytest.approx(L, rel=1e-12)
    assert l2sq == pytest.approx(L / q, rel=1e-12)


def test_divergence_l1_equals_L_for_probability_sections():
    rng = np.random.default_rng(4)
    mat = rng.random((10, 16))
    mat /= mat.sum(axis=1, keepdims=True)
    l1, _ = divergence_terms(mat.ravel())
    assert l1 == pytest.approx(10.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Full denoiser
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_code():
    return build_code(GF2m(3), L=12, P=4, dv=2, seed=3)[0]


def test_denoise_zero_rounds_is_local_mmse(small_code):
    rng = np.random.default_rng(5)
    q = small_code.field.q
    r = rng.standard_normal(small_code.L * q)
    den = BpDenoiser(small_code, Schedule("bp0"))
    out = den.denoise(r, 0.25, t=0).reshape(small_code.L, q)
    ref = local_posterior(r.reshape(small_code.L, q), 0.25)
    assert np.abs(out - ref).max() < 1e-12


def test_denoise_noiseless_recovers_state():
    from srldpc.codec import index_codeword
    rng = np.random.default_rng(6)
    code, enc = build_code(GF2m(3), L=12, P=4, dv=2, seed=3)
    q = code.field.q
    v = enc.encode(rng.integers(0, q, size=enc.k))
    s = index_codeword(v, q)
    den = BpDenoiser(code, Schedule("bpn"))
    out = den.denoise(s, 1e-3, t=2)
    assert np.abs(out - s).max() < 1e-9


def test_denoiser_messages_are_probability_vectors(small_code):
    rng = np.random.default_rng(7)
    q = small_code.field.q
    r = rng.standard_normal(small_code.L * q)
    den = BpDenoiser(small_code, Schedule("bpn"))
    out = den.denoise(r, 0.4, t=3).reshape(small_code.L, q)
    for arr in (den.v2c, den.c2v, out):
        assert np.all(arr >= 0)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-9)


def _assert_rounds_match_oracle(code, check_oracle, seed):
    """Two bpn rounds of the shipped denoiser agree edge by edge with
    plain products at the variables and check_oracle at the checks."""
    field = code.field
    q = field.q
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(code.L * q)
    tau2 = 0.5

    den = BpDenoiser(code, Schedule("bpn"))
    den.denoise(r, tau2, t=1)

    def product(alpha_l, msgs):
        out = alpha_l * np.prod(msgs, axis=0)
        return out / out.sum()

    alpha = local_posterior(r.reshape(code.L, q), tau2)
    v2c = np.full((code.n_edges, q), 1.0 / q)
    c2v = np.full((code.n_edges, q), 1.0 / q)
    var_lists, chk_lists = var_edges(code), chk_edges(code)
    for _ in range(2):
        for l, edges in enumerate(var_lists):
            for e in edges:
                v2c[e] = product(alpha[l], c2v[edges[edges != e]])
        for edges in chk_lists:
            for e in edges:
                incoming = [(v2c[j], int(code.edge_label[j]))
                            for j in edges if j != e]
                c2v[e] = check_oracle(
                    incoming, int(code.edge_label[e]), field)

    for e in range(code.n_edges):
        assert np.abs(den.v2c[e] - v2c[e]).max() < 1e-10
        assert np.abs(den.c2v[e] - c2v[e]).max() < 1e-10

    est = den.estimate()
    for l in range(code.L):
        ref = product(alpha[l], c2v[var_lists[l]])
        assert np.abs(est[l] - ref).max() < 1e-10


def test_vectorized_rounds_match_reference_updates(small_code):
    """The batched transform-domain rounds must agree edge by edge with
    direct parity enumeration at the checks and plain products at the
    variables."""
    _assert_rounds_match_oracle(small_code, check_update_bruteforce, 8)


def test_convolution_oracle_matches_bruteforce():
    field = GF2m(3)
    rng = np.random.default_rng(14)
    for _ in range(10):
        incoming = [(rng.random(8) + 1e-3, int(rng.integers(1, 8)))
                    for _ in range(3)]
        out_label = int(rng.integers(1, 8))
        slow = check_update_bruteforce(incoming, out_label, field)
        conv = check_update_convolution(incoming, out_label, field)
        assert np.abs(conv - slow).max() < 1e-12


# codes above q=16, where the check round's transform has two stages
WIDE_CODES = {
    "64": lambda: build_code(GF2m(6), L=12, P=4, dv=2, seed=3)[0],
    "256": lambda: build_code(GF2m(8), L=8, P=4, dv=2, seed=3)[0],
    # check degrees 4 and 5, so padded check slots take part
    "64-irregular": lambda: build_code(GF2m(6), L=12, P=5, dv=2, seed=3)[0],
}


@pytest.mark.parametrize("case", sorted(WIDE_CODES))
def test_two_stage_rounds_match_convolution_oracle(case):
    """At q > 16 the radix-16 rounds agree edge by edge with direct
    F_q-convolution at the checks."""
    code = WIDE_CODES[case]()
    assert code.field.q == int(case.split("-")[0])
    _assert_rounds_match_oracle(code, check_update_convolution, 15)


@pytest.mark.parametrize("m, L", [(5, 20), (8, 20), (5, 21), (8, 21)],
                         ids=["5", "8", "5-irregular", "8-irregular"])
def test_denoise_stack_equals_each_row_bitwise(m, L):
    """A (K, qL) stack denoises to exactly what each row gives alone; at
    L=21 the check degrees are 12 and 13, so padded slots take part."""
    code = build_code(GF2m(m), L=L, P=5, dv=3, seed=6)[0]
    q = code.field.q
    rng = np.random.default_rng(16)
    tau2 = np.array([0.2, 0.5, 0.9])
    r = rng.standard_normal((3, code.L * q))
    r[:, ::q] += 1.0
    stacked = BpDenoiser(code, Schedule("bpn")).denoise(r, tau2, t=2)
    for k in range(3):
        alone = BpDenoiser(code, Schedule("bpn")).denoise(r[k], tau2[k], t=2)
        assert np.array_equal(stacked[k], alone)


ORACLE_CODES = {
    # the desk code: q=16, L=128, P=8, check degree 48
    "desk": lambda: build_experiment(SimConfig())[1],
    # check degrees 21 and 22, so padded slots take part
    "irregular": lambda: build_code(GF2m(4), L=50, P=7, dv=3, seed=4)[0],
    "underflow": lambda: build_code(GF2m(2), L=12, P=4, dv=3, seed=2)[0],
}


@pytest.mark.parametrize("schedule", ["bpn", "bp1kg"])
@pytest.mark.parametrize("case", sorted(ORACLE_CODES))
def test_bp_round_bitwise_matches_reference(case, schedule):
    """The shipped slot-major round equals the node-major reference form
    bit for bit after every round, underflow fallbacks included."""
    code = ORACLE_CODES[case]()
    q = code.field.q
    rng = np.random.default_rng(13)
    sched = Schedule(schedule)
    den = BpDenoiser(code, sched)
    underflow = rounds = 0
    for t in range(5):
        tau2 = (0.05, 0.03, 0.02, 1e-3, 1e-5)[t]
        r = rng.standard_normal((code.L, q)) * np.sqrt(tau2)
        r[np.arange(code.L), rng.integers(0, q, size=code.L)] += 1.0
        den.init_alpha(r.ravel(), tau2)
        if case == "underflow":
            # every local posterior on symbol 1, every incoming check
            # message on symbol 2: each variable product is exactly 0
            den.alpha = np.tile(np.eye(q)[1], (code.L, 1))
        if t == 0 or not sched.keep_graph:
            den.reset_messages()
            if case == "underflow":
                den.c2v[:] = np.eye(q)[2]
            v2c, c2v = den.v2c.copy(), den.c2v.copy()
        for _ in range(sched.rounds(t)):
            den.bp_round()
            v2c, c2v, n_bad = reference_bp_round(code, den.alpha, v2c, c2v)
            underflow += n_bad
            assert np.array_equal(den.v2c, v2c)
            assert np.array_equal(den.c2v, c2v)
            assert den.underflow_events == underflow
            est, n_bad = reference_estimate(code, den.alpha, c2v)
            underflow += n_bad
            assert np.array_equal(den.estimate(), est)
            assert den.underflow_events == underflow
            rounds += 1
    assert rounds >= 5
    assert (underflow > 0) == (case == "underflow")


LAYOUT_CODES = {
    "desk": ORACLE_CODES["desk"],
    "irregular": ORACLE_CODES["irregular"],
    "uncoded": lambda: build_code(GF2m(4), L=12, P=0, dv=3, seed=0)[0],
    # one variable joined to three degree-1 checks
    "star": lambda: LdpcCode(GF2m(2), 1, 3, np.zeros(3, dtype=np.int64),
                             np.arange(3), np.ones(3, dtype=np.int64)),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CODES))
def test_slot_major_layout_matches_node_major_oracle(case):
    """Each edge sits once at its (slot, node) of the node-major padded
    adjacency, pads hold E, and each edge's row picks the edge out of a
    gathered stack, in the slot-major order of one part and in the
    part-major order of two and three."""
    code = LAYOUT_CODES[case]()
    E = code.n_edges
    for node_of_edge, n_nodes, edge_lists in (
            (code.edge_var, code.L, var_edges(code)),
            (code.edge_chk, code.P, chk_edges(code))):
        pad = _slot_major(node_of_edge, n_nodes)
        ref, mask = _pad_adjacency(edge_lists, E)
        assert np.array_equal(pad, ref.T)
        assert np.array_equal(np.sort(pad[mask.T]), np.arange(E))
        assert np.all(pad[~mask.T] == E)
        msgs = np.arange(2.0 * (E + 1)).reshape(E + 1, 2)
        order, rows = _part_major(pad, _ranges(n_nodes, 1), E)
        assert np.array_equal(order, pad.ravel())
        assert np.array_equal(msgs[pad].reshape(-1, 2)[rows], msgs[:E])
        for parts in (2, 3):
            ranges = _ranges(n_nodes, parts)
            bounds = [lo for lo, _ in ranges] + [n_nodes]
            assert [hi for _, hi in ranges] == bounds[1:]
            order, rows = _part_major(pad, ranges, E)
            assert np.array_equal(np.sort(order), np.sort(pad.ravel()))
            assert np.array_equal(msgs[order][rows], msgs[:E])


def test_cycle_free_code_exact_posteriors():
    """On a tree, two BP rounds reproduce the exhaustive-codebook
    posteriors for every section."""
    field = GF2m(2)
    q = field.q
    rng = np.random.default_rng(9)
    code = LdpcCode(
        field, 4, 2,
        [0, 1, 1, 2, 3], [0, 0, 1, 1, 1],
        rng.integers(1, q, size=5),
    )
    assert code.girth == float("inf")
    r = rng.standard_normal(4 * q) + 0.3
    tau2 = 0.6
    den = BpDenoiser(code, Schedule("bpn"))
    out = den.denoise(r, tau2, t=1).reshape(4, q)
    exact = exhaustive_posteriors(code, r, tau2)
    assert np.abs(out - exact).max() < 1e-9


def test_keep_graph_retains_messages(small_code):
    rng = np.random.default_rng(11)
    q = small_code.field.q
    r1 = rng.standard_normal(small_code.L * q)
    r2 = rng.standard_normal(small_code.L * q)

    kg = BpDenoiser(small_code, Schedule("bp1kg"))
    kg.denoise(r1, 0.4, t=0)
    out_kg = kg.denoise(r2, 0.4, t=1)

    fresh = BpDenoiser(small_code, Schedule("bp1kg"))
    out_fresh = fresh.denoise(r2, 0.4, t=0)
    # retained messages from r1 must influence the second call
    assert np.abs(out_kg - out_fresh).max() > 1e-6


def test_sub_girth_diagnostic(small_code):
    rng = np.random.default_rng(12)
    q = small_code.field.q
    r = rng.standard_normal(small_code.L * q)
    half_girth = int(small_code.girth // 2)
    den = BpDenoiser(small_code, Schedule("bpn"))
    den.denoise(r, 0.4, t=half_girth)
    assert den.metadata()["sub_girth_violations"] == 1
    ok = BpDenoiser(small_code, Schedule("bpn"))
    ok.denoise(r, 0.4, t=half_girth - 1)
    assert ok.metadata()["sub_girth_violations"] == 0


def test_schedule_kinds():
    assert Schedule("bp0").rounds(5) == 0
    assert Schedule("bpn").rounds(5) == 6
    assert Schedule("BP-1-KG").rounds(5) == 1
    assert Schedule("bp1kg").keep_graph
    with pytest.raises(ValueError):
        Schedule("nope")


# ---------------------------------------------------------------------------
# Half-rounds split into parts
# ---------------------------------------------------------------------------

PART_CASES = {
    **{f"{case}-{schedule}": (ORACLE_CODES[case], schedule)
       for case in ORACLE_CODES for schedule in ("bpn", "bp1kg")},
    **{f"q{case}": (WIDE_CODES[case], "bpn") for case in WIDE_CODES},
    "uncoded": (LAYOUT_CODES["uncoded"], "bpn"),
    # L=1 variable, fewer than the parts
    "star": (LAYOUT_CODES["star"], "bpn"),
    # P=2 checks, fewer than three parts
    "two-checks": (lambda: build_code(GF2m(4), L=12, P=2, dv=2, seed=1)[0],
                   "bpn"),
}


def _bp_trace(code, schedule, trials, underflow):
    """Every message, estimate and counter a denoiser exposes over four
    denoise calls and then three lone rounds on a work pair of their
    own, and the part count it ran; with underflow, the lone rounds
    start from one-hot alpha on symbol 1 and c2v on symbol 2, so every
    variable product is exactly 0."""
    q = code.field.q
    rng = np.random.default_rng(21)
    den = BpDenoiser(code, Schedule(schedule))
    seen = []
    for t, tau2 in enumerate((0.5, 0.1, 0.02, 1e-4)):
        r = rng.standard_normal((trials, code.L * q)) * np.sqrt(tau2)
        r[:, ::q] += 1.0
        tau2 = tau2 * np.linspace(1.0, 2.0, trials)
        out = (den.denoise(r[0], tau2[0], t) if trials == 1
               else den.denoise(r, tau2, t))
        seen += [out, den.v2c.copy(), den.c2v.copy(), den.metadata()]
    den.reset_messages()
    if underflow:
        den.alpha = np.broadcast_to(np.eye(q)[1], den.alpha.shape)
        den.c2v[:] = np.eye(q)[2]
    work = den._work()
    for _ in range(3):
        den.bp_round(work)
        seen += [den.v2c.copy(), den.c2v.copy(), den.estimate(work),
                 den.metadata()]
    return seen, den._layout().parts


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("case", sorted(PART_CASES))
def test_any_part_count_is_one_part_bitwise(case, trials, cpus,
                                            monkeypatch):
    """Two and three parts give every message, estimate and underflow
    counter bit for bit as one part does, for one trial and a stack."""
    make, schedule = PART_CASES[case]
    code = make()
    underflow = case.startswith("underflow")
    cpus(1)
    one, parts = _bp_trace(code, schedule, trials, underflow)
    assert parts == 1
    monkeypatch.setattr(denoiser, "MIN_PART", 1)
    for count in (2, 3):
        cpus(count)
        split, parts = _bp_trace(code, schedule, trials, underflow)
        # a code with no edges has no messages to split
        assert parts == (count if code.n_edges else 1)
        assert len(split) == len(one)
        for a, b in zip(one, split):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b
    counts = one[-1] if trials == 1 else one[-1][0]
    assert (counts["underflow_events"] > 0) == underflow


def test_part_count_rule(cpus, monkeypatch):
    """One part per CPU, none below MIN_PART entries: with the shipped
    constant the desk code's batch of 8 runs one part on two CPUs and
    the paper-scale K=1 code splits in two."""
    cpus(2)
    desk = ORACLE_CODES["desk"]()
    den = BpDenoiser(desk, Schedule("bpn"))
    den.init_alpha(np.zeros((8, desk.L * desk.field.q)), np.ones(8))
    assert den._layout().parts == 1
    paper_edges = 766 * 3
    assert part_count(paper_edges * 256) == 2
    cpus(4)
    assert part_count(paper_edges * 256) == 4
    assert part_count(2 * denoiser.MIN_PART - 1) == 1
    assert part_count(3 * denoiser.MIN_PART) == 3
    cpus(1)
    assert part_count(paper_edges * 256) == 1


@pytest.fixture()
def split(cpus, monkeypatch):
    """Every half-round of at least two entries runs as two parts."""
    cpus(2)
    monkeypatch.setattr(denoiser, "MIN_PART", 1)


def _noisy_input(code, trials, seed):
    q = code.field.q
    r = np.random.default_rng(seed).standard_normal((trials, code.L * q))
    r[:, ::q] += 1.0
    return r, np.full(trials, 0.3)


def test_split_rounds_leave_no_thread_behind(split):
    """Each call joins its helper threads and gives every OpenBLAS back
    its thread count before it returns."""
    code = ORACLE_CODES["irregular"]()
    getters = openblas_thread_getters()
    blas_before = [get() for get in getters]
    threads = threading.active_count()
    den = BpDenoiser(code, Schedule("bpn"))
    r, tau2 = _noisy_input(code, 3, 22)
    den.denoise(r, tau2, t=3)
    assert den._layout().parts == 2
    assert threading.active_count() == threads
    den.bp_round()
    den.estimate()
    assert threading.active_count() == threads
    assert [get() for get in getters] == blas_before


class PartError(Exception):
    pass


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_error_in_a_part_reaches_the_caller(split, monkeypatch, where):
    """An exception raised in a part, on a helper thread or on the
    calling thread, is raised by the call with its type, after every
    helper thread has been joined."""
    code = ORACLE_CODES["irregular"]()
    den = BpDenoiser(code, Schedule("bpn"))
    r, tau2 = _noisy_input(code, 1, 23)
    den.denoise(r[0], tau2[0], t=0)
    threads = threading.active_count()
    normalize = denoiser._normalize_rows

    def failing(mat):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper == (where == "helper"):
            raise PartError(where)
        return normalize(mat)

    monkeypatch.setattr(denoiser, "_normalize_rows", failing)
    for call in (den.bp_round, den.estimate):
        with pytest.raises(PartError, match=where):
            call()
        assert threading.active_count() == threads
