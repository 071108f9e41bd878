"""Shared independent oracles for the test suite, and one runner.

The oracles are deliberately implemented by direct enumeration, by
direct O(q^2) F_q-convolution (fq_convolve, check_update_convolution)
or by finite differences, independent of the transform-domain code
paths they are used to verify.  check_round_message is not an oracle:
it runs the shipped BpDenoiser check round on a single check so that
the oracles can be compared with it message by message.
reference_bp_round and reference_estimate keep the earlier node-major
form of the BP round (cumprod exclusive products, take_along_axis label
permutations, boolean-mask gathers), which does the same floating-point
operations in the same order as the shipped slot-major round, so the
two must agree bit for bit; _pad_adjacency is their node-major padded
adjacency, and the oracle for the shipped slot-major layout.
reference_peg_construct is the earlier form of ldpc.peg_construct, a
variable/check BFS per placed edge with the girth left to
compute_girth; the shipped construction must give the same edges and
girth.  reference_approximate_se is the earlier one-code
form of state_evolution.approximate_se (padded cumprod check round,
np.add.at variable sums); the batched recursion must reproduce its
trajectories bit for bit.  se_check_mse and se_variable_tau are the
scalar SE rules at one check and one variable node, written out from
their formulas; the shipped rounds must agree with them edge by edge.
reference_mc_alpha0_mean is the earlier form of
state_evolution._mc_alpha0_mean, with a fresh array per chunk step and
a row maximum by reduction; the shipped in-place form must give the
same mean bit for bit.
openblas_thread_getters reads the thread count of each OpenBLAS in the
process through ctypes on its own, not through srldpc.blas.
var_edges and chk_edges list a code's edge ids per variable and per
check; the shipped denoiser and SE use their own slot layouts.
"""

import ctypes
import itertools
import os

import numpy as np

from srldpc.denoiser import MSG_FLOOR, BpDenoiser, Schedule, hadamard_matrix
from srldpc.ldpc import LdpcCode, check_peg_profile, syndrome_check


def _split(edge_ids, counts):
    """Consecutive runs of edge_ids with the given lengths, as views."""
    ends = np.cumsum(counts).tolist()
    return [edge_ids[end - n:end] for n, end in zip(counts.tolist(), ends)]


def var_edges(code):
    """Edge ids of each variable, ascending."""
    # A stable sort by variable keeps ids ascending per variable.
    return _split(np.argsort(code.edge_var, kind="stable"),
                  code.var_degrees())


def chk_edges(code):
    """Edge ids of each check, ascending."""
    # Edges are sorted by check, so each check's edges are a run of ids.
    return _split(np.arange(code.n_edges), code.chk_degrees())


def check_round_message(incoming, out_label, field):
    """Message BpDenoiser.bp_round sends from one check along one edge.

    incoming is a list of (belief vector, edge label) pairs for the other
    edges of the check.  The check is joined to len(incoming) + 1
    degree-1 variables, the output edge last; with degree 1 the variable
    half of the round passes each local posterior through normalized, so
    the check half sees exactly the incoming vectors.
    """
    d = len(incoming) + 1
    labels = [lbl for _, lbl in incoming] + [out_label]
    code = LdpcCode(field, d, 1, np.arange(d), np.zeros(d, dtype=np.int64),
                    labels)
    den = BpDenoiser(code, Schedule("bp0"))
    den.alpha = np.stack(
        [np.asarray(b, dtype=np.float64) for b, _ in incoming]
        + [np.full(field.q, 1.0 / field.q)]
    )
    den.bp_round()
    return den.c2v[var_edges(code)[d - 1][0]]


def fq_convolve(a, b, field):
    """Direct O(q^2) F_q-convolution: out[g] = sum_h a[h] * b[g - h]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    idx = np.arange(field.q)
    return a @ b[idx[:, None] ^ idx[None, :]]


def check_update_convolution(incoming, out_label, field):
    """Check-node message by direct F_q-convolution: each incoming
    vector, relabelled to the distribution of label * symbol, is
    convolved into the distribution w of the sum over the other edges,
    and the output edge reads w at out_label * g."""
    q = field.q
    w = np.zeros(q)
    w[0] = 1.0
    for b, lbl in incoming:
        b = np.asarray(b, dtype=np.float64)
        w = fq_convolve(w, b[field.mul_table[:, field.inv(lbl)]], field)
    out = w[field.mul_table[out_label]]
    return out / out.sum()


def check_update_bruteforce(incoming, out_label, field):
    """Check-node message by direct sum over all symbol assignments that
    satisfy the parity constraint."""
    q = field.q
    msgs = np.stack([np.asarray(b, dtype=np.float64) for b, _ in incoming])
    labels = np.array([lbl for _, lbl in incoming])
    d = len(labels)
    combos = np.array(list(itertools.product(range(q), repeat=d)),
                      dtype=np.int64)
    weights = np.prod(msgs[np.arange(d)[None, :], combos], axis=1)
    scaled = field.mul_table[labels[None, :], combos]
    parity = np.bitwise_xor.reduce(scaled, axis=1)
    out_sym = field.mul_table[parity, field.inv(out_label)]
    out = np.zeros(q)
    np.add.at(out, out_sym, weights)
    return out / out.sum()


def exhaustive_posteriors(code, r, tau2):
    """Exact per-section posteriors by enumerating the whole codebook."""
    q = code.field.q
    L = code.L
    r = r.reshape(L, q)
    scores = r / tau2
    scores -= scores.max()
    post = np.zeros((L, q))
    for word in itertools.product(range(q), repeat=L):
        if not syndrome_check(code, np.array(word)):
            continue
        w = np.exp(sum(scores[l, g] for l, g in enumerate(word)))
        for l, g in enumerate(word):
            post[l, g] += w
    return post / post.sum(axis=1, keepdims=True)


def fd_divergence(code, r, tau2, rounds, h=1e-5):
    """Central-difference divergence of the BP denoiser at r."""
    # bpn runs t + 1 rounds at iteration t
    den = BpDenoiser(code, Schedule("bpn"))
    total = 0.0
    for i in range(r.size):
        rp = r.copy()
        rp[i] += h
        sp = den.denoise(rp, tau2, rounds - 1)[i]
        rm = r.copy()
        rm[i] -= h
        sm = den.denoise(rm, tau2, rounds - 1)[i]
        total += (sp - sm) / (2 * h)
    return total


def gaussian_probability_vectors(q, tau2, count, rng):
    """Samples of the normalized Gaussian-channel posterior for input
    e_0: softmax(r / tau2) with r = e_0 + tau * N(0, I_q)."""
    r = rng.standard_normal((count, q)) * np.sqrt(tau2)
    r[:, 0] += 1.0
    x = r / tau2
    x -= x.max(axis=1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def reference_mc_alpha0_mean(q, tau2, samples, rng, chunk=1 << 18):
    tau = np.sqrt(tau2)
    total = 0.0
    done = 0
    per_chunk = max(1, min(samples, chunk // q))
    while done < samples:
        k = min(per_chunk, samples - done)
        r = rng.standard_normal((k, q)) * tau
        r[:, 0] += 1.0
        x = r / tau2
        x -= x.max(axis=1, keepdims=True)
        e = np.exp(x)
        total += float((e[:, 0] / e.sum(axis=1)).sum())
        done += k
    return total / samples


def _reference_excl_prod(a):
    pre = np.ones_like(a)
    suf = np.ones_like(a)
    if a.shape[1] > 1:
        np.cumprod(a[:, :-1], axis=1, out=pre[:, 1:])
        suf[:, :-1] = np.cumprod(a[:, :0:-1], axis=1)[:, ::-1]
    return pre * suf


def _reference_normalize(mat):
    totals = mat.sum(axis=-1, keepdims=True)
    bad = ~np.isfinite(totals[:, 0]) | (totals[:, 0] <= 0.0)
    if bad.any():
        mat = mat.copy()
        mat[bad] = 1.0 / mat.shape[-1]
        totals = mat.sum(axis=-1, keepdims=True)
    mat = np.maximum(mat / totals, MSG_FLOOR)
    return mat / mat.sum(axis=-1, keepdims=True), int(bad.sum())


def _pad_adjacency(edge_lists, dummy):
    """Stack variable-length edge-id lists into a padded matrix + mask."""
    n = len(edge_lists)
    width = max((len(e) for e in edge_lists), default=0)
    width = max(width, 1)
    pad = np.full((n, width), dummy, dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    for i, ids in enumerate(edge_lists):
        pad[i, : len(ids)] = ids
        mask[i, : len(ids)] = True
    return pad, mask


def reference_bp_round(code, alpha, v2c, c2v):
    """One flooding BP round in the node-major form.

    Returns (v2c, c2v, number of rows that fell back to uniform).
    """
    field = code.field
    q = field.q
    E = code.n_edges
    H = hadamard_matrix(q)
    neutral = np.ones((1, q))
    var_pad, var_mask = _pad_adjacency(var_edges(code), E)
    chk_pad, chk_mask = _pad_adjacency(chk_edges(code), E)

    gathered = np.vstack([c2v, neutral])[var_pad]
    msgs = _reference_excl_prod(gathered) * alpha[:, None, :]
    rows, bad_var = _reference_normalize(msgs[var_mask])
    v2c = np.empty((E, q))
    v2c[var_pad[var_mask]] = rows

    perm_in = field.mul_table[:, field.inv(code.edge_label)].T
    absorbed = np.take_along_axis(v2c, perm_in, axis=1)
    spectra = np.vstack([absorbed @ H, neutral])
    conv = _reference_excl_prod(spectra[chk_pad])[chk_mask] @ H
    conv = np.maximum(conv * (1.0 / q), 0.0)
    out = np.empty((E, q))
    out[chk_pad[chk_mask]] = conv
    perm_out = field.mul_table[:, code.edge_label].T
    c2v, bad_chk = _reference_normalize(
        np.take_along_axis(out, perm_out, axis=1))
    return v2c, c2v, bad_var + bad_chk


def reference_estimate(code, alpha, c2v):
    """Per-section posterior in the node-major form; returns (rows, n_bad)."""
    var_pad, _ = _pad_adjacency(var_edges(code), code.n_edges)
    gathered = np.vstack([c2v, np.ones((1, code.field.q))])[var_pad]
    return _reference_normalize(gathered.prod(axis=1) * alpha)


def reference_peg_construct(field, L, P, dv):
    """Progressive edge growth by a full BFS over the Tanner graph from
    each variable before each of its edges after the first; the code's
    girth comes from compute_girth."""
    check_peg_profile(L, P, dv)
    var_adj = [[] for _ in range(L)]
    chk_adj = [[] for _ in range(P)]
    chk_deg = np.zeros(P, dtype=np.int64)

    for v in range(L):
        for k in range(dv):
            if k == 0:
                candidates = range(P)
            else:
                depth = _reference_check_depths(v, var_adj, chk_adj, P)
                if np.any(depth < 0):
                    candidates = np.flatnonzero(depth < 0)
                else:
                    candidates = np.flatnonzero(depth == depth.max())
                candidates = [c for c in candidates if c not in var_adj[v]]
            c = min(candidates, key=lambda p: (chk_deg[p], p))
            var_adj[v].append(c)
            chk_adj[c].append(v)
            chk_deg[c] += 1

    edge_var = np.repeat(np.arange(L), dv)
    edge_chk = np.concatenate([np.asarray(a) for a in var_adj])
    edge_label = np.ones(L * dv, dtype=np.int64)
    return LdpcCode(field, L, P, edge_var, edge_chk, edge_label)


def _reference_check_depths(v, var_adj, chk_adj, P):
    """BFS depths of all check nodes from variable v; -1 if unreachable."""
    depth = np.full(P, -1, dtype=np.int64)
    seen_v = np.zeros(len(var_adj), dtype=bool)
    seen_v[v] = True
    frontier = [v]
    d = 0
    while frontier:
        new_checks = []
        for vv in frontier:
            for c in var_adj[vv]:
                if depth[c] < 0:
                    depth[c] = d
                    new_checks.append(c)
        frontier = []
        for c in new_checks:
            for vv in chk_adj[c]:
                if not seen_v[vv]:
                    seen_v[vv] = True
                    frontier.append(vv)
        d += 1
    return depth


def reference_approximate_se(code, n, sigma2, T, schedule, psi):
    """The scalar SE recursion on one code, as (tau2 trace, edge MSEs,
    section MSEs, converged)."""
    q = code.field.q
    L, E = code.L, code.n_edges
    edge_var = code.edge_var
    if E:
        edge_factor = (q / (q - 1.0)) ** (
            code.chk_degrees()[code.edge_chk] - 2.0)
        chk_pad, chk_mask = _pad_adjacency(chk_edges(code), E)
        edge_order = chk_pad[chk_mask]

    def inv_tau2(c2v_l2):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(psi.inverse(c2v_l2))

    def per_var_sum(inv_edge):
        out = np.zeros(L)
        np.add.at(out, edge_var, inv_edge)
        return out

    tau2 = sigma2 + L / n
    trace = [tau2]
    c2v_l2 = np.full(E, 1.0 / q)
    section_mse = np.full(L, 1.0 - 1.0 / q)
    for t in range(T):
        c2v_l2 = np.full(E, 1.0 / q)
        if E:
            for _ in range(schedule.rounds(t)):
                inv_edge = inv_tau2(c2v_l2)
                inv_sum = per_var_sum(inv_edge)
                tilde = 1.0 / (1.0 / tau2 + inv_sum[edge_var] - inv_edge)
                v2c_l2 = np.asarray(psi.value(tilde))
                centered = np.append(v2c_l2 - 1.0 / q, 1.0)
                prods = _reference_excl_prod(centered[chk_pad])
                excl = np.empty(E)
                excl[edge_order] = prods[chk_mask]
                c2v_l2 = np.clip(1.0 / q + edge_factor * excl, 1.0 / q, 1.0)
        inv_sum = per_var_sum(inv_tau2(c2v_l2))
        tau2_out = 1.0 / (1.0 / tau2 + inv_sum)
        section_mse = 1.0 - np.asarray(psi.value(tau2_out))
        tau2 = sigma2 + section_mse.sum() / n
        trace.append(tau2)
    return (np.asarray(trace), 1.0 - c2v_l2, section_mse,
            bool(trace[-1] - sigma2 < 1e-4 * sigma2))


def se_check_mse(in_l2, q):
    """Expected ||.||_2^2 and MSE of a check node's outgoing message.

    in_l2 lists E||mu||^2 of the incoming messages; the outgoing value is
    1/q + (q/(q-1))^(n-1) * prod(in - 1/q) with n inputs, and the MSE is
    its complement to one.
    """
    in_l2 = np.asarray(in_l2, dtype=np.float64)
    if in_l2.ndim != 1 or in_l2.size < 1:
        raise ValueError("need at least one incoming value")
    if np.any(in_l2 < 1.0 / q - 1e-12) or np.any(in_l2 > 1.0 + 1e-12):
        raise ValueError("incoming values must lie in [1/q, 1]")
    n = in_l2.size
    out = 1.0 / q + (q / (q - 1.0)) ** (n - 1) * np.prod(in_l2 - 1.0 / q)
    out = min(max(out, 1.0 / q), 1.0)
    return out, 1.0 - out


def se_variable_tau(tau2_amp, incoming_tau2s):
    """Effective noise variance at a variable node: harmonic combination
    of the AMP observation and the incoming messages' equivalents."""
    if tau2_amp <= 0:
        raise ValueError("tau2_amp must be positive")
    inv = 1.0 / tau2_amp
    for t2 in incoming_tau2s:
        if t2 <= 0:
            raise ValueError("incoming tau2 values must be positive")
        inv += 1.0 / t2
    return 1.0 / inv


def openblas_thread_getters():
    """The thread-count getter of each OpenBLAS loaded in this process."""
    if not os.path.exists("/proc/self/maps"):
        return []
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                 if "openblas" in line}
    getters = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                getters.append(getter)
                break
    return getters
