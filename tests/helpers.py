"""Shared independent oracles for the test suite, and one runner.

The oracles are deliberately implemented by direct enumeration or
finite differences, independent of the transform-domain code paths they
are used to verify.  check_round_message is not an oracle: it runs the
shipped BpDenoiser check round on a single check so that the oracles
can be compared with it message by message.
"""

import itertools

import numpy as np

from srldpc.denoiser import BpDenoiser, Schedule
from srldpc.ldpc import LdpcCode, syndrome_check


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
    return den.c2v[code.var_edges[d - 1][0]]


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
    den = BpDenoiser(code, Schedule(None, explicit=[rounds]))
    total = 0.0
    for i in range(r.size):
        rp = r.copy()
        rp[i] += h
        sp = den.denoise(rp, tau2, 0)[i]
        rm = r.copy()
        rm[i] -= h
        sm = den.denoise(rm, tau2, 0)[i]
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
