"""Dynamic BP denoiser: belief propagation on the outer code's factor
graph, driven by the AMP effective observation.

Each section of the effective observation yields a local posterior
alpha_l over field elements.  The denoiser loads these into the factor
graph, runs a number of flooding BP rounds (all variable updates, then
all check updates), and emits the per-section posterior including the
local observation.  Check updates convolve messages over F_q in the
Walsh-Hadamard domain; edge labels are absorbed into the messages as
index permutations before convolving and reapplied afterwards.

Message arrays are laid out per edge, sorted by (check, slot), matching
the edge order of the code object.  All stored messages are probability
vectors; entries are floored at 1e-30 after normalization so hard zeros
cannot annihilate later Hadamard products.

Each round gathers messages slot-major: the padded adjacency is stored
as (slots, nodes), so a gather yields a contiguous (slots, nodes, q)
stack and the exclusive product runs over whole (nodes, q) slices, one
slot at a time.  Padded slots point at a neutral all-ones row.  Label
permutations are flat integer gathers: one map absorbs the labels into
v2c, and one map sends the check outputs back to edge order and
reapplies the labels.
"""

import math

import numpy as np

from .gf import fwht

MSG_FLOOR = 1e-30


def hadamard_matrix(q):
    """Dense Walsh-Hadamard matrix H[i, j] = (-1)^popcount(i & j).

    For q <= 256 a single matrix product against H is faster than the
    butterfly, and H @ H = q I gives the inverse transform.
    """
    return fwht(np.eye(q))


class Schedule:
    """Number of BP rounds N_t to run inside AMP iteration t.

    Kinds: "bp0" (no rounds), "bpn" (N_t = t + 1), "bp1kg" (one round,
    graph messages retained across AMP iterations), or an explicit list
    of round counts.
    """

    KINDS = ("bp0", "bpn", "bp1kg")

    def __init__(self, kind, explicit=None):
        if explicit is not None:
            self.kind = "explicit"
            self.explicit = [int(x) for x in explicit]
            if any(x < 0 for x in self.explicit):
                raise ValueError("round counts must be nonnegative")
        else:
            kind = str(kind).lower().replace("-", "").replace("_", "")
            if kind not in self.KINDS:
                raise ValueError(f"unknown schedule {kind!r}")
            self.kind = kind
            self.explicit = None

    @property
    def keep_graph(self):
        return self.kind == "bp1kg"

    def rounds(self, t):
        if self.kind == "bp0":
            return 0
        if self.kind == "bpn":
            return t + 1
        if self.kind == "bp1kg":
            return 1
        return self.explicit[t] if t < len(self.explicit) else self.explicit[-1]

    def __repr__(self):
        if self.kind == "explicit":
            return f"Schedule(explicit={self.explicit})"
        return f"Schedule({self.kind!r})"


def local_posterior(r_section, tau2):
    """Per-section posterior over field elements given effective noise tau2.

    alpha(g) = exp(r(g)/tau2) / sum_h exp(r(h)/tau2), evaluated with max
    subtraction.  Accepts a single section or a stack of sections.
    """
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    r = np.atleast_2d(np.asarray(r_section, dtype=np.float64))
    z = (r - r.max(axis=-1, keepdims=True)) / tau2
    out, _ = _normalize_rows(np.exp(z))
    return out if np.ndim(r_section) > 1 else out[0]


def divergence_terms(s_hat):
    """(||s||_1, ||s||_2^2) of a state estimate, for the Onsager term."""
    s_hat = np.asarray(s_hat)
    return float(s_hat.sum()), float(np.square(s_hat).sum())


def _normalize_rows(mat):
    """Normalize the rows of a 2-D array to probability vectors.

    Rows whose total is zero or not finite fall back to uniform; every
    entry is then floored at MSG_FLOOR and the rows renormalized.
    Returns (normalized copy, number of rows that fell back).
    """
    totals = mat.sum(axis=-1, keepdims=True)
    bad = ~np.isfinite(totals[:, 0]) | (totals[:, 0] <= 0.0)
    n_bad = int(bad.sum())
    if n_bad:
        mat = mat.copy()
        mat[bad] = 1.0 / mat.shape[-1]
        totals = mat.sum(axis=-1, keepdims=True)
    mat = mat / totals
    np.maximum(mat, MSG_FLOOR, out=mat)
    mat /= mat.sum(axis=-1, keepdims=True)
    return mat, n_bad


class BpDenoiser:
    """Stateful BP denoiser bound to one code and one schedule.

    Holds the per-edge message arrays between calls so the keep-graph
    schedule can retain them across AMP iterations.  One instance serves
    one decode at a time; separate decodes need separate instances.
    """

    def __init__(self, code, schedule):
        self.code = code
        self.field = code.field
        self.schedule = schedule

        q = self.field.q
        E = code.n_edges
        self._H = hadamard_matrix(q)

        # Slot-major padded gather maps (slots, nodes); the dummy edge id
        # E points at a neutral row (uniform message, all-ones spectrum).
        # A gather through them yields a (slots, nodes, q) stack whose
        # flat row of each edge is recorded once here.
        self._var_pad, rows, ids = _slot_major(code.var_edges, E)
        self._var_sel = np.empty(E, dtype=np.intp)
        self._var_sel[ids] = rows
        # check rows stay in (check, slot) order for the inverse transform
        self._chk_pad, self._chk_sel, ids = _slot_major(code.chk_edges, E)
        unorder = np.empty(E, dtype=np.intp)
        unorder[ids] = np.arange(E)
        mul = self.field.mul_table
        labels = code.edge_label
        # absorbed[e, g] = v2c[e, g * inv(label_e)], as a flat index
        self._absorb = (np.arange(E)[:, None] * q
                        + mul[:, self.field.inv(labels)].T)
        # c2v[e, g] = conv[unorder[e], g * label_e], as a flat index
        self._relabel = unorder[:, None] * q + mul[:, labels].T

        # c2v rows live inside a padded buffer whose last row is the
        # neutral all-ones row, so gathers need no stacking per round.
        self._c2v_pad = np.empty((E + 1, q))
        self._spectra_pad = np.empty((E + 1, q))
        self._spectra_pad[E] = 1.0

        self.alpha = None
        self.underflow_events = 0
        self.sub_girth_violations = 0
        self.reset_messages()

    @property
    def c2v(self):
        return self._c2v_pad[: self.code.n_edges]

    def reset_messages(self):
        q = self.field.q
        E = self.code.n_edges
        self.v2c = np.full((E, q), 1.0 / q)
        self._c2v_pad[:E] = 1.0 / q
        self._c2v_pad[E] = 1.0

    def init_alpha(self, r, tau2):
        """Compute and store the local posteriors from a flat observation."""
        self.alpha = local_posterior(
            np.asarray(r, dtype=np.float64).reshape(self.code.L, self.field.q),
            tau2,
        )

    def denoise(self, r, tau2, t):
        """One denoiser evaluation at AMP iteration t; returns flat (qL,)."""
        self.init_alpha(r, tau2)
        if not self.schedule.keep_graph:
            self.reset_messages()
        rounds = self.schedule.rounds(t)
        girth = self.code.girth
        if not math.isinf(girth) and rounds > girth // 2:
            self.sub_girth_violations += 1
        for _ in range(rounds):
            self.bp_round()
        return self.estimate().ravel()

    def bp_round(self):
        """One flooding round: all variable updates, then all check updates."""
        self._variable_round()
        self._check_round()

    def _variable_round(self):
        if self.code.n_edges == 0:
            return
        excl = _excl_prod(self._c2v_pad[self._var_pad])
        excl *= self.alpha
        msgs = excl.reshape(-1, self.field.q)[self._var_sel]
        self.v2c = self._renorm(msgs)

    def _check_round(self):
        E = self.code.n_edges
        if E == 0:
            return
        q = self.field.q
        np.matmul(self.v2c.take(self._absorb), self._H,
                  out=self._spectra_pad[:E])
        excl = _excl_prod(self._spectra_pad[self._chk_pad])
        conv = excl.reshape(-1, q)[self._chk_sel] @ self._H
        conv *= 1.0 / q
        np.maximum(conv, 0.0, out=conv)
        self._c2v_pad[:E] = self._renorm(conv.take(self._relabel))

    def estimate(self):
        """Per-section posterior (L, q) including the local observation."""
        if self.alpha is None:
            raise RuntimeError("init_alpha must run before estimate")
        if self.code.n_edges == 0:
            prod = np.ones_like(self.alpha)
        else:
            prod = self._c2v_pad[self._var_pad].prod(axis=0)
        return self._renorm(prod * self.alpha)

    def _renorm(self, mat):
        out, n_bad = _normalize_rows(mat)
        self.underflow_events += n_bad
        return out

    def metadata(self):
        return {
            "underflow_events": self.underflow_events,
            "sub_girth_violations": self.sub_girth_violations,
        }


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


def _slot_major(edge_lists, dummy):
    """Padded (slots, nodes) edge-id matrix for slot-major gathers.

    Also returns, for each real entry in (node, slot) order, its flat row
    s * nodes + i in a gathered (slots * nodes, q) stack and its edge id.
    """
    pad, mask = _pad_adjacency(edge_lists, dummy)
    node, slot = np.nonzero(mask)
    rows = slot * len(edge_lists) + node
    return np.ascontiguousarray(pad.T), rows, pad[mask]


def _excl_prod(a):
    """Per-slot products along axis 0 excluding the slot itself.

    Prefix products run left to right and suffix products right to left,
    the association np.cumprod uses.  A loop over contiguous (nodes, q)
    slices beats a cumprod that strides across slots; state evolution's
    scalar (checks, slots) products keep the cumprod, which is contiguous
    there.
    """
    out = np.empty_like(a)
    out[0] = 1.0
    for k in range(1, len(a)):
        np.multiply(out[k - 1], a[k - 1], out=out[k])
    if len(a) > 1:
        suf = a[-1].copy()
        out[-2] *= suf
        for k in range(len(a) - 3, -1, -1):
            suf *= a[k + 1]
            out[k] *= suf
    return out
