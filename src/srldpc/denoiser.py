"""Dynamic BP denoiser: belief propagation on the outer code's factor
graph, driven by the AMP effective observation.

Each section of the effective observation yields a local posterior
alpha_l over field elements.  The denoiser loads these into the factor
graph, runs a number of flooding BP rounds (all variable updates, then
all check updates), and emits the per-section posterior including the
local observation.  Check updates convolve messages over F_q in the
Walsh-Hadamard domain; edge labels are absorbed into the messages as
index permutations before convolving and reapplied afterwards.

One denoiser decodes K trials in lockstep.  Local posteriors are held
as (sections, trials, q) and messages in two padded (edges + 1, trials,
q) buffers, one per direction, whose rows 0..E-1 follow the code's edge
order, sorted by (check, slot).  Row E is neutral: all ones for c2v and
the point mass at 0 for v2c, whose Walsh-Hadamard transform is exactly
all ones.  Every round rewrites both buffers in place; the v2c and c2v
properties are views of them.  All stored messages are probability
vectors; entries are floored at 1e-30 after normalization so hard zeros
cannot annihilate later Hadamard products.

Each half-round is one gather in, a product, one gather out.  The
padded adjacency is stored slot-major as (slots, nodes), with padded
slots on row E, so a gather yields a contiguous (slots, nodes, trials,
q) stack and the exclusive product runs over whole (nodes, trials, q)
slices, one slot at a time.  The variable half gathers c2v, multiplies
in alpha and takes each edge's row into v2c.  The check half's one flat
take absorbs the labels into v2c and lays it out slot-major; both
Walsh-Hadamard transforms run on those slot-major rows, and one flat
take sends them back to edge order with the labels reapplied, into
c2v.  The two label maps depend on K and are rebuilt when it changes.
A transform is one product against H_q for q <= 16, and above that two
radix-16 stages, a product against H_16 and a stacked np.matmul with
H_{q/16}, which at q=256 take 2q(16 + q/16) flops per row instead of
2q^2.  Every entry goes through the same floating-point operations as
in a one-trial denoiser, so a trial's results do not depend on the
trials batched with it.  compact() drops finished trials from the batch.
"""

import math

import numpy as np

from .gf import fwht

MSG_FLOOR = 1e-30
RADIX = 16


def hadamard_matrix(q):
    """Dense Walsh-Hadamard matrix H[i, j] = (-1)^popcount(i & j).

    H @ H = q I gives the inverse transform.  The BP check round applies
    it through _Hadamard, as this one matrix only for q <= 16.
    """
    return fwht(np.eye(q))


class _Hadamard:
    """Walsh-Hadamard transform of the rows of (rows, q) arrays.

    For q <= RADIX it is one dense product against H_q.  Above that
    H_q = H_{q/RADIX} (x) H_RADIX, because the bits of i & j split into
    high and low halves: one product of the rows, seen as (rows *
    q/RADIX, RADIX), against H_RADIX transforms the low bits, then a
    stacked np.matmul applies H_{q/RADIX} to each row seen as a
    (q/RADIX, RADIX) matrix.  The first stage writes into a work buffer
    kept between calls, so that a round allocates no fresh array for it.
    """

    def __init__(self, q):
        if q <= RADIX:
            self.factors = (hadamard_matrix(q),)
        else:
            self.factors = (hadamard_matrix(q // RADIX),
                            hadamard_matrix(RADIX))
        self._work = np.empty(0)

    def __call__(self, x, out=None):
        """Transform of each row of a C-contiguous (rows, q) array x,
        written into out (C-contiguous) if given; without out the result
        may take x's memory, so callers pass a fresh array."""
        if len(self.factors) == 1:
            return np.matmul(x, self.factors[0], out=out)
        high, low = self.factors
        if self._work.size != x.size:
            self._work = np.empty(x.size)
        z = np.matmul(x.reshape(-1, RADIX), low,
                      out=self._work.reshape(-1, RADIX))
        out = x if out is None else out
        np.matmul(high, z.reshape(-1, len(high), RADIX),
                  out=out.reshape(-1, len(high), RADIX))
        return out


class Schedule:
    """Number of BP rounds N_t to run inside AMP iteration t.

    Kinds: "bp0" (no rounds), "bpn" (N_t = t + 1), or "bp1kg" (one round,
    graph messages retained across AMP iterations).
    """

    KINDS = ("bp0", "bpn", "bp1kg")

    def __init__(self, kind):
        kind = str(kind).lower().replace("-", "").replace("_", "")
        if kind not in self.KINDS:
            raise ValueError(f"unknown schedule {kind!r}")
        self.kind = kind

    @property
    def keep_graph(self):
        return self.kind == "bp1kg"

    def rounds(self, t):
        if self.kind == "bp0":
            return 0
        if self.kind == "bpn":
            return t + 1
        return 1

    def __repr__(self):
        return f"Schedule({self.kind!r})"


def local_posterior(r_section, tau2):
    """Per-section posterior over field elements given effective noise tau2.

    alpha(g) = exp(r(g)/tau2) / sum_h exp(r(h)/tau2), evaluated with max
    subtraction.  Accepts a single section or a stack of sections; tau2
    broadcasts against the stack.
    """
    if np.any(np.asarray(tau2) <= 0):
        raise ValueError("tau2 must be positive")
    r = np.atleast_2d(np.asarray(r_section, dtype=np.float64))
    z = (r - r.max(axis=-1, keepdims=True)) / tau2
    out, _ = _normalize_rows(np.exp(z))
    return out if np.ndim(r_section) > 1 else out[0]


def divergence_terms(s_hat):
    """(||s||_1, ||s||_2^2) of a state estimate, for the Onsager term;
    one pair of arrays over the rows of a (trials, qL) stack."""
    s_hat = np.asarray(s_hat)
    return s_hat.sum(axis=-1), np.square(s_hat).sum(axis=-1)


def _normalize_rows(mat):
    """Normalize the rows (last axis) of an array, in place, to
    probability vectors.

    Rows whose total is zero or not finite fall back to uniform; every
    entry is then floored at MSG_FLOOR and the rows renormalized.
    Returns (mat, fallback rows counted along axis 0): an int for a 2-D
    array, one count per trial for (nodes, trials, q).
    """
    totals = mat.sum(axis=-1, keepdims=True)
    bad = ~np.isfinite(totals[..., 0]) | (totals[..., 0] <= 0.0)
    n_bad = 0
    if bad.any():
        n_bad = bad.sum(axis=0)
        mat[bad] = 1.0 / mat.shape[-1]
        totals = mat.sum(axis=-1, keepdims=True)
    mat /= totals
    np.maximum(mat, MSG_FLOOR, out=mat)
    mat /= mat.sum(axis=-1, keepdims=True)
    return mat, n_bad


class BpDenoiser:
    """Stateful BP denoiser bound to one code and one schedule.

    Holds the per-edge message arrays between calls so the keep-graph
    schedule can retain them across AMP iterations.  The observation
    passed to init_alpha/denoise sets the batch: a flat (qL,) vector is
    one trial, and then alpha, v2c, c2v, estimate(), underflow_events
    and metadata() drop the trial axis; a (K, qL) stack with K values of
    tau2 is K trials, held as (nodes, K, q).  A new batch size starts
    fresh messages and counters.  One instance serves one decode (or
    batch) at a time; separate decodes need separate instances.
    """

    def __init__(self, code, schedule):
        self.code = code
        self.field = code.field
        self.schedule = schedule

        q = self.field.q
        self._hadamard = _Hadamard(q)

        # Slot-major padded gather maps (slots, nodes), padded with E, and
        # each edge's flat (slot, node) row in a gathered stack.
        self._var_pad, self._var_rows = _slot_major(code.edge_var, code.L)
        self._chk_pad, chk_rows = _slot_major(code.edge_chk, code.P)
        mul = self.field.mul_table
        # Flat label maps of one trial, built in place; _label_maps widens
        # them to K trials.  Padded slots keep the neutral row as it is.
        # absorbed[s * P + c, g] = v2c[e, g * inv(label_e)], e = chk_pad[s, c]
        labels = np.append(code.edge_label, 1)[self._chk_pad.ravel()]
        absorb = mul[self.field.inv(labels)]
        absorb += self._chk_pad.reshape(-1, 1) * q
        # c2v[e, g] = conv[chk_rows[e], g * label_e]
        relabel = mul[code.edge_label]
        relabel += chk_rows[:, None] * q
        self._maps1 = (absorb, relabel)

        self._alpha = None
        self._single = True
        self._resize(1)

    def _resize(self, trials):
        """Fresh messages and counters for a batch size."""
        E, q = self.code.n_edges, self.field.q
        self.trials = trials
        self._maps = None
        self._c2v_pad = np.empty((E + 1, trials, q))
        self._v2c_pad = np.empty((E + 1, trials, q))
        self._underflow = np.zeros(trials, dtype=np.int64)
        self._sub_girth = np.zeros(trials, dtype=np.int64)
        self.reset_messages()

    def compact(self, keep):
        """Keep only the trials at positions keep (ascending) of the batch,
        with their messages, local posteriors and counters."""
        self.trials = len(keep)
        self._maps = None
        self._c2v_pad = self._c2v_pad.take(keep, axis=1)
        self._v2c_pad = self._v2c_pad.take(keep, axis=1)
        self._underflow = self._underflow[keep]
        self._sub_girth = self._sub_girth[keep]
        if self._alpha is not None:
            self._alpha = self._alpha.take(keep, axis=1)

    def _label_maps(self):
        """(absorb, relabel) flat label maps for the current batch size,
        built by the first check round after it changes."""
        if self._maps is None:
            self._maps = tuple(_widen(flat, self.trials, self.field.q)
                               for flat in self._maps1)
        return self._maps

    def _view(self, a):
        """a with the trial axis (axis 1) dropped for a single trial."""
        return a[:, 0] if self._single and a is not None else a

    @property
    def alpha(self):
        return self._view(self._alpha)

    @alpha.setter
    def alpha(self, value):
        """Load local posteriors: (L, q) for one trial, (L, K, q) for K."""
        value = np.asarray(value, dtype=np.float64)
        single = value.ndim == 2
        self._load(value[:, None] if single else value, single)

    def _load(self, alpha, single):
        if alpha.shape[1] != self.trials:
            self._resize(alpha.shape[1])
        self._alpha = np.ascontiguousarray(alpha)
        self._single = single

    @property
    def v2c(self):
        return self._view(self._v2c_pad[: self.code.n_edges])

    @property
    def c2v(self):
        return self._view(self._c2v_pad[: self.code.n_edges])

    @property
    def underflow_events(self):
        return int(self._underflow[0]) if self._single else self._underflow

    def reset_messages(self):
        q = self.field.q
        E = self.code.n_edges
        self._v2c_pad[:E] = 1.0 / q
        self._v2c_pad[E] = 0.0
        self._v2c_pad[E, :, 0] = 1.0
        self._c2v_pad[:E] = 1.0 / q
        self._c2v_pad[E] = 1.0

    def init_alpha(self, r, tau2):
        """Compute and store the local posteriors from a flat observation
        (qL,) and its tau2, or from a (K, qL) stack and K values of tau2."""
        r = np.asarray(r, dtype=np.float64)
        post = local_posterior(r.reshape(-1, self.code.L, self.field.q),
                               np.reshape(tau2, (-1, 1, 1)))
        self._load(post.transpose(1, 0, 2), r.ndim == 1)

    def denoise(self, r, tau2, t):
        """One denoiser evaluation at AMP iteration t; returns the
        posterior in the shape of r: flat (qL,) or (K, qL)."""
        self.init_alpha(r, tau2)
        if not self.schedule.keep_graph:
            self.reset_messages()
        rounds = self.schedule.rounds(t)
        girth = self.code.girth
        if not math.isinf(girth) and rounds > girth // 2:
            self._sub_girth += 1
        for _ in range(rounds):
            self.bp_round()
        est = self._estimate()
        if self._single:
            return est.ravel()
        return est.transpose(1, 0, 2).reshape(self.trials, -1)

    def bp_round(self):
        """One flooding round: all variable updates, then all check updates."""
        self._variable_round()
        self._check_round()

    def _variable_round(self):
        v2c = self._v2c_pad[: self.code.n_edges]
        excl = _excl_prod(self._c2v_pad[self._var_pad])
        excl *= self._alpha
        np.take(excl.reshape(-1, self.trials, self.field.q), self._var_rows,
                axis=0, out=v2c, mode="clip")
        self._renorm(v2c)

    def _check_round(self):
        E, q = self.code.n_edges, self.field.q
        absorb, relabel = self._label_maps()
        # Chained, so that each slot-major temporary is freed as soon as
        # the next one exists: peak memory grows with the batch.
        conv = self._hadamard(_excl_prod(self._hadamard(
            self._v2c_pad.take(absorb).reshape(-1, q)).reshape(
                len(self._chk_pad), -1, q)).reshape(-1, q))
        c2v = np.take(conv, relabel, out=self._c2v_pad[:E], mode="clip")
        c2v *= 1.0 / q
        np.maximum(c2v, 0.0, out=c2v)
        self._renorm(c2v)

    def estimate(self):
        """Per-section posterior (L, q), or (L, K, q) for a batch,
        including the local observation."""
        return self._view(self._estimate())

    def _estimate(self):
        if self._alpha is None:
            raise RuntimeError("init_alpha must run before estimate")
        prod = self._c2v_pad[self._var_pad].prod(axis=0)
        return self._renorm(prod * self._alpha)

    def _renorm(self, mat):
        out, n_bad = _normalize_rows(mat)
        self._underflow += n_bad
        return out

    def metadata(self):
        """Counters of the trial, or a list with one dict per trial."""
        per_trial = [
            {"underflow_events": int(u), "sub_girth_violations": int(s)}
            for u, s in zip(self._underflow, self._sub_girth)
        ]
        return per_trial[0] if self._single else per_trial


def _slot_major(node_of_edge, n_nodes):
    """Padded (slots, nodes) edge ids for slot-major gathers, pads holding
    the dummy id E = len(node_of_edge), and each edge's flat row
    slot * n_nodes + node in a gathered (slots * n_nodes, ...) stack.

    An edge's slot is its rank among its node's edges by id.
    """
    E = len(node_of_edge)
    deg = np.bincount(node_of_edge, minlength=n_nodes)
    slot = np.empty(E, dtype=np.intp)
    slot[np.argsort(node_of_edge, kind="stable")] = (
        np.arange(E) - np.repeat(np.cumsum(deg) - deg, deg))
    pad = np.full((max(deg.max(initial=0), 1), n_nodes), E, dtype=np.intp)
    pad[slot, node_of_edge] = np.arange(E)
    return pad, slot * n_nodes + node_of_edge


def _widen(flat, trials, q):
    """Flat indices into a (rows, trials, q) array from the flat indices
    row * q + g of one trial: row r moves to r * trials * q and trial k
    adds k * q."""
    if trials == 1:
        return flat[:, None, :]
    shift = flat[:, :1] // q * ((trials - 1) * q)
    return (flat + shift)[:, None, :] + (np.arange(trials) * q)[:, None]


def _excl_prod(a):
    """Per-slot products along axis 0 excluding the slot itself; a is
    overwritten (callers pass a fresh gather).

    Prefix products run left to right into the output, and suffix
    products right to left in place in a, so that a[k] becomes the
    product of slots k and later: the association np.cumprod uses.  One
    product then joins them.  A loop over contiguous per-slot (nodes,
    trials, q) slices beats a cumprod that strides across slots.  State
    evolution's scalar products do not come here: _SeGraph runs them on
    its own ragged slot-major layout.
    """
    out = np.empty_like(a)
    out[0] = 1.0
    for k in range(1, len(a)):
        np.multiply(out[k - 1], a[k - 1], out=out[k])
    for k in range(len(a) - 2, 0, -1):
        a[k] *= a[k + 1]
    out[:-1] *= a[1:]
    return out
