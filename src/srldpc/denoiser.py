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
in alpha and takes each edge's row into v2c.  From reset messages
(denoise without keep-graph) every exclusive product of a degree-d
variable is exactly 2^(-m(d-1)), so the first variable half normalizes
alpha times that once per variable and takes it into edge order
instead.  The check half's one flat take absorbs the labels into v2c
and lays it out slot-major; both Walsh-Hadamard transforms run on those
slot-major rows, and one flat take sends them back to edge order with
the labels reapplied, into c2v, which the normalization divides by the
q the inverse transform leaves in.  The denoiser owns one pair of flat
work arrays per batch size, made with the messages by the first load
at that size and each sized for either half's gather, and lends it to
every round and estimate: a gather fills one array, the exclusive
product fills the other, and the transforms return their result in
whichever of the two they were given, so no call allocates a fresh
(edges, trials, q) array.  A transform is one product against
H_q for q <= 16, and above that two radix-16 stages, stacked np.matmul
products of each row seen as a (q/16, 16) matrix with H_16 on the right
and H_{q/16} on the left, which at q=256 take 2q(16 + q/16) flops per
row instead of 2q^2.  Every entry goes through the same floating-point
operations as in a one-trial denoiser, so a trial's results do not
depend on the trials batched with it.  compact() drops finished trials
from the batch.

A flooding half-round updates each node independently of the others,
and numpy releases the GIL in every operation a round makes, so a
large half-round runs as parts over contiguous node ranges on the
process's CPUs.  The variable half runs each variable range's gather,
exclusive product and alpha product, then, after a join, takes each
contiguous range of v2c rows out and renormalizes it.  Each check range
runs the whole check half: edges are sorted by check, so it writes a
contiguous run of c2v rows.  The estimate splits by variable ranges the
same way.  A gathered stack is laid out part-major: the block of the
nodes lo..hi-1 holds their rows slot-major and starts at row slots *
lo, so the parts tile the work pair and one set of maps serves every
part count; with one part it is the slot-major layout above.  The
maps depend on K and the part count and are rebuilt when either
changes.  part_count gives one part per CPU in the affinity mask, with
at least MIN_PART message entries each; the first part runs on the
calling thread and the others on helper threads that the half-round
starts and joins, with OpenBLAS on one thread meanwhile, and the
calling thread sums the parts' underflow counts.  A forked decode
worker runs one part (run_one_part).  Each part puts whole rows
through the operations one part would, so results do not depend on
the part count.
"""

import math
import os
import threading

import numpy as np

from . import blas
from .gf import fwht

MSG_FLOOR = 1e-30
RADIX = 16
# Fewest message entries (edges * trials * q) a part of a half-round
# updates.  On two CPUs two parts broke even at about 150,000 entries (a
# q=256 code with 600 edges, K=1) and below that the threads and the
# repeated numpy calls cost more than the second CPU saves, so a
# half-round splits from 200,000 entries on (see part_count).
MIN_PART = 100_000

_one_part = False   # set in forked decode workers by run_one_part()


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
    high and low halves: with each row seen as a (q/RADIX, RADIX)
    matrix, one stacked np.matmul multiplies it by H_RADIX on the right,
    which transforms the low bits, and a second one by H_{q/RADIX} on
    the left.  The transform keeps no state: the caller passes a work
    array of the input's shape, and neither stage allocates.
    """

    def __init__(self, q):
        if q <= RADIX:
            self.factors = (hadamard_matrix(q),)
        else:
            self.factors = (hadamard_matrix(q // RADIX),
                            hadamard_matrix(RADIX))

    def __call__(self, x, work):
        """Transform of each row of a C-contiguous (rows, q) array x, with
        work a C-contiguous array of the same shape.  Returns whichever
        of x and work holds the result; the other one is then free, and
        its contents are undefined."""
        if len(self.factors) == 1:
            return np.matmul(x, self.factors[0], out=work)
        high, low = self.factors
        stack = (-1, len(high), RADIX)
        np.matmul(x.reshape(stack), low, out=work.reshape(stack))
        np.matmul(high, work.reshape(stack), out=x.reshape(stack))
        return x


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
    z = r - r.max(axis=-1, keepdims=True)
    z /= tau2
    out, _ = _normalize_rows(np.exp(z, out=z))
    return out if np.ndim(r_section) > 1 else out[0]


def divergence_terms(s_hat):
    """(||s||_1, ||s||_2^2) of a state estimate, for the Onsager term;
    one pair of arrays over the rows of a (trials, qL) stack."""
    s_hat = np.asarray(s_hat)
    return s_hat.sum(axis=-1), np.square(s_hat).sum(axis=-1)


def _normalize_rows(mat, weights=None):
    """Normalize the rows (last axis) of an array, in place, to
    probability vectors.

    Rows whose total is zero or not finite fall back to uniform; every
    entry is then floored at MSG_FLOOR and the rows renormalized.
    Returns (mat, fallback rows counted along axis 0): an int for a 2-D
    array, one count per trial for (nodes, trials, q).  With weights,
    an integer array over axis 0, the fallbacks at i count weights[i]
    times.
    """
    totals = mat.sum(axis=-1, keepdims=True)
    bad = ~np.isfinite(totals[..., 0]) | (totals[..., 0] <= 0.0)
    n_bad = 0
    if bad.any():
        n_bad = bad.sum(axis=0) if weights is None else weights @ bad
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
    fresh messages and counters; the messages, reset, and the work pair
    are made by the first load at a size, and v2c and c2v are None
    before it.  One instance serves one decode (or batch) at a time;
    separate decodes need separate instances.
    """

    def __init__(self, code, schedule):
        self.code = code
        self.field = code.field
        self.schedule = schedule
        self._hadamard = _Hadamard(self.field.q)
        # Slot-major padded adjacency (slots, nodes), padded with E.
        self._var_pad = _slot_major(code.edge_var, code.L)
        self._chk_pad = _slot_major(code.edge_chk, code.P)
        # Edges are sorted by check: check c owns edges
        # chk_start[c]..chk_start[c + 1] - 1.
        self._chk_start = np.searchsorted(code.edge_chk,
                                          np.arange(code.P + 1))
        # Reset c2v rows are 1/q = 2^-m, and products of powers of two
        # are exact, so each exclusive product over a degree-d variable's
        # reset rows is exactly 2^(-m(d - 1)).
        self._var_deg = np.bincount(code.edge_var, minlength=code.L)
        self._reset_prod = np.ldexp(
            1.0, -self.field.m * (self._var_deg - 1))[:, None, None]
        self._alpha = None
        self._single = True
        self._resize(1)

    def _resize(self, trials):
        """Fresh counters for a batch size.  Its messages and work pair
        are made by the first load at that size (_make_messages), so a
        denoiser holds no (edges, trials, q) array before it is used,
        and can reuse the memory of one dropped since it was built."""
        self.trials = trials
        self._plan = None
        self._c2v_pad = self._v2c_pad = self._work = None
        self._underflow = np.zeros(trials, dtype=np.int64)
        self._sub_girth = np.zeros(trials, dtype=np.int64)

    def _make_messages(self):
        """Reset messages and the work pair at the current batch size:
        two flat work arrays, each large enough for a slot-major gather
        of either half-round at it or a smaller one, so compact() keeps
        them."""
        E, q, K = self.code.n_edges, self.field.q, self.trials
        self._c2v_pad = np.empty((E + 1, K, q))
        self._v2c_pad = np.empty((E + 1, K, q))
        size = max(self._var_pad.size, self._chk_pad.size) * K * q
        self._work = np.empty(size), np.empty(size)
        self.reset_messages()

    def compact(self, keep):
        """Keep only the trials at positions keep (ascending) of the batch,
        with their messages, local posteriors and counters; the work pair
        stays."""
        self.trials = len(keep)
        self._plan = None
        self._c2v_pad = self._c2v_pad.take(keep, axis=1)
        self._v2c_pad = self._v2c_pad.take(keep, axis=1)
        self._underflow = self._underflow[keep]
        self._sub_girth = self._sub_girth[keep]
        if self._alpha is not None:
            self._alpha = self._alpha.take(keep, axis=1)

    def _layout(self):
        """The _Plan of the current batch size, built by the first round
        or estimate after it changes."""
        if self._plan is None:
            self._plan = _Plan(self)
        return self._plan

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
        if self._v2c_pad is None:
            self._make_messages()
        self._alpha = np.ascontiguousarray(alpha)
        self._single = single

    @property
    def v2c(self):
        return self._edge_rows(self._v2c_pad)

    @property
    def c2v(self):
        return self._edge_rows(self._c2v_pad)

    def _edge_rows(self, pad):
        """The edges' rows of a message buffer, as _view gives them; None
        before the first load."""
        return None if pad is None else self._view(pad[: self.code.n_edges])

    @property
    def underflow_events(self):
        return int(self._underflow[0]) if self._single else self._underflow

    def reset_messages(self):
        if self._v2c_pad is None:   # the first load makes them reset
            return
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
        posterior in the shape of r: flat (qL,) or (K, qL).

        Without keep-graph the messages restart from reset: the first
        round's variable half then needs alpha alone, and its check half
        rewrites every c2v row, so c2v is refilled uniform only when no
        round runs, and v2c keeps the last round's messages until one
        does."""
        self.init_alpha(r, tau2)
        rounds = self.schedule.rounds(t)
        girth = self.code.girth
        if not math.isinf(girth) and rounds > girth // 2:
            self._sub_girth += 1
        if not self.schedule.keep_graph:
            if rounds:
                self._variable_round_from_reset()
                self._check_round()
                rounds -= 1
            else:
                self._c2v_pad[: self.code.n_edges] = 1.0 / self.field.q
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

    def _rows(self, buf, lo, hi):
        """Rows lo..hi-1 of a flat work array seen as (rows, trials, q)."""
        shape = (hi - lo, self.trials, self.field.q)
        row = shape[1] * shape[2]
        return buf[lo * row: hi * row].reshape(shape)

    def _gather_c2v(self, buf, lo, hi):
        """c2v of variables lo..hi-1 gathered slot-major into their block
        of buf, as (slots, hi - lo, trials, q)."""
        n = len(self._var_pad)
        out = self._rows(buf, n * lo, n * hi)
        np.take(self._c2v_pad, self._layout().var_gather[n * lo: n * hi],
                axis=0, mode="clip", out=out)
        return out.reshape(n, hi - lo, *out.shape[1:])

    def _variable_round(self):
        plan = self._layout()
        buf, other = self._work

        def product(lo, hi):
            gathered = self._gather_c2v(buf, lo, hi)
            n = len(gathered)
            excl = _excl_prod(gathered, self._rows(other, n * lo, n * hi)
                              .reshape(gathered.shape))
            excl *= self._alpha[lo:hi]

        _in_parts(product, plan.var_ranges)
        stack = self._rows(other, 0, self._var_pad.size)

        def take(lo, hi):
            v2c = self._v2c_pad[lo:hi]
            np.take(stack, plan.var_rows[lo:hi], axis=0, out=v2c,
                    mode="clip")
            return _normalize_rows(v2c)[1]

        self._count(_in_parts(take, plan.edge_ranges))

    def _variable_round_from_reset(self):
        """The variable half when every c2v row holds its reset value:
        each variable's v2c rows all equal its alpha times the reset
        product, normalized, so that is computed once per variable,
        its fallbacks counted once per edge, and taken into edge order."""
        plan = self._layout()
        start = self._rows(self._work[0], 0, self.code.L)

        def product(lo, hi):
            rows = np.multiply(self._alpha[lo:hi], self._reset_prod[lo:hi],
                               out=start[lo:hi])
            return _normalize_rows(rows, self._var_deg[lo:hi])[1]

        self._count(_in_parts(product, plan.var_ranges))

        def take(lo, hi):
            np.take(start, self.code.edge_var[lo:hi], axis=0,
                    out=self._v2c_pad[lo:hi], mode="clip")

        _in_parts(take, plan.edge_ranges)

    def _check_round(self):
        plan = self._layout()
        buf, other = self._work
        q = self.field.q
        n = len(self._chk_pad)

        def check(lo, hi):
            x = self._v2c_pad.take(plan.absorb[n * lo: n * hi], mode="clip",
                                   out=self._rows(buf, n * lo, n * hi))
            x = x.reshape(-1, q)
            y = self._rows(other, n * lo, n * hi).reshape(-1, q)
            spectra = self._hadamard(x, y)
            free = y if spectra is x else x
            _excl_prod(spectra.reshape(n, -1, q), free.reshape(n, -1, q))
            conv = self._hadamard(free, spectra)
            first, end = self._chk_start[lo], self._chk_start[hi]
            # The inverse transform leaves q times the convolution.  The
            # normalization divides that power of two out exactly: only
            # entries a 1/q pass would make subnormal could round, and
            # those are floored at MSG_FLOOR either way.
            c2v = np.take(conv, plan.relabel[first:end], mode="clip",
                          out=self._c2v_pad[first:end])
            np.maximum(c2v, 0.0, out=c2v)
            return _normalize_rows(c2v)[1]

        self._count(_in_parts(check, plan.chk_ranges))

    def estimate(self):
        """Per-section posterior (L, q), or (L, K, q) for a batch,
        including the local observation."""
        return self._view(self._estimate())

    def _estimate(self):
        if self._alpha is None:
            raise RuntimeError("init_alpha must run before estimate")
        plan = self._layout()
        buf = self._work[0]
        est = np.empty(self._alpha.shape)

        def product(lo, hi):
            post = np.prod(self._gather_c2v(buf, lo, hi), axis=0,
                           out=est[lo:hi])
            post *= self._alpha[lo:hi]
            return _normalize_rows(post)[1]

        self._count(_in_parts(product, plan.var_ranges))
        return est

    def _count(self, fallbacks):
        """Add the parts' counts of rows that fell back to uniform."""
        for n_bad in fallbacks:
            self._underflow += n_bad

    def metadata(self):
        """Counters of the trial, or a list with one dict per trial."""
        per_trial = [
            {"underflow_events": int(u), "sub_girth_violations": int(s)}
            for u, s in zip(self._underflow, self._sub_girth)
        ]
        return per_trial[0] if self._single else per_trial


class _Plan:
    """How a denoiser splits its half-rounds at one batch size K: the
    node ranges (var_ranges, chk_ranges) and v2c row ranges
    (edge_ranges) of its parts, at most one per node or row, and the
    part-major maps.  var_gather holds the c2v rows the variable gather
    takes, var_rows each edge's row in the gathered variable stack,
    absorb the flat v2c entries the check gather takes, with the labels
    absorbed, and relabel each c2v entry's flat position in its part's
    block, with the labels reapplied."""

    def __init__(self, den):
        code, field = den.code, den.field
        E, q, K = code.n_edges, field.q, den.trials
        self.parts = part_count(E * K * q)
        self.var_ranges = _ranges(code.L, self.parts)
        self.chk_ranges = _ranges(code.P, self.parts)
        self.edge_ranges = _ranges(E, self.parts)
        self.var_gather, self.var_rows = _part_major(
            den._var_pad, self.var_ranges, E)
        chk_gather, chk_rows = _part_major(den._chk_pad, self.chk_ranges, E)
        # absorbed[i, g] = v2c[e, g * inv(label_e)], e = chk_gather[i];
        # padded slots keep the neutral row as it is
        labels = np.append(code.edge_label, 1)[chk_gather]
        absorb = field.mul_table[field.inv(labels)]
        absorb += chk_gather[:, None] * q
        # c2v[e, g] = conv[row of e in its part's block, g * label_e]
        n = len(den._chk_pad)
        for lo, hi in self.chk_ranges:
            edges = slice(den._chk_start[lo], den._chk_start[hi])
            chk_rows[edges] -= n * lo
        relabel = field.mul_table[code.edge_label]
        relabel += chk_rows[:, None] * q
        self.absorb = _widen(absorb, K, q)
        self.relabel = _widen(relabel, K, q)


def part_count(entries):
    """Parts for a half-round that updates `entries` message entries
    (edges * trials * q): one per CPU in this process's affinity mask,
    with no part below MIN_PART entries; one after run_one_part(), and
    where the platform has no affinity mask (macOS, Windows)."""
    if _one_part or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), entries // MIN_PART))


def run_one_part():
    """Run every later half-round of this process as one part on the
    calling thread.  A forked decode worker has a CPU to itself, and
    helper threads of its own would contend with the other workers."""
    global _one_part
    _one_part = True


def _ranges(n, parts):
    """Up to `parts` contiguous ranges (lo, hi) of near-equal length that
    tile 0..n-1, none empty; one empty range for n = 0."""
    k = max(1, min(parts, n))
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _in_parts(part, ranges):
    """[part(lo, hi) for (lo, hi) in ranges]: the first range on the
    calling thread, each other one on a helper thread, all of them
    joined before this returns, with OpenBLAS on one thread meanwhile.
    An exception raised in a part is raised here with its type."""
    if len(ranges) == 1:
        return [part(*ranges[0])]
    results, errors = [None] * len(ranges), []

    def run(i):
        try:
            results[i] = part(*ranges[i])
        except BaseException as exc:   # raised again below, after the join
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(i,))
               for i in range(1, len(ranges))]
    with blas.one_thread():
        try:
            for helper in helpers:
                helper.start()
            run(0)
        finally:
            for helper in helpers:
                if helper.ident is not None:
                    helper.join()
    if errors:
        raise errors[0]
    return results


def _slot_major(node_of_edge, n_nodes):
    """Padded (slots, nodes) edge ids for slot-major gathers, pads holding
    the dummy id E = len(node_of_edge).  An edge's slot is its rank
    among its node's edges by id."""
    E = len(node_of_edge)
    deg = np.bincount(node_of_edge, minlength=n_nodes)
    slot = np.empty(E, dtype=np.intp)
    slot[np.argsort(node_of_edge, kind="stable")] = (
        np.arange(E) - np.repeat(np.cumsum(deg) - deg, deg))
    pad = np.full((max(deg.max(initial=0), 1), n_nodes), E, dtype=np.intp)
    pad[slot, node_of_edge] = np.arange(E)
    return pad


def _part_major(pad, ranges, n_edges):
    """The entries of a padded (slots, nodes) adjacency in part-major
    order, for each node range in turn its columns slot by slot, and
    each edge's position in that order; pads hold n_edges."""
    order = np.concatenate([pad[:, lo:hi].ravel() for lo, hi in ranges])
    rows = np.empty(n_edges, dtype=np.intp)
    real = order < n_edges
    rows[order[real]] = np.flatnonzero(real)
    return order, rows


def _widen(flat, trials, q):
    """Flat indices into a (rows, trials, q) array from the flat indices
    row * q + g of one trial: row r moves to r * trials * q and trial k
    adds k * q."""
    if trials == 1:
        return flat[:, None, :]
    shift = flat[:, :1] // q * ((trials - 1) * q)
    return (flat + shift)[:, None, :] + (np.arange(trials) * q)[:, None]


def _excl_prod(a, out):
    """Per-slot products along axis 0 excluding the slot itself, written
    into out (an array of a's shape, which it returns); a is overwritten.

    Prefix products run left to right into the output, and suffix
    products right to left in place in a, so that a[k] becomes the
    product of slots k and later: the association np.cumprod uses.  One
    product then joins them.  No factor of 1.0 is multiplied in: slot 0
    takes the suffix a[1] * a[2] and slot 1 the product a[0] * a[2].  A
    loop over contiguous per-slot (nodes, trials, q) slices beats a
    cumprod that strides across slots.  State evolution's scalar
    products do not come here: _SeGraph runs them on its own ragged
    slot-major layout.
    """
    n = len(a)
    if n == 1:
        out[0] = 1.0
    elif n == 2:
        out[0], out[1] = a[1], a[0]
    else:
        np.multiply(a[0], a[1], out=out[2])
        for k in range(3, n):
            np.multiply(out[k - 1], a[k - 1], out=out[k])
        for k in range(n - 2, 1, -1):
            a[k] *= a[k + 1]
        np.multiply(a[1], a[2], out=out[0])
        np.multiply(a[0], a[2], out=out[1])
        out[2:-1] *= a[3:]
    return out
