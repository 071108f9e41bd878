"""Low-dimensional state-evolution recursion for the AMP-BP decoder.

Instead of tracking qL-dimensional messages, the recursion tracks one
scalar per edge: the expected belief mass on the true symbol, E||mu||^2.
Check nodes update that scalar exactly through the closed-form product
rule; variable nodes convert incoming scalars to equivalent Gaussian
noise variances through the bijection Psi (mean true-symbol belief as a
function of effective noise variance tau^2), combine them harmonically,
and map back.  The per-iteration output MSE then advances tau^2 via
tau_{t+1}^2 = sigma^2 + (1/n) sum_l MSE_l.

approximate_se_batch runs the recursion for several codes at once, in
lockstep on the disjoint union of their graphs, so that a rate sweep
pays the per-call numpy overhead of each round once instead of once per
candidate; approximate_se is a batch of one.  The check round takes its
exclusive products over a ragged slot-major layout of the checks sorted
by degree (no padding to the widest check), and each code's tau^2
update sums only its own sections, so every product and sum keeps the
association it has for one code alone and each trajectory is bitwise
the one the code gets alone.

Each modeled AMP iteration runs its BP rounds from uninformative
messages.  Those rounds depend only on tau^2 and their count, so when
an iteration's tau^2 equals the previous one's bit for bit (as it does
once the recursion has settled) and it runs at least as many rounds,
its first rounds would repeat the previous iteration's exactly; the
recursion keeps the previous messages and runs only the extra rounds,
and every trace stays bitwise the one a reset gives.

Psi has no closed form; it is estimated by Monte-Carlo on a log-spaced
tau^2 grid, and the table keeps the running minimum of the estimates so
that it is non-increasing whatever the sampling noise.  Each grid point
draws its normals on a helper thread, one block of rows while the
calling thread transforms the block before it, so drawing and
transforming overlap on two CPUs; the blocks, drawn in order and summed
once per chunk, give the table of a single-thread loop bit for bit, and
the helper is joined before the point's estimate is returned.  The
library depends on numpy alone.
"""

import functools
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .codec import rng_stream, snr_to_sigma2
from .ldpc import build_code

PSI_GRID = (1e-4, 1e3, 64)
PSI_SAMPLES = 200_000
# Widest run of checks whose SE check-round products are one cumprod
# along the slots rather than a Python loop of per-slot products.
PRODUCT_BLOCK_WIDTH = 64


class PsiTable:
    """Interpolated map tau^2 -> E[alpha(0)] and its inverse.

    Values do not increase from ~1 (noiseless) to ~1/q (uninformative).
    The inverse interpolates the same points with the axes swapped; a
    belief between two values is bracketed by the segment where value()
    crosses it, also next to a run of equal values, so value(inverse(b))
    is b.  The inverse returns inf for beliefs at or below the table
    floor, so an exactly-uniform message contributes nothing to the
    harmonic combination at a variable node.
    """

    def __init__(self, q, tau2_grid, values):
        self.q = q
        self.tau2_grid = np.asarray(tau2_grid, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self._logt = np.log(self.tau2_grid)
        self._inv_beliefs = self.values[::-1]
        self._inv_logt = self._logt[::-1]

    def value(self, tau2):
        """E[alpha(0)] at noise variance tau2 (clamped to the grid)."""
        tau2 = np.asarray(tau2, dtype=np.float64)
        out = np.interp(np.log(np.maximum(tau2, 1e-300)),
                        self._logt, self.values)
        return out if out.ndim else float(out)

    def inverse(self, belief):
        """Noise variance whose mean true-symbol belief equals belief."""
        belief = np.asarray(belief, dtype=np.float64)
        out = np.exp(np.interp(belief, self._inv_beliefs, self._inv_logt))
        out = np.where(belief <= self._inv_beliefs[0], np.inf, out)
        out = np.where(belief >= self._inv_beliefs[-1],
                       np.exp(self._inv_logt[-1]), out)
        return out if out.ndim else float(out)


def _mc_alpha0_mean(q, tau2, samples, rng, chunk=1 << 18):
    """Monte-Carlo mean of alpha(0) for r = e_0 + tau * N(0, I_q).

    Each chunk is drawn into one buffer and transformed in place, in two
    blocks of rows: a helper thread draws the normals of one block while
    the calling thread transforms the other, so the draw (which releases
    the GIL) runs beside the transform.  Drawing a chunk's blocks in
    order gives the normals of one draw per chunk, every step of the
    transform acts on each row alone, and each row's alpha(0) goes into
    one ratio vector that is summed once per chunk, so the chunk size
    still fixes the summation order.  The helper is joined before this
    returns; an exception raised on either thread is raised here with
    its type.  The row maximum is taken by halving the columns, exact
    because q is a power of two.
    """
    tau = np.sqrt(tau2)
    total = 0.0
    per_chunk = max(1, min(samples, chunk // q))
    buf = np.empty((per_chunk, q))
    half = np.empty((per_chunk, q // 2))
    ratio = np.empty(per_chunk)
    # drawn[i] and free[i] pass block i from the helper to the caller and
    # back; each side takes the blocks in the same order.
    drawn = [threading.Semaphore(0), threading.Semaphore(0)]
    free = [threading.Semaphore(1), threading.Semaphore(1)]
    stop, errors = threading.Event(), []

    def draw():
        try:
            for _, blocks in _chunks(samples, per_chunk):
                for i, (lo, hi) in enumerate(blocks):
                    free[i].acquire()
                    if stop.is_set():
                        return
                    rng.standard_normal(out=buf[lo:hi])
                    drawn[i].release()
        except BaseException as exc:   # raised again by the caller
            errors.append(exc)
            for sem in drawn:
                sem.release()

    helper = threading.Thread(target=draw)
    helper.start()
    try:
        for k, blocks in _chunks(samples, per_chunk):
            for i, (lo, hi) in enumerate(blocks):
                drawn[i].acquire()
                if errors:
                    raise errors[0]
                x = buf[lo:hi]
                x *= tau
                x[:, 0] += 1.0
                x /= tau2
                x -= _row_max(x, half[lo:hi])
                np.exp(x, out=x)
                np.divide(x[:, 0], x.sum(axis=1), out=ratio[lo:hi])
                free[i].release()
            total += float(ratio[:k].sum())
    finally:
        stop.set()
        for sem in free:
            sem.release()
        helper.join()
    return total / samples


def _chunks(samples, per_chunk):
    """Row count of each chunk of samples and its two blocks of rows,
    as (lo, hi) ranges of the chunk buffer."""
    mid = per_chunk - per_chunk // 2
    for done in range(0, samples, per_chunk):
        k = min(per_chunk, samples - done)
        yield k, ((0, min(mid, k)), (min(mid, k), k))


def _row_max(x, half):
    """Row maxima of x, which has 2^m >= 2 columns, as a (rows, 1) view
    of half, a work array with at least half as many columns."""
    width = x.shape[1] // 2
    m = np.maximum(x[:, :width], x[:, width:], out=half[:, :width])
    while width > 1:
        width //= 2
        np.maximum(m[:, :width], m[:, width:2 * width], out=m[:, :width])
    return m[:, :1]


def build_psi(q, samples=PSI_SAMPLES):
    """Tabulate Psi on PSI_GRID by one Monte-Carlo pass.

    The stored values are the running minimum of the raw estimates along
    the grid: non-increasing by construction, and the raw table itself
    bit for bit wherever it already decreases strictly.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples per grid point")
    lo, hi, points = PSI_GRID
    tau2_grid = np.logspace(np.log10(lo), np.log10(hi), int(points))
    rng = rng_stream(0, 100, 0)
    raw = np.array([_mc_alpha0_mean(q, t2, samples, rng) for t2 in tau2_grid])
    return PsiTable(q, tau2_grid, np.minimum.accumulate(raw))


@functools.lru_cache(maxsize=8)
def get_psi(q, samples=PSI_SAMPLES):
    return build_psi(q, samples=samples)


@dataclass
class SeTrace:
    """Deterministic trajectory of the approximate state evolution."""

    tau2: np.ndarray          # length T+1, starting at sigma^2 + L/n
    edge_mse: np.ndarray      # final check-to-variable message MSEs
    section_mse: np.ndarray   # final per-section output MSE
    converged: bool


def approximate_se(code, n, sigma2, T, schedule, psi=None):
    """Run the scalar recursion for T AMP iterations: approximate_se_batch
    on one code.

    Every modeled AMP iteration runs its rounds as from uninformative
    graph messages (the keep-graph schedule has no scalar model; its
    round count is still honored).  A Psi table built for another field
    size is an error.
    """
    return approximate_se_batch([code], n, [sigma2], T, schedule, psi)[0]


def approximate_se_batch(codes, n, sigma2s, T, schedule, psi=None):
    """approximate_se of each code at its own sigma^2, run in lockstep.

    One recursion runs on the disjoint union of the codes' graphs, with
    tau^2 and sigma^2 kept per code, so the numpy calls of a round are
    shared by all trajectories.  Every sum and product keeps the
    association it has for one code alone (each tau^2 update sums its
    own code's section MSEs), so each trace is bitwise the one the code
    gets alone.  The codes must share one field.

    An iteration whose tau^2 vector equals the previous iteration's bit
    for bit, and whose round count is no smaller, continues from the
    previous iteration's messages for only the extra rounds: from the
    uninformative start, its first rounds would give those messages
    again.  Otherwise the messages reset to 1/q.  sigma2s needs one
    finite, positive value per code, n at least 1 and T at least 0.
    """
    sigma2 = np.asarray(sigma2s, dtype=np.float64)
    if sigma2.shape != (len(codes),):
        raise ValueError(f"sigma2s holds {sigma2.size} values for "
                         f"{len(codes)} codes")
    if not np.all(np.isfinite(sigma2) & (sigma2 > 0)):
        raise ValueError(f"sigma2 must be finite and positive, got "
                         f"{sigma2.tolist()}")
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if T < 0:
        raise ValueError(f"T must be non-negative, got {T}")
    if not codes:
        return []
    q = codes[0].field.q
    if any(code.field.q != q for code in codes):
        raise ValueError("the codes are over different fields")
    if psi is None:
        psi = get_psi(q)
    elif psi.q != q:
        raise ValueError(f"Psi table is for q={psi.q}, the code is over "
                         f"GF({q})")
    graph = _SeGraph(codes)

    tau2 = sigma2 + graph.L / n
    trace = [tau2]
    c2v_l2 = np.full(graph.n_edges, 1.0 / q)
    section_mse = np.full(graph.n_vars, 1.0 - 1.0 / q)

    done, prev_tau2 = 0, None   # rounds behind c2v_l2, run at prev_tau2
    for t in range(T):
        rounds = schedule.rounds(t)
        if not (rounds >= done and np.array_equal(tau2, prev_tau2)):
            c2v_l2 = np.full(graph.n_edges, 1.0 / q)
            done = 0
        if graph.n_edges:
            for _ in range(rounds - done):
                v2c_l2 = graph.variable_round(psi, tau2, c2v_l2)
                c2v_l2 = graph.check_round(v2c_l2)
        # Output: combine the AMP observation with all check neighbors.
        inv_sum = graph.var_sum(_inv_tau2(psi, c2v_l2))
        tau2_out = 1.0 / ((1.0 / tau2)[graph.var_code] + inv_sum)
        section_mse = 1.0 - np.asarray(psi.value(tau2_out))
        mse_sums = np.array([section_mse[code_vars].sum()
                             for code_vars in graph.var_slices])
        done, prev_tau2 = rounds, tau2
        tau2 = sigma2 + mse_sums / n
        trace.append(tau2)

    trace = np.stack(trace, axis=1)
    edge_mse = 1.0 - c2v_l2
    return [
        SeTrace(
            tau2=trace[i],
            edge_mse=edge_mse[graph.edge_slices[i]],
            section_mse=section_mse[graph.var_slices[i]],
            converged=bool(trace[i, -1] - sigma2[i] < 1e-4 * sigma2[i]),
        )
        for i in range(len(codes))
    ]


def _inv_tau2(psi, c2v_l2):
    """Per-edge 1/Psi^{-1}(E||mu||^2); 0 for an exactly-uniform message."""
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(psi.inverse(c2v_l2))


class _SeGraph:
    """Disjoint union of Tanner graphs, laid out for the SE rounds.

    Variables and edges of code i follow those of codes 0..i-1, each
    code keeping its own order.  The check round gathers the edges into
    a ragged slot-major layout: checks sorted by falling degree, slot s
    holding the first counts[s] checks (those of degree above s), so the
    layout has exactly one entry per edge and slot s + 1 is a prefix of
    slot s.  A run of slots with equal counts is a contiguous (slots,
    checks) block; _product_steps turns the blocks into running products
    along the slots, from which each edge takes the product of its
    check's other inputs.
    """

    def __init__(self, codes):
        q = codes[0].field.q
        self.q = q
        L = np.array([code.L for code in codes])
        E = np.array([code.n_edges for code in codes])
        var_off = np.concatenate(([0], np.cumsum(L)))
        edge_off = np.concatenate(([0], np.cumsum(E)))
        self.L = L
        self.n_vars, self.n_edges = int(var_off[-1]), int(edge_off[-1])
        self.var_slices = [slice(a, b) for a, b in
                           zip(var_off[:-1].tolist(), var_off[1:].tolist())]
        self.edge_slices = [slice(a, b) for a, b in
                            zip(edge_off[:-1].tolist(), edge_off[1:].tolist())]
        self.var_code = np.repeat(np.arange(len(codes)), L)
        self.edge_code = np.repeat(np.arange(len(codes)), E)
        self.edge_var = np.concatenate(
            [code.edge_var + off for code, off in zip(codes, var_off)])
        # (q/(q-1))^(deg-2): the check rule with one incoming message
        # fewer than the check degree, computed code by code as each
        # code alone computes it.
        self.edge_factor = np.concatenate(
            [(q / (q - 1.0)) ** (code.chk_degrees()[code.edge_chk] - 2.0)
             for code in codes])
        if self.n_edges:
            self._check_layout(codes, edge_off)

    def _check_layout(self, codes, edge_off):
        # Each check's edges are a run of ids (codes sort edges by check).
        degs = np.concatenate([code.chk_degrees() for code in codes])
        first = np.concatenate([np.cumsum(code.chk_degrees())
                                - code.chk_degrees() + off
                                for code, off in zip(codes, edge_off)])
        order = np.argsort(-degs, kind="stable")
        degs, first = degs[order], first[order]
        counts = (degs[:, None] > np.arange(degs[0])).sum(axis=0)
        offs = np.concatenate(([0], np.cumsum(counts)))
        E = self.n_edges
        slot_edge = np.concatenate(
            [first[:c] + s for s, c in enumerate(counts)])
        # For entry (s, i): its prefix product sits at (s - 1, i) of the
        # forward buffer and its suffix product at (s + 1, i) of the
        # backward one; position E of each buffer holds 1.0.
        pre_src = np.full(E, E)
        suf_src = np.full(E, E)
        for s, c in enumerate(counts):
            if s:
                pre_src[offs[s]:offs[s] + c] = offs[s - 1] + np.arange(c)
            if s + 1 < len(counts):
                nxt = counts[s + 1]
                suf_src[offs[s]:offs[s] + nxt] = offs[s + 1] + np.arange(nxt)
        self._slot_edge = slot_edge
        self._pre_of_edge = np.empty(E, dtype=np.intp)
        self._pre_of_edge[slot_edge] = pre_src
        self._suf_of_edge = np.empty(E, dtype=np.intp)
        self._suf_of_edge[slot_edge] = suf_src

        self._fwd = np.ones(E + 1)
        self._bwd = np.ones(E + 1)
        starts = np.flatnonzero(np.diff(counts, prepend=-1))
        runs = [(int(offs[a]), int(offs[b]), int(counts[a]))
                for a, b in zip(starts, np.append(starts[1:], len(counts)))]
        self._steps = (_product_steps(self._fwd, runs, reverse=False)
                       + _product_steps(self._bwd, runs, reverse=True))

    def var_sum(self, inv_edge):
        """Sum of the per-edge values over each variable's incoming edges,
        added in edge order."""
        return np.bincount(self.edge_var, weights=inv_edge,
                           minlength=self.n_vars)

    def variable_round(self, psi, tau2, c2v_l2):
        """Variable-to-check E||mu||^2 of every edge; tau2 holds each
        code's AMP noise variance."""
        inv_edge = _inv_tau2(psi, c2v_l2)
        inv_sum = self.var_sum(inv_edge)
        tilde = 1.0 / ((1.0 / tau2)[self.edge_code]
                       + inv_sum[self.edge_var] - inv_edge)
        return np.asarray(psi.value(tilde))

    def check_round(self, v2c_l2):
        """Check-to-variable E||mu||^2 of every edge: the exclusive
        product of the centered inputs at each check, as prefix and
        suffix products along the slots."""
        q, E = self.q, self.n_edges
        F, G = self._fwd, self._bwd
        np.take(v2c_l2 - 1.0 / q, self._slot_edge, out=F[:E])
        G[:E] = F[:E]
        for src, dst in self._steps:
            if dst is None:
                np.multiply.accumulate(src, axis=0, out=src)
            else:
                np.multiply(src, dst, out=dst)
        excl = F[self._pre_of_edge] * G[self._suf_of_edge]
        out = 1.0 / q + self.edge_factor * excl
        return np.clip(out, 1.0 / q, 1.0)


def _product_steps(buf, runs, reverse):
    """In-place steps that turn the slot-major inputs in buf into
    inclusive running products along each check's slots: left to right,
    or with reverse right to left.

    runs lists (start, end, checks) of each run of slots with equal
    check counts, by falling count.  A step (src, dst) sets dst to
    src * dst; a step (block, None) runs a cumprod along the block's
    slot axis.  The cumprod loops over the block's columns inside numpy
    and wins on narrow blocks; a block wider than PRODUCT_BLOCK_WIDTH
    checks is faster as one product per slot.
    """
    steps = []
    order = range(len(runs) - 1, -1, -1) if reverse else range(len(runs))
    for k in order:
        lo, hi, c = runs[k]
        rows = [buf[a:a + c] for a in range(lo, hi, c)]
        if reverse:
            if k + 1 < len(runs):
                nxt = runs[k + 1][2]
                steps.append((buf[hi:hi + nxt], rows[-1][:nxt]))
            rows = rows[::-1]
        elif k:
            prev = lo - runs[k - 1][2]
            steps.append((buf[prev:prev + c], rows[0]))
        if len(rows) > 1 and c <= PRODUCT_BLOCK_WIDTH:
            block = buf[lo:hi].reshape(-1, c)
            steps.append((block[::-1] if reverse else block, None))
        else:
            steps.extend(zip(rows[:-1], rows[1:]))
    return steps


@dataclass
class RateCandidate:
    rate: float
    L: int
    P: int
    residual: float    # tau_T^2 - sigma^2
    converged: bool


def best_candidate(rows):
    """Residual minimizer of a rate sweep.

    Converged candidates underflow to a residual of exactly 0, so exact
    ties are common; they break toward the highest rate, which has the
    shorter code and the larger undersampling margin at equal predicted
    residual.
    """
    if not rows:
        raise ValueError("empty rate sweep")
    return min(rows, key=lambda row: (row.residual, -row.rate))


def build_candidates(field, candidates, dv, seed=0):
    """Outer codes of the (L, P) candidates, built in order, as (L, P,
    code) triples; a pair whose construction fails (an infeasible PEG
    profile or a rank-deficient parity matrix) is skipped with a
    warning."""
    built = []
    for L, P in candidates:
        try:
            code, _ = build_code(field, L, P, dv, seed)
        except ValueError as exc:
            warnings.warn(f"skipping (L={L}, P={P}): {exc}")
            continue
        built.append((L, P, code))
    return built


def score_candidates(built, B, n, ebno_db, schedule, T=20, psi=None):
    """Approximate-SE residual of each built (L, P, code) candidate after
    T iterations, all run as one approximate_se_batch.  Returns rows
    sorted by rate; best_candidate picks the residual minimizer.

    harness.rate_sweep (so `srldpc tune-rate`) leaves T at 20, whatever
    the config's amp_iters, so a rate is chosen for a 20-iteration
    decoder."""
    sigma2s = [snr_to_sigma2(ebno_db, B, L) for L, _, _ in built]
    traces = approximate_se_batch([code for _, _, code in built], n,
                                  sigma2s, T, schedule, psi)
    rows = [
        RateCandidate(rate=(L - P) / L, L=L, P=P,
                      residual=float(tr.tau2[-1] - sigma2),
                      converged=tr.converged)
        for (L, P, _), sigma2, tr in zip(built, sigma2s, traces)
    ]
    rows.sort(key=lambda row: row.rate)
    return rows
