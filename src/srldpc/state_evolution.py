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

Psi has no closed form; it is estimated by Monte-Carlo on a log-spaced
tau^2 grid and smoothed isotonically.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .codec import rng_stream, snr_to_sigma2
from .ldpc import build_code

PSI_GRID = (1e-4, 1e3, 64)
PSI_SAMPLES = 200_000
PSI_REBUILDS = 2
# Widest run of checks whose SE check-round products are one cumprod
# along the slots rather than a Python loop of per-slot products.
PRODUCT_BLOCK_WIDTH = 64


class PsiTable:
    """Interpolated map tau^2 -> E[alpha(0)] and its inverse.

    Values decrease strictly from ~1 (noiseless) to ~1/q (uninformative).
    The inverse returns inf for beliefs at or below the table floor, so
    an exactly-uniform message contributes nothing to the harmonic
    combination at a variable node.
    """

    def __init__(self, q, tau2_grid, values):
        self.q = q
        self.tau2_grid = np.asarray(tau2_grid, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self._logt = np.log(self.tau2_grid)
        keep = np.concatenate(([True], np.diff(self.values) < 0))
        self._inv_beliefs = self.values[keep][::-1]
        self._inv_logt = self._logt[keep][::-1]

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
    """Monte-Carlo mean of alpha(0) for r = e_0 + tau * N(0, I_q)."""
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


def build_psi(q, samples=PSI_SAMPLES):
    """Tabulate Psi on PSI_GRID by Monte-Carlo with isotonic smoothing.

    If the raw table strays from monotone by more than the expected MC
    noise, the estimate is rebuilt with four times the samples, at most
    PSI_REBUILDS times.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples per grid point")
    lo, hi, points = PSI_GRID
    tau2_grid = np.logspace(np.log10(lo), np.log10(hi), int(points))

    for attempt in range(PSI_REBUILDS + 1):
        n_samp = samples * (4 ** attempt)
        rng = rng_stream(0, 100, attempt)
        raw = np.array([
            _mc_alpha0_mean(q, t2, n_samp, rng) for t2 in tau2_grid
        ])
        iso = isotonic_regression(raw, increasing=False).x
        tol = max(0.005, 5.0 / np.sqrt(n_samp))
        if np.max(np.abs(raw - iso)) <= tol:
            return PsiTable(q, tau2_grid, iso)
    warnings.warn("Psi table stayed non-monotone beyond tolerance; "
                  "using the isotonic fit of the last attempt")
    return PsiTable(q, tau2_grid, iso)


@functools.lru_cache(maxsize=8)
def get_psi(q, samples=PSI_SAMPLES):
    return build_psi(q, samples=samples)


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

    Graph messages reset to uninformative at the start of every modeled
    AMP iteration (the keep-graph schedule has no scalar model; its
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
    """
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
    sigma2 = np.asarray(sigma2s, dtype=np.float64)

    tau2 = sigma2 + graph.L / n
    trace = [tau2]
    c2v_l2 = np.full(graph.n_edges, 1.0 / q)
    section_mse = np.full(graph.n_vars, 1.0 - 1.0 / q)

    for t in range(T):
        c2v_l2 = np.full(graph.n_edges, 1.0 / q)
        if graph.n_edges:
            for _ in range(schedule.rounds(t)):
                v2c_l2 = graph.variable_round(psi, tau2, c2v_l2)
                c2v_l2 = graph.check_round(v2c_l2)
        # Output: combine the AMP observation with all check neighbors.
        inv_sum = graph.var_sum(_inv_tau2(psi, c2v_l2))
        tau2_out = 1.0 / ((1.0 / tau2)[graph.var_code] + inv_sum)
        section_mse = 1.0 - np.asarray(psi.value(tau2_out))
        mse_sums = np.array([section_mse[code_vars].sum()
                             for code_vars in graph.var_slices])
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
