"""Low-dimensional state-evolution recursion for the AMP-BP decoder.

Instead of tracking qL-dimensional messages, the recursion tracks one
scalar per edge: the expected belief mass on the true symbol, E||mu||^2.
Check nodes update that scalar exactly through the closed-form product
rule; variable nodes convert incoming scalars to equivalent Gaussian
noise variances through the bijection Psi (mean true-symbol belief as a
function of effective noise variance tau^2), combine them harmonically,
and map back.  The per-iteration output MSE then advances tau^2 via
tau_{t+1}^2 = sigma^2 + (1/n) sum_l MSE_l.

Psi has no closed form; it is estimated by Monte-Carlo on a log-spaced
tau^2 grid and smoothed isotonically.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .codec import rng_stream, snr_to_sigma2
from .denoiser import _pad_adjacency
from .ldpc import build_code

PSI_GRID = (1e-4, 1e3, 64)
PSI_SAMPLES = 200_000
PSI_REBUILDS = 2


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


def build_psi(q, grid_spec=PSI_GRID, samples=PSI_SAMPLES, seed=0):
    """Tabulate Psi by Monte-Carlo with isotonic smoothing.

    If the raw table strays from monotone by more than the expected MC
    noise, the estimate is rebuilt with four times the samples, at most
    PSI_REBUILDS times.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples per grid point")
    lo, hi, points = grid_spec
    tau2_grid = np.logspace(np.log10(lo), np.log10(hi), int(points))

    for attempt in range(PSI_REBUILDS + 1):
        n_samp = samples * (4 ** attempt)
        rng = rng_stream(seed, 100, attempt)
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
def get_psi(q, samples=PSI_SAMPLES, seed=0):
    return build_psi(q, samples=samples, seed=seed)


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
    """Run the scalar recursion for T AMP iterations.

    Graph messages reset to uninformative at the start of every modeled
    AMP iteration (the keep-graph schedule has no scalar model; its
    round count is still honored).
    """
    if psi is None:
        psi = get_psi(code.field.q)
    q = code.field.q
    L, E = code.L, code.n_edges
    edge_var = code.edge_var
    if E:
        check_maps = _se_check_maps(code)

    tau2 = sigma2 + L / n
    trace = [tau2]
    c2v_l2 = np.full(E, 1.0 / q)
    section_mse = np.full(L, 1.0 - 1.0 / q)

    for t in range(T):
        c2v_l2 = np.full(E, 1.0 / q)
        if E:
            for _ in range(schedule.rounds(t)):
                v2c_l2 = _se_variable_round(psi, tau2, c2v_l2, edge_var, L)
                c2v_l2 = _se_check_round(q, v2c_l2, check_maps)
        # Output: combine the AMP observation with all check neighbors.
        inv_sum = _per_var_inv_sum(psi, c2v_l2, edge_var, L)
        tau2_out = 1.0 / (1.0 / tau2 + inv_sum)
        section_mse = 1.0 - np.asarray(psi.value(tau2_out))
        tau2 = sigma2 + section_mse.sum() / n
        trace.append(tau2)

    return SeTrace(
        tau2=np.asarray(trace),
        edge_mse=1.0 - c2v_l2,
        section_mse=section_mse,
        converged=bool(trace[-1] - sigma2 < 1e-4 * sigma2),
    )


def _per_var_inv_sum(psi, c2v_l2, edge_var, L):
    """Sum over each variable's incoming edges of 1/Psi^{-1}(E||mu||^2)."""
    if len(c2v_l2) == 0:
        return np.zeros(L)
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.asarray(psi.inverse(c2v_l2))
    out = np.zeros(L)
    np.add.at(out, edge_var, inv)
    return out


def _se_variable_round(psi, tau2, c2v_l2, edge_var, L):
    inv_sum = _per_var_inv_sum(psi, c2v_l2, edge_var, L)
    with np.errstate(divide="ignore"):
        inv_edge = 1.0 / np.asarray(psi.inverse(c2v_l2))
    tilde = 1.0 / (1.0 / tau2 + inv_sum[edge_var] - inv_edge)
    return np.asarray(psi.value(tilde))


def _se_check_maps(code):
    """Per-edge prefactor and padded (check, slot) layout of the check
    round.  The prefactor is (q/(q-1))^(deg-2): the check rule with one
    incoming message fewer than the check degree."""
    q, E = code.field.q, code.n_edges
    edge_factor = (q / (q - 1.0)) ** (code.chk_degrees()[code.edge_chk] - 2.0)
    chk_pad, chk_mask = _pad_adjacency(code.chk_edges, E)
    return edge_factor, chk_pad, chk_mask, chk_pad[chk_mask]


def _se_check_round(q, v2c_l2, check_maps):
    edge_factor, chk_pad, chk_mask, edge_order = check_maps
    centered = np.append(v2c_l2 - 1.0 / q, 1.0)
    prods = _excl_prod_rows(centered[chk_pad])
    excl = np.empty(v2c_l2.size)
    excl[edge_order] = prods[chk_mask]
    out = 1.0 / q + edge_factor * excl
    return np.clip(out, 1.0 / q, 1.0)


def _excl_prod_rows(a):
    """Products along axis 1 of a 2-D array, each entry excluded.

    A cumprod along the contiguous slot axis suits these scalar
    (checks, slots) arrays; the denoiser's (slots, nodes, q) stacks loop
    over slots instead.
    """
    pre = np.ones_like(a)
    suf = np.ones_like(a)
    if a.shape[1] > 1:
        np.cumprod(a[:, :-1], axis=1, out=pre[:, 1:])
        suf[:, :-1] = np.cumprod(a[:, :0:-1], axis=1)[:, ::-1]
    return pre * suf


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


def tune_rate(field, candidates, B, n, dv, ebno_db, T=20,
              schedule=None, seed=0, psi=None):
    """Approximate-SE sweep over outer-code rates at fixed B and n.

    candidates is a list of (L, P) pairs with (L - P) * m == B; pairs
    violating that or failing construction are skipped with a warning.
    Returns rows sorted by rate, with the residual minimizer first in
    a separate field via min().
    """
    from .denoiser import Schedule

    if schedule is None:
        schedule = Schedule("bpn")
    if psi is None:
        psi = get_psi(field.q)

    rows = []
    for L, P in candidates:
        if (L - P) * field.m != B:
            warnings.warn(f"skipping (L={L}, P={P}): (L-P)*m != B")
            continue
        try:
            code, _ = build_code(field, L, P, dv, seed)
        except ValueError as exc:
            warnings.warn(f"skipping (L={L}, P={P}): {exc}")
            continue
        sigma2 = snr_to_sigma2(ebno_db, B, L)
        tr = approximate_se(code, n, sigma2, T, schedule, psi)
        rows.append(RateCandidate(
            rate=(L - P) / L, L=L, P=P,
            residual=float(tr.tau2[-1] - sigma2),
            converged=tr.converged,
        ))
    rows.sort(key=lambda row: row.rate)
    return rows
