"""AMP outer loop: residual with Onsager correction, effective
observation, BP denoising, residual-based tau^2 tracking, early
termination on valid codewords, and a final standalone BP phase.

The recursion is

    z <- y - A s + z_prev * (||s||_1 - ||s||_2^2) / (n tau_prev^2)
    r <- A^T z + s
    s <- denoise(r, tau^2)

initialized with s = 0 and z = y, where tau^2 is re-estimated from each
new residual as ||z||^2 / n (floored away from zero).  The Onsager
coefficient is the closed form of the denoiser divergence, valid while
BP computation trees stay cycle-free; it vanishes exactly when the
denoiser output is one-hot.

decode_batch runs K trials in lockstep through one AMP loop and one
BpDenoiser: the AMP state holds one row per trial, and the denoiser runs
each BP round once for the whole batch.  The trials that share a design
matrix (all of them under a fixed matrix, each alone under per-trial
matrices) take A s and A^T z as one stacked DesignMatrix call each:
A s walks A in cache-sized row blocks, finishing every trial's product
on a block before the next, and A^T z runs one whole-matrix product per
trial.  Both give each row bitwise the product of that trial alone.
Every trial keeps its own tau^2, Onsager carry, termination reason,
final-BP tail and denoiser counters.
Each AMP iteration and each final-BP round makes one stop decision: one
syndrome_check of the (trials, L) symbol stack masks the trials that
stop there, which are recorded and compacted out of the batch together.
Each trial's result is bitwise the result of decoding it alone, which
decode does (a batch of one).
"""

from dataclasses import dataclass, field

import numpy as np

from .codec import hard_decision
from .denoiser import BpDenoiser, Schedule, divergence_terms
from .ldpc import symbols_to_bits, syndrome_check


def estimate_tau2(z, n, floor=1e-12):
    """Residual-based effective-noise estimate max(||z||^2 / n, floor)."""
    z = np.asarray(z)
    return max(float(z @ z) / n, floor)


def tau2_floor_for(sigma2):
    """Keeps tau^2 usable after the residual collapses post-convergence."""
    return max(1e-12, 1e-6 * sigma2)


def onsager(z_prev, l1, l2sq, tau2, n):
    """Onsager correction z_prev * (||s||_1 - ||s||_2^2) / (n tau^2); with
    a (trials, n) stack, l1, l2sq and tau2 hold one value per row."""
    tau2 = np.asarray(tau2)
    if np.any(tau2 <= 0) or n <= 0:
        raise ValueError("tau2 and n must be positive")
    coef = (np.asarray(l1) - l2sq) / (n * tau2)
    return np.asarray(z_prev) * coef[..., None]


@dataclass
class DecoderParams:
    amp_iters: int = 25
    final_bp_iters: int = 100
    schedule: Schedule = field(default_factory=lambda: Schedule("bpn"))
    tau2_floor: float = 1e-12
    early_stop: bool = True


@dataclass
class AmpState:
    """Working set of the AMP recursion between iterations, one row (or
    entry) per trial."""

    z: np.ndarray
    r: np.ndarray
    s_hat: np.ndarray
    tau2: np.ndarray
    t: int
    carry_l1: np.ndarray
    carry_l2sq: np.ndarray

    def take(self, keep):
        """The state of the trials at positions keep."""
        return AmpState(
            z=self.z[keep], r=self.r[keep], s_hat=self.s_hat[keep],
            tau2=self.tau2[keep], t=self.t, carry_l1=self.carry_l1[keep],
            carry_l2sq=self.carry_l2sq[keep],
        )


def initial_state(Y, n_cols):
    """State before iteration 0 for the (trials, n) observations Y:
    s = r = 0, residual defined as y."""
    Y = np.asarray(Y, dtype=np.float64)
    zero = np.zeros((len(Y), n_cols))
    # tau2 placeholder is never used at t=0 because the carry is zero.
    return AmpState(
        z=np.zeros_like(Y), r=zero.copy(), s_hat=zero, tau2=np.ones(len(Y)),
        t=0, carry_l1=np.zeros(len(Y)), carry_l2sq=np.zeros(len(Y)),
    )


def _matrix_groups(As):
    """(A, positions) for each distinct design matrix in As, with the
    positions of the trials that share it, in order of first use."""
    groups = {}
    for k, A in enumerate(As):
        groups.setdefault(id(A), (A, []))[1].append(k)
    return list(groups.values())


def amp_step(state, Y, As, den, tau2_floor=1e-12):
    """Advance the recursion by one iteration for every trial: row k of
    Y is observed through As[k]; den denoises all rows at once.  The
    trials that share a matrix take one stacked A s and one stacked
    A^T z."""
    n = As[0].n
    groups = _matrix_groups(As)
    A_s = np.empty_like(state.z)
    for A, rows in groups:
        A_s[rows] = A.matvec(state.s_hat[rows])
    z = (Y - A_s) + onsager(state.z, state.carry_l1, state.carry_l2sq,
                               state.tau2, n)
    tau2 = np.array([estimate_tau2(row, n, tau2_floor) for row in z])
    r = np.empty_like(state.s_hat)
    for A, rows in groups:
        r[rows] = A.rmatvec(z[rows])
    r += state.s_hat
    s_hat = den.denoise(r, tau2, state.t)
    l1, l2sq = divergence_terms(s_hat)
    return AmpState(
        z=z, r=r, s_hat=s_hat, tau2=tau2, t=state.t + 1,
        carry_l1=l1, carry_l2sq=l2sq,
    )


@dataclass
class DecodeResult:
    bits: np.ndarray
    symbols: np.ndarray
    success: bool
    iterations_used: int
    final_bp_rounds: int
    tau2_trace: np.ndarray
    termination_reason: str
    denoiser_metadata: dict


def decode(y, A, code, encoder, params):
    """Full decode of one observation: decode_batch on a batch of one."""
    y = np.asarray(y, dtype=np.float64)
    return decode_batch(y[None], [A], code, encoder, params)[0]


def decode_batch(Y, As, code, encoder, params):
    """Full decode of each row of Y (trials, n) against its design matrix
    As[k]: AMP iterations, then standalone BP on the last posteriors,
    with syndrome-based early termination in both phases.  Returns one
    DecodeResult per row, each equal to that row decoded alone."""
    if params.amp_iters < 1:
        raise ValueError("amp_iters must be positive")
    q = code.field.q
    Y = np.asarray(Y, dtype=np.float64)
    As = list(As)
    if Y.ndim != 2 or not len(Y):
        raise ValueError(f"Y must be a (trials, n) stack with at least one "
                         f"trial, got shape {Y.shape}")
    if len(As) != len(Y):
        raise ValueError(f"As must hold one design matrix per row of Y: "
                         f"{len(As)} for {len(Y)} rows")
    for k, A in enumerate(As):
        if (A.n, A.n_cols) != (Y.shape[1], q * code.L):
            raise ValueError(
                f"As[{k}] is {A.n} x {A.n_cols}, but Y has rows of length "
                f"{Y.shape[1]} and the code needs {q * code.L} columns")
    den = BpDenoiser(code, params.schedule)
    state = initial_state(Y, As[0].n_cols)
    results = [None] * len(Y)
    rows = np.arange(len(Y))   # the row of Y behind each batch position
    trace = np.empty((params.amp_iters, len(Y)))

    def finish(done, success, bp_rounds, reason):
        """Record the results of the batch positions in the mask done, each
        with the current symbols, and compact them out of the batch."""
        nonlocal state, rows, Y, As, symbols
        for i in np.flatnonzero(done):
            results[rows[i]] = DecodeResult(
                bits=symbols_to_bits(symbols[i][encoder.message_positions],
                                     code.field.m),
                symbols=symbols[i].copy(), success=success,
                iterations_used=state.t, final_bp_rounds=bp_rounds,
                tau2_trace=trace[: state.t, rows[i]].copy(),
                termination_reason=reason,
                denoiser_metadata=den.metadata()[i],
            )
        if done.any():
            keep = np.flatnonzero(~done)
            state = state.take(keep)
            den.compact(keep)
            rows, Y, symbols = rows[keep], Y[keep], symbols[keep]
            As = [As[i] for i in keep]

    for _ in range(params.amp_iters):
        state = amp_step(state, Y, As, den, params.tau2_floor)
        trace[state.t - 1, rows] = state.tau2
        finite = (np.isfinite(state.z).all(axis=1)
                  & np.isfinite(state.s_hat).all(axis=1))
        symbols = hard_decision(state.s_hat, q).reshape(len(rows), code.L)
        symbols[~finite] = 0
        finish(~finite, False, 0, "non_finite")
        if params.early_stop and len(rows):
            finish(syndrome_check(code, symbols), True, 0, "amp_syndrome")
        if not len(rows):
            return results

    bp_rounds = 0
    if params.final_bp_iters > 0:
        den.reset_messages()
        work = den._work()   # compaction only shrinks the batch
        for j in range(params.final_bp_iters):
            den.bp_round(work)
            bp_rounds = j + 1
            symbols = np.argmax(den.estimate(work), axis=-1).T
            if params.early_stop:
                finish(syndrome_check(code, symbols), True, bp_rounds,
                       "final_bp_syndrome")
                if not len(rows):
                    return results

    # With early stop, every row left failed the check of its symbols.
    if not params.early_stop:
        finish(syndrome_check(code, symbols), True, bp_rounds,
               "exhausted_valid")
    finish(np.ones(len(rows), dtype=bool), False, bp_rounds, "exhausted")
    return results
