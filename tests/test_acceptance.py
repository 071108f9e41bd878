"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  Tolerances and runtime bounds are pinned in the asserts; all
experiments are fully seeded and deterministic.
"""

import functools
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from helpers import (
    check_round_message, check_update_bruteforce, exhaustive_posteriors,
    fd_divergence, fq_convolve, gaussian_probability_vectors,
)
from srldpc.amp import DecoderParams, decode, tau2_floor_for
from srldpc.codec import (
    DesignMatrix, awgn, index_codeword, rng_stream, snr_to_sigma2,
    STREAM_BITS, STREAM_NOISE,
)
from srldpc.denoiser import BpDenoiser, Schedule, divergence_terms
from srldpc.gf import GF2m
from srldpc import harness
from srldpc.harness import SimConfig, run_point, se_vs_truth, trial_tally
from srldpc.ldpc import LdpcCode, bits_to_symbols, build_code, syndrome_check
from srldpc.state_evolution import (
    best_candidate, build_candidates, get_psi, score_candidates,
)

DESK = dict(L=128, P=8, dv=3, B=480, n=600, m=4)
WATERFALL_DB = 4.25          # calibrated: desk BP-N CER crosses ~3e-2 here
SWEEP_GRID = (3.0, 3.5, 4.0, 4.25, 4.5, 4.75)
RATE_EBNO_DB = 4.0           # rate-tuning operating point (see ledger)
RATE_LS = (200, 172, 160, 150, 140, 128, 120)   # rates 0.60 .. 1.00


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:2d}] {name}: FAIL")
                raise
            print(f"\n[criterion {num:2d}] {name}: "
                  f"PASS ({time.perf_counter() - t0:.1f}s)")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def desk_code():
    field = GF2m(4)
    return build_code(field, DESK["L"], DESK["P"], DESK["dv"], seed=5)


@pytest.fixture(scope="module")
def psi16():
    return get_psi(16)


# ---------------------------------------------------------------------------
# 1. check updates through the FWHT equal direct parity enumeration
# ---------------------------------------------------------------------------

@criterion(1, "FWHT check update vs brute force")
def test_c1_fwht_vs_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for q in (2, 4, 8, 16):
        field = GF2m(q.bit_length() - 1)
        for _ in range(100):
            deg_in = int(rng.integers(2, 5))
            incoming = [
                (rng.random(q) + 1e-3, int(rng.integers(1, q)))
                for _ in range(deg_in)
            ]
            out_label = int(rng.integers(1, q))
            fast = check_round_message(incoming, out_label, field)
            slow = check_update_bruteforce(incoming, out_label, field)
            worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"max abs diff {worst:.2e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


# ---------------------------------------------------------------------------
# 2. Onsager coefficient equals the finite-difference divergence
# ---------------------------------------------------------------------------

@criterion(2, "Onsager coefficient vs finite differences")
def test_c2_onsager_finite_difference():
    t0 = time.perf_counter()
    field = GF2m(3)
    code, _ = build_code(field, L=16, P=8, dv=2, seed=1)
    assert code.girth >= 4
    q, L, n = field.q, code.L, 64
    rng = np.random.default_rng(102)
    for state in range(5):
        tau2 = float(rng.uniform(0.25, 0.6))
        r = rng.standard_normal(L * q) * rng.uniform(0.5, 1.0)
        den = BpDenoiser(code, Schedule("bpn"))
        s_hat = den.denoise(r, tau2, 0)
        l1, l2sq = divergence_terms(s_hat)
        closed = (l1 - l2sq) / (n * tau2)
        fd = fd_divergence(code, r, tau2, rounds=1, h=1e-5) / n
        rel = abs(closed - fd) / abs(fd)
        assert rel < 1e-3, f"state {state}: rel err {rel:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


# ---------------------------------------------------------------------------
# 3. one-norm multiplicativity of the F_q-convolution
# ---------------------------------------------------------------------------

@criterion(3, "one-norm multiplicativity")
def test_c3_one_norm_multiplicativity():
    rng = np.random.default_rng(103)
    qs = (2, 4, 8, 16, 64, 256)
    for i in range(1000):
        q = qs[i % len(qs)]
        field = GF2m(q.bit_length() - 1)
        a = rng.random(q)
        b = rng.random(q)
        out = fq_convolve(a, b, field)
        target = a.sum() * b.sum()
        assert abs(out.sum() - target) <= 1e-12 * target


# ---------------------------------------------------------------------------
# 4. geometric uniformity of the indexed codebook
# ---------------------------------------------------------------------------

@criterion(4, "geometric uniformity")
def test_c4_geometric_uniformity(desk_code):
    code, enc = desk_code
    q = code.field.q
    rng = np.random.default_rng(104)
    for _ in range(20):
        va = enc.encode(rng.integers(0, q, size=enc.k))
        vb = enc.encode(rng.integers(0, q, size=enc.k))
        u = va ^ vb              # difference codeword (XOR = subtraction)
        samples = np.stack([
            enc.encode(rng.integers(0, q, size=enc.k)) for _ in range(50)
        ])
        mapped = samples ^ u
        for w in mapped:
            assert syndrome_check(code, w)
        # squared distance between indexed states is 2 * (# differing
        # symbols), an integer; require exact preservation pairwise
        before = (samples[:, None, :] != samples[None, :, :]).sum(axis=2)
        after = (mapped[:, None, :] != mapped[None, :, :]).sum(axis=2)
        assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# 5. closed forms for convolved probability-vector statistics
# ---------------------------------------------------------------------------

@criterion(5, "convolution two-norm and mean closed forms")
def test_c5_se_closed_forms():
    q = 8
    tau2 = 0.5
    samples = 10 ** 5
    rng = np.random.default_rng(105)
    for n_in in (2, 3):
        batches = [
            gaussian_probability_vectors(q, tau2, samples, rng)
            for _ in range(n_in)
        ]
        conv = batches[0]
        for b in batches[1:]:
            conv = _rowwise_convolve(conv, b)
        n0 = conv[:, 0]
        l2 = np.square(conv).sum(axis=1)

        # closed form: E||N||^2 = 1/q + (q/(q-1))^(n-1) prod(E||L_p||^2 - 1/q)
        in_l2 = [np.square(b).sum(axis=1) for b in batches]
        in_means = [x.mean() for x in in_l2]
        in_sems = [x.std(ddof=1) / np.sqrt(samples) for x in in_l2]
        factor = (q / (q - 1.0)) ** (n_in - 1)
        rhs = 1.0 / q + factor * np.prod([m - 1.0 / q for m in in_means])
        # first-order error propagation through the product
        var_rhs = 0.0
        for mean_p, sem_p in zip(in_means, in_sems):
            var_rhs += ((rhs - 1.0 / q) / (mean_p - 1.0 / q)) ** 2 * sem_p ** 2
        lhs = l2.mean()
        sem_lhs = l2.std(ddof=1) / np.sqrt(samples)
        tol = 3.0 * np.hypot(sem_lhs, np.sqrt(var_rhs))
        assert abs(lhs - rhs) < tol, f"n={n_in}: |{lhs:.5f}-{rhs:.5f}| > {tol:.5f}"

        # balance: E[N_0] = E||N||^2 for the convolved vector
        diff = n0 - l2
        sem_diff = diff.std(ddof=1) / np.sqrt(samples)
        assert abs(diff.mean()) < 3.0 * sem_diff

        # mean form: E[N_0] = 1/q + (q/(q-1))^(n-1) prod(E[L_0] - 1/q)
        in_n0_means = [b[:, 0].mean() for b in batches]
        in_n0_sems = [b[:, 0].std(ddof=1) / np.sqrt(samples) for b in batches]
        rhs0 = 1.0 / q + factor * np.prod([m - 1.0 / q for m in in_n0_means])
        var_rhs0 = 0.0
        for mean_p, sem_p in zip(in_n0_means, in_n0_sems):
            var_rhs0 += ((rhs0 - 1.0 / q) / (mean_p - 1.0 / q)) ** 2 * sem_p ** 2
        sem_n0 = n0.std(ddof=1) / np.sqrt(samples)
        tol0 = 3.0 * np.hypot(sem_n0, np.sqrt(var_rhs0))
        assert abs(n0.mean() - rhs0) < tol0


def _rowwise_convolve(a, b):
    """Convolve row i of a with row i of b over F_q, for all rows."""
    from srldpc.gf import fwht
    return fwht(fwht(a) * fwht(b)) / a.shape[-1]


# ---------------------------------------------------------------------------
# 6. initial effective-noise identity E[tau_0^2] = sigma^2 + L/n
# ---------------------------------------------------------------------------

@criterion(6, "tau_0^2 identity")
def test_c6_tau0_identity(desk_code):
    code, enc = desk_code
    field = code.field
    n = DESK["n"]
    sigma2 = snr_to_sigma2(4.0, DESK["B"], code.L)
    samples = np.empty(200)
    for trial in range(200):
        A = DesignMatrix(n, field.q * code.L, seed=3000 + trial)
        bits = rng_stream(106, STREAM_BITS, 0, trial).integers(
            0, 2, size=DESK["B"])
        v = enc.encode(bits_to_symbols(bits, field.m))
        x = A.matvec(index_codeword(v, field.q))
        y = awgn(x, sigma2, rng=rng_stream(106, STREAM_NOISE, 0, trial))
        samples[trial] = (y @ y) / n
    target = sigma2 + code.L / n
    sem = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - target) < 3 * sem


# ---------------------------------------------------------------------------
# 7. approximate SE tracks the measured trajectory off the waterfall edge
# ---------------------------------------------------------------------------

@criterion(7, "SE vs measured trajectory at waterfall +-1 dB")
def test_c7_se_vs_truth(psi16):
    t0 = time.perf_counter()
    cfg = SimConfig(ebno_db=SWEEP_GRID, seed=1)
    for ebno, expect_converged in ((WATERFALL_DB - 1.0, False),
                                   (WATERFALL_DB + 1.0, True)):
        rows = se_vs_truth(cfg, ebno, trials=50, psi=psi16)
        _, mc, se, rel = rows[-1]
        assert rel < 0.15, f"ebno {ebno}: rel err {rel:.3f} >= 15%"
        # both series agree on whether the sigma^2 band is reached
        sigma2 = snr_to_sigma2(ebno, cfg.B, cfg.L)
        mc_converged = mc - sigma2 < 0.05 * sigma2
        se_converged = se - sigma2 < 0.05 * sigma2
        assert mc_converged == expect_converged
        assert se_converged == expect_converged
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 min"


# ---------------------------------------------------------------------------
# 8. waterfall shape and schedule ordering
# ---------------------------------------------------------------------------

def _sweep_collect(schedule, monkeypatch):
    """Desk-scale harness.sweep (50 codeword errors or 2000 trials per
    point) with the per-trial bit errors recorded for standard errors."""
    cfg = SimConfig(ebno_db=SWEEP_GRID, schedule=schedule, seed=1,
                    trials=2000, target_errors=50)
    bit_errors = {i: [] for i in range(len(cfg.ebno_db))}
    point = []

    def recording_point(cfg, ebno_db, snr_index=0, prebuilt=None):
        point[:] = [snr_index]
        return run_point(cfg, ebno_db, snr_index, prebuilt)

    def recording_tally(bits, v, res):
        out = trial_tally(bits, v, res)
        bit_errors[point[0]].append(out[0])
        return out

    monkeypatch.setattr(harness, "run_point", recording_point)
    monkeypatch.setattr(harness, "trial_tally", recording_tally)
    rows = harness.sweep(cfg)

    points = []
    for i, row in enumerate(rows):
        bite = np.asarray(bit_errors[i], dtype=np.float64)
        assert len(bite) == row.trials
        points.append({
            "ebno": row.ebno_db,
            "trials": row.trials,
            "bit_errors": row.bit_errors,
            "ber": bite.mean() / cfg.B,
            "ber_sem": bite.std(ddof=1) / np.sqrt(len(bite)) / cfg.B,
            "cwe": row.codeword_errors,
        })
    return points


@criterion(8, "waterfall monotonicity and schedule ordering")
def test_c8_waterfall_and_schedules(monkeypatch):
    t0 = time.perf_counter()
    res = {s: _sweep_collect(s, monkeypatch) for s in ("bpn", "bp0", "bp1kg")}

    # (a) BP-N BER non-increasing beyond 2 combined standard errors
    bpn = res["bpn"]
    for lo, hi in zip(bpn, bpn[1:]):
        slack = 2.0 * np.hypot(lo["ber_sem"], hi["ber_sem"])
        assert hi["ber"] <= lo["ber"] + slack, (
            f"BER rose from {lo['ber']:.3e}@{lo['ebno']} to "
            f"{hi['ber']:.3e}@{hi['ebno']} beyond noise")

    # (b) BP-N beats BP-0 at the two highest SNR points (>=95% binomial
    # confidence on codeword-error counts, trial-weighted null)
    for idx in (-2, -1):
        p_bpn, p_bp0 = bpn[idx], res["bp0"][idx]
        k1, k0 = p_bpn["cwe"], p_bp0["cwe"]
        t1, t0_ = p_bpn["trials"], p_bp0["trials"]
        pval = binomtest(k1, k1 + k0, p=t1 / (t1 + t0_),
                         alternative="less").pvalue
        assert pval <= 0.05, (
            f"ebno {p_bpn['ebno']}: BP-N {k1}/{t1} vs BP-0 {k0}/{t0_} "
            f"(p={pval:.3g})")
        assert p_bpn["ber"] < p_bp0["ber"]

    # (c) BP-1-KG BER within 3x of BP-N at every point
    for p_kg, p_bpn in zip(res["bp1kg"], bpn):
        assert p_kg["ber"] <= 3.0 * p_bpn["ber"], (
            f"ebno {p_kg['ebno']}: BP-1-KG {p_kg['ber']:.3e} > "
            f"3 x {p_bpn['ber']:.3e}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30 min"


# ---------------------------------------------------------------------------
# 9. rate tuning exhibits an interior optimum, confirmed by the decoder
# ---------------------------------------------------------------------------

def _mc_residual(field, L, P, ebno, trials=200, T=20):
    code, enc = build_code(field, L, P, DESK["dv"], seed=5)
    sigma2 = snr_to_sigma2(ebno, DESK["B"], L)
    A = DesignMatrix(DESK["n"], field.q * L, seed=42)
    params = DecoderParams(amp_iters=T + 1, final_bp_iters=0,
                           schedule=Schedule("bpn"),
                           tau2_floor=tau2_floor_for(sigma2),
                           early_stop=False)
    finals = np.empty(trials)
    for trial in range(trials):
        bits = rng_stream(9, STREAM_BITS, 0, trial).integers(
            0, 2, size=DESK["B"])
        v = enc.encode(bits_to_symbols(bits, field.m))
        x = A.matvec(index_codeword(v, field.q))
        y = awgn(x, sigma2, rng=rng_stream(9, STREAM_NOISE, 0, trial))
        finals[trial] = decode(y, A, code, enc, params).tau2_trace[T]
    return finals.mean() - sigma2


@criterion(9, "rate-tuning shape with decoder confirmation")
def test_c9_rate_tuning(psi16):
    field = GF2m(4)
    candidates = [(L, L - 120) for L in RATE_LS]
    rows = score_candidates(
        build_candidates(field, candidates, DESK["dv"], seed=5),
        DESK["B"], DESK["n"], RATE_EBNO_DB, Schedule("bpn"), T=20,
        psi=psi16)
    assert len(rows) >= 6
    best = best_candidate(rows)
    # interior minimizer: both extreme rates predict strictly worse
    assert rows[0].residual > best.residual
    assert rows[-1].residual > best.residual
    assert rows[0].rate < best.rate < rows[-1].rate

    mc_best = _mc_residual(field, best.L, best.P, RATE_EBNO_DB)
    mc_low = _mc_residual(field, rows[0].L, rows[0].P, RATE_EBNO_DB)
    mc_high = _mc_residual(field, rows[-1].L, rows[-1].P, RATE_EBNO_DB)
    assert mc_best < mc_low, f"{mc_best:.3e} !< {mc_low:.3e}"
    assert mc_best < mc_high, f"{mc_best:.3e} !< {mc_high:.3e}"


# ---------------------------------------------------------------------------
# 10. cycle-free exactness of the denoiser
# ---------------------------------------------------------------------------

@criterion(10, "cycle-free exactness")
def test_c10_cycle_free_exactness():
    field = GF2m(2)
    q = field.q
    rng = np.random.default_rng(110)
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
