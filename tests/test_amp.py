import numpy as np
import pytest

from srldpc import amp, codec, harness
from srldpc.amp import (
    AmpState, DecoderParams, amp_step, decode, decode_batch, estimate_tau2,
    initial_state, onsager, tau2_floor_for,
)
from srldpc.codec import (
    DesignMatrix, awgn, index_codeword, rng_stream, snr_to_sigma2,
    STREAM_BITS, STREAM_NOISE,
)
from helpers import fd_divergence
from srldpc.denoiser import BpDenoiser, Schedule, divergence_terms
from srldpc.gf import GF2m
from srldpc.ldpc import bits_to_symbols, build_code


# ---------------------------------------------------------------------------
# tau^2 estimation
# ---------------------------------------------------------------------------

def test_estimate_tau2_floor():
    assert estimate_tau2(np.zeros(100), 100, floor=1e-12) == 1e-12


def test_estimate_tau2_sample_variance():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(10 ** 5) * np.sqrt(0.42)
    assert abs(estimate_tau2(z, 10 ** 5) - 0.42) / 0.42 < 0.02


def test_tau2_floor_for():
    assert tau2_floor_for(1.0) == 1e-6
    assert tau2_floor_for(1e-9) == 1e-12


# ---------------------------------------------------------------------------
# Onsager term
# ---------------------------------------------------------------------------

def test_onsager_one_hot_vanishes():
    s = np.zeros(64)
    s[::8] = 1.0
    l1, l2sq = divergence_terms(s)
    out = onsager(np.ones(10), l1, l2sq, tau2=0.5, n=10)
    assert np.all(out == 0.0)


def test_onsager_uniform_coefficient():
    L, q, n, tau2 = 16, 8, 40, 0.3
    s = np.full(L * q, 1 / q)
    l1, l2sq = divergence_terms(s)
    z = np.ones(n)
    out = onsager(z, l1, l2sq, tau2, n)
    expected = (L - L / q) / (n * tau2)
    assert np.allclose(out, expected, rtol=1e-12)


def test_onsager_rejects_bad_args():
    with pytest.raises(ValueError):
        onsager(np.ones(4), 1.0, 0.5, tau2=0.0, n=4)


def test_onsager_matches_finite_difference_one_round():
    field = GF2m(3)
    code, _ = build_code(field, L=16, P=8, dv=2, seed=1)
    assert code.girth >= 4
    q, L = field.q, code.L
    rng = np.random.default_rng(2)
    tau2 = 0.4
    for _ in range(2):
        r = rng.standard_normal(L * q) * 0.6
        den = BpDenoiser(code, Schedule("bpn"))
        s_hat = den.denoise(r, tau2, 0)
        l1, l2sq = divergence_terms(s_hat)
        closed = (l1 - l2sq) / tau2
        fd = fd_divergence(code, r, tau2, rounds=1)
        assert abs(closed - fd) / abs(fd) < 1e-3


def test_divergence_matches_at_later_iterations():
    """The closed form must track the true divergence at every AMP
    iteration while computation trees stay cycle-free (girth 8 graph,
    up to 3 BP rounds)."""
    field = GF2m(3)
    code, enc = build_code(field, L=32, P=16, dv=2, seed=4)
    assert code.girth >= 8
    q, L = field.q, code.L
    n = 160
    A = DesignMatrix(n, q * L, seed=5)
    rng = np.random.default_rng(6)
    v = enc.encode(rng.integers(0, q, size=enc.k))
    x = A.matvec(index_codeword(v, q))
    # low SNR keeps the beliefs soft, so the divergence stays far from 0
    sigma2 = snr_to_sigma2(0.5, enc.k * field.m, L)
    y = awgn(x, sigma2, rng=rng_stream(7, STREAM_NOISE))

    den = BpDenoiser(code, Schedule("bpn"))
    state = initial_state(y[None], q * L)
    for t in range(3):
        state = amp_step(state, y[None], [A], den, tau2_floor=1e-12)
        closed = (state.carry_l1[0] - state.carry_l2sq[0]) / state.tau2[0]
        fd = fd_divergence(code, state.r[0], state.tau2[0], rounds=t + 1)
        assert abs(fd) > 1.0
        assert abs(closed - fd) / abs(fd) < 1e-3


# ---------------------------------------------------------------------------
# AMP iterations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    field = GF2m(4)
    code, enc = build_code(field, L=128, P=8, dv=3, seed=5)
    A = DesignMatrix(600, field.q * code.L, seed=6)
    return field, code, enc, A


def test_amp_step_initialization(desk):
    field, code, enc, A = desk
    rng = np.random.default_rng(8)
    y = rng.standard_normal(A.n)
    den = BpDenoiser(code, Schedule("bp0"))
    state = amp_step(initial_state(y[None], A.n_cols), y[None], [A], den)
    assert np.allclose(state.z[0], y, atol=1e-12)
    assert np.allclose(state.r[0], A.rmatvec(y), atol=1e-12)
    assert state.t == 1


def test_amp_noiseless_fixed_point(desk):
    field, code, enc, A = desk
    rng = np.random.default_rng(9)
    v = enc.encode(rng.integers(0, field.q, size=enc.k))
    s = index_codeword(v, field.q)
    y = A.matvec(s)
    den = BpDenoiser(code, Schedule("bpn"))
    l1, l2sq = divergence_terms(s)
    state = AmpState(z=np.zeros((1, A.n)), r=s[None].copy(),
                     s_hat=s[None].copy(), tau2=np.array([1e-6]), t=1,
                     carry_l1=np.array([l1]), carry_l2sq=np.array([l2sq]))
    nxt = amp_step(state, y[None], [A], den, tau2_floor=1e-12)
    # one-hot estimate: Onsager vanishes, residual stays at numerical zero
    assert np.abs(nxt.z).max() < 1e-3
    assert np.abs(nxt.s_hat[0] - s).max() < 1e-6


def test_tau2_trace_mostly_nonincreasing(desk):
    field, code, enc, A = desk
    sigma2 = snr_to_sigma2(5.5, 480, code.L)
    params = DecoderParams(amp_iters=10, final_bp_iters=0,
                           schedule=Schedule("bpn"),
                           tau2_floor=tau2_floor_for(sigma2))
    good = 0
    for trial in range(100):
        bits = rng_stream(3, STREAM_BITS, 0, trial).integers(0, 2, size=480)
        v = enc.encode(bits_to_symbols(bits, field.m))
        x = A.matvec(index_codeword(v, field.q))
        y = awgn(x, sigma2, rng=rng_stream(3, STREAM_NOISE, 0, trial))
        res = decode(y, A, code, enc, params)
        tr = res.tau2_trace
        if np.all(np.diff(tr[2:]) <= 1e-12):
            good += 1
    assert good >= 90


def test_bp0_equals_reference_mmse_amp(desk):
    """With no BP rounds the decoder must reduce to AMP with the plain
    per-section posterior-mean denoiser, reimplemented here directly."""
    field, code, enc, A = desk
    q, L, n = field.q, code.L, A.n
    sigma2 = snr_to_sigma2(4.0, 480, L)
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, size=480)
    v = enc.encode(bits_to_symbols(bits, field.m))
    x = A.matvec(index_codeword(v, q))
    y = awgn(x, sigma2, rng=rng_stream(11, STREAM_NOISE))

    den = BpDenoiser(code, Schedule("bp0"))
    state = initial_state(y[None], A.n_cols)
    floor = tau2_floor_for(sigma2)

    s_ref = np.zeros(q * L)
    z_ref = np.zeros(n)
    tau2_ref = 1.0
    carry = 0.0
    for t in range(5):
        state = amp_step(state, y[None], [A], den, tau2_floor=floor)

        z_ref = y - A.matvec(s_ref) + z_ref * (carry / (n * tau2_ref))
        tau2_ref = max(z_ref @ z_ref / n, floor)
        r_ref = A.rmatvec(z_ref) + s_ref
        scores = r_ref.reshape(L, q) / tau2_ref
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        s_ref = (e / e.sum(axis=1, keepdims=True)).ravel()
        carry = s_ref.sum() - s_ref @ s_ref

        assert np.abs(state.s_hat[0] - s_ref).max() < 1e-12
        assert np.abs(state.z[0] - z_ref).max() < 1e-10


# ---------------------------------------------------------------------------
# Full decode
# ---------------------------------------------------------------------------

def test_decode_noiseless_success(desk):
    field, code, enc, A = desk
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=480)
    v = enc.encode(bits_to_symbols(bits, field.m))
    y = A.matvec(index_codeword(v, field.q))
    y = awgn(y, 1e-10, rng=rng_stream(13, STREAM_NOISE))
    params = DecoderParams(amp_iters=25, final_bp_iters=100,
                           schedule=Schedule("bpn"), tau2_floor=1e-13)
    res = decode(y, A, code, enc, params)
    assert res.success
    assert res.iterations_used <= 5
    assert np.array_equal(res.bits, bits)


def test_decode_deterministic(desk):
    field, code, enc, A = desk
    sigma2 = snr_to_sigma2(4.0, 480, code.L)
    bits = rng_stream(21, STREAM_BITS, 0, 0).integers(0, 2, size=480)
    v = enc.encode(bits_to_symbols(bits, field.m))
    x = A.matvec(index_codeword(v, field.q))
    y = awgn(x, sigma2, rng=rng_stream(21, STREAM_NOISE, 0, 0))
    params = DecoderParams(amp_iters=10, final_bp_iters=20,
                           schedule=Schedule("bp1kg"),
                           tau2_floor=tau2_floor_for(sigma2))
    r1 = decode(y, A, code, enc, params)
    r2 = decode(y, A, code, enc, params)
    assert np.array_equal(r1.bits, r2.bits)
    assert np.array_equal(r1.symbols, r2.symbols)
    assert np.array_equal(r1.tau2_trace, r2.tau2_trace)
    assert r1.success == r2.success
    assert r1.termination_reason == r2.termination_reason


def test_decode_heavy_noise_sanity(desk):
    field, code, enc, A = desk
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2, size=480)
    v = enc.encode(bits_to_symbols(bits, field.m))
    x = A.matvec(index_codeword(v, field.q))
    y = awgn(x, 100.0, rng=rng_stream(15, STREAM_NOISE))
    params = DecoderParams(amp_iters=8, final_bp_iters=10,
                           schedule=Schedule("bpn"), tau2_floor=1e-6)
    res = decode(y, A, code, enc, params)
    assert not res.success
    symbol_error_rate = np.mean(res.symbols != v)
    assert symbol_error_rate <= (field.q - 1) / field.q + 0.05


def test_decode_non_finite_aborts(desk):
    field, code, enc, A = desk
    y = np.full(A.n, np.nan)
    params = DecoderParams(amp_iters=5, final_bp_iters=5,
                           schedule=Schedule("bpn"), tau2_floor=1e-12)
    res = decode(y, A, code, enc, params)
    assert not res.success
    assert res.termination_reason == "non_finite"


# ---------------------------------------------------------------------------
# Batched decode
# ---------------------------------------------------------------------------

def _desk_trials(schedule, **overrides):
    """The pinned desk trials (master seed 1, 4.25 dB, trials 0..63), or
    those of the desk config with overrides: code, encoder, matrix,
    decoder settings and the observations."""
    cfg = harness.SimConfig(**{"schedule": schedule, "seed": 1, "trials": 64,
                               "target_errors": 64, "ebno_db": (4.25,),
                               **overrides})
    _, code, enc = harness.build_experiment(cfg)
    sigma2 = harness._sigma2(cfg, cfg.ebno_db[0])
    params = harness.decoder_params(cfg, tau2_floor_for(sigma2))
    A = harness.design_matrix(cfg, 0)
    Y = np.stack([harness.trial_observation(cfg, enc, A, sigma2, 0, t)[2]
                  for t in range(cfg.trials)])
    return code, enc, A, params, Y


def _assert_same_result(got, want):
    for name in ("symbols", "bits"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # an aborted trial's trace ends in NaN
    assert np.array_equal(got.tau2_trace, want.tau2_trace, equal_nan=True)
    for name in ("success", "iterations_used", "final_bp_rounds",
                 "termination_reason", "denoiser_metadata"):
        assert getattr(got, name) == getattr(want, name), name


# check degrees 17 and 18, so that compaction runs on padded slot-major maps
IRREGULAR = dict(m=4, L=40, P=7, B=132, n=165, trials=16, ebno_db=(4.5,))


@pytest.mark.parametrize("schedule, overrides", [
    ("bpn", {}), ("bp0", {}), ("bp1kg", {}),
    ("bpn", IRREGULAR), ("bp0", IRREGULAR), ("bp1kg", IRREGULAR),
], ids=["bpn", "bp0", "bp1kg",
        "bpn-irregular", "bp0-irregular", "bp1kg-irregular"])
def test_decode_batch_equals_decode_bitwise(schedule, overrides):
    """Batches of 8 give every trial bit for bit its result decoded
    alone, including the failing trials that run the final BP while
    their batch mates are compacted out."""
    code, enc, A, params, Y = _desk_trials(schedule, **overrides)
    batched = []
    for start in range(0, len(Y), 8):
        batched += decode_batch(Y[start:start + 8], [A] * 8, code, enc,
                                params)
    reasons = set()
    for y, got in zip(Y, batched):
        _assert_same_result(got, decode(y, A, code, enc, params))
        reasons.add(got.termination_reason)
    assert "amp_syndrome" in reasons
    assert any(res.final_bp_rounds > 0 for res in batched)
    # stops at different AMP iterations, so batches were compacted
    assert len({res.iterations_used for res in batched}) > 1


@pytest.mark.parametrize("schedule", ["bpn", "bp0"])
def test_decode_batch_checks_each_step_once(schedule, monkeypatch):
    """Each AMP iteration and each final-BP round checks the syndromes of
    every trial still in the batch with one syndrome_check call on their
    (rows, L) symbol stack."""
    code, enc, A, params, Y = _desk_trials(schedule)
    real = amp.syndrome_check
    shapes = []

    def counting(code, v):
        shapes.append(np.shape(v))
        return real(code, v)

    monkeypatch.setattr(amp, "syndrome_check", counting)
    # trials 24..31 stop in AMP, and at least one exhausts the final BP
    batch = decode_batch(Y[24:32], [A] * 8, code, enc, params)
    assert {"amp_syndrome", "exhausted"} <= {
        res.termination_reason for res in batch}
    amp_steps = max(res.iterations_used for res in batch)
    bp_steps = max(res.final_bp_rounds for res in batch)
    running = (
        [sum(res.iterations_used >= t for res in batch)
         for t in range(1, amp_steps + 1)]
        + [sum(res.final_bp_rounds >= j for res in batch)
           for j in range(1, bp_steps + 1)]
    )
    assert shapes == [(rows, code.L) for rows in running]
    assert shapes[0] == (8, code.L)


def test_decode_batch_non_finite_row_aborts_alone():
    code, enc, A, params, Y = _desk_trials("bpn")
    Y = Y[:8].copy()
    Y[3, 17] = np.nan
    batched = decode_batch(Y, [A] * 8, code, enc, params)
    aborted = [res.termination_reason == "non_finite" for res in batched]
    assert aborted == [k == 3 for k in range(8)]
    for y, got in zip(Y, batched):
        _assert_same_result(got, decode(y, A, code, enc, params))


@pytest.mark.parametrize("schedule", ["bpn", "bp0"])
def test_decode_batch_equals_decode_bitwise_in_64_row_blocks(schedule,
                                                             monkeypatch):
    """The batched-equals-alone check with A s walked in 64-row blocks
    (nine and a partial one at n=600), whose results also equal those
    of the default 128-row blocks."""
    code, enc, A, params, Y = _desk_trials(schedule)
    default = decode_batch(Y[24:32], [A] * 8, code, enc, params)
    monkeypatch.setattr(codec, "ROW_BLOCK_BYTES", 4 * 64 * A.n_cols)
    test_decode_batch_equals_decode_bitwise(schedule, {})
    for got, want in zip(decode_batch(Y[24:32], [A] * 8, code, enc, params),
                         default):
        _assert_same_result(got, want)


def test_decode_batch_distinct_matrices_equals_decode_bitwise(monkeypatch):
    """Under per-trial matrices each trial holds its own design matrix;
    trials that share one take one stacked product per AMP step for the
    group, and every trial gets its result decoded alone."""
    cfg = harness.SimConfig(schedule="bpn", seed=2, trials=8,
                            matrix_policy="per_trial", ebno_db=(4.25,))
    _, code, enc = harness.build_experiment(cfg)
    sigma2 = harness._sigma2(cfg, 4.25)
    params = harness.decoder_params(cfg, tau2_floor_for(sigma2))
    own = [harness.design_matrix(cfg, 0, t) for t in range(3)]
    As = [own[0], own[1], own[0], own[2], own[1], own[0]]
    Y = np.stack([harness.trial_observation(cfg, enc, A, sigma2, 0, t)[2]
                  for t, A in enumerate(As)])
    stacks = []
    matvec = DesignMatrix.matvec

    def counting(self, s):
        stacks.append((own.index(self), len(s)))
        return matvec(self, s)

    monkeypatch.setattr(DesignMatrix, "matvec", counting)
    batched = decode_batch(Y, As, code, enc, params)
    assert stacks[:3] == [(0, 3), (1, 2), (2, 1)]
    monkeypatch.undo()
    for y, A, got in zip(Y, As, batched):
        _assert_same_result(got, decode(y, A, code, enc, params))


@pytest.fixture(scope="module")
def bad_batches():
    """Malformed (Y, As) batches of the desk trials, by case, with the
    start of the message each raises."""
    code, enc, A, params, Y = _desk_trials("bp0", trials=8)
    other = DesignMatrix(A.n, A.n_cols, seed=9)
    narrow = DesignMatrix(A.n - 1, A.n_cols, seed=9)
    cases = {
        "1-D y": (Y[0], [A], "^Y must"),
        "too few matrices": (Y[:3], [A, other], "^As must"),
        "too many matrices": (Y[:3], [A, other, A, other], "^As must"),
        "empty batch": (Y[:0], [], "^Y must"),
        "Y narrower than A.n": (Y[:2, :-1], [A, A], r"^As\[0\] is"),
        "matrices of two heights": (Y[:2, :-1], [narrow, A],
                                    r"^As\[1\] is"),
    }
    return code, enc, params, cases


@pytest.mark.parametrize("case", [
    "1-D y", "too few matrices", "too many matrices", "empty batch",
    "Y narrower than A.n", "matrices of two heights",
])
def test_decode_batch_rejects_bad_input(bad_batches, case):
    """A malformed batch is a ValueError that names the argument."""
    code, enc, params, cases = bad_batches
    Y, As, message = cases[case]
    with pytest.raises(ValueError, match=message):
        decode_batch(Y, As, code, enc, params)
