import threading

import numpy as np
import pytest

from srldpc.codec import rng_stream, snr_to_sigma2
from srldpc.denoiser import Schedule
from srldpc.gf import GF2m
from srldpc.ldpc import build_code
from srldpc import state_evolution
from srldpc.state_evolution import (
    _SeGraph, approximate_se, approximate_se_batch, build_candidates,
    build_psi, get_psi, score_candidates,
)

from helpers import (
    reference_approximate_se, reference_mc_alpha0_mean, se_check_mse,
    se_variable_tau,
)


@pytest.fixture(scope="module")
def psi16():
    return get_psi(16, samples=50_000)


@pytest.fixture(scope="module")
def psi8():
    return get_psi(8, samples=50_000)


# ---------------------------------------------------------------------------
# Psi table
# ---------------------------------------------------------------------------

def test_psi_limits(psi16):
    assert psi16.value(1e-6) > 0.999999
    assert psi16.value(1e9) == pytest.approx(1 / 16, abs=2e-3)


def test_psi_monotone_decreasing(psi16):
    grid = np.logspace(-4, 3, 50)
    vals = np.asarray(psi16.value(grid))
    assert np.all(np.diff(vals) <= 0)


def test_psi_vs_independent_estimator(psi16):
    """Second estimator with its own seed and 10x the samples."""
    tau2 = 0.25
    rng = np.random.default_rng(12345)
    n_samp = 500_000
    alpha0 = np.empty(n_samp)
    done = 0
    while done < n_samp:
        k = min(100_000, n_samp - done)
        r = rng.standard_normal((k, 16)) * np.sqrt(tau2)
        r[:, 0] += 1.0
        x = r / tau2
        x -= x.max(axis=1, keepdims=True)
        e = np.exp(x)
        alpha0[done:done + k] = e[:, 0] / e.sum(axis=1)
        done += k
    ref = alpha0.mean()
    sem_ref = alpha0.std(ddof=1) / np.sqrt(n_samp)
    sem_table = alpha0.std(ddof=1) / np.sqrt(50_000)
    combined = np.hypot(sem_ref, sem_table)
    assert abs(psi16.value(tau2) - ref) < 3 * combined


def test_psi_inverse_round_trip(psi16):
    beliefs = np.linspace(0.08, 0.995, 40)
    for b in beliefs:
        tau2 = psi16.inverse(b)
        if np.isfinite(tau2):
            assert psi16.value(tau2) == pytest.approx(b, abs=1e-4)


def test_psi_inverse_uniform_is_inf(psi16):
    assert np.isinf(psi16.inverse(1 / 16))


def test_build_psi_stores_running_minimum(monkeypatch):
    """A raw table that rises at every third point is stored as its
    running minimum, and the inverse of the stored table is monotone and
    exact, also next to the flat runs the minimum leaves."""
    points = state_evolution.PSI_GRID[2]
    raw = np.linspace(1.0, 1 / 16, points)
    raw[2::3] += 0.04
    calls = iter(raw)
    monkeypatch.setattr(state_evolution, "_mc_alpha0_mean",
                        lambda *args: next(calls))
    psi = build_psi(16)
    expected = [min(raw[:k + 1]) for k in range(points)]
    np.testing.assert_array_equal(psi.values, expected)

    beliefs = np.linspace(psi.values[-1], psi.values[0], 2001)[1:]
    tau2 = psi.inverse(beliefs)
    assert np.all(np.diff(tau2) <= 0)
    np.testing.assert_allclose(psi.value(tau2), beliefs, rtol=0, atol=1e-12)


def test_default_psi_table_decreases_strictly():
    """The shipped q=16 table needs no running minimum: below the
    noiseless head, where every estimate is exactly 1, the raw
    Monte-Carlo estimates fall strictly at every grid point."""
    values = get_psi(16).values
    head = values == 1.0
    assert head[0] and np.all(np.diff(head.astype(int)) <= 0)
    assert np.all(np.diff(values)[~head[1:]] < 0)


@pytest.mark.parametrize("q", [2, 4, 16, 256])
@pytest.mark.parametrize("chunk", [1 << 18, 1 << 12])
def test_mc_alpha0_mean_matches_reference_bitwise(q, chunk):
    """The in-place Monte-Carlo step draws the same normals and gives the
    same mean as the fresh-array loop, bit for bit, over several chunks
    and a short last one (chunk 1 << 12) as well as over one chunk."""
    for tau2 in (1e-3, 0.3, 40.0):
        got = state_evolution._mc_alpha0_mean(
            q, tau2, 10_000, np.random.default_rng(q), chunk)
        want = reference_mc_alpha0_mean(
            q, tau2, 10_000, np.random.default_rng(q), chunk)
        assert got == want


@pytest.mark.parametrize("q, chunk, samples", [
    (16, 16 * 7, 10_000),    # odd blocks; the last chunk fills one block
    (16, 16, 1_000),         # one row per chunk, the second block empty
])
def test_mc_alpha0_mean_uneven_blocks_match_reference(q, chunk, samples):
    """Chunks of an odd row count, of one row, and a short last chunk
    that leaves the second block empty give the reference mean bit for
    bit."""
    got = state_evolution._mc_alpha0_mean(
        q, 0.3, samples, np.random.default_rng(q), chunk)
    want = reference_mc_alpha0_mean(
        q, 0.3, samples, np.random.default_rng(q), chunk)
    assert got == want


@pytest.mark.parametrize("q", [16, 256])
def test_build_psi_matches_reference_table_bitwise(q):
    """The whole table is the running minimum of the reference estimates
    over PSI_GRID, drawn in order from one stream, bit for bit."""
    lo, hi, points = state_evolution.PSI_GRID
    grid = np.logspace(np.log10(lo), np.log10(hi), int(points))
    rng = rng_stream(0, 100, 0)
    raw = [reference_mc_alpha0_mean(q, t2, 10_000, rng) for t2 in grid]
    psi = build_psi(q, samples=10_000)
    assert np.array_equal(psi.tau2_grid, grid)
    assert np.array_equal(psi.values, np.minimum.accumulate(raw))


class DrawError(Exception):
    pass


class FailingRng:
    """Draws from a numpy Generator, and raises on the third draw."""

    def __init__(self):
        self.rng = np.random.default_rng(5)
        self.calls = 0

    def standard_normal(self, **kwargs):
        self.calls += 1
        if self.calls == 3:
            raise DrawError("helper")
        return self.rng.standard_normal(**kwargs)


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_mc_error_reaches_the_caller(monkeypatch, where):
    """An exception raised while drawing (on the helper thread) or while
    transforming (on the calling thread) is raised by the call with its
    type, after the helper thread has been joined."""
    def failing(x, half):
        raise DrawError("caller")

    threads = threading.active_count()
    if where == "helper":
        rng = FailingRng()
    else:
        rng = np.random.default_rng(5)
        monkeypatch.setattr(state_evolution, "_row_max", failing)
    with pytest.raises(DrawError, match=where):
        state_evolution._mc_alpha0_mean(16, 0.3, 10_000, rng, 1 << 12)
    assert threading.active_count() == threads


def test_mc_alpha0_mean_leaves_no_thread_behind():
    threads = threading.active_count()
    state_evolution._mc_alpha0_mean(16, 0.3, 10_000,
                                    np.random.default_rng(5), 1 << 12)
    assert threading.active_count() == threads


@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_row_max_by_halving_is_the_row_maximum(q):
    x = np.random.default_rng(q).standard_normal((33, q)) * 50.0
    x[3] = -np.inf
    x[4, q - 1] = np.inf
    got = state_evolution._row_max(x, np.empty((33, q // 2)))
    assert np.array_equal(got, x.max(axis=1, keepdims=True))


def test_build_psi_rejects_tiny_samples():
    with pytest.raises(ValueError):
        build_psi(4, samples=100)


# ---------------------------------------------------------------------------
# Scalar message rules
# ---------------------------------------------------------------------------

def test_check_mse_single_input_passthrough():
    out, mse = se_check_mse([0.73], q=8)
    assert out == pytest.approx(0.73, rel=1e-12)
    assert mse == pytest.approx(0.27, rel=1e-12)


def test_check_mse_uniform_inputs():
    out, mse = se_check_mse([1 / 8, 1 / 8, 1 / 8], q=8)
    assert out == pytest.approx(1 / 8, abs=1e-12)
    assert mse == pytest.approx(7 / 8, abs=1e-12)


def test_check_mse_certain_inputs():
    out, mse = se_check_mse([1.0, 1.0, 1.0, 1.0], q=8)
    assert out == pytest.approx(1.0, abs=1e-12)
    assert mse == pytest.approx(0.0, abs=1e-12)


def test_check_mse_domain_error():
    with pytest.raises(ValueError):
        se_check_mse([0.05], q=8)   # below 1/q
    with pytest.raises(ValueError):
        se_check_mse([1.2], q=8)


def test_variable_tau_no_incoming():
    assert se_variable_tau(0.3, []) == pytest.approx(0.3, rel=1e-12)


def test_variable_tau_two_equal():
    assert se_variable_tau(0.3, [0.3, 0.3]) == pytest.approx(0.1, rel=1e-12)


def test_variable_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        se_variable_tau(0.0, [])
    with pytest.raises(ValueError):
        se_variable_tau(0.1, [0.0])


# ---------------------------------------------------------------------------
# Approximate state evolution
# ---------------------------------------------------------------------------

def test_se_bp0_reduces_to_sparc_recursion(psi16):
    field = GF2m(4)
    code, _ = build_code(field, L=128, P=8, dv=3, seed=5)
    n, sigma2, T = 600, 0.05, 12
    trace = approximate_se(code, n, sigma2, T, Schedule("bp0"), psi=psi16)

    tau2 = sigma2 + code.L / n
    expected = [tau2]
    for _ in range(T):
        tau2 = sigma2 + (code.L / n) * (1.0 - psi16.value(tau2))
        expected.append(tau2)
    assert np.allclose(trace.tau2, expected, rtol=1e-12)


def test_se_p0_code_matches_bp0(psi16):
    field = GF2m(4)
    code, _ = build_code(field, L=128, P=0, dv=3, seed=5)
    n, sigma2, T = 600, 0.05, 8
    a = approximate_se(code, n, sigma2, T, Schedule("bpn"), psi=psi16)
    b = approximate_se(code, n, sigma2, T, Schedule("bp0"), psi=psi16)
    assert np.allclose(a.tau2, b.tau2, rtol=1e-12)


def test_se_noiseless_limit_converges(psi16):
    field = GF2m(4)
    code, _ = build_code(field, L=128, P=8, dv=3, seed=5)
    sigma2 = 1e-8
    trace = approximate_se(code, 600, sigma2, 30, Schedule("bpn"), psi=psi16)
    assert np.all(np.diff(trace.tau2) <= 1e-15)
    assert trace.converged
    assert trace.tau2[-1] == pytest.approx(sigma2, rel=1e-3)


def test_se_tau2_lower_bounded_by_sigma2(psi16):
    field = GF2m(4)
    code, _ = build_code(field, L=128, P=8, dv=3, seed=5)
    for ebno in (1.0, 3.0, 6.0):
        sigma2 = code.L / (2 * 480 * 10 ** (ebno / 10))
        trace = approximate_se(code, 600, sigma2, 15, Schedule("bpn"),
                               psi=psi16)
        assert np.all(trace.tau2 >= sigma2 - 1e-15)
        assert np.all(trace.section_mse >= -1e-12)
        assert np.all(trace.section_mse <= 1 - 1 / 16 + 1e-6)
        assert np.all(trace.edge_mse >= -1e-12)
        assert np.all(trace.edge_mse <= 1 - 1 / 16 + 1e-6)


def test_se_more_bp_rounds_never_hurt(psi16):
    field = GF2m(4)
    code, _ = build_code(field, L=128, P=8, dv=3, seed=5)
    sigma2 = 0.04
    t_bp0 = approximate_se(code, 600, sigma2, 10, Schedule("bp0"), psi=psi16)
    t_bpn = approximate_se(code, 600, sigma2, 10, Schedule("bpn"), psi=psi16)
    assert np.all(t_bpn.tau2 <= t_bp0.tau2 + 1e-12)


def test_se_rejects_psi_for_other_field(psi8):
    field = GF2m(4)
    code, _ = build_code(field, L=128, P=8, dv=3, seed=5)
    with pytest.raises(ValueError, match="q=8"):
        approximate_se(code, 600, 0.04, 5, Schedule("bpn"), psi=psi8)


# ---------------------------------------------------------------------------
# Rate tuning
# ---------------------------------------------------------------------------

def _tune_rate(pairs, ebno_db, T, psi):
    """Desk rate sweep (q=16, B=480, n=600, dv=3, label seed 5) of the
    (L, P) pairs under the bpn schedule."""
    built = build_candidates(GF2m(4), pairs, 3, seed=5)
    return score_candidates(built, 480, 600, ebno_db, Schedule("bpn"), T=T,
                            psi=psi)


def test_tune_rate_single_candidate(psi16):
    rows = _tune_rate([(128, 8)], 4.0, 10, psi16)
    assert len(rows) == 1
    assert rows[0].rate == pytest.approx(120 / 128)


def test_tune_rate_p0_equals_bp0_recursion(psi16):
    rows = _tune_rate([(120, 0)], 4.0, 10, psi16)
    code, _ = build_code(GF2m(4), 120, 0, 3, seed=5)
    sigma2 = 120 / (2 * 480 * 10 ** 0.4)
    ref = approximate_se(code, 600, sigma2, 10, Schedule("bp0"), psi=psi16)
    assert rows[0].residual == pytest.approx(float(ref.tau2[-1] - sigma2),
                                             rel=1e-12)


def test_tune_rate_skips_infeasible(psi16):
    """A pair PEG cannot build (P=2 < dv=3) is skipped with a warning."""
    with pytest.warns(UserWarning, match=r"skipping \(L=122, P=2\)"):
        rows = _tune_rate([(128, 8), (122, 2)], 4.0, 5, psi16)
    assert [(row.L, row.P) for row in rows] == [(128, 8)]


def test_shipped_se_rounds_match_scalar_rules(psi16):
    """The batched rounds approximate_se runs agree, edge by edge, with
    the scalar rules on the union of an irregular code (check degrees 21
    and 22) and a regular one (check degree 48), each at its own tau^2,
    with some exactly-uniform messages whose Psi^-1 is inf."""
    q = 16
    codes = [build_code(GF2m(4), L=50, P=7, dv=3, seed=4)[0],
             build_code(GF2m(4), L=128, P=8, dv=3, seed=5)[0]]
    assert set(codes[0].chk_degrees()) == {21, 22}
    assert set(codes[1].chk_degrees()) == {48}
    graph = _SeGraph(codes)
    E = graph.n_edges
    rng = np.random.default_rng(21)

    def messages():
        # skewed toward 1 so the 20-fold check products stay well above
        # the rounding of the 1/q offset
        x = 1 / q + (1 - 1 / q) * rng.uniform(size=E) ** 0.25
        x[rng.choice(E, size=E // 8, replace=False)] = 1 / q
        return x

    v2c, c2v = messages(), messages()
    assert np.isinf(psi16.inverse(c2v)).sum() == E // 8
    tau2 = np.array([0.3, 0.2])

    out_c2v = graph.check_round(v2c)
    out_v2c = graph.variable_round(psi16, tau2, c2v)
    for i, code in enumerate(codes):
        off = graph.edge_slices[i].start
        for e in range(code.n_edges):
            others = [f + off for f in code.chk_edges[code.edge_chk[e]]
                      if f != e]
            expected, _ = se_check_mse(v2c[others], q)
            assert out_c2v[off + e] == pytest.approx(expected, rel=1e-12)

        for e in range(code.n_edges):
            others = [f + off for f in code.var_edges[code.edge_var[e]]
                      if f != e]
            tilde = se_variable_tau(tau2[i], psi16.inverse(c2v[others]))
            expected = psi16.value(tilde)
            assert out_v2c[off + e] == pytest.approx(expected, rel=1e-12)


def _oracle_codes():
    """The se-tune benchmark's rate candidates (L = 124..159 at B=480),
    an irregular code and an edgeless one."""
    field = GF2m(4)
    pairs = [(L, L - 120) for L in range(124, 160)] + [(50, 7), (120, 0)]
    return [build_code(field, L, P, 3, seed=5)[0] for L, P in pairs]


@pytest.mark.parametrize("schedule", ["bpn", "bp0", "bp1kg"])
def test_batch_matches_single_code_reference(psi16, schedule):
    """One batched recursion over all codes gives, for each code, bit for
    bit the trajectory the earlier one-code recursion gives."""
    codes = _oracle_codes()
    sigma2s = [code.L / (2 * 480 * 10 ** 0.425) for code in codes]
    traces = approximate_se_batch(codes, 600, sigma2s, 20,
                                  Schedule(schedule), psi=psi16)
    assert len(traces) == len(codes)
    for code, sigma2, tr in zip(codes, sigma2s, traces):
        tau2, edge_mse, section_mse, converged = reference_approximate_se(
            code, 600, sigma2, 20, Schedule(schedule), psi16)
        assert np.array_equal(tr.tau2, tau2), (code.L, code.P)
        assert np.array_equal(tr.edge_mse, edge_mse), (code.L, code.P)
        assert np.array_equal(tr.section_mse, section_mse), (code.L, code.P)
        assert tr.converged == converged


def test_single_code_matches_reference(psi16):
    """approximate_se, a batch of one, on the desk code at two noise
    levels, one of which converges."""
    code, _ = build_code(GF2m(4), L=128, P=8, dv=3, seed=5)
    for sigma2 in (1e-8, 0.05):
        tr = approximate_se(code, 600, sigma2, 25, Schedule("bpn"),
                            psi=psi16)
        tau2, edge_mse, section_mse, converged = reference_approximate_se(
            code, 600, sigma2, 25, Schedule("bpn"), psi16)
        assert np.array_equal(tr.tau2, tau2)
        assert np.array_equal(tr.edge_mse, edge_mse)
        assert np.array_equal(tr.section_mse, section_mse)
        assert tr.converged == converged
    assert approximate_se(code, 600, 1e-8, 25, Schedule("bpn"),
                          psi=psi16).converged


def test_batch_edge_cases(psi16, psi8):
    assert approximate_se_batch([], 600, [], 5, Schedule("bpn")) == []
    codes = [build_code(GF2m(4), 128, 8, 3, seed=5)[0],
             build_code(GF2m(3), 24, 6, 2, seed=3)[0]]
    with pytest.raises(ValueError, match="different fields"):
        approximate_se_batch(codes, 600, [0.04, 0.04], 5, Schedule("bpn"),
                             psi=psi16)
    tr = approximate_se(codes[0], 600, 0.04, 0, Schedule("bpn"), psi=psi16)
    assert tr.tau2.tolist() == [0.04 + 128 / 600]
    assert np.all(tr.edge_mse == 1 - 1 / 16)


@pytest.mark.parametrize("sigma2s", [[0.04], [0.04, 0.04, 0.04]])
def test_batch_rejects_one_sigma2_per_code_mismatch(psi16, sigma2s):
    codes = [build_code(GF2m(4), L, 8, 3, seed=5)[0] for L in (128, 136)]
    with pytest.raises(ValueError, match="sigma2s holds"):
        approximate_se_batch(codes, 600, sigma2s, 5, Schedule("bpn"),
                             psi=psi16)


@pytest.mark.parametrize("n", [-5, 0])
def test_se_rejects_n_below_one(psi16, n):
    code, _ = build_code(GF2m(4), 128, 8, 3, seed=5)
    with pytest.raises(ValueError, match="n must be at least 1"):
        approximate_se(code, n, 0.04, 5, Schedule("bpn"), psi=psi16)


def test_se_rejects_negative_T(psi16):
    code, _ = build_code(GF2m(4), 128, 8, 3, seed=5)
    with pytest.raises(ValueError, match="T must be non-negative"):
        approximate_se(code, 600, 0.04, -3, Schedule("bpn"), psi=psi16)


@pytest.mark.parametrize("sigma2", [np.nan, -0.1, 0.0, np.inf])
def test_se_rejects_sigma2_not_finite_and_positive(psi16, sigma2):
    code, _ = build_code(GF2m(4), 128, 8, 3, seed=5)
    with pytest.raises(ValueError, match="sigma2 must be finite and "
                                         "positive"):
        approximate_se(code, 600, sigma2, 5, Schedule("bpn"), psi=psi16)


def _count_variable_rounds(monkeypatch):
    """Patch _SeGraph.variable_round to count its calls; returns the
    one-element list that holds the count."""
    calls = [0]
    variable_round = _SeGraph.variable_round

    def counted(self, *args):
        calls[0] += 1
        return variable_round(self, *args)

    monkeypatch.setattr(_SeGraph, "variable_round", counted)
    return calls


def _rounds_with_reuse(traces, T, schedule):
    """BP rounds the recursion runs for these traces: rounds(t) -
    rounds(t - 1) at an iteration whose tau^2 equals the previous
    iteration's bit for bit in every code, rounds(t) elsewhere."""
    tau2 = np.stack([tr.tau2 for tr in traces])
    total = 0
    for t in range(T):
        if t and np.array_equal(tau2[:, t], tau2[:, t - 1]):
            total += schedule.rounds(t) - schedule.rounds(t - 1)
        else:
            total += schedule.rounds(t)
    return total


@pytest.mark.parametrize("schedule, ebno_db, rounds", [
    ("bpn", 4.25, 53), ("bpn", 3.0, 325), ("bp1kg", 4.75, 14)])
def test_se_reuses_rounds_once_tau2_is_stationary(
        monkeypatch, psi16, schedule, ebno_db, rounds):
    """Once tau^2 repeats bit for bit, an iteration runs only the rounds
    the previous one did not: a converged desk trajectory runs 53 of the
    325 rounds, one below threshold (3.0 dB) never repeats and runs all
    325, and bp1kg runs none at its stationary iterations.  The traces
    stay bitwise the reference's, which resets every iteration."""
    code, _ = build_code(GF2m(4), 128, 8, 3, seed=5)
    sigma2 = snr_to_sigma2(ebno_db, 480, 128)
    calls = _count_variable_rounds(monkeypatch)
    tr = approximate_se(code, 600, sigma2, 25, Schedule(schedule),
                        psi=psi16)
    assert calls[0] == _rounds_with_reuse([tr], 25, Schedule(schedule))
    assert calls[0] == rounds
    tau2, edge_mse, section_mse, converged = reference_approximate_se(
        code, 600, sigma2, 25, Schedule(schedule), psi16)
    assert np.array_equal(tr.tau2, tau2)
    assert np.array_equal(tr.edge_mse, edge_mse)
    assert np.array_equal(tr.section_mse, section_mse)
    assert tr.converged == converged


def test_batch_reuses_rounds_only_when_every_code_repeats(monkeypatch,
                                                          psi16):
    """A batch reuses the previous iteration's messages only when every
    code's tau^2 repeats: with a below-threshold code in the batch, the
    converged one's rounds are all run again."""
    codes = [build_code(GF2m(4), 128, 8, 3, seed=5)[0]] * 2
    sigma2s = [snr_to_sigma2(e, 480, 128) for e in (4.25, 3.0)]
    calls = _count_variable_rounds(monkeypatch)
    traces = approximate_se_batch(codes, 600, sigma2s, 25, Schedule("bpn"),
                                  psi=psi16)
    assert calls[0] == _rounds_with_reuse(traces, 25, Schedule("bpn")) == 325
    calls[0] = 0
    traces = approximate_se_batch(codes, 600, sigma2s[:1] * 2, 25,
                                  Schedule("bpn"), psi=psi16)
    assert calls[0] == _rounds_with_reuse(traces, 25, Schedule("bpn")) == 53


def test_tune_rate_matches_single_code_runs(psi16):
    """The batched rate sweep gives each candidate the residual of its
    own approximate_se run, bit for bit."""
    field = GF2m(4)
    pairs = [(124, 4), (128, 8), (140, 20), (159, 39)]
    rows = _tune_rate(pairs, 4.25, 20, psi16)
    assert [(row.L, row.P) for row in rows] == sorted(
        pairs, key=lambda p: (p[0] - p[1]) / p[0])
    for row in rows:
        code, _ = build_code(field, row.L, row.P, 3, seed=5)
        sigma2 = snr_to_sigma2(4.25, 480, row.L)
        tr = approximate_se(code, 600, sigma2, 20, Schedule("bpn"),
                            psi=psi16)
        assert row.residual == float(tr.tau2[-1] - sigma2)
        assert row.converged == tr.converged
