import numpy as np
import pytest

from srldpc.denoiser import Schedule
from srldpc.gf import GF2m
from srldpc.ldpc import build_code
from srldpc.state_evolution import (
    _se_check_maps, _se_check_round, _se_variable_round, approximate_se,
    build_psi, get_psi, se_check_mse, se_variable_tau, tune_rate,
)


@pytest.fixture(scope="module")
def psi16():
    return get_psi(16, samples=50_000, seed=0)


@pytest.fixture(scope="module")
def psi8():
    return get_psi(8, samples=50_000, seed=0)


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


# ---------------------------------------------------------------------------
# Rate tuning
# ---------------------------------------------------------------------------

def test_tune_rate_single_candidate(psi16):
    field = GF2m(4)
    rows = tune_rate(field, [(128, 8)], B=480, n=600, dv=3, ebno_db=4.0,
                     T=10, seed=5, psi=psi16)
    assert len(rows) == 1
    assert rows[0].rate == pytest.approx(120 / 128)


def test_tune_rate_p0_equals_bp0_recursion(psi16):
    field = GF2m(4)
    rows = tune_rate(field, [(120, 0)], B=480, n=600, dv=3, ebno_db=4.0,
                     T=10, seed=5, psi=psi16)
    code, _ = build_code(field, 120, 0, 3, seed=5)
    sigma2 = 120 / (2 * 480 * 10 ** 0.4)
    ref = approximate_se(code, 600, sigma2, 10, Schedule("bp0"), psi=psi16)
    assert rows[0].residual == pytest.approx(float(ref.tau2[-1] - sigma2),
                                             rel=1e-12)


def test_tune_rate_skips_infeasible(psi16):
    field = GF2m(4)
    with pytest.warns(UserWarning):
        rows = tune_rate(field, [(128, 8), (130, 8)], B=480, n=600, dv=3,
                         ebno_db=4.0, T=5, seed=5, psi=psi16)
    assert len(rows) == 1


def test_shipped_se_rounds_match_scalar_rules(psi16):
    """The vectorized rounds approximate_se runs agree, edge by edge, with
    the scalar rules on an irregular code (check degrees 21 and 22), with
    some exactly-uniform messages whose Psi^-1 is inf."""
    q = 16
    code, _ = build_code(GF2m(4), L=50, P=7, dv=3, seed=4)
    assert set(code.chk_degrees()) == {21, 22}
    E = code.n_edges
    rng = np.random.default_rng(21)

    def messages():
        # skewed toward 1 so the 20-fold check products stay well above
        # the rounding of the 1/q offset
        x = 1 / q + (1 - 1 / q) * rng.uniform(size=E) ** 0.25
        x[rng.choice(E, size=E // 8, replace=False)] = 1 / q
        return x

    v2c, c2v = messages(), messages()
    assert np.isinf(psi16.inverse(c2v)).sum() == E // 8
    tau2 = 0.3

    out_c2v = _se_check_round(q, v2c, _se_check_maps(code))
    for e in range(E):
        others = [f for f in code.chk_edges[code.edge_chk[e]] if f != e]
        expected, _ = se_check_mse(v2c[others], q)
        assert out_c2v[e] == pytest.approx(expected, rel=1e-12)

    out_v2c = _se_variable_round(psi16, tau2, c2v, code.edge_var, code.L)
    for e in range(E):
        others = [f for f in code.var_edges[code.edge_var[e]] if f != e]
        tilde = se_variable_tau(tau2, psi16.inverse(c2v[others]))
        expected = psi16.value(tilde)
        assert out_v2c[e] == pytest.approx(expected, rel=1e-12)
