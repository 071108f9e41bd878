import json

import pytest

from srldpc.harness import (
    ConfigError, SimConfig, _matrix_for, build_experiment, load_config,
    rate_sweep, run_point, save_config,
    se_predict, se_vs_truth, sweep, write_rate_csv,
    write_se_csv, write_se_vs_truth_csv, RESULTS_HEADER,
)
from srldpc.state_evolution import get_psi

SMALL = dict(m=3, L=24, P=6, dv=2, B=54, n=120, amp_iters=8,
             final_bp_iters=10, seed=3, trials=10, target_errors=5,
             ebno_db=(8.0,))


@pytest.fixture(scope="module")
def psi8():
    return get_psi(8, samples=50_000, seed=0)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_config_b_invariant():
    with pytest.raises(ConfigError):
        SimConfig(B=100)


def test_config_rejects_bad_schedule():
    with pytest.raises(ConfigError):
        SimConfig(schedule="fancy")


def test_config_rejects_bad_policy():
    with pytest.raises(ConfigError):
        SimConfig(matrix_policy="sometimes")


def test_config_file_round_trip(tmp_path):
    cfg = SimConfig(**SMALL)
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("m=4\nwhatever=3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_config_duplicate_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("m=4\nm=4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_config_bad_value(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("m=four\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_missing_equals(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("m 4\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path)


def test_config_comments_and_blanks(tmp_path):
    cfg = SimConfig(**SMALL)
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    text = "# header comment\n\n" + path.read_text()
    path.write_text(text)
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# run_point
# ---------------------------------------------------------------------------

def test_run_point_deterministic():
    cfg = SimConfig(**SMALL)
    a = run_point(cfg, 8.0)
    b = run_point(cfg, 8.0)
    assert (a.trials, a.bit_errors, a.codeword_errors) == \
           (b.trials, b.bit_errors, b.codeword_errors)
    assert a.mean_tau2_final == b.mean_tau2_final


def test_run_point_early_stop():
    cfg = SimConfig(**{**SMALL, "ebno_db": (0.0,), "trials": 200,
                       "target_errors": 3})
    row = run_point(cfg, 0.0)
    assert row.codeword_errors >= 3
    assert row.trials < 200


def test_run_point_noiseless_limit_no_errors():
    cfg = SimConfig(**{**SMALL, "ebno_db": (30.0,), "trials": 100,
                       "target_errors": 1000})
    row = run_point(cfg, 30.0)
    assert row.trials == 100
    assert row.cer == 0.0
    assert row.ber == 0.0


def test_run_point_per_trial_matrix_policy():
    cfg = SimConfig(**{**SMALL, "matrix_policy": "per_trial", "trials": 6,
                       "target_errors": 100, "ebno_db": (8.0,)})
    row = run_point(cfg, 8.0)
    assert row.trials == 6


@pytest.mark.parametrize("schedule, expected", [
    ("bpn", (64, 3, 57, 531, 0)),
    ("bp0", (64, 4, 80, 1264, 0)),
])
def test_run_point_desk_outcomes_pinned(schedule, expected):
    """Seeded desk outcomes at the waterfall point (master seed 1, trials
    0..63, 4.25 dB): (trials, codeword errors, bit errors, AMP
    iterations, aborts).  A change to any seeded result shows here."""
    cfg = SimConfig(schedule=schedule, seed=1, trials=64, target_errors=64,
                    ebno_db=(4.25,))
    row = run_point(cfg, 4.25)
    iters = int(round(row.mean_amp_iters * row.trials))
    assert (row.trials, row.codeword_errors, row.bit_errors, iters,
            row.aborts) == expected


def test_matrix_for_per_trial_needs_trial():
    cfg = SimConfig(**{**SMALL, "matrix_policy": "per_trial"})
    with pytest.raises(ConfigError, match="per_trial"):
        _matrix_for(cfg, 0)
    assert _matrix_for(cfg, 0, 3) != _matrix_for(cfg, 0, 4)
    fixed = SimConfig(**SMALL)
    assert _matrix_for(fixed, 0) == _matrix_for(fixed, 0, 3)


@pytest.mark.parametrize("overrides", [
    {"m": 9, "B": 18 * 9},     # no GF(2^9)
    {"P": 1, "B": 23 * 3},     # dv=2 > P=1
])
def test_build_experiment_impossible_config(overrides):
    with pytest.raises(ConfigError):
        build_experiment(SimConfig(**{**SMALL, **overrides}))


# ---------------------------------------------------------------------------
# sweep and CSV emission
# ---------------------------------------------------------------------------

def test_sweep_outputs(tmp_path):
    cfg = SimConfig(**{**SMALL, "ebno_db": (8.0, 9.0), "trials": 2,
                       "target_errors": 50})
    out = tmp_path / "res.csv"
    rows = sweep(cfg, out_csv=out)
    text = out.read_text().splitlines()
    assert text[0] == RESULTS_HEADER
    assert len(text) == 3
    meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
    assert meta["matrix_policy"] == "fixed"
    assert meta["primitive_polynomial"] == "0xB"
    assert meta["config"]["seed"] == 3
    plot = json.loads((tmp_path / "res.csv.plot.json").read_text())
    assert plot["yscale"] == "log"
    assert len(plot["series"][0]["x"]) == 2


def test_sweep_csv_golden(tmp_path):
    """Schema freeze: rerunning the same 2-trial config reproduces the
    CSV byte for byte except the wall-clock column."""
    cfg = SimConfig(**{**SMALL, "ebno_db": (8.0, 9.0), "trials": 2,
                       "target_errors": 50})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    sweep(cfg, out_csv=out1)
    sweep(cfg, out_csv=out2)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(out1) == strip_wall(out2)
    header_no_wall = RESULTS_HEADER.rsplit(",", 1)[0]
    assert strip_wall(out1)[0] == header_no_wall
    for line in out1.read_text().splitlines()[1:]:
        assert len(line.split(",")) == 9


# ---------------------------------------------------------------------------
# SE entry points
# ---------------------------------------------------------------------------

def test_se_predict_and_csv(tmp_path, psi8):
    cfg = SimConfig(**SMALL)
    trace = se_predict(cfg, 8.0, psi=psi8)
    assert trace.tau2.size == cfg.amp_iters + 1
    path = tmp_path / "se.csv"
    write_se_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,tau2_predicted"
    assert len(lines) == cfg.amp_iters + 2


def test_se_vs_truth_rows(tmp_path, psi8):
    cfg = SimConfig(**{**SMALL, "amp_iters": 6})
    rows = se_vs_truth(cfg, 8.0, trials=25, psi=psi8)
    assert len(rows) == 7
    t0, mc0, se0, rel0 = rows[0]
    sigma2 = cfg.L / (2 * cfg.B * 10 ** 0.8)
    expected0 = sigma2 + cfg.L / cfg.n
    # both series start at sigma^2 + L/n up to MC error
    assert mc0 == pytest.approx(expected0, rel=0.1)
    assert se0 == pytest.approx(expected0, rel=1e-9)
    path = tmp_path / "svt.csv"
    write_se_vs_truth_csv(rows, path)
    assert path.read_text().splitlines()[0] == "t,tau2_mc,tau2_se,rel_err"


def test_se_vs_truth_requires_trials(psi8):
    cfg = SimConfig(**SMALL)
    with pytest.raises(ValueError):
        se_vs_truth(cfg, 8.0, trials=5, psi=psi8)


def test_se_vs_truth_per_trial_matrices(psi8):
    """Under per_trial every trial decodes against its own matrix, as in
    run_trial, so the measured trajectory differs from the fixed one."""
    base = {**SMALL, "amp_iters": 4}
    per_trial = se_vs_truth(
        SimConfig(**{**base, "matrix_policy": "per_trial"}), 8.0,
        trials=20, psi=psi8)
    fixed = se_vs_truth(SimConfig(**base), 8.0, trials=20, psi=psi8)
    assert [row[2] for row in per_trial] == [row[2] for row in fixed]
    assert [row[1] for row in per_trial] != [row[1] for row in fixed]
    expected0 = SMALL["L"] / (2 * SMALL["B"] * 10 ** 0.8) \
        + SMALL["L"] / SMALL["n"]
    assert per_trial[0][1] == pytest.approx(expected0, rel=0.1)


def test_rate_sweep_rows_and_csv(tmp_path, psi8):
    cfg = SimConfig(**{**SMALL, "ebno_db": (6.0,)})
    rows = rate_sweep(cfg, [0.75, 0.6], psi=psi8)
    assert len(rows) == 2
    assert rows[0].rate < rows[1].rate
    path = tmp_path / "rates.csv"
    write_rate_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "R_ldpc,L,P,tau2_final_minus_sigma2"
    assert len(lines) == 3


def test_rate_sweep_rejects_bad_rate(psi8):
    cfg = SimConfig(**SMALL)
    with pytest.raises(ConfigError):
        rate_sweep(cfg, [1.5], psi=psi8)
