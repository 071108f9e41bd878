import os
import subprocess

import numpy as np
import pytest

from srldpc.cli import main
from srldpc.harness import ConfigError, SimConfig, save_config

SMALL = dict(m=3, L=24, P=6, dv=2, B=54, n=120, amp_iters=8,
             final_bp_iters=10, seed=3, trials=4, target_errors=5,
             ebno_db=(8.0,))


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.txt"
    save_config(SimConfig(**SMALL), path)
    return str(path)


def test_console_script_help():
    out = subprocess.run(["srldpc", "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "simulate" in out.stdout


def test_simulate_command(tmp_path, cfg_path, capsys):
    out = tmp_path / "res.csv"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "res.csv.meta.json").exists()
    assert (tmp_path / "res.csv.plot.json").exists()


def test_simulate_bad_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("m=4\nnot_a_key=1\n")
    rc = main(["simulate", "--config", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == 1


def test_missing_config_exit_1(tmp_path, capsys):
    """A config that is missing, is a directory or is not UTF-8 text."""
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("m=4  # Galois field \xe9\n".encode("latin-1"))
    for path in (tmp_path / "nope.txt", tmp_path, not_utf8):
        rc = main(["se", "--config", str(path), "--ebno", "8.0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unreadable_bits_and_obs_exit_1(tmp_path, cfg_path, capsys):
    out = tmp_path / "out.txt"
    assert main(["encode", "--config", cfg_path, "--bits", str(tmp_path),
                 "--out", str(out)]) == 1
    assert main(["decode", "--config", cfg_path, "--obs", str(tmp_path),
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert "runtime failure" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [], ["simulate"],
    ["--threads", "2", "simulate", "--config", "c.txt", "--out", "r.csv"],
])
def test_usage_error_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_se_command(tmp_path, cfg_path):
    out = tmp_path / "se.csv"
    rc = main(["se", "--config", cfg_path, "--ebno", "8.0",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,tau2_predicted")


def test_se_vs_truth_command(tmp_path, cfg_path):
    out = tmp_path / "svt.csv"
    rc = main(["se-vs-truth", "--config", cfg_path, "--ebno", "8.0",
               "--trials", "20", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,tau2_mc,tau2_se,rel_err")


def test_tune_rate_command(tmp_path, cfg_path, capsys):
    out = tmp_path / "rates.csv"
    rc = main(["tune-rate", "--config", cfg_path, "--rates", "0.75,0.6",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "<-- min" in captured.out
    assert out.read_text().startswith("R_ldpc,L,P,tau2_final_minus_sigma2")


def test_tune_rate_bad_rates_exit_1(cfg_path):
    assert main(["tune-rate", "--config", cfg_path, "--rates", "2.0"]) == 1


def test_encode_decode_round_trip(tmp_path, cfg_path):
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=SMALL["B"])
    bits_path = tmp_path / "bits.txt"
    bits_path.write_text("".join(str(b) for b in bits))

    x_path = tmp_path / "x.txt"
    rc = main(["encode", "--config", cfg_path, "--bits", str(bits_path),
               "--out", str(x_path)])
    assert rc == 0
    x = np.loadtxt(x_path)
    assert x.shape == (SMALL["n"],)

    # noiseless observation decodes back to the same payload
    out_path = tmp_path / "bits_out.txt"
    rc = main(["decode", "--config", cfg_path, "--obs", str(x_path),
               "--out", str(out_path)])
    assert rc == 0
    decoded = np.loadtxt(out_path, dtype=np.int64)
    assert np.array_equal(decoded, bits)


def test_decode_non_finite_obs_exit_1(tmp_path, cfg_path):
    obs_path = tmp_path / "y.txt"
    obs_path.write_text("nan\n" * SMALL["n"])
    out_path = tmp_path / "bits_out.txt"
    rc = main(["decode", "--config", cfg_path, "--obs", str(obs_path),
               "--out", str(out_path)])
    assert rc == 1
    assert not out_path.exists()


@pytest.fixture()
def per_trial_cfg_path(tmp_path):
    path = tmp_path / "cfg_per_trial.txt"
    save_config(SimConfig(**SMALL, matrix_policy="per_trial"), path)
    return str(path)


def test_encode_decode_per_trial_exit_1(tmp_path, per_trial_cfg_path,
                                        capsys):
    """per_trial has no single design matrix to encode or decode with."""
    bits_path = tmp_path / "bits.txt"
    bits_path.write_text("0" * SMALL["B"])
    x_path = tmp_path / "x.txt"
    assert main(["encode", "--config", per_trial_cfg_path,
                 "--bits", str(bits_path), "--out", str(x_path)]) == 1
    assert not x_path.exists()
    obs_path = tmp_path / "y.txt"
    obs_path.write_text("0.0\n" * SMALL["n"])
    out_path = tmp_path / "bits_out.txt"
    assert main(["decode", "--config", per_trial_cfg_path,
                 "--obs", str(obs_path), "--out", str(out_path)]) == 1
    assert not out_path.exists()
    assert "per_trial" in capsys.readouterr().err


def test_se_vs_truth_per_trial_command(tmp_path, per_trial_cfg_path):
    out = tmp_path / "svt.csv"
    rc = main(["se-vs-truth", "--config", per_trial_cfg_path,
               "--ebno", "8.0", "--trials", "20", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,tau2_mc,tau2_se,rel_err")


def test_se_vs_truth_too_few_trials_exit_1(cfg_path):
    assert main(["se-vs-truth", "--config", cfg_path, "--ebno", "8.0",
                 "--trials", "5"]) == 1


def test_tune_rate_non_numeric_rates_exit_1(cfg_path):
    assert main(["tune-rate", "--config", cfg_path, "--rates", "abc"]) == 1


def test_decode_malformed_obs_exit_1(tmp_path, cfg_path):
    obs_path = tmp_path / "y.txt"
    obs_path.write_text("0.5\nnot-a-number\n" * (SMALL["n"] // 2))
    out_path = tmp_path / "bits_out.txt"
    rc = main(["decode", "--config", cfg_path, "--obs", str(obs_path),
               "--out", str(out_path)])
    assert rc == 1
    assert not out_path.exists()


def test_library_value_error_exit_2(tmp_path, cfg_path, monkeypatch, capsys):
    """A ValueError raised inside the library is a runtime failure."""
    def failing_decode(*args, **kwargs):
        raise ValueError("numerical failure")

    monkeypatch.setattr("srldpc.cli.decode", failing_decode)
    obs_path = tmp_path / "y.txt"
    obs_path.write_text("0.0\n" * SMALL["n"])
    out_path = tmp_path / "bits_out.txt"
    rc = main(["decode", "--config", cfg_path, "--obs", str(obs_path),
               "--out", str(out_path)])
    assert rc == 2
    assert "runtime failure: ValueError" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 1, "config error: "),
    (ValueError, 2, "runtime failure: ValueError: "),
])
def test_simulate_worker_error_keeps_its_type(tmp_path, cpus, monkeypatch,
                                              capsys, error, code, prefix):
    """An error raised while a forked worker decodes a batch reaches the
    CLI with its type, so the exit code means what it does inline."""
    def failing_decode_batch(*args, **kwargs):
        raise error(f"decoded in {os.getpid()}")

    cpus(2)
    monkeypatch.setattr("srldpc.harness.decode_batch", failing_decode_batch)
    cfg = tmp_path / "cfg.txt"
    save_config(SimConfig(**{**SMALL, "trials": 16}), cfg)
    rc = main(["simulate", "--config", str(cfg),
               "--out", str(tmp_path / "res.csv")])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + "decoded in ")
    assert int(err.split()[-1]) != os.getpid()


def test_encode_wrong_bit_count_exit_1(tmp_path, cfg_path):
    bits_path = tmp_path / "bits.txt"
    bits_path.write_text("0101")
    rc = main(["encode", "--config", cfg_path, "--bits", str(bits_path),
               "--out", str(tmp_path / "x.txt")])
    assert rc == 1


def test_encode_nonbinary_bits_exit_1(tmp_path, cfg_path):
    bits_path = tmp_path / "bits.txt"
    bits_path.write_text("0102" * (SMALL["B"] // 4))
    rc = main(["encode", "--config", cfg_path, "--bits", str(bits_path),
               "--out", str(tmp_path / "x.txt")])
    assert rc == 1


def test_seed_override_changes_results(tmp_path, cfg_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--seed", "3", "simulate", "--config", cfg_path,
                 "--out", str(out1)]) == 0
    assert main(["--seed", "4", "simulate", "--config", cfg_path,
                 "--out", str(out2)]) == 0
    # the mean-tau2 column reflects the different noise realizations
    t1 = [l.split(",")[7] for l in out1.read_text().splitlines()[1:]]
    t2 = [l.split(",")[7] for l in out2.read_text().splitlines()[1:]]
    assert t1 != t2


# 4000 dB is finite, but 10 ** (Eb/N0 / 10) overflows inside sigma^2
@pytest.mark.parametrize("ebno", ["nan", "inf", "4000"])
def test_simulate_non_finite_ebno_exit_1(tmp_path, ebno):
    path = tmp_path / "cfg.txt"
    save_config(SimConfig(**SMALL), path)
    path.write_text(path.read_text().replace("ebno_db=8", f"ebno_db={ebno}"))
    out = tmp_path / "res.csv"
    rc = main(["simulate", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["se", "--ebno", "nan"],
    ["se-vs-truth", "--ebno", "inf", "--trials", "20"],
    ["se", "--ebno", "4000"],
    ["se", "--ebno=-4000"],
])
def test_se_non_finite_ebno_exit_1(tmp_path, cfg_path, argv, capsys):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--config", cfg_path, "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_se_infeasible_degree_profile_exit_1(tmp_path, cfg_path, capsys):
    """A config whose outer code PEG cannot build (dv=7 > P=6) is
    rejected when loaded, before --out is created."""
    path = tmp_path / "dv7.txt"
    path.write_text(open(cfg_path).read().replace("dv=2", "dv=7"))
    out = tmp_path / "out.csv"
    rc = main(["se", "--config", str(path), "--ebno", "8", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "dv=7 > P=6" in capsys.readouterr().err


def test_tune_rate_no_feasible_candidate_exit_1(tmp_path, capsys):
    """Rate 0.944 maps to (L=36, P=2), infeasible with dv=3; with no
    candidate left tune-rate fails before --out is created."""
    path = tmp_path / "cfg.txt"
    save_config(SimConfig(**{**SMALL, "m": 4, "L": 40, "P": 6, "dv": 3,
                             "B": 136}), path)
    out = tmp_path / "rates.csv"
    with pytest.warns(UserWarning, match="skipping"):
        rc = main(["tune-rate", "--config", str(path), "--rates", "0.944",
                   "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "no feasible (L, P) candidates" in capsys.readouterr().err


def _rank_deficient_cfg(tmp_path):
    """Over GF(2) the L=24, P=6, dv=2 graph has a parity matrix of rank
    5 for every label draw."""
    path = tmp_path / "gf2.txt"
    save_config(SimConfig(**{**SMALL, "m": 1, "B": 18}), path)
    return str(path)


def test_se_rank_deficient_code_exit_1(tmp_path, capsys):
    """The code is built before --out is created."""
    out = tmp_path / "se.csv"
    rc = main(["se", "--config", _rank_deficient_cfg(tmp_path),
               "--ebno", "8", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "rank 5 < 6 rows" in capsys.readouterr().err


def test_tune_rate_rank_deficient_codes_exit_1(tmp_path, capsys):
    """Every candidate is built before --out is created; with none
    left tune-rate fails."""
    out = tmp_path / "rates.csv"
    with pytest.warns(UserWarning, match="rank 5 < 6 rows"):
        rc = main(["tune-rate", "--config", _rank_deficient_cfg(tmp_path),
                   "--rates", "0.75", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "no feasible (L, P) candidates" in capsys.readouterr().err


def test_unwritable_out_fails_before_any_trial(tmp_path, cfg_path,
                                               monkeypatch, capsys):
    """An --out that cannot be opened is a config error, raised before
    the first trial or SE run rather than after the whole computation."""
    def no_trials(*args, **kwargs):
        raise AssertionError("work ran before --out was opened")

    monkeypatch.setattr("srldpc.harness.run_point", no_trials)
    monkeypatch.setattr("srldpc.harness.decode", no_trials)
    monkeypatch.setattr("srldpc.harness.decode_batch", no_trials)
    monkeypatch.setattr("srldpc.harness.approximate_se", no_trials)
    monkeypatch.setattr("srldpc.harness.score_candidates", no_trials)
    out = str(tmp_path / "missing" / "out.csv")
    for argv in (["simulate"],
                 ["se-vs-truth", "--ebno", "8.0", "--trials", "20"],
                 ["se", "--ebno", "8.0"],
                 ["tune-rate", "--rates", "0.75,0.6"]):
        assert main(argv + ["--config", cfg_path, "--out", out]) == 1
        assert "cannot write" in capsys.readouterr().err


NEGATIVE_SEED_COMMANDS = [
    ["simulate"],
    ["se", "--ebno", "8.0"],
    ["se-vs-truth", "--ebno", "8.0", "--trials", "20"],
    ["tune-rate", "--rates", "0.75"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SEED_COMMANDS)
def test_negative_seed_override_exit_1(tmp_path, cfg_path, argv, capsys):
    out = tmp_path / "out.csv"
    rc = main(["--seed", "-1"] + argv + ["--config", cfg_path,
                                         "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", NEGATIVE_SEED_COMMANDS)
def test_negative_seed_in_config_exit_1(tmp_path, cfg_path, argv, capsys):
    path = tmp_path / "neg.txt"
    path.write_text(open(cfg_path).read().replace("seed=3", "seed=-1"))
    out = tmp_path / "out.csv"
    rc = main(argv + ["--config", str(path), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "seed must be nonnegative" in capsys.readouterr().err
