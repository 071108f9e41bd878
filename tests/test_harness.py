import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import openblas_thread_getters
from srldpc import denoiser, harness
from srldpc.amp import tau2_floor_for
from srldpc.codec import DesignMatrix, snr_to_sigma2
from srldpc.denoiser import Schedule
from srldpc.harness import (
    ConfigError, PointResult, SimConfig, build_experiment, design_matrix,
    load_config, rate_sweep, run_point, save_config,
    se_predict, se_vs_truth, sweep, write_rate_csv,
    write_se_csv, write_se_vs_truth_csv, RESULTS_HEADER,
)
from srldpc.ldpc import build_code
from srldpc.state_evolution import approximate_se, get_psi

SMALL = dict(m=3, L=24, P=6, dv=2, B=54, n=120, amp_iters=8,
             final_bp_iters=10, seed=3, trials=10, target_errors=5,
             ebno_db=(8.0,))


@pytest.fixture(scope="module")
def psi8():
    return get_psi(8, samples=50_000)


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


def test_config_round_trip_keeps_ebno_digits(tmp_path):
    cfg = SimConfig(**{**SMALL, "ebno_db": (4.123456789, 3.0)})
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert "ebno_db=4.123456789,3\n" in path.read_text()
    assert load_config(path) == cfg
    row = PointResult(4.123456789, 1, 0, 0.0, 0, 0.0, 0.0, 0.0, 0.0)
    assert row.csv_row().startswith("4.123456789,1,0,")


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


@pytest.mark.parametrize("policy", ["fixed", "per_trial"])
def test_run_point_target_errors_matches_serial_loop(policy):
    """Batched run_point stops at the trial where a one-by-one loop
    reaches target_errors (here inside the first and the third batch of
    eight) and tallies the same trials."""
    cfg = SimConfig(**{**SMALL, "trials": 40, "target_errors": 3,
                       "ebno_db": (3.0,), "matrix_policy": policy})
    _, code, encoder = build_experiment(cfg)
    sigma2 = harness._sigma2(cfg, 3.0)
    params = harness.decoder_params(cfg, tau2_floor_for(sigma2))
    A = design_matrix(cfg, 0) if policy == "fixed" else None
    trials = bit_errors = cw_errors = iters = aborts = 0
    tau2 = 0.0
    for trial in range(cfg.trials):
        be, cw, it, t2, aborted = harness.run_trial(
            cfg, code, encoder, A, sigma2, params, 0, trial)
        trials += 1
        bit_errors += be
        cw_errors += int(cw)
        iters += it
        tau2 += t2
        aborts += int(aborted)
        if cw_errors >= cfg.target_errors:
            break
    assert trials < cfg.trials and trials % 8 != 0

    row = run_point(cfg, 3.0)
    assert (row.ebno_db, row.trials, row.bit_errors, row.codeword_errors,
            row.aborts) == (3.0, trials, bit_errors, cw_errors, aborts)
    assert row.ber == bit_errors / (trials * cfg.B)
    assert row.cer == cw_errors / trials
    assert row.mean_amp_iters == iters / trials
    assert row.mean_tau2_final == tau2 / trials


@pytest.mark.parametrize("overrides", [
    {"trials": 20, "target_errors": 100, "ebno_db": (4.0,)},
    {"trials": 20, "target_errors": 100, "ebno_db": (4.0,),
     "matrix_policy": "per_trial"},
    # stops inside the first batch while the second is in flight
    {"trials": 40, "target_errors": 3, "ebno_db": (3.0,)},
], ids=["fixed", "per_trial", "stop_in_flight"])
def test_run_point_same_for_one_and_two_workers(cpus, overrides):
    cfg = SimConfig(**{**SMALL, **overrides})
    ebno = cfg.ebno_db[0]
    rows = []
    for count in (1, 2):
        cpus(count)
        rows.append(replace(run_point(cfg, ebno), wall_s=0.0))
    assert rows[0] == rows[1]
    assert rows[0].codeword_errors > 0
    if cfg.target_errors < cfg.trials:
        assert rows[0].trials < harness.BATCH


def test_run_point_leaves_no_worker_running(cpus, monkeypatch):
    """The pool is gone when run_point returns, after an early stop too,
    and when a worker raises; the error keeps its type."""
    cpus(2)
    cfg = SimConfig(**{**SMALL, "trials": 40, "target_errors": 3,
                       "ebno_db": (3.0,)})
    run_point(cfg, 3.0)
    assert multiprocessing.active_children() == []

    def failing_decode_batch(*args, **kwargs):
        raise ConfigError(f"decoded in {os.getpid()}")

    monkeypatch.setattr(harness, "decode_batch", failing_decode_batch)
    with pytest.raises(ConfigError, match="decoded in") as info:
        run_point(cfg, 3.0)
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


def test_run_point_raises_when_a_worker_dies(cpus, monkeypatch):
    """A worker that exits without a result (killed by the kernel, say)
    is a runtime error, not a run that waits for it forever."""
    cpus(2)
    monkeypatch.setattr(harness, "decode_batch",
                        lambda *args, **kwargs: os._exit(1))
    with pytest.raises(RuntimeError, match="worker process exited"):
        run_point(SimConfig(**{**SMALL, "trials": 16}), 8.0)
    assert multiprocessing.active_children() == []


def _fake_batch(errors, slow, pad_bytes):
    """A decode_trials stand-in: trial t fails iff t is in errors, batch
    0 sleeps `slow` seconds, and each result records when it was done
    and carries pad_bytes of padding."""
    def decode_trials(cfg, code, encoder, A, sigma2, params, snr_index,
                      trials):
        if trials[0] == 0:
            time.sleep(slow)
        results = []
        for t in trials:
            res = SimpleNamespace(
                bits=np.zeros(cfg.B, dtype=np.int64),
                symbols=np.array([int(t in errors)]),
                termination_reason="exhausted", iterations_used=1,
                tau2_trace=np.array([float(t)]), done=time.monotonic())
            results.append((res.bits, np.zeros(1, dtype=np.int64), res))
        results[0][2].pad = np.zeros(pad_bytes, dtype=np.uint8)
        return results
    return decode_trials


def test_workers_go_on_while_a_batch_is_slow(cpus, monkeypatch):
    """Batch 0 is slow and every batch's result is larger than a Linux
    pipe holds.  The other worker still decodes at least three batches
    before batch 0 is done, instead of waiting for the caller to read
    its first result, and run_point still tallies in trial order: it
    stops at the trial that reaches target_errors."""
    cpus(2)
    monkeypatch.setattr(harness, "decode_trials",
                        _fake_batch({3, 20, 45}, slow=1.0,
                                    pad_bytes=1 << 17))
    tallied = []

    def trial_tally(bits, v, res):
        tallied.append(res)
        return tally(bits, v, res)

    tally = harness.trial_tally
    monkeypatch.setattr(harness, "trial_tally", trial_tally)
    cfg = SimConfig(**{**SMALL, "trials": 80, "target_errors": 3})
    row = run_point(cfg, 8.0)
    assert (row.trials, row.codeword_errors) == (46, 3)
    assert [int(res.tau2_trace[0]) for res in tallied] == list(range(46))
    first = tallied[0].done
    ahead = {int(res.tau2_trace[0]) // harness.BATCH
             for res in tallied if res.done < first}
    assert len(ahead) >= 3, ahead
    assert multiprocessing.active_children() == []


def test_each_worker_reads_the_whole_matrix(cpus, monkeypatch):
    """The caller forks before any column is drawn, and each worker
    draws part of the point's matrix into memory shared with the other;
    by its first batch it reads the whole matrix, bitwise the one
    DesignMatrix draws in one process."""
    cpus(2)
    cfg = SimConfig(**{**SMALL, "trials": 16})
    expected = design_matrix(cfg, 0)
    digest = hashlib.sha256(expected._A.tobytes()).hexdigest()
    caller = os.getpid()
    draw = DesignMatrix.__init__

    def init(self, *args):
        assert os.getpid() != caller, "the caller drew the matrix"
        draw(self, *args)

    monkeypatch.setattr(DesignMatrix, "__init__", init)
    monkeypatch.setattr(harness, "decode_trials", lambda cfg, code, encoder,
                        A, *rest: [(os.getpid(), A.seed, hashlib.sha256(
                            A._A.tobytes()).hexdigest())])
    with harness._point_trials(cfg, None, None, 1.0, None, 0, 16) as seen:
        seen = list(seen)
    assert [s[1:] for s in seen] == [(expected.seed, digest)] * 2
    assert len({s[0] for s in seen} | {caller}) == 3


@pytest.mark.parametrize("fail, error", [
    (lambda self, start, stop: os._exit(1), RuntimeError),
    (lambda self, start, stop: _raise(ConfigError("drawing")), ConfigError),
], ids=["dies", "raises"])
def test_worker_failing_while_drawing(cpus, monkeypatch, fail, error):
    """A worker that dies or raises while drawing its columns stops the
    point with a RuntimeError or the worker's own error, and leaves no
    worker running."""
    cpus(2)
    monkeypatch.setattr(DesignMatrix, "draw_columns", fail)
    with pytest.raises(error):
        run_point(SimConfig(**{**SMALL, "trials": 16}), 8.0)
    assert multiprocessing.active_children() == []


def _raise(exc):
    raise exc


HANG_LOOP = """
import os
os.sched_getaffinity = lambda pid: {{0, 1}}
from srldpc import harness
from srldpc.harness import ConfigError, SimConfig, run_point

def failing_decode_batch(*args, **kwargs):
    raise ConfigError("decoded in a worker")

cfg = SimConfig(**{config!r})
decode_batch = harness.decode_batch
for _ in range(40):
    harness.decode_batch = decode_batch
    assert run_point(cfg, 3.0).trials < harness.BATCH
    harness.decode_batch = failing_decode_batch
    try:
        run_point(cfg, 3.0)
    except ConfigError:
        pass
    else:
        raise AssertionError("the worker's error was lost")
"""


def test_run_point_exits_with_batches_in_flight():
    """Forty points on two workers that stop with batches in flight, each
    followed by one whose workers raise, all return: leaving a point never
    waits forever on its workers.  Run in a child process so that a hang
    fails the test instead of stalling the suite."""
    config = {**SMALL, "trials": 40, "target_errors": 3, "ebno_db": (3.0,)}
    src = str(Path(harness.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c",
                           HANG_LOOP.format(config=config)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_workers_run_blas_on_one_thread(cpus, monkeypatch):
    """Each worker runs every OpenBLAS in the process on one thread, so
    the workers do not contend with each other's BLAS threads."""
    getters = openblas_thread_getters()
    if not getters:
        pytest.skip("no OpenBLAS with a known thread-count getter loaded")
    cpus(2)
    # each batch reports its worker's thread counts in place of trials
    monkeypatch.setattr(harness, "decode_trials", lambda *args: [
        [getter() for getter in getters]])
    with harness._point_trials(SimConfig(**SMALL), None, None, 1.0, None,
                               0, 16) as counts:
        assert list(counts) == [[1] * len(getters)] * 2


@pytest.mark.parametrize("n", [600, 601])
def test_traces_do_not_depend_on_blas_threads(getters, cpus, n):
    """A point of 8 trials decodes inline with the caller's two OpenBLAS
    threads, a point of 16 in two forked workers on one thread each.
    Trials 0..7 get the same results either way: a threaded gemv rounds
    some rows differently at n=601, so the design-matrix products run
    on one thread wherever they run."""
    cpus(2)
    cfg = SimConfig(schedule="bp0", n=n, seed=3, trials=16, ebno_db=(4.0,))
    _, code, encoder = build_experiment(cfg)
    sigma2 = harness._sigma2(cfg, 4.0)
    params = harness.decoder_params(cfg, tau2_floor_for(sigma2))
    points = []
    for trials in (8, 16):
        assert harness._worker_count(trials) == trials // harness.BATCH
        with harness._point_trials(cfg, code, encoder, sigma2, params, 0,
                                   trials) as decoded:
            points.append([res for _, _, res in decoded][:8])
    for inline, forked in zip(*points):
        assert np.array_equal(inline.tau2_trace, forked.tau2_trace)
        assert np.array_equal(inline.symbols, forked.symbols)


def test_workers_run_one_part(cpus, monkeypatch):
    """Each forked worker runs every BP half-round as one part, where the
    caller would split a half-round of the same size over its CPUs."""
    cpus(2)
    assert denoiser.part_count(10 ** 9) == 2
    # each batch reports its worker's part count in place of trials
    monkeypatch.setattr(harness, "decode_trials", lambda *args: [
        denoiser.part_count(10 ** 9)])
    with harness._point_trials(SimConfig(**SMALL), None, None, 1.0, None,
                               0, 16) as counts:
        assert list(counts) == [1, 1]
    assert denoiser.part_count(10 ** 9) == 2


AFTER_SPLIT = """
import os
os.sched_getaffinity = lambda pid: {{0, 1}}
import numpy as np
from srldpc import denoiser
from srldpc.harness import SimConfig, build_experiment, run_point

cfg = SimConfig(**{config!r})
code = build_experiment(cfg)[1]
denoiser.MIN_PART = 1
den = denoiser.BpDenoiser(code, denoiser.Schedule("bpn"))
den.denoise(np.ones(code.L * code.field.q), 0.5, t=3)
assert den._layout().parts == 2
print(run_point(cfg, 3.0).trials)
"""


def test_two_worker_point_after_a_split_denoise_finishes():
    """Forking the workers of a point after this process has run split
    half-rounds does not hang them: every helper thread was joined.
    Run in a child process so that a hang fails the test."""
    config = {**SMALL, "trials": 24, "target_errors": 100,
              "ebno_db": (3.0,)}
    src = str(Path(harness.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c",
                           AFTER_SPLIT.format(config=config)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["24"]


def test_matrix_for_per_trial_needs_trial():
    cfg = SimConfig(**{**SMALL, "matrix_policy": "per_trial"})
    with pytest.raises(ConfigError, match="per_trial"):
        design_matrix(cfg, 0)
    assert design_matrix(cfg, 0, 3).seed != design_matrix(cfg, 0, 4).seed
    fixed = SimConfig(**SMALL)
    assert design_matrix(fixed, 0).seed == design_matrix(fixed, 0, 3).seed


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
    assert meta["workers"] == 1
    plot = json.loads((tmp_path / "res.csv.plot.json").read_text())
    assert plot["yscale"] == "log"
    assert len(plot["series"][0]["x"]) == 2


def test_sweep_meta_records_aborts_per_point(tmp_path, monkeypatch):
    """A trial whose observation is not finite aborts the decoder; the
    sidecar lists each point's abort count, and the CSV is unchanged."""
    real = harness.trial_observation

    def observation(cfg, encoder, A, sigma2, snr_index, trial):
        bits, v, y = real(cfg, encoder, A, sigma2, snr_index, trial)
        if snr_index == 1 and trial == 0:
            y = np.full_like(y, np.nan)
        return bits, v, y

    monkeypatch.setattr(harness, "trial_observation", observation)
    cfg = SimConfig(**{**SMALL, "ebno_db": (8.0, 9.0), "trials": 2,
                       "target_errors": 50})
    out = tmp_path / "res.csv"
    rows = sweep(cfg, out_csv=out)
    assert [row.aborts for row in rows] == [0, 1]
    meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
    assert meta["points"] == [{"ebno_db": 8.0, "aborts": 0},
                              {"ebno_db": 9.0, "aborts": 1}]
    text = out.read_text().splitlines()
    assert text[0] == RESULTS_HEADER
    assert text[1:] == [row.csv_row() for row in rows]


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


def test_sweep_csv_same_for_one_and_two_workers(tmp_path, cpus):
    """The CSV is byte for byte the same apart from wall_s, and the
    sidecar records the worker count."""
    cfg = SimConfig(**{**SMALL, "ebno_db": (4.0, 8.0), "trials": 20,
                       "target_errors": 100})
    lines = []
    for count in (1, 2):
        cpus(count)
        out = tmp_path / f"res{count}.csv"
        sweep(cfg, out_csv=out)
        lines.append([line.rsplit(",", 1)[0]
                      for line in out.read_text().splitlines()])
        meta = json.loads((tmp_path / f"res{count}.csv.meta.json")
                          .read_text())
        assert meta["workers"] == count
    assert lines[0] == lines[1]


# ---------------------------------------------------------------------------
# SE entry points
# ---------------------------------------------------------------------------

def test_se_predict_and_csv(tmp_path, psi8):
    """se_predict(out_csv=) writes what write_se_csv writes."""
    cfg = SimConfig(**SMALL)
    out = tmp_path / "se.csv"
    trace = se_predict(cfg, 8.0, psi=psi8, out_csv=out)
    assert trace.tau2.size == cfg.amp_iters + 1
    path = tmp_path / "ref.csv"
    write_se_csv(trace, path)
    assert out.read_text() == path.read_text()
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


def test_se_vs_truth_builds_the_code_once(monkeypatch, psi8):
    """se_vs_truth predicts on the code it decodes with, and its SE column
    is se_predict's trajectory bit for bit."""
    cfg = SimConfig(**{**SMALL, "amp_iters": 4})
    predicted = se_predict(cfg, 8.0, psi=psi8).tau2
    calls = []

    def counting_build_code(*args, **kwargs):
        calls.append(args)
        return build_code(*args, **kwargs)

    monkeypatch.setattr(harness, "build_code", counting_build_code)
    rows = se_vs_truth(cfg, 8.0, trials=20, psi=psi8)
    assert len(calls) == 1
    assert [row[2] for row in rows] == predicted.tolist()


def test_se_vs_truth_same_for_one_and_two_workers(cpus, psi8):
    cfg = SimConfig(**{**SMALL, "amp_iters": 4})
    rows = []
    for count in (1, 2):
        cpus(count)
        rows.append(se_vs_truth(cfg, 8.0, trials=20, psi=psi8))
    assert rows[0] == rows[1]


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
    """rate_sweep(out_csv=) writes what write_rate_csv writes, rows go
    by rate, and each row is its code's own approximate_se run, bit for
    bit: 20 iterations at the first Eb/N0 under the config's schedule."""
    cfg = SimConfig(**{**SMALL, "ebno_db": (6.0, 9.0), "schedule": "bp0"})
    out = tmp_path / "rates.csv"
    rows = rate_sweep(cfg, [0.75, 0.6, 0.7], psi=psi8, out_csv=out)
    assert [(row.L, row.P) for row in rows] == [(30, 12), (26, 8), (24, 6)]
    path = tmp_path / "ref.csv"
    write_rate_csv(rows, path)
    assert out.read_text() == path.read_text()
    lines = path.read_text().splitlines()
    assert lines[0] == "R_ldpc,L,P,tau2_final_minus_sigma2"
    assert len(lines) == 4
    for row in rows:
        code, _ = build_code(cfg.field(), row.L, row.P, cfg.dv,
                             cfg.label_seed())
        sigma2 = snr_to_sigma2(6.0, cfg.B, row.L)
        tr = approximate_se(code, cfg.n, sigma2, 20, Schedule("bp0"),
                            psi=psi8)
        assert row.residual == float(tr.tau2[-1] - sigma2)
        assert row.converged == tr.converged


def test_rate_sweep_rejects_bad_rate(psi8):
    cfg = SimConfig(**SMALL)
    with pytest.raises(ConfigError):
        rate_sweep(cfg, [1.5], psi=psi8)
