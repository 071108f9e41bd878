"""Monte-Carlo experiment engine: end-to-end trials, SNR sweeps, BER/CER
estimation with early stopping, SE-vs-decoder comparison, CSV emission.

Every number an experiment emits is reproducible from the master seed in
the config: codes, matrices, payload bits, and noise all draw from
dedicated (seed, stream, ...) substreams.  Early stopping processes
trials in index order and keeps every completed trial, so the estimates
are unbiased.

run_point and se_vs_truth read a point's trials as one stream, in
trial order, from _point_trials.  It builds the point's fixed-policy
design matrix and splits the trials into batches of BATCH consecutive
indices, each decoded through amp.decode_batch, which runs the batch in
lockstep through one AMP loop and one BP denoiser holding the messages
as (edges, trials, q); a trial that stops is compacted out while the
others go on.  Each trial's result is bitwise the one it gets when
decoded alone.

The batches run on forked worker processes, one per CPU in the
caller's affinity mask and at most one per batch.  The workers are
forked after the code, the decoder settings and the design matrix
exist, so they share them copy-on-write and only decoded results are
pickled.  Worker w decodes batches w, w+W, ... of the W workers in
order and sends each result, or the first error, on a one-way pipe of
its own; the caller reads batch b from pipe b % W.  A full pipe holds a
worker about one batch ahead of the caller, and no lock is shared
between processes.  With one worker (a 1-CPU mask, say `taskset -c 0`,
or a single batch) the batches run inline with no fork.  The caller
tallies each trial's result in trial index order, so every sum, and
hence every tally, depends only on (config, seed) and not on the worker
count.  run_point stops at the exact trial that reaches target_errors;
the workers are then killed and joined, whatever they still decode,
before it returns.  Each worker runs OpenBLAS and the BP denoiser on
one thread, and a worker that exits without a result is a
RuntimeError, not a wait that never ends.  The trials/s this reaches
at the desk waterfall point on two workers are measured by
`python3 perfbench/run.py` and recorded in the BENCH_*.json files.
"""

import json
import multiprocessing
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields, replace
from functools import partial
from itertools import chain

import numpy as np

# run_trial and decode stay: perfbench traces them by name (ROADMAP dir. 1).
from .amp import DecoderParams, decode, decode_batch, tau2_floor_for
from .codec import (
    DesignMatrix, snr_to_sigma2, index_codeword, awgn,
    rng_stream, STREAM_MATRIX, STREAM_LABELS, STREAM_NOISE, STREAM_BITS,
)
from . import blas
from .denoiser import Schedule, run_one_part
from .gf import GF2m
from .ldpc import build_code, bits_to_symbols, check_peg_profile
from .state_evolution import (
    approximate_se, build_candidates, score_candidates,
)

RESULTS_HEADER = ("ebno_db,trials,bit_errors,ber,codeword_errors,cer,"
                  "mean_amp_iters,mean_tau2_final,wall_s")

MATRIX_POLICIES = ("fixed", "per_trial")

# Trials decoded together.  A constant, not an option: results do not
# depend on it, and 8 trials take most of the per-round overhead out of
# the BP denoiser at desk scale for little extra memory.
BATCH = 8

class ConfigError(ValueError):
    pass


@dataclass
class SimConfig:
    """Experiment description; desk-scale defaults mirror the reference
    configuration's ratios at roughly 1/100 the matrix size."""

    m: int = 4
    L: int = 128
    P: int = 8
    dv: int = 3
    B: int = 480
    n: int = 600
    ebno_db: tuple = (3.0, 3.5, 4.0, 4.25, 4.5, 4.75)
    amp_iters: int = 25
    schedule: str = "bpn"
    final_bp_iters: int = 100
    seed: int = 1
    trials: int = 2000
    target_errors: int = 50
    matrix_policy: str = "fixed"

    def __post_init__(self):
        if self.B != (self.L - self.P) * self.m:
            raise ConfigError(
                f"B={self.B} must equal (L-P)*m={(self.L - self.P) * self.m}"
            )
        for name in ("m", "L", "dv", "B", "n", "amp_iters", "trials",
                     "target_errors"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.m > 8:
            raise ConfigError("m must be at most 8")
        if self.P < 0:
            raise ConfigError("P must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.P:
            try:
                check_peg_profile(self.L, self.P, self.dv)
            except ValueError as exc:
                raise ConfigError(f"cannot build the outer code: {exc}") \
                    from exc
        if self.final_bp_iters < 0:
            raise ConfigError("final_bp_iters must be nonnegative")
        if self.matrix_policy not in MATRIX_POLICIES:
            raise ConfigError(f"matrix_policy must be one of {MATRIX_POLICIES}")
        try:
            Schedule(self.schedule)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.ebno_db:
            raise ConfigError("need at least one ebno_db point")
        for ebno in self.ebno_db:
            _sigma2(self, ebno)

    @property
    def rate_overall(self):
        return self.B / self.n

    def field(self):
        return GF2m(self.m)

    def label_seed(self):
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(STREAM_LABELS,))
        return int(seq.generate_state(1)[0])


def load_config(path):
    """Parse a flat key=value config file; the keys and their types are
    SimConfig's fields, and unknown keys are errors."""
    types = {f.name: f.type for f in fields(SimConfig)}
    values = {}
    for lineno, raw in enumerate(read_input(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            if types[key] is tuple:
                values[key] = tuple(
                    float(x) for x in val.split(",") if x.strip()
                )
            else:
                values[key] = types[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: "
                              f"{exc}") from exc
    try:
        return SimConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def read_input(path):
    """Text of an input file; a file that is missing, is a directory or
    is not UTF-8 text is a config error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def save_config(cfg, path):
    with open(path, "w") as fh:
        for f in fields(cfg):
            val = getattr(cfg, f.name)
            if f.type is tuple:
                val = ",".join(_fmt_float(x) for x in val)
            fh.write(f"{f.name}={val}\n")


def _fmt_float(x):
    """Shortest of {:g} and repr that reads back as the same float."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass
class PointResult:
    ebno_db: float
    trials: int
    bit_errors: int
    ber: float
    codeword_errors: int
    cer: float
    mean_amp_iters: float
    mean_tau2_final: float
    wall_s: float
    aborts: int = 0    # decoder aborts: in the .meta.json sidecar, not the CSV

    def csv_row(self):
        return (f"{_fmt_float(self.ebno_db)},{self.trials},"
                f"{self.bit_errors},{self.ber:.6e},"
                f"{self.codeword_errors},{self.cer:.6e},"
                f"{self.mean_amp_iters:.4f},{self.mean_tau2_final:.6e},"
                f"{self.wall_s:.3f}")


def build_experiment(cfg):
    """Code and encoder of a config (with the field they are over)."""
    field = cfg.field()
    try:
        code, encoder = build_code(field, cfg.L, cfg.P, cfg.dv,
                                   cfg.label_seed())
    except ValueError as exc:
        raise ConfigError(f"cannot build the outer code: {exc}") from exc
    return field, code, encoder


def design_matrix(cfg, snr_index, trial=None):
    """Seeded design matrix of one SNR point, and of one trial under
    matrix_policy=per_trial, which has no matrix without a trial."""
    if cfg.matrix_policy == "fixed":
        key = (STREAM_MATRIX, snr_index)
    elif trial is None:
        raise ConfigError("matrix_policy=per_trial has no single design "
                          "matrix; use matrix_policy=fixed")
    else:
        key = (STREAM_MATRIX, snr_index, trial)
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=key)
    return DesignMatrix(cfg.n, (1 << cfg.m) * cfg.L,
                        int(seq.generate_state(1)[0]))


def decoder_params(cfg, tau2_floor):
    """The config's decoder settings with the given tau^2 floor."""
    return DecoderParams(
        amp_iters=cfg.amp_iters,
        final_bp_iters=cfg.final_bp_iters,
        schedule=Schedule(cfg.schedule),
        tau2_floor=tau2_floor,
    )


def channel_input(encoder, bits, A):
    """Codeword v and noiseless channel input x = A s(v) for a payload."""
    field = encoder.field
    v = encoder.encode(bits_to_symbols(bits, field.m))
    return v, A.matvec(index_codeword(v, field.q))


def trial_observation(cfg, encoder, A, sigma2, snr_index, trial):
    """Seeded payload bits, codeword v and channel output y of one trial."""
    bits = rng_stream(cfg.seed, STREAM_BITS, snr_index, trial).integers(
        0, 2, size=cfg.B
    )
    v, x = channel_input(encoder, bits, A)
    y = awgn(x, sigma2, rng=rng_stream(cfg.seed, STREAM_NOISE,
                                       snr_index, trial))
    return bits, v, y


def decode_trials(cfg, code, encoder, A, sigma2, params, snr_index, trials):
    """Sent bits, codeword and DecodeResult of each seeded trial, decoded
    together as one batch; A=None decodes each trial against its own
    matrix (matrix_policy=per_trial)."""
    As = [design_matrix(cfg, snr_index, trial) if A is None else A
          for trial in trials]
    sent = [trial_observation(cfg, encoder, A_t, sigma2, snr_index, trial)
            for A_t, trial in zip(As, trials)]
    results = decode_batch(np.stack([y for _, _, y in sent]), As, code,
                           encoder, params)
    return [(bits, v, res) for (bits, v, _), res in zip(sent, results)]


def _worker_count(trials):
    """Worker processes for a point of `trials` trials: one per CPU in
    this process's affinity mask, at most one per batch; one where the
    platform has no affinity mask (macOS, Windows)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), -(-trials // BATCH))


@contextmanager
def _point_trials(cfg, code, encoder, sigma2, params, snr_index, trials):
    """Context giving (bits, v, DecodeResult) of trials 0..trials-1 of
    one SNR point, in trial order.

    The point's design matrix is built here under matrix_policy=fixed;
    under per_trial each trial builds its own.  The trials are decoded
    in batches of BATCH consecutive indices.  With W > 1 workers, worker
    w is forked with the code, the settings and the matrix copy-on-write,
    decodes batches w, w+W, ... and sends each result on its own pipe,
    from which batch b is read; a full pipe holds it about one batch
    ahead.  Leaving the context kills and joins the workers, so batches
    still in flight after the caller stops reading are discarded.  With
    one worker the batches run inline, with no fork.
    """
    A = (design_matrix(cfg, snr_index) if cfg.matrix_policy == "fixed"
         else None)
    job = partial(decode_trials, cfg, code, encoder, A, sigma2, params,
                  snr_index)
    batches = [range(start, min(start + BATCH, trials))
               for start in range(0, trials, BATCH)]
    workers = _worker_count(trials)
    if workers <= 1:
        yield chain.from_iterable(map(job, batches))
        return
    ctx = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            pipes.append(recv)
            proc = ctx.Process(target=_work,
                               args=(job, batches[w::workers], send))
            proc.start()
            procs.append(proc)
            # closed before the next fork, so that the worker holds the
            # only write end and its exit reads as an EOF
            send.close()
        yield chain.from_iterable(_in_order(pipes, len(batches)))
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for recv in pipes:
            recv.close()


def _work(job, batches, send):
    """Worker body: decode the batches in order and send (True, result)
    for each, or (False, exception) for the first one that raises.

    A worker has a CPU to itself, so it runs OpenBLAS and each BP
    half-round on one thread: threads of its own would contend with the
    other workers for the CPUs.  Two workers running OpenBLAS on two
    threads each decoded the desk point slower than one process."""
    blas.set_threads(1)
    run_one_part()
    for batch in batches:
        try:
            result = job(batch)
        except Exception as exc:
            send.send((False, exc))
            return
        send.send((True, result))


def _in_order(pipes, count):
    """Results of batches 0..count-1, batch b read from pipe
    b % len(pipes).  A worker's error is raised here with its type, and
    a worker that exits without a result is a RuntimeError."""
    for b in range(count):
        try:
            ok, result = pipes[b % len(pipes)].recv()
        except EOFError:
            raise RuntimeError("a worker process exited while decoding "
                               "a batch") from None
        if not ok:
            raise result
        yield result


def run_trial(cfg, code, encoder, A, sigma2, params, snr_index, trial):
    """One end-to-end seeded trial decoded alone; returns its tallies.
    A=None decodes against the trial's own matrix
    (matrix_policy=per_trial)."""
    if A is None:
        A = design_matrix(cfg, snr_index, trial)
    bits, v, y = trial_observation(cfg, encoder, A, sigma2, snr_index, trial)
    return trial_tally(bits, v, decode(y, A, code, encoder, params))


def trial_tally(bits, v, res):
    """Tallies of one decoded trial: bit errors, codeword error, AMP
    iterations, final tau^2 and whether the decoder aborted."""
    bit_errors = int(np.sum(res.bits != bits))
    aborted = res.termination_reason == "non_finite"
    cw_error = bool(np.any(res.symbols != v)) or aborted
    tau2_final = float(res.tau2_trace[-1]) if len(res.tau2_trace) else 0.0
    return bit_errors, cw_error, res.iterations_used, tau2_final, aborted


def _sigma2(cfg, ebno_db):
    """AWGN variance at one Eb/N0 point; a point whose variance is not
    finite and positive (a non-finite point, or one whose power of ten
    overflows or vanishes) is a config error, not a crash or a NaN row."""
    try:
        sigma2 = snr_to_sigma2(ebno_db, cfg.B, cfg.L)
    except (OverflowError, ZeroDivisionError):
        sigma2 = np.nan
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ConfigError(f"Eb/N0 {ebno_db} dB gives no finite positive "
                          f"noise variance")
    return sigma2


def claim_output(path):
    """Create an output file before any trial or SE work runs, so a path
    that cannot be written fails at once as a config error instead of
    after the work."""
    if path is None:
        return
    try:
        open(path, "w").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_point(cfg, ebno_db, snr_index=0, prebuilt=None):
    """Monte-Carlo at one SNR: trials decoded in batches, one worker per
    CPU, and tallied in index order until target_errors codeword errors
    are collected or cfg.trials is exhausted."""
    if prebuilt is None:
        _, code, encoder = build_experiment(cfg)
    else:
        _, code, encoder = prebuilt
    sigma2 = _sigma2(cfg, ebno_db)
    params = decoder_params(cfg, tau2_floor_for(sigma2))

    t0 = time.perf_counter()
    bit_errors = 0
    cw_errors = 0
    iters_sum = 0
    tau2_sum = 0.0
    trials_run = 0
    aborts = 0
    with _point_trials(cfg, code, encoder, sigma2, params, snr_index,
                       cfg.trials) as decoded:
        for bits, v, res in decoded:
            be, cw, iters, tau2, aborted = trial_tally(bits, v, res)
            trials_run += 1
            bit_errors += be
            cw_errors += int(cw)
            iters_sum += iters
            tau2_sum += tau2
            aborts += int(aborted)
            if cw_errors >= cfg.target_errors:
                break

    return PointResult(
        ebno_db=ebno_db,
        trials=trials_run,
        bit_errors=bit_errors,
        ber=bit_errors / (trials_run * cfg.B),
        codeword_errors=cw_errors,
        cer=cw_errors / trials_run,
        mean_amp_iters=iters_sum / trials_run,
        mean_tau2_final=tau2_sum / trials_run,
        wall_s=time.perf_counter() - t0,
        aborts=aborts,
    )


def sweep(cfg, out_csv=None):
    """All SNR points in order; optionally emit CSV, metadata, and a plot
    description file next to it.  The CSV is opened before the first
    trial."""
    prebuilt = build_experiment(cfg)
    claim_output(out_csv)
    rows = [
        run_point(cfg, ebno, snr_index=i, prebuilt=prebuilt)
        for i, ebno in enumerate(cfg.ebno_db)
    ]
    if out_csv is not None:
        write_results_csv(rows, out_csv)
        _write_metadata(cfg, prebuilt[1], rows, out_csv)
        _write_plot_spec(cfg, rows, out_csv)
    return rows


def write_results_csv(rows, path):
    with open(path, "w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _write_metadata(cfg, code, rows, out_csv):
    meta = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()},
        "master_seed": cfg.seed,
        "label_seed": cfg.label_seed(),
        "primitive_polynomial": f"0x{code.field.poly:X}",
        "matrix_policy": cfg.matrix_policy,
        "code_girth": (0 if code.girth == float("inf") else int(code.girth)),
        "rate_overall": cfg.rate_overall,
        "git_describe": _git_describe(),
        "points": [{"ebno_db": row.ebno_db, "aborts": row.aborts}
                   for row in rows],
        "workers": _worker_count(cfg.trials),
    }
    with open(str(out_csv) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)


def _write_plot_spec(cfg, rows, out_csv):
    spec = {
        "title": f"SR-LDPC sweep (q={1 << cfg.m}, L={cfg.L}, n={cfg.n}, "
                 f"schedule={cfg.schedule})",
        "xlabel": "Eb/N0 (dB)",
        "ylabel": "error rate",
        "yscale": "log",
        "series": [
            {"label": "BER", "x": [r.ebno_db for r in rows],
             "y": [r.ber for r in rows]},
            {"label": "CER", "x": [r.ebno_db for r in rows],
             "y": [r.cer for r in rows]},
        ],
    }
    with open(str(out_csv) + ".plot.json", "w") as fh:
        json.dump(spec, fh, indent=2)


def se_predict(cfg, ebno_db, psi=None, out_csv=None):
    """Approximate-SE trajectory of cfg.amp_iters iterations at one SNR.
    Like sweep, it builds the code and opens out_csv before the SE work,
    and writes the trajectory to it."""
    sigma2 = _sigma2(cfg, ebno_db)
    _, code, _ = build_experiment(cfg)
    claim_output(out_csv)
    trace = approximate_se(code, cfg.n, sigma2, cfg.amp_iters,
                           Schedule(cfg.schedule), psi=psi)
    if out_csv is not None:
        write_se_csv(trace, out_csv)
    return trace


def write_se_csv(trace, path):
    with open(path, "w") as fh:
        fh.write("t,tau2_predicted\n")
        for t, tau2 in enumerate(trace.tau2):
            fh.write(f"{t},{tau2:.8e}\n")


def se_vs_truth(cfg, ebno_db, trials, psi=None, out_csv=None):
    """Mean measured residual-energy trajectory versus the SE prediction.

    Decodes run the full AMP schedule (no early termination, no final BP)
    for one extra iteration so the measured ||z_t||^2 / n exists for
    every SE index t = 0..T.  Returns (t, tau2_mc, tau2_se, rel_err) rows
    and, like sweep, opens out_csv before the first trial and writes the
    rows to it.
    """
    if trials < 20:
        raise ConfigError("need at least 20 trials")
    T = cfg.amp_iters
    sigma2 = _sigma2(cfg, ebno_db)
    _, code, encoder = build_experiment(cfg)
    params = replace(decoder_params(cfg, tau2_floor_for(sigma2)),
                     amp_iters=T + 1, final_bp_iters=0, early_stop=False)
    claim_output(out_csv)
    with _point_trials(cfg, code, encoder, sigma2, params, 0,
                       trials) as decoded:
        tau2_mc = np.mean(np.stack([res.tau2_trace for _, _, res in decoded]),
                          axis=0)

    se_trace = approximate_se(code, cfg.n, sigma2, T, Schedule(cfg.schedule),
                              psi=psi)
    rows = []
    for t in range(T + 1):
        mc = float(tau2_mc[t])
        se = float(se_trace.tau2[t])
        rows.append((t, mc, se, abs(se - mc) / mc))
    if out_csv is not None:
        write_se_vs_truth_csv(rows, out_csv)
    return rows


def write_se_vs_truth_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("t,tau2_mc,tau2_se,rel_err\n")
        for t, mc, se, rel in rows:
            fh.write(f"{t},{mc:.8e},{se:.8e},{rel:.6e}\n")


def rate_sweep(cfg, rates, psi=None, out_csv=None):
    """Approximate-SE residual of each outer-rate candidate at fixed B
    and n, tuned at the first Eb/N0, as one batched SE recursion.

    Rates map to (L, P) pairs through the fixed message-symbol count
    k = B / m.  Every code is built, and out_csv opened, before the SE
    work; a pair whose code cannot be built (an infeasible PEG profile
    or a rank-deficient parity matrix) is skipped with a warning.  A
    rate outside (0, 1] or no code left is a config error.
    """
    k = cfg.B // cfg.m
    for r in rates:
        if not 0 < r <= 1:
            raise ConfigError(f"rate {r} outside (0, 1]")
    pairs = sorted({(L, L - k) for L in (int(round(k / r)) for r in rates)})
    built = build_candidates(cfg.field(), pairs, cfg.dv, cfg.label_seed())
    if not built:
        raise ConfigError("no feasible (L, P) candidates")
    claim_output(out_csv)
    rows = score_candidates(built, cfg.B, cfg.n, cfg.ebno_db[0],
                            Schedule(cfg.schedule), psi=psi)
    if out_csv is not None:
        write_rate_csv(rows, out_csv)
    return rows


def write_rate_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("R_ldpc,L,P,tau2_final_minus_sigma2\n")
        for row in rows:
            fh.write(f"{row.rate:.6f},{row.L},{row.P},{row.residual:.8e}\n")
