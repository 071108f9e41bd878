"""The benchmark's workloads, the spans of its traced run, and the
per-layer metrics derived from them.

Each workload drives the library the way a user does (``run_point``,
``rate_sweep``/``se_predict``, ``BpDenoiser.denoise``) and exposes:

- ``setup()``: everything before the first op can start; timed and
  repeated by the runner, ``setup_repeats`` times before the first pass
  and ``setups_per_pass`` times before each pass.
- ``run_pass()``: one pass over the workload's fixed op set, returning
  the outputs that are checked against the stored reference and the
  per-layer counters the workload reads itself.
- ``failures(outputs, reference)``: failed ops of a pass and why.
- ``quality(outputs)``: the workload's error-rate metrics.

Op sets are fixed so that every pass does identical work and its outputs
can be compared with stored reference values; a later change that alters
seeded results therefore shows up as failed ops.
"""

import numpy as np

from srldpc import amp, codec, harness, ldpc, state_evolution
from srldpc.codec import DesignMatrix, hard_decision
from srldpc.denoiser import BpDenoiser, Schedule
from srldpc.gf import GF2m

# Float outputs (SE trajectories) must agree to this tolerance; integer
# outputs (error counts, iteration counts) must agree exactly.
RTOL = 1e-9
ATOL = 1e-12

EBNO_DB = 4.25              # the desk waterfall point
DESK_MASTER_SEED = 1
DESK_TRIALS = 64

PAPER_LABEL_SEED = 1
PAPER_INPUT_SEED = 2
PAPER_GRID = tuple((tau2, t) for tau2 in (0.03, 0.04, 0.05) for t in range(4))

# The waterfall point goes first: rate_sweep tunes at ebno_db[0].
SE_EBNO_DB = (4.25, 3.0, 3.5, 4.0, 4.5, 4.75)

# Captured before any tracing wrapper replaces the module attribute.
_PSI_CACHE = state_evolution.get_psi


class Workload:
    """Defaults shared by the workloads below."""

    setup_repeats = 1
    setups_per_pass = 0
    # Set-up times are scaled by (reference / calibration time) ** this:
    # code construction and matrix generation are numpy calls in Python
    # loops, like the runner's calibration kernel.
    setup_speed_exponent = 1.0

    def make_inputs(self):
        """Generate the op inputs once, after set-up and outside timing."""

    def quality(self, out):
        return {}


class Desk(Workload):
    """Monte-Carlo trials at the desk waterfall point through run_point.

    The trial set is fixed (master seed 1, trials 0..trials-1, one SNR
    index) so every pass decodes the same trials, failing tail included,
    and the run's --seed does not change it.
    """

    op_span = "harness.run_trial"
    setups_per_pass = 3

    def __init__(self, schedule, seed, trials=DESK_TRIALS, **sizes):
        self.cfg = harness.SimConfig(
            schedule=schedule, seed=DESK_MASTER_SEED, trials=trials,
            target_errors=trials, ebno_db=(EBNO_DB,), **sizes)
        self.ops_per_pass = trials
        self.prebuilt = None

    def setup(self):
        cfg = self.cfg
        self.prebuilt = harness.build_experiment(cfg)
        # run_point builds its fixed-policy matrix before the first
        # trial; building one of the same shape here puts that cost into
        # set-up time.
        DesignMatrix(cfg.n, self.prebuilt[0].q * cfg.L, cfg.seed)

    def run_pass(self):
        res = harness.run_point(self.cfg, EBNO_DB, prebuilt=self.prebuilt)
        return {
            "trials": res.trials,
            "codeword_errors": res.codeword_errors,
            "bit_errors": res.bit_errors,
            "amp_iters": int(round(res.mean_amp_iters * res.trials)),
            "aborts": res.aborts,
        }, {}

    def failures(self, out, ref):
        if out == ref:
            return out["aborts"], []
        return out["trials"], [f"outputs {out} differ from reference {ref}"]

    def quality(self, out):
        trials = out["trials"]
        return {
            "cer": (out["codeword_errors"] / trials, "share"),
            "ber": (out["bit_errors"] / (trials * self.cfg.B), "share"),
            "mean_amp_iters": (out["amp_iters"] / trials, "iterations"),
        }


class PaperDenoise(Workload):
    """BpDenoiser.denoise on the paper-scale outer code, one call per op.

    Inputs are r = index_codeword(v) + N(0, tau2) over a fixed
    (tau2, t) grid with fixed codewords and noise; the run's --seed sets
    the order of the calls in each pass (the bpn schedule resets the
    graph messages on every call, so the order does not change outputs).
    """

    op_span = "denoiser.denoise"
    setups_per_pass = 1

    def __init__(self, seed, m=8, L=766, P=30, dv=3, grid=PAPER_GRID):
        self.m, self.L, self.P, self.dv = m, L, P, dv
        self.grid = grid
        self.ops_per_pass = len(grid)
        self.order_rng = np.random.default_rng(seed)
        self.inputs = None

    def setup(self):
        field = GF2m(self.m)
        self.code, self.encoder = ldpc.build_code(
            field, self.L, self.P, self.dv, PAPER_LABEL_SEED)
        self.den = BpDenoiser(self.code, Schedule("bpn"))

    def make_inputs(self):
        q = self.code.field.q
        self.inputs = []
        for i, (tau2, _) in enumerate(self.grid):
            rng = codec.rng_stream(PAPER_INPUT_SEED, i)
            bits = rng.integers(0, 2, size=(self.L - self.P) * self.m)
            v = self.encoder.encode(ldpc.bits_to_symbols(bits, self.m))
            r = (codec.index_codeword(v, q)
                 + np.sqrt(tau2) * rng.standard_normal(q * self.L))
            self.inputs.append((r, v))

    def run_pass(self):
        q = self.code.field.q
        errors = [0] * len(self.grid)
        before = self.den.metadata()
        for i in self.order_rng.permutation(len(self.grid)):
            tau2, t = self.grid[i]
            r, v = self.inputs[i]
            s_hat = self.den.denoise(r, tau2, t)
            errors[i] = int(np.count_nonzero(hard_decision(s_hat, q) != v))
        after = self.den.metadata()
        return {"symbol_errors": errors}, {
            key: after[key] - before[key] for key in after}

    def failures(self, out, ref):
        got, want = out["symbol_errors"], ref["symbol_errors"]
        notes = [f"call {i} (tau2, t)={self.grid[i]}: symbol errors "
                 f"{a} != reference {b}"
                 for i, (a, b) in enumerate(zip(got, want)) if a != b]
        return len(notes), notes

    def quality(self, out):
        errors = out["symbol_errors"]
        return {"cer": (sum(e > 0 for e in errors) / len(errors), "share")}


class SeTune(Workload):
    """Cold Psi build, then a dense rate sweep and SE predictions.

    An op is one SE trajectory.  The run's --seed is the master seed of
    the configuration and so draws the edge labels of every code built;
    SE depends only on the graph structure, which PEG builds
    deterministically, so the reference outputs hold for every seed.
    """

    op_span = "state_evolution.approximate_se"
    setup_repeats = 3
    setup_speed_exponent = 0.0  # the Psi build streams large arrays

    def __init__(self, seed, psi_samples=None, l_range=(124, 160), **sizes):
        self.cfg = harness.SimConfig(seed=seed, ebno_db=SE_EBNO_DB, **sizes)
        k = self.cfg.B // self.cfg.m
        self.rates = [k / L for L in range(*l_range)]
        self.psi_samples = psi_samples
        self.ops_per_pass = len(self.rates) + len(self.cfg.ebno_db)
        self.psi = None

    def setup(self):
        q = 1 << self.cfg.m
        _PSI_CACHE.cache_clear()
        if self.psi_samples is None:
            self.psi = state_evolution.get_psi(q)
        else:
            self.psi = state_evolution.get_psi(q, samples=self.psi_samples)

    def run_pass(self):
        rows = harness.rate_sweep(self.cfg, self.rates, psi=self.psi)
        traces = [harness.se_predict(self.cfg, ebno, psi=self.psi)
                  for ebno in self.cfg.ebno_db]
        best = state_evolution.best_candidate(rows)
        return {
            "rate_sweep": [[row.L, row.P, row.residual] for row in rows],
            "best": [best.L, best.P],
            "se_predict": [trace.tau2.tolist() for trace in traces],
            "converged": [trace.converged for trace in traces],
        }, {}

    def failures(self, out, ref):
        notes = []
        got, want = out["rate_sweep"], ref["rate_sweep"]
        if len(got) != len(want):
            sweep_bad = len(self.rates)
            notes.append(f"rate sweep has {len(got)} rows, reference "
                         f"{len(want)}")
        else:
            sweep_bad = 0
            for a, b in zip(got, want):
                if a[:2] != b[:2] or not _close(a[2], b[2]):
                    sweep_bad += 1
                    notes.append(f"rate sweep row {a} != reference {b}")
        if out["best"] != ref["best"]:
            sweep_bad = len(self.rates)
            notes.append(f"best candidate {out['best']} != reference "
                         f"{ref['best']}")
        se_bad = 0
        for ebno, a, b in zip(self.cfg.ebno_db, out["se_predict"],
                              ref["se_predict"]):
            if len(a) != len(b) or not _close(a, b):
                se_bad += 1
                notes.append(f"SE trajectory at {ebno} dB differs")
        if out["converged"] != ref["converged"]:
            se_bad = len(self.cfg.ebno_db)
            notes.append("SE convergence flags differ")
        return sweep_bad + se_bad, notes


def _close(a, b):
    return bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


def make_workload(name, seed, **sizes):
    if name == "desk-bpn":
        return Desk("bpn", seed, **sizes)
    if name == "desk-bp0":
        return Desk("bp0", seed, **sizes)
    if name == "paper-denoise":
        return PaperDenoise(seed, **sizes)
    if name == "se-tune":
        return SeTune(seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")


# --- traced run -----------------------------------------------------------

def add_trace_sites(tracer):
    """Wrap each layer's entry points where the library looks them up."""
    site = tracer.site
    site(harness, "run_point", "harness.run_point")
    site(harness, "run_trial", "harness.run_trial")
    site(harness, "rate_sweep", "harness.rate_sweep")
    site(harness, "se_predict", "harness.se_predict")
    site(harness, "decode", "amp.decode", _count_decode)
    site(DesignMatrix, "__init__", "codec.design_matrix")
    site(DesignMatrix, "matvec", "codec.matvec", _count_matrix_product)
    site(DesignMatrix, "rmatvec", "codec.rmatvec", _count_matrix_product)
    site(BpDenoiser, "__init__", "denoiser.construct")
    site(BpDenoiser, "denoise", "denoiser.denoise")
    site(BpDenoiser, "bp_round", "denoiser.bp_round", _count_hadamard)
    site(BpDenoiser, "estimate", "denoiser.estimate")
    site(BpDenoiser, "init_alpha", "denoiser.init_alpha")
    site(amp, "syndrome_check", "ldpc.syndrome_check")
    site(ldpc.Encoder, "encode", "ldpc.encode")
    for module in (ldpc, harness, state_evolution):
        site(module, "build_code", "ldpc.build_code")
    site(state_evolution, "get_psi", "state_evolution.get_psi")
    for module in (harness, state_evolution):
        site(module, "approximate_se", "state_evolution.approximate_se")


def _count_decode(counts, args, res):
    counts["decodes"] += 1
    counts["amp_iters"] += res.iterations_used
    counts["termination." + res.termination_reason] += 1
    if res.final_bp_rounds:
        counts["final_bp.entered"] += 1
        counts["final_bp.rounds"] += res.final_bp_rounds
        rescued = res.termination_reason == "final_bp_syndrome"
        counts["final_bp.rescued"] += rescued
    for key, value in res.denoiser_metadata.items():
        counts[key] += value


def _count_matrix_product(counts, args, result):
    # Computed, not measured: a dense float32 product reads all of A once.
    A = args[0]
    counts["codec.flop"] += 2 * A.n * A.n_cols
    counts["codec.byte"] += 4 * A.n * A.n_cols


def _count_hadamard(counts, args, result):
    # Computed, not measured: the check round's two (E x q) @ (q x q)
    # float64 products, each reading its input and H and writing E x q.
    den = args[0]
    E, q = den.code.n_edges, den.field.q
    counts["denoiser.hadamard_flop"] += 2 * 2 * E * q * q
    counts["denoiser.hadamard_byte"] += 2 * 8 * (2 * E * q + q * q)


# Span statistics reported per op, by span name.
SPAN_STATS = {
    "harness.run_point": ("self_s",),
    "harness.run_trial": ("calls", "self_s"),
    "harness.rate_sweep": ("self_s",),
    "harness.se_predict": ("self_s",),
    "amp.decode": ("calls", "self_s"),
    "codec.design_matrix": ("calls", "busy_s"),
    "codec.matvec": ("calls", "busy_s"),
    "codec.rmatvec": ("calls", "busy_s"),
    "denoiser.construct": ("calls", "busy_s"),
    "denoiser.denoise": ("calls", "busy_s", "self_s"),
    "denoiser.bp_round": ("calls", "busy_s"),
    "denoiser.estimate": ("calls", "busy_s"),
    "denoiser.init_alpha": ("calls", "busy_s"),
    "ldpc.syndrome_check": ("calls", "busy_s"),
    "ldpc.encode": ("calls", "busy_s"),
    "ldpc.build_code": ("calls", "busy_s"),
    "state_evolution.approximate_se": ("calls", "busy_s"),
}
SETUP_SPANS = ("codec.design_matrix", "ldpc.build_code",
               "state_evolution.get_psi", "denoiser.construct")
LAYERS = ("harness", "amp", "codec", "denoiser", "ldpc", "state_evolution")
TERMINATIONS = ("amp_syndrome", "final_bp_syndrome", "exhausted",
                "exhausted_valid", "non_finite")
FINAL_BP_SPANS = ("denoiser.bp_round", "denoiser.estimate",
                  "ldpc.syndrome_check")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, ops, wall_s, setup_tracer, setups):
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    tracer holds the spans of the traced passes, which did ``ops`` ops in
    ``wall_s`` seconds; setup_tracer holds ``setups`` traced set-ups.
    """
    stats = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    for name, wanted in SPAN_STATS.items():
        entry = stats.get(name, zero)
        for stat in wanted:
            unit = "1/op" if stat == "calls" else "s/op"
            out[f"{name}.{stat}"] = (_ratio(entry[stat], ops), unit)

    trial_ms = sorted(1e3 * d for d in tracer.durations("harness.run_trial"))
    for pct in (50, 90):
        value = float(np.percentile(trial_ms, pct)) if trial_ms else 0.0
        out[f"harness.run_trial.p{pct}_ms"] = (value, "ms")

    decodes = counts["decodes"]
    entered = counts["final_bp.entered"]
    out["amp.iters"] = (_ratio(counts["amp_iters"], decodes), "1/decode")
    out["amp.final_bp.entered"] = (_ratio(entered, decodes), "share")
    out["amp.final_bp.rounds"] = (_ratio(counts["final_bp.rounds"], decodes),
                                  "1/decode")
    out["amp.final_bp.rescue_ratio"] = (
        _ratio(counts["final_bp.rescued"], entered), "share")
    final_bp_s = sum(
        end - start for name, start, end, parent, _ in tracer.spans()
        if name in FINAL_BP_SPANS and parent >= 0
        and tracer.names[parent] == "amp.decode")
    out["amp.final_bp.busy_s"] = (_ratio(final_bp_s, ops), "s/op")
    for reason in TERMINATIONS:
        out[f"amp.termination.{reason}"] = (
            _ratio(counts["termination." + reason], decodes), "share")

    for key in ("underflow_events", "sub_girth_violations"):
        out[f"denoiser.{key}"] = (_ratio(counts[key], ops), "1/op")
    out["codec.computed_gflop"] = (_ratio(counts["codec.flop"], ops) / 1e9,
                                   "Gflop/op")
    out["codec.computed_gbyte"] = (_ratio(counts["codec.byte"], ops) / 1e9,
                                   "GB/op")
    out["codec.computed_flop_per_byte"] = (
        _ratio(counts["codec.flop"], counts["codec.byte"]), "flop/B")
    out["denoiser.computed_hadamard_gflop"] = (
        _ratio(counts["denoiser.hadamard_flop"], ops) / 1e9, "Gflop/op")
    out["denoiser.computed_hadamard_flop_per_byte"] = (
        _ratio(counts["denoiser.hadamard_flop"],
               counts["denoiser.hadamard_byte"]), "flop/B")

    for layer in LAYERS:
        self_s = sum(entry["self_s"] for name, entry in stats.items()
                     if name.split(".", 1)[0] == layer)
        out[f"share.{layer}"] = (_ratio(self_s, wall_s), "share")

    setup_stats = setup_tracer.summary()
    for name in SETUP_SPANS:
        busy = setup_stats.get(name, zero)["busy_s"]
        out[f"setup.{name}.busy_s"] = (_ratio(busy, setups), "s/setup")
    return out
