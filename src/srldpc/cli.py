"""Command-line front end for simulations, state evolution, and codec IO.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime
failures.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .amp import DecoderParams, decode
from .codec import DesignMatrix
from .denoiser import Schedule
from .harness import (
    ConfigError, load_config, sweep, se_predict, se_vs_truth, rate_sweep,
    build_experiment, channel_input, _matrix_for,
    write_se_csv, write_rate_csv,
)
from .state_evolution import best_candidate


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="srldpc",
        description="Sparse regression LDPC codec laboratory",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte-Carlo SNR sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="results CSV path")

    p = sub.add_parser("se", help="approximate state-evolution trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--ebno", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("se-vs-truth",
                       help="compare SE prediction with decoder averages")
    p.add_argument("--config", required=True)
    p.add_argument("--ebno", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("tune-rate", help="outer-rate sweep via approximate SE")
    p.add_argument("--config", required=True)
    p.add_argument("--rates", required=True,
                   help="comma-separated outer code rates")
    p.add_argument("--out", default=None)

    p = sub.add_parser("encode", help="bits file -> channel-input file")
    p.add_argument("--config", required=True)
    p.add_argument("--bits", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="observation file -> bits file")
    p.add_argument("--config", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True)
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _read_bits(path):
    with open(path) as fh:
        text = fh.read()
    bits = [c for c in text if not c.isspace()]
    if any(c not in "01" for c in bits):
        raise ConfigError(f"{path}: bits file must contain only 0/1")
    return np.array([int(c) for c in bits], dtype=np.int64)


def _cmd_simulate(args):
    cfg = _load(args)
    rows = sweep(cfg, out_csv=args.out)
    for row in rows:
        print(f"ebno={row.ebno_db:g} trials={row.trials} "
              f"ber={row.ber:.4e} cer={row.cer:.4e} "
              f"wall={row.wall_s:.1f}s")
    print(f"wrote {args.out}")


def _cmd_se(args):
    cfg = _load(args)
    trace = se_predict(cfg, args.ebno)
    write_se_csv(trace, args.out)
    print(f"tau2 final {trace.tau2[-1]:.6e} converged={trace.converged}; "
          f"wrote {args.out}")


def _cmd_se_vs_truth(args):
    cfg = _load(args)
    rows = se_vs_truth(cfg, args.ebno, args.trials, out_csv=args.out)
    if args.out:
        print(f"wrote {args.out}")
    t, mc, se, rel = rows[-1]
    print(f"t={t} tau2_mc={mc:.6e} tau2_se={se:.6e} rel_err={rel:.3f}")


def _cmd_tune_rate(args):
    cfg = _load(args)
    try:
        rates = [float(x) for x in args.rates.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--rates: {exc}") from exc
    if not rates:
        raise ConfigError("no rates given")
    rows = rate_sweep(cfg, rates)
    if not rows:
        raise ConfigError("no feasible (L, P) candidates")
    best = best_candidate(rows)
    for row in rows:
        mark = "  <-- min" if row is best else ""
        print(f"R={row.rate:.4f} L={row.L} P={row.P} "
              f"residual={row.residual:.6e}{mark}")
    if args.out:
        write_rate_csv(rows, args.out)
        print(f"wrote {args.out}")


def _cmd_encode(args):
    cfg = _load(args)
    bits = _read_bits(args.bits)
    if bits.size != cfg.B:
        raise ConfigError(f"expected {cfg.B} bits, got {bits.size}")
    field, _, encoder = build_experiment(cfg)
    A = DesignMatrix(cfg.n, field.q * cfg.L, _matrix_for(cfg, 0))
    _, x = channel_input(encoder, bits, A)
    np.savetxt(args.out, x, fmt="%.17g")
    print(f"wrote {args.out} ({x.size} channel uses)")


def _cmd_decode(args):
    cfg = _load(args)
    try:
        y = np.loadtxt(args.obs, dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"{args.obs}: {exc}") from exc
    if y.shape != (cfg.n,):
        raise ConfigError(f"expected {cfg.n} observations, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ConfigError(f"{args.obs}: observations must be finite")
    field, code, encoder = build_experiment(cfg)
    A = DesignMatrix(cfg.n, field.q * cfg.L, _matrix_for(cfg, 0))
    # the noise level is unknown here; tau^2 is estimated from the
    # residual, so only the generic floor applies
    params = DecoderParams(
        amp_iters=cfg.amp_iters,
        final_bp_iters=cfg.final_bp_iters,
        schedule=Schedule(cfg.schedule),
        tau2_floor=1e-12,
    )
    res = decode(y, A, code, encoder, params)
    np.savetxt(args.out, res.bits, fmt="%d")
    print(f"success={res.success} reason={res.termination_reason}; "
          f"wrote {args.out}")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "se": _cmd_se,
    "se-vs-truth": _cmd_se_vs_truth,
    "tune-rate": _cmd_tune_rate,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; a usage
        # error is a configuration error here, and 2 means a runtime failure
        return 0 if exc.code == 0 else 1
    try:
        _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
