"""srldpc benchmark: run one workload (or all) in a fresh single-threaded
child process, check its outputs against stored references, and print
every metric by name and unit.

    python3 perfbench/run.py --workload desk-bpn --seed 1 --trace 0
    python3 perfbench/run.py                  # every workload, seed 1
    python3 perfbench/run.py --make-reference # rewrite reference.json

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Each run also writes a record to perfbench/runs/.  See README.md in this
directory for the workloads and the metrics.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
RUNS = BENCH_DIR / "runs"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
MIN_PASSES = 4
MAX_PASS_SECONDS = 100      # keeps a much slower program within the timeout
CAL_ITERS = 20_000
CAL_REF_S = 0.1             # seconds of the calibration kernel that times
                            # are scaled to
# Pass times followed the calibration kernel's time to a power between
# 0.25 and 1 depending on the workload; 0.5 kept all four steady (see
# README.md, Speed scaling).
PASS_SPEED_EXPONENT = 0.5


# --- child: runs inside the single-threaded process -----------------------

def _import_library():
    """Import srldpc from this checkout's src/, never from elsewhere."""
    import srldpc
    if Path(srldpc.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"srldpc imported from {srldpc.__file__}, "
                          f"not from {SRC}")


def measure(workload, seconds, trace, reference):
    """Set up, then run passes until ``seconds`` have elapsed.

    The workload is set up ``setup_repeats`` times before the first pass
    and ``setups_per_pass`` times before each pass.
    With trace, passes alternate untraced and traced, so the tracing
    overhead is measured in the same process.  Returns a dict with the
    set-up times, the passes and the tracers.
    """
    from tracing import Tracer
    import workloads

    setup_tracer = Tracer(op_span=None)
    op_tracer = Tracer(op_span=workload.op_span)
    if trace:
        workloads.add_trace_sites(setup_tracer)
        workloads.add_trace_sites(op_tracer)

    setups = []
    last_cal = calibrate()

    def scaled(taken, exponent):
        # Each timed unit is bracketed by calibrations and scaled by
        # (reference / their mean) ** exponent, so that a slower machine
        # does not read as slower code.
        nonlocal last_cal
        cal = calibrate()
        speed = 2 * CAL_REF_S / (last_cal + cal)
        last_cal = cal
        return {"seconds": taken, "ref_seconds": taken * speed ** exponent,
                "cal_s": cal}

    def timed_setups(count):
        for _ in range(count):
            with setup_tracer.installed():
                t0 = time.perf_counter()
                workload.setup()
                taken = time.perf_counter() - t0
            setups.append(scaled(taken, workload.setup_speed_exponent))

    timed_setups(workload.setup_repeats)
    workload.make_inputs()

    passes = []
    start = time.perf_counter()
    while True:
        # Set-ups spread over the run sample the same machine conditions
        # as the passes; the op set they build is identical every time.
        timed_setups(workload.setups_per_pass)
        traced = trace and len(passes) % 2 == 1
        tracer = op_tracer if traced else Tracer(op_span=None)
        t0 = time.perf_counter()
        try:
            with tracer.installed():
                outputs, counters = workload.run_pass()
        except Exception:
            outputs, counters = None, {}
            failed = workload.ops_per_pass
            notes = [traceback.format_exc(limit=3)]
        timing = scaled(time.perf_counter() - t0, PASS_SPEED_EXPONENT)
        if outputs is not None:
            expected = reference if reference is not None else (
                passes[0]["outputs"] if passes else outputs)
            failed, notes = workload.failures(outputs, expected)
        if traced:
            op_tracer.counts.update(counters)
        passes.append({"traced": traced, "ops": workload.ops_per_pass,
                       "failed": failed, "notes": notes, "outputs": outputs,
                       **timing})
        elapsed = time.perf_counter() - start
        if ((elapsed >= seconds and len(passes) >= MIN_PASSES)
                or elapsed >= MAX_PASS_SECONDS):
            break
    return {"setups": setups, "passes": passes,
            "op_tracer": op_tracer, "setup_tracer": setup_tracer}


def calibrate():
    """Seconds a fixed kernel takes right now; it does not use srldpc.

    Small numpy calls in a Python loop, the kind of work that dominates
    the desk and SE workloads, so it slows down with them when the
    machine's speed drifts (on a shared host it was seen to halve within
    minutes).  The workloads' passes drift about as the square root of
    the kernel (``PASS_SPEED_EXPONENT``); set-ups state their own
    exponent (``setup_speed_exponent``).
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 16))
    h = rng.standard_normal((16, 16))
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        b = a @ h
        np.maximum(b, 0.0, out=b)
        b.sum()
    return time.perf_counter() - t0


def _rate(passes, key):
    """Mean ops per second of the completed passes, timed by ``key``.

    With more than two passes the fastest and the slowest are left out,
    which keeps a pass hit by a burst of contention from moving the mean.
    """
    rates = sorted(p["ops"] / p[key] for p in passes
                   if p["outputs"] is not None)
    if len(rates) > 2:
        rates = rates[1:-1]
    return statistics.mean(rates) if rates else 0.0


def derive_metrics(workload, run):
    """All metrics of a measured run, as {name: (value, unit)} groups."""
    import workloads

    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    setups = run["setups"]
    ops_per_s = _rate(plain, "ref_seconds")
    end_to_end = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "setup_s": (statistics.median(s["ref_seconds"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
    }
    wall_clock = {
        "wall_ops_per_s": (_rate(plain, "seconds"), "ops/s"),
        "wall_setup_s": (statistics.median(s["seconds"] for s in setups),
                         "s"),
        "cal_s": (statistics.median(u["cal_s"] for u in setups + passes),
                  "s"),
    }
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first_ok = next((p["outputs"] for p in passes
                     if p["outputs"] is not None), None)
    quality = dict(workload.quality(first_ok)) if first_ok else {}
    quality["fail_ratio"] = (failed / attempted, "share")

    per_layer = {}
    if traced:
        ops = sum(p["ops"] for p in traced)
        wall = sum(p["seconds"] for p in traced)
        tracer = run["op_tracer"]
        per_layer = workloads.layer_metrics(
            tracer, ops, wall, run["setup_tracer"], len(setups))
        traced_rate = _rate(traced, "ref_seconds")
        per_layer["trace.ops_per_s"] = (traced_rate, "ops/s")
        per_layer["trace.overhead"] = (
            1.0 - traced_rate / ops_per_s if ops_per_s else 0.0, "share")
        per_layer["trace.spans_per_op"] = (len(tracer.names) / ops, "1/op")
    return {"end_to_end": end_to_end, "wall_clock": wall_clock,
            "quality": quality, "per_layer": per_layer,
            "attempted": attempted, "failed": failed}


def environment():
    """The child's Python, numpy, scipy and BLAS versions and BLAS threads."""
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV}}


def child_main(args):
    _import_library()
    import workloads

    reference = None
    if not args.make_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    workload = workloads.make_workload(args.workload, args.seed)
    run = measure(workload, 0.0 if args.make_reference else args.seconds,
                  bool(args.trace), reference)
    if args.make_reference:
        if any(p["failed"] for p in run["passes"]):
            raise RuntimeError(f"passes disagree: {run['passes']}")
        print(json.dumps({"reference": run["passes"][0]["outputs"]}))
        return 0
    metrics = derive_metrics(workload, run)
    if args.trace:
        run["op_tracer"].write_csv(args.spans)
    metrics["passes"] = [{k: v for k, v in p.items() if k != "outputs"}
                         for p in run["passes"]]
    metrics["setups"] = run["setups"]
    metrics["environment"] = environment()
    print(json.dumps(metrics))
    return 0


# --- parent: environment, record, output ----------------------------------

def _git_describe():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "srldpc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(workload, seed, seconds, trace, extra=(), spans=None):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: child exited with code "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(name, value, unit):
    return f"  {name:<44} {value:>14.6g} {unit}"


def run_workload(name, seed, seconds, trace, manifest):
    """Run one workload, print its report and write its record.

    Returns the result object of the benchmark's output contract.
    """
    RUNS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%fZ")
    stem = f"{name}-seed{seed}-trace{trace}-{stamp}"
    spans = RUNS / f"{stem}.spans.csv" if trace else None
    load_before = os.getloadavg()
    child = run_child(name, seed, seconds, trace, spans=spans)
    load_after = os.getloadavg()

    listed = manifest["per_layer" if trace else "end_to_end"]
    measured = child["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit!r} differs from "
                               f"BENCHMARK.json {entry['unit']!r}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {"correct": child["failed"] == 0,
              "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    groups = ["end_to_end", "wall_clock", "quality"] + (
        ["per_layer"] if trace else [])
    for group in groups:
        for key, (value, unit) in child[group].items():
            print(_fmt(key, value, unit))
    gate = "PASS" if result["correct"] else "FAIL"
    print(f"  reference check: {gate} ({child['failed']} of "
          f"{child['attempted']} ops failed)")
    for p in child["passes"]:
        for note in p["notes"]:
            print(f"    {note}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "utc": stamp, "commit": _git_describe(),
        "src_sha256": _source_digest(),
        "environment": child.pop("environment"),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "result": result, "child": child,
        "spans_csv": spans.name if spans else None,
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result


def make_reference(names):
    reference = {}
    for name in names:
        child = run_child(name, 1, 0, 0, extra=("--make-reference",))
        reference[name] = child["reference"]
        print(f"{name}: {json.dumps(reference[name])[:200]}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    manifest = json.loads(MANIFEST.read_text())
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in manifest["workloads"]]
    if args.make_reference:
        make_reference(names)
        return 0
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, args.trace,
                              manifest)
        print(json.dumps(result))
        return 0
    ok = True
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace, manifest)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
