"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

DESK = dict(trials=4, m=4, L=32, P=4, B=112, n=150)
TINY = {
    "desk-bpn": DESK,
    "desk-bp0": DESK,
    "paper-denoise": dict(m=4, L=64, P=8, grid=((0.03, 0), (0.05, 2))),
    "se-tune": dict(psi_samples=10_000, l_range=(31, 34), m=4, L=32, P=4,
                    B=112, n=150),
}
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_run(request):
    name = request.param
    workload = workloads.make_workload(name, 3, **TINY[name])
    measured = run.measure(workload, 0.0, trace=True, reference=None)
    return name, workload, measured


def test_workloads_match_manifest():
    assert sorted(w["name"] for w in MANIFEST["workloads"]) == sorted(TINY)


def test_metric_names_and_units_match_manifest(traced_run):
    _, workload, measured = traced_run
    metrics = run.derive_metrics(workload, measured)
    for group in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in MANIFEST[group]}
        printed = {k: unit for k, (_, unit) in metrics[group].items()}
        assert printed == listed


def test_spans_nest_and_self_times_are_nonnegative(traced_run):
    _, _, measured = traced_run
    for tracer in (measured["op_tracer"], measured["setup_tracer"]):
        spans = list(tracer.spans())
        assert spans
        for name, start, end, parent, op in spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _, p_op = spans[parent]
                assert p_start <= start and end <= p_end
                assert op == p_op or name == tracer.op_span
        for stats in tracer.summary().values():
            assert stats["self_s"] >= -1e-9


def test_traced_and_untraced_outputs_are_identical(traced_run):
    _, _, measured = traced_run
    passes = measured["passes"]
    assert {p["traced"] for p in passes} == {False, True}
    assert all(p["failed"] == 0 for p in passes)
    assert all(p["outputs"] == passes[0]["outputs"] for p in passes)


def test_se_outputs_do_not_depend_on_the_seed():
    outputs = []
    for seed in (1, 2):
        workload = workloads.make_workload("se-tune", seed, **TINY["se-tune"])
        workload.setup()
        outputs.append(workload.run_pass()[0])
    assert outputs[0] == outputs[1]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        MANIFEST["command"] + ["--workload", "desk-bpn", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
