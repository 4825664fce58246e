"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They are not part of the repository's own suite (its testpaths name only
tests/), so they run when the benchmark is changed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
import tracing
import workloads as W

# Small enough for seconds-long tests; at d=200 every sigma of the quantile
# sweep moves x off zero within 20 iterations.
TINY = {
    "quantile-paper": W.QuantileSize(200, 100, 5, (5e-5, 1e-4, 2e-4, 5e-4), 20),
    "ct-paper": W.CtSize(6, 8, 8, 10, (1.0, 10.0, 100.0), 3),
    "quantile-probe": W.QuantileSize(10, 20, 2, (5e-3,), 50),
}
SEED = W.PAPER_SEED

# Calls per ADMM iteration at the commit that defined the benchmark; the
# structure of an iteration does not depend on the problem size.
EXPECTED_COUNTS = {
    "quantile-paper": {
        "engine.DenseMap.calls_per_iter": 3.0,
        "quantile.quantile_objective.calls_per_iter": 2.0,
    },
    "ct-paper": {
        "numerics.SparseMatrix.matmat.calls_per_iter": 4.0,
        "numerics.SparseMatrix.rmatmat.calls_per_iter": 1.0,
        "prox.qexp.calls_per_iter": 13.0,
        "ct.forward.ct_loss_parts.calls_per_iter": 3.0,
        "ct.recon.newton_ray_solve.calls_per_iter": 1.0,
    },
    "quantile-probe": {
        "engine.DenseMap.calls_per_iter": 3.0,
        "quantile.quantile_objective.calls_per_iter": 1.0,
        "diagnostics.rsc_probe.calls": float(TINY["quantile-probe"].iters),
    },
}


def _library(name, size, out_dir):
    out_dir.mkdir(exist_ok=True)
    return W.WORKLOADS[name].library(size, SEED, str(out_dir))


def _composed(name, size, out_dir, tracer=None, record_time=True):
    out_dir.mkdir(exist_ok=True)
    phases = W.Phases(tracer)
    with phases("workload"):
        outcome = W.WORKLOADS[name].run(size, SEED, str(out_dir), phases, record_time)
    return outcome, phases


def test_self_time_on_synthetic_nested_call(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 10.0, 15.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    leaf = tracing.traced(tracer, "leaf", lambda: None)
    mid = tracing.traced(tracer, "mid", leaf)

    def body():
        mid()
        leaf()

    tracing.traced(tracer, "outer", body)()
    # outer [0, 15] holds mid [1, 7] (which holds leaf [2, 4]) and leaf [8, 10].
    assert tracer.names == ["outer", "mid", "leaf", "leaf"]
    assert tracer.parent == [-1, 0, 1, 0]
    assert tracing.self_times(tracer).tolist() == [7.0, 4.0, 2.0, 2.0]


def test_wrappers_removed_after_traced_run(tmp_path):
    originals = tracing.snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracer):
            assert all(a is not b for a, b in zip(tracing.snapshot(), originals))
            _composed("quantile-probe", TINY["quantile-probe"], tmp_path / "traced", tracer)
            raise RuntimeError("a failing traced run still restores the program")
    assert all(a is b for a, b in zip(tracing.snapshot(), originals))
    spans = len(tracer.start)
    assert spans > 0
    _composed("quantile-probe", TINY["quantile-probe"], tmp_path / "plain")
    assert len(tracer.start) == spans


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(name, tmp_path):
    size = TINY[name]
    reference = _library(name, size, tmp_path / "library")
    outcome, phases = _composed(name, size, tmp_path / "plain")
    assert W.gate(name, outcome, reference) == [None] * len(size.sigmas)
    assert outcome.iterations == size.iters * len(size.sigmas)
    assert {"workload", "setup", "solve", "output"} <= set(phases.samples)
    assert len(phases.samples["solve"]) == len(size.sigmas)

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        outcome, _ = _composed(name, size, tmp_path / "traced", tracer)
    assert W.gate(name, outcome, reference) == [None] * len(size.sigmas)
    metrics = tracing.layer_metrics(tracer, 0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    for metric, count in EXPECTED_COUNTS[name].items():
        assert metrics[metric] == count, metric


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_gate_rejects_a_short_solve(name, tmp_path):
    size = TINY[name]
    reference = _library(name, size, tmp_path / "library")
    outcome, _ = _composed(name, replace(size, iters=size.iters - 1), tmp_path / "short")
    assert all(v is not None for v in W.gate(name, outcome, reference))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_composition_writes_the_library_outputs(name, tmp_path):
    """Paper geometry, few iterations: every output file is byte-identical."""
    size = W.warmup_size(name, W.SIZES[name])
    _library(name, size, tmp_path / "library")
    _composed(name, size, tmp_path / "composed", record_time=False)
    library = sorted(p.name for p in (tmp_path / "library").iterdir())
    assert library == sorted(p.name for p in (tmp_path / "composed").iterdir())
    for file in library:
        assert (tmp_path / "library" / file).read_bytes() == (
            tmp_path / "composed" / file
        ).read_bytes(), file


def test_reference_covers_every_data_seed_and_sigma():
    reference = json.loads((run.BENCH / "reference.json").read_text())
    for name in run.WORKLOAD_NAMES:
        size = W.SIZES[name]
        for seed in range(W.PAPER_SEED, W.PAPER_SEED + W.DATA_SEEDS):
            entry = reference[name][str(seed)]
            assert sorted(entry["solves"]) == sorted(repr(s) for s in size.sigmas)
            values = [v for solve in entry["solves"].values() for v in solve.values()]
            assert np.all(np.isfinite(values + list(entry["shared"].values())))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quantile-probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
