#!/usr/bin/env python3
"""ncadmm benchmark: one workload per call, timed in-process.

    python3 perfbench/run.py --workload quantile-paper --seed 0 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports ncadmm from ``src/``
and refuses to run without it. One untimed warm-up (full set-up, a few
iterations per sigma) comes first; then whole workload runs repeat while the
next one is expected to end within ``--seconds``. Every solve is checked
against ``reference.json``. With ``--trace 0`` it prints the end-to-end
metrics, medians over the runs; with ``--trace 1`` it alternates untraced and
traced runs and prints the per-layer metrics of the traced ones. The last
line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("quantile-paper", "ct-paper", "quantile-probe")


def use_checkout_library() -> None:
    """Import ncadmm from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "ncadmm" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/ncadmm not found; run from an ncadmm source checkout")
    sys.path.insert(0, str(src))
    import ncadmm

    if Path(ncadmm.__file__).resolve().parent != src / "ncadmm":
        raise SystemExit(f"error: imported ncadmm from {ncadmm.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Provenance


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, data_seeds: list, warmup: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count()
    threads = _blas_threads()
    return {
        "workload": workload,
        "seed": seed,
        "data_seeds": data_seeds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None if threads is None else min(threads, nproc),
        "blas_threads_configured": threads,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "warmup": warmup,
        "workers": 1,
    }


# ---------------------------------------------------------------------------
# Measurement


def one_run(workload, size, seed, tracer=None) -> tuple:
    """One whole workload run in a scratch output directory; returns (outcome, phases)."""
    from workloads import WORKLOADS, Phases

    phases = Phases(tracer)
    with tempfile.TemporaryDirectory(dir=WORK) as out_dir:
        with phases("workload"):
            outcome = WORKLOADS[workload].run(size, seed, out_dir, phases)
    return outcome, phases


def measure(workload, size, seed, seconds, trace, reference) -> dict:
    """Repeat whole runs (alternating untraced and traced with `trace`) for `seconds`.

    Round k runs on dataset seed data_seed(seed + k), so that one dataset's
    set-up cost does not decide the median.
    """
    import tracing
    from workloads import data_seed, gate

    tracer = tracing.Tracer() if trace else None
    originals = tracing.snapshot()
    runs, verdicts = [], []
    t_start = time.perf_counter()
    for rnd in itertools.count():
        dseed = data_seed(seed + rnd)
        for traced in (False, True) if trace else (False,):
            if traced:
                tracer.run_id = len(runs)
                with tracing.instrumented(tracer):
                    outcome, phases = one_run(workload, size, dseed, tracer)
                if any(a is not b for a, b in zip(tracing.snapshot(), originals)):
                    raise RuntimeError("tracing wrappers were not removed")
            else:
                outcome, phases = one_run(workload, size, dseed)
            verdicts.extend(gate(workload, outcome, reference[str(dseed)]))
            runs.append({
                "traced": traced,
                "run_id": len(runs),
                "data_seed": dseed,
                "wall_s": phases.seconds("workload"),
                "setup_s": phases.seconds("setup"),
                # One rate per solve call (one sigma) that completed.
                "rates": [solve.iterations / seconds for solve, seconds
                          in zip(outcome.solves, phases.samples["solve"]) if solve.iterations],
            })
        elapsed = time.perf_counter() - t_start
        last = sum(r["wall_s"] for r in runs[-(2 if trace else 1):])
        if elapsed + last > seconds:
            break
    return {"runs": runs, "verdicts": verdicts, "tracer": tracer}


def _spread(values) -> str:
    if len(values) < 2:
        return f"{len(values)} sample(s)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{len(values)} samples, quartiles {q1:.6g}..{q3:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def end_to_end(runs) -> dict:
    timed = [r for r in runs if not r["traced"]]
    series = {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "iters_per_s": [rate for r in timed for rate in r["rates"]],
    }
    units = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s"}
    metrics = {}
    for name, values in series.items():
        # No completed solve leaves no rate; the failed solves already mark the run.
        metrics[name] = {"value": statistics.median(values) if values else 0.0,
                         "unit": units[name]}
        print(f"{name} = {metrics[name]['value']:.6g} {units[name]}  (median; {_spread(values)})")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(f"peak_rss_mb = {peak:.6g} MB  (peak resident memory of this process)")
    return metrics


def per_layer(runs, tracer) -> dict:
    import tracing

    traced = [r for r in runs if r["traced"]]
    per_run = [tracing.layer_metrics(tracer, r["run_id"]) for r in traced]
    metrics = {}
    for name, (_, unit, _) in tracing.LAYER_METRICS.items():
        values = [m[name] for m in per_run]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        note = " (computed)" if name.endswith(("bytes_per_iter", "elements_per_iter")) else ""
        print(f"{name} = {metrics[name]['value']:.6g} {unit}{note}  ({_spread(values)})")
    repeat = all(m[name] == per_run[0][name] for m in per_run for name in tracing.EXACT)
    print(f"# exact counts repeat across {len(per_run)} traced runs: {'yes' if repeat else 'NO'}")
    untraced = statistics.median(r["wall_s"] for r in runs if not r["traced"])
    overhead = statistics.median(r["wall_s"] for r in traced) / untraced
    metrics["tracing.overhead"] = {"value": overhead, "unit": "ratio"}
    print(f"tracing.overhead = {overhead:.6g} ratio  (traced wall_s over untraced wall_s)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="round k runs on dataset seed 20240801 + (seed + k) mod 16")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_checkout_library()
    sys.path.insert(0, str(BENCH))
    from workloads import SIZES, WARMUP_ITERS, data_seed, warmup_size

    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    size = SIZES[args.workload]
    warmup = (f"one untimed, ungated run with the full set-up and "
              f"{WARMUP_ITERS[args.workload]} iterations per sigma before measuring")
    WORK.mkdir(exist_ok=True)

    print(f"# ncadmm benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    one_run(args.workload, warmup_size(args.workload, size), data_seed(args.seed))

    result = measure(args.workload, size, args.seed, args.seconds, args.trace, reference)
    data_seeds = [r["data_seed"] for r in result["runs"]]
    print("# provenance " + json.dumps(provenance(args.workload, args.seed, data_seeds, warmup)))
    verdicts = result["verdicts"]
    failed = [v for v in verdicts if v is not None]
    for reason in failed:
        print(f"FAILED solve: {reason}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(result["runs"], result["tracer"])
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        result["tracer"].write(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(result["runs"])
    print(f"fail_rate = {len(failed) / len(verdicts):.6g} fraction  "
          f"({len(failed)} of {len(verdicts)} solves failed; one solve is one sigma)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
