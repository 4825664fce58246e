#!/usr/bin/env python3
"""Profile the paper workloads in-process and merge the results into a BENCH_*.json.

- `ct-step` (BENCH_ct_step.json): the CT sweep of `recon.run_ct_experiment`
  at the paper geometry (25x25 grid, 50 angles x 50 detectors, 100 energies,
  sigmas 1, 10, 100, alpha diagnostic on). Per outer iteration: ms in the
  per-ray Newton solve, in the loss with its gradient (`CtLoss.parts` and
  `CtLoss.gradient`), in the value-only loss (`CtLoss.parts`) and in the
  whole step (engine.run over its iterations); Newton ray-steps per active
  ray; minor page faults.
- `quantile-step` (BENCH_quantile_step.json): the sweep of `run_sigma_sweep`
  at the paper size (d=2000, n=1000, s*=10, sigmas 5e-5, 1e-4, 2e-4, 5e-4,
  one dataset and gamma). Per iteration: ms in `DenseMap.matvec` (Phi x),
  in `DenseMap.rmatvec` (Phi' u), in the elementwise kernels
  `quantile_loss` (objective and running-average loss),
  `quantile_prox_update` (y) and `soft_threshold` (x), and in the whole
  step; the median number of nonzeros of x_t, read from the matvec
  argument.
- `engine-step` (BENCH_engine_step.json): `engine.run` on the RSC probe
  problem (d=50, n=100, s*=3, sigma 5e-3), keeping every iterate as the
  probe does, and on the same problem with identity callbacks (both proxes
  return their center, the objective is 0, x_0 = 1 so that A x takes the
  full product as the probe's iterates do): the step, and the engine's own
  share of it. Microseconds per step, timed around whole runs; no library
  name is swapped.
- `peak-rss` (BENCH_peak_rss.json): `ru_maxrss` in MB after one call of each
  entry point in PEAK_ENTRIES, as `perfbench/run.py` reports `peak_rss_mb`,
  in `--processes` fresh interpreters per entry point, taken in turn. The
  `ct-sweep` entry also reports it after the import and after each stage of
  the sweep, and `ct-repeat` after each of its sweeps.

The step modes run `--rounds` rounds after one warm-up round and time calls
with time.perf_counter, inside engine runs only. Each summary is the median
and quartiles over rounds or processes.

    PYTHONPATH=src python scripts/bench_profile.py ct-step --label change --write BENCH_ct_step.json

`--write` merges the run under `--label` into a JSON file, so that two
source trees (say a parent commit and a change, each on PYTHONPATH in turn)
can be recorded side by side. Module-level imports are stdlib only, so that
a `peak-rss` child loads nothing but its entry point.
"""

import argparse
import functools
import inspect
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

SEED = 20240801
CT_SIGMAS = (1.0, 10.0, 100.0)
PAPER_SIGMAS = (5e-5, 1e-4, 2e-4, 5e-4)
PAPER_QUANTILE = {"d": 2000, "n": 1000, "s_star": 10}
PROBE_QUANTILE = {"d": 50, "n": 100, "s_star": 3, "sigma": 5e-3}
PEAK_ITERS = {"quantile-sweep": 20, "quantile-probe": 20_000, "ct-sweep": 5, "ct-repeat": 30}
CT_REPEAT_SWEEPS = 8
QUANTILE_KERNELS = ("quantile_loss", "quantile_prox_update", "soft_threshold")


class Counts:
    """Seconds per name, engine iterations and minor page faults, inside engine runs only."""

    def __init__(self, names):
        self.seconds = dict.fromkeys((*names, "step"), 0.0)
        self.iterations = 0
        self.minor_faults = 0
        self.in_run = False

    def ms_per_iter(self) -> dict:
        n = self.iterations
        return {f"{name}_ms_per_iter": 1e3 * s / n for name, s in self.seconds.items()}


@contextmanager
def swapped(wrappers):
    """For the block, replace each (owner, attribute) of `wrappers` by
    wrap(original), its value there; every swapped attribute is restored on
    the way out, also when the block raises."""
    saved = []
    try:
        for (owner, attr), wrap in wrappers.items():
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrap(saved[-1][2]))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def timing(names, run_at, timed):
    """Swap in the timing wrappers for the block and yield their Counts.

    `run_at` is the (owner, attribute) of the engine run, whose calls are
    charged to "step"; `timed` maps an (owner, attribute) to name_of(args,
    kwargs), the name in `names` that a call is charged to.
    """
    counts = Counts(names)

    def wrap_call(fn, name_of):
        def timed_call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if counts.in_run:
                    counts.seconds[name_of(args, kwargs)] += elapsed

        return timed_call

    def wrap_run(fn):
        def timed_run(problem, iters, **kwargs):
            counts.in_run = True
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            try:
                return fn(problem, iters=iters, **kwargs)
            finally:
                counts.seconds["step"] += time.perf_counter() - t0
                counts.minor_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                counts.iterations += iters
                counts.in_run = False

        return timed_run

    wrappers = {key: functools.partial(wrap_call, name_of=fn) for key, fn in timed.items()}
    with swapped({**wrappers, run_at: wrap_run}):
        yield counts


def step_rounds(args, one_round, warmup_iters, settings):
    """The settings, completed, and the summary of the rounds after a warm-up round."""
    one_round(warmup_iters)  # warm-up: caches, lazy imports, the heap
    summary = summarize([one_round(args.iters) for _ in range(args.rounds)])
    settings.update(iters_per_sigma=args.iters, rounds=args.rounds, seed=args.seed)
    settings["statistic"] = "median and quartiles over rounds, after one warm-up round"
    return settings, summary


def ct_step(args):
    from ncadmm.ct import forward as F
    from ncadmm.ct import recon as R

    geom = F.CtGeometry()
    model, phantom = F.build_spectral_model(), F.default_phantom(geom)
    parts = inspect.signature(F.CtLoss.parts)

    def loss_name(a, kw):
        want_grad = parts.bind(*a, **kw).arguments.get("want_grad", True)
        return "loss_grad" if want_grad else "loss_value"

    timed = {
        (R, "newton_ray_solve"): lambda a, kw: "newton",
        (F.CtLoss, "parts"): loss_name,
        (F.CtLoss, "gradient"): lambda a, kw: "loss_grad",
    }
    settings = {
        "geometry": "paper (25x25 grid, 50 angles x 50 detectors, 100 energies)",
        "active_rays": None,
        "sigmas": list(CT_SIGMAS),
    }

    def one_round(iters) -> dict:
        with timing(("newton", "loss_grad", "loss_value"), (R, "engine_run"), timed) as counts:
            summary = R.run_ct_experiment(
                geom, model, phantom, CT_SIGMAS, iters, args.seed, record_time=False
            )
        settings["active_rays"] = rays = summary["active_rays"]
        ray_steps = sum(run["newton"]["newton_ray_steps"] for run in summary["runs"].values())
        return {
            **counts.ms_per_iter(),
            "newton_ray_steps_per_ray": ray_steps / (counts.iterations * rays),
            "minor_faults_per_iter": counts.minor_faults / counts.iterations,
        }

    return step_rounds(args, one_round, 2, settings)


def quantile_step(args):
    import numpy as np

    from ncadmm import engine
    from ncadmm import quantile as Q

    spec = Q.QuantileProblemSpec(seed=args.seed)
    dataset = Q.generate_dataset(spec)
    gamma = Q.quantile_gamma(dataset.phi)

    def one_round(iters) -> dict:
        nnz = []

        def matvec_name(a, kw):
            nnz.append(np.count_nonzero(a[1]))
            return "matvec"

        timed = {
            (engine.DenseMap, "matvec"): matvec_name,
            (engine.DenseMap, "rmatvec"): lambda a, kw: "rmatvec",
        }
        for kernel in QUANTILE_KERNELS:  # called by the names quantile.py imports
            timed[(Q, kernel)] = lambda a, kw, kernel=kernel: kernel
        names = ("matvec", "rmatvec", *QUANTILE_KERNELS)
        with timing(names, (engine, "run"), timed) as counts:
            for sigma in PAPER_SIGMAS:
                run_spec = replace(spec, sigma=sigma)
                Q.run_quantile(run_spec, dataset, iters, gamma=gamma, record_time=False)
        return {**counts.ms_per_iter(), "nnz_x_median": float(np.median(nnz))}

    settings = {"size": f"d={spec.d}, n={spec.n}, s*={spec.s_star}", "sigmas": list(PAPER_SIGMAS)}
    return step_rounds(args, one_round, 5, settings)


def engine_step(args):
    import numpy as np

    from ncadmm import engine
    from ncadmm import quantile as Q

    spec = Q.QuantileProblemSpec(**PROBE_QUANTILE, seed=args.seed)
    probe = Q.build_problem(spec, Q.generate_dataset(spec))
    keep = engine.CompositeObjective(prox_step=lambda lin, D, center: center)
    identity = replace(probe, f=keep, g=keep, objective=lambda x, y, ax: 0.0)
    runs = {
        "probe": (probe, None),
        "identity": (identity, (np.ones(spec.d), np.zeros(spec.n), np.zeros(spec.n))),
    }

    def one_round(iters) -> dict:
        out = {}
        for name, (problem, init) in runs.items():
            iterates = []
            t0 = time.perf_counter()
            engine.run(
                problem, init=init, iters=iters,
                iteration_hook=lambda t, state: iterates.append((state.x, state.y)),
            )
            out[f"{name}_us_per_step"] = 1e6 * (time.perf_counter() - t0) / iters
        return out

    settings = {"size": f"d={spec.d}, n={spec.n}, s*={spec.s_star}, sigma={spec.sigma}"}
    return step_rounds(args, one_round, 500, settings)


def quantile_sweep(iters):
    from ncadmm import quantile as Q

    spec = Q.QuantileProblemSpec(**PAPER_QUANTILE, seed=SEED)
    Q.run_sigma_sweep(spec, PAPER_SIGMAS, iters=iters, record_time=False)


def quantile_probe(iters):
    from ncadmm import diagnostics as D
    from ncadmm import engine
    from ncadmm import quantile as Q

    spec = Q.QuantileProblemSpec(**PROBE_QUANTILE, seed=SEED)
    ds = Q.generate_dataset(spec)
    problem = Q.build_problem(spec, ds)
    iterates = []
    engine.run(
        problem, iters=iters, record_time=False,
        iteration_hook=lambda t, state: iterates.append((state.x, state.y)),
    )
    xi_star, zeta_star, u_star = Q.star_subgradients(spec, ds)
    y_star = ds.phi @ ds.x_true
    D.probe_trajectory(
        problem, Q.subgradient_selector(spec, ds), iterates, ds.x_true, y_star, xi_star, zeta_star
    )
    D.fosp_residuals(problem, ds.x_true, y_star, u_star, xi_star, zeta_star)


def ct_sweep(iters):
    """The CT sweep, and the peak RSS after the import and after each stage
    of `run_ct_experiment`: the projector, the counts, the restriction to
    active rays, `fosp_ratio` and the solves (after the last one)."""
    from ncadmm.ct import forward as F
    from ncadmm.ct import recon as R
    from ncadmm.numerics import SparseMatrix

    after = {"peak_rss_mb_after_import": peak_rss_mb()}
    stages = {
        (F, "build_projector"): "projector",
        (F, "forward_counts"): "counts",
        (SparseMatrix, "select_rows"): "active_rays",
        (R, "fosp_ratio"): "fosp_ratio",
        (R, "run_ct_reconstruction"): "solves",
    }

    def recorded(fn, name):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                after[f"peak_rss_mb_after_{name}"] = peak_rss_mb()

        return call

    with swapped({key: functools.partial(recorded, name=name) for key, name in stages.items()}):
        geom = F.CtGeometry()
        R.run_ct_experiment(
            geom, F.build_spectral_model(), F.default_phantom(geom), CT_SIGMAS, iters, SEED,
            record_time=False,
        )
    return after


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ct_repeat(iters):
    after = {}
    for k in range(1, CT_REPEAT_SWEEPS + 1):
        ct_sweep(iters)
        after[f"peak_rss_mb_after_sweep_{k}"] = peak_rss_mb()
    return after


# quantile-sweep: few iterations suffice, since the memory depends on the
# size and not on the iteration count. quantile-probe keeps every iterate, as
# scripts/probe_rsc_quantile.py does. ct-repeat shows whether the peak creeps
# up from sweep to sweep.
PEAK_ENTRIES = {
    "quantile-sweep": quantile_sweep,
    "quantile-probe": quantile_probe,
    "ct-sweep": ct_sweep,
    "ct-repeat": ct_repeat,
}


def peak_rss(args):
    if args.entry is not None:  # a child: run one entry point and print its record
        extra = PEAK_ENTRIES[args.entry](PEAK_ITERS[args.entry]) or {}
        loaded = float("scipy.sparse" in sys.modules)
        print(json.dumps({"peak_rss_mb": peak_rss_mb(), "scipy_sparse_loaded": loaded, **extra}))
        return None
    rows = {entry: [] for entry in PEAK_ENTRIES}
    for _ in range(args.processes):
        for entry in PEAK_ENTRIES:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "peak-rss", "--entry", entry],
                capture_output=True, text=True, check=True,
            )
            rows[entry].append(json.loads(proc.stdout.splitlines()[-1]))
    settings = {
        "quantile-sweep": f"d=2000, n=1000, s*=10, sigmas {list(PAPER_SIGMAS)}",
        "quantile-probe": "d=50, n=100, s*=3, sigma 5e-3, probe and FOSP residuals",
        "ct-sweep": f"25x25 grid, 50x50 rays, 100 energies, sigmas {list(CT_SIGMAS)}",
        "ct-repeat": f"{CT_REPEAT_SWEEPS} ct-sweep runs in one process",
        "iters": PEAK_ITERS,
        "seed": SEED,
        "processes": args.processes,
        "statistic": "median and quartiles over fresh processes of ru_maxrss after the call",
    }
    return settings, {entry: summarize(entry_rows) for entry, entry_rows in rows.items()}


def summarize(rows) -> dict:
    import statistics  # here, so that a peak-rss child does not load it

    out = {}
    for key in rows[0]:
        values = sorted(r[key] for r in rows)
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        out[key] = {"median": median, "q1": q1, "q3": q3}
    return out


def report(summary, prefix="") -> None:
    for key, stats in summary.items():
        if "median" not in stats:  # a peak-rss entry point
            report(stats, f"{prefix}{key} ")
            continue
        q1, median, q3 = stats["q1"], stats["median"], stats["q3"]
        print(f"{prefix + key:48s} {median:10.4g}  (q1 {q1:.4g}, q3 {q3:.4g})")


def machine() -> dict:
    """The host: CPU model, core count, per-core L2 size as the kernel gives
    it (None where it gives none; the CT ray blocks are sized against it),
    and the Python and numpy versions."""
    import numpy as np

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            l2 = fh.read().strip()
    except OSError:
        l2 = None
    python = platform.python_version()
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "l2_per_core": l2, "python": python,
        "numpy": np.__version__,
    }


def write(path, label, settings, summary) -> None:
    """Merge `summary` under `label` into the JSON file at `path`, with this
    run's settings and machine."""
    record = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    record["settings"] = settings
    record["machine"] = machine()
    record[label] = summary
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


MODES = {
    "ct-step": ct_step,
    "quantile-step": quantile_step,
    "engine-step": engine_step,
    "peak-rss": peak_rss,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    ct = modes.add_parser("ct-step", help="the CT step at the paper geometry")
    ct.add_argument("--iters", type=int, default=30, help="outer iterations per sigma")
    ct.add_argument("--seed", type=int, default=SEED, help="Poisson count seed")
    quantile = modes.add_parser("quantile-step", help="the quantile step at the paper size")
    quantile.add_argument("--iters", type=int, default=500, help="iterations per sigma")
    quantile.add_argument("--seed", type=int, default=SEED, help="dataset seed")
    step = modes.add_parser("engine-step", help="the engine's step at the RSC probe size")
    step.add_argument("--iters", type=int, default=PEAK_ITERS["quantile-probe"], help="iterations")
    step.add_argument("--seed", type=int, default=SEED, help="dataset seed")
    peak = modes.add_parser("peak-rss", help="peak resident memory, one process per call")
    peak.add_argument("--processes", type=int, default=5, help="fresh processes per entry point")
    peak.add_argument("--entry", choices=PEAK_ENTRIES, help=argparse.SUPPRESS)
    for mode in (ct, quantile, step):
        mode.add_argument("--rounds", type=int, default=5)
    for mode in (ct, quantile, step, peak):
        mode.add_argument("--label", default="run")
        mode.add_argument("--write", default=None, help="JSON file to merge this run into")
    args = parser.parse_args(argv)

    result = MODES[args.mode](args)
    if result is not None:
        settings, summary = result
        report(summary)
        if args.write is not None:
            write(args.write, args.label, settings, summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
