#!/usr/bin/env python3
"""Peak resident memory of each paper entry point, one fresh process per call.

Starts `--processes` new interpreters per entry point, alternating the entry
points, and in each runs one call:

- `quantile-sweep`: `quantile.run_sigma_sweep` at the paper size (d=2000,
  n=1000, s*=10, sigmas 5e-5, 1e-4, 2e-4, 5e-4); few iterations suffice,
  since the memory depends on the size and not on the iteration count;
- `quantile-probe`: the d=50, n=100, s*=3, sigma 5e-3 run of `engine.run`
  that keeps every iterate, then `diagnostics.probe_trajectory` and
  `diagnostics.fosp_residuals` (as `scripts/probe_rsc_quantile.py`);
- `ct-sweep`: `recon.run_ct_experiment` at the paper geometry (25x25 grid,
  50 angles x 50 detectors, 100 energies, sigmas 1, 10, 100);
- `ct-repeat`: 8 such sweeps of 30 iterations each in one process, which
  shows whether the peak creeps up from sweep to sweep; it also reports
  `ru_maxrss` after each sweep.

After the call each process reports `ru_maxrss` in MB (resource.getrusage,
as `perfbench/run.py` reports `peak_rss_mb`) and whether `scipy.sparse` was
loaded. The summary is the median and quartiles over processes.

    PYTHONPATH=src python scripts/peak_rss_profile.py --label change --write BENCH_peak_rss.json

`--write` merges this run under `--label` into a JSON file, so that two
source trees (say a parent commit and a change, each on PYTHONPATH in turn)
can be recorded side by side with the same script.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

ITERS = {"quantile-sweep": 20, "quantile-probe": 20_000, "ct-sweep": 5, "ct-repeat": 30}
CT_REPEAT_SWEEPS = 8
PAPER_QUANTILE = {"d": 2000, "n": 1000, "s_star": 10}
PAPER_SIGMAS = (5e-5, 1e-4, 2e-4, 5e-4)
PROBE_QUANTILE = {"d": 50, "n": 100, "s_star": 3, "sigma": 5e-3}
CT_SIGMAS = (1.0, 10.0, 100.0)
SEED = 20240801


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
    from ncadmm.ct import forward as F
    from ncadmm.ct import recon as R

    geom = F.CtGeometry()
    R.run_ct_experiment(
        geom, F.build_spectral_model(), F.default_phantom(geom), CT_SIGMAS, iters, SEED,
        record_time=False,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ct_repeat(iters):
    after = {}
    for k in range(1, CT_REPEAT_SWEEPS + 1):
        ct_sweep(iters)
        after[f"peak_rss_mb_after_sweep_{k}"] = peak_rss_mb()
    return after


ENTRIES = {
    "quantile-sweep": quantile_sweep,
    "quantile-probe": quantile_probe,
    "ct-sweep": ct_sweep,
    "ct-repeat": ct_repeat,
}


def child(entry: str) -> None:
    """Run one entry point in this process and print its memory record as JSON."""
    extra = ENTRIES[entry](ITERS[entry]) or {}
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "scipy_sparse_loaded": float("scipy.sparse" in sys.modules),
        **extra,
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", type=int, default=5, help="fresh processes per entry point")
    parser.add_argument("--label", default="run")
    parser.add_argument("--write", default=None, help="JSON file to merge this run into")
    parser.add_argument("--entry", choices=ENTRIES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.entry is not None:
        child(args.entry)
        return 0

    # Imported only here, so that a child process loads nothing but its entry point.
    from ct_step_profile import machine, summarize

    rows = {entry: [] for entry in ENTRIES}
    for _ in range(args.processes):
        for entry in ENTRIES:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--entry", entry],
                capture_output=True, text=True, check=True,
            )
            rows[entry].append(json.loads(proc.stdout.splitlines()[-1]))
    summary = {entry: summarize(entry_rows) for entry, entry_rows in rows.items()}
    for entry, stats in summary.items():
        rss = stats["peak_rss_mb"]
        print(
            f"{entry:16s} peak_rss_mb {rss['median']:8.2f}  (q1 {rss['q1']:.2f}, q3 {rss['q3']:.2f})"
            f"  scipy.sparse loaded: {stats['scipy_sparse_loaded']['median'] == 1.0}"
        )
        sweeps = [v["median"] for k, v in stats.items() if k.startswith("peak_rss_mb_after")]
        if sweeps:
            print(f"{'':16s} median after each sweep: " + " ".join(f"{v:.2f}" for v in sweeps))
    if args.write is not None:
        record = {}
        if os.path.exists(args.write):
            with open(args.write) as fh:
                record = json.load(fh)
        record["settings"] = {
            "quantile-sweep": f"d=2000, n=1000, s*=10, sigmas {list(PAPER_SIGMAS)}",
            "quantile-probe": "d=50, n=100, s*=3, sigma 5e-3, probe and FOSP residuals",
            "ct-sweep": f"25x25 grid, 50x50 rays, 100 energies, sigmas {list(CT_SIGMAS)}",
            "ct-repeat": f"{CT_REPEAT_SWEEPS} ct-sweep runs in one process",
            "iters": ITERS,
            "seed": SEED,
            "processes": args.processes,
            "statistic": "median and quartiles over fresh processes of ru_maxrss after the call",
        }
        record.setdefault("machine", machine())
        record[args.label] = summary
        with open(args.write, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
