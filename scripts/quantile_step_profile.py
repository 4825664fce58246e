#!/usr/bin/env python3
"""Profile the quantile-regression step at the paper size, in-process.

Runs the sigma sweep as `run_sigma_sweep` does (d=2000, n=1000, s*=10, sigmas
5e-5, 1e-4, 2e-4, 5e-4, one shared dataset and gamma) for a few rounds after
one warm-up, and reports per iteration, as the median and quartiles over
rounds:

- ms in `DenseMap.matvec` (the Phi x product) and in `DenseMap.rmatvec`
  (the Phi' u product), time.perf_counter around each call;
- ms of the whole step (engine.run divided by its iterations);
- the median number of nonzeros of x_t, read from the matvec argument.

    PYTHONPATH=src python scripts/quantile_step_profile.py --label change --write BENCH_quantile_step.json

`--write` merges this run under `--label` into a JSON file, so that two
source trees (say a parent commit and a change, each on PYTHONPATH in turn)
can be recorded side by side with the same script.
"""

import argparse
import json
import os
import statistics
import time
from dataclasses import replace

import numpy as np

from ct_step_profile import machine, summarize
from ncadmm import engine
from ncadmm import quantile as Q

SIGMAS = (5e-5, 1e-4, 2e-4, 5e-4)


class Timers:
    """Seconds per name and the nonzeros of each x_t, inside engine runs only."""

    def __init__(self):
        self.seconds = dict.fromkeys(("matvec", "rmatvec", "step"), 0.0)
        self.nnz = []
        self.iterations = 0
        self.in_run = False

    def wrap(self, name, fn):
        def timed(map_, v):
            t0 = time.perf_counter()
            try:
                return fn(map_, v)
            finally:
                elapsed = time.perf_counter() - t0
                if self.in_run:
                    self.seconds[name] += elapsed
                    if name == "matvec":
                        self.nnz.append(np.count_nonzero(v))

        return timed


def install(timers):
    """Replace the timed names with wrappers; returns the originals to restore."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for name in ("matvec", "rmatvec"):
        patch(engine.DenseMap, name, timers.wrap(name, getattr(engine.DenseMap, name)))
    real_run = engine.run

    def timed_run(problem, iters, **kwargs):
        timers.in_run = True
        t0 = time.perf_counter()
        try:
            return real_run(problem, iters=iters, **kwargs)
        finally:
            timers.seconds["step"] += time.perf_counter() - t0
            timers.iterations += iters
            timers.in_run = False

    patch(engine, "run", timed_run)
    return saved


def one_round(spec, dataset, gamma, iters) -> dict:
    timers = Timers()
    saved = install(timers)
    try:
        for sigma in SIGMAS:
            run_spec = replace(spec, sigma=sigma)
            Q.run_quantile(run_spec, dataset, iters, gamma=gamma, record_time=False)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    n = timers.iterations
    row = {f"{name}_ms_per_iter": 1e3 * s / n for name, s in timers.seconds.items()}
    row["nnz_x_median"] = float(statistics.median(timers.nnz))
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--iters", type=int, default=500, help="iterations per sigma")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20240801, help="dataset seed")
    parser.add_argument("--label", default="run")
    parser.add_argument("--write", default=None, help="JSON file to merge this run into")
    args = parser.parse_args()

    spec = Q.QuantileProblemSpec(seed=args.seed)
    dataset = Q.generate_dataset(spec)
    gamma = Q.quantile_gamma(dataset.phi)
    one_round(spec, dataset, gamma, 5)  # warm-up: caches, lazy imports, the heap
    rows = [one_round(spec, dataset, gamma, args.iters) for _ in range(args.rounds)]
    summary = summarize(rows)
    for key, stats in summary.items():
        print(f"{key:32s} {stats['median']:10.4g}  (q1 {stats['q1']:.4g}, q3 {stats['q3']:.4g})")
    if args.write is not None:
        record = {}
        if os.path.exists(args.write):
            with open(args.write) as fh:
                record = json.load(fh)
        record["settings"] = {
            "size": f"d={spec.d}, n={spec.n}, s*={spec.s_star}",
            "sigmas": list(SIGMAS),
            "iters_per_sigma": args.iters,
            "rounds": args.rounds,
            "seed": args.seed,
            "statistic": "median and quartiles over rounds, after one warm-up round",
        }
        record.setdefault("machine", machine())
        record[args.label] = summary
        with open(args.write, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
