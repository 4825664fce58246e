#!/usr/bin/env python3
"""Profile the CT reconstruction step at the paper geometry, in-process.

Runs the CT sweep of `run_ct_experiment` (25x25 grid, 50 angles x 50
detectors, 100 energies, sigmas 1, 10, 100, alpha diagnostic on) for a few
rounds after one warm-up, and reports per outer iteration, as the median and
quartiles over rounds:

- ms in the per-ray Newton solve, in the loss with its gradient and in the
  value-only loss (time.perf_counter around each call);
- ms of the whole step (engine.run divided by its iterations);
- Newton ray-steps per active ray;
- minor page faults of the process (resource.getrusage).

    PYTHONPATH=src python scripts/ct_step_profile.py --label change --write BENCH_ct_step.json

`--write` merges this run under `--label` into a JSON file, so that two
source trees (say a parent commit and a change, each on PYTHONPATH in turn)
can be recorded side by side with the same script. The loss is timed at
`CtLoss.parts` where that evaluator exists, else at `recon.ct_loss_parts`,
which is where earlier versions evaluated it.
"""

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import time

import numpy as np

from ncadmm.ct import forward as F
from ncadmm.ct import recon as R

SIGMAS = (1.0, 10.0, 100.0)


class Timers:
    """Seconds per name, Newton ray-steps and page faults, inside engine runs only."""

    def __init__(self):
        self.seconds = dict.fromkeys(("newton", "loss_grad", "loss_value", "step"), 0.0)
        self.ray_steps = 0
        self.minor_faults = 0
        self.iterations = 0
        self.in_run = False

    def wrap(self, name_of, fn):
        signature = inspect.signature(fn)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if self.in_run:
                    self.seconds[name_of(signature.bind(*args, **kwargs).arguments)] += elapsed

        return timed


def install(timers):
    """Replace the timed names with wrappers; returns the originals to restore."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    patch(R, "newton_ray_solve", timers.wrap(lambda a: "newton", R.newton_ray_solve))
    loss_owner, loss_attr = (F.CtLoss, "parts") if hasattr(F, "CtLoss") else (R, "ct_loss_parts")
    patch(
        loss_owner,
        loss_attr,
        timers.wrap(
            lambda a: "loss_grad" if a.get("want_grad", True) else "loss_value",
            getattr(loss_owner, loss_attr),
        ),
    )
    real_solve = R.spd_solve

    def counting_solve(lower, shift, rhs):
        if timers.in_run:  # one call per Newton step, one column per ray
            timers.ray_steps += rhs.shape[1]
        return real_solve(lower, shift, rhs)

    patch(R, "spd_solve", counting_solve)
    real_run = R.engine_run

    def timed_run(problem, iters, **kwargs):
        timers.in_run = True
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        try:
            return real_run(problem, iters=iters, **kwargs)
        finally:
            timers.seconds["step"] += time.perf_counter() - t0
            timers.minor_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            timers.iterations += iters
            timers.in_run = False

    patch(R, "engine_run", timed_run)
    return saved


def inputs(seed):
    geom = F.CtGeometry()
    model = F.build_spectral_model()
    projector = F.build_projector(geom)
    phantom = F.default_phantom(geom)
    counts = F.forward_counts(model, projector, phantom, seed)
    mask = R.active_ray_mask(projector)
    active = projector.select_rows(mask)
    return model, active, counts[:, mask], active.matmat(phantom)


def one_round(model, active, counts, y_star, iters) -> dict:
    timers = Timers()
    saved = install(timers)
    try:
        for sigma in SIGMAS:
            R.run_ct_reconstruction(
                model, active, counts, sigma=sigma, iters=iters, y_star=y_star, record_time=False
            )
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    n = timers.iterations
    row = {f"{name}_ms_per_iter": 1e3 * s / n for name, s in timers.seconds.items()}
    row["newton_ray_steps_per_ray"] = timers.ray_steps / (n * active.rows)
    row["minor_faults_per_iter"] = timers.minor_faults / n
    return row


def summarize(rows) -> dict:
    out = {}
    for key in rows[0]:
        values = sorted(r[key] for r in rows)
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
            else values * 3
        )
        out[key] = {"median": median, "q1": q1, "q3": q3}
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--iters", type=int, default=30, help="outer iterations per sigma")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20240801, help="Poisson count seed")
    parser.add_argument("--label", default="run")
    parser.add_argument("--write", default=None, help="JSON file to merge this run into")
    args = parser.parse_args()

    model, active, counts, y_star = inputs(args.seed)
    one_round(model, active, counts, y_star, 2)  # warm-up: caches, lazy imports, the heap
    rows = [one_round(model, active, counts, y_star, args.iters) for _ in range(args.rounds)]
    summary = summarize(rows)
    for key, stats in summary.items():
        print(f"{key:32s} {stats['median']:10.4g}  (q1 {stats['q1']:.4g}, q3 {stats['q3']:.4g})")
    if args.write is not None:
        record = {}
        if os.path.exists(args.write):
            with open(args.write) as fh:
                record = json.load(fh)
        record["settings"] = {
            "geometry": "paper (25x25 grid, 50 angles x 50 detectors, 100 energies)",
            "active_rays": active.rows,
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
