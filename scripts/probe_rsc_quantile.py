#!/usr/bin/env python3
"""Probe the curvature condition along a quantile ADMM trajectory.

Runs a reduced-scale instance, evaluates the subgradient inner product plus
constraint-penalty slack at every iterate against the true signal, and writes
a sidecar report (no pass/fail: the relevant constants are unknown, so this
is summary data for inspection).
"""

import argparse

from ncadmm import diagnostics as D
from ncadmm import engine
from ncadmm import quantile as Q


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=50)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--s-star", type=int, default=3)
    parser.add_argument("--sigma", type=float, default=5e-3)
    parser.add_argument("--iters", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--out", default="rsc_probe_report.csv")
    args = parser.parse_args()

    spec = Q.QuantileProblemSpec(
        d=args.d, n=args.n, s_star=args.s_star, sigma=args.sigma, seed=args.seed
    )
    ds = Q.generate_dataset(spec)
    problem = Q.build_problem(spec, ds)
    xi_star, zeta_star, _ = Q.star_subgradients(spec, ds)
    selector = Q.subgradient_selector(spec, ds)

    iterates = []
    engine.run(
        problem,
        iters=args.iters,
        record_time=False,
        iteration_hook=lambda t, state: iterates.append((state.x, state.y)),
    )
    results = D.probe_trajectory(
        problem, selector, iterates, ds.x_true, ds.phi @ ds.x_true, xi_star, zeta_star
    )
    D.write_probe_report(args.out, results)
    slack = [r.slack for r in results]
    print(f"wrote {args.out}: {len(results)} probes, slack min={min(slack):.4g} max={max(slack):.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
