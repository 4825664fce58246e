"""The three benchmark workloads, composed from the public ncadmm calls.

Each workload repeats, call for call, the library entry point it stands for,
so that set-up, solve, output and probe can be timed from outside:

- ``quantile-paper`` repeats ``quantile.run_sigma_sweep``;
- ``ct-paper`` repeats ``ct.recon.run_ct_experiment``;
- ``quantile-probe`` repeats ``scripts/probe_rsc_quantile.py`` through
  ``engine.run``, then adds the FOSP residuals at the star triple.

The ``library_*`` functions run the library entry points themselves. They
produce the reference values of the correctness gate and the trace files
the composition must reproduce byte for byte.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ncadmm import diagnostics, engine
from ncadmm import quantile as Q
from ncadmm.ct import forward as F
from ncadmm.ct import recon as R

PAPER_SEED = 20240801
# Reference values are recorded for this many consecutive dataset seeds.
DATA_SEEDS = 16


def data_seed(seed: int) -> int:
    """Dataset seed of a workload seed; workload seed 0 is the paper seed."""
    return PAPER_SEED + seed % DATA_SEEDS


@dataclass(frozen=True)
class QuantileSize:
    d: int
    n: int
    s_star: int
    sigmas: tuple
    iters: int


@dataclass(frozen=True)
class CtSize:
    grid: int
    n_angles: int
    n_detectors: int
    n_energies: int
    sigmas: tuple
    iters: int


# The paper-size inputs the benchmark measures.
SIZES = {
    "quantile-paper": QuantileSize(2000, 1000, 10, (5e-5, 1e-4, 2e-4, 5e-4), 500),
    # 30 of the paper's 1000 iterations per sigma. The warm-started Newton
    # solve settles to 3 steps by iteration ~16, so about half of every
    # solve is in that late regime.
    "ct-paper": CtSize(25, 50, 50, 100, (1.0, 10.0, 100.0), 30),
    "quantile-probe": QuantileSize(50, 100, 3, (5e-3,), 20_000),
}

# The untimed warm-up runs the full set-up but only this many iterations.
WARMUP_ITERS = {"quantile-paper": 5, "ct-paper": 2, "quantile-probe": 500}


class Phases:
    """Wall time of each phase interval of one workload run; a span per interval when traced."""

    def __init__(self, tracer=None):
        self.samples = defaultdict(list)
        self.tracer = tracer

    def seconds(self, name: str) -> float:
        return sum(self.samples[name])

    @contextmanager
    def __call__(self, name: str):
        span = self.tracer.open(name) if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.samples[name].append(time.perf_counter() - t0)
            if span is not None:
                self.tracer.close(span)


@dataclass
class Solve:
    """One sigma: the values the gate compares, or the error that ended it."""

    sigma: float
    values: dict = field(default_factory=dict)
    error: str | None = None
    iterations: int = 0


@dataclass
class Outcome:
    solves: list
    shared: dict

    @property
    def iterations(self) -> int:
        return sum(s.iterations for s in self.solves)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _trace_finite(trace) -> bool:
    return _finite([r.objective for r in trace], [r.primal_residual for r in trace])


def _failed_setup(sigmas) -> Outcome:
    err = traceback.format_exc()
    return Outcome([Solve(s, error=f"set-up failed: {err}") for s in sigmas], {})


# ---------------------------------------------------------------------------
# quantile-paper: quantile.run_sigma_sweep


def quantile_spec(size: QuantileSize, seed: int, sigma: float) -> Q.QuantileProblemSpec:
    return Q.QuantileProblemSpec(d=size.d, n=size.n, s_star=size.s_star, sigma=sigma, seed=seed)


def run_quantile_paper(size, seed, out_dir, phases, record_time=True) -> Outcome:
    spec = quantile_spec(size, seed, size.sigmas[0])
    try:
        with phases("setup"):
            dataset = Q.generate_dataset(spec)
            gamma = Q.quantile_gamma(dataset.phi)
    except Exception:
        return _failed_setup(size.sigmas)
    solves = []
    for sigma in size.sigmas:
        solve = Solve(sigma)
        solves.append(solve)
        try:
            with phases("solve"):
                result, avg_losses = Q.run_quantile(
                    replace(spec, sigma=sigma), dataset, size.iters, gamma=gamma,
                    record_time=record_time,
                )
            solve.iterations = len(result.trace)
            with phases("output"):
                engine.save_trace(
                    os.path.join(out_dir, Q.trace_filename(sigma)),
                    result.trace,
                    extra_columns={"objective_avg": avg_losses},
                )
            if not (_finite(result.x_bar, avg_losses) and _trace_finite(result.trace)):
                solve.error = "non-finite output"
            else:
                solve.values = {
                    "avg_loss": avg_losses[-1],
                    "primal_residual": result.trace[-1].primal_residual,
                }
        except Exception:
            solve.error = traceback.format_exc()
    return Outcome(solves, {})


def library_quantile_paper(size, seed, out_dir) -> dict:
    out = Q.run_sigma_sweep(
        quantile_spec(size, seed, size.sigmas[0]), size.sigmas, iters=size.iters,
        out_dir=out_dir, record_time=False,
    )
    return {
        "solves": {
            repr(sigma): {
                "avg_loss": entry["objective_avg"][-1],
                "primal_residual": entry["result"].trace[-1].primal_residual,
            }
            for sigma, entry in out.items()
        },
        "shared": {},
    }


# ---------------------------------------------------------------------------
# ct-paper: ct.recon.run_ct_experiment


def ct_inputs(size: CtSize):
    geom = F.CtGeometry(
        grid_nx=size.grid, grid_ny=size.grid, n_angles=size.n_angles, n_detectors=size.n_detectors
    )
    model = F.build_spectral_model(n_energies=size.n_energies)
    return geom, model, F.default_phantom(geom)


def run_ct_paper(size, seed, out_dir, phases, record_time=True) -> Outcome:
    try:
        with phases("setup"):
            geom, model, phantom = ct_inputs(size)
            projector = F.build_projector(geom)
            counts_full = F.forward_counts(model, projector, phantom, seed)
            mask = R.active_ray_mask(projector)
            active = projector.select_rows(mask)
            counts = counts_full[:, mask]
            model = model.restrict_rays(mask)
            y_star = active.matmat(phantom)
            ratio = R.fosp_ratio(model, counts, y_star)
    except Exception:
        return _failed_setup(size.sigmas)
    solves = []
    for sigma in size.sigmas:
        solve = Solve(sigma)
        solves.append(solve)
        try:
            with phases("solve"):
                result, _ = R.run_ct_reconstruction(
                    model, active, counts, sigma=sigma, iters=size.iters, y_star=y_star,
                    record_time=record_time,
                )
            solve.iterations = len(result.trace)
            x_final = result.state.x.reshape(geom.n_pixels, model.n_materials)
            with phases("output"):
                R.save_trace(os.path.join(out_dir, R.trace_filename(sigma)), result.trace)
                for m, name in enumerate(model.materials):
                    stem = os.path.join(out_dir, f"ct_sigma{sigma:g}_{name}")
                    R.save_image_grid(f"{stem}.txt", x_final[:, m], geom.grid_nx, geom.grid_ny)
                    R.save_pgm(f"{stem}.pgm", x_final[:, m], geom.grid_nx, geom.grid_ny)
            alphas = [r.alpha_t for r in result.trace]
            if not (_finite(x_final) and _trace_finite(result.trace)):
                solve.error = "non-finite output"
            elif any(a is None or not a > 0 for a in alphas):
                solve.error = "alpha_t is missing or not positive"
            else:
                solve.values = {"loss": result.trace[-1].objective}
        except Exception:
            solve.error = traceback.format_exc()
    return Outcome(solves, {"fosp_ratio": ratio})


def library_ct_paper(size, seed, out_dir) -> dict:
    geom, model, phantom = ct_inputs(size)
    summary = R.run_ct_experiment(
        geom, model, phantom, size.sigmas, size.iters, seed, out_dir=out_dir, record_time=False
    )
    return {
        "solves": {
            repr(sigma): {"loss": entry["result"].trace[-1].objective}
            for sigma, entry in summary["runs"].items()
        },
        "shared": {"fosp_ratio": summary["fosp_ratio"]},
    }


# ---------------------------------------------------------------------------
# quantile-probe: scripts/probe_rsc_quantile.py, then the FOSP residuals


def _probe_values(results) -> dict:
    slack = [r.slack for r in results]
    return {
        "slack_min": min(slack),
        "slack_max": max(slack),
        "slack_last": slack[-1],
        "probes": len(slack),
    }


def _fosp_values(fosp) -> dict:
    return {"fosp_primal": fosp.primal, "fosp_dual_x": fosp.dual_x, "fosp_dual_y": fosp.dual_y}


def run_quantile_probe(size, seed, out_dir, phases, record_time=True) -> Outcome:
    (sigma,) = size.sigmas
    spec = quantile_spec(size, seed, sigma)
    try:
        with phases("setup"):
            dataset = Q.generate_dataset(spec)
            gamma = Q.quantile_gamma(dataset.phi)
            problem = Q.build_problem(spec, dataset, gamma=gamma)
    except Exception:
        return _failed_setup(size.sigmas)
    try:
        iterates = []
        with phases("solve"):
            result = engine.run(
                problem, iters=size.iters, record_time=record_time,
                iteration_hook=lambda t, state: iterates.append((state.x, state.y)),
            )
        with phases("probe"):
            xi_star, zeta_star, u_star = Q.star_subgradients(spec, dataset)
            selector = Q.subgradient_selector(spec, dataset)
            y_star = dataset.phi @ dataset.x_true
            results = diagnostics.probe_trajectory(
                problem, selector, iterates, dataset.x_true, y_star, xi_star, zeta_star
            )
            fosp = diagnostics.fosp_residuals(
                problem, dataset.x_true, y_star, u_star, xi_star, zeta_star
            )
        with phases("output"):
            diagnostics.write_probe_report(os.path.join(out_dir, "rsc_probe_report.csv"), results)
        solve = Solve(sigma, _probe_values(results), iterations=len(result.trace))
        if not (_trace_finite(result.trace) and _finite(list(solve.values.values()))):
            solve.error = "non-finite output"
        return Outcome([solve], _fosp_values(fosp))
    except Exception:
        return Outcome([Solve(sigma, error=traceback.format_exc())], {})


def library_quantile_probe(size, seed, out_dir) -> dict:
    (sigma,) = size.sigmas
    spec = quantile_spec(size, seed, sigma)
    ds = Q.generate_dataset(spec)
    problem = Q.build_problem(spec, ds)
    xi_star, zeta_star, u_star = Q.star_subgradients(spec, ds)
    selector = Q.subgradient_selector(spec, ds)
    iterates = []
    state = engine.AdmmState.initial(np.zeros(spec.d), np.zeros(spec.n), np.zeros(spec.n))
    for _ in range(size.iters):
        state = engine.admm_step(problem, state, record_time=False)
        iterates.append((state.x, state.y))
    y_star = ds.phi @ ds.x_true
    results = diagnostics.probe_trajectory(
        problem, selector, iterates, ds.x_true, y_star, xi_star, zeta_star
    )
    diagnostics.write_probe_report(os.path.join(out_dir, "rsc_probe_report.csv"), results)
    fosp = diagnostics.fosp_residuals(problem, ds.x_true, y_star, u_star, xi_star, zeta_star)
    return {"solves": {repr(sigma): _probe_values(results)}, "shared": _fosp_values(fosp)}


# ---------------------------------------------------------------------------
# Correctness gate

# Relative tolerances, |value - reference| <= RTOL * |reference| + ATOL.
# Calibrated at the paper seed: replacing gamma by the exact spectral norm
# (a 1.5e-8 relative change, the size a Lanczos gamma brings) moves
# Loss(x_bar_T) by <= 1.1e-10, the final primal residual by <= 1.8e-7 and the
# probe slack by <= 8.5e-7; a 1-ulp change of sigma leaves the CT loss
# unchanged. Stopping one iteration early moves them by >= 7e-7, >= 2e-3,
# >= 6e-3 (last slack) and >= 2.5e-5 (CT loss), so a wrong solver fails.
RTOL = {
    "quantile-paper": {"avg_loss": 1e-8, "primal_residual": 1e-4},
    "ct-paper": {"loss": 1e-9, "fosp_ratio": 1e-9},
    "quantile-probe": {
        "slack_min": 1e-5, "slack_max": 1e-5, "slack_last": 1e-5, "probes": 0.0,
        "fosp_primal": 1e-9, "fosp_dual_x": 1e-9, "fosp_dual_y": 1e-9,
    },
}
ATOL = 1e-12


def _mismatches(names, got: dict, want: dict, rtol: dict) -> list[str]:
    out = []
    for name in names:
        if name not in got or name not in want:
            out.append(f"{name}: missing (got {got.get(name)!r}, reference {want.get(name)!r})")
            continue
        if not abs(got[name] - want[name]) <= rtol[name] * abs(want[name]) + ATOL:
            out.append(f"{name}: {got[name]!r} vs reference {want[name]!r} (rtol {rtol[name]:g})")
    return out


def gate(workload: str, outcome: Outcome, reference: dict) -> list[str | None]:
    """Failure reason per solve (None = passed): error, non-finite, or off the reference."""
    rtol = RTOL[workload]
    shared_names = sorted(reference["shared"])
    shared = _mismatches(shared_names, outcome.shared, reference["shared"], rtol)
    verdicts = []
    for solve in outcome.solves:
        if solve.error is not None:
            verdicts.append(solve.error)
            continue
        want = reference["solves"].get(repr(solve.sigma))
        if want is None:
            verdicts.append(f"no reference for sigma {solve.sigma!r}")
            continue
        problems = shared + _mismatches(sorted(want), solve.values, want, rtol)
        verdicts.append("; ".join(problems) if problems else None)
    return verdicts


@dataclass(frozen=True)
class Workload:
    run: object      # the timed composition
    library: object  # the library entry point it repeats


# Why each workload is here: NOTES.md, "Workloads".
WORKLOADS = {
    "quantile-paper": Workload(run_quantile_paper, library_quantile_paper),
    "ct-paper": Workload(run_ct_paper, library_ct_paper),
    "quantile-probe": Workload(run_quantile_probe, library_quantile_probe),
}


def warmup_size(workload: str, size):
    return replace(size, iters=min(size.iters, WARMUP_ITERS[workload]))
