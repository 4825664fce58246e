"""Spans around the public ncadmm calls, installed from outside the library.

A traced run replaces module and class attributes with thin wrappers at every
place the library looks a name up, records one span per call, and puts the
originals back afterwards. Spans stay in memory and are written out once.
Nothing inside ``src/ncadmm`` knows it is being traced.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from ncadmm import diagnostics, engine, numerics, prox, quantile
from ncadmm.ct import forward, recon


class Tracer:
    """In-memory span store: name, start, end, parent span and run id per span."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.amount: list[float] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.run_id = 0
        self._open = [-1]

    def open(self, name: str, amount: float = 0.0) -> int:
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self._open[-1])
        self.run.append(self.run_id)
        self.amount.append(amount)
        self.end.append(float("nan"))
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,run,name,start,end,parent\n")
            for i, (run, name, t0, t1, parent) in enumerate(
                zip(self.run, self.names, self.start, self.end, self.parent)
            ):
                fh.write(f"{i},{run},{name},{t0!r},{t1!r},{parent}\n")


def traced(tracer: Tracer, name: str, fn, amount=None):
    """`fn` inside a span; `amount(*args)` adds a work count to the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, amount(*args, **kwargs) if amount is not None else 0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _dense_bytes(op, v):
    return 8.0 * op.a.size


def _elements(t):
    return float(np.size(t))


def _traced_factory(tracer: Tracer, prefix: str, build):
    """Wrap a problem factory so the callbacks of every problem it returns are traced."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        out = build(*args, **kwargs)
        problem = out[0] if isinstance(out, tuple) else out
        for side, attr, label in (
            (problem.f, "prox_step", "prox_x"),
            (problem.g, "prox_step", "prox_y"),
            (problem.f, "grad_d", "grad_x"),
            (problem.g, "grad_d", "grad_y"),
        ):
            fn = getattr(side, attr)
            if fn is not None:
                setattr(side, attr, traced(tracer, f"{prefix}.{label}", fn))
        if problem.objective is not None:
            problem.objective = traced(tracer, f"{prefix}.objective", problem.objective)
        return out

    return wrapper


# (owner, attribute, span name, work count): every place a traced name is
# looked up. Names imported with `from ... import` are patched in the
# importing module too, because that module looks them up in its own globals.
PATCHES = [
    (engine, "run", "engine.run", None),
    (recon, "engine_run", "engine.run", None),
    (engine, "admm_step", "engine.admm_step", None),
    (engine.DenseMap, "matvec", "engine.DenseMap.matvec", _dense_bytes),
    (engine.DenseMap, "rmatvec", "engine.DenseMap.rmatvec", _dense_bytes),
    (engine.KronEye, "matvec", "engine.KronEye.matvec", None),
    (engine.KronEye, "rmatvec", "engine.KronEye.rmatvec", None),
    (engine, "save_trace", "engine.save_trace", None),
    (recon, "save_trace", "engine.save_trace", None),
    (numerics, "spectral_norm", "numerics.spectral_norm", None),
    (quantile, "spectral_norm", "numerics.spectral_norm", None),
    (numerics.SparseMatrix, "matvec", "numerics.SparseMatrix.matvec", None),
    (numerics.SparseMatrix, "rmatvec", "numerics.SparseMatrix.rmatvec", None),
    (numerics.SparseMatrix, "matmat", "numerics.SparseMatrix.matmat", None),
    (numerics.SparseMatrix, "rmatmat", "numerics.SparseMatrix.rmatmat", None),
    (prox, "qexp", "prox.qexp", _elements),
    (forward, "qexp", "prox.qexp", _elements),
    (recon, "qexp", "prox.qexp", _elements),
    (prox, "soft_threshold", "prox.soft_threshold", None),
    (quantile, "soft_threshold", "prox.soft_threshold", None),
    (prox, "quantile_prox_update", "prox.quantile_prox_update", None),
    (quantile, "quantile_prox_update", "prox.quantile_prox_update", None),
    (prox, "logl1_value_grad", "prox.logl1_value_grad", None),
    (quantile, "logl1_value_grad", "prox.logl1_value_grad", None),
    (quantile, "generate_dataset", "quantile.generate_dataset", None),
    (quantile, "quantile_gamma", "quantile.quantile_gamma", None),
    (quantile, "quantile_objective", "quantile.quantile_objective", None),
    (forward, "build_projector", "ct.forward.build_projector", None),
    (forward, "forward_counts", "ct.forward.forward_counts", None),
    (forward, "ct_loss_parts", "ct.forward.ct_loss_parts", None),
    (recon, "ct_loss_parts", "ct.forward.ct_loss_parts", None),
    (recon, "newton_ray_solve", "ct.recon.newton_ray_solve", None),
    (recon, "alpha_t_diagnostic", "ct.recon.alpha_t_diagnostic", None),
    (recon, "fosp_ratio", "ct.recon.fosp_ratio", None),
    (recon, "save_image_grid", "ct.recon.save_image_grid", None),
    (recon, "save_pgm", "ct.recon.save_pgm", None),
    (diagnostics, "probe_trajectory", "diagnostics.probe_trajectory", None),
    (diagnostics, "rsc_probe", "diagnostics.rsc_probe", None),
    (diagnostics, "fosp_residuals", "diagnostics.fosp_residuals", None),
]
FACTORIES = [
    (quantile, "build_problem", "quantile"),
    (recon, "build_ct_problem", "ct.recon"),
]


def snapshot() -> list:
    """The objects currently bound at every patched place, in patch order."""
    places = [(o, a) for o, a, _, _ in PATCHES] + [(o, a) for o, a, _ in FACTORIES]
    return [owner.__dict__[attr] for owner, attr in places]


@contextmanager
def instrumented(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, amount in PATCHES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, traced(tracer, name, original, amount))
        for owner, attr, prefix in FACTORIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            wrapped = _traced_factory(tracer, prefix, original)
            setattr(owner, attr, traced(tracer, f"{prefix}.{attr}", wrapped))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one run


def _busy(*names):
    return ("busy", names)


def _self(*names):
    return ("self", names)


def _per_iter(*names):
    return ("calls_per_iter", names)


DENSE = ("engine.DenseMap.matvec", "engine.DenseMap.rmatvec")
SPARSE = tuple(
    f"numerics.SparseMatrix.{m}" for m in ("matvec", "rmatvec", "matmat", "rmatmat")
)

# metric -> (kind, span names, unit, better). busy = inclusive seconds,
# self = exclusive seconds, calls_per_iter = calls inside engine.run per
# ADMM iteration, amount_per_iter = summed work counts per iteration,
# calls = all calls, pNN_ms = percentile of the span's duration.
LAYER_METRICS = {
    "engine.admm_step.self_s": (_self("engine.admm_step"), "s", "lower"),
    "engine.admm_step.p50_ms": (("p50_ms", ("engine.admm_step",)), "ms", "lower"),
    "engine.admm_step.p99_ms": (("p99_ms", ("engine.admm_step",)), "ms", "lower"),
    "engine.DenseMap.calls_per_iter": (_per_iter(*DENSE), "count/iter", "lower"),
    "engine.DenseMap.busy_s": (_busy(*DENSE), "s", "lower"),
    "engine.DenseMap.computed_bytes_per_iter": (("amount_per_iter", DENSE), "B/iter", "lower"),
    "engine.KronEye.busy_s": (_busy("engine.KronEye.matvec", "engine.KronEye.rmatvec"), "s", "lower"),
    "engine.save_trace.busy_s": (_busy("engine.save_trace"), "s", "lower"),
    "numerics.spectral_norm.busy_s": (_busy("numerics.spectral_norm"), "s", "lower"),
    "numerics.SparseMatrix.matmat.calls_per_iter": (
        _per_iter("numerics.SparseMatrix.matmat"), "count/iter", "lower"),
    "numerics.SparseMatrix.rmatmat.calls_per_iter": (
        _per_iter("numerics.SparseMatrix.rmatmat"), "count/iter", "lower"),
    "numerics.SparseMatrix.busy_s": (_busy(*SPARSE), "s", "lower"),
    "prox.qexp.calls_per_iter": (_per_iter("prox.qexp"), "count/iter", "lower"),
    "prox.qexp.elements_per_iter": (("amount_per_iter", ("prox.qexp",)), "count/iter", "lower"),
    "prox.qexp.busy_s": (_busy("prox.qexp"), "s", "lower"),
    "prox.soft_threshold.busy_s": (_busy("prox.soft_threshold"), "s", "lower"),
    "prox.quantile_prox_update.busy_s": (_busy("prox.quantile_prox_update"), "s", "lower"),
    "prox.logl1_value_grad.busy_s": (_busy("prox.logl1_value_grad"), "s", "lower"),
    "quantile.generate_dataset.busy_s": (_busy("quantile.generate_dataset"), "s", "lower"),
    "quantile.quantile_gamma.busy_s": (_busy("quantile.quantile_gamma"), "s", "lower"),
    "quantile.quantile_objective.calls_per_iter": (
        _per_iter("quantile.quantile_objective"), "count/iter", "lower"),
    "quantile.quantile_objective.busy_s": (_busy("quantile.quantile_objective"), "s", "lower"),
    "quantile.prox_x.busy_s": (_busy("quantile.prox_x"), "s", "lower"),
    "quantile.prox_y.busy_s": (_busy("quantile.prox_y"), "s", "lower"),
    "ct.forward.build_projector.busy_s": (_busy("ct.forward.build_projector"), "s", "lower"),
    "ct.forward.forward_counts.busy_s": (_busy("ct.forward.forward_counts"), "s", "lower"),
    "ct.forward.ct_loss_parts.calls_per_iter": (
        _per_iter("ct.forward.ct_loss_parts"), "count/iter", "lower"),
    "ct.forward.ct_loss_parts.self_s": (_self("ct.forward.ct_loss_parts"), "s", "lower"),
    "ct.recon.newton_ray_solve.calls_per_iter": (
        _per_iter("ct.recon.newton_ray_solve"), "count/iter", "lower"),
    "ct.recon.newton_ray_solve.busy_s": (_busy("ct.recon.newton_ray_solve"), "s", "lower"),
    "ct.recon.newton_ray_solve.self_s": (_self("ct.recon.newton_ray_solve"), "s", "lower"),
    "ct.recon.alpha_t_diagnostic.busy_s": (_busy("ct.recon.alpha_t_diagnostic"), "s", "lower"),
    "ct.recon.objective.busy_s": (_busy("ct.recon.objective"), "s", "lower"),
    "ct.recon.fosp_ratio.busy_s": (_busy("ct.recon.fosp_ratio"), "s", "lower"),
    "ct.recon.save_image_grid.busy_s": (_busy("ct.recon.save_image_grid"), "s", "lower"),
    "ct.recon.save_pgm.busy_s": (_busy("ct.recon.save_pgm"), "s", "lower"),
    "diagnostics.probe_trajectory.busy_s": (_busy("diagnostics.probe_trajectory"), "s", "lower"),
    "diagnostics.rsc_probe.calls": (("calls", ("diagnostics.rsc_probe",)), "count", "higher"),
    "diagnostics.fosp_residuals.busy_s": (_busy("diagnostics.fosp_residuals"), "s", "lower"),
}
# Exact counts: they must repeat from run to run.
EXACT = [name for name, ((kind, _), _, _) in LAYER_METRICS.items()
         if kind in ("calls_per_iter", "amount_per_iter", "calls")]


def self_times(tracer: Tracer) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover."""
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    nested = parent >= 0
    return dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)


def layer_metrics(tracer: Tracer, run_id: int) -> dict:
    """Every LAYER_METRICS value over the spans of one run."""
    keep = np.asarray(tracer.run) == run_id
    names = np.asarray(tracer.names, dtype=object)[keep]
    start = np.asarray(tracer.start)[keep]
    dur = np.asarray(tracer.end)[keep] - start
    amount = np.asarray(tracer.amount)[keep]
    self_time = self_times(tracer)[keep]

    # Spans are stored in start order, so the engine.run spans are sorted.
    runs = names == "engine.run"
    in_run = np.zeros(names.size, dtype=bool)
    if runs.any():
        run_start, run_end = start[runs], start[runs] + dur[runs]
        slot = np.searchsorted(run_start, start, side="right") - 1
        in_run = (slot >= 0) & (start <= run_end[np.maximum(slot, 0)])
    iters = int(np.count_nonzero((names == "engine.admm_step") & in_run))

    out = {}
    for metric, ((kind, span_names), _, _) in LAYER_METRICS.items():
        sel = np.isin(names, list(span_names))
        if kind == "busy":
            value = float(dur[sel].sum())
        elif kind == "self":
            value = float(self_time[sel].sum())
        elif kind == "calls":
            value = float(np.count_nonzero(sel))
        elif kind == "calls_per_iter":
            value = float(np.count_nonzero(sel & in_run)) / iters if iters else 0.0
        elif kind == "amount_per_iter":
            value = float(amount[sel & in_run].sum()) / iters if iters else 0.0
        else:  # pNN_ms
            pct = float(kind[1:3])
            value = float(np.percentile(dur[sel], pct)) * 1e3 if sel.any() else 0.0
        out[metric] = value
    return out
