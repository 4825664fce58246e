"""Generic linearized-ADMM loop with pluggable prox callbacks.

One iteration performs, in order,

    x_{t+1} = argmin_x { f_c(x) + <x, grad f_d(x_t) + A'u_t>
                         + 0.5*||Ax + By_t - c||^2_Sigma + 0.5*||x - x_t||^2_{H_f} }
    y_{t+1} = argmin_y { g_c(y) + <y, grad g_d(y_t) + B'u_t>
                         + 0.5*||Ax_{t+1} + By - c||^2_Sigma + 0.5*||y - y_t||^2_{H_g} }
    u_{t+1} = u_t + Sigma (A x_{t+1} + B y_{t+1} - c)

The x subproblem is handed to the objective's prox callback in the canonical
form  argmin_v { h_c(v) + <v, lin> + 0.5*||v - center||^2_D }  with
D = H_f + A'Sigma A, center = x_t, and
lin = grad f_d(x_t) + A'(u_t + Sigma(Ax_t + By_t - c));
the y subproblem is analogous with D = H_g + B'Sigma B evaluated at x_{t+1}.
Completing the square shows this is the same minimization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import DiagonalMatrix, SparseMatrix

__all__ = [
    "DenseMap",
    "ScaledIdentity",
    "KronEye",
    "CompositeObjective",
    "AdmmProblem",
    "AdmmState",
    "TraceRecord",
    "AdmmStepError",
    "KahanSum",
    "RunResult",
    "admm_step",
    "run",
    "quadratic_prox",
    "save_trace",
    "load_trace",
    "TRACE_HEADER",
]


# ---------------------------------------------------------------------------
# Linear maps: anything with shape/matvec/rmatvec works for A and B.
# SparseMatrix (numerics) already satisfies the protocol.


class DenseMap:
    """Dense matrix as a linear map (BLAS-backed products)."""

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2:
            raise ValueError("expected a 2-D array")

    @property
    def shape(self):
        return self.a.shape

    def matvec(self, v):
        return self.a @ v

    def rmatvec(self, v):
        return self.a.T @ v


class ScaledIdentity:
    """c * I as a linear map."""

    def __init__(self, n: int, scale: float = 1.0):
        self.n = int(n)
        self.scale = float(scale)

    @property
    def shape(self):
        return (self.n, self.n)

    def matvec(self, v):
        return self.scale * np.asarray(v, dtype=float)

    rmatvec = matvec


class KronEye:
    """(P kron I_m) acting on C-order flattenings of (cols, m) matrices.

    Avoids materializing the Kronecker product: matvec reshapes, applies P to
    the stacked columns, and flattens back.
    """

    def __init__(self, p: SparseMatrix, m: int):
        self.p = p
        self.m = int(m)

    @property
    def shape(self):
        return (self.p.rows * self.m, self.p.cols * self.m)

    def matvec(self, v):
        x = np.asarray(v, dtype=float).reshape(self.p.cols, self.m)
        return self.p.matmat(x).ravel()

    def rmatvec(self, v):
        y = np.asarray(v, dtype=float).reshape(self.p.rows, self.m)
        return self.p.rmatmat(y).ravel()


# ---------------------------------------------------------------------------


@dataclass
class CompositeObjective:
    """One side of the split objective h = h_c + h_d.

    prox_step(lin, D, center) must return
    argmin_v { h_c(v) + <v, lin> + 0.5*||v - center||^2_D }
    to first-order residual <= 1e-8; D is the positive-definite subproblem
    quadratic of the problem (e.g. a DiagonalMatrix), with a `solve` method.
    grad_d may be None when the differentiable part is absent.
    """

    prox_step: Callable[[np.ndarray, object, np.ndarray], np.ndarray]
    grad_d: Optional[Callable[[np.ndarray], np.ndarray]] = None


def quadratic_prox(lin: np.ndarray, D, center: np.ndarray) -> np.ndarray:
    """Default prox for h_c = 0: the exact quadratic minimizer center - D^{-1} lin."""
    return center - D.solve(lin)


@dataclass
class AdmmProblem:
    """Problem data for the linearized-ADMM loop.

    D_f / D_g are the subproblem quadratics H_f + A'Sigma A and
    H_g + B'Sigma B for the caller's step-size matrices H_f, H_g, which the
    iteration never needs on their own. `objective(x, y, ax)`, if given, is
    evaluated at every iterate; ax = A x is the product the step already
    computed.
    """

    A: object
    B: object
    c: np.ndarray
    sigma: DiagonalMatrix
    f: CompositeObjective
    g: CompositeObjective
    D_f: object
    D_g: object
    objective: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], float]] = None

    def __post_init__(self):
        k_a, self.dim_x = self.A.shape
        k_b, self.dim_y = self.B.shape
        self.c = np.asarray(self.c, dtype=float)
        if k_a != k_b or self.c.shape != (k_a,):
            raise ValueError("A, B, c have inconsistent constraint dimensions")
        if self.sigma.diag.shape != (k_a,):
            raise ValueError("Sigma dimension does not match the constraint")
        if not self.sigma.is_positive():
            raise ValueError("Sigma must have strictly positive entries")
        for name, quad, dim in (("D_f", self.D_f, self.dim_x), ("D_g", self.D_g, self.dim_y)):
            if quad.shape != (dim, dim):
                raise ValueError(f"{name} has shape {quad.shape}, expected {(dim, dim)}")
        self.dim_u = k_a


@dataclass
class TraceRecord:
    t: int
    objective: float
    primal_residual: float
    alpha_t: Optional[float]
    seconds: float


class KahanSum:
    """Compensated vector accumulator, so long running averages stay trustworthy."""

    def __init__(self, n: int):
        self.total = np.zeros(n)
        self._comp = np.zeros(n)

    def add(self, v: np.ndarray) -> None:
        y = v - self._comp
        t = self.total + y
        np.subtract(t, self.total, out=self._comp)
        self._comp -= y
        self.total = t


@dataclass
class AdmmState:
    """Iterate (x_t, y_t, u_t), the running sums and the trace so far.

    `ax`, `by` and `sr` cache A x_t, B y_t and Sigma (A x_t + B y_t - c) for
    the next step; None (as from `initial`) makes the next step compute them,
    so whoever resets `ax` or `by` resets `sr` too. Each step returns fresh
    x, y, u, ax, by and sr arrays but advances `sum_x`, `sum_y` and `trace`
    in place and hands them on, so only the newest state's averages and trace
    are current.
    """

    t: int
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    sum_x: KahanSum
    sum_y: KahanSum
    trace: list = field(default_factory=list)
    ax: Optional[np.ndarray] = None
    by: Optional[np.ndarray] = None
    sr: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, x0: np.ndarray, y0: np.ndarray, u0: np.ndarray) -> "AdmmState":
        return cls(
            t=0,
            x=np.asarray(x0, dtype=float),
            y=np.asarray(y0, dtype=float),
            u=np.asarray(u0, dtype=float),
            sum_x=KahanSum(np.asarray(x0).size),
            sum_y=KahanSum(np.asarray(y0).size),
        )

    @property
    def x_bar(self) -> np.ndarray:
        if self.t == 0:
            return self.x.copy()
        return self.sum_x.total / self.t

    @property
    def y_bar(self) -> np.ndarray:
        if self.t == 0:
            return self.y.copy()
        return self.sum_y.total / self.t


class AdmmStepError(RuntimeError):
    """Raised when a step callback fails or goes non-finite; carries the iteration index."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


def _checked(v, shape: tuple, iteration: int, what: str) -> np.ndarray:
    """v as a float array, or AdmmStepError if it has the wrong shape or a non-finite entry."""
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise AdmmStepError(iteration, f"{what} has shape {v.shape}, expected {shape}")
    if not np.isfinite(v).all():
        raise AdmmStepError(iteration, f"{what} produced non-finite values")
    return v


def _call(iteration: int, what: str, fn: Callable, *args):
    """fn(*args), with any failure re-raised as AdmmStepError at `iteration`."""
    try:
        return fn(*args)
    except AdmmStepError:
        raise
    except Exception as exc:
        raise AdmmStepError(iteration, f"{what} failed: {exc}") from exc


def admm_step(
    problem: AdmmProblem,
    state: AdmmState,
    alpha_hook: Optional[Callable] = None,
    record_time: bool = True,
) -> AdmmState:
    """Run one full x/y/u cycle and return the advanced state.

    A x_{t+1} is computed once: the residual, `problem.objective(x, y, ax)`
    and `alpha_hook(t, x, y, u, ax)` all receive it, and the returned state
    carries it as the next step's A x_t. B y_{t+1} and the scaled residual
    Sigma r_{t+1} of the dual update are carried the same way, so a step after
    the first makes one product each with A, A', B, B' and two with Sigma.
    Each update is checked for shape and finiteness. A failing callback, a
    wrong-shape or non-finite update, or a non-finite objective raises
    AdmmStepError and leaves `state` as it was.
    """
    t0 = time.perf_counter()
    it = state.t + 1
    x, y, u = state.x, state.y, state.u
    sig = problem.sigma

    by = problem.B.matvec(y) if state.by is None else state.by
    sr = state.sr
    if sr is None:
        ax = problem.A.matvec(x) if state.ax is None else state.ax
        sr = sig.matvec(ax + by - problem.c)
    lin_x = problem.A.rmatvec(u + sr)
    if problem.f.grad_d is not None:
        lin_x = lin_x + _call(it, "x grad_d", problem.f.grad_d, x)
    x_new = _call(it, "x prox_step", problem.f.prox_step, lin_x, problem.D_f, x)
    x_new = _checked(x_new, (problem.dim_x,), it, "x update")

    ax_new = problem.A.matvec(x_new)
    lin_y = problem.B.rmatvec(u + sig.matvec(ax_new + by - problem.c))
    if problem.g.grad_d is not None:
        lin_y = lin_y + _call(it, "y grad_d", problem.g.grad_d, y)
    y_new = _call(it, "y prox_step", problem.g.prox_step, lin_y, problem.D_g, y)
    y_new = _checked(y_new, (problem.dim_y,), it, "y update")

    by_new = problem.B.matvec(y_new)
    residual = ax_new + by_new - problem.c
    sr_new = sig.matvec(residual)
    u_new = _checked(u + sr_new, (problem.dim_u,), it, "u update")

    obj = float("nan")
    if problem.objective is not None:
        obj = float(_call(it, "objective", problem.objective, x_new, y_new, ax_new))
        if not math.isfinite(obj):
            raise AdmmStepError(it, f"objective is not finite ({obj!r})")
    alpha = None
    if alpha_hook is not None:
        alpha = _call(it, "alpha_hook", alpha_hook, it, x_new, y_new, u_new, ax_new)

    state.sum_x.add(x_new)
    state.sum_y.add(y_new)
    seconds = time.perf_counter() - t0 if record_time else 0.0
    record = TraceRecord(
        t=it,
        objective=obj,
        primal_residual=math.sqrt(residual @ residual),
        alpha_t=alpha,
        seconds=seconds,
    )
    state.trace.append(record)
    return AdmmState(
        t=it,
        x=x_new,
        y=y_new,
        u=u_new,
        sum_x=state.sum_x,
        sum_y=state.sum_y,
        trace=state.trace,
        ax=ax_new,
        by=by_new,
        sr=sr_new,
    )


@dataclass
class RunResult:
    state: AdmmState
    x_bar: np.ndarray
    y_bar: np.ndarray
    trace: list


def run(
    problem: AdmmProblem,
    init: Optional[tuple] = None,
    iters: int = 100,
    alpha_hook: Optional[Callable] = None,
    iteration_hook: Optional[Callable] = None,
    record_time: bool = True,
) -> RunResult:
    """Run `iters` cycles from `init` (default all-zeros) and return averages.

    `alpha_hook(t, x, y, u, ax)` may return a diagnostic scalar recorded in
    the trace, where ax = A x comes from the step; `iteration_hook(t, state)`
    is called after every step (used by the experiments to log extra
    per-iteration quantities).
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if init is None:
        init = (
            np.zeros(problem.dim_x),
            np.zeros(problem.dim_y),
            np.zeros(problem.dim_u),
        )
    state = AdmmState.initial(*init)
    for _ in range(iters):
        state = admm_step(problem, state, alpha_hook=alpha_hook, record_time=record_time)
        if iteration_hook is not None:
            iteration_hook(state.t, state)
    return RunResult(state=state, x_bar=state.x_bar, y_bar=state.y_bar, trace=state.trace)


# ---------------------------------------------------------------------------
# Trace persistence

TRACE_HEADER = "iter,objective,primal_residual,alpha_t,seconds"


def _fmt(x: float) -> str:
    return repr(float(x))


def save_trace(path, trace: Sequence[TraceRecord], extra_columns: Optional[dict] = None) -> None:
    """Write the delimited-text trace; extra_columns maps name -> per-iteration list."""
    extra_columns = extra_columns or {}
    for name, values in extra_columns.items():
        if len(values) != len(trace):
            raise ValueError(f"extra column {name!r} has wrong length")
    header = TRACE_HEADER + "".join(f",{name}" for name in extra_columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, rec in enumerate(trace):
            alpha = "" if rec.alpha_t is None else _fmt(rec.alpha_t)
            row = f"{rec.t},{_fmt(rec.objective)},{_fmt(rec.primal_residual)},{alpha},{_fmt(rec.seconds)}"
            row += "".join(f",{_fmt(values[i])}" for values in extra_columns.values())
            fh.write(row + "\n")


def load_trace(path) -> tuple[list[TraceRecord], dict]:
    """Read a trace file back; returns (records, extra column dict)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        base = TRACE_HEADER.split(",")
        if header[: len(base)] != base:
            raise ValueError("unrecognized trace header")
        extra_names = header[len(base):]
        records = []
        extras = {name: [] for name in extra_names}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ValueError(f"line {lineno} has {len(parts)} fields, expected {len(header)}")
            records.append(
                TraceRecord(
                    t=int(parts[0]),
                    objective=float(parts[1]),
                    primal_residual=float(parts[2]),
                    alpha_t=None if parts[3] == "" else float(parts[3]),
                    seconds=float(parts[4]),
                )
            )
            for name, val in zip(extra_names, parts[5:]):
                extras[name].append(float(val))
    return records, extras
