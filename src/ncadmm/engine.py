"""Generic linearized-ADMM loop with pluggable prox callbacks.

The engine solves min f(x) + g(y) subject to y = A x: the paper's constraint
Ax + By = c with B = -I and c = 0, the split both of its experiments use.
One iteration performs, in order,

    x_{t+1} = argmin_x { f_c(x) + <x, grad f_d(x_t) + A'u_t>
                         + 0.5*||Ax - y_t||^2_Sigma + 0.5*||x - x_t||^2_{H_f} }
    y_{t+1} = argmin_y { g_c(y) + <y, grad g_d(y_t) - u_t>
                         + 0.5*||Ax_{t+1} - y||^2_Sigma + 0.5*||y - y_t||^2_{H_g} }
    u_{t+1} = u_t + Sigma (A x_{t+1} - y_{t+1})

The x subproblem is handed to the objective's prox callback in the canonical
form  argmin_v { h_c(v) + <v, lin> + 0.5*||v - center||^2_D }  with
D = H_f + A'Sigma A, center = x_t and lin = grad f_d(x_t) + A'(u_t + Sigma(Ax_t - y_t));
the y subproblem is analogous with D = H_g + Sigma, center = y_t and
lin = grad g_d(y_t) - (u_t + Sigma(Ax_{t+1} - y_t)). Completing the square
shows this is the same minimization. The iterates are arrays of any shape:
vectors for quantile regression, (rows, materials) matrices for CT. Beside
the iterate, a run keeps the compensated sum of the x iterates, whose mean
x_bar is the averaged output, and one trace record per step.
"""

from __future__ import annotations

import errno
import itertools
import math
import operator
import os
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import DiagonalMatrix, SparseMatrix

__all__ = [
    "DenseMap",
    "KronEye",
    "CompositeObjective",
    "AdmmProblem",
    "AdmmState",
    "TraceRecord",
    "RecordColumns",
    "Trace",
    "AdmmStepError",
    "KahanSum",
    "RunResult",
    "admm_step",
    "run",
    "quadratic_prox",
    "check_sweep",
    "sweep",
    "check_output_paths",
    "save_trace",
    "load_trace",
    "TRACE_HEADER",
]


# ---------------------------------------------------------------------------
# Linear maps: anything with shape = (y shape, x shape), an int for a vector,
# and matvec/rmatvec works for A; the RSC probe (diagnostics) also needs
# matmat, the product with a stack of column vectors. SparseMatrix (numerics)
# already satisfies the protocol.


# DenseMap.matvec gathers the columns of v's nonzeros when at most one entry
# of v in GATHER_RATIO is nonzero. A gathered column of a C-order matrix costs
# one cache line per row, so at 1000 x 2000 the gather breaks even with the
# full product near 50 nonzeros; 64 takes it up to 31 there.
GATHER_RATIO = 64


class DenseMap:
    """Dense matrix as a linear map (BLAS-backed products).

    The matrix must be finite, so a zero entry of v adds exactly 0 to A v and
    `matvec` skips its column when v is sparse (see GATHER_RATIO), as the
    soft-thresholded quantile iterates are. A NaN or inf in v still reaches
    the result.
    """

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2:
            raise ValueError("expected a 2-D array")
        # min and max propagate NaN, so this is exact without a mask the
        # size of the matrix (2 MB more peak memory at 1000 x 2000).
        if not (np.isfinite(self.a.min(initial=0.0)) and np.isfinite(self.a.max(initial=0.0))):
            raise ValueError("the matrix has non-finite entries")

    @property
    def shape(self):
        return self.a.shape

    def matvec(self, v):
        if GATHER_RATIO * np.count_nonzero(v) <= v.size:
            nz = np.flatnonzero(v)
            return self.a[:, nz] @ v[nz]
        return self.a @ v

    def rmatvec(self, v):
        return self.a.T @ v

    def matmat(self, x):
        return self.a @ x


class KronEye:
    """P kron I_m without the Kronecker product: P applied to (cols, m) matrices."""

    def __init__(self, p: SparseMatrix, m: int):
        self.p = p
        self.m = int(m)

    @property
    def shape(self):
        return ((self.p.rows, self.m), (self.p.cols, self.m))

    def matvec(self, x):
        return self.p.matmat(x)

    def rmatvec(self, y):
        return self.p.rmatmat(y)


# ---------------------------------------------------------------------------


@dataclass
class CompositeObjective:
    """One side of the split objective h = h_c + h_d.

    prox_step(lin, D, center) must return
    argmin_v { h_c(v) + <v, lin> + 0.5*||v - center||^2_D }
    to first-order residual <= 1e-8; D is the positive-definite subproblem
    quadratic of the problem, a DiagonalMatrix, with a `solve` method.
    grad_d may be None when the differentiable part is absent.
    """

    prox_step: Callable[[np.ndarray, object, np.ndarray], np.ndarray]
    grad_d: Optional[Callable[[np.ndarray], np.ndarray]] = None


def quadratic_prox(lin: np.ndarray, D, center: np.ndarray) -> np.ndarray:
    """Default prox for h_c = 0: the exact quadratic minimizer center - D^{-1} lin."""
    return center - D.solve(lin)


@dataclass
class AdmmProblem:
    """Problem data for the linearized-ADMM loop on the constraint y = A x.

    `x_shape` and `y_shape` come from A.shape; the dual u lives in y's space.
    Sigma and D_f / D_g, the subproblem quadratics H_f + A'Sigma A and
    H_g + Sigma for the caller's step-size matrices H_f, H_g, are diagonal
    with one weight per row: shape (n,) for a vector, (n, 1) for an (n, m)
    matrix. `objective(x, y, ax)` is evaluated at every iterate, the value
    of the trace's objective column; ax = A x is the product the step
    already computed.
    """

    A: object
    sigma: DiagonalMatrix
    f: CompositeObjective
    g: CompositeObjective
    D_f: object
    D_g: object
    objective: Callable[[np.ndarray, np.ndarray, np.ndarray], float]

    def __post_init__(self):
        self.y_shape, self.x_shape = (d if isinstance(d, tuple) else (d,) for d in self.A.shape)
        if self.sigma.diag.shape != _row_weights(self.y_shape):
            raise ValueError("Sigma dimension does not match the rows of A")
        if not self.sigma.is_positive():
            raise ValueError("Sigma must have strictly positive entries")
        for name, quad, shape in (("D_f", self.D_f, self.x_shape), ("D_g", self.D_g, self.y_shape)):
            expected = _row_weights(shape)
            if quad.diag.shape != expected:
                raise ValueError(f"{name} has shape {quad.diag.shape}, expected {expected}")


def _row_weights(shape: tuple) -> tuple:
    return shape[:1] + (1,) * (len(shape) - 1)


@dataclass
class TraceRecord:
    t: int
    objective: float
    primal_residual: float
    alpha_t: Optional[float]
    seconds: float


class RecordColumns(Sequence):
    """A read-only sequence of records kept as one column per field.

    `columns` holds equal-length sequences that index like a list (stdlib
    arrays, ranges), one value per record each; `record(*values)` builds the
    record of one index from one value per column. `len`, iteration and
    indexing (`[-1]` too) hand out fresh records, so a long sequence costs its
    columns' bytes, not one Python object per record.
    """

    def __init__(self, record: Callable, columns: tuple):
        self._record, self._columns = record, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i: int):
        i = operator.index(i)  # a slice would slice the columns into one record of slices
        return self._record(*(column[i] for column in self._columns))

    def __iter__(self):
        return itertools.starmap(self._record, zip(*self._columns))


def _trace_record(t, objective, primal_residual, alpha_t, has_alpha, seconds) -> TraceRecord:
    return TraceRecord(t, objective, primal_residual, alpha_t if has_alpha else None, seconds)


class Trace(RecordColumns):
    """A run's TraceRecords, one per step, as typed columns (41 bytes a step).

    alpha_t is kept as a double beside a presence mask, so an alpha_t of None
    (no hook, or a hook that returned None) stays distinct from a NaN one.
    `admm_step` appends each row as values (`append_row`), building no record.
    """

    def __init__(self):
        columns = (array("q"), array("d"), array("d"), array("d"), array("b"), array("d"))
        super().__init__(_trace_record, columns)

    def append_row(self, t, objective, primal_residual, alpha_t, seconds) -> None:
        # alpha_t first: it alone comes from a caller's hook, so a value that
        # is no number fails before any column has grown.
        alpha = 0.0 if alpha_t is None else float(alpha_t)
        ts, objectives, residuals, alphas, has_alpha, times = self._columns
        ts.append(t)
        objectives.append(objective)
        residuals.append(primal_residual)
        alphas.append(alpha)
        has_alpha.append(alpha_t is not None)
        times.append(seconds)


class KahanSum:
    """Compensated array accumulator, so long running averages stay trustworthy."""

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, v: np.ndarray) -> None:
        y = v - self._comp
        t = self.total + y
        np.subtract(t, self.total, out=self._comp)
        self._comp -= y
        self.total = t


@dataclass(slots=True)
class AdmmState:
    """Iterate (x_t, y_t, u_t), the running sum of the x iterates and the trace so far.

    `ax` and `sr` cache A x_t and Sigma (A x_t - y_t) for the next step; None
    (as from `initial`) makes the next step compute them, so whoever resets
    `ax` resets `sr` too. Each step returns fresh x, y, u, ax and sr arrays
    but advances `sum_x` and `trace` (a `Trace`) in place and hands them on,
    so only the newest state's `x_bar` and trace are current.
    """

    t: int
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    sum_x: KahanSum
    trace: Trace = field(default_factory=Trace)
    ax: Optional[np.ndarray] = None
    sr: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, x0: np.ndarray, y0: np.ndarray, u0: np.ndarray) -> "AdmmState":
        return cls(
            t=0,
            x=np.asarray(x0, dtype=float),
            y=np.asarray(y0, dtype=float),
            u=np.asarray(u0, dtype=float),
            sum_x=KahanSum(np.shape(x0)),
        )

    @property
    def x_bar(self) -> np.ndarray:
        if self.t == 0:
            return self.x.copy()
        return self.sum_x.total / self.t


class AdmmStepError(RuntimeError):
    """Raised when a step callback fails or goes non-finite; carries the iteration index.

    `run` sets `trace` to the `Trace` of the steps completed before the
    failure; it is empty until then. A caller that logs columns per step
    beside the trace sets `extra_columns` to their values so far.
    """

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration
        self.trace = Trace()
        self.extra_columns = {}


def _checked(v, shape: tuple, iteration: int, what: str) -> np.ndarray:
    """v as a float array, or AdmmStepError if it has the wrong shape or a non-finite entry.

    Finiteness takes one reduction, the sum of v: a NaN or +-inf entry makes
    the sum NaN or +-inf, so a finite sum proves every entry finite. A sum
    that is not finite runs the elementwise test, which passes only when
    finite entries overflowed the sum (numpy then warns of the overflow).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise AdmmStepError(iteration, f"{what} has shape {v.shape}, expected {shape}")
    if not math.isfinite(np.add.reduce(v, axis=None)) and not np.isfinite(v).all():
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
    carries it as the next step's A x_t. The scaled residual
    Sigma (A x_{t+1} - y_{t+1}) of the dual update is carried the same way, so
    a step after the first makes one product each with A and A' and two with
    Sigma. Each update is checked for shape and finiteness. A failing
    callback, a wrong-shape or non-finite update, or a non-finite objective
    raises AdmmStepError and leaves `state` as it was.
    """
    t0 = time.perf_counter()
    it = state.t + 1
    x, y, u = state.x, state.y, state.u
    sig = problem.sigma

    sr = state.sr
    if sr is None:
        ax = problem.A.matvec(x) if state.ax is None else state.ax
        sr = sig.matvec(ax - y)
    lin_x = problem.A.rmatvec(u + sr)
    if problem.f.grad_d is not None:
        lin_x = lin_x + _call(it, "x grad_d", problem.f.grad_d, x)
    x_new = _call(it, "x prox_step", problem.f.prox_step, lin_x, problem.D_f, x)
    x_new = _checked(x_new, problem.x_shape, it, "x update")

    ax_new = problem.A.matvec(x_new)
    lin_y = -(u + sig.matvec(ax_new - y))
    if problem.g.grad_d is not None:
        lin_y = lin_y + _call(it, "y grad_d", problem.g.grad_d, y)
    y_new = _call(it, "y prox_step", problem.g.prox_step, lin_y, problem.D_g, y)
    y_new = _checked(y_new, problem.y_shape, it, "y update")

    residual = ax_new - y_new
    sr_new = sig.matvec(residual)
    u_new = _checked(u + sr_new, problem.y_shape, it, "u update")

    obj = float(_call(it, "objective", problem.objective, x_new, y_new, ax_new))
    if not math.isfinite(obj):
        raise AdmmStepError(it, f"objective is not finite ({obj!r})")
    alpha = None
    if alpha_hook is not None:
        alpha = _call(it, "alpha_hook", alpha_hook, it, x_new, y_new, u_new, ax_new)

    sum_x, trace = state.sum_x, state.trace
    sum_x.add(x_new)
    seconds = time.perf_counter() - t0 if record_time else 0.0
    trace.append_row(it, obj, math.sqrt(np.vdot(residual, residual)), alpha, seconds)
    return AdmmState(it, x_new, y_new, u_new, sum_x, trace, ax_new, sr_new)


@dataclass
class RunResult:
    state: AdmmState
    x_bar: np.ndarray
    trace: Trace


def run(
    problem: AdmmProblem,
    init: Optional[tuple] = None,
    iters: int = 100,
    alpha_hook: Optional[Callable] = None,
    iteration_hook: Optional[Callable] = None,
    record_time: bool = True,
) -> RunResult:
    """Run `iters` cycles from `init` (default all-zeros) and return the
    final state, the average x_bar of the x iterates and the trace.

    `alpha_hook(t, x, y, u, ax)` may return a diagnostic scalar, or None,
    recorded in the trace, where ax = A x comes from the step;
    `iteration_hook(t, state)` is called after every step (used by the
    experiments to log extra per-iteration quantities). The result's `trace`
    is a `Trace`, one TraceRecord per step. An AdmmStepError at step t leaves
    with the records of steps 1..t-1 as its `trace`.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if init is None:
        init = (np.zeros(problem.x_shape), np.zeros(problem.y_shape), np.zeros(problem.y_shape))
    state = AdmmState.initial(*init)
    try:
        for _ in range(iters):
            state = admm_step(problem, state, alpha_hook, record_time)
            if iteration_hook is not None:
                iteration_hook(state.t, state)
    except AdmmStepError as exc:
        exc.trace = state.trace
        raise
    return RunResult(state=state, x_bar=state.x_bar, trace=state.trace)


# ---------------------------------------------------------------------------
# Sigma sweeps and trace persistence

TRACE_HEADER = "iter,objective,primal_residual,alpha_t,seconds"


def _fmt(x: float) -> str:
    return repr(float(x))


def check_sweep(sigma_list, iters) -> None:
    """Raise ValueError unless `sigma_list` is non-empty, its entries are
    positive and finite and no two share the `{sigma:g}` name of their output
    files, and `iters` is at least 1."""
    if len(sigma_list) == 0:
        raise ValueError("sigma_list must not be empty")
    if not all(0.0 < s < math.inf for s in sigma_list):
        raise ValueError(f"sigma_list entries must be positive and finite, got {list(sigma_list)}")
    by_name = {}
    for sigma in sigma_list:
        name = f"{sigma:g}"
        if name in by_name:
            raise ValueError(
                f"sigma_list entries {by_name[name]!r} and {sigma!r} "
                f"share the output name sigma{name}"
            )
        by_name[name] = sigma
    if iters < 1:
        raise ValueError("iters must be at least 1")


def check_output_paths(out_dir, names) -> None:
    """Raise the error that writing would raise for an output file under
    `out_dir`, so that a run fails before its set-up and not after its solve:
    FileNotFoundError or NotADirectoryError when `out_dir` is missing or no
    directory, IsADirectoryError for a path that is an existing directory, and
    PermissionError for an existing file, or a new file in `out_dir`, that this
    process may not write (`os.access`). Creates no file."""
    try:
        os.stat(os.path.join(out_dir, ""))  # the trailing separator asks for a directory
    except OSError as exc:  # re-raised as its errno's subclass, at the first file's path
        if names:
            raise OSError(exc.errno, exc.strerror, os.path.join(out_dir, names[0])) from None
    dir_ok = os.access(out_dir, os.W_OK | os.X_OK)
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not (os.access(path, os.W_OK) if os.path.exists(path) else dir_ok):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def sweep(sigma_list, iters, out_dir, filenames, setup, solve, write=None) -> tuple:
    """Run `solve(shared, sigma)` for each sigma after one `shared = setup()`;
    returns (shared, {sigma: entry}).

    Before `setup` runs, `check_sweep(sigma_list, iters)` and, given an
    `out_dir`, `check_output_paths` over each sigma's `filenames(sigma)` (its
    trace first) raise for a bad input, so that a sweep fails before its
    set-up and not after a solve. `solve` returns the sigma's entry, whose
    "result" is its RunResult, and the trace's extra columns (or None). With an
    `out_dir` the trace is written, its path added to the entry as "path", and
    then `write(entry, paths)` writes the sigma's other files. An AdmmStepError
    writes the rows of the steps before it, with its `extra_columns`, to that
    sigma's trace and is re-raised.
    """
    check_sweep(sigma_list, iters)
    if out_dir is not None:
        check_output_paths(out_dir, [name for sigma in sigma_list for name in filenames(sigma)])
    shared = setup()
    outputs = {}
    for sigma in map(float, sigma_list):
        paths = [] if out_dir is None else [os.path.join(out_dir, f) for f in filenames(sigma)]
        try:
            entry, columns = solve(shared, sigma)
        except AdmmStepError as exc:
            if paths:
                save_trace(paths[0], exc.trace, exc.extra_columns)
            raise
        if paths:
            save_trace(paths[0], entry["result"].trace, columns)
            entry["path"] = paths[0]
            if write is not None:
                write(entry, paths[1:])
        outputs[sigma] = entry
    return shared, outputs


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
