"""Empirical probes of the convergence conditions.

These evaluate, at chosen points, the curvature inner product that the
restricted-strong-convexity condition bounds from below, and the three
residual norms of an approximately stationary triple, for the engine's
constraint y = A x (the paper's Ax + By = c with B = -I, c = 0). Probing one
subgradient selection per point is an empirical check, not a proof: the
underlying condition quantifies over every subgradient, which is not
exhaustively checkable at nonsmooth points.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .engine import RecordColumns

__all__ = [
    "RscProbeResult",
    "FospResidual",
    "rsc_probe",
    "fosp_residuals",
    "probe_trajectory",
    "write_probe_report",
]

# Iterates per block of `probe_trajectory`: enough that the per-block numpy
# and selector calls cost little per iterate, few enough that the stacked
# copies stay small next to the trajectory they come from. At d=50, n=100 on
# a 2-core host, 128 or more columns put the A product on OpenBLAS's worker
# threads, and the probe ran slower than at 64.
PROBE_BLOCK = 64


@dataclass(frozen=True, slots=True)
class RscProbeResult:
    t: int | None
    lhs: float          # <(x-x*, y-y*), (xi_x - xi*, zeta_y - zeta*)>
    penalty: float      # 0.5 ||Ax - y||^2_Sigma
    dist_x: float
    dist_y: float

    @property
    def slack(self) -> float:
        """lhs plus the constraint-violation allowance."""
        return self.lhs + self.penalty


@dataclass(frozen=True)
class FospResidual:
    primal: float   # ||A x* - y*||
    dual_x: float   # ||-A'u* - xi*||
    dual_y: float   # ||u* - zeta*||


def rsc_probe(
    problem,
    subgrad_selector,
    x: np.ndarray,
    y: np.ndarray,
    x_star: np.ndarray,
    y_star: np.ndarray,
    xi_star: np.ndarray,
    zeta_star: np.ndarray,
    t: int | None = None,
) -> RscProbeResult:
    """Curvature inner product and slack terms at one probe point: the
    `probe_trajectory` of that one point, with its t replaced.

    `subgrad_selector(xs, ys)` supplies one subgradient pair per row of the
    (k, dim_x) and (k, dim_y) stacks it is given, here a stack of one; the
    caller fixes (xi_star, zeta_star) once at the anchor.
    """
    (result,) = probe_trajectory(
        problem, subgrad_selector, [(x, y)], x_star, y_star, xi_star, zeta_star
    )
    return replace(result, t=t)


def fosp_residuals(
    problem,
    x_star: np.ndarray,
    y_star: np.ndarray,
    u_star: np.ndarray,
    xi_star: np.ndarray,
    zeta_star: np.ndarray,
) -> FospResidual:
    """Feasibility and dual-alignment residuals of a candidate triple."""
    primal = problem.A.matvec(x_star) - y_star
    dual_x = -problem.A.rmatvec(u_star) - xi_star
    dual_y = u_star - zeta_star
    return FospResidual(
        primal=float(np.linalg.norm(primal)),
        dual_x=float(np.linalg.norm(dual_x)),
        dual_y=float(np.linalg.norm(dual_y)),
    )


def probe_trajectory(
    problem,
    subgrad_selector,
    iterates,
    x_star: np.ndarray,
    y_star: np.ndarray,
    xi_star: np.ndarray,
    zeta_star: np.ndarray,
) -> Sequence[RscProbeResult]:
    """Probe along an iterable of (x_t, y_t) pairs, t = 1, 2, ...; summary
    data only, no pass/fail.

    The pairs are probed PROBE_BLOCK at a time, so the selector sees row
    stacks of at most that many iterates and never the whole trajectory.
    Each block takes one selector call, one product with A on the column
    stack, and row-wise inner products and norms; its lhs, penalty, dist_x
    and dist_y columns are appended to columns of doubles. Indexing and
    iteration of the result hand out one RscProbeResult per iterate, built
    from the columns (32 bytes an iterate); no iterates give it length 0.
    """
    pairs = iter(iterates)
    columns = tuple(array("d") for _ in range(4))
    while block := list(itertools.islice(pairs, PROBE_BLOCK)):
        xs, ys = (np.array(v, dtype=float) for v in zip(*block))
        xi, zeta = subgrad_selector(xs, ys)
        dx, dy = xs - x_star, ys - y_star
        lhs = np.sum(dx * (xi - xi_star), axis=1) + np.sum(dy * (zeta - zeta_star), axis=1)
        violation = problem.A.matmat(xs.T) - ys.T
        penalty = 0.5 * np.sum(problem.sigma.diag[:, None] * violation * violation, axis=0)
        dist_x, dist_y = np.linalg.norm(dx, axis=1), np.linalg.norm(dy, axis=1)
        for column, values in zip(columns, (lhs, penalty, dist_x, dist_y)):
            column.extend(values.tolist())
    return RecordColumns(RscProbeResult, (range(1, len(columns[0]) + 1), *columns))


def write_probe_report(path, results) -> None:
    """Sidecar report: one row per probe with the raw curvature quantities.

    `results` is any iterable of RscProbeResult, such as `probe_trajectory`'s
    sequence; each row's slack is its lhs + penalty, as the record computes it.
    """
    with open(path, "w") as fh:
        fh.write("t,lhs,penalty,slack,dist_x,dist_y\n")
        for r in results:
            t = "" if r.t is None else str(r.t)
            fh.write(
                f"{t},{r.lhs!r},{r.penalty!r},{r.slack!r},{r.dist_x!r},{r.dist_y!r}\n"
            )
