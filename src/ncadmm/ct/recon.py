"""Spectral CT reconstruction: preconditioned ADMM wiring and diagnostics.

The splitting puts nothing on the image block (f = 0) and the whole
likelihood on the projection block, tied by y = Px. Step sizes follow the
diagonal-preconditioner construction: Q_f over pixels from projector column
sums, and a per-ray penalty sigma / row sum. The y step solves one small
strictly-convex problem per ray by Newton's method, at most `newton_iters`
steps per ray, and stops each ray once its step has converged. A Newton step
folds the beam into the attenuation rows, keeps the per-ray gradient and
Hessian entries as vectors over rays, and solves the shifted 3x3 (in general
n_m x n_m) systems by a Cholesky factorization vectorized over rays
(`spd_solve`).

x, y, u are matrices here: (n_pixels, n_materials) for x and
(n_rays, n_materials) for y and u.
"""

from __future__ import annotations

import numpy as np

from ..engine import (
    AdmmProblem,
    CompositeObjective,
    KronEye,
    RunResult,
    ScaledIdentity,
    quadratic_prox,
    save_trace,
)
from ..engine import run as engine_run
from ..numerics import DiagonalMatrix, SparseMatrix
# Newton needs only qexp_slopes. qexp stays importable from here because the
# benchmark's tracer patches recon.qexp by name.
from ..prox import qexp, qexp_slopes
from .forward import SpectralModel, ct_loss_parts

__all__ = [
    "CtPreconditioners",
    "alpha_ratio",
    "run_ct_experiment",
    "trace_filename",
    "active_ray_mask",
    "build_preconditioners",
    "spd_solve",
    "newton_ray_solve",
    "alpha_t_diagnostic",
    "fosp_ratio",
    "build_ct_problem",
    "run_ct_reconstruction",
    "save_image_grid",
    "save_pgm",
]

DEFAULT_NEWTON_ITERS = 10
NEWTON_STEP_TOL = 1e-10


class CtPreconditioners:
    """Diagonal step-size data: Q_f over pixels, per-ray penalty, and sigma."""

    def __init__(self, q_f: DiagonalMatrix, sigma_tilde: DiagonalMatrix, sigma: float):
        self.q_f = q_f
        self.sigma_tilde = sigma_tilde
        self.sigma = float(sigma)


def active_ray_mask(projector: SparseMatrix) -> np.ndarray:
    """Rays that actually cross the grid; the rest carry no image information."""
    return projector.row_sums() > 0


def build_preconditioners(projector: SparseMatrix, sigma: float) -> CtPreconditioners:
    """Q_f from column sums and sigma_tilde from row sums of the projector.

    The projector must already be restricted to active rays (positive row
    sums); every pixel must be crossed by at least one ray.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    row = projector.row_sums()
    col = projector.col_sums()
    if row.size and row.min() <= 0:
        raise ValueError("projector has rays that miss the grid; drop them first")
    if col.size and col.min() <= 0:
        raise ValueError("projector leaves some pixels unobserved")
    return CtPreconditioners(
        q_f=DiagonalMatrix(sigma * col, require_psd=True),
        sigma_tilde=DiagonalMatrix(sigma / row, require_psd=True),
        sigma=sigma,
    )


def spd_solve(lower: np.ndarray, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (H_l + shift_l I) x_l = rhs_l for every column l of `rhs`.

    `lower` holds the lower triangle of each symmetric H_l, row by row
    (entries (0,0), (1,0), (1,1), (2,0), ...), one row per entry and one
    column per system: (n(n+1)/2, n_sys). `rhs` is (n, n_sys) and `shift`
    (n_sys,). Cholesky without pivoting, vectorized over the systems: the
    caller's H_l are PSD and the shift positive, so every block is SPD.
    A block that is not SPD gives non-finite values in its column, not an
    exception.
    """
    n = rhs.shape[0]
    chol = [[None] * n for _ in range(n)]
    entries = iter(lower)
    for i in range(n):
        for j in range(i + 1):
            s = next(entries) + shift if i == j else next(entries)
            for p in range(j):
                s = s - chol[i][p] * chol[j][p]
            chol[i][j] = np.sqrt(s) if i == j else s / chol[j][j]
    z = []
    for i in range(n):
        s = rhs[i]
        for p in range(i):
            s = s - chol[i][p] * z[p]
        z.append(s / chol[i][i])
    x = [None] * n
    for i in reversed(range(n)):
        s = z[i]
        for p in range(i + 1, n):
            s = s - chol[p][i] * x[p]
        x[i] = s / chol[i][i]
    return np.stack(x)


def newton_ray_solve(
    model: SpectralModel,
    lin: np.ndarray,
    center: np.ndarray,
    sigma_diag: np.ndarray,
    iters: int = DEFAULT_NEWTON_ITERS,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Batched per-ray Newton on the strictly convex y subproblem.

    Minimizes, independently for each ray l,
        gc_l(v) + <v, lin_l> + (sigma_diag_l / 2) ||v - center_l||^2
    starting from `start` (default: center, the warm start the outer loop
    uses), with no line search (the sigma_diag_l I regularization keeps every
    Hessian positive definite). `iters` caps the steps per ray: a ray stops
    after the first step with max|dv_l| <= NEWTON_STEP_TOL * (1 + max|v_l|),
    and each step solves only the rays still moving.
    """
    n_rays, n_m = center.shape
    scale = model.scales(n_rays)
    neg_mu = -model.mu
    # The beam weights every energy term of g_c, so it is folded into the
    # attenuation rows once; the per-ray scale multiplies the contracted
    # (materials-sized) results. Hessian rows pair mu_i with beam * mu_j over
    # the lower triangle, in the order spd_solve reads them.
    mu_b = model.mu * model.beam
    neg_mu_b = -mu_b
    mu_pairs = np.stack([model.mu[i] * mu_b[j] for i in range(n_m) for j in range(i + 1)])
    v = center.copy() if start is None else np.array(start, dtype=float)
    rows = np.arange(n_rays)
    lin_a, center_a, sigma_a, scale_a, v_a = lin, center, sigma_diag, scale, v
    # (ray, energy) work arrays, allocated once per call because fresh ones
    # each step cost more than the arithmetic; a step uses the leading rows.
    t_buf, d1_buf, d2_buf = np.empty((3, n_rays, model.n_energies))
    for _ in range(iters):
        n_a = rows.size
        t = np.matmul(v_a, neg_mu, out=t_buf[:n_a])
        d1, d2 = qexp_slopes(t, out=(d1_buf[:n_a], d2_buf[:n_a]))
        # Gradient and Hessian entries laid out (entry, ray).
        grad = (neg_mu_b @ d1.T) * scale_a
        grad += (lin_a + sigma_a[:, None] * (v_a - center_a)).T
        hess = (mu_pairs @ d2.T) * scale_a
        step = spd_solve(hess, sigma_a, grad).T
        v_a = v_a - step
        v[rows] = v_a
        moving = np.abs(step).max(axis=1) > NEWTON_STEP_TOL * (1.0 + np.abs(v_a).max(axis=1))
        if not moving.all():
            rows = rows[moving]
            if rows.size == 0:
                break
            v_a, lin_a, center_a, sigma_a, scale_a = (
                a[moving] for a in (v_a, lin_a, center_a, sigma_a, scale_a)
            )
    return v


# ---------------------------------------------------------------------------
# Diagnostics


def alpha_ratio(
    y: np.ndarray,
    y_star: np.ndarray,
    grad_y: np.ndarray,
    grad_star: np.ndarray,
    penalty: float,
) -> float | None:
    """[<y - y*, grad(y) - grad(y*)> + penalty] / ||y - y*||^2, or None (skip)
    when the denominator falls below the guard threshold."""
    diff = y - y_star
    denom = float((diff**2).sum())
    if denom <= 1e-12 * diff.size:
        return None
    return (float((diff * (grad_y - grad_star)).sum()) + penalty) / denom


def alpha_t_diagnostic(
    model: SpectralModel,
    counts: np.ndarray,
    sigma_tilde: DiagonalMatrix,
    proj_x: np.ndarray,
    y: np.ndarray,
    y_star: np.ndarray,
    grad_star: np.ndarray | None = None,
    grad_y: np.ndarray | None = None,
) -> float | None:
    """Empirical curvature ratio along the trajectory, for the CT loss.

    The loss gradients at y_star and y are computed unless passed in.
    """
    if grad_star is None:
        grad_star = ct_loss_parts(model, y_star, counts).grad
    if grad_y is None:
        grad_y = ct_loss_parts(model, y, counts).grad
    penalty = 0.5 * float((sigma_tilde.diag[:, None] * (proj_x - y) ** 2).sum())
    return alpha_ratio(y, y_star, grad_y, grad_star, penalty)


def fosp_ratio(model: SpectralModel, counts: np.ndarray, y_star: np.ndarray) -> float:
    """||grad g(y*)|| / ||grad g(0)||: near-zero certifies approximate stationarity."""
    grad_star = ct_loss_parts(model, y_star, counts).grad
    grad_zero = ct_loss_parts(model, np.zeros_like(y_star), counts).grad
    denom = float(np.linalg.norm(grad_zero))
    if denom == 0.0:
        raise ValueError("gradient at zero vanishes; ratio undefined")
    return float(np.linalg.norm(grad_star)) / denom


# ---------------------------------------------------------------------------
# Engine wiring and the full reconstruction loop


def build_ct_problem(
    model: SpectralModel,
    projector: SparseMatrix,
    counts: np.ndarray,
    sigma: float,
    newton_iters: int = DEFAULT_NEWTON_ITERS,
) -> tuple[AdmmProblem, CtPreconditioners]:
    """Wire the CT problem into the generic engine on flattened variables.

    D_f = Q_f kron I is diagonal, so the (empty) image-block objective uses
    the exact quadratic prox; the projection block prox reshapes and runs the
    batched Newton solver.
    """
    n_m = model.n_materials
    n_rays = projector.rows
    pre = build_preconditioners(projector, sigma)

    def prox_y(lin, D, center):
        v = newton_ray_solve(
            model,
            lin.reshape(n_rays, n_m),
            center.reshape(n_rays, n_m),
            pre.sigma_tilde.diag,
            newton_iters,
        )
        return v.ravel()

    def grad_d(y_flat):
        parts = ct_loss_parts(model, y_flat.reshape(n_rays, n_m), counts)
        return parts.grad_d.ravel()

    def objective(x_flat, y_flat, proj_flat):
        proj = proj_flat.reshape(n_rays, n_m)
        return ct_loss_parts(model, proj, counts, want_grad=False).value

    problem = AdmmProblem(
        A=KronEye(projector, n_m),
        B=ScaledIdentity(n_rays * n_m, -1.0),
        c=np.zeros(n_rays * n_m),
        sigma=DiagonalMatrix(np.repeat(pre.sigma_tilde.diag, n_m), require_psd=True),
        f=CompositeObjective(prox_step=quadratic_prox),
        g=CompositeObjective(prox_step=prox_y, grad_d=grad_d),
        D_f=DiagonalMatrix(np.repeat(pre.q_f.diag, n_m), require_psd=True),
        D_g=DiagonalMatrix(np.repeat(pre.sigma_tilde.diag, n_m), require_psd=True),
        objective=objective,
    )
    return problem, pre


def run_ct_reconstruction(
    model: SpectralModel,
    projector: SparseMatrix,
    counts: np.ndarray,
    sigma: float,
    iters: int,
    y_star: np.ndarray | None = None,
    newton_iters: int = DEFAULT_NEWTON_ITERS,
    record_time: bool = True,
) -> tuple[RunResult, CtPreconditioners]:
    """Run the full loop at one sigma; records alpha_t when y_star is given.

    The alpha hook evaluates the loss gradient at y_{t+1}; the next step's
    grad_d, which linearizes g_d at that same y_{t+1}, reuses it.
    """
    problem, pre = build_ct_problem(model, projector, counts, sigma, newton_iters)
    shape = (projector.rows, model.n_materials)
    alpha_hook = None
    if y_star is not None:
        grad_star = ct_loss_parts(model, y_star, counts).grad
        fresh_grad_d = problem.g.grad_d
        latest = {}  # the y_{t+1} the hook last saw, and grad g_d there

        def alpha_hook(t, x_flat, y_flat, u_flat, proj_flat):
            y = y_flat.reshape(shape)
            parts = ct_loss_parts(model, y, counts)
            latest.update(y=y_flat, grad_d=parts.grad_d.ravel())
            return alpha_t_diagnostic(
                model, counts, pre.sigma_tilde, proj_flat.reshape(shape), y, y_star,
                grad_star, grad_y=parts.grad,
            )

        def shared_grad_d(y_flat):
            if latest.get("y") is y_flat:
                return latest["grad_d"]
            return fresh_grad_d(y_flat)

        problem.g.grad_d = shared_grad_d

    result = engine_run(
        problem, iters=iters, alpha_hook=alpha_hook, record_time=record_time
    )
    return result, pre


def trace_filename(sigma: float) -> str:
    return f"ct_sigma{sigma:g}.csv"


def run_ct_experiment(
    geom,
    model: SpectralModel,
    phantom: np.ndarray,
    sigma_list,
    iters: int,
    seed: int,
    out_dir=None,
    newton_iters: int = DEFAULT_NEWTON_ITERS,
    record_time: bool = True,
) -> dict:
    """Full simulation + sigma sweep: sample counts once, reconstruct per sigma.

    Rays that miss the grid are dropped before reconstruction. Persists (when
    out_dir is given) one trace per sigma, with the projection-domain loss in
    the objective column and the curvature ratio in the alpha_t column, plus
    one reconstructed image grid per material (text and graymap).
    """
    from .forward import build_projector, forward_counts

    projector = build_projector(geom)
    counts_full = forward_counts(model, projector, phantom, seed)
    mask = active_ray_mask(projector)
    active = projector.select_rows(mask)
    counts = counts_full[:, mask]
    model = model.restrict_rays(mask)  # keeps any per-ray scale aligned
    y_star = active.matmat(phantom)
    ratio = fosp_ratio(model, counts, y_star)

    runs = {}
    for sigma in sigma_list:
        sigma = float(sigma)
        result, _ = run_ct_reconstruction(
            model,
            active,
            counts,
            sigma=sigma,
            iters=iters,
            y_star=y_star,
            newton_iters=newton_iters,
            record_time=record_time,
        )
        x_final = result.state.x.reshape(geom.n_pixels, model.n_materials)
        entry = {"result": result, "image": x_final}
        if out_dir is not None:
            path = f"{out_dir}/{trace_filename(sigma)}"
            save_trace(path, result.trace)
            entry["path"] = path
            for m, name in enumerate(model.materials):
                stem = f"{out_dir}/ct_sigma{sigma:g}_{name}"
                save_image_grid(f"{stem}.txt", x_final[:, m], geom.grid_nx, geom.grid_ny)
                save_pgm(f"{stem}.pgm", x_final[:, m], geom.grid_nx, geom.grid_ny)
        runs[sigma] = entry
    return {
        "runs": runs,
        "fosp_ratio": ratio,
        "active_rays": int(mask.sum()),
        "counts": counts,
        "projector": active,
        "y_star": y_star,
        "phantom": phantom,
    }


# ---------------------------------------------------------------------------
# Image output


def save_image_grid(path, values: np.ndarray, nx: int, ny: int) -> None:
    grid = np.asarray(values, dtype=float).reshape(nx, ny)
    with open(path, "w") as fh:
        for row in grid:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_pgm(path, values: np.ndarray, nx: int, ny: int) -> None:
    """Plain (P2) graymap, rescaled to 0..255 over the value range."""
    grid = np.asarray(values, dtype=float).reshape(nx, ny)
    lo, hi = float(grid.min()), float(grid.max())
    span = hi - lo if hi > lo else 1.0
    pixels = np.clip(np.round((grid - lo) / span * 255), 0, 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{ny} {nx}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")
