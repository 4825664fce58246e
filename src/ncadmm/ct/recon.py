"""Spectral CT reconstruction: preconditioned ADMM wiring and diagnostics.

The splitting puts nothing on the image block (f = 0) and the whole
likelihood on the projection block, tied by y = Px. Step sizes follow the
diagonal-preconditioner construction: Q_f over pixels from projector column
sums, and a per-ray penalty sigma / row sum. The y step solves one small
strictly-convex problem per ray by Newton's method, at most
`DEFAULT_NEWTON_ITERS` (20) steps per ray, and stops each ray once its step
has converged or its next step is predicted below an ulp. Its two (rays x
energies) work arrays, t and d1, belong to the problem's loss evaluator
(`forward.CtLoss`), whose slopes at y_t serve the first step; each step
writes the slope d2 over t. A Newton step folds the beam into the
attenuation rows, keeps the per-ray gradient and Hessian entries as vectors
over rays, and solves the shifted 3x3 (in general n_m x n_m) systems by a
Cholesky factorization vectorized over rays (`spd_solve`).

The engine iterates on matrices, unflattened: (n_pixels, n_materials) for x
and (n_rays, n_materials) for y and u.
"""

from __future__ import annotations

import numpy as np

from ..engine import (
    AdmmProblem,
    AdmmStepError,
    CompositeObjective,
    KronEye,
    RunResult,
    check_sigma_names,
    quadratic_prox,
    save_trace,
)
from ..engine import run as engine_run
from ..numerics import DiagonalMatrix, SparseMatrix
# Newton needs only qexp_slopes. qexp stays importable from here because the
# benchmark's tracer patches recon.qexp by name.
from ..prox import qexp, qexp_slopes
# ct_loss_parts stays importable from here because the benchmark's tracer
# patches recon.ct_loss_parts by name; fosp_ratio evaluates through CtLoss.
from .forward import CtLoss, SpectralModel, ct_loss_parts

__all__ = [
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

DEFAULT_NEWTON_ITERS = 20
NEWTON_STEP_TOL = 1e-10
NEWTON_PREDICT_TOL = 2.2e-16
NEWTON_PREDICT_FROM = 1e-8


def active_ray_mask(projector: SparseMatrix) -> np.ndarray:
    """Rays that actually cross the grid; the rest carry no image information."""
    return projector.row_sums() > 0


def build_preconditioners(projector: SparseMatrix, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals (q_f, sigma_tilde): Q_f over pixels from the column sums
    and the per-ray penalty sigma_tilde from the row sums of the projector.

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
    return sigma * col, sigma / row


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


def _max_abs(a: np.ndarray) -> np.ndarray:
    """max |a[k, l]| over k for each column l, one row at a time: the same bits
    as np.abs(a).max(axis=0), without a reduction across short rows."""
    out = np.abs(a[0])
    for row in a[1:]:
        np.maximum(out, np.abs(row), out=out)
    return out


def newton_ray_solve(
    loss: CtLoss,
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
    Hessian positive definite). `iters` caps the steps per ray, and each step
    solves only the rays still moving. With e_k = max|dv_l| of step k and
    s = 1 + max|v_l|, a ray stops after the first step with
    e_k <= NEWTON_STEP_TOL * s, or, from the second step on, with
    e_k <= NEWTON_PREDICT_FROM * s and e_k^3 / e_{k-1}^2 <= NEWTON_PREDICT_TOL * s.
    In Newton's quadratic phase e_k^3 / e_{k-1}^2 is the size of the next
    step, which would then move v_l by less than an ulp; the floor on e_k
    keeps a step that is not yet in that phase from being trusted.

    `loss`, the problem's `CtLoss`, lends its two (rays x energies) work
    arrays and counts the ray-steps and capped rays. A step forms t in the
    first, d1 in the second and d2 over t (`qexp_slopes` with out=(d1, t)).
    When the loss's last evaluation was at the start point, the first step
    takes the slopes from it instead of forming them again.
    """
    n_rays = center.shape[0]
    neg_mu, neg_mu_b, mu_pairs = loss.neg_mu, loss.neg_mu_b, loss.mu_pairs
    v = center.copy() if start is None else np.array(start, dtype=float)
    rows = np.arange(n_rays)
    lin_a, center_a, sigma_a, v_a = lin, center, sigma_diag, v
    held = loss.held_slopes(v)
    e_prev = None  # max|dv| of each moving ray's last step
    # A step uses the leading rows of the work arrays.
    t_buf, d1_buf = loss.work_arrays()
    for _ in range(iters):
        n_a = rows.size
        loss.newton_ray_steps += n_a
        if held is None:
            t = np.matmul(v_a, neg_mu, out=t_buf[:n_a])
            d1, d2 = qexp_slopes(t, out=(d1_buf[:n_a], t))
        else:
            (d1, d2), held = held, None
        # Gradient and Hessian entries laid out (entry, ray).
        grad = neg_mu_b @ d1.T
        grad += (lin_a + sigma_a[:, None] * (v_a - center_a)).T
        hess = mu_pairs @ d2.T
        step = spd_solve(hess, sigma_a, grad)
        v_a = v_a - step.T
        v[rows] = v_a
        e = _max_abs(step)
        scale = 1.0 + _max_abs(v_a.T)
        moving = e > NEWTON_STEP_TOL * scale
        if e_prev is not None:
            # In the quadratic phase the next step is about e^3 / e_prev^2.
            settled = e * (e / e_prev) ** 2 <= NEWTON_PREDICT_TOL * scale
            moving &= ~(settled & (e <= NEWTON_PREDICT_FROM * scale))
        if not moving.all():
            rows = rows[moving]
            if rows.size == 0:
                break
            v_a, lin_a, center_a, sigma_a, e = (
                a[moving] for a in (v_a, lin_a, center_a, sigma_a, e)
            )
        e_prev = e
    else:
        loss.newton_capped += rows.size
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
    weights: np.ndarray,
    proj_x: np.ndarray,
    y: np.ndarray,
    y_star: np.ndarray,
    grad_star: np.ndarray,
    grad_y: np.ndarray,
) -> float | None:
    """Empirical curvature ratio along the trajectory, for the CT loss.

    `weights` is the diagonal of the penalty Sigma, broadcast against y;
    `grad_star` and `grad_y` are the loss gradients at y_star and y.
    """
    penalty = 0.5 * float((weights * (proj_x - y) ** 2).sum())
    return alpha_ratio(y, y_star, grad_y, grad_star, penalty)


def fosp_ratio(model: SpectralModel, counts: np.ndarray, y_star: np.ndarray) -> float:
    """||grad g(y*)|| / ||grad g(0)||: near-zero certifies approximate stationarity."""
    loss = CtLoss(model, counts)
    grad_star = loss.parts(y_star).grad
    grad_zero = loss.parts(np.zeros_like(y_star)).grad
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
) -> tuple[AdmmProblem, CtLoss]:
    """Wire the CT problem into the generic engine on matrix variables.

    D_f = Q_f is diagonal, so the (empty) image-block objective uses the
    exact quadratic prox; the projection block prox runs the batched Newton
    solver. The problem holds the step sizes, one entry per row for all
    materials: Sigma = D_g = sigma_tilde and D_f = Q_f. One `CtLoss`,
    returned with it, serves the gradient of g_d, the objective and Newton's
    work arrays.
    """
    q_f, sigma_tilde = build_preconditioners(projector, sigma)
    penalty = DiagonalMatrix(sigma_tilde[:, None])
    loss = CtLoss(model, counts)

    def prox_y(lin, D, center):
        return newton_ray_solve(loss, lin, center, sigma_tilde)

    def grad_d(y):
        return loss.parts(y).grad_d

    def objective(x, y, proj):
        return loss.parts(proj, want_grad=False).value

    problem = AdmmProblem(
        A=KronEye(projector, model.n_materials),
        sigma=penalty,
        f=CompositeObjective(prox_step=quadratic_prox),
        g=CompositeObjective(prox_step=prox_y, grad_d=grad_d),
        D_f=DiagonalMatrix(q_f[:, None]),
        D_g=penalty,
        objective=objective,
    )
    return problem, loss


def run_ct_reconstruction(
    model: SpectralModel,
    projector: SparseMatrix,
    counts: np.ndarray,
    sigma: float,
    iters: int,
    y_star: np.ndarray | None = None,
    record_time: bool = True,
) -> tuple[RunResult, dict]:
    """Run the full loop at one sigma; records alpha_t when y_star is given.

    The alpha hook evaluates the loss gradient at y_{t+1} with the problem's
    `CtLoss`, which hands the parts found there to the next step's grad_d
    and the slopes to its Newton solve, both at that same y_{t+1}. Returns
    the run and its Newton work: `newton_ray_steps` (rays updated, summed
    over Newton steps and iterations) and `newton_capped` (rays still
    moving when the cap ended a solve).
    """
    problem, loss = build_ct_problem(model, projector, counts, sigma)
    alpha_hook = None
    if y_star is not None:
        grad_star = loss.parts(y_star).grad

        def alpha_hook(t, x, y, u, proj):
            return alpha_t_diagnostic(
                problem.sigma.diag, proj, y, y_star, grad_star, loss.parts(y).grad
            )

    result = engine_run(
        problem, iters=iters, alpha_hook=alpha_hook, record_time=record_time
    )
    return result, {"newton_ray_steps": loss.newton_ray_steps, "newton_capped": loss.newton_capped}


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
    record_time: bool = True,
) -> dict:
    """Full simulation + sigma sweep: sample counts once, reconstruct per sigma.

    Rays that miss the grid are dropped before reconstruction. Persists (when
    out_dir is given) one trace per sigma, with the projection-domain loss in
    the objective column and the curvature ratio in the alpha_t column, plus
    one reconstructed image grid per material (text and graymap). Sigmas
    whose file names would coincide are rejected before any solve. A step
    failure writes the rows of the steps before it to that sigma's trace and
    re-raises.
    """
    from .forward import build_projector, forward_counts

    check_sigma_names(sigma_list)
    projector = build_projector(geom)
    counts_full = forward_counts(model, projector, phantom, seed)
    mask = active_ray_mask(projector)
    if not mask.any():
        raise ValueError("no ray crosses the grid")
    active = projector.select_rows(mask)
    counts = counts_full[:, mask]
    y_star = active.matmat(phantom)
    ratio = fosp_ratio(model, counts, y_star)

    runs = {}
    for sigma in sigma_list:
        sigma = float(sigma)
        path = None if out_dir is None else f"{out_dir}/{trace_filename(sigma)}"
        try:
            result, newton = run_ct_reconstruction(
                model, active, counts, sigma=sigma, iters=iters, y_star=y_star,
                record_time=record_time,
            )
        except AdmmStepError as exc:
            if path is not None:
                save_trace(path, exc.trace)
            raise
        x_final = result.state.x
        entry = {"result": result, "image": x_final, "newton": newton}
        if path is not None:
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
