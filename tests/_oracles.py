"""Reference implementations used only by the tests.

The first part deliberately avoids the library's own code paths: brute-force
1-D searches, dense linear algebra, finite differences, an LP solver, a
point-sampling ray tracer, and the projector built one ray at a time. Oracles
are slow and simple on purpose.

The rest holds what the tests check the library against but no run executes:
the dense step-size checker, the closed-form quantile and CT updates written
out as matrix formulas (the engine runs them as prox callbacks), the CT
model's noise-free means, convex-part Hessian blocks and split loss in
fresh arrays (which the loss evaluator must match bit for bit), the fixed-budget
per-ray Newton loop and the adaptive one with the step-size stop alone, the
plain ADMM step on the general constraint Ax + By = c that the lean engine
step must match bit for bit, the CT problem wired on flattened variables
that the matrix-shaped one must match bit for bit, the per-point RSC probe
the block probe must match, and small linear-map, sparse-matrix and
phantom-file helpers.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ncadmm.ct import recon as R
from ncadmm.engine import (
    AdmmProblem,
    AdmmState,
    AdmmStepError,
    CompositeObjective,
    TraceRecord,
    quadratic_prox,
    run,
)
from ncadmm.ct.forward import DEFAULT_MATERIALS, CtLoss, LossParts, ct_loss_parts
from ncadmm.diagnostics import RscProbeResult
from ncadmm.numerics import DiagonalMatrix, SparseMatrix
from ncadmm.prox import ball_project, qexp, qexp_slopes, quantile_prox_update, soft_threshold

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo, hi, iters=200):
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def bisect_min(right_derivative, lo, hi, iters=200):
    """Minimize a convex scalar function by bisecting its right derivative.

    `right_derivative` must be nondecreasing (convexity); the minimizer is the
    crossing point. Unlike value-based searches, this is not limited by the
    sqrt(machine-eps) resolution of comparing nearly-equal function values.
    """
    a, b = float(lo), float(hi)
    if right_derivative(a) >= 0:
        return a
    if right_derivative(b) < 0:
        return b
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if right_derivative(mid) >= 0:
            b = mid
        else:
            a = mid
        if b - a <= 0.0:
            break
    return b


def fd_gradient(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grad


def fista_lasso(a, w, lam, iters=20000, tol=1e-12):
    """Proximal-gradient (FISTA) minimizer of 0.5||Ax - w||^2 + lam||x||_1."""
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    lip = np.linalg.norm(a, 2) ** 2
    step = 1.0 / lip
    x = np.zeros(a.shape[1])
    z = x.copy()
    theta = 1.0
    for _ in range(iters):
        grad = a.T @ (a @ z - w)
        v = z - step * grad
        x_new = np.sign(v) * np.maximum(np.abs(v) - lam * step, 0.0)
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        z = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
        if np.abs(x_new - x).max() < tol:
            x = x_new
            break
        x, theta = x_new, theta_new
    return x


def quantile_l1_optimum(phi, w, q, lam):
    """Exact optimum of (1/n) sum pinball_q(w - phi x) + lam ||x||_1 via an LP.

    Variables (x+, x-, r+, r-) >= 0 with w - phi(x+ - x-) = r+ - r-.
    """
    phi = np.asarray(phi, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = phi.shape
    cost = np.concatenate(
        [
            np.full(d, lam),
            np.full(d, lam),
            np.full(n, q / n),
            np.full(n, (1.0 - q) / n),
        ]
    )
    a_eq = np.hstack([phi, -phi, np.eye(n), -np.eye(n)])
    res = linprog(cost, A_eq=a_eq, b_eq=w, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    x = res.x[:d] - res.x[d : 2 * d]
    return x, float(res.fun)


def ray_sample_lengths(geom, origin, direction, n_samples=100_000):
    """Estimate per-pixel intersection lengths by dense sampling along the ray.

    Samples points on the chord through the grid bounding box and bins them
    into pixels; each sample stands for an equal slice of chord length.
    """
    ox, oy = origin
    dx, dy = direction
    half_w, half_h = geom.width / 2, geom.height / 2
    t_lo, t_hi = -np.inf, np.inf
    for o, d, lo, hi in ((ox, dx, -half_w, half_w), (oy, dy, -half_h, half_h)):
        if d == 0.0:
            if not (lo <= o <= hi):
                return {}, 0.0
        else:
            t0, t1 = (lo - o) / d, (hi - o) / d
            if t0 > t1:
                t0, t1 = t1, t0
            t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
    if not t_hi > t_lo:
        return {}, 0.0
    chord = t_hi - t_lo
    ts = t_lo + (np.arange(n_samples) + 0.5) * chord / n_samples
    px = np.floor((ox + ts * dx + half_w) / geom.pixel_size).astype(int)
    py = np.floor((oy + ts * dy + half_h) / geom.pixel_size).astype(int)
    ok = (px >= 0) & (px < geom.grid_nx) & (py >= 0) & (py < geom.grid_ny)
    keys = px[ok] * geom.grid_ny + py[ok]
    weight = chord / n_samples
    lengths = {}
    for k, cnt in zip(*np.unique(keys, return_counts=True)):
        lengths[int(k)] = cnt * weight
    return lengths, chord


def ray_pixel_lengths(geom, origin, direction):
    """Exact intersection lengths of one ray with every pixel it crosses.

    Walks the sorted gridline crossings; each segment is assigned to the
    pixel containing its midpoint, which makes boundaries half-open
    (lower/left inclusive) without epsilon nudging.
    """
    ox, oy = origin
    dx, dy = direction
    half_w, half_h = geom.width / 2, geom.height / 2
    p = geom.pixel_size

    t_lo, t_hi = -np.inf, np.inf
    for o, d, lo, hi in ((ox, dx, -half_w, half_w), (oy, dy, -half_h, half_h)):
        if d == 0.0:
            if not (lo <= o <= hi):
                return [], []
        else:
            t0, t1 = (lo - o) / d, (hi - o) / d
            if t0 > t1:
                t0, t1 = t1, t0
            t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
    if not t_hi > t_lo:
        return [], []

    crossings = [t_lo, t_hi]
    for o, d, lo, n in ((ox, dx, -half_w, geom.grid_nx), (oy, dy, -half_h, geom.grid_ny)):
        if d != 0.0:
            ts = (lo + np.arange(1, n) * p - o) / d
            crossings.extend(ts[(ts > t_lo) & (ts < t_hi)])
    ts = np.unique(np.asarray(crossings))

    # Accumulate per pixel: corner-grazing roundoff can split one crossing
    # into adjacent segments that land in the same pixel.
    acc: dict[int, float] = {}
    for t0, t1 in zip(ts[:-1], ts[1:]):
        seg = t1 - t0
        if seg <= 0.0:
            continue
        tm = 0.5 * (t0 + t1)
        ix = int(math.floor((ox + tm * dx + half_w) / p))
        iy = int(math.floor((oy + tm * dy + half_h) / p))
        if 0 <= ix < geom.grid_nx and 0 <= iy < geom.grid_ny:
            key = ix * geom.grid_ny + iy
            acc[key] = acc.get(key, 0.0) + seg
    return list(acc.keys()), list(acc.values())


def build_projector_loop(geom):
    """The projector of `forward.build_projector`, one ray at a time."""
    rows, cols, vals = [], [], []
    span = geom.span
    for a in range(geom.n_angles):
        theta = math.pi * a / geom.n_angles
        d = (math.cos(theta), math.sin(theta))
        e = (-math.sin(theta), math.cos(theta))
        for j in range(geom.n_detectors):
            s = (j + 0.5) * span / geom.n_detectors - span / 2
            pix, lens = ray_pixel_lengths(geom, (s * e[0], s * e[1]), d)
            ray = a * geom.n_detectors + j
            rows.extend([ray] * len(pix))
            cols.extend(pix)
            vals.extend(lens)
    return SparseMatrix(geom.n_rays, geom.n_pixels, rows, cols, vals)


# ---------------------------------------------------------------------------
# Sparse matrices and phantom files


def dense(m):
    """The entries of a SparseMatrix as a dense array (each is one product term)."""
    return m.matmat(np.eye(m.cols))


class ScaledIdentity:
    """c * I as a linear map: the B = -I of the paper's Ax + By = c, and small A's."""

    def __init__(self, n: int, scale: float = 1.0):
        self.n = int(n)
        self.scale = float(scale)

    @property
    def shape(self):
        return (self.n, self.n)

    def matvec(self, v):
        return self.scale * np.asarray(v, dtype=float)

    rmatvec = matmat = matvec


def sparse_from_dense(a):
    """SparseMatrix holding the nonzero entries of a dense 2-D array."""
    a = np.asarray(a, dtype=float)
    r, c = np.nonzero(a)
    return SparseMatrix(a.shape[0], a.shape[1], r, c, a[r, c])


def sparse_identity(n, scale=1.0):
    idx = np.arange(n)
    return SparseMatrix(n, n, idx, idx, np.full(n, float(scale)))


def sparse_nnz(m):
    """Stored entries of a SparseMatrix."""
    return int(m._csr.nnz)


def save_phantom(path, image, geom, materials=DEFAULT_MATERIALS):
    """Write the text format `load_phantom` reads: one block per material."""
    image = np.asarray(image, dtype=float)
    with open(path, "w") as fh:
        for m, name in enumerate(materials):
            fh.write(f"# material {name}\n")
            grid = image[:, m].reshape(geom.grid_nx, geom.grid_ny)
            for row in grid:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            fh.write("\n")


# ---------------------------------------------------------------------------
# Step-size conditions, on dense matrices


@dataclass
class StepsizeReport:
    checks: list  # (condition name, passed, detail)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list:
        return [name for name, passed, _ in self.checks if not passed]


def _min_eig(mat):
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def check_psd(m, tol=1e-10):
    """True iff the symmetric dense matrix has min eigenvalue >= -tol.

    Raises ValueError when the input is asymmetric beyond `tol`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    if np.abs(m - m.T).max(initial=0.0) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = 0.5 * (m + m.T)
    if sym.size == 0:
        return True
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return min_eig >= -tol


def validate_stepsizes(a, b, sigma, h_f=None, h_g=None, hess_f=None, hess_g=None,
                       probes_x=(), probes_y=(), tol=1e-8):
    """Check the step-size conditions of the split problem on dense matrices.

    a, b are the constraint matrices, sigma the diagonal of Sigma, h_f / h_g
    the step-size matrices (None = zero) and hess_f / hess_g the Hessians of
    the differentiable parts as functions of the point. Verifies H >= 0 and
    H + M'Sigma M > 0 for both blocks and H - hess(point) >= 0 at every probe
    point. Violations are reported, not raised.
    """
    sigma = np.asarray(sigma, dtype=float)
    checks = []

    def psd_ok(mat, what):
        try:
            ok = check_psd(mat, tol)
            detail = f"min eig {_min_eig(mat):.3e}"
        except ValueError as exc:
            ok, detail = False, str(exc)
        checks.append((what, ok, detail))

    for side, m, h, hess, probes in (
        ("H_f", a, h_f, hess_f, probes_x),
        ("H_g", b, h_g, hess_g, probes_y),
    ):
        m = np.asarray(m, dtype=float)
        n = m.shape[1]
        h = np.zeros((n, n)) if h is None else np.asarray(h, dtype=float)
        psd_ok(h, f"{side} PSD")
        min_eig = _min_eig(h + m.T @ (sigma[:, None] * m))
        checks.append(
            (f"{side} + M'Sigma M positive definite", min_eig > tol, f"min eig {min_eig:.3e}")
        )
        if hess is not None:
            for i, point in enumerate(probes):
                psd_ok(h - np.asarray(hess(point)), f"{side} dominates hess_d at probe {i}")
    return StepsizeReport(checks)


# ---------------------------------------------------------------------------
# Quantile regression: the closed-form updates as matrix formulas


def quantile_x_update(spec, dataset, x, y, u, gamma):
    """Closed-form x step: gradient-corrected point, soft-threshold, ball scale."""
    resid = dataset.phi @ x - y + u / spec.sigma
    x_tilde = x - (dataset.phi.T @ resid) / gamma
    if not math.isinf(spec.beta):
        x_tilde = x_tilde + (spec.lam / (spec.sigma * gamma)) * x / (spec.beta + np.abs(x))
    return ball_project(
        soft_threshold(x_tilde, spec.lam / (spec.sigma * gamma)), spec.radius
    )


def quantile_y_update(spec, dataset, phi_x_next, u):
    """Coordinatewise y step at anchor Phi x_{t+1} + u_t/sigma."""
    anchor = phi_x_next + u / spec.sigma
    return quantile_prox_update(dataset.w, anchor, spec.q, spec.n, spec.sigma)


def stepsize_margin(dataset, gamma):
    """Smallest eigenvalue of gamma*I - Phi'Phi, via an exact spectral norm.

    Positive margin certifies H_f = sigma*(gamma*I - Phi'Phi) PSD at any
    sigma > 0 without materializing the d x d matrix.
    """
    top = float(np.linalg.norm(dataset.phi, 2))
    return gamma - top**2


# ---------------------------------------------------------------------------
# Spectral CT: the model's means and curvature, and the specialized updates


def expected_counts(model, projector, image):
    """Noise-free means of the count model (same layout as forward_counts)."""
    proj = projector.matmat(np.asarray(image, dtype=float))
    trans = np.exp(-(proj @ model.mu))
    return model.response @ trans.T


def ct_hessian_blocks(model, y):
    """Per-ray Hessian blocks (n_rays, n_m, n_m) of the convex loss part g_c.

    Each block is a sum of outer products mu_i mu_i' with positive weights.
    """
    y = np.asarray(y, dtype=float)
    _, _, d2 = qexp(-(y @ model.mu))
    return np.einsum("li,mi,ni->lmn", d2 * model.beam, model.mu, model.mu)


def stepsize_matrix_factor(projector, pre):
    """Dense pixel-space factor Q_f - P' sigma_tilde P of the x step-size matrix.

    `pre` is the (q_f, sigma_tilde) pair of `build_preconditioners`, as in
    the CT updates below. The actual step-size matrix is this factor
    Kronecker the identity over materials, so PSD of the factor is PSD of
    the whole matrix.
    """
    q_f, sigma_tilde = pre
    p = dense(projector)
    gram = p.T @ (sigma_tilde[:, None] * p)
    return np.diag(q_f) - gram


def ct_loss_parts_fresh(model, y, counts):
    """The split loss at y with its gradient, and the slopes d1, d2 there, in
    fresh arrays: the value, d1 and d2 from `qexp`, as the four-array
    evaluator formed them. Returns (LossParts, d1, d2)."""
    value, d1, d2 = qexp(y @ -model.mu)
    sb = model.response
    means = sb @ value.T
    counts = np.asarray(counts, dtype=float)
    parts = LossParts(
        g_c=float((value @ model.beam).sum()),
        g_d=float(-(counts * np.log(means)).sum()),
        grad_c=d1 @ -(model.mu * model.beam).T,
        grad_d=(((counts / means).T @ sb) * d1) @ model.mu.T,
    )
    return parts, d1, d2


def ray_loss(model, n_rays):
    """A CtLoss with zero counts: the work arrays `newton_ray_solve` takes, for
    rays that belong to no CT problem."""
    return CtLoss(model, np.zeros((model.n_windows, n_rays)))


def newton_ray_solve_fixed(model, lin, center, sigma_diag, iters=R.DEFAULT_NEWTON_ITERS,
                           start=None):
    """The per-ray Newton loop with a fixed budget: every ray takes `iters` steps."""
    n_rays, n_m = center.shape
    mu_outer = (model.mu[:, None, :] * model.mu[None, :, :]).reshape(n_m * n_m, -1)
    diag_idx = np.arange(n_m)
    v = center.copy() if start is None else np.array(start, dtype=float)
    for _ in range(iters):
        _, d1, d2 = qexp(-(v @ model.mu))
        grad = -(d1 * model.beam) @ model.mu.T + lin + sigma_diag[:, None] * (v - center)
        hess = ((d2 * model.beam) @ mu_outer.T).reshape(n_rays, n_m, n_m)
        hess[:, diag_idx, diag_idx] += sigma_diag[:, None]
        v = v - np.linalg.solve(hess, grad[..., None])[..., 0]
    return v


def newton_ray_solve_plain(model, lin, center, sigma_diag, iters=R.DEFAULT_NEWTON_ITERS,
                           start=None):
    """The adaptive per-ray Newton loop with the step-size stop alone.

    A ray stops after the first step with max|dv_l| <= NEWTON_STEP_TOL *
    (1 + max|v_l|); `newton_ray_solve` also stops it once the predicted next
    step falls below an ulp. Work arrays are allocated per call.
    """
    n_rays, n_m = center.shape
    neg_mu = -model.mu
    mu_b = model.mu * model.beam
    neg_mu_b = -mu_b
    mu_pairs = np.stack([model.mu[i] * mu_b[j] for i in range(n_m) for j in range(i + 1)])
    v = center.copy() if start is None else np.array(start, dtype=float)
    rows = np.arange(n_rays)
    lin_a, center_a, sigma_a, v_a = lin, center, sigma_diag, v
    t_buf, d1_buf, d2_buf = np.empty((3, n_rays, model.n_energies))
    for _ in range(iters):
        n_a = rows.size
        t = np.matmul(v_a, neg_mu, out=t_buf[:n_a])
        d1, d2 = qexp_slopes(t, out=(d1_buf[:n_a], d2_buf[:n_a]))
        grad = neg_mu_b @ d1.T
        grad += (lin_a + sigma_a[:, None] * (v_a - center_a)).T
        hess = mu_pairs @ d2.T
        step = R.spd_solve(hess, sigma_a, grad).T
        v_a = v_a - step
        v[rows] = v_a
        moving = np.abs(step).max(axis=1) > R.NEWTON_STEP_TOL * (1.0 + np.abs(v_a).max(axis=1))
        if not moving.all():
            rows = rows[moving]
            if rows.size == 0:
                break
            v_a, lin_a, center_a, sigma_a = (a[moving] for a in (v_a, lin_a, center_a, sigma_a))
    return v


def ray_subproblem_objective(model, lin, center, sigma_diag, v):
    """Per-ray value of the y-subproblem objective (for monotonicity checks)."""
    val, _, _ = qexp(-(v @ model.mu))
    gc = (val * model.beam).sum(axis=1)
    quad = 0.5 * sigma_diag * ((v - center) ** 2).sum(axis=1)
    return gc + (lin * v).sum(axis=1) + quad


def ct_x_update(projector, pre, x, y, u):
    """x + Q_f^{-1} P' (sigma_tilde (y - Px) - u), columnwise per material."""
    q_f, sigma_tilde = pre
    resid = sigma_tilde[:, None] * (y - projector.matmat(x)) - u
    return x + projector.rmatmat(resid) / q_f[:, None]


def ct_y_update(model, counts, pre, proj_x_next, y, u, newton_iters=R.DEFAULT_NEWTON_ITERS):
    """Per-ray Newton step block: the concave part enters via its gradient at y_t."""
    _, sigma_tilde = pre
    grad_d = ct_loss_parts(model, y, counts).grad_d
    lin = grad_d - u - sigma_tilde[:, None] * (proj_x_next - y)
    return R.newton_ray_solve(ray_loss(model, len(y)), lin, y, sigma_tilde, newton_iters)


def ct_u_update(pre, proj_x_next, y_next, u):
    """u + sigma_tilde (P x_{t+1} - y_{t+1})."""
    _, sigma_tilde = pre
    return u + sigma_tilde[:, None] * (proj_x_next - y_next)


def run_ct_specialized(model, projector, counts, sigma, iters,
                       newton_iters=R.DEFAULT_NEWTON_ITERS):
    """Reference loop using the closed-form matrix updates; returns every (x, y, u)."""
    pre = R.build_preconditioners(projector, sigma)
    n_m = model.n_materials
    x = np.zeros((projector.cols, n_m))
    y = np.zeros((projector.rows, n_m))
    u = np.zeros((projector.rows, n_m))
    iterates = []
    for _ in range(iters):
        x = ct_x_update(projector, pre, x, y, u)
        proj_x = projector.matmat(x)
        y = ct_y_update(model, counts, pre, proj_x, y, u, newton_iters)
        u = ct_u_update(pre, proj_x, y, u)
        iterates.append((x.copy(), y.copy(), u.copy()))
    return iterates


# ---------------------------------------------------------------------------
# The CT problem on flattened variables


class FlatKronEye:
    """(P kron I_m) acting on C-order flattenings of (cols, m) matrices: each
    product reshapes, applies P to the stacked columns and flattens back."""

    def __init__(self, p, m):
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


def build_ct_problem_flat(model, projector, counts, sigma):
    """`recon.build_ct_problem` on flattened variables: the map is
    `FlatKronEye`, Sigma = D_g and D_f repeat their per-ray and per-pixel
    entries over the materials, and the callbacks reshape their inputs and
    flatten their outputs."""
    n_m = model.n_materials
    n_rays = projector.rows
    q_f, sigma_tilde = R.build_preconditioners(projector, sigma)
    penalty = DiagonalMatrix(np.repeat(sigma_tilde, n_m))
    loss = CtLoss(model, counts)

    def prox_y(lin, D, center):
        v = R.newton_ray_solve(
            loss, lin.reshape(n_rays, n_m), center.reshape(n_rays, n_m), sigma_tilde
        )
        return v.ravel()

    def grad_d(y_flat):
        return loss.parts(y_flat.reshape(n_rays, n_m)).grad_d.ravel()

    def objective(x_flat, y_flat, proj_flat):
        return loss.parts(proj_flat.reshape(n_rays, n_m), want_grad=False).value

    problem = AdmmProblem(
        A=FlatKronEye(projector, n_m),
        sigma=penalty,
        f=CompositeObjective(prox_step=quadratic_prox),
        g=CompositeObjective(prox_step=prox_y, grad_d=grad_d),
        D_f=DiagonalMatrix(np.repeat(q_f, n_m)),
        D_g=penalty,
        objective=objective,
    )
    return problem, loss


def run_ct_reconstruction_flat(model, projector, counts, sigma, iters, y_star):
    """`recon.run_ct_reconstruction` (untimed, with the alpha diagnostic) on
    `build_ct_problem_flat`; the alpha hook reshapes the flat iterates."""
    problem, loss = build_ct_problem_flat(model, projector, counts, sigma)
    shape = (projector.rows, model.n_materials)
    grad_star = loss.parts(y_star).grad
    weights = problem.sigma.diag.reshape(shape)

    def alpha_hook(t, x_flat, y_flat, u_flat, proj_flat):
        y = y_flat.reshape(shape)
        return R.alpha_t_diagnostic(
            weights, proj_flat.reshape(shape), y, y_star, grad_star, loss.parts(y).grad
        )

    result = run(problem, iters=iters, alpha_hook=alpha_hook, record_time=False)
    return result, {"newton_ray_steps": loss.newton_ray_steps, "newton_capped": loss.newton_capped}


# ---------------------------------------------------------------------------
# The ADMM step written plainly


def kahan_add_reference(acc, v):
    """KahanSum.add as four fresh arrays per call: y, t, the new compensation and total."""
    y = v - acc._comp
    t = acc.total + y
    acc._comp = (t - acc.total) - y
    acc.total = t


def _checked_call(iteration, what, fn, *args):
    try:
        return fn(*args)
    except AdmmStepError:
        raise
    except Exception as exc:
        raise AdmmStepError(iteration, f"{what} failed: {exc}") from exc


def _finite(v, iteration, what):
    if not np.all(np.isfinite(v)):
        raise AdmmStepError(iteration, f"{what} produced non-finite values")
    return v


def admm_step_reference(problem, state, alpha_hook=None, record_time=True):
    """One x/y/u cycle on the general constraint Ax + By = c, with B = -I and
    c = 0 written out, that forms Sigma(A x_t + B y_t - c) afresh every step.

    Carries A x_t but not the scaled residual, checks finiteness with
    np.all, takes the residual norm with np.linalg.norm and sums the
    averages with `kahan_add_reference`: the step before the lean one, whose
    outputs it must reproduce bit for bit.
    """
    t0 = time.perf_counter()
    it = state.t + 1
    x, y, u = state.x, state.y, state.u
    sig = problem.sigma
    B, c = ScaledIdentity(len(y), -1.0), np.zeros(y.shape)

    ax = problem.A.matvec(x) if state.ax is None else state.ax
    by = B.matvec(y)
    lin_x = problem.A.rmatvec(u + sig.matvec(ax + by - c))
    if problem.f.grad_d is not None:
        lin_x = lin_x + _checked_call(it, "x grad_d", problem.f.grad_d, x)
    x_new = _checked_call(it, "x prox_step", problem.f.prox_step, lin_x, problem.D_f, x)
    x_new = _finite(np.asarray(x_new, dtype=float), it, "x update")

    ax_new = problem.A.matvec(x_new)
    lin_y = B.rmatvec(u + sig.matvec(ax_new + by - c))
    if problem.g.grad_d is not None:
        lin_y = lin_y + _checked_call(it, "y grad_d", problem.g.grad_d, y)
    y_new = _checked_call(it, "y prox_step", problem.g.prox_step, lin_y, problem.D_g, y)
    y_new = _finite(np.asarray(y_new, dtype=float), it, "y update")

    residual = ax_new + B.matvec(y_new) - c
    u_new = _finite(u + sig.matvec(residual), it, "u update")

    obj = float("nan")
    if problem.objective is not None:
        obj = float(_checked_call(it, "objective", problem.objective, x_new, y_new, ax_new))
        if not math.isfinite(obj):
            raise AdmmStepError(it, f"objective is not finite ({obj!r})")
    alpha = None
    if alpha_hook is not None:
        alpha = _checked_call(it, "alpha_hook", alpha_hook, it, x_new, y_new, u_new, ax_new)

    kahan_add_reference(state.sum_x, x_new)
    kahan_add_reference(state.sum_y, y_new)
    seconds = time.perf_counter() - t0 if record_time else 0.0
    state.trace.append(TraceRecord(it, obj, float(np.linalg.norm(residual)), alpha, seconds))
    return AdmmState(
        t=it, x=x_new, y=y_new, u=u_new, sum_x=state.sum_x, sum_y=state.sum_y,
        trace=state.trace, ax=ax_new,
    )


# ---------------------------------------------------------------------------
# The RSC probe one iterate at a time


def rsc_probe_point(problem, subgrad_selector, x, y, x_star, y_star, xi_star, zeta_star, t=None):
    """One probe point with matvec products and dot products: the per-point
    evaluation that `diagnostics.probe_trajectory`'s block probe must match,
    with the violation A x + B y - c of B = -I and c = 0 written out."""
    xi, zeta = subgrad_selector(x, y)
    lhs = float((x - x_star) @ (xi - xi_star)) + float((y - y_star) @ (zeta - zeta_star))
    violation = problem.A.matvec(x) + ScaledIdentity(len(y), -1.0).matvec(y) - np.zeros(len(y))
    penalty = 0.5 * float(violation @ problem.sigma.matvec(violation))
    return RscProbeResult(
        t=t,
        lhs=lhs,
        penalty=penalty,
        dist_x=float(np.linalg.norm(x - x_star)),
        dist_y=float(np.linalg.norm(y - y_star)),
    )


def probe_trajectory_loop(problem, subgrad_selector, iterates, x_star, y_star, xi_star, zeta_star):
    """`rsc_probe_point` at every iterate, t = 1, 2, ..."""
    return [
        rsc_probe_point(problem, subgrad_selector, x, y, x_star, y_star, xi_star, zeta_star, t=t)
        for t, (x, y) in enumerate(iterates, start=1)
    ]
