import tracemalloc

import numpy as np
import pytest

from ncadmm import engine
from ncadmm.ct import forward as F
from ncadmm.ct import recon as R
from ncadmm.engine import load_trace
from ncadmm.numerics import DiagonalMatrix, SparseMatrix
from ncadmm.prox import qexp

import _oracles
from _oracles import (
    admm_step_reference,
    bisect_min,
    block_edge_ray_counts,
    ct_loss_parts_fresh,
    ct_u_update,
    ct_x_update,
    ct_y_update,
    dense,
    newton_ray_solve_fixed,
    newton_ray_solve_plain,
    poisson_counts,
    ray_loss,
    ray_subproblem_objective,
    run_ct_reconstruction_flat,
    run_ct_specialized,
    stepsize_matrix_factor,
)


def subproblem_gradient(model, lin, center, sigma_diag, v):
    _, d1, _ = qexp(-(v @ model.mu))
    return -(d1 * model.beam) @ model.mu.T + lin + sigma_diag[:, None] * (v - center)


def random_ray_model(rng, n_i, n_m):
    return F.SpectralModel(
        energies=np.linspace(30, 90, n_i),
        mu=rng.uniform(0.05, 2.0, (n_m, n_i)),
        window_weights=np.ones((1, n_i)),
        beam=rng.uniform(10.0, 1000.0, n_i),
        materials=tuple(f"m{k}" for k in range(n_m)),
    )


@pytest.fixture(scope="module")
def small_ct():
    geom = F.CtGeometry(grid_nx=4, grid_ny=4, pixel_size=0.5, n_angles=8, n_detectors=8)
    projector = F.build_projector(geom)
    model = F.build_spectral_model(n_energies=25)
    phantom = F.default_phantom(geom)
    counts = F.forward_counts(model, projector, phantom, seed=31)
    mask = R.active_ray_mask(projector)
    active = projector.select_rows(mask)
    return geom, model, phantom, active, counts[:, mask]


class TestPreconditioners:
    def test_values(self, small_ct):
        _, _, _, active, _ = small_ct
        q_f, sigma_tilde = R.build_preconditioners(active, sigma=2.0)
        assert np.allclose(q_f, 2.0 * active.col_sums())
        assert np.allclose(sigma_tilde, 2.0 / active.row_sums())

    def test_zero_row_rejected(self, small_ct):
        geom, *_ = small_ct
        full = F.build_projector(geom)  # still has rays that miss the grid
        with pytest.raises(ValueError, match="miss the grid"):
            R.build_preconditioners(full, sigma=1.0)

    def test_stepsize_factor_psd(self, small_ct):
        _, _, _, active, _ = small_ct
        pre = R.build_preconditioners(active, sigma=3.0)
        factor = stepsize_matrix_factor(active, pre)
        eigs = np.linalg.eigvalsh(0.5 * (factor + factor.T))
        assert eigs[0] >= -1e-8


class TestXUpdate:
    def test_fixed_point(self, small_ct):
        _, model, phantom, active, _ = small_ct
        pre = R.build_preconditioners(active, sigma=1.5)
        x = np.array(phantom)
        y = active.matmat(x)
        u = np.zeros_like(y)
        out = ct_x_update(active, pre, x, y, u)
        assert np.abs(out - x).max() <= 1e-14

    def test_scalar_hand_trace(self):
        # one pixel, one ray, one material: everything is a number
        p = SparseMatrix(1, 1, [0, 1], [0], [0.7])
        sigma = 2.0
        pre = R.build_preconditioners(p, sigma)
        q_f = sigma * 0.7
        s_t = sigma / 0.7
        x = np.array([[0.4]])
        y = np.array([[0.2]])
        u = np.array([[0.05]])
        expected = 0.4 + 0.7 * (s_t * (0.2 - 0.7 * 0.4) - 0.05) / q_f
        out = ct_x_update(p, pre, x, y, u)
        assert out[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_subproblem_oracle(self, small_ct):
        # solve (H_f + A'SA) x = H_f x_t + A'S y - A'u densely, H_f from the factor
        _, model, _, active, _ = small_ct
        n_m = 2
        pre = R.build_preconditioners(active, sigma=2.5)
        _, sigma_tilde = pre
        rng = np.random.default_rng(8)
        x_t = rng.standard_normal((active.cols, n_m))
        y = rng.standard_normal((active.rows, n_m))
        u = rng.standard_normal((active.rows, n_m))
        factor = stepsize_matrix_factor(active, pre)  # Q_f - P'SP
        h_f = np.kron(factor, np.eye(n_m))
        a = np.kron(dense(active), np.eye(n_m))
        s = np.kron(np.diag(sigma_tilde), np.eye(n_m))
        lhs = h_f + a.T @ s @ a
        rhs = h_f @ x_t.ravel() + a.T @ s @ y.ravel() - a.T @ u.ravel()
        ref = np.linalg.solve(lhs, rhs).reshape(active.cols, n_m)
        out = ct_x_update(active, pre, x_t, y, u)
        assert np.abs(out - ref).max() <= 1e-10


class TestNewtonSolve:
    def test_quadratic_branch_converges_in_one_step(self):
        # keep every iterate in the polynomial branch: exact Newton on a quadratic
        rng = np.random.default_rng(2)
        model = random_ray_model(rng, n_i=4, n_m=2)
        n_rays = 6
        sigma_diag = rng.uniform(0.5, 2.0, n_rays)
        center = -5.0 + rng.standard_normal((n_rays, 2))  # deep in v <= 0
        v_star = center + 0.3 * rng.standard_normal((n_rays, 2)) - 0.3
        lin = -subproblem_gradient(model, 0.0, center, sigma_diag, v_star)
        one = R.newton_ray_solve(ray_loss(model, n_rays), lin, center, sigma_diag, iters=1)
        grad = subproblem_gradient(model, lin, center, sigma_diag, one)
        assert np.abs(grad).max() <= 1e-9
        assert np.abs(one - v_star).max() <= 1e-9

    def test_random_instances_gradient_below_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_i = int(rng.integers(1, 8))
            n_m = int(rng.integers(1, 4))
            model = random_ray_model(rng, n_i, n_m)
            n_rays = 4
            sigma_diag = rng.uniform(0.05, 5.0, n_rays)
            v_star = rng.uniform(-0.5, 2.0, (n_rays, n_m))
            center = v_star + rng.uniform(-0.4, 0.4, (n_rays, n_m))
            lin = -subproblem_gradient(model, 0.0, center, sigma_diag, v_star)
            sol = R.newton_ray_solve(ray_loss(model, n_rays), lin, center, sigma_diag, iters=10)
            grad = subproblem_gradient(model, lin, center, sigma_diag, sol)
            assert np.abs(grad).max() <= 1e-8

    def test_monotone_objective_over_steps(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_i = int(rng.integers(1, 8))
            n_m = int(rng.integers(1, 4))
            model = random_ray_model(rng, n_i, n_m)
            n_rays = 4
            sigma_diag = rng.uniform(0.05, 5.0, n_rays)
            v_star = rng.uniform(-0.5, 2.0, (n_rays, n_m))
            center = v_star + rng.uniform(-0.2, 0.2, (n_rays, n_m))
            lin = -subproblem_gradient(model, 0.0, center, sigma_diag, v_star)
            v = center.copy()
            prev = ray_subproblem_objective(model, lin, center, sigma_diag, v)
            for _ in range(10):
                v = R.newton_ray_solve(
                    ray_loss(model, n_rays), lin, center, sigma_diag, iters=1, start=v
                )
                vals = ray_subproblem_objective(model, lin, center, sigma_diag, v)
                assert np.all(vals <= prev + 1e-12 * np.maximum(1.0, np.abs(prev)))
                prev = vals

    def test_single_material_matches_bisection_oracle(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_i = int(rng.integers(1, 6))
            model = random_ray_model(rng, n_i, 1)
            sigma = float(rng.uniform(0.2, 4.0))
            center = rng.uniform(-1.0, 2.0)
            v_star = center + rng.uniform(-0.3, 0.3)
            lin = -subproblem_gradient(
                model, 0.0, np.array([[center]]), np.array([sigma]), np.array([[v_star]])
            )
            got = R.newton_ray_solve(
                ray_loss(model, 1), lin, np.array([[center]]), np.array([sigma]), iters=10
            )[0, 0]

            def deriv(v):
                g = subproblem_gradient(
                    model, lin, np.array([[center]]), np.array([sigma]), np.array([[v]])
                )
                return float(g[0, 0])

            ref = bisect_min(deriv, center - 5.0, center + 5.0)
            assert abs(got - ref) <= 1e-8

        # Ray counts at the edges of the blocks, at 100 energies, against the
        # same bisection run on every ray at once. Every seventh ray starts
        # away from its minimizer; the rest settle in the first step, so from
        # the second step on fewer rays than one block are moving.
        counting = CountingSlopes(monkeypatch)
        model = random_ray_model(rng, 100, 1)
        n_block = F.BLOCK_ELEMENTS // model.n_energies
        for n_rays in block_edge_ray_counts(model.n_energies):
            sigma = rng.uniform(0.2, 4.0, n_rays)
            center = rng.uniform(-1.0, 2.0, (n_rays, 1))
            v_star = center + rng.uniform(-0.3, 0.3, (n_rays, 1))
            lin = -subproblem_gradient(model, 0.0, center, sigma, v_star)
            start = np.where(np.arange(n_rays)[:, None] % 7 == 0, center, v_star)
            counting.rows.clear()
            got = R.newton_ray_solve(ray_loss(model, n_rays), lin, center, sigma, 10, start)
            lo, hi = center[:, 0] - 5.0, center[:, 0] + 5.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                up = subproblem_gradient(model, lin, center, sigma, mid[:, None])[:, 0] >= 0
                lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
            assert np.abs(got[:, 0] - 0.5 * (lo + hi)).max() <= 1e-8
            blocks = F.ray_blocks(n_rays, model.n_energies)
            assert counting.rows[: len(blocks)] == [b.stop - b.start for b in blocks]
            if n_rays > n_block:
                assert 0 < max(counting.rows[len(blocks):]) < n_block


class TestSpdSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lapack_solve(self, n):
        rng = np.random.default_rng(40 + n)
        n_sys = 300
        # PSD blocks of every rank from 0 to n (as mu diag(d2) mu' can be
        # near singular) and entries spanning six decades, shifted by 1e-8..1e3.
        factors = rng.standard_normal((n_sys, n, n)) * 10.0 ** rng.uniform(-3, 3, (n_sys, 1, 1))
        rank = rng.integers(0, n + 1, n_sys)
        factors *= (np.arange(n) < rank[:, None])[:, None, :]
        hess = factors @ factors.transpose(0, 2, 1)
        shift = 10.0 ** rng.uniform(-8, 3, n_sys)
        rhs = rng.standard_normal((n, n_sys))
        lower = np.stack([hess[:, i, j] for i in range(n) for j in range(i + 1)])
        got = R.spd_solve(lower, shift, rhs)
        full = hess + shift[:, None, None] * np.eye(n)
        ref = np.linalg.solve(full, rhs.T[..., None])[..., 0].T
        cond = np.linalg.cond(full)
        err = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
        assert np.all(err <= 1e-12 * cond)
        assert n == 1 or cond.max() > 1e6  # the batch reaches ill-conditioned blocks

    def test_indefinite_block_gives_non_finite_column(self):
        lower = np.array([[1.0, 1.0], [2.0, 0.5], [1.0, 2.0]])  # [[1,2],[2,1]], [[1,.5],[.5,2]]
        with np.errstate(invalid="ignore"):
            got = R.spd_solve(lower, np.zeros(2), np.ones((2, 2)))
        assert not np.isfinite(got[:, 0]).any()
        assert np.allclose(got[:, 1], np.linalg.solve([[1.0, 0.5], [0.5, 2.0]], [1.0, 1.0]))


def mixed_ray_batch(seed, n_rays=200):
    """Rays starting at their minimizer (one step settles them) next to rays
    starting 3 to 30 away from the center (some still move after ten steps),
    each ray with its own penalty weight sigma_diag."""
    rng = np.random.default_rng(seed)
    n_m = int(rng.integers(1, 4))
    model = random_ray_model(rng, int(rng.integers(2, 8)), n_m)
    sigma_diag = rng.uniform(0.05, 5.0, n_rays)
    v_star = rng.uniform(-0.5, 2.0, (n_rays, n_m))
    center = v_star + rng.uniform(-0.4, 0.4, (n_rays, n_m))
    lin = -subproblem_gradient(model, 0.0, center, sigma_diag, v_star)
    half = n_rays // 2
    far = rng.uniform(3.0, 30.0, (n_rays - half, n_m)) * rng.choice([-1.0, 1.0], (n_rays - half, n_m))
    start = np.concatenate([v_star[:half], center[half:] + far])
    return model, lin, center, sigma_diag, start


class CountingSlopes:
    """Stands in for qexp_slopes in `module` (ct.recon) and records the rays of each call."""

    def __init__(self, monkeypatch, module=R):
        self.rows = []
        self._real = module.qexp_slopes
        monkeypatch.setattr(module, "qexp_slopes", self)

    def __call__(self, t, out=None):
        self.rows.append(t.shape[0])
        return self._real(t, out)


class TestAdaptiveNewton:
    def test_matches_fixed_budget(self, monkeypatch):
        counting = CountingSlopes(monkeypatch)
        full_budget = 0
        for seed in range(10, 30):
            model, lin, center, sigma_diag, start = mixed_ray_batch(seed)
            counting.rows.clear()
            got = R.newton_ray_solve(
                ray_loss(model, len(center)), lin, center, sigma_diag, iters=10, start=start
            )
            ref = newton_ray_solve_fixed(model, lin, center, sigma_diag, iters=10, start=start)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert counting.rows[1] <= 100  # the rays started at their minimizer stopped
            full_budget += len(counting.rows) == 10
        assert full_budget >= 10  # batches where some rays took all ten steps

    def test_predictive_stop_matches_step_size_stop(self, monkeypatch):
        counting = CountingSlopes(monkeypatch)
        plain_counting = CountingSlopes(monkeypatch, _oracles)
        saved = 0
        for seed in range(10, 30):
            model, lin, center, sigma_diag, start = mixed_ray_batch(seed)
            counting.rows.clear()
            plain_counting.rows.clear()
            got = R.newton_ray_solve(
                ray_loss(model, len(center)), lin, center, sigma_diag, iters=10, start=start
            )
            ref = newton_ray_solve_plain(model, lin, center, sigma_diag, iters=10, start=start)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            # One entry may differ by more: a ray whose plain loop takes one
            # more step at its rounding floor (seed 29 has one, ~5e-13).
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert sum(counting.rows) <= sum(plain_counting.rows)
            saved += sum(plain_counting.rows) - sum(counting.rows)
        assert saved > 0

    def test_stopped_ray_is_frozen(self):
        model, lin, center, sigma_diag, start = mixed_ray_batch(10)
        runs = [
            R.newton_ray_solve(
                ray_loss(model, len(center)), lin, center, sigma_diag, iters=k, start=start
            )
            for k in range(13)
        ]
        stopped_at_some_k = 0
        for k in range(1, 12):
            # the k-th step was below the tolerance (with a margin for rounding)
            stopped = np.abs(runs[k] - runs[k - 1]).max(axis=1) <= (
                0.5 * R.NEWTON_STEP_TOL * (1.0 + np.abs(runs[k]).max(axis=1))
            )
            for later in runs[k + 1:]:
                assert later[stopped].tobytes() == runs[k][stopped].tobytes()
            stopped_at_some_k += int(stopped.sum())
        moving_at_last = int((runs[12] != runs[11]).any(axis=1).sum())
        assert stopped_at_some_k > 0 and moving_at_last > 0

    def test_warm_started_rays_settle_in_few_steps(self, small_ct, monkeypatch):
        # From outer iteration 10 on the warm start is close: about 3 steps per ray.
        _, model, _, active, counts = small_ct
        counting = CountingSlopes(monkeypatch)
        problem, *_ = R.build_ct_problem(model, active, counts, sigma=10.0)
        state = engine.AdmmState.initial(
            np.zeros(problem.x_shape), np.zeros(problem.y_shape), np.zeros(problem.y_shape)
        )
        for t in range(1, 31):
            counting.rows.clear()
            state = engine.admm_step(problem, state)
            if t >= 10:
                assert sum(counting.rows) <= 4 * active.rows


    @pytest.mark.parametrize("sigma", [1.0, 10.0, 100.0])
    def test_first_solve_meets_prox_contract_at_paper_geometry(self, sigma):
        # The y step of t=1 starts every ray from y=0, the farthest start of a run.
        geom = F.CtGeometry()
        model = F.build_spectral_model()
        projector = F.build_projector(geom)
        counts = F.forward_counts(model, projector, F.default_phantom(geom), seed=20240801)
        mask = R.active_ray_mask(projector)
        active = projector.select_rows(mask)
        problem, _ = R.build_ct_problem(model, active, counts[:, mask], sigma)
        solves = []
        prox = problem.g.prox_step

        def recording_prox(lin, D, center):
            solves.append((lin, center, prox(lin, D, center)))
            return solves[-1][-1]

        problem.g.prox_step = recording_prox
        engine.admm_step(
            problem,
            engine.AdmmState.initial(
                np.zeros(problem.x_shape), np.zeros(problem.y_shape), np.zeros(problem.y_shape)
            ),
            record_time=False,
        )
        lin, center, v = solves[0]
        _, sigma_tilde = R.build_preconditioners(active, sigma)
        grad = subproblem_gradient(model, lin, center, sigma_tilde, v)
        # CompositeObjective.prox_step: first-order residual <= 1e-8 on every ray.
        assert np.abs(grad).max() <= 1e-8


def loss_and_newton_inputs(small_ct, seed=4):
    """small_ct's loss evaluator and a y step at a random y with its Newton inputs."""
    _, model, _, active, counts = small_ct
    rng = np.random.default_rng(seed)
    y = 0.2 * rng.standard_normal((active.rows, model.n_materials))
    lin = rng.standard_normal(y.shape)
    _, sigma_diag = R.build_preconditioners(active, sigma=2.0)
    return model, F.CtLoss(model, counts), y, lin, sigma_diag


class TestLossEvaluator:
    def test_step_allocates_no_rays_by_energies_array(self, small_ct):
        # small_ct's rays at the paper's 100 energies: at 25, one (rays x
        # energies) array weighs less than the per-ray temporaries of Newton.
        _, _, _, active, counts = small_ct
        model = F.build_spectral_model(n_energies=100)
        problem, *_ = R.build_ct_problem(model, active, counts, sigma=10.0)
        state = engine.AdmmState.initial(
            np.zeros(problem.x_shape), np.zeros(problem.y_shape), np.zeros(problem.y_shape)
        )
        for _ in range(3):
            state = engine.admm_step(problem, state, record_time=False)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            engine.admm_step(problem, state, record_time=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < active.rows * model.n_energies * 8

    def test_evaluator_holds_three_rays_by_energies_arrays(self, small_ct):
        # Three scratch arrays of one block of rays each: all small_ct's rays,
        # or 256 of 2B + 3 at the paper's 100 energies.
        model = F.build_spectral_model(n_energies=100)
        n_block = F.BLOCK_ELEMENTS // model.n_energies
        for counts in (small_ct[4], np.ones((model.n_windows, 2 * n_block + 3))):
            n_rays = counts.shape[1]
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                loss = F.CtLoss(model, counts)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            scratch = min(n_rays, n_block) * model.n_energies * 8
            # The slack covers counts, the attenuation rows and the held
            # point, about 17 KB for small_ct, but not a fourth 48 KB scratch
            # array there; at 2B + 3 rays the held point grows to 12 KB, and
            # one array over all rays would add 412 KB.
            assert peak - base <= 3 * scratch + 24_000 + loss._at.nbytes
            assert loss.t.nbytes == loss.d1.nbytes == loss.w.nbytes == scratch

    def test_evaluations_allocate_less_than_one_block(self):
        # 2B + 3 rays at the paper's 100 energies. A loss pass allocates its
        # per-ray rows and sums, about 110 KB with the gradient, under the
        # 205 KB of one block of (rays x energies); a Newton solve, whose
        # per-ray temporaries take about 200 KB, stays under one 412 KB array
        # over all rays by the energies.
        paper = F.build_spectral_model()
        n_rays = block_edge_ray_counts(paper.n_energies)[-1]
        rng = np.random.default_rng(24)
        loss = F.CtLoss(paper, poisson_counts(paper, n_rays, rng))
        y = 0.2 * rng.standard_normal((n_rays, paper.n_materials))
        lin = rng.standard_normal(y.shape)
        sigma_diag = rng.uniform(0.5, 5.0, n_rays)
        block, whole = F.BLOCK_ELEMENTS * 8, n_rays * paper.n_energies * 8
        calls = [
            (block, lambda: loss.parts(y, want_grad=False)),
            (block, lambda: loss.parts(1.5 * y)),
            (whole, lambda: R.newton_ray_solve(loss, lin, 1.5 * y, sigma_diag)),  # held rows
            (whole, lambda: R.newton_ray_solve(loss, lin, y, sigma_diag)),
        ]
        for bound, call in calls:
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - base < bound

    def test_parts_match_the_fresh_array_oracle(self, small_ct):
        model, loss, y, _, _ = loss_and_newton_inputs(small_ct)
        cases = [(model, loss, small_ct[4], y)]
        # Ray counts at the edges of the blocks, at the paper's 100 energies.
        paper = F.build_spectral_model()
        rng = np.random.default_rng(21)
        for n_rays in block_edge_ray_counts(paper.n_energies):
            counts = poisson_counts(paper, n_rays, rng)
            y = 0.2 * rng.standard_normal((n_rays, paper.n_materials))
            cases.append((paper, F.CtLoss(paper, counts), counts, y))
        # Blocks sum their energy contractions in another order than whole
        # arrays: each sums n_i nonnegative terms, so within n_i ulps.
        rtol = 2 * paper.n_energies * np.finfo(float).eps
        for model, loss, counts, y in cases:
            # Both signs of t = -mu.y, and a point where t > 0 on most entries.
            for point in (y, np.zeros_like(y), -5.0 * np.abs(y), 3.0 * y):
                got = loss.parts(point)
                held = loss.held_rows(point)
                ref, hess = ct_loss_parts_fresh(model, point, counts)
                assert (got.g_c, got.g_d) == (ref.g_c, ref.g_d)
                assert got.grad_c.tobytes() == ref.grad_c.tobytes()
                assert got.grad_d.tobytes() == ref.grad_d.tobytes()
                assert held[0].tobytes() == ref.grad_c.tobytes()
                assert held[1].tobytes() == hess.tobytes()
                whole, whole_hess = ct_loss_parts_fresh(model, point, counts, [slice(None)])
                assert got.g_c == whole.g_c
                assert got.g_d == pytest.approx(whole.g_d, rel=rtol)
                np.testing.assert_allclose(got.grad_c, whole.grad_c, rtol=rtol, atol=0)
                np.testing.assert_allclose(got.grad_d, whole.grad_d, rtol=rtol, atol=0)
                np.testing.assert_allclose(held[1], whole_hess, rtol=rtol, atol=0)
                # A value-only pass holds nothing.
                loss.parts(point, want_grad=False)
                assert loss.held_rows(point) is None

    def test_failed_evaluation_holds_no_point(self):
        # One ray of the last block so far along that exp(-mu.y) underflows
        # to 0 at every energy: its window means are exactly 0.
        paper = F.build_spectral_model()
        n_rays = block_edge_ray_counts(paper.n_energies)[-1]
        rng = np.random.default_rng(22)
        counts = poisson_counts(paper, n_rays, rng)
        loss = F.CtLoss(paper, counts)
        y = 0.2 * rng.standard_normal((n_rays, paper.n_materials))
        bad = y.copy()
        bad[-1] = 1e4
        for want_grad in (True, False):
            loss.parts(y)
            assert loss.held_rows(y) is not None
            with pytest.raises(ValueError, match="nonpositive window mean"):
                loss.parts(bad, want_grad)
            assert loss.held_rows(bad) is None
            assert loss.held_rows(y) is None  # the failed evaluation was the last
        lin = rng.standard_normal(y.shape)
        sigma_diag = rng.uniform(0.5, 5.0, n_rays)
        got = R.newton_ray_solve(loss, lin, bad, sigma_diag)
        fresh = R.newton_ray_solve(ray_loss(paper, n_rays), lin, bad, sigma_diag)
        assert got.tobytes() == fresh.tobytes()
        ref = F.ct_loss_parts(paper, y, counts)
        again = loss.parts(y)
        assert (again.g_c, again.g_d) == (ref.g_c, ref.g_d)
        assert again.grad_d.tobytes() == ref.grad_d.tobytes()

    def test_parts_match_a_fresh_evaluator_at_every_point(self, small_ct):
        model, loss, y, _, _ = loss_and_newton_inputs(small_ct)
        counts = small_ct[4]
        for point in (y, y, np.zeros_like(y), y):
            for want_grad in (True, False):
                got = loss.parts(point, want_grad)
                ref = F.ct_loss_parts(model, point.copy(), counts, want_grad)
                assert (got.g_c, got.g_d) == (ref.g_c, ref.g_d)
                if want_grad:
                    assert got.grad_c.tobytes() == ref.grad_c.tobytes()
                    assert got.grad_d.tobytes() == ref.grad_d.tobytes()

    def test_gradient_is_the_parts_gradient_and_holds_no_point(self, small_ct):
        model, loss, y, _, _ = loss_and_newton_inputs(small_ct)
        counts = small_ct[4]
        for point in (y, np.zeros_like(y), -5.0 * np.abs(y)):
            loss.parts(y)
            got = loss.gradient(point)
            ref = F.ct_loss_parts(model, point.copy(), counts).grad
            assert got.tobytes() == ref.tobytes()
            assert loss.held_rows(point) is None and loss.held_rows(y) is None
        with pytest.raises(ValueError, match="y must be"):
            loss.gradient(y[:-1])

    def test_newton_reusing_held_rows_matches_fresh_rows(self, small_ct, monkeypatch):
        counting = CountingSlopes(monkeypatch)
        cases = [loss_and_newton_inputs(small_ct)]
        # 2B + 3 rays at the paper's 100 energies: the held rows of three blocks.
        paper = F.build_spectral_model()
        n_rays = block_edge_ray_counts(paper.n_energies)[-1]
        rng = np.random.default_rng(23)
        loss = F.CtLoss(paper, poisson_counts(paper, n_rays, rng))
        y = 0.2 * rng.standard_normal((n_rays, paper.n_materials))
        cases.append((paper, loss, y, rng.standard_normal(y.shape), rng.uniform(0.5, 5.0, n_rays)))
        for model, loss, y, lin, sigma_diag in cases:
            counting.rows.clear()
            fresh = R.newton_ray_solve(ray_loss(model, len(y)), lin, y, sigma_diag)
            fresh_calls = len(counting.rows)
            parts = loss.parts(y)
            held = [a.tobytes() for a in loss.held_rows(y)]
            counting.rows.clear()
            reused = R.newton_ray_solve(loss, lin, y.copy(), sigma_diag)
            assert reused.tobytes() == fresh.tobytes()
            # the first step took the held rows and formed no slopes
            assert len(counting.rows) == fresh_calls - len(F.ray_blocks(len(y), model.n_energies))
            # Newton wrote to neither the held rows nor the parts
            assert [a.tobytes() for a in loss.held_rows(y)] == held
            assert loss.parts(y) is parts and parts.grad_c.tobytes() == held[0]

    def test_changed_y_never_gets_stale_rows(self, small_ct):
        model, loss, y, lin, sigma_diag = loss_and_newton_inputs(small_ct)
        counts = small_ct[4]
        moved = y.copy()
        moved[5, 1] += 1e-12
        loss.parts(y)
        assert loss.held_rows(moved) is None
        got = R.newton_ray_solve(loss, lin, moved, sigma_diag)
        fresh = R.newton_ray_solve(ray_loss(model, len(moved)), lin, moved, sigma_diag)
        assert got.tobytes() == fresh.tobytes()
        # A y changed in place after its evaluation is a new point too.
        loss.parts(y)
        y[0, 0] += 0.25
        assert loss.held_rows(y) is None
        assert loss.parts(y).grad_d.tobytes() == F.ct_loss_parts(model, y, counts).grad_d.tobytes()

    def test_column_max_stop_matches_row_max(self):
        rng = np.random.default_rng(8)
        for n_m in (1, 2, 3, 5):
            step = rng.standard_normal((n_m, 300)) * 10.0 ** rng.integers(-30, 30, (n_m, 300))
            step[:, :4] = 0.0
            step[0, :2] = -0.0
            step[-1, 10] = np.inf
            step[0, 11] = -np.inf
            step[-1, 12] = np.nan
            rows = np.ascontiguousarray(step.T)  # the (ray, entry) layout of the row-max rule
            assert R._max_abs(step).tobytes() == np.abs(rows).max(axis=1).tobytes()


class TestYUpdateAndDual:
    def test_u_update_no_motion_when_feasible(self, small_ct):
        _, model, phantom, active, _ = small_ct
        pre = R.build_preconditioners(active, sigma=1.0)
        proj = active.matmat(phantom)
        u = np.full_like(proj, 0.3)
        assert np.array_equal(ct_u_update(pre, proj, proj, u), u)

    def test_dual_identity_over_specialized_run(self, small_ct):
        _, model, phantom, active, counts = small_ct
        _, sigma_tilde = R.build_preconditioners(active, sigma=2.0)
        iterates = run_ct_specialized(model, active, counts, sigma=2.0, iters=8)
        u_prev = np.zeros((active.rows, model.n_materials))
        for x, y, u in iterates:
            expected = u_prev + sigma_tilde[:, None] * (active.matmat(x) - y)
            assert np.array_equal(u, expected)
            u_prev = u

    def test_y_update_first_order_optimality(self, small_ct):
        _, model, phantom, active, counts = small_ct
        pre = R.build_preconditioners(active, sigma=2.0)
        _, sigma_tilde = pre
        rng = np.random.default_rng(6)
        y = 0.2 * rng.standard_normal((active.rows, model.n_materials))
        x = 0.1 * rng.standard_normal((active.cols, model.n_materials))
        u = 0.05 * rng.standard_normal((active.rows, model.n_materials))
        proj = active.matmat(x)
        out = ct_y_update(model, counts, pre, proj, y, u, newton_iters=30)
        grad_d = F.ct_loss_parts(model, y, counts).grad_d
        lin = grad_d - u - sigma_tilde[:, None] * (proj - y)
        grad = subproblem_gradient(model, lin, y, sigma_tilde, out)
        assert np.abs(grad).max() <= 1e-8


class TestEngineEquivalence:
    def test_specialized_matches_engine_ten_iters(self, small_ct):
        _, model, phantom, active, counts = small_ct
        sigma = 10.0
        specialized = run_ct_specialized(model, active, counts, sigma=sigma, iters=10)
        problem, *_ = R.build_ct_problem(model, active, counts, sigma=sigma)
        state = engine.AdmmState.initial(
            np.zeros(problem.x_shape), np.zeros(problem.y_shape), np.zeros(problem.y_shape)
        )
        for xs, ys, us in specialized:
            state = engine.admm_step(problem, state)
            assert np.abs(state.x - xs).max() <= 1e-8
            assert np.abs(state.y - ys).max() <= 1e-8
            assert np.abs(state.u - us).max() <= 1e-8


    def test_lean_step_matches_reference_step_bitwise(self, small_ct):
        _, model, _, active, counts = small_ct
        problem, *_ = R.build_ct_problem(model, active, counts, sigma=10.0)
        zeros = (np.zeros(problem.x_shape), np.zeros(problem.y_shape), np.zeros(problem.y_shape))
        lean = engine.AdmmState.initial(*zeros)
        ref = engine.AdmmState.initial(*zeros)
        for _ in range(15):
            lean = engine.admm_step(problem, lean, record_time=False)
            ref = admm_step_reference(problem, ref, record_time=False)
        for v in ("x", "y", "u", "ax", "x_bar"):
            assert np.array_equal(getattr(lean, v), getattr(ref, v)), v
        assert [(r.objective, r.primal_residual) for r in lean.trace] == [
            (r.objective, r.primal_residual) for r in ref.trace
        ]


    def test_matrix_iterates_match_the_flat_wiring_bitwise(self, small_ct):
        # The oracle wires the same problem on flattened variables: a Kronecker
        # map, diagonals repeated over the materials, callbacks that reshape.
        _, model, phantom, active, counts = small_ct
        y_star = active.matmat(phantom)
        result, newton = R.run_ct_reconstruction(
            model, active, counts, sigma=10.0, iters=15, y_star=y_star, record_time=False
        )
        flat, flat_newton = run_ct_reconstruction_flat(
            model, active, counts, sigma=10.0, iters=15, y_star=y_star
        )
        n_m = model.n_materials
        pairs = [
            (getattr(result.state, v), getattr(flat.state, v)) for v in ("x", "y", "u", "ax")
        ] + [(result.x_bar, flat.x_bar)]
        for got, ref in pairs:
            assert got.shape[1:] == (n_m,)
            assert got.tobytes() == ref.reshape(got.shape).tobytes()
        assert [(r.objective, r.primal_residual, r.alpha_t) for r in result.trace] == [
            (r.objective, r.primal_residual, r.alpha_t) for r in flat.trace
        ]
        assert newton == flat_newton


class TestDiagnostics:
    def test_alpha_ratio_quadratic_case(self):
        # grad g(y) = y, y* = 0, feasible pair: the ratio is exactly one
        rng = np.random.default_rng(7)
        y = rng.standard_normal((5, 2))
        out = R.alpha_ratio(y, np.zeros_like(y), y, np.zeros_like(y), penalty=0.0)
        assert out == 1.0

    def test_alpha_ratio_skip_sentinel(self):
        y = np.ones((3, 2))
        assert R.alpha_ratio(y, y, y, y, penalty=0.5) is None

    def test_alpha_positive_along_run(self, small_ct):
        _, model, phantom, active, counts = small_ct
        y_star = active.matmat(phantom)
        res, _ = R.run_ct_reconstruction(
            model, active, counts, sigma=5.0, iters=15, y_star=y_star, record_time=False
        )
        alphas = [r.alpha_t for r in res.trace]
        assert all(a is not None and np.isfinite(a) for a in alphas)
        assert min(alphas) > 0

    def test_alpha_hook_gradient_reuse_keeps_run_bitwise(self, small_ct):
        # With the alpha hook the next step reuses its gradient at y_{t+1}.
        _, model, phantom, active, counts = small_ct
        problem, _ = R.build_ct_problem(model, active, counts, sigma=5.0)
        plain = engine.run(problem, iters=15, record_time=False)
        with_alpha, _ = R.run_ct_reconstruction(
            model, active, counts, sigma=5.0, iters=15, y_star=active.matmat(phantom),
            record_time=False,
        )
        for v in ("x", "y", "u"):
            assert np.array_equal(getattr(plain.state, v), getattr(with_alpha.state, v))
        assert [r.objective for r in plain.trace] == [r.objective for r in with_alpha.trace]

    def test_fosp_zero_for_exact_single_bin_counts(self):
        rng = np.random.default_rng(9)
        model = random_ray_model(rng, n_i=1, n_m=2)
        y_star = rng.uniform(0.1, 1.0, (6, 2))
        means = F.ct_loss_parts(model, y_star, np.zeros((1, 6)), want_grad=False)
        # recompute window means directly
        val, _, _ = qexp(-(y_star @ model.mu))
        counts = (model.response @ val.T)
        assert R.fosp_ratio(model, counts, y_star) == pytest.approx(0.0, abs=1e-14)

    def test_fosp_undefined_when_grad_zero(self):
        rng = np.random.default_rng(10)
        model = random_ray_model(rng, n_i=1, n_m=1)
        y_star = np.zeros((4, 1))
        counts = np.tile(model.response.sum(axis=1)[:, None], (1, 4))
        with pytest.raises(ValueError, match="ratio undefined"):
            R.fosp_ratio(model, counts, y_star)


class TestExperimentRunner:
    def test_smoke_outputs_and_determinism(self, tmp_path):
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        model = F.build_spectral_model(n_energies=20)
        phantom = F.default_phantom(geom)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        for out in (out1, out2):
            summary = R.run_ct_experiment(
                geom, model, phantom, sigma_list=[2.0, 20.0], iters=6, seed=13,
                out_dir=out, record_time=False,
            )
        assert np.isfinite(summary["fosp_ratio"])
        assert summary["active_rays"] > 0
        for sigma in (2.0, 20.0):
            records, _ = load_trace(out1 / R.trace_filename(sigma))
            assert len(records) == 6
            assert all(r.alpha_t is not None for r in records)
            for name in model.materials:
                assert (out1 / f"ct_sigma{sigma:g}_{name}.txt").exists()
                assert (out1 / f"ct_sigma{sigma:g}_{name}.pgm").exists()
            b1 = (out1 / R.trace_filename(sigma)).read_bytes()
            b2 = (out2 / R.trace_filename(sigma)).read_bytes()
            assert b1 == b2

    def test_sigmas_sharing_an_output_name_rejected_before_any_solve(self, tmp_path, monkeypatch):
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        model = F.build_spectral_model(n_energies=20)
        monkeypatch.setattr(F, "build_projector", None)  # set-up must not start
        with pytest.raises(ValueError, match="share the output name sigma1"):
            R.run_ct_experiment(
                geom, model, F.default_phantom(geom), sigma_list=[1.0, 1.0000001], iters=2,
                seed=13, out_dir=tmp_path,
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["ct_sigma2.csv", "ct_sigma2_gadolinium.pgm"])
    def test_directory_at_an_output_path_rejected_before_any_set_up(
        self, tmp_path, monkeypatch, blocked
    ):
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        model = F.build_spectral_model(n_energies=20)
        monkeypatch.setattr(F, "build_projector", None)  # set-up must not start
        (tmp_path / blocked).mkdir()
        with pytest.raises(IsADirectoryError) as info:
            R.run_ct_experiment(
                geom, model, F.default_phantom(geom), sigma_list=[1.0, 2.0], iters=2,
                seed=13, out_dir=str(tmp_path),
            )
        assert info.value.filename == str(tmp_path / blocked)
        assert [p.name for p in tmp_path.iterdir()] == [blocked]
        # an out_dir that is missing, or is a file, fails as the first write would
        (tmp_path / "file").write_text("")
        for out, error in (("missing", FileNotFoundError), ("file", NotADirectoryError)):
            with pytest.raises(error) as info:
                R.run_ct_experiment(
                    geom, model, F.default_phantom(geom), sigma_list=[1.0], iters=2,
                    seed=13, out_dir=str(tmp_path / out),
                )
            assert info.value.filename == str(tmp_path / out / R.trace_filename(1.0))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([blocked, "file"])

    def test_failed_step_leaves_rows_of_completed_steps(self, tmp_path, monkeypatch):
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        model = F.build_spectral_model(n_energies=20)
        phantom = F.default_phantom(geom)
        whole, partial = tmp_path / "whole", tmp_path / "partial"
        for out in (whole, partial):
            out.mkdir()
        kwargs = dict(sigma_list=[2.0, 20.0], iters=8, seed=13, record_time=False)
        R.run_ct_experiment(geom, model, phantom, out_dir=whole, **kwargs)
        real, calls = R.newton_ray_solve, []

        def fail_on_fifth(*args, **kw):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("Newton diverged")
            return real(*args, **kw)

        monkeypatch.setattr(R, "newton_ray_solve", fail_on_fifth)
        with pytest.raises(engine.AdmmStepError, match="iteration 5: y prox_step failed"):
            R.run_ct_experiment(geom, model, phantom, out_dir=partial, **kwargs)
        rows = (partial / R.trace_filename(2.0)).read_text().splitlines()
        assert len(rows) == 1 + 4
        assert rows == (whole / R.trace_filename(2.0)).read_text().splitlines()[:5]
        assert sorted(p.name for p in partial.iterdir()) == [R.trace_filename(2.0)]

    def test_newton_work_counts(self, small_ct):
        # With a cap of one step every ray is updated once, and the rays not
        # yet converged count as capped.
        model, loss, y, lin, sigma_diag = loss_and_newton_inputs(small_ct)
        R.newton_ray_solve(loss, lin, y, sigma_diag, iters=1)
        assert loss.newton_ray_steps == y.shape[0]
        assert loss.newton_capped > 0
        _, model, phantom, active, counts = small_ct
        _, newton = R.run_ct_reconstruction(
            model, active, counts, sigma=10.0, iters=6, y_star=active.matmat(phantom),
            record_time=False,
        )
        assert newton["newton_ray_steps"] > 6 * active.rows
        assert newton["newton_capped"] == 0

    def test_no_active_ray_is_named(self, monkeypatch):
        # CtGeometry rejects a geometry whose rays all miss the grid; a ray that
        # only grazes the grid's far edge gets no length, which this stands for.
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        model = F.build_spectral_model(n_energies=20)
        monkeypatch.setattr(R, "active_ray_mask", lambda p: np.zeros(p.rows, dtype=bool))
        with pytest.raises(ValueError, match="no ray crosses the grid"):
            R.run_ct_experiment(
                geom, model, F.default_phantom(geom), sigma_list=[2.0], iters=2, seed=1
            )

    def test_loss_decreases(self, tmp_path):
        geom = F.CtGeometry(grid_nx=6, grid_ny=6, pixel_size=0.4, n_angles=8, n_detectors=8)
        model = F.build_spectral_model(n_energies=20)
        phantom = F.default_phantom(geom)
        summary = R.run_ct_experiment(
            geom, model, phantom, sigma_list=[5.0], iters=40, seed=3, record_time=False
        )
        trace = summary["runs"][5.0]["result"].trace
        assert trace[-1].objective < trace[0].objective
