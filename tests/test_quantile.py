import math
from dataclasses import replace

import numpy as np
import pytest

from ncadmm import engine
from ncadmm import quantile as Q
from ncadmm.engine import AdmmState, load_trace
from ncadmm.prox import quantile_loss

from _oracles import (
    quantile_l1_optimum,
    quantile_x_update,
    quantile_y_update,
    stepsize_margin,
    validate_stepsizes,
)


def small_spec(**overrides):
    defaults = dict(d=30, n=60, s_star=3, q=0.5, lam=0.1, beta=0.5, sigma=5e-3, seed=5)
    defaults.update(overrides)
    return Q.QuantileProblemSpec(**defaults)


class TestGenerateDataset:
    def test_signal_pattern(self):
        spec = small_spec(d=4, n=2, s_star=1, seed=0)
        ds = Q.generate_dataset(spec)
        assert np.array_equal(ds.x_true, [1.0, 0.0, 0.0, 0.0])

    def test_same_seed_identical(self):
        spec = small_spec()
        d1, d2 = Q.generate_dataset(spec), Q.generate_dataset(spec)
        assert np.array_equal(d1.phi, d2.phi)
        assert np.array_equal(d1.w, d2.w)

    def test_different_seed_differs(self):
        d1 = Q.generate_dataset(small_spec(seed=1))
        d2 = Q.generate_dataset(small_spec(seed=2))
        assert not np.array_equal(d1.phi, d2.phi)

    def test_gaussian_moments(self):
        # 10^6 entries: mean within 4 standard errors of 0, variance of 1
        spec = small_spec(d=1000, n=1000, s_star=10, seed=123)
        ds = Q.generate_dataset(spec)
        entries = ds.phi.ravel()
        assert abs(entries.mean()) <= 4.0 / math.sqrt(entries.size)
        assert abs(entries.var() - 1.0) <= 4.0 * math.sqrt(2.0 / entries.size)

    def test_model_identity(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        z = ds.w - ds.phi @ ds.x_true
        assert np.all(np.isfinite(z))
        assert z.shape == (spec.n,)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            small_spec(q=1.5)
        with pytest.raises(ValueError):
            small_spec(s_star=100, d=10)
        with pytest.raises(ValueError):
            small_spec(sigma=0.0)


class TestObjective:
    def test_true_signal_noise_free_leaves_penalty_only(self):
        spec = small_spec(d=6, n=4, s_star=2)
        rng = np.random.default_rng(9)
        phi = rng.standard_normal((4, 6))
        x_true = np.zeros(6)
        x_true[:2] = 1.0
        ds = Q.QuantileDataset(phi=phi, w=phi @ x_true, x_true=x_true)
        expected = spec.lam * 2 * spec.beta * math.log(1.0 + 1.0 / spec.beta)
        assert Q.quantile_objective(spec, ds, x_true) == pytest.approx(expected, abs=1e-12)

    def test_at_zero(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        expected = np.mean(quantile_loss(ds.w, spec.q))
        assert Q.quantile_objective(spec, ds, np.zeros(spec.d)) == pytest.approx(expected, rel=1e-14)

    def test_matches_reverse_order_reimplementation(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(spec.d)
            got = Q.quantile_objective(spec, ds, x)
            # independent pass: scalar loop, reversed summation order
            total = 0.0
            for i in reversed(range(spec.n)):
                t = ds.w[i] - float(ds.phi[i] @ x)
                total += spec.q * max(t, 0.0) + (1 - spec.q) * max(-t, 0.0)
            total /= spec.n
            for j in reversed(range(spec.d)):
                total += spec.lam * spec.beta * math.log1p(abs(x[j]) / spec.beta)
            assert got == pytest.approx(total, rel=1e-10)


    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    def test_loss_sum_over_n_is_np_mean_bitwise(self, n):
        spec = small_spec(d=20, n=n, s_star=2)
        ds = Q.generate_dataset(spec)
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(spec.d)
            loss = quantile_loss(ds.w - ds.phi @ x, spec.q)
            expected = float(np.mean(loss)) + spec.penalty.value(x)
            assert Q.quantile_objective(spec, ds, x) == expected


def x_subproblem_residual(spec, ds, gamma, x_t, y_t, u_t, x_next):
    """l-inf norm of the minimal subgradient of the x subproblem at x_next."""
    grad_fd = -spec.lam * x_t / (spec.beta + np.abs(x_t))
    v = (
        grad_fd
        + ds.phi.T @ u_t
        + spec.sigma * ds.phi.T @ (ds.phi @ x_next - y_t)
        + spec.sigma * (gamma * (x_next - x_t) - ds.phi.T @ (ds.phi @ (x_next - x_t)))
    )
    res = np.where(
        x_next > 0,
        np.abs(v + spec.lam),
        np.where(x_next < 0, np.abs(v - spec.lam), np.maximum(np.abs(v) - spec.lam, 0.0)),
    )
    return float(res.max())


class TestUpdates:
    def test_x_update_zero_fixed_point(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        out = quantile_x_update(
            spec, ds, np.zeros(spec.d), np.zeros(spec.n), np.zeros(spec.n), gamma=100.0
        )
        assert np.array_equal(out, np.zeros(spec.d))

    def test_scalar_hand_trace(self):
        # d=1, n=1, Phi=(2); trace the closed form by hand
        spec = small_spec(d=1, n=1, s_star=1, sigma=0.5, lam=0.2, beta=1.0)
        ds = Q.QuantileDataset(
            phi=np.array([[2.0]]), w=np.array([1.0]), x_true=np.array([1.0])
        )
        gamma = 5.0
        x, y, u = np.array([0.3]), np.array([0.1]), np.array([0.05])
        resid = 2.0 * 0.3 - 0.1 + 0.05 / 0.5
        x_tilde = 0.3 - 2.0 * resid / gamma + (0.2 / (0.5 * gamma)) * 0.3 / (1.0 + 0.3)
        thresh = 0.2 / (0.5 * gamma)
        expected = math.copysign(max(abs(x_tilde) - thresh, 0.0), x_tilde)
        out = quantile_x_update(spec, ds, x, y, u, gamma)
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_x_update_first_order_optimality(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        gamma = Q.quantile_gamma(ds.phi)
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.standard_normal(spec.d)
            y = rng.standard_normal(spec.n)
            u = 0.01 * rng.standard_normal(spec.n)
            x_next = quantile_x_update(spec, ds, x, y, u, gamma)
            assert x_subproblem_residual(spec, ds, gamma, x, y, u, x_next) <= 1e-8

    def test_y_update_separability(self):
        spec = small_spec(n=3, d=2, s_star=1)
        ds = Q.QuantileDataset(
            phi=np.zeros((3, 2)), w=np.array([0.5, -1.0, 2.0]), x_true=np.zeros(2)
        )
        proj = np.array([0.2, -0.4, 1.9])
        u = np.array([0.01, 0.0, -0.02])
        got = quantile_y_update(spec, ds, proj, u)
        from ncadmm.prox import quantile_prox_update

        for i in range(3):
            scalar = quantile_prox_update(
                ds.w[i], proj[i] + u[i] / spec.sigma, spec.q, spec.n, spec.sigma
            )
            assert got[i] == scalar

    def test_y_update_large_sigma_limit(self):
        spec = small_spec(sigma=1e7)
        ds = Q.generate_dataset(spec)
        proj = np.linspace(-2, 2, spec.n)
        u = np.zeros(spec.n)
        out = quantile_y_update(spec, ds, proj, u)
        bound = max(spec.q, 1 - spec.q) / (spec.n * spec.sigma)
        assert np.abs(out - proj).max() <= bound + 1e-15

    def test_engine_step_matches_closed_forms(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        gamma = Q.quantile_gamma(ds.phi)
        problem = Q.build_problem(spec, ds, gamma=gamma)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(spec.d)
        y = rng.standard_normal(spec.n)
        u = 0.01 * rng.standard_normal(spec.n)
        stepped = engine.admm_step(problem, AdmmState.initial(x, y, u))
        x_ref = quantile_x_update(spec, ds, x, y, u, gamma)
        y_ref = quantile_y_update(spec, ds, ds.phi @ x_ref, u)
        assert np.abs(stepped.x - x_ref).max() <= 1e-12
        assert np.abs(stepped.y - y_ref).max() <= 1e-12
        assert np.abs(stepped.u - (u + spec.sigma * (ds.phi @ x_ref - y_ref))).max() <= 1e-14

    def test_ball_projection_path(self):
        spec = small_spec(radius=0.05)
        ds = Q.generate_dataset(spec)
        gamma = Q.quantile_gamma(ds.phi)
        rng = np.random.default_rng(4)
        out = quantile_x_update(
            spec, ds, rng.standard_normal(spec.d), rng.standard_normal(spec.n),
            np.zeros(spec.n), gamma,
        )
        assert np.linalg.norm(out) <= spec.radius * (1 + 1e-12)


class TestStepsizes:
    def test_margin_positive_after_inflation(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        gamma = Q.quantile_gamma(ds.phi)
        assert stepsize_margin(ds, gamma) > 0

    def test_explicit_stepsize_matrices_validate(self):
        spec = small_spec()
        ds = Q.generate_dataset(spec)
        gamma = Q.quantile_gamma(ds.phi)
        h_f = spec.sigma * (gamma * np.eye(spec.d) - ds.phi.T @ ds.phi)
        lam, beta = spec.lam, spec.beta

        def penalty_hessian(x):
            return np.diag(-lam * beta / (beta + np.abs(x)) ** 2)

        rng = np.random.default_rng(8)
        probes = [rng.standard_normal(spec.d) for _ in range(20)]
        report = validate_stepsizes(
            ds.phi, -np.eye(spec.n), np.full(spec.n, spec.sigma),
            h_f=h_f, hess_f=penalty_hessian, probes_x=probes,
        )
        assert report.ok, report.failures()


class TestConvergence:
    def test_support_recovery_desk_scale(self):
        # 20 seeded repeats; allow at most one miss
        failures = 0
        for seed in range(20):
            spec = Q.QuantileProblemSpec(
                d=200, n=400, s_star=5, q=0.5, lam=0.1, beta=0.5, sigma=1e-3,
                seed=1000 + seed,
            )
            ds = Q.generate_dataset(spec)
            res, _ = Q.run_quantile(spec, ds, iters=500, record_time=False)
            top = set(np.argsort(-np.abs(res.x_bar))[:5].tolist())
            if top != set(range(5)):
                failures += 1
        assert failures <= 1

    def test_average_loss_monotone_trend_desk_scale(self):
        spec = Q.QuantileProblemSpec(
            d=200, n=400, s_star=5, q=0.5, lam=0.1, beta=0.5, sigma=1e-3, seed=1000
        )
        ds = Q.generate_dataset(spec)
        _, avg = Q.run_quantile(spec, ds, iters=500, record_time=False)
        diffs = np.diff(np.array(avg))
        assert int((diffs[99:] > 1e-9).sum()) == 0

    def test_engine_example_reduced_scale_nonincreasing_after_50(self):
        spec = Q.QuantileProblemSpec(
            d=50, n=100, s_star=3, q=0.5, lam=0.1, beta=0.5, sigma=1e-2, seed=11
        )
        ds = Q.generate_dataset(spec)
        _, avg = Q.run_quantile(spec, ds, iters=500, record_time=False)
        diffs = np.diff(np.array(avg))
        assert int((diffs[49:] > 1e-9).sum()) == 0

    def test_convex_l1_limit_matches_lp_oracle(self):
        spec = Q.QuantileProblemSpec(
            d=50, n=100, s_star=3, q=0.5, lam=0.1, beta=math.inf, sigma=2e-3, seed=7
        )
        ds = Q.generate_dataset(spec)
        _, f_opt = quantile_l1_optimum(ds.phi, ds.w, spec.q, spec.lam)
        res, _ = Q.run_quantile(spec, ds, iters=3000, record_time=False)
        f_bar = Q.quantile_objective(spec, ds, res.x_bar)
        assert f_bar >= f_opt - 1e-9  # optimum really is a lower bound
        assert f_bar - f_opt <= 1e-4


class TestSigmaSweepRunner:
    def test_trace_files_shape_and_determinism(self, tmp_path):
        spec = small_spec(d=12, n=20, s_star=2, seed=3)
        sigmas = [5e-3, 1e-2]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        Q.run_sigma_sweep(spec, sigmas, iters=25, out_dir=out1, record_time=False)
        Q.run_sigma_sweep(spec, sigmas, iters=25, out_dir=out2, record_time=False)
        for sigma in sigmas:
            name = Q.trace_filename(sigma)
            p1, p2 = out1 / name, out2 / name
            assert p1.exists()
            records, extras = load_trace(p1)
            assert len(records) == 25
            assert len(extras["objective_avg"]) == 25
            assert p1.read_bytes() == p2.read_bytes()

    def test_average_loss_column_consistent(self, tmp_path):
        spec = small_spec(d=10, n=16, s_star=2, seed=6)
        out = Q.run_sigma_sweep(spec, [5e-3], iters=10, record_time=False)
        entry = out[5e-3]
        res = entry["result"]
        ds = Q.generate_dataset(spec)
        sp = replace(spec, sigma=5e-3)
        expected = Q.quantile_objective(sp, ds, res.x_bar)
        assert entry["objective_avg"][-1] == pytest.approx(expected, rel=1e-12)

    def test_average_loss_matches_objective_at_every_running_average(self):
        # run_quantile forms Phi x_bar_t as the Kahan mean of the Phi x_t.
        spec = small_spec(seed=7)
        ds = Q.generate_dataset(spec)
        _, avg_losses = Q.run_quantile(spec, ds, iters=300, record_time=False)
        x_bars = []
        engine.run(
            Q.build_problem(spec, ds), iters=300, record_time=False,
            iteration_hook=lambda t, state: x_bars.append(state.x_bar),
        )
        expected = [Q.quantile_objective(spec, ds, x_bar) for x_bar in x_bars]
        assert avg_losses == pytest.approx(expected, rel=1e-12, abs=0.0)
