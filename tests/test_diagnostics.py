import tracemalloc

import numpy as np
import pytest

from ncadmm import diagnostics as D
from ncadmm import engine
from ncadmm import quantile as Q
from ncadmm.engine import AdmmProblem, CompositeObjective, DenseMap, quadratic_prox
from ncadmm.numerics import DiagonalMatrix

from _oracles import probe_trajectory_loop, zero_objective


def toy_problem(a):
    n = a.shape[0]
    return AdmmProblem(
        A=DenseMap(a),
        sigma=DiagonalMatrix(np.full(n, 0.5)),
        f=CompositeObjective(prox_step=quadratic_prox),
        g=CompositeObjective(prox_step=quadratic_prox),
        # the probes read only A and Sigma; no step is taken
        D_f=DiagonalMatrix(np.ones(a.shape[1])),
        D_g=DiagonalMatrix(np.ones(n)),
        objective=zero_objective,
    )


class TestRscProbe:
    def test_zero_at_anchor(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        prob = toy_problem(a)
        x_star = rng.standard_normal(4)
        y_star = a @ x_star  # feasible pair
        xi = rng.standard_normal(4)
        zeta = rng.standard_normal(4)
        res = D.rsc_probe(
            prob, lambda x, y: (xi, zeta), x_star, y_star, x_star, y_star, xi, zeta
        )
        assert res.lhs == 0.0
        assert res.penalty == pytest.approx(0.0, abs=1e-24)
        assert res.dist_x == res.dist_y == 0.0

    def test_strongly_convex_lower_bound(self):
        # f(x) = a_f/2 ||x||^2, g(y) = a_g/2 ||y||^2: gradients are linear
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        prob = toy_problem(a)
        a_f, a_g = 0.8, 1.7
        x_star = rng.standard_normal(5)
        y_star = a @ x_star

        def selector(x, y):
            return a_f * x, a_g * y

        xi_star, zeta_star = selector(x_star, y_star)
        for _ in range(25):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            res = D.rsc_probe(prob, selector, x, y, x_star, y_star, xi_star, zeta_star)
            bound = a_f * res.dist_x**2 + a_g * res.dist_y**2
            assert res.lhs >= bound - 1e-10 * max(1.0, bound)

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        prob = toy_problem(a)

        def selector(x, y):
            return np.tanh(x), y**3

        x1, y1 = rng.standard_normal(3), rng.standard_normal(3)
        x2, y2 = rng.standard_normal(3), rng.standard_normal(3)
        xi2, zeta2 = selector(x2, y2)
        xi1, zeta1 = selector(x1, y1)
        fwd = D.rsc_probe(prob, selector, x1, y1, x2, y2, xi2, zeta2)
        rev = D.rsc_probe(prob, selector, x2, y2, x1, y1, xi1, zeta1)
        assert fwd.lhs == pytest.approx(rev.lhs, rel=1e-12)  # bilinear form is symmetric


class TestFospResiduals:
    def test_exact_kkt_triple(self):
        # f(x)=0.5||x||^2, g(y)=0.5||y-b||^2 under y = Ax: solve KKT densely
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        prob = toy_problem(a)
        # stationarity: x + A'u = 0, (y - b) - u = 0, Ax = y
        k = np.block(
            [
                [np.eye(4), np.zeros((4, 4)), a.T],
                [np.zeros((4, 4)), np.eye(4), -np.eye(4)],
                [a, -np.eye(4), np.zeros((4, 4))],
            ]
        )
        rhs = np.concatenate([np.zeros(4), b, np.zeros(4)])
        sol = np.linalg.solve(k, rhs)
        x_star, y_star, u_star = sol[:4], sol[4:8], sol[8:]
        res = D.fosp_residuals(prob, x_star, y_star, u_star, x_star, y_star - b)
        assert res.primal <= 1e-10
        assert res.dual_x <= 1e-10
        assert res.dual_y <= 1e-10

    def test_quantile_star_construction_dual_y_exactly_zero(self):
        spec = Q.QuantileProblemSpec(d=40, n=80, s_star=4, sigma=1e-2, seed=19)
        ds = Q.generate_dataset(spec)
        problem = Q.build_problem(spec, ds)
        xi_star, zeta_star, u_star = Q.star_subgradients(spec, ds)
        res = D.fosp_residuals(problem, ds.x_true, ds.phi @ ds.x_true, u_star, xi_star, zeta_star)
        assert res.dual_y == 0.0
        assert res.primal <= 1e-12
        # dual_x is small but nonzero: the score at the truth
        assert np.isfinite(res.dual_x)

    def test_ct_style_fosp_reduces_to_gradient_norm(self):
        # f = 0 and u* = 0: dual_y is just the gradient norm at y*
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        prob = toy_problem(a)
        grad = rng.standard_normal(4)
        res = D.fosp_residuals(
            prob, np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4), grad
        )
        assert res.dual_x == 0.0
        assert res.dual_y == pytest.approx(np.linalg.norm(grad), rel=1e-15)


class TestTrajectoryReport:
    def test_probe_report_round_trip(self, tmp_path):
        spec = Q.QuantileProblemSpec(d=20, n=40, s_star=2, sigma=5e-3, seed=23)
        ds = Q.generate_dataset(spec)
        problem = Q.build_problem(spec, ds)
        xi_star, zeta_star, _ = Q.star_subgradients(spec, ds)
        selector = Q.subgradient_selector(spec, ds)

        iterates = []
        state = engine.AdmmState.initial(np.zeros(spec.d), np.zeros(spec.n), np.zeros(spec.n))
        for _ in range(20):
            state = engine.admm_step(problem, state)
            iterates.append((state.x, state.y))
        results = D.probe_trajectory(
            problem, selector, iterates, ds.x_true, ds.phi @ ds.x_true, xi_star, zeta_star
        )
        assert len(results) == 20
        assert all(np.isfinite(r.lhs) and r.penalty >= 0 for r in results)
        path = tmp_path / "probe.csv"
        D.write_probe_report(path, results)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,lhs,penalty,slack,dist_x,dist_y"
        assert len(lines) == 21


def quantile_probe_setup(iters):
    spec = Q.QuantileProblemSpec(d=20, n=40, s_star=2, sigma=5e-3, seed=29)
    ds = Q.generate_dataset(spec)
    problem = Q.build_problem(spec, ds)
    xi_star, zeta_star, _ = Q.star_subgradients(spec, ds)
    iterates = []
    engine.run(
        problem, iters=iters, record_time=False,
        iteration_hook=lambda t, state: iterates.append((state.x, state.y)),
    )
    anchors = (ds.x_true, ds.phi @ ds.x_true, xi_star, zeta_star)
    return ds, problem, Q.subgradient_selector(spec, ds), iterates, anchors


class TestBlockProbe:
    def test_matches_per_point_oracle(self):
        # two full blocks and a partial third
        iters = 2 * D.PROBE_BLOCK + 17
        _, problem, selector, iterates, anchors = quantile_probe_setup(iters)
        block = D.probe_trajectory(problem, selector, iterates, *anchors)
        loop = probe_trajectory_loop(problem, selector, iterates, *anchors)
        assert [r.t for r in block] == list(range(1, iters + 1))
        fields = ("lhs", "penalty", "dist_x", "dist_y")
        for field in fields:
            got = np.array([getattr(r, field) for r in block])
            want = np.array([getattr(r, field) for r in loop])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=field)
        # rsc_probe is the block probe at one point, with its t passed through
        for i in (0, D.PROBE_BLOCK, iters - 1):
            (x, y), want = iterates[i], loop[i]
            plain = D.rsc_probe(problem, selector, x, y, *anchors)
            for got, t in ((plain, None), (D.rsc_probe(problem, selector, x, y, *anchors, t=i), i)):
                assert got.t == t
                np.testing.assert_allclose([getattr(got, f) for f in fields],
                                           [getattr(want, f) for f in fields], rtol=1e-12, atol=0)

    def test_empty_and_generator_input(self):
        _, problem, selector, iterates, anchors = quantile_probe_setup(D.PROBE_BLOCK + 3)
        assert len(D.probe_trajectory(problem, selector, [], *anchors)) == 0
        from_list = D.probe_trajectory(problem, selector, iterates, *anchors)
        from_gen = D.probe_trajectory(problem, selector, (pair for pair in iterates), *anchors)
        assert list(from_gen) == list(from_list)

    def test_results_cost_columns_not_one_object_per_iterate(self):
        # A list of RscProbeResults traced ~195 B an iterate; four doubles
        # take 32, and t is a range.
        _, problem, selector, iterates, anchors = quantile_probe_setup(2000)
        D.probe_trajectory(problem, selector, iterates[:10], *anchors)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = D.probe_trajectory(problem, selector, iterates, *anchors)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == 2000 and results[-1].t == 2000
        assert traced <= 64 * 2000

    def test_quantile_selector_acts_row_wise(self):
        ds, _, selector, iterates, _ = quantile_probe_setup(12)
        xs = np.array([x for x, _ in iterates])
        ys = np.array([y for _, y in iterates])
        xs[0, :] = 0.0          # the penalty's kinks
        ys[1, :] = ds.w         # the pinball kinks
        xi, zeta = selector(xs, ys)
        rows = [selector(x, y) for x, y in zip(xs, ys)]
        assert xi.tobytes() == np.array([r[0] for r in rows]).tobytes()
        assert zeta.tobytes() == np.array([r[1] for r in rows]).tobytes()
