import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ncadmm import engine
from ncadmm import quantile as Q
from ncadmm.ct import forward as F
from ncadmm.ct import recon as R
from ncadmm.engine import (
    AdmmProblem,
    AdmmState,
    AdmmStepError,
    CompositeObjective,
    DenseMap,
    KahanSum,
    TraceRecord,
    load_trace,
    quadratic_prox,
    save_trace,
)
from ncadmm.numerics import DiagonalMatrix, spectral_norm
from ncadmm.prox import soft_threshold

from _oracles import (
    ScaledIdentity,
    admm_step_reference,
    fista_lasso,
    kahan_add_reference,
    sparse_identity,
    validate_stepsizes,
    zero_objective,
)

# A = I, Sigma = I in one dimension: both subproblem quadratics are 1.
UNIT = DiagonalMatrix(np.ones(1))


def scalar_problem(f=None, objective=zero_objective):
    return AdmmProblem(
        A=ScaledIdentity(1, 1.0),
        sigma=UNIT,
        f=f or CompositeObjective(prox_step=quadratic_prox),
        g=CompositeObjective(prox_step=quadratic_prox),
        D_f=UNIT,
        D_g=UNIT,
        objective=objective,
    )


def small_ct_problem():
    """A CT problem on matrix iterates: 4x4 pixels, 25 energies, 3 materials."""
    geom = F.CtGeometry(grid_nx=4, grid_ny=4, pixel_size=0.5, n_angles=8, n_detectors=8)
    projector = F.build_projector(geom)
    model = F.build_spectral_model(n_energies=25)
    counts = F.forward_counts(model, projector, F.default_phantom(geom), seed=31)
    mask = R.active_ray_mask(projector)
    problem, _ = R.build_ct_problem(model, projector.select_rows(mask), counts[:, mask], 10.0)
    return problem


def lasso_problem(a, w, lam, sigma):
    n, d = a.shape
    gamma = spectral_norm(a) ** 2 * (1 + 1e-6)

    def prox_x(lin, D, center):
        s = float(D.diag[0])
        return soft_threshold(center - lin / s, lam / s)

    def prox_y(lin, D, center):
        return (w - lin + sigma * center) / (1.0 + sigma)

    return AdmmProblem(
        A=DenseMap(a),
        sigma=DiagonalMatrix(np.full(n, sigma)),
        f=CompositeObjective(prox_step=prox_x),
        g=CompositeObjective(prox_step=prox_y),
        D_f=DiagonalMatrix(np.full(d, sigma * gamma)),
        D_g=DiagonalMatrix(np.full(n, 1.0 + sigma)),
        objective=lambda x, y, ax: 0.5 * np.sum((ax - w) ** 2) + lam * np.abs(x).sum(),
    )


class TestAdmmStep:
    def test_scalar_two_step_fixed_point(self):
        prob = scalar_problem()
        x0, y0, u0 = np.array([2.0]), np.array([5.0]), np.array([1.5])
        s1 = engine.admm_step(prob, AdmmState.initial(x0, y0, u0))
        assert s1.x[0] == y0[0] - u0[0]
        assert s1.y[0] == y0[0]
        assert s1.u[0] == 0.0
        s2 = engine.admm_step(prob, s1)
        assert (s2.x[0], s2.y[0], s2.u[0]) == (y0[0], y0[0], 0.0)

    def test_quadratic_converges_to_kkt_point(self):
        # f(x) = x^2/2 forces the unique stationary triple (0, 0, 0)
        def prox_quad(lin, D, center):
            s = float(D.diag[0])
            return (s * center - lin) / (1.0 + s)

        prob = AdmmProblem(
            A=ScaledIdentity(1, 1.0),
            sigma=DiagonalMatrix(np.ones(1)),
            f=CompositeObjective(prox_step=prox_quad),
            g=CompositeObjective(prox_step=quadratic_prox),
            D_f=DiagonalMatrix(np.ones(1)),
            D_g=DiagonalMatrix(np.ones(1)),
            objective=zero_objective,
        )
        res = engine.run(
            prob,
            init=(np.array([3.0]), np.array([-2.0]), np.array([1.0])),
            iters=200,
            record_time=False,
        )
        for v in (res.state.x, res.state.y, res.state.u):
            assert abs(v[0]) <= 1e-6

    def test_lasso_average_matches_proximal_gradient_oracle(self):
        rng = np.random.default_rng(42)
        a = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        w = 0.2 * rng.standard_normal(5)
        x_star = fista_lasso(a, w, 0.1, iters=200_000, tol=1e-16)
        prob = lasso_problem(a, w, 0.1, sigma=1.0)
        res = engine.run(prob, iters=2000, record_time=False)
        assert np.linalg.norm(res.x_bar - x_star) <= 1e-4

    def test_prox_failure_carries_iteration(self):
        calls = []

        def bad_prox(lin, D, center):
            calls.append(1)
            if len(calls) >= 3:
                raise RuntimeError("inner solve diverged")
            return quadratic_prox(lin, D, center)

        prob = scalar_problem(f=CompositeObjective(prox_step=bad_prox))
        with pytest.raises(AdmmStepError) as err:
            engine.run(prob, init=(np.ones(1), np.ones(1), np.ones(1)), iters=10)
        assert err.value.iteration == 3

    def test_nonfinite_iterate_raises(self):
        def nan_prox(lin, D, center):
            return np.array([float("nan")])

        prob = scalar_problem(f=CompositeObjective(prox_step=nan_prox))
        with pytest.raises(AdmmStepError, match="non-finite"):
            engine.run(prob, iters=5)

    # "ct-*": a CT prox that returns its (rows, materials) update flattened.
    @pytest.mark.parametrize("side", ["x", "y", "ct-x", "ct-y"])
    def test_wrong_shape_update_raises_and_leaves_state(self, side):
        if side.startswith("ct"):
            prob = small_ct_problem()
            init = (np.zeros(prob.x_shape), np.full(prob.y_shape, 0.1), np.zeros(prob.y_shape))
            reshape = np.ravel
        else:
            prob = scalar_problem()
            init = (np.ones(1), np.full(1, 2.0), np.zeros(1))
            reshape = lambda v: v.reshape(-1, 1)
        var = side[-1]
        block = getattr(prob, "f" if var == "x" else "g")
        prox = block.prox_step
        block.prox_step = lambda lin, D, center: reshape(prox(lin, D, center))
        state = AdmmState.initial(*init)
        shape = getattr(prob, f"{var}_shape")
        message = re.escape(f"{var} update has shape {reshape(np.zeros(shape)).shape}, expected {shape}")
        with pytest.raises(AdmmStepError, match=message) as err:
            engine.admm_step(prob, state)
        assert err.value.iteration == 1
        assert state.t == 0 and len(state.trace) == 0
        assert not state.sum_x.total.any()

    @pytest.mark.parametrize("callback", ["grad_d", "objective", "alpha_hook"])
    def test_callback_failure_carries_iteration(self, callback):
        calls = []

        def fail_on_third(value):
            calls.append(1)
            if len(calls) >= 3:
                raise ValueError("nonpositive window mean")
            return value

        prob, alpha_hook = scalar_problem(), None
        if callback == "grad_d":
            prob.g.grad_d = lambda y: fail_on_third(0.0 * y)
        elif callback == "objective":
            prob.objective = lambda x, y, ax: fail_on_third(0.0)
        else:
            alpha_hook = lambda t, x, y, u, ax: fail_on_third(1.0)
        with pytest.raises(AdmmStepError, match=f"{callback} failed: nonpositive") as err:
            engine.run(prob, init=(np.ones(1), np.ones(1), np.ones(1)), iters=10,
                       alpha_hook=alpha_hook)
        assert err.value.iteration == 3

    def test_nonfinite_objective_raises_and_leaves_state(self):
        values = iter([1.0, float("nan")])
        prob = scalar_problem(objective=lambda x, y, ax: next(values))
        state = engine.admm_step(prob, AdmmState.initial(np.ones(1), np.full(1, 2.0), np.zeros(1)))
        sum_x = state.sum_x.total.copy()
        with pytest.raises(AdmmStepError, match="objective is not finite") as err:
            engine.admm_step(prob, state)
        assert err.value.iteration == 2
        assert len(state.trace) == 1
        assert np.array_equal(state.sum_x.total, sum_x)

    def test_step_leaves_previous_iterate_unchanged(self):
        rng = np.random.default_rng(6)
        prob = lasso_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.05, 0.5)
        state = AdmmState.initial(
            rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
        )
        for _ in range(3):
            before = (state.x.copy(), state.y.copy(), state.u.copy())
            new = engine.admm_step(prob, state)
            for old, kept in zip((state.x, state.y, state.u), before):
                assert np.array_equal(old, kept)
            for old, fresh in zip((state.x, state.y, state.u), (new.x, new.y, new.u)):
                assert not np.shares_memory(old, fresh)
            state = new


def fixed_update_problem(x_new, y_new):
    """A = Sigma = I on R^2, with proxes that return the given updates."""
    two = DiagonalMatrix(np.ones(2))
    return AdmmProblem(
        A=ScaledIdentity(2, 1.0),
        sigma=two,
        f=CompositeObjective(prox_step=lambda lin, D, center: x_new),
        g=CompositeObjective(prox_step=lambda lin, D, center: y_new),
        D_f=two,
        D_g=two,
        objective=zero_objective,
    )


def step_with_update(var, value):
    """The state and the step whose `var` update is `value`: x and y come from
    their proxes, u from u_0 (x and y stay zero, so u_1 = u_0)."""
    v, zero = np.array(value), np.zeros(2)
    x_new, y_new, u0 = {"x": (v, zero, zero), "y": (zero, v, zero), "u": (zero, zero, v)}[var]
    state = AdmmState.initial(zero, zero, u0)
    return state, lambda: engine.admm_step(fixed_update_problem(x_new, y_new), state)


class TestFinitenessCheck:
    @pytest.mark.parametrize("var", ["x", "y", "u"])
    def test_finite_entries_whose_sum_overflows_are_accepted(self, var):
        value = [1.7e308, 1.7e308]
        _, step = step_with_update(var, value)
        with np.errstate(over="ignore"):  # the sums overflow; numpy's warning is not under test
            new = step()
        assert np.array_equal(getattr(new, var), value)
        assert new.t == 1 and len(new.trace) == 1

    @pytest.mark.parametrize("var", ["x", "y", "u"])
    @pytest.mark.parametrize(
        "value",
        [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0], [math.inf, -math.inf]],
        ids=["nan", "+inf", "-inf", "+inf,-inf"],
    )
    def test_nan_or_inf_rejected(self, var, value):
        state, step = step_with_update(var, value)
        with np.errstate(invalid="ignore"), pytest.raises(
            AdmmStepError, match=re.escape(f"{var} update produced non-finite values")
        ) as err:
            step()
        assert err.value.iteration == 1
        assert state.t == 0 and len(state.trace) == 0
        assert not state.sum_x.total.any()


class CountingMap(DenseMap):
    """DenseMap that counts its products and remembers the last matvec."""

    def __init__(self, a):
        super().__init__(a)
        self.matvecs = self.rmatvecs = 0
        self.last = None

    def matvec(self, v):
        self.matvecs += 1
        self.last = super().matvec(v)
        return self.last

    def rmatvec(self, v):
        self.rmatvecs += 1
        return super().rmatvec(v)


class CountingSigma(DiagonalMatrix):
    """DiagonalMatrix that counts its matvecs."""

    matvecs = 0

    def matvec(self, v):
        self.matvecs += 1
        return super().matvec(v)


class TestProductReuse:
    def test_one_product_each_way_per_step(self):
        rng = np.random.default_rng(8)
        a, w = rng.standard_normal((5, 4)), rng.standard_normal(5)
        prob = lasso_problem(a, w, 0.05, 0.5)
        counting = CountingMap(a)
        prob.A = counting
        prob.sigma = CountingSigma(prob.sigma.diag)
        seen = []

        def objective(x, y, ax):
            seen.append(ax is counting.last)
            return 0.5 * float(np.sum((ax - w) ** 2))

        def alpha_hook(t, x, y, u, ax):
            seen.append(ax is counting.last)
            return None

        prob.objective = objective
        state = engine.admm_step(prob, AdmmState.initial(np.ones(4), np.ones(5), np.zeros(5)),
                                 alpha_hook=alpha_hook)
        # the first step also forms A x_0 and Sigma(A x_0 - y_0)
        assert (counting.matvecs, counting.rmatvecs) == (2, 1)
        assert prob.sigma.matvecs == 3
        for step in range(1, 11):
            state = engine.admm_step(prob, state, alpha_hook=alpha_hook)
            assert (counting.matvecs, counting.rmatvecs) == (2 + step, 1 + step)
            assert prob.sigma.matvecs == 3 + 2 * step
            assert np.array_equal(state.ax, a @ state.x)
            assert np.array_equal(state.sr, prob.sigma.diag * (state.ax - state.y))
        assert seen == [True] * 22

    def test_carried_product_matches_a_fresh_one_bitwise(self):
        rng = np.random.default_rng(9)
        prob = lasso_problem(rng.standard_normal((5, 4)), rng.standard_normal(5), 0.05, 0.5)
        carried = AdmmState.initial(np.zeros(4), np.zeros(5), np.zeros(5))
        fresh = AdmmState.initial(np.zeros(4), np.zeros(5), np.zeros(5))
        for _ in range(20):
            carried = engine.admm_step(prob, carried, record_time=False)
            fresh = engine.admm_step(
                prob, replace(fresh, ax=None, sr=None), record_time=False
            )
            for v in ("x", "y", "u"):
                assert np.array_equal(getattr(carried, v), getattr(fresh, v))


class TestLeanStepMatchesReference:
    @staticmethod
    def assert_same_run(build, init, steps, alpha_hook=None):
        """`steps` lean and reference steps, each on its own problem from
        `build()`: the same iterate, products, running sum and trace columns."""
        runs = []
        for step in (engine.admm_step, admm_step_reference):
            prob, state = build(), AdmmState.initial(*init)
            for _ in range(steps):
                state = step(prob, state, alpha_hook=alpha_hook, record_time=False)
            runs.append(state)
        lean, ref = runs
        for v in ("x", "y", "u", "ax", "x_bar"):
            assert np.array_equal(getattr(lean, v), getattr(ref, v)), v
        assert np.array_equal(lean.sum_x.total, ref.sum_x.total)
        assert np.array_equal(lean.sum_x._comp, ref.sum_x._comp)
        for got, want in zip(lean.trace._columns, ref.trace._columns, strict=True):
            assert len(got) == steps and got == want
        return lean

    def test_quantile_probe_problem_2000_steps(self):
        spec = Q.QuantileProblemSpec(d=50, n=100, s_star=3, sigma=5e-3)
        dataset = Q.generate_dataset(spec)
        init = (np.zeros(spec.d), np.zeros(spec.n), np.zeros(spec.n))
        self.assert_same_run(lambda: Q.build_problem(spec, dataset), init, 2000)

    def test_ct_problem_with_alpha_column(self):
        prob = small_ct_problem()
        init = (np.zeros(prob.x_shape), np.full(prob.y_shape, 0.1), np.zeros(prob.y_shape))

        def alpha_hook(t, x, y, u, ax):  # None on odd steps: both alpha columns vary
            return None if t % 2 else float(np.vdot(u, ax - y))

        lean = self.assert_same_run(small_ct_problem, init, 30, alpha_hook)
        assert [r.alpha_t is None for r in lean.trace] == [t % 2 == 1 for t in range(1, 31)]


class TestRun:
    def test_single_iteration_average_is_first_iterate(self):
        prob = scalar_problem()
        res = engine.run(prob, init=(np.ones(1), np.full(1, 2.0), np.zeros(1)), iters=1)
        assert np.array_equal(res.x_bar, res.state.x)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        w = rng.standard_normal(4)
        t1 = engine.run(lasso_problem(a, w, 0.05, 0.5), iters=50, record_time=False).trace
        t2 = engine.run(lasso_problem(a, w, 0.05, 0.5), iters=50, record_time=False).trace
        for r1, r2 in zip(t1, t2):
            assert (r1.objective, r1.primal_residual, r1.seconds) == (
                r2.objective,
                r2.primal_residual,
                r2.seconds,
            )

    def test_dual_update_identity_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        w = rng.standard_normal(4)
        prob = lasso_problem(a, w, 0.05, 0.5)
        state = AdmmState.initial(np.zeros(4), np.zeros(4), np.zeros(4))
        for _ in range(30):
            new = engine.admm_step(prob, state)
            # recompute u_t + Sigma(Ax - y) in the engine's op order:
            # the stored dual must reproduce bitwise from the recorded iterates
            resid = prob.A.matvec(new.x) - new.y
            assert np.array_equal(new.u, state.u + prob.sigma.matvec(resid))
            state = new

    def test_failure_carries_records_of_completed_steps(self):
        rng = np.random.default_rng(12)
        a, w = rng.standard_normal((5, 4)), rng.standard_normal(5)
        whole = engine.run(lasso_problem(a, w, 0.05, 0.5), iters=8, record_time=False).trace
        prob = lasso_problem(a, w, 0.05, 0.5)
        real, calls = prob.g.prox_step, []

        def fail_on_fifth(lin, D, center):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("inner solve diverged")
            return real(lin, D, center)

        prob.g.prox_step = fail_on_fifth
        with pytest.raises(AdmmStepError) as err:
            engine.run(prob, iters=8, record_time=False)
        assert err.value.iteration == 5
        assert list(err.value.trace) == list(whole)[:4]

    def test_alpha_hook_recorded(self):
        prob = scalar_problem()
        res = engine.run(prob, iters=3, alpha_hook=lambda t, x, y, u, ax: float(t) * 2.0)
        assert [r.alpha_t for r in res.trace] == [2.0, 4.0, 6.0]

    def test_trace_costs_columns_not_one_object_per_step(self):
        # A list of TraceRecords traced ~220 B a step; five numbers and a
        # mask byte take 41.
        prob = scalar_problem()
        alpha = lambda t, x, y, u, ax: 0.5 * t  # noqa: E731
        engine.run(prob, iters=10, alpha_hook=alpha)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = engine.run(prob, iters=2000, alpha_hook=alpha)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(res.trace) == 2000 and res.trace[-1].alpha_t == 1000.0
        assert traced <= 64 * 2000


class TestAveraging:
    def test_kahan_matches_fsum(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 8, 100_000)
        acc = KahanSum(1)
        for v in values:
            acc.add(np.array([v]))
        exact = math.fsum(values)
        assert abs(acc.total[0] - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_in_place_kahan_matches_four_array_formula_bitwise(self):
        rng = np.random.default_rng(11)
        acc, ref = KahanSum(7), KahanSum(7)
        for _ in range(5000):
            v = rng.standard_normal(7) * 10.0 ** rng.integers(-12, 12, 7)
            acc.add(v)
            kahan_add_reference(ref, v)
        assert np.array_equal(acc.total, ref.total)
        assert np.array_equal(acc._comp, ref._comp)
        assert acc._comp.any()  # the compensation did work on this stream

    def test_running_average_matches_fsum_average(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        w = rng.standard_normal(3)
        prob = lasso_problem(a, w, 0.05, 0.5)
        xs = []
        state = AdmmState.initial(np.zeros(3), np.zeros(3), np.zeros(3))
        for _ in range(500):
            state = engine.admm_step(prob, state)
            xs.append(state.x)
        exact = np.array([math.fsum(col) / len(xs) for col in np.array(xs).T])
        assert np.abs(state.x_bar - exact).max() <= 1e-12


SCALAR_CONSTRAINT = dict(a=np.eye(1), b=-np.eye(1), sigma=np.ones(1))


class TestValidateStepsizes:
    def test_identity_stepsize_passes(self):
        report = validate_stepsizes(**SCALAR_CONSTRAINT, h_f=np.eye(1), h_g=np.eye(1))
        assert report.ok

    def test_negative_stepsize_fails_named(self):
        # H_f = -I/2 keeps the subproblem quadratic PD, but the PSD
        # condition on H_f itself must be reported as violated
        report = validate_stepsizes(**SCALAR_CONSTRAINT, h_f=-0.5 * np.eye(1))
        assert not report.ok
        assert "H_f PSD" in report.failures()

    def test_indefinite_subproblem_reported(self):
        report = validate_stepsizes(**SCALAR_CONSTRAINT, h_f=-np.eye(1))
        assert "H_f + M'Sigma M positive definite" in report.failures()

    def test_hessian_domination_checked_at_probes(self):
        # concave differentiable part: zero step-size matrix still dominates
        rng = np.random.default_rng(5)
        report = validate_stepsizes(
            np.eye(2), -np.eye(2), np.ones(2),
            hess_f=lambda x: np.diag(-0.05 / (0.5 + np.abs(x)) ** 2),
            probes_x=[rng.standard_normal(2) for _ in range(20)],
        )
        assert report.ok

    def test_hessian_violation_detected(self):
        report = validate_stepsizes(
            **SCALAR_CONSTRAINT,
            hess_f=lambda x: np.eye(1),  # curvature +1 > H_f = 0
            probes_x=[np.zeros(1)],
        )
        assert not report.ok
        assert any("dominates" in name for name in report.failures())


class TestLinearMaps:
    @pytest.mark.parametrize(
        "op",
        [
            DenseMap(np.random.default_rng(5).standard_normal((6, 4))),
            ScaledIdentity(4, -1.5),
        ],
        ids=["dense", "scaled-identity"],
    )
    def test_matmat_is_matvec_per_column(self, op):
        cols = np.random.default_rng(7).standard_normal((op.shape[1], 5))
        expected = np.column_stack([op.matvec(c) for c in cols.T])
        np.testing.assert_allclose(op.matmat(cols), expected, rtol=1e-14, atol=1e-14)


class PlainMap(DenseMap):
    """DenseMap whose matvec is always the full product a @ v."""

    def matvec(self, v):
        return self.a @ v


class TestDenseMatvec:
    A = np.random.default_rng(11).standard_normal((30, 200))

    def test_sparse_vector_matches_full_product(self):
        rng = np.random.default_rng(12)
        v = np.zeros(200)
        v[[3, 50, 199]] = rng.standard_normal(3)
        assert engine.GATHER_RATIO * 3 <= v.size
        bound = 4 * np.finfo(float).eps * (np.abs(self.A) @ np.abs(v))
        assert np.all(np.abs(DenseMap(self.A).matvec(v) - self.A @ v) <= bound)

    def test_vector_over_the_threshold_is_the_full_product(self):
        v = np.zeros(200)
        v[:4] = np.random.default_rng(13).standard_normal(4)
        assert engine.GATHER_RATIO * 4 > v.size
        assert DenseMap(self.A).matvec(v).tobytes() == (self.A @ v).tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_vector_gives_positive_zeros(self, zero):
        out = DenseMap(self.A).matvec(np.full(200, zero))
        assert out.shape == (30,)
        assert np.all(out == 0.0) and not np.signbit(out).any()

    def test_nan_in_the_vector_reaches_the_output(self):
        v = np.zeros(200)
        v[7] = np.nan
        assert np.isnan(DenseMap(self.A).matvec(v)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        a = self.A.copy()
        a[2, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DenseMap(a)

    def test_probe_size_run_is_bitwise_the_full_product_run(self):
        # perfbench's quantile-probe gate: a 1e-12 change in gamma moves its
        # last RSC slack by 13.5%, so this size must keep the full product's bits.
        spec = Q.QuantileProblemSpec(d=50, n=100, s_star=3, sigma=5e-3, seed=20240802)
        dataset = Q.generate_dataset(spec)
        gamma = Q.quantile_gamma(dataset.phi)
        runs = []
        for linear_map in (DenseMap, PlainMap):
            prob = Q.build_problem(spec, dataset, gamma=gamma)
            prob.A = linear_map(dataset.phi)
            runs.append(engine.run(prob, iters=2000, record_time=False))
        sparse, plain = runs
        assert [(r.objective, r.primal_residual) for r in sparse.trace] == [
            (r.objective, r.primal_residual) for r in plain.trace
        ]
        for v in ("x", "y", "u", "ax"):
            assert getattr(sparse.state, v).tobytes() == getattr(plain.state, v).tobytes(), v


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="Sigma dimension does not match the rows of A"):
            AdmmProblem(
                A=DenseMap(np.ones((2, 3))),
                sigma=DiagonalMatrix(np.ones(3)),
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                D_f=DiagonalMatrix(np.ones(3)),
                D_g=DiagonalMatrix(np.ones(2)),
                objective=zero_objective,
            )

    def test_vector_sigma_rejected_for_matrix_iterates(self):
        # y is (3, 2), so Sigma needs one weight per row: (3, 1), not (3,).
        rows = DiagonalMatrix(np.ones((3, 1)))

        def problem(sigma):
            return AdmmProblem(
                A=engine.KronEye(sparse_identity(3), 2),
                sigma=sigma,
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                D_f=rows,
                D_g=rows,
                objective=zero_objective,
            )

        assert problem(rows).y_shape == (3, 2)
        with pytest.raises(ValueError, match="Sigma dimension does not match the rows of A"):
            problem(DiagonalMatrix(np.ones(3)))

    # "*-matrix": A acts on (3, 2) matrices and the bad D is a vector diagonal.
    @pytest.mark.parametrize("side", ["D_f", "D_g", "D_f-matrix", "D_g-matrix"])
    def test_wrong_size_subproblem_quadratic_rejected(self, side):
        if side.endswith("matrix"):
            a, good, bad = engine.KronEye(sparse_identity(3), 2), (3, 1), (3,)
        else:
            a, good, bad = ScaledIdentity(3, 1.0), (3,), (1,)
        name = side[:3]
        kwargs = dict(D_f=DiagonalMatrix(np.ones(good)), D_g=DiagonalMatrix(np.ones(good)))
        kwargs[name] = DiagonalMatrix(np.ones(bad))
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {bad}, expected {good}")):
            AdmmProblem(
                A=a,
                sigma=DiagonalMatrix(np.ones(good)),
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                objective=zero_objective,
                **kwargs,
            )

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            AdmmProblem(
                A=ScaledIdentity(1, 1.0),
                sigma=DiagonalMatrix(np.zeros(1)),
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                D_f=UNIT,
                D_g=UNIT,
                objective=zero_objective,
            )


class TestTracePersistence:
    def test_round_trip_with_extras(self, tmp_path):
        trace = [
            TraceRecord(t=1, objective=1.5, primal_residual=0.25, alpha_t=None, seconds=0.0),
            TraceRecord(t=2, objective=1.25, primal_residual=0.125, alpha_t=3.5, seconds=0.0),
        ]
        path = tmp_path / "trace.csv"
        save_trace(path, trace, extra_columns={"objective_avg": [1.5, 1.375]})
        first = path.read_text().splitlines()
        assert first[0] == "iter,objective,primal_residual,alpha_t,seconds,objective_avg"
        assert first[1].split(",")[3] == ""  # alpha empty when diagnostics disabled
        records, extras = load_trace(path)
        assert [r.t for r in records] == [1, 2]
        assert records[0].alpha_t is None
        assert records[1].alpha_t == 3.5
        assert extras["objective_avg"] == [1.5, 1.375]

    def test_trace_behaves_as_the_list_of_its_records(self):
        records = [
            TraceRecord(1, 1.5, 0.25, None, 0.0),
            TraceRecord(2, 1.25, 0.125, 3.5, 0.5),
            TraceRecord(3, 1.0, 0.0625, -0.0, 1.0),
        ]
        trace = engine.Trace()
        for rec in records:
            trace.append_row(rec.t, rec.objective, rec.primal_residual, rec.alpha_t, rec.seconds)
        assert len(trace) == 3 and list(trace) == records
        assert [trace[i] for i in range(-3, 3)] == records + records
        assert len(engine.Trace()) == 0 and list(engine.Trace()) == []
        with pytest.raises(TypeError):
            trace[1:]

    def test_none_and_nan_alpha_stay_distinct(self, tmp_path):
        res = engine.run(
            scalar_problem(), iters=4, record_time=False,
            alpha_hook=lambda t, x, y, u, ax: None if t % 2 else float("nan"),
        )
        path = tmp_path / "trace.csv"
        save_trace(path, res.trace)
        assert [row.split(",")[3] for row in path.read_text().splitlines()[1:]] == [
            "", "nan", "", "nan",
        ]
        records, _ = load_trace(path)
        for rows in (res.trace, records):
            assert [r.alpha_t is None for r in rows] == [True, False, True, False]
            assert all(math.isnan(r.alpha_t) for r in list(rows)[1::2])

    def test_wrong_extra_length_rejected(self, tmp_path):
        trace = [TraceRecord(1, 1.0, 1.0, None, 0.0)]
        with pytest.raises(ValueError, match="wrong length"):
            save_trace(tmp_path / "x.csv", trace, extra_columns={"bad": [1.0, 2.0]})


# sigma_list, iters and the message of each sweep input rejected before the set-up
BAD_SWEEPS = {
    "names_collide": ([1.0000001e-3, 1.0000002e-3], 2, "share the output name sigma0.001"),
    "negative": ([1e-3, -1.0], 2, r"positive and finite, got \[0.001, -1.0\]"),
    "nan": ([math.nan], 2, "positive and finite"),
    "inf": ([1e-3, math.inf], 2, "positive and finite"),
    "empty": ([], 2, "sigma_list must not be empty"),
    "no_iterations": ([1e-3], 0, "iters must be at least 1"),
}


def set_up_free_sweep(experiment, monkeypatch):
    """The library sweep of `experiment`, whose set-up fails the test if it starts."""
    def never(*args):
        pytest.fail("the set-up started")

    if experiment == "quantile":
        monkeypatch.setattr(Q, "generate_dataset", never)
        spec = Q.QuantileProblemSpec(d=12, n=20, s_star=2, seed=3)
        return lambda sigmas, iters, out: Q.run_sigma_sweep(spec, sigmas, iters, out_dir=out)
    monkeypatch.setattr(F, "build_projector", never)
    geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
    model, phantom = F.build_spectral_model(n_energies=20), F.default_phantom(geom)
    return lambda sigmas, iters, out: R.run_ct_experiment(
        geom, model, phantom, sigmas, iters, seed=13, out_dir=out
    )


class TestSweep:
    @pytest.mark.parametrize("case", BAD_SWEEPS)
    @pytest.mark.parametrize("experiment", ["quantile", "ct"])
    def test_bad_inputs_rejected_before_any_set_up(
        self, experiment, case, tmp_path, monkeypatch
    ):
        sigma_list, iters, message = BAD_SWEEPS[case]
        sweep = set_up_free_sweep(experiment, monkeypatch)
        with pytest.raises(ValueError, match=message):
            sweep(sigma_list, iters, tmp_path)
        assert list(tmp_path.iterdir()) == []
