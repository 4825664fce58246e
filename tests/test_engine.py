import math
from dataclasses import replace

import numpy as np
import pytest

from ncadmm import engine
from ncadmm import quantile as Q
from ncadmm.engine import (
    AdmmProblem,
    AdmmState,
    AdmmStepError,
    CompositeObjective,
    DenseMap,
    KahanSum,
    ScaledIdentity,
    TraceRecord,
    load_trace,
    quadratic_prox,
    save_trace,
)
from ncadmm.numerics import DiagonalMatrix, spectral_norm
from ncadmm.prox import soft_threshold

from _oracles import admm_step_reference, fista_lasso, kahan_add_reference, validate_stepsizes

# A = I, B = -I, Sigma = I in one dimension: both subproblem quadratics are 1.
UNIT = DiagonalMatrix(np.ones(1))


def scalar_problem(f=None, **kwargs):
    return AdmmProblem(
        A=ScaledIdentity(1, 1.0),
        B=ScaledIdentity(1, -1.0),
        c=np.zeros(1),
        sigma=UNIT,
        f=f or CompositeObjective(prox_step=quadratic_prox),
        g=CompositeObjective(prox_step=quadratic_prox),
        D_f=UNIT,
        D_g=UNIT,
        **kwargs,
    )


def lasso_problem(a, w, lam, sigma):
    n, d = a.shape
    gamma = spectral_norm(a, rel_tol=1e-12) ** 2 * (1 + 1e-6)

    def prox_x(lin, D, center):
        s = float(D.diag[0])
        return soft_threshold(center - lin / s, lam / s)

    def prox_y(lin, D, center):
        return (w - lin + sigma * center) / (1.0 + sigma)

    return AdmmProblem(
        A=DenseMap(a),
        B=ScaledIdentity(n, -1.0),
        c=np.zeros(n),
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
            B=ScaledIdentity(1, -1.0),
            c=np.zeros(1),
            sigma=DiagonalMatrix(np.ones(1)),
            f=CompositeObjective(prox_step=prox_quad),
            g=CompositeObjective(prox_step=quadratic_prox),
            D_f=DiagonalMatrix(np.ones(1)),
            D_g=DiagonalMatrix(np.ones(1)),
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

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_wrong_shape_update_raises_and_leaves_state(self, side):
        def column_prox(lin, D, center):
            return quadratic_prox(lin, D, center).reshape(-1, 1)

        prob = scalar_problem()
        getattr(prob, "f" if side == "x" else "g").prox_step = column_prox
        state = AdmmState.initial(np.ones(1), np.full(1, 2.0), np.zeros(1))
        message = rf"{side} update has shape \(1, 1\), expected \(1,\)"
        with pytest.raises(AdmmStepError, match=message) as err:
            engine.admm_step(prob, state)
        assert err.value.iteration == 1
        assert state.t == 0 and state.trace == []
        assert not state.sum_x.total.any() and not state.sum_y.total.any()

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
        sums = (state.sum_x.total.copy(), state.sum_y.total.copy())
        with pytest.raises(AdmmStepError, match="objective is not finite") as err:
            engine.admm_step(prob, state)
        assert err.value.iteration == 2
        assert len(state.trace) == 1
        assert np.array_equal(state.sum_x.total, sums[0])
        assert np.array_equal(state.sum_y.total, sums[1])

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
        counting_b = CountingMap(-np.eye(5))  # the lasso's B = -I, as a dense map
        prob.A, prob.B = counting, counting_b
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
        # the first step also forms A x_0, B y_0 and Sigma(A x_0 + B y_0 - c)
        assert (counting.matvecs, counting.rmatvecs) == (2, 1)
        assert (counting_b.matvecs, counting_b.rmatvecs) == (2, 1)
        assert prob.sigma.matvecs == 3
        for step in range(1, 11):
            state = engine.admm_step(prob, state, alpha_hook=alpha_hook)
            assert (counting.matvecs, counting.rmatvecs) == (2 + step, 1 + step)
            assert (counting_b.matvecs, counting_b.rmatvecs) == (2 + step, 1 + step)
            assert prob.sigma.matvecs == 3 + 2 * step
            assert np.array_equal(state.ax, a @ state.x)
            assert np.array_equal(state.by, -state.y)
            assert np.array_equal(state.sr, prob.sigma.diag * (state.ax + state.by - prob.c))
        assert seen == [True] * 22

    def test_carried_product_matches_a_fresh_one_bitwise(self):
        rng = np.random.default_rng(9)
        prob = lasso_problem(rng.standard_normal((5, 4)), rng.standard_normal(5), 0.05, 0.5)
        carried = AdmmState.initial(np.zeros(4), np.zeros(5), np.zeros(5))
        fresh = AdmmState.initial(np.zeros(4), np.zeros(5), np.zeros(5))
        for _ in range(20):
            carried = engine.admm_step(prob, carried, record_time=False)
            fresh = engine.admm_step(
                prob, replace(fresh, ax=None, by=None, sr=None), record_time=False
            )
            for v in ("x", "y", "u"):
                assert np.array_equal(getattr(carried, v), getattr(fresh, v))


class TestLeanStepMatchesReference:
    def test_quantile_probe_problem_2000_steps(self):
        spec = Q.QuantileProblemSpec(d=50, n=100, s_star=3, sigma=5e-3)
        prob = Q.build_problem(spec, Q.generate_dataset(spec))
        lean = AdmmState.initial(np.zeros(spec.d), np.zeros(spec.n), np.zeros(spec.n))
        ref = AdmmState.initial(np.zeros(spec.d), np.zeros(spec.n), np.zeros(spec.n))
        for _ in range(2000):
            lean = engine.admm_step(prob, lean, record_time=False)
            ref = admm_step_reference(prob, ref, record_time=False)
        for v in ("x", "y", "u", "ax", "by", "x_bar", "y_bar"):
            assert np.array_equal(getattr(lean, v), getattr(ref, v)), v
        for acc in ("sum_x", "sum_y"):
            assert np.array_equal(getattr(lean, acc)._comp, getattr(ref, acc)._comp), acc
        assert [(r.t, r.objective, r.primal_residual) for r in lean.trace] == [
            (r.t, r.objective, r.primal_residual) for r in ref.trace
        ]


class TestRun:
    def test_single_iteration_average_is_first_iterate(self):
        prob = scalar_problem()
        res = engine.run(prob, init=(np.ones(1), np.full(1, 2.0), np.zeros(1)), iters=1)
        assert np.array_equal(res.x_bar, res.state.x)
        assert np.array_equal(res.y_bar, res.state.y)

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
            # recompute u_t + Sigma(Ax + By - c) in the engine's op order:
            # the stored dual must reproduce bitwise from the recorded iterates
            resid = prob.A.matvec(new.x) + prob.B.matvec(new.y) - prob.c
            assert np.array_equal(new.u, state.u + prob.sigma.matvec(resid))
            state = new

    def test_alpha_hook_recorded(self):
        prob = scalar_problem()
        res = engine.run(prob, iters=3, alpha_hook=lambda t, x, y, u, ax: float(t) * 2.0)
        assert [r.alpha_t for r in res.trace] == [2.0, 4.0, 6.0]


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


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            AdmmProblem(
                A=ScaledIdentity(2, 1.0),
                B=ScaledIdentity(3, -1.0),
                c=np.zeros(2),
                sigma=DiagonalMatrix(np.ones(2)),
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                D_f=DiagonalMatrix(np.ones(2)),
                D_g=DiagonalMatrix(np.ones(3)),
            )

    @pytest.mark.parametrize("side", ["D_f", "D_g"])
    def test_wrong_size_subproblem_quadratic_rejected(self, side):
        kwargs = dict(D_f=DiagonalMatrix(np.ones(3)), D_g=DiagonalMatrix(np.ones(3)))
        kwargs[side] = DiagonalMatrix(np.ones(1))
        with pytest.raises(ValueError, match=rf"{side} has shape \(1, 1\), expected \(3, 3\)"):
            AdmmProblem(
                A=ScaledIdentity(3, 1.0),
                B=ScaledIdentity(3, -1.0),
                c=np.zeros(3),
                sigma=DiagonalMatrix(np.ones(3)),
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                **kwargs,
            )

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            AdmmProblem(
                A=ScaledIdentity(1, 1.0),
                B=ScaledIdentity(1, -1.0),
                c=np.zeros(1),
                sigma=DiagonalMatrix(np.zeros(1)),
                f=CompositeObjective(prox_step=quadratic_prox),
                g=CompositeObjective(prox_step=quadratic_prox),
                D_f=UNIT,
                D_g=UNIT,
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

    def test_wrong_extra_length_rejected(self, tmp_path):
        trace = [TraceRecord(1, 1.0, 1.0, None, 0.0)]
        with pytest.raises(ValueError, match="wrong length"):
            save_trace(tmp_path / "x.csv", trace, extra_columns={"bad": [1.0, 2.0]})
