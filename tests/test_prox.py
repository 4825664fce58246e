import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncadmm.prox import (
    LogL1Penalty,
    ball_project,
    logl1_grad,
    logl1_value_grad,
    qexp,
    qexp_slopes,
    quantile_loss,
    quantile_prox_update,
    soft_threshold,
)

from _oracles import bisect_min, fd_gradient, golden_section

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)


class TestQuantileLoss:
    @pytest.mark.parametrize(
        "q,t,expected",
        [(0.5, 2.0, 1.0), (0.9, -1.0, 0.1), (0.3, 4.0, 1.2)],
    )
    def test_hand_values(self, q, t, expected):
        assert quantile_loss(t, q) == pytest.approx(expected, abs=1e-15)

    @given(finite_floats, st.floats(0.01, 0.99))
    def test_nonnegative_zero_iff_zero(self, t, q):
        val = quantile_loss(t, q)
        assert val >= 0.0
        assert (val == 0.0) == (t == 0.0)


class TestSoftThreshold:
    def test_hand_case(self):
        out = soft_threshold(np.array([0.25, -0.05, 0.0]), 0.1)
        assert np.allclose(out, [0.15, 0.0, 0.0], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        v = np.array([0.3, -1.2, 0.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_matches_bruteforce_prox(self):
        # argmin 0.5(x-v)^2 + thresh*|x| per coordinate, by derivative bisection
        rng = np.random.default_rng(3)
        v = rng.standard_normal(20)
        out = soft_threshold(v, 0.3)
        for vi, oi in zip(v, out):
            ref = bisect_min(
                lambda x: (x - vi) + 0.3 * (1.0 if x >= 0 else -1.0), -5, 5
            )
            assert abs(oi - ref) <= 1e-8

    @given(st.lists(finite_floats, min_size=1, max_size=10), st.floats(0.0, 5.0))
    def test_sign_and_norm_properties(self, vals, thresh):
        v = np.array(vals)
        out = soft_threshold(v, thresh)
        assert np.all((out == 0) | (np.sign(out) == np.sign(v)))
        assert np.abs(out).max() <= np.abs(v).max() + 1e-15


class TestBallProject:
    def test_inside(self):
        assert np.array_equal(ball_project(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])

    def test_boundary(self):
        assert np.array_equal(ball_project(np.array([3.0, 4.0]), 5.0), [3.0, 4.0])

    def test_rescale(self):
        assert np.allclose(ball_project(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_infinite_radius(self):
        v = np.array([1e6, -1e6])
        assert np.array_equal(ball_project(v, math.inf), v)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            ball_project(np.zeros(2), 0.0)


class TestLogL1:
    def test_zero_point(self):
        pen = LogL1Penalty(0.1, 0.5)
        value, grad = logl1_value_grad(pen, np.zeros(4))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(4))

    def test_hand_gradient(self):
        pen = LogL1Penalty(0.1, 0.5)
        _, grad = logl1_value_grad(pen, np.array([0.5]))
        assert grad[0] == pytest.approx(-0.05, abs=1e-15)

    def test_gradient_vs_finite_differences(self):
        pen = LogL1Penalty(0.2, 0.7)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.standard_normal(8)
            x = np.where(np.abs(x) < 1e-3, 0.1, x)  # keep FD step well-scaled
            _, grad = logl1_value_grad(pen, x)
            ref = fd_gradient(lambda z: logl1_value_grad(pen, z)[0], x, h=1e-6)
            assert np.linalg.norm(grad - ref) <= 1e-5 * max(1.0, np.linalg.norm(ref))

    def test_infinite_beta_is_pure_l1(self):
        pen = LogL1Penalty(0.3, math.inf)
        x = np.array([1.0, -2.0])
        value, grad = logl1_value_grad(pen, x)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(2))
        assert pen.value(x) == pytest.approx(0.9)

    @pytest.mark.parametrize("beta", [0.5, 3.0, math.inf])
    def test_gradient_only_matches_value_grad_bitwise(self, beta):
        pen = LogL1Penalty(0.2, beta)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 6, 50)
            x[::7] = 0.0
            assert np.array_equal(logl1_grad(pen, x), logl1_value_grad(pen, x)[1])

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_gradient_is_odd(self, vals):
        pen = LogL1Penalty(0.1, 0.5)
        x = np.array(vals)
        _, g1 = logl1_value_grad(pen, x)
        _, g2 = logl1_value_grad(pen, -x)
        assert np.allclose(g1, -g2, atol=1e-15)


class TestQexp:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (0.0, (1.0, 1.0, 1.0)),
            (1.0, (2.5, 2.0, 1.0)),
            (-1.0, (math.exp(-1), math.exp(-1), math.exp(-1))),
        ],
    )
    def test_hand_values(self, t, expected):
        assert qexp(t) == pytest.approx(expected, abs=1e-15)

    def test_c2_splice_exact_at_zero(self):
        below = qexp(-0.0)
        above = qexp(0.0)
        assert below == above == (1.0, 1.0, 1.0)

    @given(finite_floats)
    def test_branch_agreement(self, t):
        v, d1, d2 = qexp(t)
        if t <= 0:
            assert v == d1 == d2
            assert v == pytest.approx(math.exp(t), rel=1e-15)
        else:
            assert v == pytest.approx(1 + t + 0.5 * t * t, rel=1e-15)
            assert d1 == pytest.approx(1 + t, rel=1e-15)
            assert d2 == 1.0

    def test_slopes_match_qexp_bitwise(self):
        rng = np.random.default_rng(18)
        t = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, -800.0],
            rng.standard_normal(994) * 10.0 ** rng.integers(-6, 3, 994),
        ]).reshape(-1, 7)
        value, d1, d2 = qexp(t)
        assert d2.tobytes() == np.exp(np.minimum(t, 0.0)).tobytes()
        assert d1.tobytes() == (d2 + np.maximum(t, 0.0)).tobytes()
        tp = np.maximum(t, 0.0)
        assert value.tobytes() == (d1 + 0.5 * tp * tp).tobytes()
        s1, s2 = qexp_slopes(t)
        assert s1.tobytes() == d1.tobytes()
        assert s2.tobytes() == d2.tobytes()
        out = (np.full_like(t, np.nan), np.full_like(t, np.nan))
        b1, b2 = qexp_slopes(t, out=out)
        assert b1 is out[0] and b2 is out[1]
        assert b1.tobytes() == d1.tobytes()
        assert b2.tobytes() == d2.tobytes()
        # d2 written over t itself, as Newton does.
        ref1, ref2 = qexp_slopes(t.copy())
        t_buf = t.copy()
        a1, a2 = qexp_slopes(t_buf, out=(np.full_like(t, np.nan), t_buf))
        assert a2 is t_buf
        assert a1.tobytes() == ref1.tobytes()
        assert a2.tobytes() == ref2.tobytes()

    def test_second_derivative_bounded_for_nonneg(self):
        t = np.linspace(0.0, 50.0, 101)
        _, _, d2 = qexp(t)
        assert np.all(d2 <= 1.0)


class TestQuantileProxUpdate:
    def test_first_case(self):
        assert quantile_prox_update(0.0, -10.0, 0.5, 1, 1.0) == pytest.approx(-9.5)

    def test_clamped_case(self):
        assert quantile_prox_update(0.0, 0.0, 0.5, 1, 1.0) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = float(rng.standard_normal())
            anchor = float(2 * rng.standard_normal())
            q = float(rng.uniform(0.05, 0.95))
            n = int(rng.integers(1, 20))
            sigma = float(rng.uniform(0.05, 5.0))
            got = quantile_prox_update(w, anchor, q, n, sigma)
            span = abs(w) + abs(anchor) + 10.0

            def right_deriv(y):
                pin = (1.0 - q) if y >= w else -q
                return pin / n + sigma * (y - anchor)

            ref = bisect_min(right_deriv, -span, span)
            assert abs(got - ref) <= 1e-8
            # golden section agrees to its value-resolution limit
            gold = golden_section(
                lambda y: quantile_loss(w - y, q) / n + 0.5 * sigma * (y - anchor) ** 2,
                -span,
                span,
            )
            assert abs(got - gold) <= 1e-6

    def test_subgradient_optimality(self):
        # 0 must lie in the subdifferential of the 1-D objective at the output
        rng = np.random.default_rng(23)
        for _ in range(200):
            w = float(rng.standard_normal())
            anchor = float(2 * rng.standard_normal())
            q = float(rng.uniform(0.05, 0.95))
            n = int(rng.integers(1, 10))
            sigma = float(rng.uniform(0.1, 4.0))
            y = quantile_prox_update(w, anchor, q, n, sigma)
            quad = sigma * (y - anchor)
            if y < w:
                resid = abs(-q / n + quad)
            elif y > w:
                resid = abs((1.0 - q) / n + quad)
            else:
                resid = max(0.0, -q / n + quad) + max(0.0, -(1.0 - q) / n - quad)
            assert resid <= 1e-8

    @given(finite_floats, finite_floats, finite_floats)
    @settings(max_examples=60)
    def test_nonexpansive_in_anchor(self, w, a1, a2):
        y1 = quantile_prox_update(w, a1, 0.3, 4, 0.7)
        y2 = quantile_prox_update(w, a2, 0.3, 4, 0.7)
        assert abs(y1 - y2) <= abs(a1 - a2) + 1e-12

    def test_large_sigma_limit(self):
        w, q, n, sigma = 0.3, 0.5, 10, 1e6
        anchor = np.array([-5.0, 0.3, 7.0])
        out = quantile_prox_update(w, anchor, q, n, sigma)
        bound = max(q, 1 - q) / (n * sigma)
        assert np.abs(out - anchor).max() <= bound + 1e-15
