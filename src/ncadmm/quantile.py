"""Sparse high-dimensional quantile regression under the log-L1 penalty.

Implements the data-generating model w = Phi x_true + noise with heavy-tailed
Student-t noise, the penalized pinball objective, the engine wiring whose
prox callbacks are this problem's closed-form update steps, and the
sigma-sweep experiment runner.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .engine import AdmmProblem, CompositeObjective, DenseMap, KahanSum, RunResult
from .numerics import DiagonalMatrix, spectral_norm
from .prox import (
    LogL1Penalty,
    ball_project,
    logl1_grad,
    quantile_loss,
    quantile_prox_update,
    soft_threshold,
)

# grad_d needs only logl1_grad. logl1_value_grad stays importable from here
# because the benchmark's tracer patches quantile.logl1_value_grad by name.
from .prox import logl1_value_grad

__all__ = [
    "QuantileProblemSpec",
    "QuantileDataset",
    "generate_dataset",
    "quantile_objective",
    "quantile_gamma",
    "build_problem",
    "run_quantile",
    "run_sigma_sweep",
    "star_subgradients",
    "subgradient_selector",
]

# Multiplicative inflation of the spectral-norm estimate so H_f stays PSD
# despite power-iteration error.
GAMMA_INFLATION = 1e-6

# Degrees of freedom of the Student-t noise.
NOISE_DF = 5.0


@dataclass(frozen=True)
class QuantileProblemSpec:
    d: int = 2000
    n: int = 1000
    s_star: int = 10
    q: float = 0.5
    lam: float = 0.1
    beta: float = 0.5
    radius: float = math.inf
    sigma: float = 1e-4
    seed: int = 20240801

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (0 < self.s_star <= self.d):
            raise ValueError("s_star must lie in [1, d]")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive (inf allowed)")
        if not self.radius > 0:
            raise ValueError("radius must be positive (inf allowed)")

    @property
    def penalty(self) -> LogL1Penalty:
        return LogL1Penalty(self.lam, self.beta)


@dataclass(frozen=True)
class QuantileDataset:
    phi: np.ndarray     # n x d sensing matrix, dense
    w: np.ndarray       # responses, length n
    x_true: np.ndarray  # sparse signal, length d


def generate_dataset(spec: QuantileProblemSpec) -> QuantileDataset:
    """Draw a seeded dataset: Phi ~ iid N(0,1), x_true = (1,..,1,0,..,0).

    Noise is Student-t with NOISE_DF degrees of freedom, sampled as
    normal / sqrt(chisquare/df) from a PCG64 generator seeded with
    spec.seed; draw order is Phi, then the normal block, then the
    chi-square block, so datasets are reproducible bit-for-bit.
    """
    rng = np.random.default_rng(spec.seed)
    phi = rng.standard_normal((spec.n, spec.d))
    x_true = np.zeros(spec.d)
    x_true[: spec.s_star] = 1.0
    z = rng.standard_normal(spec.n) / np.sqrt(rng.chisquare(NOISE_DF, spec.n) / NOISE_DF)
    w = phi @ x_true + z
    return QuantileDataset(phi=phi, w=w, x_true=x_true)


def quantile_objective(spec: QuantileProblemSpec, dataset: QuantileDataset, x: np.ndarray) -> float:
    """Penalized pinball loss (1/n) sum l_q(w - Phi x) + penalty(x)."""
    return _objective_at(spec.q, spec.penalty, dataset.w, dataset.phi @ x, x)


def _objective_at(q: float, penalty: LogL1Penalty, w: np.ndarray, phi_x, x) -> float:
    """quantile_objective with Phi x given. np.add.reduce(loss) / loss.size is
    np.mean's own arithmetic, bit for bit, without its Python wrappers."""
    loss = quantile_loss(w - phi_x, q)
    return float(np.add.reduce(loss, axis=None) / loss.size) + penalty.value(x)


def quantile_gamma(phi: np.ndarray) -> float:
    """Squared spectral norm of Phi, inflated so sigma*(gamma*I - Phi'Phi) is PSD."""
    return spectral_norm(phi) ** 2 * (1.0 + GAMMA_INFLATION)


def build_problem(
    spec: QuantileProblemSpec,
    dataset: QuantileDataset,
    gamma: float | None = None,
) -> AdmmProblem:
    """Wire the quantile problem into the generic engine on the split y = Phi x.

    The x subproblem quadratic is D_f = sigma*gamma*I, i.e. the step-size
    matrix is H_f = sigma*(gamma*I - Phi'Phi), so the prox is the
    soft-threshold/ball composition; the y subproblem quadratic is sigma*I.
    D_f is fixed, so the x prox takes its entry and the threshold once, here,
    and projects onto the ball only when the radius is finite.
    """
    if gamma is None:
        gamma = quantile_gamma(dataset.phi)
    sig, lam, q, n, radius = spec.sigma, spec.lam, spec.q, spec.n, spec.radius
    penalty = spec.penalty
    scale = sig * gamma
    thresh = lam / scale
    bounded = math.isfinite(radius)

    def prox_x(lin, D, center):
        # soft_threshold is looked up by name at each call: the benchmark's tracer patches it
        x_new = soft_threshold(center - lin / scale, thresh)
        return ball_project(x_new, radius) if bounded else x_new

    def prox_y(lin, D, center):
        anchor = center - lin / D.diag
        return quantile_prox_update(dataset.w, anchor, q, n, sig)

    grad_d = None
    if not math.isinf(spec.beta):
        grad_d = lambda x: logl1_grad(penalty, x)

    return AdmmProblem(
        A=DenseMap(dataset.phi),
        sigma=DiagonalMatrix(np.full(spec.n, sig)),
        f=CompositeObjective(prox_step=prox_x, grad_d=grad_d),
        g=CompositeObjective(prox_step=prox_y),
        D_f=DiagonalMatrix(np.full(spec.d, scale)),
        D_g=DiagonalMatrix(np.full(spec.n, sig)),
        objective=lambda x, y, phi_x: _objective_at(q, penalty, dataset.w, phi_x, x),
    )


def run_quantile(
    spec: QuantileProblemSpec,
    dataset: QuantileDataset,
    iters: int,
    gamma: float | None = None,
    record_time: bool = True,
) -> tuple[RunResult, list[float]]:
    """Run the sigma given by `spec`; returns the run plus Loss(x_bar_t) per t.

    Phi x_bar_t is the running mean of the Phi x_t the engine already
    computed (by linearity), so the average loss costs no extra product. An
    AdmmStepError leaves with the losses of its completed steps as
    `objective_avg`, next to their records in its `trace`.
    """
    problem = build_problem(spec, dataset, gamma=gamma)
    penalty = spec.penalty
    sum_phi_x = KahanSum(spec.n)
    avg_losses: list[float] = []

    def log_average(t, state):
        sum_phi_x.add(state.ax)
        avg_losses.append(
            _objective_at(spec.q, penalty, dataset.w, sum_phi_x.total / t, state.x_bar)
        )

    try:
        result = engine.run(
            problem, iters=iters, iteration_hook=log_average, record_time=record_time
        )
    except engine.AdmmStepError as exc:
        exc.objective_avg = avg_losses
        raise
    return result, avg_losses


def trace_filename(sigma: float) -> str:
    return f"quantile_sigma{sigma:g}.csv"


def run_sigma_sweep(
    spec: QuantileProblemSpec,
    sigma_list,
    iters: int = 500,
    out_dir=None,
    record_time: bool = True,
) -> dict:
    """Sigma sweep on one shared dataset; persists one trace file per sigma.

    Each trace carries the per-iterate loss in the objective column and the
    running-average loss as the extra `objective_avg` column. Sigmas whose
    file names would coincide, and traces that `engine.check_output_paths`
    finds unwritable, are rejected before the set-up. A step failure writes
    the rows of the steps before it to that sigma's trace and re-raises.
    """
    engine.check_sigma_names(sigma_list)
    if out_dir is not None:
        engine.check_output_paths(out_dir, [trace_filename(sigma) for sigma in sigma_list])
    dataset = generate_dataset(spec)
    gamma = quantile_gamma(dataset.phi)
    outputs = {}
    for sigma in sigma_list:
        sigma = float(sigma)
        path = None if out_dir is None else os.path.join(out_dir, trace_filename(sigma))
        run_spec = replace(spec, sigma=sigma)
        try:
            result, avg_losses = run_quantile(
                run_spec, dataset, iters, gamma=gamma, record_time=record_time
            )
        except engine.AdmmStepError as exc:
            if path is not None:
                extra = {"objective_avg": exc.objective_avg}
                engine.save_trace(path, exc.trace, extra_columns=extra)
            raise
        entry = {"result": result, "objective_avg": avg_losses}
        if path is not None:
            engine.save_trace(path, result.trace, extra_columns={"objective_avg": avg_losses})
            entry["path"] = path
        outputs[sigma] = entry
    return outputs


# ---------------------------------------------------------------------------
# Subgradient constructions for the optimality diagnostics


def _penalty_subgradient(spec: QuantileProblemSpec, x: np.ndarray) -> np.ndarray:
    """The log-L1 penalty's subgradient at x, zero at the kinks (the L1 one
    when beta is infinite)."""
    if math.isinf(spec.beta):
        return spec.lam * np.sign(x)
    return spec.lam * spec.beta * np.sign(x) / (spec.beta + np.abs(x))


def star_subgradients(spec: QuantileProblemSpec, dataset: QuantileDataset):
    """Subgradients at the true signal: (xi_star, zeta_star, u_star).

    u_star has entries (1/n)(-q*1[z_i>0] + (1-q)*1[z_i<0]) where z is the
    realized noise; zeta_star = u_star is then a valid subgradient of the
    pinball term at y = Phi x_true. xi_star matches the penalty gradient on
    the support and -Phi'u_star off it.
    """
    z = dataset.w - dataset.phi @ dataset.x_true
    u_star = (-spec.q * (z > 0) + (1.0 - spec.q) * (z < 0)) / spec.n
    x = dataset.x_true
    xi_star = np.where(x != 0, _penalty_subgradient(spec, x), -(dataset.phi.T @ u_star))
    return xi_star, u_star.copy(), u_star


def subgradient_selector(spec: QuantileProblemSpec, dataset: QuantileDataset):
    """Default selector: zero-in-interval element at every kink.

    Elementwise, so it takes one (x, y) pair or row stacks of them, as the
    RSC probe passes, and acts on each row alone.
    """

    def select(x: np.ndarray, y: np.ndarray):
        xi = _penalty_subgradient(spec, x)
        below = y < dataset.w
        above = y > dataset.w
        zeta = (-spec.q * below + (1.0 - spec.q) * above) / spec.n
        return xi, zeta

    return select
