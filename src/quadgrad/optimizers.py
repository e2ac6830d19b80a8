"""Iteration engines: spectral-rate gradient descent, NAG, Adagrad, and Adam,
each in a plain and a quadratic-gradient-accelerated form.

All methods minimize; an objective declared as a maximization problem is
run on its negation internally, while trajectories always record the
original objective value. States are immutable snapshots; every step
returns a fresh one with the counter advanced by exactly 1. Every ``step_*``
takes ``g``, the oriented gradient at ``state.theta``, which ``run()``
evaluates once per step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InvalidInput
from .functions import ObjectiveFunction, Sense
from .gradients import (
    DEFAULT_EPSILON,
    Variant,
    bound_diagonal,
    new_quadratic_gradient,
    spectral_learning_rate,
)
from .linalg import as_vector


class Method(enum.Enum):
    GD_SPECTRAL = "gd-spectral"
    NAG_SPECTRAL = "nag-spectral"
    ENHANCED_NAG = "enhanced-nag"
    ENHANCED_ADAGRAD = "enhanced-adagrad"
    ADAM = "adam"
    ENHANCED_ADAM = "enhanced-adam"


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for one run.

    ``stepsize`` is the Adam alpha for the plain method and the eta of the
    enhanced methods; the spectral-rate methods ignore it. ``qg_variant``
    selects the accelerator for ENHANCED_ADAM; None means the identity
    accelerator, which makes the enhanced method coincide with the plain one.
    ``fixed_hessian`` freezes all second-order information at the starting
    point instead of re-evaluating per iteration.
    """

    method: Method
    stepsize: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_accel: float = DEFAULT_EPSILON
    epsilon_adam: float = 1e-8
    qg_variant: Variant | None = None
    max_iterations: int = 100
    divergence_bound: float = 1e12
    grad_tol: float = 1e-12
    fixed_hessian: bool = False

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise InvalidInput(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise InvalidInput(f"beta2 must be in [0, 1), got {self.beta2}")
        if not self.stepsize > 0.0:
            raise InvalidInput(f"stepsize must be > 0, got {self.stepsize}")
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be >= 1")


@dataclass(frozen=True)
class OptimizerState:
    """Mutable-per-run iteration state (as an immutable snapshot)."""

    t: int
    theta: np.ndarray
    momentum_prev: np.ndarray  # V_t of the NAG interpolation
    m: np.ndarray  # first moment (Adam)
    v: np.ndarray  # second moment (Adam)
    adagrad_accum: np.ndarray  # running sum of squared quadratic gradients
    nag_a: float = 1.0  # Nesterov sequence value a_t
    fixed_hess: np.ndarray | None = None  # oriented Hessian frozen at x0


@dataclass(frozen=True)
class TrajectoryRecord:
    iteration: int
    objective: float
    iterate: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration log of a run; ``diverged`` flags a truncated run."""

    records: list[TrajectoryRecord]
    diverged: bool = False

    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]


def _orientation(f: ObjectiveFunction) -> float:
    return 1.0 if f.sense is Sense.MINIMIZE else -1.0


def _oriented_gradient(f: ObjectiveFunction, x: np.ndarray) -> np.ndarray:
    return _orientation(f) * f.gradient(x)


def _oriented_hessian(f: ObjectiveFunction, state: OptimizerState, x: np.ndarray) -> np.ndarray:
    if state.fixed_hess is not None:
        return state.fixed_hess
    return _orientation(f) * f.hessian(x)


def init_state(f: ObjectiveFunction, config: OptimizerConfig, x0) -> OptimizerState:
    """Fresh state at ``x0`` with zeroed accumulators."""
    theta = as_vector(x0).copy()
    if theta.shape[0] != f.dim:
        raise DimensionError(f"x0 has dim {theta.shape[0]}, objective needs {f.dim}")
    if not np.all(np.isfinite(theta)):
        raise InvalidInput("x0 must be finite")
    fixed = _orientation(f) * f.hessian(theta) if config.fixed_hessian else None
    zeros = np.zeros_like(theta)
    return OptimizerState(
        t=0,
        theta=theta,
        momentum_prev=theta.copy(),
        m=zeros.copy(),
        v=zeros.copy(),
        adagrad_accum=zeros.copy(),
        fixed_hess=fixed,
    )


def _advance(state: OptimizerState, theta_new: np.ndarray, **updates) -> OptimizerState:
    return replace(state, t=state.t + 1, theta=theta_new, **updates)


def step_gd_spectral(
    f: ObjectiveFunction, state: OptimizerState, config: OptimizerConfig, g: np.ndarray
) -> OptimizerState:
    """Plain gradient descent whose learning rate is the reciprocal spectral
    radius of the current Hessian."""
    lr = spectral_learning_rate(
        _oriented_hessian(f, state, state.theta), config.epsilon_accel
    )
    return _advance(state, state.theta - lr * g)


def _nag_schedule(a: float) -> tuple[float, float]:
    a_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a * a))
    gamma = (a - 1.0) / a_next
    return a_next, gamma


def step_nag(
    f: ObjectiveFunction,
    state: OptimizerState,
    config: OptimizerConfig,
    g: np.ndarray,
    enhanced: bool,
) -> OptimizerState:
    """One accelerated-gradient step.

    Plain form steps by the spectral learning rate; the enhanced form steps
    by (1 + lr) times the row-sum-accelerated gradient. Both then blend the
    new and previous lookahead points with the Nesterov weight sequence
    (a_0 = 1, a_{t+1} = (1 + sqrt(1 + 4 a_t^2)) / 2, gamma_t = (a_t - 1) / a_{t+1}).
    """
    h = _oriented_hessian(f, state, state.theta)
    lr = spectral_learning_rate(h, config.epsilon_accel)
    if enhanced:
        accel = bound_diagonal(h, config.epsilon_accel)
        update = (1.0 + lr) * accel.diag * g
    else:
        update = lr * g
    v_new = state.theta - update
    a_next, gamma = _nag_schedule(state.nag_a)
    theta_new = (1.0 - gamma) * v_new + gamma * state.momentum_prev
    return _advance(state, theta_new, momentum_prev=v_new, nag_a=a_next)


def step_enhanced_adagrad(
    f: ObjectiveFunction, state: OptimizerState, config: OptimizerConfig, g: np.ndarray
) -> OptimizerState:
    """Adagrad on the row-sum quadratic gradient with a (1 + eta) numerator."""
    accel = bound_diagonal(
        _oriented_hessian(f, state, state.theta), config.epsilon_accel
    )
    qg = accel.diag * g
    accum = state.adagrad_accum + qg * qg
    scale = (1.0 + config.stepsize) / (config.epsilon_adam + np.sqrt(accum))
    return _advance(state, state.theta - scale * qg, adagrad_accum=accum)


def _accelerated(f, state, config, g):
    if config.qg_variant is Variant.ORIGINAL:
        accel = bound_diagonal(
            _oriented_hessian(f, state, state.theta), config.epsilon_accel
        )
        return accel.diag * g
    if config.qg_variant is Variant.NEW:
        return new_quadratic_gradient(
            _oriented_hessian(f, state, state.theta), g, config.epsilon_accel
        ).vector
    return g


def step_adam(
    f: ObjectiveFunction,
    state: OptimizerState,
    config: OptimizerConfig,
    g: np.ndarray,
    enhanced: bool,
) -> OptimizerState:
    """One Adam step with bias correction.

    The enhanced form feeds the accelerated gradient (per ``qg_variant``)
    into both moment accumulators; everything else is the standard update.
    """
    qg = _accelerated(f, state, config, g) if enhanced else g
    t = state.t + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * qg
    v = config.beta2 * state.v + (1.0 - config.beta2) * qg * qg
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    theta_new = state.theta - config.stepsize * m_hat / (
        np.sqrt(v_hat) + config.epsilon_adam
    )
    return _advance(state, theta_new, m=m, v=v)


# The lambdas look the step functions up by module attribute at call time,
# so a rebound ``step_*`` (a wrapper installed from outside) is the one run.
_STEPS = {
    Method.GD_SPECTRAL: lambda f, s, c, g: step_gd_spectral(f, s, c, g),
    Method.NAG_SPECTRAL: lambda f, s, c, g: step_nag(f, s, c, g, enhanced=False),
    Method.ENHANCED_NAG: lambda f, s, c, g: step_nag(f, s, c, g, enhanced=True),
    Method.ENHANCED_ADAGRAD: lambda f, s, c, g: step_enhanced_adagrad(f, s, c, g),
    Method.ADAM: lambda f, s, c, g: step_adam(f, s, c, g, enhanced=False),
    Method.ENHANCED_ADAM: lambda f, s, c, g: step_adam(f, s, c, g, enhanced=True),
}


def run(f: ObjectiveFunction, config: OptimizerConfig, x0) -> Trajectory:
    """Iterate until the budget, a vanishing gradient, or divergence.

    The gradient is evaluated once per step and shared by the ``grad_tol``
    check and the step. Divergence (a non-finite iterate, any coordinate
    beyond ``divergence_bound``, or a non-finite objective) truncates the
    trajectory and sets the flag; it is never raised to the caller. The
    objective is not evaluated at an iterate that failed the bound.
    """
    state = init_state(f, config, x0)
    step = _STEPS.get(config.method)
    if step is None:
        raise InvalidInput(f"unknown method {config.method!r}")
    records = [TrajectoryRecord(0, f.value(state.theta), state.theta.copy())]
    diverged = False
    for t in range(1, config.max_iterations + 1):
        g = _oriented_gradient(f, state.theta)
        # sqrt(g.dot(g)) is np.linalg.norm(g) without its call overhead, which
        # pays for the errstate; an overflowed norm is inf and fails grad_tol
        with np.errstate(over="ignore"):
            gradient_norm = math.sqrt(g.dot(g))
        if gradient_norm <= config.grad_tol:
            break
        state = step(f, state, config, g)
        # NaN and inf fail the comparison too, so this one test catches both
        within = np.all(np.abs(state.theta) <= config.divergence_bound)
        objective = f.value(state.theta) if within else math.nan
        if not math.isfinite(objective):
            diverged = True
            break
        records.append(TrajectoryRecord(t, objective, state.theta.copy()))
    return Trajectory(records=records, diverged=diverged)
