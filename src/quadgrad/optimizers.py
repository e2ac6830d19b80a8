"""Iteration engines: spectral-rate gradient descent, NAG, Adagrad, and Adam,
each in a plain and a quadratic-gradient-accelerated form.

All methods minimize; an objective declared as a maximization problem is
run on its negation internally, while trajectories always record the
original objective value. States are immutable snapshots; every step
returns a fresh one with the counter advanced by exactly 1.

Every ``step_*`` is a pure update rule on arrays: it takes ``g`` and ``h``,
the oriented gradient and Hessian at ``state.theta``, and never sees the
objective. ``run()`` owns every evaluation: the gradient once per step, the
Hessian once per step only for methods that read it (or once at ``x0`` when
``fixed_hessian`` is set), both negated for a maximisation problem and
passed on as the objective returned them otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InvalidEpsilon, InvalidInput, QuadGradError
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
        if not self.epsilon_accel > 0.0:
            raise InvalidEpsilon(f"epsilon_accel must be > 0, got {self.epsilon_accel}")


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


def init_state(f: ObjectiveFunction, x0) -> OptimizerState:
    """Fresh state at ``x0`` with zeroed accumulators."""
    theta = as_vector(x0).copy()
    if theta.shape[0] != f.dim:
        raise DimensionError(f"x0 has dim {theta.shape[0]}, objective needs {f.dim}")
    if not np.all(np.isfinite(theta)):
        raise InvalidInput("x0 must be finite")
    zeros = np.zeros_like(theta)
    return OptimizerState(
        t=0,
        theta=theta,
        momentum_prev=theta.copy(),
        m=zeros.copy(),
        v=zeros.copy(),
        adagrad_accum=zeros.copy(),
    )


def _advance(state: OptimizerState, theta_new: np.ndarray, **updates) -> OptimizerState:
    return replace(state, t=state.t + 1, theta=theta_new, **updates)


def step_gd_spectral(
    state: OptimizerState, config: OptimizerConfig, g: np.ndarray, h: np.ndarray
) -> OptimizerState:
    """Plain gradient descent whose learning rate is the reciprocal spectral
    radius of the current Hessian."""
    lr = spectral_learning_rate(h, config.epsilon_accel)
    return _advance(state, state.theta - lr * g)


def _nag_schedule(a: float) -> tuple[float, float]:
    a_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a * a))
    gamma = (a - 1.0) / a_next
    return a_next, gamma


def step_nag(
    state: OptimizerState,
    config: OptimizerConfig,
    g: np.ndarray,
    h: np.ndarray,
    enhanced: bool,
) -> OptimizerState:
    """One accelerated-gradient step.

    Plain form steps by the spectral learning rate; the enhanced form steps
    by (1 + lr) times the row-sum-accelerated gradient. Both then blend the
    new and previous lookahead points with the Nesterov weight sequence
    (a_0 = 1, a_{t+1} = (1 + sqrt(1 + 4 a_t^2)) / 2, gamma_t = (a_t - 1) / a_{t+1}).
    """
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
    state: OptimizerState, config: OptimizerConfig, g: np.ndarray, h: np.ndarray
) -> OptimizerState:
    """Adagrad on the row-sum quadratic gradient with a (1 + eta) numerator."""
    accel = bound_diagonal(h, config.epsilon_accel)
    qg = accel.diag * g
    accum = state.adagrad_accum + qg * qg
    scale = (1.0 + config.stepsize) / (config.epsilon_adam + np.sqrt(accum))
    return _advance(state, state.theta - scale * qg, adagrad_accum=accum)


def _accelerated(config, g, h):
    if config.qg_variant is Variant.ORIGINAL:
        return bound_diagonal(h, config.epsilon_accel).diag * g
    if config.qg_variant is Variant.NEW:
        return new_quadratic_gradient(h, g, config.epsilon_accel).vector
    return g


def step_adam(
    state: OptimizerState,
    config: OptimizerConfig,
    g: np.ndarray,
    h: np.ndarray | None,
    enhanced: bool,
) -> OptimizerState:
    """One Adam step with bias correction.

    The enhanced form feeds the accelerated gradient (per ``qg_variant``)
    into both moment accumulators; everything else is the standard update.
    ``h`` is read only by the enhanced form with a ``qg_variant``.
    """
    qg = _accelerated(config, g, h) if enhanced else g
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
    Method.GD_SPECTRAL: lambda s, c, g, h: step_gd_spectral(s, c, g, h),
    Method.NAG_SPECTRAL: lambda s, c, g, h: step_nag(s, c, g, h, enhanced=False),
    Method.ENHANCED_NAG: lambda s, c, g, h: step_nag(s, c, g, h, enhanced=True),
    Method.ENHANCED_ADAGRAD: lambda s, c, g, h: step_enhanced_adagrad(s, c, g, h),
    Method.ADAM: lambda s, c, g, h: step_adam(s, c, g, h, enhanced=False),
    Method.ENHANCED_ADAM: lambda s, c, g, h: step_adam(s, c, g, h, enhanced=True),
}


def _reads_hessian(config: OptimizerConfig) -> bool:
    if config.method is Method.ENHANCED_ADAM:
        return config.qg_variant is not None
    return config.method is not Method.ADAM


def run(f: ObjectiveFunction, config: OptimizerConfig, x0) -> Trajectory:
    """Iterate until the budget, a vanishing gradient, or divergence.

    Raises ``InvalidInput`` before iterating when the objective is not
    finite at ``x0``. The gradient is evaluated once per step and shared by
    the ``grad_tol`` check and the step; the Hessian once per step after
    that check (once at ``x0`` under ``fixed_hessian``), and only for
    methods that read it. ``run()`` neither copies nor writes the arrays the
    objective returns: a minimised objective's gradient and Hessian reach
    the step as they are, a maximised one's are negated into new arrays.
    Divergence (a step that raises a ``QuadGradError`` or ``LinAlgError`` on
    a breakdown, a non-finite iterate, any coordinate beyond
    ``divergence_bound``, or a non-finite objective) truncates the
    trajectory and sets the flag; it is never raised to the caller. The
    objective is not evaluated at an iterate that failed the bound.
    Floating-point overflow and invalid operations raise no warnings: the
    run's checks see their inf and NaN results instead.
    """
    state = init_state(f, x0)
    step = _STEPS.get(config.method)
    if step is None:
        raise InvalidInput(f"unknown method {config.method!r}")
    maximize = f.sense is Sense.MAXIMIZE

    def orient(a):
        return -1.0 * a if maximize else a

    reads_hessian = _reads_hessian(config)
    fresh_hessian = reads_hessian and not config.fixed_hessian
    with np.errstate(all="ignore"):
        objective = f.value(state.theta)
        if not math.isfinite(objective):
            raise InvalidInput(f"objective is not finite at x0: {objective}")
        frozen = None
        if reads_hessian and config.fixed_hessian:
            frozen = orient(f.hessian(state.theta))
        records = [TrajectoryRecord(0, objective, state.theta.copy())]
        diverged = False
        for t in range(1, config.max_iterations + 1):
            g = orient(f.gradient(state.theta))
            # sqrt(g.dot(g)) is np.linalg.norm(g) without its call overhead;
            # an overflowed norm is inf and fails grad_tol
            if math.sqrt(g.dot(g)) <= config.grad_tol:
                break
            h = orient(f.hessian(state.theta)) if fresh_hessian else frozen
            try:
                state = step(state, config, g, h)
            except (QuadGradError, np.linalg.LinAlgError):
                diverged = True
                break
            # free this step's Hessian before the next one is allocated: holding
            # it alive moved n=1000 step times by up to 2x either way (allocator)
            del h
            # NaN and inf fail the comparison too, so this one test catches both
            within = np.all(np.abs(state.theta) <= config.divergence_bound)
            objective = f.value(state.theta) if within else math.nan
            if not math.isfinite(objective):
                diverged = True
                break
            records.append(TrajectoryRecord(t, objective, state.theta.copy()))
    return Trajectory(records=records, diverged=diverged)
