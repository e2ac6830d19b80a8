"""Iteration engines: spectral-rate gradient descent, NAG, Adagrad, and Adam,
each in a plain and a quadratic-gradient-accelerated form.

All methods minimize; an objective declared as a maximization problem is
run on its negation internally, while trajectories always record the
original objective value.

A method scales the gradient and feeds the result to an update rule.
``_STEPS`` holds, per ``(method, qg_variant)`` pair, the rule's name,
``derive(h)`` (what the scaling needs from the Hessian alone: the spectral
learning rate, a diagonal, or ``h`` itself; None for a method that reads no
Hessian) and ``direction(c, g)`` (what the rule steps along, from the derived
``c`` and the gradient ``g``).

``run()`` owns the iterate and every evaluation: the gradient once per step,
the Hessian once per step only for methods that read it (or once at ``x0``
when ``fixed_hessian`` is set), both negated for a maximisation problem and
passed on as the objective returned them otherwise. It derives ``c`` once per
Hessian: every step, or once per run, at the first step, under
``fixed_hessian``. Each ``step_*`` is an update rule
``step(theta, state, config, d) -> theta_new`` on the direction ``d``;
``state`` is the method's own history, a list that ``run()`` hands every
rule empty and the step fills on its first call and updates in place after
(GD-spectral leaves it empty). No step reads the method, the accelerator or
a Hessian, and none writes ``theta``, ``d`` or an array it stored. Adam's
``_adam_update`` runs on Python floats up to ``_ADAM_FLOAT_MAX_N`` coordinates,
on numpy arrays above, with the same bits.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, QuadGradError
from .functions import ObjectiveFunction, Sense, as_point
from .gradients import Variant, bound_diagonal, new_quadratic_gradient, spectral_learning_rate
from .linalg import _max_abs, _run_scope

# Adam's moment decay rates and denominator guard, as in Kingma and Ba; the
# enhanced Adagrad shares the guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON_ADAM = 1e-8
# run() stops when the gradient norm falls to GRAD_TOL, and flags a run whose
# iterate has a coordinate beyond DIVERGENCE_BOUND in magnitude.
GRAD_TOL = 1e-12
DIVERGENCE_BOUND = 1e12
# step_adam's largest n on Python floats: on Rosenbrock an Adam iteration ran
# 0.93x / 0.99x / 1.02x of the arrays' time at n = 9 / 11 / 12 (15 paired reps
# of tools/step_cost.py --sizes; 2 CPUs, Python 3.11.7, numpy 2.4.6)
_ADAM_FLOAT_MAX_N = 11


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
    enhanced methods, stored as a float; the spectral-rate methods ignore
    it. ``qg_variant`` selects the accelerator of ENHANCED_ADAM and is
    refused on any other method; None means the identity accelerator, which
    makes the enhanced method coincide with the plain one.
    ``fixed_hessian`` freezes all second-order information at the starting
    point instead of re-evaluating per iteration: the Hessian is evaluated
    there, and what the method derives from it alone is derived once per run.
    Adam's decay rates, the guards and the stopping thresholds are the
    module constants above. A field of the wrong type or out of range raises
    ``InvalidInput`` here, before any run starts.
    """

    method: Method
    stepsize: float = 0.1
    qg_variant: Variant | None = None
    max_iterations: int = 100
    fixed_hessian: bool = False

    def __post_init__(self):
        if not isinstance(self.method, Method):
            raise InvalidInput(f"method must be a Method, got {self.method!r}")
        stepsize = self.stepsize
        # float() too: a positive Fraction or longdouble can round to 0.0
        if isinstance(stepsize, bool) or not (_finite_real(stepsize) and float(stepsize) > 0.0):
            raise InvalidInput(f"stepsize must be a finite number > 0, got {stepsize!r}")
        object.__setattr__(self, "stepsize", float(stepsize))
        if self.qg_variant is not None and not isinstance(self.qg_variant, Variant):
            raise InvalidInput(f"qg_variant must be a Variant or None, got {self.qg_variant!r}")
        if (self.method, self.qg_variant) not in _STEPS:
            raise InvalidInput(f"qg_variant applies to ENHANCED_ADAM only, not {self.method}")
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 1):
            raise InvalidInput(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r}"
            )
        if not isinstance(self.fixed_hessian, (bool, np.bool_)):
            raise InvalidInput(f"fixed_hessian must be a bool, got {self.fixed_hessian!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    objective: float
    iterate: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration log of a run, ``records[k]`` after k steps; ``diverged`` flags truncation."""

    records: list[TrajectoryRecord]
    diverged: bool = False

    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]


def step_gd_spectral(
    theta: np.ndarray, state: list, config: OptimizerConfig, d: np.ndarray
) -> np.ndarray:
    """Plain gradient descent: ``d`` is the gradient scaled by the spectral
    learning rate of the current Hessian; ``state`` is empty."""
    return theta - d


def step_nag(
    theta: np.ndarray, state: list, config: OptimizerConfig, d: np.ndarray
) -> np.ndarray:
    """One accelerated-gradient step; ``state`` is ``[V_t, a_t]``, the
    previous lookahead point and the Nesterov sequence value.

    The new lookahead point is ``theta - d``, where ``d`` is the gradient
    scaled by the spectral learning rate (NAG_SPECTRAL) or by (1 + lr) times
    the row-sum diagonal (ENHANCED_NAG). It is blended with the previous one
    by the Nesterov weight sequence (a_0 = 1,
    a_{t+1} = (1 + sqrt(1 + 4 a_t^2)) / 2, gamma_t = (a_t - 1) / a_{t+1}).
    """
    v_new = theta - d
    v_prev, a = state or (theta, 1.0)
    a_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a * a))
    gamma = (a - 1.0) / a_next
    state[:] = v_new, a_next
    return (1.0 - gamma) * v_new + gamma * v_prev


def step_enhanced_adagrad(
    theta: np.ndarray, state: list, config: OptimizerConfig, d: np.ndarray
) -> np.ndarray:
    """Adagrad with a (1 + eta) numerator on ``d``, the row-sum quadratic
    gradient; ``state`` is ``[accumulator]``, the running sum of ``d * d``."""
    accum = (state[0] if state else 0.0) + d * d
    state[:] = [accum]
    scale = (1.0 + config.stepsize) / (EPSILON_ADAM + np.sqrt(accum))
    return theta - scale * d


def _adam_update(x, m, v, d, c1, c2, lr, sqrt):
    """New ``(x, m, v)`` of floats or arrays alike: IEEE per element, sqrt correctly rounded."""
    m = BETA1 * m + (1.0 - BETA1) * d
    v = BETA2 * v + (1.0 - BETA2) * d * d
    return x - lr * (m / c1) / (sqrt(v / c2) + EPSILON_ADAM), m, v


def step_adam(
    theta: np.ndarray, state: list, config: OptimizerConfig, d: np.ndarray
) -> np.ndarray:
    """One Adam step with bias correction on ``d``, the gradient or a
    quadratic gradient; ``state`` is ``[t, m, v]``, the steps taken and the
    two moments as float64 arrays. ``_adam_update`` runs on each coordinate as
    Python floats up to ``_ADAM_FLOAT_MAX_N`` of them, else on the arrays."""
    t, m, v = state or (0, np.zeros(d.shape), np.zeros(d.shape))
    t += 1
    c1, c2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    if d.shape[0] <= _ADAM_FLOAT_MAX_N:
        theta, m, v = map(np.array, zip(*[
            _adam_update(x, m_i, v_i, d_i, c1, c2, config.stepsize, math.sqrt)
            for x, m_i, v_i, d_i in zip(theta.tolist(), m.tolist(), v.tolist(), d.tolist())]))
    else:
        theta, m, v = _adam_update(theta, m, v, d, c1, c2, config.stepsize, np.sqrt)
    state[:] = t, m, v
    return theta


# (method, qg_variant) -> (step function's name, derive, direction); its
# keys are the valid configurations. run() looks the step up in the module
# globals when it starts and the lambdas look up what they call when called,
# so a rebound name (a wrapper installed from outside) is the one run.
_STEPS = {
    (Method.GD_SPECTRAL, None):
        ("step_gd_spectral", lambda h: spectral_learning_rate(h), np.multiply),
    (Method.NAG_SPECTRAL, None): ("step_nag", lambda h: spectral_learning_rate(h), np.multiply),
    (Method.ENHANCED_NAG, None):
        ("step_nag", lambda h: (1.0 + spectral_learning_rate(h)) * bound_diagonal(h),
         np.multiply),
    (Method.ENHANCED_ADAGRAD, None):
        ("step_enhanced_adagrad", lambda h: bound_diagonal(h), np.multiply),
    (Method.ADAM, None): ("step_adam", None, lambda c, g: g),
    (Method.ENHANCED_ADAM, None): ("step_adam", None, lambda c, g: g),
    (Method.ENHANCED_ADAM, Variant.ORIGINAL):
        ("step_adam", lambda h: bound_diagonal(h), np.multiply),
    (Method.ENHANCED_ADAM, Variant.NEW):
        ("step_adam", lambda h: h, lambda c, g: new_quadratic_gradient(c, g)),
}


def _finite_real(value) -> bool:
    """True for a finite real number; ``float`` is tested first, the ABC check is slow."""
    try:
        return (isinstance(value, float) or isinstance(value, numbers.Real)) and math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def run(f: ObjectiveFunction, config: OptimizerConfig, x0) -> Trajectory:
    """Iterate until the budget, a vanishing gradient, or divergence.

    Raises ``InvalidInput`` before any evaluation when ``f`` is not an
    ``ObjectiveFunction`` or ``x0`` not a vector of ``f.dim`` finite real
    numbers (``as_point`` checks both, in that order), or ``config`` not an
    ``OptimizerConfig``; and before the first step when the objective's
    value at ``x0`` is not a finite real number, its gradient there not a
    real ndarray of shape (n,), or its Hessian (for a method that reads one)
    not one of shape (n, n), or when one of them raises an ``Exception``
    (the ``InvalidInput`` is raised from it).
    Each step, while the budget of ``max_iterations`` lasts (budget), takes the
    gradient (bad-evaluation if it fails the checks made at ``x0`` or raises an
    ``Exception``) and stops at a norm of at most ``GRAD_TOL`` (grad-tol); then
    the Hessian, for a method that reads it and only at ``x0`` under
    ``fixed_hessian`` (bad-evaluation). Each Hessian is derived once, just
    before the first step that uses it; a fresh one and its derived value are
    let go before the next is evaluated. A derivation or step that raises a
    ``QuadGradError`` or ``LinAlgError`` (step-failed), an iterate not finite or
    beyond ``DIVERGENCE_BOUND``, where the objective is never evaluated
    (bound-exceeded), and a bad value (bad-value) end the run; step-failed and
    bad-value share the step's ``except``. All stops but budget and grad-tol
    truncate the trajectory and set ``diverged``; none is raised, while any
    other ``BaseException`` propagates.
    A gradient or Hessian of another real dtype is converted to float64 once; ``run()`` neither
    copies nor writes the float64 arrays the objective returns: a minimised objective's gradient
    and Hessian reach ``direction`` and ``derive`` as they are, a maximised one's are negated
    into new arrays. AdamNewQG's solves share one n x n LU buffer, the run's own, freed when it
    returns or raises. Floating-point overflow and invalid operations raise no warnings: the
    run's checks see their inf and NaN results instead.
    """
    theta = as_point(x0, f, "x0").copy()
    if not isinstance(config, OptimizerConfig):
        raise InvalidInput(f"config must be an OptimizerConfig, got {type(config).__name__}")
    step_name, derive, direction = _STEPS[config.method, config.qg_variant]
    step = globals()[step_name]
    state = []
    n = f.dim

    def evaluated(name, fn, shape=None):
        try:
            a = fn(theta)
        except Exception as exc:
            raise InvalidInput(f"the objective's {name} raised {exc!r}") from exc
        if shape is None:
            if not _finite_real(a):
                if not isinstance(a, numbers.Real):
                    raise InvalidInput(f"the objective's value must be a real number, "
                                       f"got {type(a).__name__}")
                # a real that is not a float fails only beyond the float range: no digits
                shown = a if isinstance(a, (float, np.floating)) else "beyond the float range"
                raise InvalidInput(f"objective is not finite at x0: {shown}")
            return a
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "biuf" and a.shape == shape):
            got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
            raise InvalidInput(f"the objective's {name} must be a real array of shape "
                               f"{shape}, got {got}")
        a = np.asarray(a, dtype=float)  # an integer a.dot(a) would wrap around
        return -1.0 * a if f.sense is Sense.MAXIMIZE else a

    fresh_hessian = derive is not None and not config.fixed_hessian
    with _run_scope([np.empty(0)]):
        objective = evaluated("value", f.value)
        # h holds a Hessian not yet derived: each fresh one, and the frozen
        # one until the first step; c is what was derived from the last one
        h = (evaluated("Hessian", f.hessian, (n, n))
             if derive is not None and config.fixed_hessian else None)
        c = None
        records = [TrajectoryRecord(objective, theta.copy())]
        for _ in range(config.max_iterations):
            try:
                g = evaluated("gradient", f.gradient, (n,))
                # sqrt(g.dot(g)) is np.linalg.norm(g) without its call
                # overhead; an overflowed norm is inf and fails GRAD_TOL
                if math.sqrt(g.dot(g)) <= GRAD_TOL:
                    break
                if fresh_hessian:
                    h = evaluated("Hessian", f.hessian, (n, n))
            except InvalidInput:
                if len(records) == 1:  # no step has run: the objective is bad input
                    raise
                return Trajectory(records=records, diverged=True)
            try:
                if h is not None:
                    c, h = derive(h), None
                theta = step(theta, state, config, direction(c, g))
                if fresh_hessian:
                    # free what this step derived (for AdamNewQG, its Hessian) before the next
                    # is allocated, so one is live: at n=1000 holding it took 449 page faults
                    # per AdamNewQG step against 171, and 1.02x the time (0.89-1.13x, 10 pairs)
                    c = None
                # theta.dot(theta) <= DIVERGENCE_BOUND bounds every |theta_i| by its square
                # root; beyond it max|theta| decides, NaN for a NaN entry and inf for an
                # infinite one: both fail the comparison, as does an overflowed or NaN dot
                if not (theta.dot(theta) <= DIVERGENCE_BOUND
                        or _max_abs(theta) <= DIVERGENCE_BOUND):
                    return Trajectory(records=records, diverged=True)
                objective = evaluated("value", f.value)
            except (QuadGradError, np.linalg.LinAlgError):
                return Trajectory(records=records, diverged=True)
            records.append(TrajectoryRecord(objective, theta.copy()))
    return Trajectory(records=records)
