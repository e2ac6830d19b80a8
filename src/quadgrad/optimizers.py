"""Iteration engines: spectral-rate gradient descent, NAG, Adagrad, and Adam,
each in a plain and a quadratic-gradient-accelerated form.

All methods minimize; an objective declared as a maximization problem is
run on its negation internally, while trajectories always record the
original objective value.

``run()`` owns the iterate and every evaluation: the gradient once per step,
the Hessian once per step only for methods that read it (or once at ``x0``
when ``fixed_hessian`` is set), both negated for a maximisation problem and
passed on as the objective returned them otherwise. Each ``step_*`` is an
update rule ``step(theta, state, config, g, h) -> theta_new``: ``g`` is the
oriented gradient at ``theta``, ``h`` a ``Curvature`` holding the oriented
Hessian there, and ``state`` the method's own history, a list that
``run()`` builds at ``x0`` from ``_STEPS`` and the step updates in place
(empty for GD-spectral). No step writes ``theta``, ``g`` or an
array it stored. The spectral learning rate and the row-sum diagonal depend
on the Hessian alone, so ``Curvature`` computes each at most once per
Hessian: once per step, or once per run under ``fixed_hessian``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, QuadGradError
from .functions import ObjectiveFunction, Sense
from .gradients import Variant, bound_diagonal, new_quadratic_gradient, spectral_learning_rate
from .linalg import as_vector

# Adam's moment decay rates and denominator guard, as in Kingma and Ba; the
# enhanced Adagrad shares the guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON_ADAM = 1e-8
# run() stops when the gradient norm falls to GRAD_TOL, and flags a run whose
# iterate has a coordinate beyond DIVERGENCE_BOUND in magnitude.
GRAD_TOL = 1e-12
DIVERGENCE_BOUND = 1e12


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
    point instead of re-evaluating per iteration: the Hessian, its spectral
    learning rate and its row-sum diagonal are each derived once per run.
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
        if self.qg_variant is not None and self.method is not Method.ENHANCED_ADAM:
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


class Curvature:
    """One oriented Hessian ``h`` and the quantities derived from it alone.

    ``learning_rate`` and ``bound`` call ``spectral_learning_rate`` and
    ``bound_diagonal`` through this module's names at first use and keep the
    result, so each is computed at most once per Hessian. A computation that
    raises keeps nothing. ``h`` must not be written while the holder is in use.
    """

    __slots__ = ("h", "_learning_rate", "_bound")

    def __init__(self, h: np.ndarray):
        self.h = h
        self._learning_rate = None
        self._bound = None

    @property
    def learning_rate(self) -> float:
        """``spectral_learning_rate(h)``."""
        if self._learning_rate is None:
            self._learning_rate = spectral_learning_rate(self.h)
        return self._learning_rate

    @property
    def bound(self) -> np.ndarray:
        """``bound_diagonal(h)``; callers must not write it."""
        if self._bound is None:
            self._bound = bound_diagonal(self.h)
        return self._bound


def step_gd_spectral(
    theta: np.ndarray, state: list, config: OptimizerConfig, g: np.ndarray, h: Curvature
) -> np.ndarray:
    """Plain gradient descent whose learning rate is the reciprocal spectral
    radius of the current Hessian; ``state`` is empty."""
    return theta - h.learning_rate * g


def step_nag(
    theta: np.ndarray, state: list, config: OptimizerConfig, g: np.ndarray, h: Curvature
) -> np.ndarray:
    """One accelerated-gradient step; ``state`` is ``[V_t, a_t]``, the
    previous lookahead point and the Nesterov sequence value.

    NAG_SPECTRAL steps by the spectral learning rate; ENHANCED_NAG steps by
    (1 + lr) times the row-sum-accelerated gradient. Both then blend the
    new and previous lookahead points with the Nesterov weight sequence
    (a_0 = 1, a_{t+1} = (1 + sqrt(1 + 4 a_t^2)) / 2, gamma_t = (a_t - 1) / a_{t+1}).
    """
    lr = h.learning_rate
    enhanced = config.method is Method.ENHANCED_NAG
    v_new = theta - ((1.0 + lr) * h.bound * g if enhanced else lr * g)
    v_prev, a = state
    a_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a * a))
    gamma = (a - 1.0) / a_next
    state[:] = v_new, a_next
    return (1.0 - gamma) * v_new + gamma * v_prev


def step_enhanced_adagrad(
    theta: np.ndarray, state: list, config: OptimizerConfig, g: np.ndarray, h: Curvature
) -> np.ndarray:
    """Adagrad on the row-sum quadratic gradient with a (1 + eta) numerator;
    ``state`` is ``[accumulator]``, the running sum of squared quadratic gradients."""
    qg = h.bound * g
    accum = state[0] + qg * qg
    state[0] = accum
    scale = (1.0 + config.stepsize) / (EPSILON_ADAM + np.sqrt(accum))
    return theta - scale * qg


# The gradient Adam feeds its moments, per qg_variant (always None for ADAM)
_ACCELERATED = {
    None: lambda g, h: g,
    Variant.ORIGINAL: lambda g, h: h.bound * g,
    Variant.NEW: lambda g, h: new_quadratic_gradient(h.h, g),
}


def step_adam(
    theta: np.ndarray, state: list, config: OptimizerConfig, g: np.ndarray, h: Curvature | None
) -> np.ndarray:
    """One Adam step with bias correction; ``state`` is ``[t, m, v]``, the
    steps taken and the two moments.

    The accelerated gradient (per ``qg_variant``) feeds both moment
    accumulators; everything else is the standard update. ``h`` is read
    only with a ``qg_variant``, so it may be None without one.
    """
    qg = _ACCELERATED[config.qg_variant](g, h)
    t, m, v = state
    t += 1
    m = BETA1 * m + (1.0 - BETA1) * qg
    v = BETA2 * v + (1.0 - BETA2) * qg * qg
    state[:] = t, m, v
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    return theta - config.stepsize * m_hat / (np.sqrt(v_hat) + EPSILON_ADAM)


# Method -> (its step function's name, whether it reads the Hessian without a
# qg_variant, the step's state at x0). run() looks the name up in the module
# globals when it starts, so a rebound ``step_*`` (a wrapper installed from
# outside) is the one run.
_STEPS = {
    Method.GD_SPECTRAL: ("step_gd_spectral", True, lambda x0: []),
    Method.NAG_SPECTRAL: ("step_nag", True, lambda x0: [x0, 1.0]),
    Method.ENHANCED_NAG: ("step_nag", True, lambda x0: [x0, 1.0]),
    Method.ENHANCED_ADAGRAD: ("step_enhanced_adagrad", True, lambda x0: [np.zeros_like(x0)]),
    Method.ADAM: ("step_adam", False, lambda x0: [0, np.zeros_like(x0), np.zeros_like(x0)]),
    Method.ENHANCED_ADAM: ("step_adam", False,
                           lambda x0: [0, np.zeros_like(x0), np.zeros_like(x0)]),
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
    ``ObjectiveFunction``, ``config`` not an ``OptimizerConfig``, or ``x0``
    not a vector of ``f.dim`` finite real numbers; and before the first step
    when the objective's value at ``x0`` is not a finite real number, its gradient
    there not a real ndarray of shape (n,), or its Hessian (for a method that
    reads one) not one of shape (n, n).
    The gradient is evaluated once per step and shared by the ``GRAD_TOL``
    check and the step; the Hessian once per step after that check (once at
    ``x0`` under ``fixed_hessian``), and only for methods that read it. Each
    Hessian reaches the step in a ``Curvature``, which derives its spectral
    learning rate and row-sum diagonal at most once: per step, or per run
    under ``fixed_hessian``. A gradient or Hessian of another real dtype is
    converted to float64 once; ``run()`` neither copies nor writes the float64
    arrays the objective returns: a minimised objective's gradient and Hessian
    reach the step as they are, a maximised one's are negated into new arrays.
    Divergence (a step that raises a ``QuadGradError`` or ``LinAlgError`` on
    a breakdown, a non-finite iterate, any coordinate beyond
    ``DIVERGENCE_BOUND``, or a later value, gradient or Hessian that fails
    the checks made at ``x0``) truncates the trajectory and sets the flag;
    it is never raised to the caller. The objective is not evaluated at an
    iterate that failed the bound.
    Floating-point overflow and invalid operations raise no warnings: the
    run's checks see their inf and NaN results instead.
    """
    if not isinstance(f, ObjectiveFunction):
        raise InvalidInput(f"f must be an ObjectiveFunction, got {type(f).__name__}")
    if not isinstance(config, OptimizerConfig):
        raise InvalidInput(f"config must be an OptimizerConfig, got {type(config).__name__}")
    theta = as_vector(x0).copy()
    if theta.shape[0] != f.dim:
        raise InvalidInput(f"x0 has dim {theta.shape[0]}, objective needs {f.dim}")
    if not np.isfinite(theta).all():
        raise InvalidInput("x0 must be finite")
    step_name, reads_hessian, initial_state = _STEPS[config.method]
    step = globals()[step_name]
    state = initial_state(theta)
    reads_hessian = reads_hessian or config.qg_variant is not None
    n = f.dim

    def evaluated(name, fn, shape):
        a = fn(theta)
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "biuf" and a.shape == shape):
            got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
            raise InvalidInput(f"the objective's {name} must be a real array of shape "
                               f"{shape}, got {got}")
        a = np.asarray(a, dtype=float)  # an integer a.dot(a) would wrap around
        return -1.0 * a if f.sense is Sense.MAXIMIZE else a

    fresh_hessian = reads_hessian and not config.fixed_hessian
    with np.errstate(all="ignore"):
        objective = f.value(theta)
        if not _finite_real(objective):
            if not isinstance(objective, numbers.Real):
                raise InvalidInput(f"the objective's value must be a real number, "
                                   f"got {type(objective).__name__}")
            # a real that is not a float fails only beyond the float range: no digits
            shown = (objective if isinstance(objective, (float, np.floating))
                     else "beyond the float range")
            raise InvalidInput(f"objective is not finite at x0: {shown}")
        frozen = (Curvature(evaluated("Hessian", f.hessian, (n, n)))
                  if reads_hessian and config.fixed_hessian else None)
        records = [TrajectoryRecord(objective, theta.copy())]
        diverged = False
        for _ in range(config.max_iterations):
            try:
                g = evaluated("gradient", f.gradient, (n,))
                # sqrt(g.dot(g)) is np.linalg.norm(g) without its call
                # overhead; an overflowed norm is inf and fails GRAD_TOL
                if math.sqrt(g.dot(g)) <= GRAD_TOL:
                    break
                h = Curvature(evaluated("Hessian", f.hessian, (n, n))) if fresh_hessian else frozen
            except InvalidInput:
                if len(records) == 1:  # no step has run: the objective is bad input
                    raise
                diverged = True
                break
            try:
                theta = step(theta, state, config, g, h)
            except (QuadGradError, np.linalg.LinAlgError):
                diverged = True
                break
            # free this step's Hessian before the next one is allocated: holding
            # it alive moved n=1000 step times by up to 2x either way (allocator)
            del h
            # NaN and inf fail the comparison too, so this one test catches both
            within = (abs(theta) <= DIVERGENCE_BOUND).all()
            objective = f.value(theta) if within else math.nan
            if not _finite_real(objective):
                diverged = True
                break
            records.append(TrajectoryRecord(objective, theta.copy()))
    return Trajectory(records=records, diverged=diverged)
