import dataclasses
import math
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadgrad.gradients as gradients
import quadgrad.linalg as linalg
import quadgrad.optimizers as optimizers
from helpers import (RecordingLapack, count_errstates, peak_traced_bytes,
                     random_rank_deficient_symmetric)
from quadgrad import (
    InvalidInput,
    Method,
    ObjectiveFunction,
    OptimizerConfig,
    QuadGradError,
    Sense,
    TrajectoryRecord,
    Variant,
    booth,
    get_function,
    himmelblau,
    quadratic_counterexample,
    rosenbrock,
    run,
)
from quadgrad.bench import default_x0
from quadgrad.optimizers import (
    step_adam,
    step_enhanced_adagrad,
    step_gd_spectral,
    step_nag,
)

def synthetic(grad, hess, dim=2, sense=Sense.MINIMIZE):
    """Objective with constant gradient/Hessian, for stepping arithmetic tests."""
    g = np.asarray(grad, dtype=float)
    h = np.asarray(hess, dtype=float)
    return ObjectiveFunction(
        name="synthetic",
        dim=dim,
        sense=sense,
        value=lambda x: 0.0,
        gradient=lambda x: g.copy(),
        hessian=lambda x: h.copy(),
    )


def config(method, **kwargs):
    return OptimizerConfig(method=method, **kwargs)


def sign(f):
    return 1.0 if f.sense is Sense.MINIMIZE else -1.0


def direction(f, cfg, theta, h=None):
    """The direction ``run()`` hands ``cfg``'s step at ``theta``, built
    through ``_STEPS`` from the oriented gradient there and what is derived
    from the oriented Hessian ``h`` (by default the one at ``theta``)."""
    _, derive, along = optimizers._STEPS[cfg.method, cfg.qg_variant]
    if derive is None:
        c = None
    else:
        c = derive(sign(f) * f.hessian(theta) if h is None else h)
    return along(c, sign(f) * f.gradient(theta))


def start(x0):
    """The iterate at ``x0`` and the empty state, as ``run()`` hands them to every step."""
    return np.array(x0, dtype=float), []


def counted(f):
    """A copy of ``f`` that counts its value, gradient and Hessian calls."""
    calls = Counter()

    def wrap(name, fn):
        def counting(x):
            calls[name] += 1
            return fn(x)

        return counting

    counted_f = dataclasses.replace(
        f,
        value=wrap("value", f.value),
        gradient=wrap("gradient", f.gradient),
        hessian=wrap("hessian", f.hessian),
    )
    return counted_f, calls


def bowl():
    """``x @ x`` on two variables: gradient ``2x``, Hessian ``2I``."""
    return ObjectiveFunction(
        name="bowl",
        dim=2,
        sense=Sense.MINIMIZE,
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(2),
    )


def raising_on_call(f, name, call, exc):
    """A copy of ``f`` whose ``name`` callable raises ``exc`` on its ``call``-th call."""
    own = getattr(f, name)
    calls = []

    def raising(x):
        calls.append(x)
        if len(calls) == call:
            raise exc
        return own(x)

    return dataclasses.replace(f, **{name: raising})


STEP_FUNCTION = {
    Method.GD_SPECTRAL: "step_gd_spectral",
    Method.NAG_SPECTRAL: "step_nag",
    Method.ENHANCED_NAG: "step_nag",
    Method.ENHANCED_ADAGRAD: "step_enhanced_adagrad",
    Method.ADAM: "step_adam",
    Method.ENHANCED_ADAM: "step_adam",
}

# Every method once, ENHANCED_ADAM once per accelerator choice
METHOD_VARIANTS = [(m, None) for m in Method if m is not Method.ENHANCED_ADAM] + [
    (Method.ENHANCED_ADAM, v) for v in (None, Variant.ORIGINAL, Variant.NEW)
]

# The layers each (method, qg_variant) reaches on an objective whose
# Hessian is singular, so the Newton-ratio solve falls back to the
# pseudoinverse; perfbench's tracer rebinds each of these names.
LAYERS_REACHED = {
    (Method.GD_SPECTRAL, None): {"spectral_learning_rate", "spectral_bounds"},
    (Method.NAG_SPECTRAL, None): {"spectral_learning_rate", "spectral_bounds"},
    (Method.ENHANCED_NAG, None): {
        "spectral_learning_rate", "spectral_bounds", "bound_diagonal"
    },
    (Method.ENHANCED_ADAGRAD, None): {"bound_diagonal"},
    (Method.ADAM, None): set(),
    (Method.ENHANCED_ADAM, None): set(),
    (Method.ENHANCED_ADAM, Variant.ORIGINAL): {"bound_diagonal"},
    (Method.ENHANCED_ADAM, Variant.NEW): {
        "new_quadratic_gradient", "newton_ratios", "solve", "pseudoinverse"
    },
}

# The layers that depend on the Hessian alone: a frozen run reaches them
# once, at its first step; the Newton ratios also read g, so every step.
DERIVED_ONCE = {"spectral_learning_rate", "spectral_bounds", "bound_diagonal"}


def layer_calls(method, variant, fixed_hessian, steps):
    """Calls per layer that a run of ``steps`` steps makes."""
    return {
        name: 1 if fixed_hessian and name in DERIVED_ONCE else steps
        for name in LAYERS_REACHED[method, variant]
    }


# a Hessian evaluated every step, and one frozen at x0
FRESH_AND_FROZEN = pytest.mark.parametrize("fixed_hessian", [False, True],
                                           ids=["fresh", "frozen"])

def records(traj):
    return traj.diverged, [
        (k, r.objective, r.iterate.tobytes()) for k, r in enumerate(traj.records)
    ]


def frozen_reference(f, cfg, x0):
    """``records`` of a frozen-Hessian run(), rebuilt as a plain loop over
    the step functions that re-derives every step's direction through
    ``_STEPS`` from the Hessian at ``x0``, so nothing derived from it is
    reused between steps."""
    theta, state = start(x0)
    frozen = sign(f) * f.hessian(theta)
    rows = [(0, f.value(theta), theta.tobytes())]
    with np.errstate(all="ignore"):
        for t in range(1, cfg.max_iterations + 1):
            g = f.gradient(theta)
            if math.sqrt(g.dot(g)) <= optimizers.GRAD_TOL:
                break
            try:
                theta = getattr(optimizers, STEP_FUNCTION[cfg.method])(
                    theta, state, cfg, direction(f, cfg, theta, frozen))
            except (QuadGradError, np.linalg.LinAlgError):
                return True, rows
            within = np.all(np.abs(theta) <= optimizers.DIVERGENCE_BOUND)
            objective = f.value(theta) if within else math.nan
            if not math.isfinite(objective):
                return True, rows
            rows.append((t, objective, theta.tobytes()))
    return False, rows


class TestGdSpectral:
    def test_booth_first_step(self):
        # lr = 1/(18+eps), g(0,0) = (-34,-38) -> theta1 = (34/18, 38/18)
        f = booth()
        cfg = config(Method.GD_SPECTRAL)
        theta, state = start([0.0, 0.0])
        theta = step_gd_spectral(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_allclose(theta, [34.0 / 18.0, 38.0 / 18.0], atol=1e-7)
        assert state == []

    def test_fixed_point_at_maximum(self):
        f = quadratic_counterexample()
        cfg = config(Method.GD_SPECTRAL)
        theta, state = start([0.0, 0.0])
        theta = step_gd_spectral(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_array_equal(theta, [0.0, 0.0])

    def test_fixed_point_at_booth_minimum(self):
        f = booth()
        cfg = config(Method.GD_SPECTRAL)
        theta, state = start([1.0, 3.0])
        theta = step_gd_spectral(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_array_equal(theta, [1.0, 3.0])

    # steps taken from bench.default_x0 in 30 and 300 iterations: booth stops
    # at GRAD_TOL, himmelblau converges, and the counterexample starts at its
    # maximum, where the gradient is 0
    LEMMA_STEPS = {"booth": (30, 244), "beale": (30, 300), "himmelblau": (30, 84),
                   "rosenbrock:2": (30, 300), "quadratic-counterexample": (0, 0)}

    @pytest.mark.parametrize("function_id", LEMMA_STEPS)
    def test_every_step_from_the_documented_start_meets_the_lemma(self, function_id):
        # the paper's lemma, proved for quadratics: with lr = 1/(eps + max|lambda|)
        # of the Hessian at x_k, f(x_{k+1}) <= f(x_k) - lr |g_k|^2 / 2 (for a
        # maximised f, with f, g and H negated)
        f = get_function(function_id)
        s = sign(f)
        for iterations, steps in zip((30, 300), self.LEMMA_STEPS[function_id]):
            records = run(f, config(Method.GD_SPECTRAL, max_iterations=iterations),
                          default_x0(f)).records
            assert len(records) - 1 == steps
            for before, after in zip(records, records[1:]):
                g = s * f.gradient(before.iterate)
                lr = gradients.spectral_learning_rate(s * f.hessian(before.iterate))
                assert s * after.objective <= s * before.objective - lr * g.dot(g) / 2.0


class TestNag:
    def test_first_step_has_no_momentum(self):
        f = booth()
        cfg = config(Method.NAG_SPECTRAL)
        theta, state = start([0.0, 0.0])
        theta = step_nag(theta, state, cfg, direction(f, cfg, theta))
        # gamma_0 = 0, so beta_1 = V_1 = the plain spectral-rate step
        np.testing.assert_allclose(theta, [34.0 / 18.0, 38.0 / 18.0], atol=1e-7)
        np.testing.assert_array_equal(theta, state[0])

    def test_enhanced_step_on_counterexample(self):
        # from (-1,-1.5): row sums (6,4), g=(1,1), lr=1/(3+sqrt(5)+eps),
        # ascent V1 = theta + (1+lr)*(1/6, 1/4); frozen from that arithmetic
        f = quadratic_counterexample()
        cfg = config(Method.ENHANCED_NAG)
        theta, state = start([-1.0, -1.5])
        theta = step_nag(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_allclose(
            theta,
            [-0.801502832787444, -1.2022542494292874],
            atol=1e-10,
        )

    def test_fixed_point_at_optimum(self):
        f = quadratic_counterexample()
        cfg = config(Method.NAG_SPECTRAL)
        theta, state = start([0.0, 0.0])
        theta = step_nag(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_array_equal(theta, [0.0, 0.0])
        np.testing.assert_array_equal(state[0], [0.0, 0.0])

    def test_gamma_stays_in_unit_interval(self):
        f = rosenbrock(2)
        cfg = config(Method.ENHANCED_NAG, max_iterations=50)
        theta, state = start([-1.0, -1.0])
        a_prev = 1.0  # a_0
        for _ in range(50):
            theta = step_nag(theta, state, cfg, direction(f, cfg, theta))
            # gamma_t = (a_t - 1) / a_{t+1}
            assert 0.0 <= (a_prev - 1.0) / state[1] < 1.0
            a_prev = state[1]


class TestEnhancedAdagrad:
    def test_first_step_is_signlike(self):
        # accum = G^2 after one step, so the step is (1+eta)*sign(G) up to eps
        f = synthetic(grad=[6.0, -8.0], hess=[[5.0, 1.0], [1.0, 3.0]])
        cfg = config(Method.ENHANCED_ADAGRAD, stepsize=1.0)
        theta, state = start([0.0, 0.0])
        theta = step_enhanced_adagrad(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_allclose(theta, [-2.0, 2.0], rtol=1e-6)

    def test_second_step_accumulator_arithmetic(self):
        # G is constantly (1, 0)-like; second-step denominator is eps + sqrt(2)
        f = synthetic(grad=[6.0, 0.0], hess=[[5.0, 1.0], [1.0, 3.0]])
        eta = 0.5
        cfg = config(Method.ENHANCED_ADAGRAD, stepsize=eta)
        theta0, state = start([0.0, 0.0])
        theta1 = step_enhanced_adagrad(theta0, state, cfg, direction(f, cfg, theta0))
        theta2 = step_enhanced_adagrad(theta1, state, cfg, direction(f, cfg, theta1))
        second_step = theta1 - theta2
        assert second_step[0] == pytest.approx((1.0 + eta) / math.sqrt(2.0), rel=1e-6)
        assert second_step[1] == 0.0

    def test_fixed_point_at_optimum(self):
        f = booth()
        cfg = config(Method.ENHANCED_ADAGRAD)
        theta, state = start([1.0, 3.0])
        theta = step_enhanced_adagrad(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_array_equal(theta, [1.0, 3.0])


class TestAdam:
    def test_first_step_is_signlike(self):
        f = rosenbrock(2)
        cfg = config(Method.ADAM, stepsize=0.1)
        theta, state = start([-1.2, 1.0])
        g = f.gradient([-1.2, 1.0])
        theta = step_adam(theta, state, cfg, direction(f, cfg, theta))
        expected = np.array([-1.2, 1.0]) - 0.1 * np.sign(g)
        np.testing.assert_allclose(theta, expected, atol=1e-6)

    def test_zero_gradient_keeps_everything_zero(self):
        f = synthetic(grad=[0.0, 0.0], hess=np.eye(2))
        cfg = config(Method.ADAM, stepsize=0.1)
        theta, state = start([2.0, -1.0])
        for _ in range(5):
            theta = step_adam(theta, state, cfg, direction(f, cfg, theta))
        np.testing.assert_array_equal(theta, [2.0, -1.0])
        t, m, v = state
        assert t == 5
        np.testing.assert_array_equal(m, [0.0, 0.0])
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_enhanced_with_identity_accelerator_matches_plain(self):
        f = rosenbrock(2)
        plain_cfg = config(Method.ADAM, stepsize=0.1)
        enhanced_cfg = config(Method.ENHANCED_ADAM, stepsize=0.1, qg_variant=None)
        plain, plain_state = start([-1.2, 1.0])
        enhanced, enhanced_state = start([-1.2, 1.0])
        # both take the identity accelerator's path, so every bit agrees
        for _ in range(25):
            plain = step_adam(plain, plain_state, plain_cfg, direction(f, plain_cfg, plain))
            enhanced = step_adam(enhanced, enhanced_state, enhanced_cfg,
                                 direction(f, enhanced_cfg, enhanced))
            np.testing.assert_array_equal(plain, enhanced)

    def test_moment_invariants(self):
        f = rosenbrock(2)
        cfg = config(Method.ADAM, stepsize=0.1)
        theta, state = start([-1.0, -1.0])
        largest_gradient = 0.0
        for _ in range(60):
            largest_gradient = max(
                largest_gradient, float(np.max(np.abs(f.gradient(theta))))
            )
            theta = step_adam(theta, state, cfg, direction(f, cfg, theta))
            _, m, v = state
            assert np.all(v >= 0.0)
            assert np.max(np.abs(m)) <= largest_gradient + 1e-12


ADAM_SPECIALS = [0.0, -0.0, 5e-324, 1e200, -1.7e308, math.inf, -math.inf, math.nan]


@st.composite
def adam_steps(draw):
    """A start point and the directions of consecutive Adam steps, for n from 1
    to two past the float path's largest: each direction entry a normal scaled
    by 10**U(-3, 3), or one of ``ADAM_SPECIALS``."""
    n = draw(st.integers(1, optimizers._ADAM_FLOAT_MAX_N + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def direction():
        specials = draw(st.lists(st.none() | st.sampled_from(ADAM_SPECIALS),
                                 min_size=n, max_size=n))
        normals = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        return np.array([v if s is None else s for v, s in zip(normals.tolist(), specials)])

    return rng.standard_normal(n), [direction() for _ in range(draw(st.integers(1, 4)))]


def adam_path(theta, directions, stepsize, switch):
    """Each step's iterate and moments, with step_adam's switch at ``switch``."""
    cfg, state, steps = config(Method.ADAM, stepsize=stepsize), [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizers, "_ADAM_FLOAT_MAX_N", switch)
        for d in directions:
            theta = step_adam(theta, state, cfg, d)
            steps.append([theta, *state[1:]])
    assert state[0] == len(directions)
    return steps


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=adam_steps(), stepsize=st.sampled_from([0.1, 1.0, 2.0]) | st.floats(1e-6, 1e6))
def test_adam_floats_are_the_arrays_bit_for_bit(case, stepsize):
    # NaN payloads may differ between the paths, NaN positions may not
    theta, directions = case
    n = theta.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = adam_path(theta, directions, stepsize, n)
        with np.errstate(all="ignore"):  # as run() steps
            arrays = adam_path(theta, directions, stepsize, n - 1)
    for float_step, array_step in zip(floats, arrays):
        for a, b in zip(float_step, array_step):
            assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (n,)
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
            assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


@pytest.mark.parametrize("n", [1, optimizers._ADAM_FLOAT_MAX_N, optimizers._ADAM_FLOAT_MAX_N + 1])
def test_adam_maps_the_formula_over_floats_up_to_the_switch(monkeypatch, n):
    own, seen = optimizers._adam_update, []

    def recording(*args):
        seen.append(type(args[0]))
        return own(*args)

    monkeypatch.setattr(optimizers, "_adam_update", recording)
    step_adam(np.ones(n), [], config(Method.ADAM), np.ones(n))
    assert seen == ([float] * n if n <= optimizers._ADAM_FLOAT_MAX_N else [np.ndarray])


@pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
def test_first_step_fills_the_documented_state(method, variant):
    # every rule starts from the empty list run() hands it
    f = booth()
    cfg = config(method, qg_variant=variant)
    theta, state = start([0.0, 0.0])
    d = direction(f, cfg, theta)
    theta = getattr(optimizers, STEP_FUNCTION[method])(theta, state, cfg, d)
    expected = {
        "step_gd_spectral": [],
        # V_1 is the first iterate (gamma_0 = 0); a_1 = (1 + sqrt 5) / 2
        "step_nag": [theta, (1.0 + math.sqrt(5.0)) / 2.0],
        "step_enhanced_adagrad": [d * d],
        "step_adam": [1, (1.0 - optimizers.BETA1) * d, (1.0 - optimizers.BETA2) * d * d],
    }[STEP_FUNCTION[method]]
    assert len(state) == len(expected)
    for held, value in zip(state, expected):
        assert type(held) is type(value)
        np.testing.assert_array_equal(held, value, strict=True)


class TestRun:
    def test_gd_converges_on_booth(self):
        traj = run(booth(), config(Method.GD_SPECTRAL, max_iterations=200), [0.0, 0.0])
        assert traj.records[-1].objective <= 1e-6
        assert not traj.diverged

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_constant_trajectory_from_optimum(self, method, variant):
        f = booth()
        cfg = config(method, max_iterations=10, qg_variant=variant)
        traj = run(f, cfg, [1.0, 3.0])
        # the gradient vanishes at the optimum: a GRAD_TOL stop before any step
        assert not traj.diverged
        assert len(traj.records) == 1
        assert all(r.objective == 0.0 for r in traj.records)
        for record in traj.records:
            np.testing.assert_array_equal(record.iterate, [1.0, 3.0])

    def test_adam_descends_on_rosenbrock(self):
        f = rosenbrock(2)
        traj = run(f, config(Method.ADAM, stepsize=0.1, max_iterations=30), [-1.2, 1.0])
        assert traj.records[0].objective == pytest.approx(24.2)
        assert traj.records[-1].objective < 24.2

    def test_iterations_indexed_from_zero(self):
        traj = run(booth(), config(Method.GD_SPECTRAL, max_iterations=7), [0.0, 0.0])
        assert len(traj.records) == 8

    def test_record_holds_no_step_number(self):
        # records[k] follows k steps: the index is the step number
        assert [field.name for field in dataclasses.fields(TrajectoryRecord)] == [
            "objective", "iterate"]

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_deterministic(self, method, variant):
        f = rosenbrock(2)
        cfg = config(method, stepsize=0.5, max_iterations=40, qg_variant=variant)
        first = run(f, cfg, [-1.0, -1.0])
        second = run(f, cfg, [-1.0, -1.0])
        assert first.diverged == second.diverged
        assert len(first.records) == len(second.records)
        for a, b in zip(first.records, second.records):
            assert a.objective == b.objective
            np.testing.assert_array_equal(a.iterate, b.iterate)

    # zero curvature makes the spectral rate 1/EPSILON = 1e8 exactly, so the first step
    # lands at x0 - 1e8 * g. A norm within DIVERGENCE_BOUND's square root passes at once;
    # beyond it max|theta| decides, so (9e11, 9e11) and exactly +-1e12 go on
    @pytest.mark.parametrize("x0, gradient, landing, stops", [
        pytest.param([0.0, 0.0], [1e5, 1e5], [-1e13, -1e13], True, id="beyond"),
        pytest.param([0.0, 0.0], [-1e4, 1e4], [1e12, -1e12], False, id="at-the-bound"),
        pytest.param([np.nextafter(1e12, np.inf), 0.0], [0.0, 1.0],
                     [np.nextafter(1e12, np.inf), -1e8], True, id="one-ulp-beyond"),
        pytest.param([0.0, 0.0], [-9e3, -9e3], [9e11, 9e11], False, id="norm-beyond"),
        pytest.param([0.0, 0.0], [1e-3, 1e-3], [-1e5, -1e5], False, id="norm-within"),
        pytest.param([0.0, 0.0], [np.nan, 1.0], [np.nan, -1e8], True, id="nan"),
        pytest.param([0.0, 0.0], [1.0, -np.inf], [-1e8, np.inf], True, id="inf"),
    ])
    def test_divergence_bound_flags_run(self, x0, gradient, landing, stops):
        f, calls = counted(synthetic(grad=gradient, hess=np.zeros((2, 2))))
        traj = run(f, config(Method.GD_SPECTRAL, max_iterations=1), x0)
        assert traj.diverged == stops
        if stops:
            assert len(traj.records) == 1  # partial trajectory kept
            assert calls["value"] == 1  # at x0 only, never beyond the bound
            with np.errstate(all="ignore"):
                step = direction(f, config(Method.GD_SPECTRAL), np.array(x0))
            np.testing.assert_array_equal(np.array(x0) - step, landing)
        else:
            assert calls["value"] == 2
            assert traj.records[1].iterate.tolist() == landing

    def test_grad_tol_stop_is_not_divergence(self):
        # the spectral rate 1/(EPSILON + 2) takes each step to about
        # EPSILON / 2 times the last iterate, so the gradient falls below
        # GRAD_TOL after two steps
        traj = run(bowl(), config(Method.GD_SPECTRAL, max_iterations=10), [1.0, 1.0])
        assert not traj.diverged
        assert len(traj.records) == 3

    # the synthetic objective is always 0, so only the iterate check or a
    # step that breaks down can flag these runs: the NaN gradient under plain
    # Adam makes a NaN iterate, the last three make the step raise
    @pytest.mark.parametrize(
        "gradient, hessian, method, variant",
        [
            ([1e300, 0.0], np.zeros((2, 2)), Method.GD_SPECTRAL, None),
            ([np.nan, 0.0], np.zeros((2, 2)), Method.ADAM, None),
            ([1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]], Method.GD_SPECTRAL, None),
            ([1.0, 1.0], [[1.0, 2.0], [0.0, 1.0]], Method.NAG_SPECTRAL, None),
            ([np.nan, 0.0], np.eye(2), Method.ENHANCED_ADAM, Variant.NEW),
        ],
        ids=[
            "huge-gradient-gd-spectral",
            "nan-gradient-adam",
            "nan-hessian-gd-spectral",
            "asymmetric-hessian-nag-spectral",
            "nan-gradient-adam-newqg",
        ],
    )
    @FRESH_AND_FROZEN
    def test_nonfinite_iterate_flags_run(self, gradient, hessian, method, variant,
                                         fixed_hessian):
        f = synthetic(grad=gradient, hess=hessian)
        cfg = config(method, max_iterations=10, qg_variant=variant,
                     fixed_hessian=fixed_hessian)
        traj = run(f, cfg, [0.0, 0.0])
        assert traj.diverged
        assert len(traj.records) == 1

    # an inf Hessian entry once gave that coordinate a zero row-sum
    # accelerator, so it stopped moving and the run went on unflagged
    @pytest.mark.parametrize("entry", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("method, variant", [
        pair for pair in METHOD_VARIANTS if "bound_diagonal" in LAYERS_REACHED[pair]])
    @FRESH_AND_FROZEN
    def test_nonfinite_row_sum_flags_run(self, entry, method, variant, fixed_hessian):
        f = synthetic(grad=[1.0, 1.0], hess=[[entry, 0.0], [0.0, 2.0]])
        cfg = config(method, qg_variant=variant, max_iterations=5,
                     fixed_hessian=fixed_hessian)
        traj = run(f, cfg, [1.0, 1.0])
        assert traj.diverged
        assert len(traj.records) == 1

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_one_evaluation_per_quantity_per_step(self, method, variant):
        # the Hessian is evaluated per step, or once at x0 when frozen, and
        # never for a method that does not read it
        reads_hessian = bool(LAYERS_REACHED[method, variant])
        for fixed_hessian in (False, True):
            f, calls = counted(rosenbrock(5))
            cfg = config(method, stepsize=1.0, qg_variant=variant,
                         max_iterations=100, fixed_hessian=fixed_hessian)
            traj = run(f, cfg, -np.ones(5))
            assert len(traj.records) == 101
            hessian_calls = (1 if fixed_hessian else 100) if reads_hessian else 0
            assert calls == Counter(value=101, gradient=100, hessian=hessian_calls)

    @FRESH_AND_FROZEN
    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_steps_reach_traced_layers(self, method, variant, fixed_hessian, monkeypatch):
        # run() must keep reaching these through the module globals that
        # perfbench's tracer rebinds, or its per-layer spans go silent; a
        # frozen Hessian's learning rate and row sums are derived once
        calls = Counter()
        layers = [
            (optimizers, "spectral_learning_rate"),
            (optimizers, "bound_diagonal"),
            (optimizers, "new_quadratic_gradient"),
            (gradients, "spectral_bounds"),
            (gradients, "newton_ratios"),
            (gradients, "solve"),
            (gradients, "pseudoinverse"),
        ]
        for module, name in layers:
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        f = synthetic(grad=[1.0, 2.0], hess=[[1.0, 1.0], [1.0, 1.0]])
        cfg = config(method, qg_variant=variant, max_iterations=20,
                     fixed_hessian=fixed_hessian)
        traj = run(f, cfg, [0.0, 0.0])
        assert len(traj.records) == 21
        assert calls == layer_calls(method, variant, fixed_hessian, 20)

    @pytest.mark.parametrize("objective", ["rosenbrock-30", "dense-singular"])
    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_frozen_run_equals_rederiving_every_step(self, method, variant, objective):
        # deriving the frozen Hessian's rate and row sums once keeps every bit
        if objective == "rosenbrock-30":
            f, x0 = rosenbrock(30), -np.ones(30)
        else:
            rng = np.random.default_rng(7)
            f = synthetic(grad=rng.uniform(-2.0, 2.0, 6),
                          hess=random_rank_deficient_symmetric(rng, 6, 3), dim=6)
            x0 = np.zeros(6)
        cfg = config(method, stepsize=0.5, qg_variant=variant, max_iterations=50,
                     fixed_hessian=True)
        expected = frozen_reference(f, cfg, x0)
        assert len(expected[1]) > 2
        assert records(run(f, cfg, x0)) == expected

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_objective_reusing_its_hessian_buffer(self, method, variant):
        # every Hessian lands in one buffer, so a cache keyed on the array's
        # identity would hand later steps the first step's derived values
        f = rosenbrock(10)
        buffer = np.empty((10, 10))

        def hessian_in_place(x):
            np.copyto(buffer, f.hessian(x))
            return buffer

        reusing = dataclasses.replace(f, hessian=hessian_in_place)
        cfg = config(method, stepsize=0.5, qg_variant=variant, max_iterations=50)
        expected = records(run(f, cfg, -np.ones(10)))
        assert len(expected[1]) == 51
        assert records(run(reusing, cfg, -np.ones(10))) == expected

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_steps_dispatch_through_module_attributes(self, method, variant, monkeypatch):
        # a step_* rebound on the module (e.g. a tracing wrapper) must be the
        # one run() calls, once per step
        calls = Counter()
        for name in set(STEP_FUNCTION.values()):
            original = getattr(optimizers, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(optimizers, name, counting)
        cfg = config(method, max_iterations=20, qg_variant=variant)
        traj = run(rosenbrock(2), cfg, [-1.0, -1.0])
        assert len(traj.records) == 21
        assert calls == {STEP_FUNCTION[method]: 20}

    # Rosenbrock(30) is tridiagonal by its nonzero count; Himmelblau's Hessian is 2 x 2
    @pytest.mark.parametrize("f", [rosenbrock(30), himmelblau()],
                             ids=["rosenbrock30", "himmelblau"])
    def test_tridiagonal_path_keeps_trajectories_bit_identical(self, monkeypatch, f):
        x0 = default_x0(f)
        methods = [Method.GD_SPECTRAL, Method.NAG_SPECTRAL, Method.ENHANCED_NAG]
        cfgs = [config(m, max_iterations=50) for m in methods]
        banded = [records(run(f, cfg, x0)) for cfg in cfgs]
        monkeypatch.setattr(linalg, "_RMAX", 0.0)  # an empty dsterf window: eigvalsh only
        dense = [records(run(f, cfg, x0)) for cfg in cfgs]
        assert all(len(r[1]) == 51 for r in banded)
        assert banded == dense

    def test_fixed_hessian_flag_changes_gd_path(self):
        f = rosenbrock(2)
        frozen = run(
            f,
            config(Method.GD_SPECTRAL, max_iterations=20, fixed_hessian=True),
            [-1.0, -1.0],
        )
        fresh = run(f, config(Method.GD_SPECTRAL, max_iterations=20), [-1.0, -1.0])
        assert frozen.records[2].objective != fresh.records[2].objective

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_holds_one_hessian_per_step(self, method, variant):
        # the objective's Hessian plus O(n) work; the Newton-ratio solve
        # also needs its LU factor
        f = rosenbrock(300)
        h = f.hessian(-np.ones(300))
        cfg = config(method, stepsize=1.0, qg_variant=variant, max_iterations=3)
        peak = peak_traced_bytes(run, f, cfg, -np.ones(300))
        limit = 2.5 if variant is Variant.NEW else 1.5
        assert peak <= limit * h.nbytes

    @pytest.mark.parametrize("sense", list(Sense))
    def test_steps_get_the_objectives_own_arrays(self, sense, monkeypatch):
        returned = []

        def record(a):
            returned.append(a)
            return a

        f = synthetic(grad=[1.0, 2.0], hess=[[3.0, 1.0], [1.0, 2.0]], sense=sense)
        f = dataclasses.replace(
            f,
            gradient=lambda x, _g=f.gradient: record(_g(x)),
            hessian=lambda x, _h=f.hessian: record(_h(x)),
        )
        derived, directed, stepped = [], [], []

        def derive(h):
            derived.append(h)
            return 0.5

        def along(c, g):
            directed.append((c, g))
            return np.zeros(2)

        def spy(theta, state, config, d):
            stepped.append(d)
            return theta

        monkeypatch.setitem(optimizers._STEPS, (Method.GD_SPECTRAL, None),
                            ("step_gd_spectral", derive, along))
        monkeypatch.setattr(optimizers, "step_gd_spectral", spy)
        run(f, config(Method.GD_SPECTRAL, max_iterations=3), [0.0, 0.0])
        assert len(derived) == len(directed) == len(stepped) == 3 and len(returned) == 6
        for h, (c, g), d, own_g, own_h in zip(derived, directed, stepped, returned[::2],
                                              returned[1::2]):
            # never written: the objective hands out copies of these constants
            np.testing.assert_array_equal(own_g, [1.0, 2.0])
            np.testing.assert_array_equal(own_h, [[3.0, 1.0], [1.0, 2.0]])
            assert c == 0.5
            # the step moves along what direction() returned, as it is
            assert d is not g and np.array_equal(d, [0.0, 0.0])
            if sense is Sense.MINIMIZE:
                assert g is own_g and h is own_h
            else:
                assert g is not own_g and h is not own_h
                np.testing.assert_array_equal(g, -own_g)
                np.testing.assert_array_equal(h, -own_h)

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_nonfinite_objective_at_x0_raises_before_iterating(self, method, variant):
        f, calls = counted(rosenbrock(2))
        cfg = config(method, qg_variant=variant, max_iterations=3)
        with pytest.raises(InvalidInput, match="not finite at x0"):
            run(f, cfg, [1e80, 1e80])
        assert calls == Counter(value=1)

    # math.isfinite raises OverflowError for a real number beyond the float range
    # and 10**5000 has more digits than str() converts
    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400), 10**5000],
                             ids=["int", "negative-int", "fraction", "int-5001-digits"])
    def test_objective_beyond_float_range_at_x0_raises_before_iterating(self, value):
        f, calls = counted(ObjectiveFunction(
            name="huge", dim=2, sense=Sense.MINIMIZE, value=lambda x: value,
            gradient=lambda x: np.ones(2), hessian=lambda x: np.eye(2)))
        with pytest.raises(InvalidInput, match="not finite at x0") as info:
            run(f, config(Method.GD_SPECTRAL), [0.0, 0.0])
        assert type(info.value) is InvalidInput
        assert str(info.value) == "objective is not finite at x0: beyond the float range"
        assert calls == Counter(value=1)

    @pytest.mark.parametrize("x0", [
        [1j, 0], np.array([1 + 1j, 0]), np.array([1 + 0j, 0]), ["a", "b"], ["1", "2"],
        [[1.0], [1.0, 2.0]], [None, 0.0],
    ], ids=["complex-list", "complex-array", "real-valued-complex", "strings",
            "numeric-strings", "ragged", "object"])
    def test_non_real_x0_raises_typed_error_before_iterating(self, x0):
        # a complex array is refused, not cast to real under a ComplexWarning
        f, calls = counted(booth())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="expected real numbers"):
                run(f, config(Method.GD_SPECTRAL), x0)
        assert calls == Counter()

    @pytest.mark.parametrize("x0, message", [
        ([math.nan, 0.0], "x0 must be finite"),
        (np.array([0.0, math.inf]), "x0 must be finite"),
        ([-math.inf, 1.0], "x0 must be finite"),
        ([0.0, 0.0, 0.0], "x0 has dim 3, objective needs 2"),
        ([0.0], "x0 has dim 1, objective needs 2"),
        ([], "expected a vector, got shape (0,)"),
        ([[0.0, 0.0]], "expected a vector, got shape (1, 2)"),
        (np.zeros((2, 2)), "expected a vector, got shape (2, 2)"),
    ], ids=["nan", "inf", "minus-inf", "length-3", "length-1", "empty", "row", "2x2"])
    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    @FRESH_AND_FROZEN
    def test_bad_x0_raises_before_any_evaluation(self, x0, message, method, variant,
                                                 fixed_hessian):
        f, calls = counted(booth())
        cfg = config(method, qg_variant=variant, fixed_hessian=fixed_hessian)
        with pytest.raises(InvalidInput) as info:
            run(f, cfg, x0)
        assert type(info.value) is InvalidInput
        assert str(info.value) == message
        assert calls == Counter()

    @pytest.mark.parametrize("value", [1j, "1.0", None, [1.0], np.array([1.0])],
                             ids=["complex", "string", "none", "list", "shape-1-array"])
    def test_non_real_objective_at_x0_raises_before_iterating(self, value):
        f, calls = counted(ObjectiveFunction(
            name="non-real", dim=2, sense=Sense.MINIMIZE, value=lambda x: value,
            gradient=lambda x: np.ones(2), hessian=lambda x: np.eye(2)))
        with pytest.raises(InvalidInput, match="objective's value must be a real number"):
            run(f, config(Method.GD_SPECTRAL), [0.0, 0.0])
        assert calls == Counter(value=1)

    @pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1)],
                             ids=["int", "float", "float64", "float32", "int64"])
    def test_real_scalar_objective_accepted(self, value):
        f = ObjectiveFunction(name="scalar", dim=2, sense=Sense.MINIMIZE,
                              value=lambda x: value, gradient=lambda x: np.ones(2),
                              hessian=lambda x: np.eye(2))
        traj = run(f, config(Method.GD_SPECTRAL, max_iterations=2), [0.0, 0.0])
        assert [r.objective for r in traj.records] == [1.0, 1.0, 1.0]

    def test_non_real_objective_after_x0_flags_divergence(self):
        # holds until the run reports why it stopped, not only that it diverged
        values = iter([1.0])
        f = ObjectiveFunction(name="turns-complex", dim=2, sense=Sense.MINIMIZE,
                              value=lambda x: next(values, 1j), gradient=lambda x: np.ones(2),
                              hessian=lambda x: np.eye(2))
        traj = run(f, config(Method.ADAM, max_iterations=3), [0.0, 0.0])
        assert traj.diverged
        assert [r.objective for r in traj.records] == [1.0]

    # math.isfinite accepts a numpy complex scalar under a ComplexWarning
    # instead of raising, so the x0 rule (a real number that is finite) must
    # decide every later value too
    @pytest.mark.parametrize("value", [
        np.complex128(1 + 1j), np.complex64(1), 1j, "1.0", None, np.array([1.0]), math.nan,
        -math.inf, np.float64(math.inf), 10**400, Fraction(10**400),
    ], ids=["complex128", "complex64", "complex", "string", "none", "shape-1-array", "nan",
            "minus-inf", "float64-inf", "int-beyond-float", "fraction-beyond-float"])
    def test_bad_objective_after_x0_flags_divergence_without_warning(self, value):
        values = iter([1.0, 2.0])
        f = ObjectiveFunction(name="turns-bad", dim=2, sense=Sense.MINIMIZE,
                              value=lambda x: next(values, value), gradient=lambda x: np.ones(2),
                              hessian=lambda x: np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(f, config(Method.ADAM, max_iterations=5), [0.0, 0.0])
        assert traj.diverged
        assert [r.objective for r in traj.records] == [1.0, 2.0]

    # the objective's first gradient and Hessian are well formed, so a step
    # runs; from the second call on one of them is not. A bad Hessian is seen
    # only by a method that reads one, and not at all when it is frozen at x0
    @pytest.mark.parametrize("name, bad", [
        ("gradient", np.ones(3)),
        ("gradient", np.ones((2, 1))),
        ("gradient", [1.0, 2.0]),
        ("gradient", np.array([1j, 0.0])),
        ("Hessian", np.ones((3, 3))),
        ("Hessian", np.ones(2)),
        ("Hessian", [[10.0, 8.0], [8.0, 10.0]]),
        ("Hessian", np.eye(2, dtype=complex)),
    ], ids=["gradient-3", "gradient-column", "gradient-list", "gradient-complex",
            "hessian-3x3", "hessian-vector", "hessian-list", "hessian-complex"])
    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    @FRESH_AND_FROZEN
    def test_malformed_later_output_flags_divergence(self, name, bad, method, variant,
                                                      fixed_hessian):
        f = booth()
        good = getattr(f, name.lower())
        first = []

        def turning(x):
            first.append(x)
            return good(x) if len(first) == 1 else bad

        f = dataclasses.replace(f, **{name.lower(): turning})
        cfg = config(method, qg_variant=variant, fixed_hessian=fixed_hessian, max_iterations=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(f, cfg, [0.0, 0.0])
        reads_hessian = bool(LAYERS_REACHED[method, variant])
        seen = name == "gradient" or (reads_hessian and not fixed_hessian)
        assert traj.diverged == seen
        assert len(traj.records) == (2 if seen else 6)

    # ValueError stands for any Exception the objective's own code raises. At
    # call 1 it is at x0: the objective is bad input. Later it ends the run;
    # a raising value loses its iterate, a raising gradient or Hessian comes
    # before a step. A frozen Hessian is evaluated once, and a method that
    # reads no Hessian never evaluates one, so some of these never raise
    @pytest.mark.parametrize("name, label", [("value", "value"), ("gradient", "gradient"),
                                             ("hessian", "Hessian")])
    @pytest.mark.parametrize("call", [1, 3])
    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    @FRESH_AND_FROZEN
    def test_objective_raising_is_bad_input_at_x0_and_divergence_later(
            self, name, label, call, method, variant, fixed_hessian):
        f = raising_on_call(booth(), name, call, ValueError("boom"))
        cfg = config(method, qg_variant=variant, fixed_hessian=fixed_hessian, max_iterations=5)
        reads_hessian = bool(LAYERS_REACHED[method, variant])
        made = {"value": 6, "gradient": 5,
                "hessian": (1 if fixed_hessian else 5) if reads_hessian else 0}[name]
        if call == 1 and made:
            with pytest.raises(InvalidInput) as info:
                run(f, cfg, [0.0, 0.0])
            assert type(info.value) is InvalidInput
            assert str(info.value) == f"the objective's {label} raised ValueError('boom')"
            assert type(info.value.__cause__) is ValueError
            return
        traj = run(f, cfg, [0.0, 0.0])
        if call > made:
            assert not traj.diverged and len(traj.records) == 6
        else:
            assert traj.diverged
            assert len(traj.records) == (call - 1 if name == "value" else call)

    @pytest.mark.parametrize("call", [1, 3])
    @pytest.mark.parametrize("name", ["value", "gradient", "hessian"])
    def test_interrupt_from_the_objective_propagates(self, name, call):
        # only an Exception is the objective's failure; KeyboardInterrupt is the caller's
        f = raising_on_call(booth(), name, call, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run(f, config(Method.GD_SPECTRAL, max_iterations=5), [0.0, 0.0])

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_frozen_hessian_is_derived_at_the_first_step(self, method, variant, monkeypatch):
        # Booth's gradient vanishes at (1, 3), so the run takes no step: the
        # Hessian frozen there is evaluated but nothing is derived from it
        calls = Counter()
        for name in ("spectral_learning_rate", "bound_diagonal", "new_quadratic_gradient"):
            original = getattr(optimizers, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(optimizers, name, counting)
        f, evaluations = counted(booth())
        cfg = config(method, qg_variant=variant, fixed_hessian=True)
        assert len(run(f, cfg, [1.0, 3.0]).records) == 1
        assert calls == Counter()
        assert evaluations["hessian"] == bool(LAYERS_REACHED[method, variant])

    @pytest.mark.parametrize("cfg",["adam", Method.ADAM, None, {"method": Method.ADAM}],
                             ids=["string", "method", "none", "dict"])
    def test_config_of_wrong_type_rejected(self, cfg):
        with pytest.raises(InvalidInput, match="config must be an OptimizerConfig, got"):
            run(booth(), cfg, [0.0, 0.0])

    @pytest.mark.parametrize("f", ["booth", None, booth],
                             ids=["string", "none", "factory"])
    def test_objective_of_wrong_type_rejected(self, f):
        with pytest.raises(InvalidInput, match="f must be an ObjectiveFunction, got") as info:
            run(f, config(Method.ADAM), [0.0, 0.0])
        assert type(info.value) is InvalidInput

    # an int64 g.dot(g) wraps around: 2 * (3e9)**2 and 2 * (2**31)**2 go
    # negative, (2**32)**2 goes to 0 and 2 * (3.5e9)**2 to a wrong positive norm
    @pytest.mark.parametrize("gradient", [[3_000_000_000] * 2, [2**31] * 2, [2**32, 0],
                                          [3_500_000_000] * 2],
                             ids=["3e9", "2**31", "2**32-and-0", "3.5e9"])
    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    @FRESH_AND_FROZEN
    def test_integer_outputs_run_as_their_float64_values(self, gradient, method, variant,
                                                         fixed_hessian):
        def objective(dtype):
            g = np.array(gradient, dtype=dtype)
            h = np.array([[2, 1], [1, 3]], dtype=dtype)
            return ObjectiveFunction(name="integer", dim=2, sense=Sense.MINIMIZE,
                                     value=lambda x: float(x.sum()),
                                     gradient=lambda x: g.copy(), hessian=lambda x: h.copy())

        cfg = config(method, qg_variant=variant, fixed_hessian=fixed_hessian, max_iterations=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(objective(np.int64), cfg, [0.0, 0.0])
        reference = run(objective(np.float64), cfg, [0.0, 0.0])
        assert not traj.diverged and len(traj.records) == 5
        assert [(r.objective, r.iterate.tobytes()) for r in traj.records] == [
            (r.objective, r.iterate.tobytes()) for r in reference.records]

    # each objective returns its first gradient or Hessian in a form a step
    # would misread: a list has no .dot, a (1,) gradient broadcasts over a
    # 2-D iterate, a 3x3 Hessian fails only some steps, a list cannot be
    # negated for a maximisation problem
    @pytest.mark.parametrize("gradient, hessian, method, sense, name", [
        ([1.0, 2.0], np.eye(2), Method.ADAM, Sense.MINIMIZE, "gradient"),
        (np.array([1.0]), np.eye(2), Method.ADAM, Sense.MINIMIZE, "gradient"),
        (np.ones((2, 1)), np.eye(2), Method.ADAM, Sense.MINIMIZE, "gradient"),
        (np.array([1j, 0.0]), np.eye(2), Method.ADAM, Sense.MINIMIZE, "gradient"),
        (np.array(["a", "b"]), np.eye(2), Method.ADAM, Sense.MINIMIZE, "gradient"),
        (np.ones(2), np.eye(3), Method.ENHANCED_ADAGRAD, Sense.MINIMIZE, "Hessian"),
        (np.ones(2), np.eye(3), Method.GD_SPECTRAL, Sense.MINIMIZE, "Hessian"),
        (np.ones(2), [[1.0, 0.0], [0.0, 1.0]], Method.GD_SPECTRAL, Sense.MAXIMIZE, "Hessian"),
    ], ids=["list-gradient", "short-gradient", "column-gradient", "complex-gradient",
            "string-gradient", "oversized-hessian-enhanced-adagrad",
            "oversized-hessian-gd-spectral", "list-hessian-maximize"])
    @FRESH_AND_FROZEN
    def test_malformed_first_output_raises_before_any_step(
            self, gradient, hessian, method, sense, name, fixed_hessian, monkeypatch):
        f, calls = counted(ObjectiveFunction(
            name="malformed", dim=2, sense=sense, value=lambda x: 0.0,
            gradient=lambda x: gradient, hessian=lambda x: hessian))
        monkeypatch.setattr(optimizers, STEP_FUNCTION[method],
                            lambda *args: pytest.fail("a step ran"))
        cfg = config(method, fixed_hessian=fixed_hessian)
        with pytest.raises(InvalidInput, match=f"objective's {name} must be a real array"):
            run(f, cfg, [0.0, 0.0])
        reads_hessian = method is not Method.ADAM
        # the frozen Hessian is evaluated, and checked, before the first gradient
        gradient_calls = 0 if fixed_hessian and name == "Hessian" else 1
        assert calls == Counter(value=1, gradient=gradient_calls, hessian=int(reads_hessian))

    def test_overflow_mid_run_raises_no_warning(self):
        # the objective at x0 is 1e282, finite; Adam's qg * qg overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(rosenbrock(2), config(Method.ADAM), [1e70, 1e70])
        assert traj.records[0].objective == pytest.approx(1e282)

    def test_maximization_improves_objective(self):
        f = quadratic_counterexample()
        traj = run(f, config(Method.GD_SPECTRAL, max_iterations=300), [-1.0, -1.5])
        objectives = traj.objectives()
        assert objectives[-1] > objectives[0]
        assert abs(objectives[-1]) <= 1e-6


class TestConfigValidation:
    def test_holds_only_the_caller_set_fields(self):
        fields = [field.name for field in dataclasses.fields(OptimizerConfig)]
        assert fields == ["method", "stepsize", "qg_variant", "max_iterations",
                          "fixed_hessian"]

    def test_steps_table_holds_exactly_the_valid_pairs(self):
        # Method x {None, *Variant}, with a variant on ENHANCED_ADAM only
        pairs = [(m, v) for m in Method for v in (None, *Variant)
                 if v is None or m is Method.ENHANCED_ADAM]
        assert len(pairs) == len(optimizers._STEPS) == 8
        assert set(optimizers._STEPS) == set(pairs)

    def test_rejects_bad_stepsize(self):
        with pytest.raises(InvalidInput):
            OptimizerConfig(method=Method.ADAM, stepsize=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("method", "adam"),
            ("stepsize", "0.1"),
            ("stepsize", math.inf),
            ("stepsize", math.nan),
            ("stepsize", True),
            pytest.param("stepsize", np.True_, id="stepsize-numpy-true"),
            ("stepsize", -1.0),
            pytest.param("stepsize", Fraction(1, 10**400), id="stepsize-rounds-to-zero"),
            pytest.param("stepsize", 10**400, id="stepsize-int-1e400"),
            pytest.param("stepsize", Fraction(10**400), id="stepsize-fraction-1e400"),
            ("qg_variant", "new"),
            ("max_iterations", 2.5),
            ("max_iterations", "3"),
            ("max_iterations", True),
            ("fixed_hessian", "no"),
            ("fixed_hessian", 1),
        ],
    )
    def test_rejects_wrong_type_or_range(self, field, value):
        fields = {"method": Method.ENHANCED_ADAM, field: value}
        with pytest.raises(InvalidInput, match=field):
            OptimizerConfig(**fields)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("variant", [None, *Variant])
    def test_qg_variant_only_on_enhanced_adam(self, method, variant):
        # the other methods would ignore it and alias the run without one,
        # so 8 of the 18 pairs are valid: METHOD_VARIANTS
        if (method, variant) in METHOD_VARIANTS:
            assert OptimizerConfig(method, qg_variant=variant).qg_variant is variant
        else:
            with pytest.raises(InvalidInput, match="qg_variant"):
                OptimizerConfig(method, qg_variant=variant)

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    @pytest.mark.parametrize("stepsize", [Fraction(1, 10), 1, np.float32(0.1), np.int64(1)],
                             ids=["fraction", "int", "float32", "int64"])
    def test_stepsize_stored_as_float(self, stepsize, method, variant):
        # a Fraction stepsize used to turn Adam's iterates into dtype object;
        # the stored float gives the same bits as passing it directly
        cfg = config(method, stepsize=stepsize, qg_variant=variant, max_iterations=3)
        assert type(cfg.stepsize) is float and cfg.stepsize == float(stepsize)
        as_float = config(method, stepsize=float(stepsize), qg_variant=variant,
                          max_iterations=3)
        for got, want in zip(run(rosenbrock(2), cfg, [-1.0, -1.0]).records,
                             run(rosenbrock(2), as_float, [-1.0, -1.0]).records):
            assert got.iterate.dtype == np.float64
            assert got.iterate.tobytes() == want.iterate.tobytes()

    def test_accepts_numpy_scalars(self):
        cfg = OptimizerConfig(Method.ADAM, stepsize=np.float64(0.5),
                              max_iterations=np.int64(3), fixed_hessian=np.bool_(True))
        assert len(run(booth(), cfg, [0.0, 0.0]).records) == 4


# numpy ufunc reductions per step of a 30-step run: each costs about 0.55 us of set-up
# whatever its length, so one put back on the step path shows here. bound_diagonal sums
# the rows (1); both objectives compute on Python floats, and spectral_bounds reads a
# 2 x 2 Hessian as floats too. The matrix guard at these sizes (one dlange call), solve's
# pivot test on Python floats, the finiteness, row-sum and asymmetry guards on vectors,
# and the divergence test within the bound's square root reduce nothing
REDUCTIONS_PER_STEP = {
    (Method.GD_SPECTRAL, None): {"booth": 0, "rosenbrock:5": 0},
    (Method.NAG_SPECTRAL, None): {"booth": 0, "rosenbrock:5": 0},
    (Method.ENHANCED_NAG, None): {"booth": 1, "rosenbrock:5": 1},
    (Method.ENHANCED_ADAGRAD, None): {"booth": 1, "rosenbrock:5": 1},
    (Method.ADAM, None): {"booth": 0, "rosenbrock:5": 0},
    (Method.ENHANCED_ADAM, None): {"booth": 0, "rosenbrock:5": 0},
    (Method.ENHANCED_ADAM, Variant.ORIGINAL): {"booth": 1, "rosenbrock:5": 1},
    (Method.ENHANCED_ADAM, Variant.NEW): {"booth": 0, "rosenbrock:5": 0},
}


def ufunc_reductions(fn, *args):
    """``fn(*args)`` and the number of ``ufunc.reduce`` calls it made."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (event == "c_call" and getattr(arg, "__name__", None) == "reduce"
                and isinstance(getattr(arg, "__self__", None), np.ufunc)):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, count


@pytest.mark.parametrize("f, x0", [
    (booth(), [-1.0, -1.5]), (rosenbrock(5), -np.ones(5)),
], ids=["booth", "rosenbrock:5"])
@pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
def test_reductions_per_step(method, variant, f, x0):
    # none at x0: as_point's finiteness test is one dlange call
    traj, count = ufunc_reductions(
        run, f, config(method, qg_variant=variant, max_iterations=30), x0)
    assert len(traj.records) == 31 and not traj.diverged
    assert count == 30 * REDUCTIONS_PER_STEP[method, variant][f.name]


def negated(f):
    """``-f``, declared a maximisation problem: ``run()`` minimises ``f`` through it."""
    return dataclasses.replace(
        f, name=f"-{f.name}", sense=Sense.MAXIMIZE, value=lambda x, _v=f.value: -_v(x),
        gradient=lambda x, _g=f.gradient: -_g(x), hessian=lambda x, _h=f.hessian: -_h(x))


def newqg(stepsize=1.0, **kwargs):
    return config(Method.ENHANCED_ADAM, qg_variant=Variant.NEW, stepsize=stepsize, **kwargs)


class TestLuWorkspace:
    """Inside ``run()``, ``solve`` factors in one F-ordered buffer the run owns."""

    @pytest.fixture
    def lapack(self, monkeypatch):
        recording = RecordingLapack(linalg._lapack)
        monkeypatch.setattr(linalg, "_lapack", recording)
        return recording

    # the run's scope with an empty slot: the errstate holds, and solve factors dgesv's own copy
    scope_without_buffer = staticmethod(lambda slot: linalg._run_scope([]))

    def assert_let_go(self, lapack):
        """Every buffer ``lapack`` saw factored in place is freed, and no workspace is set."""
        assert all(ref() is None for ref in lapack.buffers())
        assert linalg._workspace.get() is None

    def singular(self):
        """Constant gradient and a rank-2 Hessian of order 4: LU runs, then fails the pivot
        test, so every step falls back to the pseudoinverse."""
        h = random_rank_deficient_symmetric(np.random.default_rng(5), 4, 2)
        return synthetic(grad=[1.0, -2.0, 0.5, 3.0], hess=h, dim=4)

    @pytest.mark.parametrize("f", [rosenbrock(5), rosenbrock(30)], ids=["n5", "n30"])
    @pytest.mark.parametrize("sense", list(Sense))
    @FRESH_AND_FROZEN
    def test_same_bits_as_without_it(self, f, sense, fixed_hessian, lapack, monkeypatch):
        f = f if sense is Sense.MINIMIZE else negated(f)
        cfg = newqg(max_iterations=40, fixed_hessian=fixed_hessian)
        x0 = -np.ones(f.dim)
        with_workspace = records(run(f, cfg, x0))
        # one buffer for the whole run, factored in place and returned as the factor
        assert len(lapack.factored) == 40 and len(lapack.buffers()) == 1
        assert all(in_place for _, in_place in lapack.factored)
        monkeypatch.setattr(optimizers, "_run_scope", self.scope_without_buffer)
        del lapack.factored[:]
        assert records(run(f, cfg, x0)) == with_workspace
        assert lapack.factored == [(None, False)] * 40

    @FRESH_AND_FROZEN
    def test_pseudoinverse_fallback_gives_the_same_bits(self, fixed_hessian, lapack,
                                                        monkeypatch):
        f = self.singular()
        fallbacks = []
        monkeypatch.setattr(gradients, "pseudoinverse",
                            lambda a, _p=gradients.pseudoinverse: fallbacks.append(1) or _p(a))
        cfg = newqg(max_iterations=20, fixed_hessian=fixed_hessian)
        with_workspace = records(run(f, cfg, np.zeros(4)))
        assert len(fallbacks) == len(lapack.factored) == 20 and len(lapack.buffers()) == 1
        monkeypatch.setattr(optimizers, "_run_scope", self.scope_without_buffer)
        assert records(run(f, cfg, np.zeros(4))) == with_workspace
        assert len(fallbacks) == 40

    @pytest.mark.parametrize("f", [
        rosenbrock(30),
        dataclasses.replace(rosenbrock(30), hessian=lambda x: np.asfortranarray(
            rosenbrock(30).hessian(x))),
        None,
    ], ids=["rosenbrock:30", "rosenbrock:30-F-ordered", "singular"])
    @pytest.mark.parametrize("sense", list(Sense))
    @FRESH_AND_FROZEN
    def test_objectives_hessians_are_left_alone(self, f, sense, fixed_hessian):
        f = self.singular() if f is None else f
        f = f if sense is Sense.MINIMIZE else negated(f)
        returned = []

        def hessian(x):
            h = f.hessian(x)
            returned.append((h, h.tobytes()))
            return h

        run(dataclasses.replace(f, hessian=hessian), newqg(max_iterations=10,
                                                           fixed_hessian=fixed_hessian),
            np.linspace(-1.0, 1.0, f.dim))
        assert len(returned) == (1 if fixed_hessian else 10)
        assert all(h.tobytes() == before for h, before in returned)

    def stops(self):
        """Per way a run can end after its first solve, an objective of order 5 on which a
        3-step AdamNewQG run ends that way: (objective, stepsize, diverged, records kept)."""
        f = rosenbrock(5)
        calls = Counter()

        def after(name, call, value):
            def fn(x):
                calls[name] += 1
                return value(x) if calls[name] >= call else getattr(f, name)(x)
            return fn

        return {
            "budget": (f, 1.0, False, 4),
            "grad-tol": (dataclasses.replace(f, gradient=after("gradient", 3, np.zeros_like)),
                         1.0, False, 3),
            "bound-exceeded": (f, 1e13, True, 1),
            "step-failed": (dataclasses.replace(
                f, hessian=after("hessian", 3, lambda x: np.full((5, 5), np.nan))),
                1.0, True, 3),
            "bad-value": (dataclasses.replace(f, value=after("value", 3, lambda x: math.nan)),
                          1.0, True, 2),
        }

    @pytest.mark.parametrize("f, method, variant", [
        (name, method, variant) for name in ("rosenbrock:5", "rosenbrock:29")
        for method, variant in METHOD_VARIANTS] + [
        ("singular", method, variant) for method, variant in [
            (Method.GD_SPECTRAL, None), (Method.NAG_SPECTRAL, None), (Method.ENHANCED_NAG, None),
            (Method.ENHANCED_ADAM, Variant.NEW)]])
    @FRESH_AND_FROZEN
    def test_a_run_enters_one_errstate(self, f, method, variant, fixed_hessian, monkeypatch):
        """The scope's errstate is the only one: the ``_quiet`` kernels, and Rosenbrock's
        array callables at n = 29, compute as they are. Rosenbrock's Hessian is tridiagonal;
        the singular objective's dense Hessian takes ``spectral_bounds`` through its dense
        asymmetry test, and AdamNewQG through the pseudoinverse."""
        f = self.singular() if f == "singular" else get_function(f)
        made = count_errstates(monkeypatch)
        cfg = config(method, qg_variant=variant, max_iterations=10, fixed_hessian=fixed_hessian)
        assert len(run(f, cfg, default_x0(f)).records) == 11
        assert made == [{"all": "ignore"}]

    @pytest.mark.parametrize("stop", ["budget", "grad-tol", "bound-exceeded", "step-failed",
                                      "bad-value"])
    def test_buffer_is_let_go_at_every_stop(self, stop, lapack):
        f, stepsize, diverged, kept = self.stops()[stop]
        traj = run(f, newqg(stepsize, max_iterations=3), -np.ones(5))
        assert traj.diverged == diverged and len(traj.records) == kept
        assert lapack.buffers()
        self.assert_let_go(lapack)

    def test_no_buffer_when_x0_is_refused(self, lapack):
        f = dataclasses.replace(rosenbrock(5), value=lambda x: math.nan)
        with pytest.raises(InvalidInput):
            run(f, newqg(), -np.ones(5))
        assert lapack.factored == []
        self.assert_let_go(lapack)

    def test_buffer_is_let_go_when_the_gradient_interrupts(self, lapack):
        f = raising_on_call(rosenbrock(5), "gradient", 3, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run(f, newqg(max_iterations=5), -np.ones(5))
        assert len(lapack.factored) == 2 and len(lapack.buffers()) == 1
        self.assert_let_go(lapack)

    def test_nested_run_has_its_own_buffer(self, lapack):
        inner_f, outer_f = rosenbrock(30), rosenbrock(5)
        cfg = newqg(max_iterations=6)
        inner, outer_buffers = [], []

        def hessian(x):
            inner.append(records(run(inner_f, cfg, default_x0(inner_f))))
            buffer = linalg._workspace.get()[0]
            outer_buffers.append((id(buffer), buffer.shape))
            return outer_f.hessian(x)

        nested = records(run(dataclasses.replace(outer_f, hessian=hessian), cfg,
                             default_x0(outer_f)))
        assert len(lapack.buffers()) == 1 + 6  # the outer run's and each inner run's
        assert nested == records(run(outer_f, cfg, default_x0(outer_f)))
        assert inner == [records(run(inner_f, cfg, default_x0(inner_f)))] * 6
        # after each inner run the outer run has its own buffer back, the same one from
        # its first solve on
        assert outer_buffers[0][1] == (0,)
        assert len(set(outer_buffers[1:])) == 1 and outer_buffers[1][1] == (5, 5)
        self.assert_let_go(lapack)

    def test_threads_have_their_own_buffers(self, lapack):
        # the two runs take their steps in turn, each thread's Hessian waiting for the other
        sizes, steps = (5, 30), 25
        turns = threading.Barrier(2, timeout=30)
        seen, results = {n: set() for n in sizes}, {}

        def hessian_of(f):
            def hessian(x):
                turns.wait()
                seen[f.dim].add(linalg._workspace.get()[0].shape)
                return f.hessian(x)
            return hessian

        def work(f):
            traced = dataclasses.replace(f, hessian=hessian_of(f))
            results[f.dim] = records(run(traced, newqg(max_iterations=steps), default_x0(f)))

        threads = [threading.Thread(target=work, args=(rosenbrock(n),)) for n in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for n in sizes:
            f = rosenbrock(n)
            assert results[n] == records(run(f, newqg(max_iterations=steps), default_x0(f)))
            # each thread's buffer is of its own order, never the other's
            assert seen[n] == {(0,), (n, n)}
        assert linalg._workspace.get() is None
