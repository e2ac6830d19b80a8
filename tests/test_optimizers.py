import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

import quadgrad.gradients as gradients
import quadgrad.linalg as linalg
import quadgrad.optimizers as optimizers
from helpers import peak_traced_bytes
from quadgrad import (
    InvalidInput,
    Method,
    ObjectiveFunction,
    OptimizerConfig,
    Sense,
    Variant,
    booth,
    init_state,
    quadratic_counterexample,
    rosenbrock,
    run,
    step_adam,
    step_enhanced_adagrad,
    step_gd_spectral,
    step_nag,
)

ALL_METHODS = list(Method)


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


def grad(f, state):
    """The oriented gradient at ``state.theta``, as ``run()`` hands it to a step."""
    return sign(f) * f.gradient(state.theta)


def hess(f, state):
    """The oriented Hessian at ``state.theta``, as ``run()`` hands it to a step."""
    return sign(f) * f.hessian(state.theta)


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


class TestGdSpectral:
    def test_booth_first_step(self):
        # lr = 1/(18+eps), g(0,0) = (-34,-38) -> theta1 = (34/18, 38/18)
        f = booth()
        state = init_state(f, [0.0, 0.0])
        state = step_gd_spectral(
            state, config(Method.GD_SPECTRAL), grad(f, state), hess(f, state)
        )
        np.testing.assert_allclose(state.theta, [34.0 / 18.0, 38.0 / 18.0], atol=1e-7)
        assert state.t == 1

    def test_fixed_point_at_maximum(self):
        f = quadratic_counterexample()
        state = init_state(f, [0.0, 0.0])
        state = step_gd_spectral(
            state, config(Method.GD_SPECTRAL), grad(f, state), hess(f, state)
        )
        np.testing.assert_array_equal(state.theta, [0.0, 0.0])

    def test_fixed_point_at_booth_minimum(self):
        f = booth()
        state = init_state(f, [1.0, 3.0])
        state = step_gd_spectral(
            state, config(Method.GD_SPECTRAL), grad(f, state), hess(f, state)
        )
        np.testing.assert_array_equal(state.theta, [1.0, 3.0])


class TestNag:
    def test_first_step_has_no_momentum(self):
        f = booth()
        cfg = config(Method.NAG_SPECTRAL)
        state = init_state(f, [0.0, 0.0])
        state = step_nag(state, cfg, grad(f, state), hess(f, state), enhanced=False)
        # gamma_0 = 0, so beta_1 = V_1 = the plain spectral-rate step
        np.testing.assert_allclose(state.theta, [34.0 / 18.0, 38.0 / 18.0], atol=1e-7)
        np.testing.assert_array_equal(state.theta, state.momentum_prev)

    def test_enhanced_step_on_counterexample(self):
        # from (-1,-1.5): row sums (6,4), g=(1,1), lr=1/(3+sqrt(5)+eps),
        # ascent V1 = theta + (1+lr)*(1/6, 1/4); frozen from that arithmetic
        f = quadratic_counterexample()
        cfg = config(Method.ENHANCED_NAG)
        state = init_state(f, [-1.0, -1.5])
        state = step_nag(state, cfg, grad(f, state), hess(f, state), enhanced=True)
        np.testing.assert_allclose(
            state.theta,
            [-0.801502832787444, -1.2022542494292874],
            atol=1e-10,
        )

    def test_fixed_point_at_optimum(self):
        f = quadratic_counterexample()
        cfg = config(Method.NAG_SPECTRAL)
        state = init_state(f, [0.0, 0.0])
        state = step_nag(state, cfg, grad(f, state), hess(f, state), enhanced=False)
        np.testing.assert_array_equal(state.theta, [0.0, 0.0])
        np.testing.assert_array_equal(state.momentum_prev, [0.0, 0.0])

    def test_gamma_stays_in_unit_interval(self):
        f = rosenbrock(2)
        cfg = config(Method.ENHANCED_NAG, max_iterations=50)
        state = init_state(f, [-1.0, -1.0])
        for _ in range(50):
            a_prev = state.nag_a
            state = step_nag(state, cfg, grad(f, state), hess(f, state), enhanced=True)
            # gamma_t = (a_t - 1) / a_{t+1}
            assert 0.0 <= (a_prev - 1.0) / state.nag_a < 1.0


class TestEnhancedAdagrad:
    def test_first_step_is_signlike(self):
        # accum = G^2 after one step, so the step is (1+eta)*sign(G) up to eps
        f = synthetic(grad=[6.0, -8.0], hess=[[5.0, 1.0], [1.0, 3.0]])
        cfg = config(Method.ENHANCED_ADAGRAD, stepsize=1.0)
        state = init_state(f, [0.0, 0.0])
        state = step_enhanced_adagrad(state, cfg, grad(f, state), hess(f, state))
        np.testing.assert_allclose(state.theta, [-2.0, 2.0], rtol=1e-6)

    def test_second_step_accumulator_arithmetic(self):
        # G is constantly (1, 0)-like; second-step denominator is eps + sqrt(2)
        f = synthetic(grad=[6.0, 0.0], hess=[[5.0, 1.0], [1.0, 3.0]])
        eta = 0.5
        cfg = config(Method.ENHANCED_ADAGRAD, stepsize=eta)
        state = init_state(f, [0.0, 0.0])
        state = step_enhanced_adagrad(state, cfg, grad(f, state), hess(f, state))
        theta1 = state.theta.copy()
        state = step_enhanced_adagrad(state, cfg, grad(f, state), hess(f, state))
        second_step = theta1 - state.theta
        assert second_step[0] == pytest.approx((1.0 + eta) / math.sqrt(2.0), rel=1e-6)
        assert second_step[1] == 0.0

    def test_fixed_point_at_optimum(self):
        f = booth()
        cfg = config(Method.ENHANCED_ADAGRAD)
        state = init_state(f, [1.0, 3.0])
        state = step_enhanced_adagrad(state, cfg, grad(f, state), hess(f, state))
        np.testing.assert_array_equal(state.theta, [1.0, 3.0])


class TestAdam:
    def test_first_step_is_signlike(self):
        f = rosenbrock(2)
        cfg = config(Method.ADAM, stepsize=0.1)
        state = init_state(f, [-1.2, 1.0])
        g = f.gradient([-1.2, 1.0])
        state = step_adam(state, cfg, grad(f, state), None, enhanced=False)
        expected = np.array([-1.2, 1.0]) - 0.1 * np.sign(g)
        np.testing.assert_allclose(state.theta, expected, atol=1e-6)

    def test_zero_gradient_keeps_everything_zero(self):
        f = synthetic(grad=[0.0, 0.0], hess=np.eye(2))
        cfg = config(Method.ADAM, stepsize=0.1)
        state = init_state(f, [2.0, -1.0])
        for _ in range(5):
            state = step_adam(state, cfg, grad(f, state), None, enhanced=False)
        np.testing.assert_array_equal(state.theta, [2.0, -1.0])
        np.testing.assert_array_equal(state.m, [0.0, 0.0])
        np.testing.assert_array_equal(state.v, [0.0, 0.0])

    def test_enhanced_with_identity_accelerator_matches_plain(self):
        f = rosenbrock(2)
        plain_cfg = config(Method.ADAM, stepsize=0.1)
        enhanced_cfg = config(Method.ENHANCED_ADAM, stepsize=0.1, qg_variant=None)
        plain = init_state(f, [-1.2, 1.0])
        enhanced = init_state(f, [-1.2, 1.0])
        for _ in range(25):
            plain = step_adam(plain, plain_cfg, grad(f, plain), None, enhanced=False)
            enhanced = step_adam(
                enhanced, enhanced_cfg, grad(f, enhanced), None, enhanced=True
            )
            assert np.max(np.abs(plain.theta - enhanced.theta)) <= 1e-12

    def test_moment_invariants(self):
        f = rosenbrock(2)
        cfg = config(Method.ADAM, stepsize=0.1)
        state = init_state(f, [-1.0, -1.0])
        largest_gradient = 0.0
        for _ in range(60):
            largest_gradient = max(
                largest_gradient, float(np.max(np.abs(f.gradient(state.theta))))
            )
            state = step_adam(state, cfg, grad(f, state), None, enhanced=False)
            assert np.all(state.v >= 0.0)
            assert np.max(np.abs(state.m)) <= largest_gradient + 1e-12


class TestRun:
    def test_gd_converges_on_booth(self):
        traj = run(booth(), config(Method.GD_SPECTRAL, max_iterations=200), [0.0, 0.0])
        assert traj.records[-1].objective <= 1e-6
        assert not traj.diverged

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_constant_trajectory_from_optimum(self, method):
        f = booth()
        cfg = config(method, max_iterations=10, qg_variant=Variant.ORIGINAL)
        traj = run(f, cfg, [1.0, 3.0])
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
        assert [r.iteration for r in traj.records] == list(range(8))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_deterministic(self, method):
        f = rosenbrock(2)
        cfg = config(method, stepsize=0.5, max_iterations=40, qg_variant=Variant.NEW)
        first = run(f, cfg, [-1.0, -1.0])
        second = run(f, cfg, [-1.0, -1.0])
        assert first.diverged == second.diverged
        assert len(first.records) == len(second.records)
        for a, b in zip(first.records, second.records):
            assert a.objective == b.objective
            np.testing.assert_array_equal(a.iterate, b.iterate)

    def test_divergence_bound_flags_run(self):
        # zero curvature makes the spectral rate 1/EPSILON = 1e8, so the
        # first step lands at 1e13, beyond DIVERGENCE_BOUND
        f = synthetic(grad=[1e5, 1e5], hess=np.zeros((2, 2)))
        cfg = config(Method.GD_SPECTRAL, max_iterations=10)
        traj = run(f, cfg, [0.0, 0.0])
        assert traj.diverged
        assert len(traj.records) == 1  # partial trajectory kept

    # the synthetic objective is always 0, so only the iterate check or a
    # step that breaks down can flag these runs: the NaN gradient under plain
    # Adam makes a NaN iterate, the last three make the step raise
    @pytest.mark.parametrize(
        "gradient, hessian, method",
        [
            ([1e300, 0.0], np.zeros((2, 2)), Method.GD_SPECTRAL),
            ([np.nan, 0.0], np.zeros((2, 2)), Method.ADAM),
            ([1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]], Method.GD_SPECTRAL),
            ([1.0, 1.0], [[1.0, 2.0], [0.0, 1.0]], Method.NAG_SPECTRAL),
            ([np.nan, 0.0], np.eye(2), Method.ENHANCED_ADAM),
        ],
        ids=[
            "huge-gradient-gd-spectral",
            "nan-gradient-adam",
            "nan-hessian-gd-spectral",
            "asymmetric-hessian-nag-spectral",
            "nan-gradient-adam-newqg",
        ],
    )
    def test_nonfinite_iterate_flags_run(self, gradient, hessian, method):
        f = synthetic(grad=gradient, hess=hessian)
        # only ENHANCED_ADAM reads qg_variant
        cfg = config(method, max_iterations=10, qg_variant=Variant.NEW)
        traj = run(f, cfg, [0.0, 0.0])
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

    @pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
    def test_steps_reach_traced_layers(self, method, variant, monkeypatch):
        # the steps must keep calling these through the module globals that
        # perfbench's tracer rebinds, or its per-layer spans go silent
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
        cfg = config(method, qg_variant=variant, max_iterations=20)
        traj = run(f, cfg, [0.0, 0.0])
        assert len(traj.records) == 21
        assert calls == {name: 20 for name in LAYERS_REACHED[method, variant]}

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_steps_dispatch_through_module_attributes(self, method, monkeypatch):
        # a step_* rebound on the module (e.g. a tracing wrapper) must be the
        # one run() calls, once per step
        calls = Counter()
        for name in set(STEP_FUNCTION.values()):
            original = getattr(optimizers, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(optimizers, name, counting)
        cfg = config(method, max_iterations=20, qg_variant=Variant.NEW)
        traj = run(rosenbrock(2), cfg, [-1.0, -1.0])
        assert len(traj.records) == 21
        assert calls == {STEP_FUNCTION[method]: 20}

    def test_tridiagonal_path_keeps_trajectories_bit_identical(self, monkeypatch):
        def records(traj):
            return traj.diverged, [
                (r.iteration, r.objective, r.iterate.tobytes()) for r in traj.records
            ]

        f = rosenbrock(30)
        x0 = -np.ones(30)
        methods = [Method.GD_SPECTRAL, Method.NAG_SPECTRAL, Method.ENHANCED_NAG]
        cfgs = [config(m, max_iterations=50) for m in methods]
        banded = [records(run(f, cfg, x0)) for cfg in cfgs]
        monkeypatch.setattr(linalg, "_tridiagonal_eigenvalues", lambda m, tol: None)
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
        seen = []

        def spy(state, config, g, h):
            seen.append((g, h))
            return state

        monkeypatch.setattr(optimizers, "step_gd_spectral", spy)
        run(f, config(Method.GD_SPECTRAL, max_iterations=3), [0.0, 0.0])
        assert len(seen) == 3 and len(returned) == 6
        for (g, h), own_g, own_h in zip(seen, returned[::2], returned[1::2]):
            # never written: the objective hands out copies of these constants
            np.testing.assert_array_equal(own_g, [1.0, 2.0])
            np.testing.assert_array_equal(own_h, [[3.0, 1.0], [1.0, 2.0]])
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

    def test_overflow_mid_run_raises_no_warning(self):
        # the objective at x0 is 1e282, finite; Adam's qg * qg overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(rosenbrock(2), config(Method.ADAM), [1e70, 1e70])
        assert traj.records[0].objective == pytest.approx(1e282)
        assert [r.iteration for r in traj.records] == list(range(len(traj.records)))

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

    def test_rejects_bad_stepsize(self):
        from quadgrad import InvalidInput

        with pytest.raises(InvalidInput):
            OptimizerConfig(method=Method.ADAM, stepsize=0.0)
