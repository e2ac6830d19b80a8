import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import quadgrad.linalg as linalg
import quadgrad.optimizers as optimizers
from quadgrad import (
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


def grad(f, state):
    """The oriented gradient at ``state.theta``, as ``run()`` hands it to a step."""
    sign = 1.0 if f.sense is Sense.MINIMIZE else -1.0
    return sign * f.gradient(state.theta)


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


class TestGdSpectral:
    def test_booth_first_step(self):
        # lr = 1/(18+eps), g(0,0) = (-34,-38) -> theta1 = (34/18, 38/18)
        f = booth()
        state = init_state(f, config(Method.GD_SPECTRAL), [0.0, 0.0])
        state = step_gd_spectral(f, state, config(Method.GD_SPECTRAL), grad(f, state))
        np.testing.assert_allclose(state.theta, [34.0 / 18.0, 38.0 / 18.0], atol=1e-7)
        assert state.t == 1

    def test_fixed_point_at_maximum(self):
        f = quadratic_counterexample()
        state = init_state(f, config(Method.GD_SPECTRAL), [0.0, 0.0])
        state = step_gd_spectral(f, state, config(Method.GD_SPECTRAL), grad(f, state))
        np.testing.assert_array_equal(state.theta, [0.0, 0.0])

    def test_fixed_point_at_booth_minimum(self):
        f = booth()
        state = init_state(f, config(Method.GD_SPECTRAL), [1.0, 3.0])
        state = step_gd_spectral(f, state, config(Method.GD_SPECTRAL), grad(f, state))
        np.testing.assert_array_equal(state.theta, [1.0, 3.0])


class TestNag:
    def test_first_step_has_no_momentum(self):
        f = booth()
        cfg = config(Method.NAG_SPECTRAL)
        state = init_state(f, cfg, [0.0, 0.0])
        state = step_nag(f, state, cfg, grad(f, state), enhanced=False)
        # gamma_0 = 0, so beta_1 = V_1 = the plain spectral-rate step
        np.testing.assert_allclose(state.theta, [34.0 / 18.0, 38.0 / 18.0], atol=1e-7)
        np.testing.assert_array_equal(state.theta, state.momentum_prev)

    def test_enhanced_step_on_counterexample(self):
        # from (-1,-1.5): row sums (6,4), g=(1,1), lr=1/(3+sqrt(5)+eps),
        # ascent V1 = theta + (1+lr)*(1/6, 1/4); frozen from that arithmetic
        f = quadratic_counterexample()
        cfg = config(Method.ENHANCED_NAG)
        state = init_state(f, cfg, [-1.0, -1.5])
        state = step_nag(f, state, cfg, grad(f, state), enhanced=True)
        np.testing.assert_allclose(
            state.theta,
            [-0.801502832787444, -1.2022542494292874],
            atol=1e-10,
        )

    def test_fixed_point_at_optimum(self):
        f = quadratic_counterexample()
        cfg = config(Method.NAG_SPECTRAL)
        state = init_state(f, cfg, [0.0, 0.0])
        state = step_nag(f, state, cfg, grad(f, state), enhanced=False)
        np.testing.assert_array_equal(state.theta, [0.0, 0.0])
        np.testing.assert_array_equal(state.momentum_prev, [0.0, 0.0])

    def test_gamma_stays_in_unit_interval(self):
        f = rosenbrock(2)
        cfg = config(Method.ENHANCED_NAG, max_iterations=50)
        state = init_state(f, cfg, [-1.0, -1.0])
        for _ in range(50):
            a_prev = state.nag_a
            state = step_nag(f, state, cfg, grad(f, state), enhanced=True)
            # gamma_t = (a_t - 1) / a_{t+1}
            assert 0.0 <= (a_prev - 1.0) / state.nag_a < 1.0


class TestEnhancedAdagrad:
    def test_first_step_is_signlike(self):
        # accum = G^2 after one step, so the step is (1+eta)*sign(G) up to eps
        f = synthetic(grad=[6.0, -8.0], hess=[[5.0, 1.0], [1.0, 3.0]])
        cfg = config(Method.ENHANCED_ADAGRAD, stepsize=1.0)
        state = init_state(f, cfg, [0.0, 0.0])
        state = step_enhanced_adagrad(f, state, cfg, grad(f, state))
        np.testing.assert_allclose(state.theta, [-2.0, 2.0], rtol=1e-6)

    def test_second_step_accumulator_arithmetic(self):
        # G is constantly (1, 0)-like; second-step denominator is eps + sqrt(2)
        f = synthetic(grad=[6.0, 0.0], hess=[[5.0, 1.0], [1.0, 3.0]])
        eta = 0.5
        cfg = config(Method.ENHANCED_ADAGRAD, stepsize=eta)
        state = init_state(f, cfg, [0.0, 0.0])
        state = step_enhanced_adagrad(f, state, cfg, grad(f, state))
        theta1 = state.theta.copy()
        state = step_enhanced_adagrad(f, state, cfg, grad(f, state))
        second_step = theta1 - state.theta
        assert second_step[0] == pytest.approx((1.0 + eta) / math.sqrt(2.0), rel=1e-6)
        assert second_step[1] == 0.0

    def test_fixed_point_at_optimum(self):
        f = booth()
        cfg = config(Method.ENHANCED_ADAGRAD)
        state = init_state(f, cfg, [1.0, 3.0])
        state = step_enhanced_adagrad(f, state, cfg, grad(f, state))
        np.testing.assert_array_equal(state.theta, [1.0, 3.0])


class TestAdam:
    def test_first_step_is_signlike(self):
        f = rosenbrock(2)
        cfg = config(Method.ADAM, stepsize=0.1)
        state = init_state(f, cfg, [-1.2, 1.0])
        g = f.gradient([-1.2, 1.0])
        state = step_adam(f, state, cfg, grad(f, state), enhanced=False)
        expected = np.array([-1.2, 1.0]) - 0.1 * np.sign(g)
        np.testing.assert_allclose(state.theta, expected, atol=1e-6)

    def test_zero_gradient_keeps_everything_zero(self):
        f = synthetic(grad=[0.0, 0.0], hess=np.eye(2))
        cfg = config(Method.ADAM, stepsize=0.1)
        state = init_state(f, cfg, [2.0, -1.0])
        for _ in range(5):
            state = step_adam(f, state, cfg, grad(f, state), enhanced=False)
        np.testing.assert_array_equal(state.theta, [2.0, -1.0])
        np.testing.assert_array_equal(state.m, [0.0, 0.0])
        np.testing.assert_array_equal(state.v, [0.0, 0.0])

    def test_enhanced_with_identity_accelerator_matches_plain(self):
        f = rosenbrock(2)
        plain_cfg = config(Method.ADAM, stepsize=0.1)
        enhanced_cfg = config(Method.ENHANCED_ADAM, stepsize=0.1, qg_variant=None)
        plain = init_state(f, plain_cfg, [-1.2, 1.0])
        enhanced = init_state(f, enhanced_cfg, [-1.2, 1.0])
        for _ in range(25):
            plain = step_adam(f, plain, plain_cfg, grad(f, plain), enhanced=False)
            enhanced = step_adam(
                f, enhanced, enhanced_cfg, grad(f, enhanced), enhanced=True
            )
            assert np.max(np.abs(plain.theta - enhanced.theta)) <= 1e-12

    def test_moment_invariants(self):
        f = rosenbrock(2)
        cfg = config(Method.ADAM, stepsize=0.1)
        state = init_state(f, cfg, [-1.0, -1.0])
        largest_gradient = 0.0
        for _ in range(60):
            largest_gradient = max(
                largest_gradient, float(np.max(np.abs(f.gradient(state.theta))))
            )
            state = step_adam(f, state, cfg, grad(f, state), enhanced=False)
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
        # near-zero curvature makes the spectral rate 1/eps, so the first
        # step jumps far beyond the bound
        f = synthetic(grad=[1.0, 1.0], hess=np.zeros((2, 2)))
        cfg = config(Method.GD_SPECTRAL, max_iterations=10, divergence_bound=1e3)
        traj = run(f, cfg, [0.0, 0.0])
        assert traj.diverged
        assert len(traj.records) == 1  # partial trajectory kept

    # the synthetic objective is always 0, so only the iterate check can flag
    # these runs; the NaN gradient under plain Adam makes a NaN iterate
    @pytest.mark.parametrize(
        "gradient, method",
        [([1e300, 0.0], Method.GD_SPECTRAL), ([np.nan, 0.0], Method.ADAM)],
        ids=["huge-gradient-gd-spectral", "nan-gradient-adam"],
    )
    def test_nonfinite_iterate_flags_run(self, gradient, method):
        f = synthetic(grad=gradient, hess=np.zeros((2, 2)))
        cfg = config(method, max_iterations=10)
        traj = run(f, cfg, [0.0, 0.0])
        assert traj.diverged

    @pytest.mark.parametrize(
        "method, variant",
        [(Method.GD_SPECTRAL, None), (Method.ENHANCED_ADAM, Variant.NEW)],
    )
    def test_one_evaluation_per_quantity_per_step(self, method, variant):
        f, calls = counted(rosenbrock(5))
        cfg = config(method, stepsize=1.0, qg_variant=variant, max_iterations=100)
        traj = run(f, cfg, -np.ones(5))
        assert len(traj.records) == 101
        assert calls == {"value": 101, "gradient": 100, "hessian": 100}

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

    def test_maximization_improves_objective(self):
        f = quadratic_counterexample()
        traj = run(f, config(Method.GD_SPECTRAL, max_iterations=300), [-1.0, -1.5])
        objectives = traj.objectives()
        assert objectives[-1] > objectives[0]
        assert abs(objectives[-1]) <= 1e-6


class TestConfigValidation:
    def test_rejects_bad_beta(self):
        from quadgrad import InvalidInput

        with pytest.raises(InvalidInput):
            OptimizerConfig(method=Method.ADAM, beta1=1.0)
        with pytest.raises(InvalidInput):
            OptimizerConfig(method=Method.ADAM, beta2=-0.1)

    def test_rejects_bad_stepsize(self):
        from quadgrad import InvalidInput

        with pytest.raises(InvalidInput):
            OptimizerConfig(method=Method.ADAM, stepsize=0.0)
