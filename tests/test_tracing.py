"""perfbench's tracer, imported unchanged, still traces every layer a run reaches.

The tracer rebinds module attributes of quadgrad and reads fields of the
values they return (``NewtonRatios.used_pseudoinverse``), so a renamed layer
or field would silence its spans or break the traced benchmark run.
"""

from pathlib import Path

import pytest

import quadgrad.bench as bench
import quadgrad.gradients as gradients
import quadgrad.optimizers as optimizers
from quadgrad import Method, Variant
from test_optimizers import FRESH_AND_FROZEN, METHOD_VARIANTS, config, layer_calls, synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def snapshot():
    """Every attribute the tracer may rebind, with the object it holds now."""
    modules = {module: dict(vars(module)) for module in (bench, gradients, optimizers)}
    return modules, bench.CsvTable.emit


def traced(monkeypatch, call):
    """``call(tracer)`` under perfbench's tracer: its result and the tracer's
    totals, after checking that uninstalling restored every attribute."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = snapshot()
    tracer = Tracer(lambda cfg: cfg.method.value)
    tracer.install()
    try:
        result = call(tracer)
        totals = tracer.drain()
    finally:
        tracer.uninstall()
    modules, emit = before
    for module, attrs in modules.items():
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[name] is value for name, value in attrs.items())
    assert bench.CsvTable.emit is emit
    return result, totals


def traced_run(monkeypatch, objective, cfg, x0):
    """``run()`` under perfbench's tracer: the trajectory and the tracer's totals."""
    return traced(monkeypatch,
                  lambda tracer: optimizers.run(tracer.objective(objective), cfg, x0))


def reached(totals):
    """Calls per linalg and gradients layer that the run reached."""
    return {
        name.split(".", 1)[1]: count
        for name, count in totals["calls"].items()
        if count and name.startswith(("linalg.", "gradients."))
    }


@FRESH_AND_FROZEN
@pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
def test_tracer_counts_every_layer_reached(method, variant, fixed_hessian, monkeypatch):
    # singular Hessian: the Newton-ratio solve falls back to the pseudoinverse
    f = synthetic(grad=[1.0, 2.0], hess=[[1.0, 1.0], [1.0, 1.0]])
    cfg = config(method, qg_variant=variant, max_iterations=20, fixed_hessian=fixed_hessian)
    traj, totals = traced_run(monkeypatch, f, cfg, [0.0, 0.0])

    assert len(traj.records) == 21
    # a frozen run derives its spectral rate and row sums once
    assert reached(totals) == layer_calls(method, variant, fixed_hessian, 20)
    assert totals["calls"]["optimizers.run"] == 1
    assert totals["calls"]["optimizers.step"] == 20
    singular = 20 if variant is Variant.NEW else 0
    assert totals["counts"] == {"singular": singular, "exact": 0, "csv_bytes": 0}


@FRESH_AND_FROZEN
def test_tracer_counts_exact_newton_ratio_solves(fixed_hessian, monkeypatch):
    # nonsingular Hessian and no zero gradient entry: every step's Newton
    # ratios come from the exact solve, reached through gradients.solve
    f = synthetic(grad=[1.0, 2.0], hess=[[2.0, 1.0], [1.0, 3.0]])
    cfg = config(Method.ENHANCED_ADAM, qg_variant=Variant.NEW, max_iterations=20,
                 fixed_hessian=fixed_hessian)
    traj, totals = traced_run(monkeypatch, f, cfg, [0.0, 0.0])

    assert len(traj.records) == 21
    assert reached(totals) == {"new_quadratic_gradient": 20, "newton_ratios": 20, "solve": 20}
    assert totals["calls"]["optimizers.step"] == 20
    assert totals["counts"] == {"singular": 0, "exact": 20, "csv_bytes": 0}


@FRESH_AND_FROZEN
def test_tracer_counts_a_zero_gradient_entrys_solve_and_fallback(fixed_hessian, monkeypatch):
    # nonsingular Hessian and a zero gradient entry: every step's Newton
    # ratios start with the solve that checks the operands, which succeeds,
    # and come from the pseudoinverse, the layers of LAYERS_REACHED's NEW row
    f = synthetic(grad=[1.0, 0.0], hess=[[2.0, 1.0], [1.0, 3.0]])
    cfg = config(Method.ENHANCED_ADAM, qg_variant=Variant.NEW, max_iterations=20,
                 fixed_hessian=fixed_hessian)
    traj, totals = traced_run(monkeypatch, f, cfg, [0.0, 0.0])

    assert len(traj.records) == 21
    # 20 solves and 20 pseudoinverses, fresh or frozen
    assert reached(totals) == layer_calls(Method.ENHANCED_ADAM, Variant.NEW, fixed_hessian, 20)
    assert totals["counts"] == {"singular": 0, "exact": 0, "csv_bytes": 0}


def test_tracer_sees_every_bench_layer_of_one_cli_call(tmp_path, monkeypatch):
    # main, the experiment and run() are looked up in the module globals the
    # tracer rebinds, so each layer of the call gets its span
    out = tmp_path / "booth.csv"
    argv = ["--experiment", "lemma-lr", "--function", "booth", "--iters", "3", "--out", str(out)]
    code, totals = traced(monkeypatch, lambda tracer: bench.main(argv))

    assert code == 0
    layers = ("optimizers.run", "bench.run_experiment", "bench.emit", "bench.main")
    assert {name: totals["calls"][name] for name in layers} == {
        "optimizers.run": 3, "bench.run_experiment": 1, "bench.emit": 1, "bench.main": 1}
    assert totals["counts"]["csv_bytes"] == out.stat().st_size
