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
from quadgrad import Variant
from test_optimizers import FRESH_AND_FROZEN, METHOD_VARIANTS, config, layer_calls, synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def snapshot():
    """Every attribute the tracer may rebind, with the object it holds now."""
    modules = {module: dict(vars(module)) for module in (bench, gradients, optimizers)}
    return modules, bench.CsvTable.emit


@FRESH_AND_FROZEN
@pytest.mark.parametrize("method, variant", METHOD_VARIANTS)
def test_tracer_counts_every_layer_reached(method, variant, fixed_hessian, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = snapshot()
    tracer = Tracer(lambda cfg: cfg.method.value)
    tracer.install()
    try:
        # singular Hessian: the Newton-ratio solve falls back to the pseudoinverse
        f = tracer.objective(synthetic(grad=[1.0, 2.0], hess=[[1.0, 1.0], [1.0, 1.0]]))
        cfg = config(method, qg_variant=variant, max_iterations=20,
                     fixed_hessian=fixed_hessian)
        traj = optimizers.run(f, cfg, [0.0, 0.0])
        totals = tracer.drain()
    finally:
        tracer.uninstall()
    modules, emit = before
    for module, attrs in modules.items():
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[name] is value for name, value in attrs.items())
    assert bench.CsvTable.emit is emit

    assert len(traj.records) == 21
    calls = totals["calls"]
    reached = {
        name.split(".", 1)[1]: count
        for name, count in calls.items()
        if count and name.startswith(("linalg.", "gradients."))
    }
    # a frozen run derives its spectral rate and row sums once
    assert reached == layer_calls(method, variant, fixed_hessian, 20)
    assert calls["optimizers.run"] == 1
    assert calls["optimizers.step"] == 20
    singular = 20 if variant is Variant.NEW else 0
    assert totals["counts"] == {"singular": singular, "exact": 0, "csv_bytes": 0}
