"""Property tests of run()'s contracts over objectives, methods and start points.

Bad input raises a QuadGradError before the first step; once a run starts
it returns, flagging any breakdown, and it never warns. Reruns are equal and
iterations are numbered without gaps.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgrad import OptimizerConfig, QuadGradError, rosenbrock, run, standard_suite
from test_optimizers import METHOD_VARIANTS, counted

FUNCTIONS = standard_suite() + [rosenbrock(n) for n in range(3, 7)]

# derandomized so tier-1 draws the same examples on every run
PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=300, database=None
)


@st.composite
def runs(draw):
    f = draw(st.sampled_from(FUNCTIONS))
    method, variant = draw(st.sampled_from(METHOD_VARIANTS))
    cfg = OptimizerConfig(
        method=method,
        qg_variant=variant,
        stepsize=10.0 ** draw(st.floats(-3.0, 1.0)),
        fixed_hessian=draw(st.booleans()),
        max_iterations=draw(st.integers(1, 15)),
    )
    magnitudes = st.floats(-3.0, 80.0).map(lambda e: 10.0**e)
    coordinates = st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(
        lambda pair: pair[0] * pair[1]
    )
    x0 = np.array(draw(st.lists(coordinates, min_size=f.dim, max_size=f.dim)))
    return f, cfg, x0


def records(traj):
    return traj.diverged, [
        (r.iteration, r.objective, r.iterate.tobytes()) for r in traj.records
    ]


@PROPERTY_SETTINGS
@given(runs())
def test_run_raises_before_iterating_or_returns_without_warning(case):
    f, cfg, x0 = case
    counted_f, calls = counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            first = run(counted_f, cfg, x0)
        except QuadGradError:
            # only the objective at x0 was evaluated, and it was not finite
            assert calls == {"value": 1}
            with np.errstate(all="ignore"):
                assert not math.isfinite(f.value(x0))
            return
        second = run(f, cfg, x0)
    assert records(first) == records(second)
    assert [r.iteration for r in first.records] == list(range(len(first.records)))
    assert 1 <= len(first.records) <= cfg.max_iterations + 1
    assert all(math.isfinite(r.objective) for r in first.records)
    assert all(np.all(np.isfinite(r.iterate)) for r in first.records)
