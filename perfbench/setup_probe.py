"""Set-up time of a fresh process: ``import quadgrad`` (numpy, scipy.linalg)
plus one warm-up call into each layer. Started by ``run.py`` with BLAS pinned
and ``src/`` on ``PYTHONPATH``; interpreter start-up is not counted.
Then times the worker's interpreter speed probe, so that ``run.py`` can
scale this process's set-up time to the reference host speed.
Prints ``{"setup_s": seconds, "probe_seconds": [seconds, ...]}``.
"""

import json
from time import perf_counter

start = perf_counter()

import numpy as np  # noqa: E402

import quadgrad  # noqa: E402

f = quadgrad.rosenbrock(2)
x = -np.ones(2)
f.value(x)
g = f.gradient(x)
h = f.hessian(x)
quadgrad.spectral_bounds(h)
quadgrad.solve(h, g)
quadgrad.pseudoinverse(h)
quadgrad.spectral_learning_rate(h)
quadgrad.bound_diagonal(h)
quadgrad.new_quadratic_gradient(h, g)
quadgrad.run(f, quadgrad.OptimizerConfig(method=quadgrad.Method.ENHANCED_ADAM,
                                         qg_variant=quadgrad.Variant.NEW, max_iterations=1), x)
quadgrad.experiment_lemma_lr("booth", iterations=1).emit()

setup_s = perf_counter() - start

from worker import interpreter_probe  # noqa: E402

probes = []
for _ in range(5):
    start = perf_counter()
    interpreter_probe()
    probes.append(perf_counter() - start)
print(json.dumps({"setup_s": setup_s, "probe_seconds": probes}))
