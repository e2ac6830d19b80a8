"""Start-up: ``quadgrad.linalg`` loads scipy's compiled LAPACK wrappers by file
instead of importing ``scipy.linalg``. Each test runs in a fresh interpreter,
since the test process itself has imported scipy.linalg long before."""

import os
import subprocess
import sys
from pathlib import Path

import quadgrad

SRC = str(Path(quadgrad.__file__).resolve().parents[1])

# solve, both spectral_bounds paths, the row-sum and vector guards and a short AdamNewQG
# run, hashed bit for bit
DIGEST = """
import hashlib
import numpy as np
import quadgrad
from quadgrad import linalg

rng = np.random.default_rng(0)
a = rng.standard_normal((6, 6))
dense = a + a.T
tridiagonal = quadgrad.rosenbrock(30).hessian(np.linspace(-1.0, 1.0, 30))
two_by_two = quadgrad.rosenbrock(2).hessian(np.array([-1.2, 1.0]))
trajectory = quadgrad.run(
    quadgrad.rosenbrock(5),
    quadgrad.OptimizerConfig(quadgrad.Method.ENHANCED_ADAM, qg_variant=quadgrad.Variant.NEW,
                             max_iterations=20),
    -np.ones(5))
assert len(trajectory.records) == 21 and not trajectory.diverged
digest = hashlib.sha256(quadgrad.solve(dense, np.arange(6.0)).tobytes())
for h in (tridiagonal, two_by_two, dense):
    bounds = quadgrad.spectral_bounds(h)
    digest.update(np.array([bounds.lambda_min, bounds.lambda_max]).tobytes())
digest.update(quadgrad.bound_diagonal(dense).tobytes())
for v in (-np.arange(6.0), np.array([1.0, -np.inf, 2.0]), np.array([np.inf, np.nan])):
    digest.update(np.float64(linalg._vector_max_abs(v)).tobytes())
for record in trajectory.records:
    digest.update(np.float64(record.objective).tobytes())
    digest.update(record.iterate.tobytes())
print(linalg._lapack.__name__, "scipy.linalg" in sys.modules, digest.hexdigest())
"""

# find_spec("scipy") reports an empty directory as the package's location,
# so the loader finds no _flapack file; scipy itself still imports as usual
MISS = """
import importlib.util
real_find_spec = importlib.util.find_spec

def find_spec(name, package=None):
    spec = real_find_spec(name, package)
    if name == "scipy":
        spec.submodule_search_locations = [sys.argv[1]]
    return spec

importlib.util.find_spec = find_spec
"""


def python(code: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", "import sys\n" + code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_linalg_unimported():
    out = python("import quadgrad, quadgrad.bench\n"
                 "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    assert out == "[]"


def test_later_scipy_linalg_import_is_intact():
    out = python("import numpy as np\n"
                 "import quadgrad\n"
                 "import scipy.linalg\n"
                 "lu, piv, info = scipy.linalg.lapack.dgetrf(np.array([[0.0, 2.0], [1.0, 1.0]]))\n"
                 "print(scipy.linalg._flapack.__name__, lu.tolist(), piv.tolist(), info)")
    assert out == "scipy.linalg._flapack [[1.0, 1.0], [0.0, 2.0]] [1, 1] 0"


def test_fallback_gives_the_same_bits(tmp_path):
    direct = python(DIGEST).split()
    fallback = python(MISS + DIGEST, str(tmp_path)).split()
    assert direct[:2] == ["quadgrad._flapack", "False"]
    assert fallback[:2] == ["scipy.linalg.lapack", "True"]
    assert fallback[2] == direct[2]
