"""One workload process of the quadgrad benchmark.

Builds the workload's inputs from the seed, runs one untimed warm-up pass
(first LAPACK calls, first objective construction at every n), then timed
passes until the time is up, timing each operation's speed probe right
before the operation (see "measuring" below). Every operation's output is
checked: against ``reference.json`` where it holds a reference for this
workload and seed, otherwise against the warm-up pass. Prints one JSON
object.

The loop is closed, with one client and one thread: each operation starts
after the previous one returned, so nothing ever waits in a queue.

Started by ``run.py`` with ``PINNED_ENV`` (BLAS/OpenMP on one thread, no
huge-page advice) and ``src/`` on ``PYTHONPATH``; refuses to run otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from run import PINNED_ENV, ROOT, WORKLOADS

if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
    sys.exit(f"worker: environment is not pinned; start it through run.py ({PINNED_ENV})")

import numpy as np  # noqa: E402  (only after the thread check above)
import scipy  # noqa: E402

import quadgrad  # noqa: E402
from quadgrad import Method, ObjectiveFunction, OptimizerConfig, Sense, Variant  # noqa: E402
from quadgrad import bench, optimizers  # noqa: E402

if not Path(quadgrad.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"worker: imported quadgrad from {quadgrad.__file__}, not from {ROOT / 'src'}")

REFERENCE = Path(__file__).with_name("reference.json")

# The seven method configurations every workload runs. Stepsizes are the
# CLI's: alpha for plain Adam, eta for the enhanced methods.
METHODS = {
    "gd-spectral": dict(method=Method.GD_SPECTRAL),
    "nag-spectral": dict(method=Method.NAG_SPECTRAL),
    "enhanced-nag": dict(method=Method.ENHANCED_NAG),
    "enhanced-adagrad": dict(method=Method.ENHANCED_ADAGRAD, stepsize=bench.DEFAULT_ENHANCED_ETA),
    "adam": dict(method=Method.ADAM, stepsize=bench.DEFAULT_ADAM_ALPHA),
    "adam-oldqg": dict(method=Method.ENHANCED_ADAM, stepsize=bench.DEFAULT_ENHANCED_ETA,
                       qg_variant=Variant.ORIGINAL),
    "adam-newqg": dict(method=Method.ENHANCED_ADAM, stepsize=bench.DEFAULT_ENHANCED_ETA,
                       qg_variant=Variant.NEW),
}


def method_label(config: OptimizerConfig) -> str:
    for label, kwargs in METHODS.items():
        if kwargs["method"] is config.method and kwargs.get("qg_variant") is config.qg_variant:
            return label
    return config.method.value


class RunOp:
    """One library ``run()`` call. ``probe`` names the workload's speed probe
    whose work resembles the call's, which scales its times."""

    def __init__(self, key, method, f, x0, iterations, fixed_hessian=False, probe="interpreter"):
        self.key, self.method, self.f, self.x0, self.probe = key, method, f, x0, probe
        self.config = OptimizerConfig(max_iterations=iterations, fixed_hessian=fixed_hessian,
                                      **METHODS[method])

    def execute(self):
        # looked up at call time, so the traced run sees its wrapper
        return optimizers.run(self.f, self.config, self.x0)

    @staticmethod
    def outcome(trajectory):
        return [len(trajectory.records) - 1, trajectory.diverged, trajectory.records[-1].objective]


class CliOp:
    """One in-process ``quadgrad-bench`` call writing its CSV to a file."""

    method = None
    probe = "interpreter"

    def __init__(self, key, argv, out: Path):
        self.key, self.out = key, out
        self.argv = argv + ["--out", str(out)]

    def execute(self):
        return bench.main(self.argv)

    def outcome(self, code):
        if code != 0:
            return [code, None]
        digest = hashlib.sha256(self.out.read_bytes()).hexdigest()
        self.out.unlink()
        return [code, digest]


# ---------------------------------------------------------------- workloads
# Each workload function returns (ops, method_ops, probes): ``ops`` make up
# one timed pass; ``method_ops`` are extra run() calls timed only for
# us_per_iter, outside the pass, for methods whose runs the pass hides inside
# CLI calls; ``probes`` maps each probe kind the operations name to its
# callable.

PANEL_SIZES = (2, 5, 10, 20)
PANEL_HORIZONS = (30, 300)
LEMMA_FUNCTIONS = ("booth", "beale", "himmelblau", "rosenbrock:2", "quadratic-counterexample")
LEMMA_ITERATIONS = 30


def paper_panels(seed, traced, tmp):
    """The paper's figures exactly as the CLI makes them, at the documented
    start points (the seed is not used)."""
    ops, method_ops = [], []
    for fid in LEMMA_FUNCTIONS:
        ops.append(CliOp(f"cli:lemma-lr:{fid}:{LEMMA_ITERATIONS}",
                         ["--experiment", "lemma-lr", "--function", fid,
                          "--iters", str(LEMMA_ITERATIONS)], tmp / f"{len(ops)}.csv"))
        f = quadgrad.get_function(fid)
        for method in ("gd-spectral", "nag-spectral", "enhanced-nag"):
            method_ops.append(RunOp(f"run:{method}:{fid}:{LEMMA_ITERATIONS}", method, traced(f),
                                    bench.default_x0(f), LEMMA_ITERATIONS))
    for n in PANEL_SIZES:
        f = traced(quadgrad.rosenbrock(n))
        for iterations in PANEL_HORIZONS:
            ops.append(CliOp(f"cli:adam-qg:{n}:{iterations}",
                             ["--experiment", "adam-qg", "--nvars", str(n),
                              "--iters", str(iterations)], tmp / f"{len(ops)}.csv"))
            for method in ("adam", "adam-oldqg", "adam-newqg"):
                method_ops.append(RunOp(f"run:{method}:rosenbrock:{n}:{iterations}", method, f,
                                        bench.default_x0(f), iterations))
    # no CLI experiment covers enhanced Adagrad, so it runs through the library
    for n in PANEL_SIZES:
        f = traced(quadgrad.rosenbrock(n))
        for iterations in PANEL_HORIZONS:
            ops.append(RunOp(f"run:enhanced-adagrad:rosenbrock:{n}:{iterations}",
                             "enhanced-adagrad", f, bench.default_x0(f), iterations))
    return ops, method_ops, {"interpreter": interpreter_probe}


LARGE_SIZES = {400: 10, 1000: 3}  # n -> iterations per run
# Plain Adam costs about 0.1 ms per iteration here; a run of a few iterations
# would be timed over well under a millisecond, among the allocator and cache
# effects the large runs before it leave behind.
LARGE_ADAM_ITERATIONS = 100
LARGE_NOISE = 1e-3


def rosenbrock_large(seed, traced, tmp):
    """Rosenbrock at n = 400 and 1000 from the all-(-1) point plus seeded noise."""
    rng = np.random.default_rng(seed)
    ops, probes = [], {"interpreter": interpreter_probe}
    for n, budget in LARGE_SIZES.items():
        f = traced(quadgrad.rosenbrock(n))
        x0 = -np.ones(n) + LARGE_NOISE * rng.standard_normal(n)
        probes[f"eigvalsh-{n}"] = EigvalshProbe(n)
        for method in METHODS:
            # plain Adam does only O(n) vector work; the rest is n x n and LAPACK
            if method == "adam":
                iterations, probe = LARGE_ADAM_ITERATIONS, "interpreter"
            else:
                iterations, probe = budget, f"eigvalsh-{n}"
            ops.append(RunOp(f"run:{method}:rosenbrock:{n}:{iterations}", method, f, x0,
                             iterations, probe=probe))
    return ops, [], probes


LOGREG_SAMPLES = 2000
LOGREG_FEATURES = 80
LOGREG_DUPLICATES = 20
LOGREG_ITERATIONS = 50


def logistic_regression(seed) -> ObjectiveFunction:
    """Mean logistic loss on seeded data whose last LOGREG_DUPLICATES columns
    copy other columns, so the Hessian X^T D X is dense and singular."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((LOGREG_SAMPLES, LOGREG_FEATURES))
    copies = rng.choice(LOGREG_FEATURES, LOGREG_DUPLICATES, replace=False)
    x = np.hstack([z, z[:, copies]])
    w_true = 2.0 * rng.standard_normal(LOGREG_FEATURES) / np.sqrt(LOGREG_FEATURES)
    # labels drawn from the model itself, so the classes overlap and a minimum exists
    p = 1.0 / (1.0 + np.exp(-z @ w_true))
    y = np.where(rng.random(LOGREG_SAMPLES) < p, 1.0, -1.0)
    a = x * y[:, None]

    def sigmoid(t):
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    def value(w):
        return float(np.mean(np.logaddexp(0.0, -(a @ w))))

    def gradient(w):
        return a.T @ (-sigmoid(-(a @ w))) / LOGREG_SAMPLES

    def hessian(w):
        s = sigmoid(a @ w)
        return (x.T * (s * (1.0 - s))) @ x / LOGREG_SAMPLES

    return ObjectiveFunction(name="logreg-collinear", dim=x.shape[1], sense=Sense.MINIMIZE,
                             value=value, gradient=gradient, hessian=hessian)


def logreg_probes(f: ObjectiveFunction) -> dict:
    """Speed probes made of the workload's own objective, which is benchmark
    code, not quadgrad: fixed evaluations at a fixed point.

    These runs stream the 2000 x 100 data matrix through matrix-vector
    products and elementwise numpy, and the host's speed for that work moves
    apart from its speed for LAPACK; only evaluations of the objective itself
    tracked plain Adam's time closely.
    """
    w = 0.05 * np.random.default_rng(0).standard_normal(f.dim)

    def first_order():
        for _ in range(8):
            f.value(w)
            f.gradient(w)

    def second_order():
        f.value(w)
        f.gradient(w)
        np.linalg.eigvalsh(f.hessian(w))

    return {"logreg-first-order": first_order, "logreg-second-order": second_order}


def logreg_collinear(seed, traced, tmp):
    """Every method twice: Hessian re-evaluated per iteration, and frozen at x0."""
    plain = logistic_regression(seed)
    f = traced(plain)
    x0 = np.zeros(f.dim)
    ops = []
    for fixed in (False, True):
        mode = "frozen" if fixed else "per-iter"
        for method in METHODS:
            # a run that evaluates a Hessian at every iteration is probed with one
            probe = ("logreg-first-order" if fixed or method == "adam"
                     else "logreg-second-order")
            ops.append(RunOp(f"run:{method}:logreg:{mode}:{LOGREG_ITERATIONS}", method, f, x0,
                             LOGREG_ITERATIONS, fixed_hessian=fixed, probe=probe))
    return ops, [], logreg_probes(plain)


WORKLOAD_OPS = {
    "paper-panels": paper_panels,
    "rosenbrock-large": rosenbrock_large,
    "logreg-collinear": logreg_collinear,
}


# ------------------------------------------------------------------ checking

class Checker:
    """Compares each operation's outcome with its expected one.

    With a reference, every key must be in it. Without one, the first
    outcome seen for a key (the warm-up pass) becomes the expectation, so
    every later repetition must reproduce it exactly.
    """

    def __init__(self, reference):
        self.reference = reference
        self.expected = dict(reference or {})
        self.outcomes = {}
        self.attempted = 0
        self.failures = []

    def fail(self, key, message):
        self.attempted += 1
        self.failures.append(f"{key}: {message}")

    def check(self, key, outcome):
        self.outcomes[key] = outcome
        if self.reference is not None and key not in self.reference:
            return self.fail(key, "no reference outcome")
        expected = self.expected.setdefault(key, outcome)
        if outcome != expected:
            return self.fail(key, f"got {outcome}, expected {expected}")
        self.attempted += 1


def load_reference(workload, seed):
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return None
    return entry["outcomes"]


# ----------------------------------------------------------------- measuring

# Speed probes: fixed numpy work that never calls quadgrad. Each timed
# operation is preceded by one timing of the probe its ``probe`` names, and
# run.py divides each operation time by the probe time paired with it. The
# host's speed drifts by up to 2x over tens of seconds and changes within a
# pass, so a probe timed next to each operation follows it where one timed
# once per pass did not.

def interpreter_probe():
    """100 Adam steps on a 5-d quadratic: interpreter-bound like small-n runs."""
    x, m, v = -np.ones(5), np.zeros(5), np.zeros(5)
    for t in range(1, 101):
        g = 2.0 * x - np.roll(x, 1)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.1 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    return float(x @ x)


class EigvalshProbe:
    """eigvalsh of a fixed symmetric n x n matrix: dense LAPACK and memory
    traffic like the second-order runs at the same n."""

    def __init__(self, n):
        s = np.random.default_rng(0).standard_normal((n, n))
        self.matrix = s + s.T

    def __call__(self):
        np.linalg.eigvalsh(self.matrix)


def measure(ops, probes, checker, tracer, samples=None):
    """Runs ``ops`` back to back, each after its speed probe, checking each
    output. Appends (operation time, probe time) to ``samples[key]`` when
    ``samples`` is given."""
    for op in ops:
        start = perf_counter()
        probes[op.probe]()
        probe_s = perf_counter() - start
        if tracer is not None:
            tracer.op += 1
        start = perf_counter()
        try:
            raw = op.execute()
        except Exception as exc:  # a failed operation is counted, not fatal
            checker.fail(op.key, f"raised {exc!r}")
            continue
        elapsed = perf_counter() - start
        checker.check(op.key, op.outcome(raw))
        if samples is not None:
            samples[op.key].append((elapsed, probe_s))


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "plain", "traced"), required=True,
                        help="e2e: passes plus per-method runs; plain: passes only; "
                             "traced: passes only, with per-layer spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer(lambda config: method_label(config)
                        + (" frozen" if config.fixed_hessian else ""))
        tracer.install()
    traced = tracer.objective if tracer is not None else (lambda f: f)

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="worker-", dir=scratch_root))
    try:
        ops, method_ops, probes = WORKLOAD_OPS[args.workload](args.seed, traced, tmp)
        if args.mode != "e2e":
            method_ops = []
        checker = Checker(load_reference(args.workload, args.seed))

        measure(ops + method_ops, probes, checker, tracer)  # warm-up, untimed
        if tracer is not None:
            tracer.drain()

        passes, layers = [], []
        samples = defaultdict(list)
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline:
            start = perf_counter()
            measure(ops, probes, checker, tracer, samples)
            passes.append(perf_counter() - start)
            if tracer is not None:
                layers.append(tracer.drain())
            measure(method_ops, probes, checker, None, samples)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    print(json.dumps({
        "passes": passes,
        "ops": [{"key": op.key, "method": op.method, "in_pass": op in ops, "probe": op.probe,
                 # outcome[0] of a run is its iteration count, checked to repeat
                 "iterations": checker.outcomes.get(op.key, [0])[0] if op.method else 0,
                 "seconds": [elapsed for elapsed, _ in samples[op.key]],
                 "probe_seconds": [probe_s for _, probe_s in samples[op.key]]}
                for op in ops + method_ops],
        "layers": layers,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures[:20],
        "outcomes": checker.outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }))


if __name__ == "__main__":
    main()
