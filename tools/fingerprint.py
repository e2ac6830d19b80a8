"""SHA-256 digests over a grid of quadgrad runs and of CLI tables, to show
that a change keeps every output bit.

    PYTHONPATH=src python3 tools/fingerprint.py

The grid runs every method and accelerator choice (five methods, plus Adam
with no accelerator, the row-sum one and the Newton-ratio one), with the
Hessian evaluated every step and frozen at the start point, three stepsizes
(1e13 among them, where the enhanced methods diverge), three start scales,
on the four two-variable functions and on Rosenbrock at n in {2, 3, 5, 10,
30, 100}: 1,440 runs of ``ITERATIONS`` steps each. The start points are drawn
once per function from a seeded ``random.Random``. The script prints the run
count and one SHA-256 over every run's diverged flag, objectives and iterate
bytes, in grid order; two revisions that print the same digest produced the
same bits on every run.

A second line covers the CLI: the CSV bytes ``quadgrad-bench`` writes for
the 24 adam-qg panels (n in {2, 5, 10, 20}, --eta in {1.0, 1.5, 2.0}, 30 and
300 iterations) and for lemma-lr on the five functions of the paper's
figures at 30 iterations, each from its documented start point, hashed in
that order.

Standard library and quadgrad only; nothing under ``perfbench/`` is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import struct

from quadgrad import Method, OptimizerConfig, Variant, bench, get_function, run

METHODS = [(m, None) for m in Method if m is not Method.ENHANCED_ADAM] + [
    (Method.ENHANCED_ADAM, v) for v in (None, Variant.ORIGINAL, Variant.NEW)
]
FUNCTIONS = ("beale", "booth", "himmelblau", "quadratic-counterexample") + tuple(
    f"rosenbrock:{n}" for n in (2, 3, 5, 10, 30, 100)
)
STEPSIZES = (0.1, 1.5, 1e13)
SCALES = (0.25, 1.0, 2.0)
ITERATIONS = 30
SEED = 0

PANEL_SIZES = (2, 5, 10, 20)
PANEL_ETAS = ("1.0", "1.5", "2.0")
PANEL_HORIZONS = (30, 300)
LEMMA_FUNCTIONS = ("booth", "beale", "himmelblau", "rosenbrock:2", "quadratic-counterexample")
LEMMA_ITERATIONS = 30


def trajectories(functions=FUNCTIONS, stepsizes=STEPSIZES, scales=SCALES,
                 iterations=ITERATIONS):
    """Yield the trajectory of every run of the grid, in grid order."""
    rng = random.Random(SEED)
    for function_id in functions:
        f = get_function(function_id)
        base = [rng.uniform(-1.0, 1.0) for _ in range(f.dim)]
        for (method, variant), fixed, stepsize, scale in itertools.product(
                METHODS, (False, True), stepsizes, scales):
            config = OptimizerConfig(method, stepsize=stepsize, qg_variant=variant,
                                     max_iterations=iterations, fixed_hessian=fixed)
            yield run(f, config, [scale * b for b in base])


def digest(runs) -> tuple[int, str]:
    """Run count and the SHA-256 hex digest over the runs' flags, objectives and iterates."""
    sha = hashlib.sha256()
    count = 0
    for traj in runs:
        count += 1
        sha.update(struct.pack("<?q", traj.diverged, len(traj.records)))
        for k, record in enumerate(traj.records):
            sha.update(struct.pack("<qd", k, record.objective))
            sha.update(record.iterate.tobytes())
    return count, sha.hexdigest()


def cli_arguments(sizes=PANEL_SIZES, etas=PANEL_ETAS, horizons=PANEL_HORIZONS,
                  functions=LEMMA_FUNCTIONS):
    """Yield the argument list of every CLI call of the grid, in grid order."""
    for n, eta, iterations in itertools.product(sizes, etas, horizons):
        yield ["--experiment", "adam-qg", "--nvars", str(n), "--eta", eta,
               "--iters", str(iterations)]
    for function_id in functions:
        yield ["--experiment", "lemma-lr", "--function", function_id,
               "--iters", str(LEMMA_ITERATIONS)]


def cli_csv(argv) -> bytes:
    """The CSV bytes the CLI writes to stdout for ``argv``; raises unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(argv)
    if code != 0:
        raise RuntimeError(f"quadgrad-bench {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def csv_digest(csvs) -> tuple[int, str]:
    """CSV count and the SHA-256 hex digest over each CSV's length and bytes."""
    sha = hashlib.sha256()
    count = 0
    for csv in csvs:
        count += 1
        sha.update(struct.pack("<q", len(csv)))
        sha.update(csv)
    return count, sha.hexdigest()


def main():
    count, hexdigest = digest(trajectories())
    print(f"runs {count} sha256 {hexdigest}")
    count, hexdigest = csv_digest(cli_csv(argv) for argv in cli_arguments())
    print(f"csvs {count} sha256 {hexdigest}")


if __name__ == "__main__":
    main()
