"""quadgrad benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload paper-panels [--seed 0] [--seconds 30] [--trace 0]

Run from any directory; the library is imported from ``src/`` of the
checkout that holds this file. Every numpy-importing process is a fresh
child with BLAS/OpenMP pinned to one thread and numpy's huge-page advice
off (see PINNED_ENV):

* ``--trace 0`` times set-up in fresh processes (``setup_probe.py``), then
  runs the workload untraced (``worker.py --mode e2e``) and reports the
  end-to-end metrics.
* ``--trace 1`` gives half the time to an untraced run and half to a traced
  one (``tracing.py`` wrappers), checks that both produce the same outputs,
  and reports the per-layer metrics and the tracing overhead.

Every reported time is scaled to a reference host speed: each operation
time is multiplied by REFERENCE_PROBE_S over the time of the speed probe
timed right before that operation, a fixed piece of work that resembles the
operation's and never calls quadgrad. The report prints the factors.

Prints a readable report and the environment, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits non-zero without that line when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper-panels", "rosenbrock-large", "logreg-collinear")
METHODS = ("gd-spectral", "nag-spectral", "enhanced-nag", "enhanced-adagrad",
           "adam", "adam-oldqg", "adam-newqg")

# Read when numpy loads. The thread counts go to OpenBLAS, OpenMP and MKL:
# default threading makes eigvalsh on small matrices an order of magnitude
# slower on a 2-CPU machine and changes the last bits of large-n
# trajectories. Without NUMPY_MADVISE_HUGEPAGE=0 numpy asks for huge pages
# for arrays of 4 MB and more, and whether the host had them free changed
# the page faults of the same n=1000 run from 3000 to 5300 between
# processes, and enhanced Adagrad's time per iteration by up to 1.9x.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}

# reference.json holds exact outputs for this seed (paper-panels ignores seeds)
DEFAULT_SEED = 0
SETUP_PROBES = 5

# Median times of the speed probes in worker.py on the host the benchmark was
# defined on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
# That host's speed drifted by up to 2x over tens of seconds.
REFERENCE_PROBE_S = {"interpreter": 0.003, "eigvalsh-400": 0.011, "eigvalsh-1000": 0.120,
                     "logreg-first-order": 0.0023, "logreg-second-order": 0.0029}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(timeout: float, script: str, *args: str) -> dict:
    """Runs one child to completion and returns the JSON on its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: {script} {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    return run_child(seconds + 120, "worker.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", repr(seconds), "--mode", mode)


# ---------------------------------------------------------------- statistics

def sample_scales(op: dict) -> list[float]:
    """Per time of ``op``, the factor that turns it into a reference-speed time."""
    reference = REFERENCE_PROBE_S[op["probe"]]
    return [reference / probe_s for probe_s in op["probe_seconds"]]


def tail_percentile(values):
    """The highest whole percentile, at most 90, with >= 10 samples beyond it
    (nearest rank), and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max(50, min(90, math.floor(100 * (n - 10) / n)))
    return ordered[max(0, math.ceil(pct * n / 100) - 1)], pct


def timed_ops(result: dict) -> list[dict]:
    """The operations that succeeded at least once, with their times scaled
    by their probe, and each one's median scaled time.

    Medians per operation, summed or compared across operations, stay put
    while the host's speed drifts; a median of whole-pass times follows the
    drift more closely. An operation that always failed is left out: it is
    counted in ``failed``.
    """
    ops = []
    for op in result["ops"]:
        if op["seconds"]:
            scaled = [s * scale for s, scale in zip(op["seconds"], sample_scales(op))]
            ops.append(dict(op, scaled_s=scaled, median_s=statistics.median(scaled)))
    return ops


def typical_pass_s(result: dict) -> float:
    """Each pass operation's median scaled time, summed over the pass."""
    return sum(op["median_s"] for op in timed_ops(result) if op["in_pass"])


def end_to_end(result: dict, setup: list[dict]) -> list[tuple]:
    """(name, value, unit, samples, note) for every end-to-end metric."""
    ops = timed_ops(result)
    in_pass = [op for op in ops if op["in_pass"]]
    pooled_ms = [1e3 * s for op in in_pass for s in op["scaled_s"]]
    p90, pct = tail_percentile(pooled_ms)
    rows = [
        ("setup_s", statistics.median(probe["setup_s"] * REFERENCE_PROBE_S["interpreter"]
                                      / statistics.median(probe["probe_seconds"])
                                      for probe in setup),
         "s", len(setup), "median of fresh processes, each scaled by its own speed probe"),
        ("wall_s", typical_pass_s(result), "s", len(result["passes"]),
         "passes; sum over a pass's operations of each one's median time"),
        ("run_ms.p50", 1e3 * statistics.median(op["median_s"] for op in in_pass), "ms",
         len(pooled_ms), "median over operations of each one's median time"),
        ("run_ms.p90", p90, "ms", len(pooled_ms), f"p{pct} of all operation times"),
    ]
    for method in METHODS:
        runs = [op for op in ops if op["method"] == method]
        rows.append((f"us_per_iter.{method}",
                     1e6 * sum(op["median_s"] for op in runs)
                     / max(1, sum(op["iterations"] for op in runs)),
                     "us", sum(len(op["seconds"]) for op in runs),
                     f"sum of median run times / iterations, {len(runs)} runs"))
    rows.append(("peak_rss_mb", result["peak_rss_mb"], "MB", 1, "ru_maxrss of the worker"))
    rows.append(("failed_ratio", result["failed"] / result["attempted"], "ratio",
                 result["attempted"], "report only: 0 on a correct program"))
    return rows


def per_layer(traced: dict, plain: dict) -> list[tuple]:
    """(name, value, unit, samples, note) for every per-layer metric."""
    layers = traced["layers"]
    passes = len(layers)
    # spans mix operations; scale them by the median factor of all of them
    ms = 1e3 * statistics.median(scale for op in traced["ops"] if op["in_pass"]
                                 for scale in sample_scales(op))

    def median(per_pass):
        return statistics.median(per_pass(layer) for layer in layers)

    def calls(layer, name):
        return layer["calls"][name]

    rows = []
    for name in layers[0]["calls"]:
        rows.append((f"{name}.calls", median(lambda l: calls(l, name)), "count", passes,
                     "per pass"))
        rows.append((f"{name}.self_ms", median(lambda l: ms * l["self_s"][name]), "ms", passes,
                     "per pass, minus child spans"))
    rows += [
        ("linalg.solve.singular", median(lambda l: l["counts"]["singular"]), "count", passes,
         "SingularMatrix raised, per pass"),
        ("gradients.newton_ratios.exact_ratio",
         median(lambda l: l["counts"]["exact"] / max(1, calls(l, "gradients.newton_ratios"))),
         "ratio", passes, "exact solves / attempts"),
    ]
    for quantity in ("gradient", "hessian", "value"):
        rows.append((f"optimizers.{quantity}_per_iter",
                     median(lambda l: calls(l, f"functions.{quantity}")
                            / calls(l, "optimizers.step")),
                     "calls/iter", passes, f"functions.{quantity} calls / steps"))
    rows.append(("bench.csv_bytes", median(lambda l: l["counts"]["csv_bytes"]), "bytes", passes,
                 "emitted per pass"))
    rows.append(("trace.overhead_ratio", typical_pass_s(traced) / typical_pass_s(plain),
                 "ratio", passes, "traced wall_s / untraced wall_s"))
    return rows


def method_shares(traced: dict) -> list[str]:
    """Per method tag, from the traced run: Hessian evaluations per run() call
    and the layers with the largest share of the run() time."""
    totals: dict = {}
    for layer in traced["layers"]:
        for tag, entry in layer["by_method"].items():
            acc = totals.setdefault(tag, {"runs": 0, "run_s": 0.0, "calls": {}, "self_s": {}})
            acc["runs"] += entry["runs"]
            acc["run_s"] += entry["run_s"]
            for key in ("calls", "self_s"):
                for name, value in entry[key].items():
                    acc[key][name] = acc[key].get(name, 0) + value
    lines = ["per method, from the traced run() calls: Hessian evaluations per run, "
             "and the largest shares of run() time by layer self time"]
    for tag, acc in sorted(totals.items()):
        hessians = acc["calls"].get("functions.hessian", 0) / acc["runs"]
        top = sorted(acc["self_s"].items(), key=lambda item: -item[1])[:4]
        lines.append(f"  {tag:<24}hessian/run {hessians:<7g}"
                     + "  ".join(f"{name} {100 * s / acc['run_s']:.0f}%" for name, s in top))
    return lines


def speed_lines(label: str, result: dict) -> list[str]:
    probe_seconds: dict = {}
    for op in result["ops"]:
        probe_seconds.setdefault(op["probe"], []).extend(op["probe_seconds"])
    lines = []
    for kind, seconds in sorted(probe_seconds.items()):
        median_s = statistics.median(seconds)
        lines.append(f"{label}{kind} speed probe median {1e3 * median_s:.3f} ms over "
                     f"{len(seconds)} operations; each one's time is scaled to the reference "
                     f"{1e3 * REFERENCE_PROBE_S[kind]:g} ms (median factor "
                     f"{REFERENCE_PROBE_S[kind] / median_s:.4f})")
    return lines


def report(args, rows, lines, env, result):
    print(f"quadgrad benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("loop: closed, 1 client, 1 thread; each operation starts when the previous one "
          "returns, so nothing waits and no wait time is reported")
    print(f"{'metric':<40}{'value':>14}  {'unit':<11}{'samples':>8}  note")
    for name, value, unit, samples, note in rows:
        print(f"{name:<40}{value:>14.6g}  {unit:<11}{samples:>8}  {note}")
    for line in lines:
        print(line)
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("env: " + json.dumps(env, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quadgrad" / "__init__.py").is_file():
        sys.exit(f"run.py: no quadgrad sources under {ROOT / 'src'}")

    if args.trace:
        plain = worker(args.workload, args.seed, args.seconds / 2, "plain")
        traced = worker(args.workload, args.seed, args.seconds / 2, "traced")
        mismatched = sorted(key for key, outcome in traced["outcomes"].items()
                            if plain["outcomes"].get(key) != outcome)
        result = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"] + len(mismatched),
            "failures": plain["failures"] + traced["failures"]
            + [f"{key}: traced output differs from untraced" for key in mismatched],
        }
        rows = per_layer(traced, plain)
        lines = speed_lines("untraced: ", plain) + speed_lines("traced: ", traced)
        lines += method_shares(traced)
        env = traced["env"]
    else:
        setup = [run_child(60, "setup_probe.py") for _ in range(SETUP_PROBES)]
        result = worker(args.workload, args.seed, args.seconds, "e2e")
        rows = end_to_end(result, setup)
        lines, env = speed_lines("", result), result["env"]

    report(args, rows, lines, env, result)
    # failed_ratio is 0 on a correct program, so it is reported above but is
    # not a metric: the result carries failures as "failed" and "correct".
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, _ in rows if name != "failed_ratio"}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
