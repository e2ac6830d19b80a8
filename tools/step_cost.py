"""Per-method step cost of a git revision against this working tree, timed
interleaved in one process.

    python3 tools/step_cost.py [--rev REV] [--reps N] [--sizes N,N,...] [--methods M,M,...]

The revision (default ``HEAD``) is extracted with ``git archive`` into the
gitignored ``.bench_tmp/`` by ``ab_bench.extract``, and its ``src/quadgrad``
is imported under another package name (``quadgrad_<sha>``); the package's
own imports are relative, so both versions live side by side. The other
side is the working tree's ``src/quadgrad``, uncommitted edits included.

The grid is the ``run()`` calls that perfbench's ``paper-panels`` workload
times per method: GD-spectral, NAG-spectral and enhanced NAG on the five
``lemma-lr`` functions at 30 iterations, Adam, AdamOldQG and AdamNewQG on
Rosenbrock at n in {2, 5, 10, 20} for 30 and 300 iterations, and enhanced
Adagrad on the same Rosenbrock runs, each from ``bench.default_x0``; the
functions, sizes and horizons are those of ``fingerprint.py``'s CLI grid.
``--sizes`` runs the four Rosenbrock methods at other n instead, for example
around a size switch such as ``functions._FLOAT_MAX_N`` or
``optimizers._ADAM_FLOAT_MAX_N``. ``--methods`` keeps only the runs of the named
method labels (``adam-newqg,adam`` for example; an unknown label is a usage error). One
untimed pass checks that both sides give the same bits on every run, by
``fingerprint.digest`` of each run. Then
each of ``--reps`` repetitions times every run once on each side, back to
back, the side that goes first alternating from run to run and from
repetition to repetition, so a drift of the host's speed falls on both sides
alike. Sequential timing in separate processes does not survive that drift.
The two sides share one process and so one heap, which is why an in-process A/B
cannot show a saving that depends on the allocator: the LU workspace, one n x n
buffer per AdamNewQG run in place of a fresh copy per solve, read 1.00x here
and 0.88x in perfbench's rosenbrock-large.

Its header line gives each side's ``src/quadgrad`` line count and their difference, the net
``src/`` change a PR reports. For each method it prints the revision's median us/iter over the
repetitions and its interquartile range, the working tree's median, the
median of the paired ratios change / revision, in how many repetitions the
change was faster, each side's minor page faults per iteration (``ru_minflt``
around each timed run; the count depends on the allocator and on what ran
before, so compare only the two sides of one process), and the verdict of
``ab_bench.verdict``, the rule the BENCH files use, with the regression bound
of ``BENCHMARK.json``'s ``us_per_iter.<method>``; then the same per method and
function: the three ``lemma-lr`` methods on each of its functions, and the four
Rosenbrock methods at each n, where the objective's share of a step shrinks as n
grows. Every verdict reads ``failed`` when some run's bits differ. A function on
which a method takes no step (the quadratic counterexample starts at its maximum)
has no us/iter and no row.
Run as a script, it pins perfbench's environment before numpy is imported, over any value
already set: BLAS and OpenMP on one thread, no huge-page advice (``PINNED_ENV``, the values of
``perfbench/run.py``'s, copied); the header line ends with the pinned values.

Standard library, quadgrad, ``ab_bench`` and ``fingerprint`` only; nothing under
``perfbench/`` is imported.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
# what this process pinned: nothing when imported, where numpy may be loaded already
PINNED = PINNED_ENV if __name__ == "__main__" else {}
os.environ.update(PINNED)

from ab_bench import ROOT, extract, spread, verdict

# the working tree's quadgrad, which fingerprint imports too
sys.path.insert(0, str(ROOT / "src"))
import quadgrad
from fingerprint import LEMMA_FUNCTIONS, LEMMA_ITERATIONS, PANEL_HORIZONS, PANEL_SIZES, digest


# the lemma-lr experiment's methods, timed on each of its functions
LEMMA_METHODS = ("gd-spectral", "nag-spectral", "enhanced-nag")


def bounds() -> dict:
    """Method label -> the regression bound of ``us_per_iter.<label>`` in ``BENCHMARK.json``."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {metric["name"].removeprefix("us_per_iter."): metric["bound"]
            for metric in metrics if metric["name"].startswith("us_per_iter.")}


def method_configs(package) -> dict:
    """Label -> ``OptimizerConfig`` keyword arguments, perfbench's seven methods."""
    method, variant = package.Method, package.Variant
    bench = importlib.import_module(f"{package.__name__}.bench")
    eta, alpha = bench.DEFAULT_ENHANCED_ETA, bench.DEFAULT_ADAM_ALPHA
    return {
        "gd-spectral": dict(method=method.GD_SPECTRAL),
        "nag-spectral": dict(method=method.NAG_SPECTRAL),
        "enhanced-nag": dict(method=method.ENHANCED_NAG),
        "enhanced-adagrad": dict(method=method.ENHANCED_ADAGRAD, stepsize=eta),
        "adam": dict(method=method.ADAM, stepsize=alpha),
        "adam-oldqg": dict(method=method.ENHANCED_ADAM, stepsize=eta,
                           qg_variant=variant.ORIGINAL),
        "adam-newqg": dict(method=method.ENHANCED_ADAM, stepsize=eta, qg_variant=variant.NEW),
    }


def grid(package, sizes=PANEL_SIZES, methods=None) -> list[tuple[str, functools.partial]]:
    """The paper-panels ``run()`` grid of ``package`` as (method label, the call),
    with the Rosenbrock runs at each n of ``sizes``; only the runs of ``methods``'
    labels when it is given."""
    bench = importlib.import_module(f"{package.__name__}.bench")
    configs = method_configs(package)

    def entry(label, f, iterations):
        config = package.OptimizerConfig(max_iterations=iterations, **configs[label])
        return label, functools.partial(package.run, f, config, bench.default_x0(f))

    runs = []
    for function_id in LEMMA_FUNCTIONS:
        f = package.get_function(function_id)
        runs += [entry(label, f, LEMMA_ITERATIONS) for label in LEMMA_METHODS]
    for labels in (("adam", "adam-oldqg", "adam-newqg"), ("enhanced-adagrad",)):
        for n in sizes:
            f = package.rosenbrock(n)
            runs += [entry(label, f, iterations)
                     for iterations in PANEL_HORIZONS for label in labels]
    return [(label, call) for label, call in runs if methods is None or label in methods]


def src_lines(tree: Path) -> int:
    """Lines in the ``src/quadgrad/*.py`` files of the checkout at ``tree``, as ``wc -l``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "quadgrad").glob("*.py"))


def load(package_dir: Path, name: str):
    """The package in ``package_dir``, imported as ``name``, whatever the directory is called."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def time_grids(grids: dict, reps: int) -> dict:
    """Per side, per (method label, function name), per repetition: (seconds,
    iterations, minor page faults) summed over the grid's runs.

    ``grids`` maps each side to its grid; both list the same runs in the same order.
    """
    sides = list(grids)
    totals = {side: {} for side in sides}
    for rep in range(reps):
        for index, runs in enumerate(zip(*grids.values())):
            order = sides if (rep + index) % 2 == 0 else sides[::-1]
            for side in order:
                label, call = runs[sides.index(side)]
                faults = getrusage(RUSAGE_SELF).ru_minflt
                start = perf_counter()
                trajectory = call()
                elapsed = perf_counter() - start
                faults = getrusage(RUSAGE_SELF).ru_minflt - faults
                key = label, call.args[0].name
                per_rep = totals[side].setdefault(key, [[0.0, 0, 0] for _ in range(reps)])
                per_rep[rep][0] += elapsed
                per_rep[rep][1] += len(trajectory.records) - 1
                per_rep[rep][2] += faults
    return totals


def pooled(per_key: dict, group) -> dict:
    """``time_grids``' per-repetition totals of one side summed per ``group(label,
    function)``."""
    groups = {}
    for key, reps in per_key.items():
        sums = groups.setdefault(group(*key), [[0] * len(rep) for rep in reps])
        for total, rep in zip(sums, reps):
            total[:] = [a + b for a, b in zip(total, rep)]
    return groups


def faults_per_iter(reps: list) -> float:
    """Minor page faults per iteration over all of ``pooled``'s repetitions of one group."""
    return sum(faults for _, _, faults in reps) / sum(iterations for _, iterations, _ in reps)


def summarise(totals: dict, base: str, change: str, bound: dict, differ: bool = False,
              group=lambda label, function: label) -> dict:
    """Per group of runs, by default per method: both sides' median us/iter,
    the base side's IQR, the median paired ratio, the wins, both sides' minor
    page faults per iteration over all repetitions and the verdict under the
    method's ``bound`` (``failed`` when ``differ``). A group with no
    iterations is left out."""
    summary = {}
    labels = {group(*key): key[0] for key in totals[base]}
    change_groups = pooled(totals[change], group)
    for name, base_reps in pooled(totals[base], group).items():
        if not all(i for _, i, _ in base_reps + change_groups[name]):
            continue
        base_us = spread([1e6 * s / i for s, i, _ in base_reps])
        change_us = spread([1e6 * s / i for s, i, _ in change_groups[name]])
        pairs = list(zip(base_us["values"], change_us["values"]))
        wins = sum(c < b for b, c in pairs)
        summary[name] = {base: base_us["median"], f"{base}_iqr": base_us["iqr"],
                         change: change_us["median"],
                         "ratio": statistics.median(c / b for b, c in pairs),
                         "wins": wins, "reps": len(pairs),
                         f"{base}_faults": faults_per_iter(base_reps),
                         f"{change}_faults": faults_per_iter(change_groups[name]),
                         "verdict": verdict(base_us, change_us, wins, len(pairs), "lower",
                                            bound[labels[name]], differ)}
    return summary


def print_table(title: str, summary: dict):
    """``summarise``'s rows under a header whose first column is ``title``."""
    width = max(map(len, [title, *summary])) + 2
    print(f"{title:<{width}}{'rev us/iter':>12}{'rev IQR':>9}{'tree us/iter':>13}{'ratio':>8}"
          f"{'wins':>8}{'rev flt/iter':>13}{'tree flt/iter':>14}  verdict")
    for name, row in summary.items():
        print(f"{name:<{width}}{row['rev']:>12.1f}{row['rev_iqr']:>9.1f}{row['tree']:>13.1f}"
              f"{row['ratio']:>8.3f}{row['wins']:>5}/{row['reps']}{row['rev_faults']:>13.1f}"
              f"{row['tree_faults']:>14.1f}  {row['verdict']}")


def rosenbrock_sizes(text: str) -> list[int]:
    """``--sizes``' comma-separated integers, each at least 2."""
    try:
        sizes = [int(n) for n in text.split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 2:
        raise argparse.ArgumentTypeError(f"expected integers n >= 2, got {text!r}")
    return sizes


def method_labels(text: str) -> list[str]:
    """``--methods``' comma-separated labels, each one of ``method_configs``' keys."""
    labels = text.split(",")
    known = method_configs(quadgrad)
    if not all(label in known for label in labels):
        raise argparse.ArgumentTypeError(f"expected labels among {', '.join(known)}, "
                                         f"got {text!r}")
    return labels


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the revision to compare against")
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--sizes", type=rosenbrock_sizes, default=PANEL_SIZES,
                        help="Rosenbrock n, comma-separated (default: the panel sizes)")
    parser.add_argument("--methods", type=method_labels, default=None,
                        help="method labels to time, comma-separated (default: all seven)")
    args = parser.parse_args(argv)

    tree, rev = extract(args.rev)
    sha = rev["rev"]
    base = load(tree / "src" / "quadgrad", f"quadgrad_{sha[:12]}")
    grids = {"rev": grid(base, args.sizes, args.methods),
             "tree": grid(quadgrad, args.sizes, args.methods)}
    differ = sum(digest([a()]) != digest([b()])
                 for (_, a), (_, b) in zip(grids["rev"], grids["tree"]))
    lines = {"rev": src_lines(tree), "tree": src_lines(ROOT)}
    print(f"rev {sha[:12]} vs working tree: src/quadgrad {lines['rev']} -> {lines['tree']} "
          f"lines ({lines['tree'] - lines['rev']:+d}); {len(grids['tree'])} runs, "
          f"{differ} with different bits, {args.reps} reps"
          + "".join(f"; {name}={os.environ[name]}" for name in PINNED))
    totals, bound = time_grids(grids, args.reps), bounds()
    print_table("method", summarise(totals, "rev", "tree", bound, bool(differ)))
    print_table("method on function", summarise(
        totals, "rev", "tree", bound, bool(differ),
        lambda label, function: f"{label} {function}"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
