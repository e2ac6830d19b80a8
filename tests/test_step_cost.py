"""tools/step_cost.py's grid, loading, summary and verdicts.

The revision side is the working tree's package imported under another
name, so no git call is made, except by the script run in a repository of its own.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadgrad

TOOLS = Path(__file__).resolve().parents[1] / "tools"
LABELS = {"gd-spectral", "nag-spectral", "enhanced-nag", "enhanced-adagrad", "adam",
          "adam-oldqg", "adam-newqg"}


@pytest.fixture
def step_cost(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import step_cost

    return step_cost


@pytest.fixture
def copy(step_cost):
    """The working tree's package, imported a second time as ``quadgrad_copy``."""
    yield step_cost.load(Path(quadgrad.__file__).parent, "quadgrad_copy")
    for name in [name for name in sys.modules if name.split(".")[0] == "quadgrad_copy"]:
        del sys.modules[name]


def test_grid_is_the_paper_panels_run_grid(step_cost):
    runs = step_cost.grid(quadgrad)
    labels = [label for label, _ in runs]
    # three spectral-rate methods on five functions, three Adam variants and
    # enhanced Adagrad on four sizes at two horizons
    assert len(runs) == 3 * 5 + 3 * 4 * 2 + 4 * 2
    assert set(labels) == LABELS
    iterations = {label: 0 for label in LABELS}
    for label, call in runs:
        iterations[label] += len(call().records) - 1
    assert all(count > 0 for count in iterations.values())


def test_renamed_copy_runs_the_same_bits(step_cost, copy):
    assert copy.__name__ == "quadgrad_copy" and copy is not quadgrad
    assert copy.run.__module__ == "quadgrad_copy.optimizers"
    grids = {"rev": step_cost.grid(copy), "tree": step_cost.grid(quadgrad)}
    for (label, a), (other, b) in zip(grids["rev"], grids["tree"]):
        assert label == other
        assert step_cost.digest([a()]) == step_cost.digest([b()])


def test_summary_has_every_method_and_repetition(step_cost, copy):
    # the first run of each method of the grid, twice
    grids = {}
    for side, package in (("rev", copy), ("tree", quadgrad)):
        firsts = {}
        for label, call in step_cost.grid(package):
            firsts.setdefault(label, (label, call))
        grids[side] = list(firsts.values())
    totals = step_cost.time_grids(grids, reps=2)
    summary = step_cost.summarise(totals, "rev", "tree", step_cost.bounds())
    assert set(summary) == LABELS
    for row in summary.values():
        assert set(row) == {"rev", "rev_iqr", "tree", "ratio", "wins", "reps", "rev_faults",
                            "tree_faults", "verdict"}
        assert row["reps"] == 2 and 0 <= row["wins"] <= 2
        assert row["rev"] > 0.0 and row["tree"] > 0.0 and row["rev_iqr"] >= 0.0
        assert row["verdict"] in {"gain", "regression", "unresolved", "within bound"}
    # runs whose bits differ count for nothing
    failed = step_cost.summarise(totals, "rev", "tree", step_cost.bounds(), differ=True)
    assert {row["verdict"] for row in failed.values()} == {"failed"}


def test_bounds_are_the_benchmark_us_per_iter_bounds(step_cost):
    bounds = step_cost.bounds()
    assert set(bounds) == LABELS and all(0.0 < bound < 1.0 for bound in bounds.values())


def test_verdict_is_the_ab_bench_rule(step_cost):
    # rev side 100 us/iter in every repetition but one, the change 10% faster in all ten
    base = [100.0] * 9 + [101.0]
    totals = {"rev": {("adam", "rosenbrock:2"): [[1e-4 * us, 100, 0] for us in base]},
              "tree": {("adam", "rosenbrock:2"): [[0.9e-4 * us, 100, 0] for us in base]}}
    row = step_cost.summarise(totals, "rev", "tree", {"adam": 0.25})["adam"]
    assert row["wins"] == 10 and row["ratio"] == pytest.approx(0.9)
    assert row["rev_iqr"] == pytest.approx(0.0) and row["verdict"] == "gain"
    swapped = step_cost.summarise(totals, "tree", "rev", {"adam": 0.05})["adam"]
    assert swapped["verdict"] == "regression"
    assert step_cost.summarise(totals, "tree", "rev", {"adam": 0.25})["adam"]["verdict"] == (
        "within bound")


def test_lemma_methods_split_per_function(step_cost, copy, capsys):
    grids = {side: [(label, call) for label, call in step_cost.grid(package)
                    if label in step_cost.LEMMA_METHODS]
             for side, package in (("rev", copy), ("tree", quadgrad))}
    totals = step_cost.time_grids(grids, reps=2)
    summary = step_cost.summarise(totals, "rev", "tree", step_cost.bounds(),
                                  group=lambda label, function: (label, function))
    # the quadratic counterexample starts at its maximum: no step, no us/iter, no row
    assert set(summary) == {(label, function) for label in step_cost.LEMMA_METHODS
                            for function in step_cost.LEMMA_FUNCTIONS
                            if function != "quadratic-counterexample"}
    assert all(row["reps"] == 2 and row["tree"] > 0.0 for row in summary.values())
    # the per-method rows pool the same runs
    methods = step_cost.summarise(totals, "rev", "tree", step_cost.bounds())
    assert set(methods) == set(step_cost.LEMMA_METHODS)
    step_cost.print_table("method on function",
                          {f"{label} {function}": row for (label, function), row in summary.items()})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["method", "on", "function", "rev"]
    assert len(lines) == 1 + len(summary) and lines[1].startswith("gd-spectral booth ")
    assert lines[0].split()[-1] == "verdict" and all(
        line.endswith(row["verdict"]) for line, row in zip(lines[1:], summary.values()))


def test_main_splits_every_method_per_function(step_cost, monkeypatch, capsys):
    # the revision side is the working tree again, as the copy fixture makes it
    root = Path(quadgrad.__file__).parents[2]
    sha = "f" * 40
    monkeypatch.setattr(step_cost, "extract", lambda rev: (root, {"rev": sha}))
    try:
        assert step_cost.main(["--reps", "1"]) == 0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == f"quadgrad_{sha[:12]}"]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("47 runs, 0 with different bits, 1 reps")
    start = next(i for i, line in enumerate(lines) if line.startswith("method on function"))
    table = lines[start + 1:]
    # the lemma-lr methods on each function they step on, and the four
    # Rosenbrock methods at each panel size
    rosenbrock_methods = LABELS - set(step_cost.LEMMA_METHODS)
    assert {" ".join(line.split()[:2]) for line in table} == {
        f"{label} {function}" for label in step_cost.LEMMA_METHODS
        for function in step_cost.LEMMA_FUNCTIONS if function != "quadratic-counterexample"
    } | {f"{label} rosenbrock:{n}" for label in rosenbrock_methods
         for n in step_cost.PANEL_SIZES}


def test_sizes_set_the_rosenbrock_runs(step_cost, monkeypatch, capsys):
    assert [call.args[0].name for _, call in step_cost.grid(quadgrad, [3])][15:] == (
        ["rosenbrock:3"] * 8)
    root = Path(quadgrad.__file__).parents[2]
    sha = "e" * 40
    monkeypatch.setattr(step_cost, "extract", lambda rev: (root, {"rev": sha}))
    # argparse refuses a size Rosenbrock would refuse, before any revision is loaded
    for bad in ("1", "3,x", ""):
        with pytest.raises(SystemExit, match="2"):
            step_cost.main(["--sizes", bad])
        assert "expected integers n >= 2" in capsys.readouterr().err
    try:
        assert step_cost.main(["--reps", "1", "--sizes", "3,12"]) == 0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == f"quadgrad_{sha[:12]}"]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    # the lemma-lr runs as before, the four Rosenbrock methods at the two sizes
    assert lines[0].endswith("31 runs, 0 with different bits, 1 reps")
    rosenbrock_methods = LABELS - set(step_cost.LEMMA_METHODS)
    assert {" ".join(line.split()[:2]) for line in lines
            if line.split()[0] in rosenbrock_methods and " rosenbrock:" in line} == {
        f"{label} rosenbrock:{n}" for n in (3, 12) for label in rosenbrock_methods}


def test_tables_show_each_sides_faults_per_iteration(step_cost, monkeypatch, capsys):
    # pooled over repetitions and runs: (3 + 5 + 7 + 9) faults over 4 x 10 iterations
    totals = {side: {("adam", "rosenbrock:2"): [[1e-3, 10, faults], [1e-3, 10, faults + 2]],
                     ("adam", "rosenbrock:3"): [[1e-3, 10, faults + 4], [1e-3, 10, faults + 6]]}
              for side, faults in (("rev", 3), ("tree", 0))}
    row = step_cost.summarise(totals, "rev", "tree", {"adam": 0.25})["adam"]
    assert row["rev_faults"] == 24 / 40 and row["tree_faults"] == 12 / 40
    root = Path(quadgrad.__file__).parents[2]
    sha = "d" * 40
    monkeypatch.setattr(step_cost, "extract", lambda rev: (root, {"rev": sha}))
    try:
        assert step_cost.main(["--reps", "1", "--sizes", "3"]) == 0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == f"quadgrad_{sha[:12]}"]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    headers = [line for line in lines if line.startswith("method")]
    assert len(headers) == 2
    # the counts depend on the allocator: only that each row has a count >= 0 per side
    for header in headers:
        assert "rev flt/iter" in header and header.endswith("tree flt/iter  verdict")
    for fields in (line.split() for line in lines[1:] if not line.startswith("method")):
        wins = next(k for k, field in enumerate(fields) if "/" in field)
        assert fields[wins].endswith("/1")
        assert all(float(count) >= 0.0 for count in fields[wins + 1:wins + 3])
    assert any(line.startswith("adam-newqg rosenbrock:3 ") for line in lines)


def test_methods_time_only_the_named_methods(step_cost, monkeypatch, capsys):
    assert [label for label, _ in step_cost.grid(quadgrad, [3], ["adam-newqg", "adam"])] == (
        ["adam", "adam-newqg"] * 2)
    root = Path(quadgrad.__file__).parents[2]
    sha = "c" * 40
    monkeypatch.setattr(step_cost, "extract", lambda rev: (root, {"rev": sha}))
    # argparse refuses an unknown label, before any revision is loaded
    for bad in ("adam-new", "adam,", ""):
        with pytest.raises(SystemExit, match="2"):
            step_cost.main(["--methods", bad])
        assert "expected labels among gd-spectral, " in capsys.readouterr().err
    try:
        assert step_cost.main(["--reps", "1", "--sizes", "3", "--methods", "adam-newqg"]) == 0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == f"quadgrad_{sha[:12]}"]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    # AdamNewQG on Rosenbrock(3) at the two horizons, and nothing else
    assert lines[0].endswith("2 runs, 0 with different bits, 1 reps")
    rows = [line.split()[0] for line in lines[1:] if not line.startswith("method")]
    assert rows == ["adam-newqg", "adam-newqg"]
    assert any(line.startswith("adam-newqg rosenbrock:3 ") for line in lines)


def test_header_gives_each_sides_src_line_count(step_cost, monkeypatch, capsys, tmp_path):
    # the revision side is a copy of the working tree's package with two lines more
    root = Path(quadgrad.__file__).parents[2]
    shutil.copytree(root / "src" / "quadgrad", tmp_path / "src" / "quadgrad",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "quadgrad" / "errors.py", "a") as errors:
        errors.write("# one\n# two\n")
    files = sorted(str(path) for path in (root / "src" / "quadgrad").glob("*.py"))
    total = subprocess.run(["wc", "-l", *files], check=True, stdout=subprocess.PIPE,
                           text=True).stdout.splitlines()[-1].split()[0]
    assert step_cost.src_lines(root) == int(total)
    sha = "d" * 40
    monkeypatch.setattr(step_cost, "extract", lambda rev: (tmp_path, {"rev": sha}))
    try:
        assert step_cost.main(["--reps", "1", "--sizes", "3", "--methods", "adam"]) == 0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == f"quadgrad_{sha[:12]}"]:
            del sys.modules[name]
    assert capsys.readouterr().out.splitlines()[0] == (
        f"rev {sha[:12]} vs working tree: src/quadgrad {int(total) + 2} -> {total} lines (-2); "
        "2 runs, 0 with different bits, 1 reps")


def test_script_pins_perfbenchs_environment_over_set_values(step_cost, tmp_path, monkeypatch):
    # a repository of the tools, the package and the bounds, so the script's
    # git calls stay in it; every pinned variable starts at another value
    root = Path(quadgrad.__file__).parents[2]
    for part in ("tools", "src/quadgrad"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    identity = ["-c", "user.name=test", "-c", "user.email=test@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(["git", *identity, *args], cwd=tmp_path, check=True)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    env.update({name: "2" for name in step_cost.PINNED_ENV})
    out = subprocess.run([sys.executable, "tools/step_cost.py", "--reps", "1", "--sizes", "2",
                          "--methods", "adam"], cwd=tmp_path, env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.splitlines()[0].endswith(
        "2 runs, 0 with different bits, 1 reps; OMP_NUM_THREADS=1; OPENBLAS_NUM_THREADS=1; "
        "MKL_NUM_THREADS=1; NUMPY_MADVISE_HUGEPAGE=0")
    # imported, it pins nothing; its values are perfbench's
    assert step_cost.PINNED == {}
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from run import PINNED_ENV

    assert step_cost.PINNED_ENV == PINNED_ENV
