"""tools/ab_bench.py's report parsing and summary, on canned perfbench reports, and its
working-tree snapshot, in a throwaway repository.

No benchmark runs here: the reports are written out as perfbench prints them.
"""

import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "us_per_iter.gd-spectral", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "us_per_iter.adam", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


@pytest.fixture
def ab_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import ab_bench

    return ab_bench


def report(values, correct=True, failed=None):
    """A perfbench ``--trace 0`` report with the given metric values; by
    default one of its 20 operations failed when it is not correct."""
    if failed is None:
        failed = 0 if correct else 1
    metrics = ", ".join(f'"{name}": {{"value": {value}, "unit": "us"}}'
                        for name, value in values.items())
    return "\n".join([
        "quadgrad benchmark: workload=logreg-collinear seed=0 seconds=30 trace=0",
        "metric                                           value  unit        samples  note",
        "wall_s                                         1.25  s                 20  passes",
        'env: {"cpus": [0, 1], "python": "3.11.7"}',
        f'{{"correct": {str(correct).lower()}, "attempted": 20, "failed": {failed}, '
        f'"metrics": {{{metrics}}}}}',
    ]) + "\n"


def runs_of(ab_bench, parent, change, metric, parent_state=None, change_state=None):
    """One parsed report per seed and side, ``metric`` taking the listed values;
    ``*_state`` are ``report``'s ``correct``/``failed`` for that side's first run."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value, state in (("parent", p, parent_state), ("change", c, change_state)):
            text = report({metric: value}, **(state if state and seed == 0 else {}))
            runs.append({"seed": seed, "side": side, "report": ab_bench.parse_report(text)})
    return runs


def test_parse_report_reads_the_last_line_and_env(ab_bench):
    parsed = ab_bench.parse_report(report({"wall_s": 1.25}, correct=False))
    assert parsed["correct"] is False
    assert parsed["failed"] == 1 and parsed["attempted"] == 20
    assert parsed["metrics"] == {"wall_s": {"value": 1.25, "unit": "us"}}
    assert parsed["env"] == {"cpus": [0, 1], "python": "3.11.7"}


def test_summary_of_a_clear_gain(ab_bench):
    parent = [1940.0, 1900.0, 2000.0, 1960.0, 1920.0]
    change = [1630.0, 1640.0, 1600.0, 1650.0, 1635.0]
    runs = runs_of(ab_bench, parent, change, "us_per_iter.gd-spectral")
    entry = ab_bench.summarise(runs, METRICS)["us_per_iter.gd-spectral"]
    assert entry["parent"]["median"] == 1940.0
    # inclusive quartiles of 1900, 1920, 1940, 1960, 2000
    assert (entry["parent"]["q1"], entry["parent"]["q3"]) == (1920.0, 1960.0)
    assert entry["parent"]["iqr"] == 40.0
    assert entry["change"]["median"] == 1635.0
    assert entry["ratio"] == 1635.0 / 1940.0
    assert (entry["wins"], entry["pairs"]) == (5, 5)
    assert entry["bound"] == 0.25 and entry["unit"] == "us"
    assert entry["verdict"] == "gain"


def test_ties_count_for_neither_side(ab_bench):
    runs = runs_of(ab_bench, [10.0, 10.0, 10.0], [10.0, 9.0, 11.0], "wall_s")
    entry = ab_bench.summarise(runs, METRICS)["wall_s"]
    assert (entry["wins"], entry["pairs"]) == (1, 3)
    assert entry["verdict"] == "within bound"


CLEAR_GAIN = ([100.0, 101.0, 102.0], [80.0, 81.0, 82.0])


@pytest.mark.parametrize(
    "parent, change, parent_state, change_state, expected",
    [
        # worse by 30% against a 25% bound
        ([100.0, 100.0, 100.0], [130.0, 130.0, 130.0], None, None, "regression"),
        # worse by 20%: inside the bound
        ([100.0, 100.0, 100.0], [120.0, 120.0, 120.0], None, None, "within bound"),
        # parent IQR 50% of its median, the runs overlap
        ([50.0, 100.0, 150.0], [60.0, 100.0, 140.0], None, None, "unresolved"),
        # as wide, and every change run beats every parent run, by less
        # than the parent's IQR
        ([100.0, 101.0, 200.0], [99.0, 99.5, 99.9], None, None, "within bound"),
        ([100.0, 101.0, 200.0], [99.0, 99.5, 100.5], None, None, "unresolved"),
        (*CLEAR_GAIN, None, None, "gain"),
        # ten wins in ten beyond a parent IQR of 0: 1.5% faster is under the 3% floor,
        # 10% faster is over it
        ([100.0] * 10, [98.5] * 10, None, None, "within bound"),
        ([100.0] * 10, [90.0] * 10, None, None, "gain"),
        # the change failed one operation more than the parent
        (*CLEAR_GAIN, None, {"correct": False}, "failed"),
        (*CLEAR_GAIN, None, {"correct": True, "failed": 1}, "failed"),
        # a change run that is not correct, with no more failures
        (*CLEAR_GAIN, None, {"correct": False, "failed": 0}, "failed"),
        # both sides failed the same share: the timings still count
        (*CLEAR_GAIN, {"correct": True, "failed": 1}, {"correct": True, "failed": 1}, "gain"),
        # the parent failed more: not held against the change
        (*CLEAR_GAIN, {"correct": False}, None, "gain"),
    ],
)
def test_verdicts(ab_bench, parent, change, parent_state, change_state, expected):
    runs = runs_of(ab_bench, parent, change, "wall_s", parent_state, change_state)
    assert ab_bench.summarise(runs, METRICS)["wall_s"]["verdict"] == expected


def test_metric_missing_on_one_side_is_left_out(ab_bench):
    runs = runs_of(ab_bench, [1.0, 1.0], [1.0, 1.0], "wall_s")
    runs[1]["report"]["metrics"]["peak_rss_mb"] = {"value": 40.0, "unit": "MB"}
    summary = ab_bench.summarise(runs, METRICS)
    assert set(summary) == {"wall_s"}


def git_in(root, *args):
    identity = ["-c", "user.name=t", "-c", "user.email=t@example.org", "-c", "commit.gpgsign=false"]
    return subprocess.run(["git", *identity, *args], cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def test_snapshot_holds_the_working_tree_and_leaves_the_index(ab_bench, tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    git_in(root, "init", "-q")
    (root / ".gitignore").write_text("ignored.txt\n.bench_tmp/\n")
    (root / "kept.txt").write_text("committed\n")
    (root / "edited.txt").write_text("committed\n")
    git_in(root, "add", "-A")
    git_in(root, "commit", "-q", "-m", "base")
    (root / "edited.txt").write_text("edited, not committed\n")
    (root / "new.txt").write_text("untracked\n")
    (root / "ignored.txt").write_text("ignored\n")
    status = git_in(root, "status", "--porcelain")

    sha = ab_bench.snapshot(root)
    tree, identity = ab_bench.extract(sha, root)
    assert identity == {"rev": sha, "tree": f".bench_tmp/{sha}"}
    assert sorted(p.name for p in tree.iterdir()) == [".gitignore", "edited.txt", "kept.txt",
                                                       "new.txt"]
    assert (tree / "edited.txt").read_text() == "edited, not committed\n"
    assert (tree / "new.txt").read_text() == "untracked\n"
    # the repository's index and working tree are as they were
    assert git_in(root, "status", "--porcelain") == status
    # a committed revision is extracted the same way, beside the snapshot
    head = git_in(root, "rev-parse", "HEAD").strip()
    head_tree, _ = ab_bench.extract(head, root)
    assert (head_tree / "edited.txt").read_text() == "committed\n"
    assert not (head_tree / "new.txt").exists()
