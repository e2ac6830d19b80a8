"""tools/fingerprint.py on reduced grids: its digests repeat and see one flipped bit."""

from pathlib import Path

import numpy as np
import pytest

from quadgrad import experiment_adam_qg
from test_optimizers import METHOD_VARIANTS

TOOLS = Path(__file__).resolve().parents[1] / "tools"

GRID = {"functions": ("booth", "rosenbrock:3"), "stepsizes": (0.1, 1e13), "scales": (1.0,),
        "iterations": 5}

# The full grids' digests, as tools/fingerprint.py prints them with numpy 2.4.6
# on scipy-openblas 0.3.31; another BLAS build may round differently.
PINNED = {
    "runs": (1440, "1ffd5d4e626265fffe0d95916746ec924c3bbd886072320051d631b59c385e0a"),
    "csvs": (29, "827337512618ba00f669f66c64f717f5b6826c99d672aab87c06a30276e39fa6"),
}


@pytest.fixture
def fingerprint(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import fingerprint

    return fingerprint


def test_digest_repeats_and_changes_with_one_iterate_bit(fingerprint):
    runs = list(fingerprint.trajectories(**GRID))
    count, digest = fingerprint.digest(runs)
    # 8 method and accelerator choices, fresh and frozen, on each function and stepsize
    assert count == 8 * 2 * 2 * 2
    assert any(traj.diverged for traj in runs) and not all(traj.diverged for traj in runs)
    assert fingerprint.digest(fingerprint.trajectories(**GRID)) == (count, digest)

    runs[-1].records[-1].iterate.view(np.int64)[-1] ^= 1
    flipped_count, flipped = fingerprint.digest(runs)
    assert flipped_count == count
    assert flipped != digest


def test_csv_digest_repeats_and_changes_with_one_byte(fingerprint):
    # one CSV of the CLI grid: adam-qg at n=2, eta 1.5, 5 iterations
    argvs = list(fingerprint.cli_arguments(sizes=(2,), etas=("1.5",), horizons=(5,),
                                           functions=()))
    assert argvs == [["--experiment", "adam-qg", "--nvars", "2", "--eta", "1.5",
                      "--iters", "5"]]
    csvs = [fingerprint.cli_csv(argv) for argv in argvs]
    assert csvs[0] == experiment_adam_qg(2, iterations=5, eta=1.5).emit().encode()
    count, digest = fingerprint.csv_digest(csvs)
    assert count == 1
    assert fingerprint.csv_digest(fingerprint.cli_csv(argv) for argv in argvs) == (1, digest)

    flipped = bytearray(csvs[0])
    flipped[-2] ^= 1
    assert fingerprint.csv_digest([bytes(flipped)]) != (1, digest)


def test_cli_grid_covers_the_paper_panels(fingerprint):
    argvs = list(fingerprint.cli_arguments())
    assert len(argvs) == 24 + 5
    assert sum(argv[1] == "adam-qg" for argv in argvs) == 24


def test_run_grid_covers_every_method_and_accelerator(fingerprint):
    # METHOD_VARIANTS is pinned to the optimizer table's keys
    assert fingerprint.METHODS == METHOD_VARIANTS


def test_failing_cli_call_raises(fingerprint):
    with pytest.raises(RuntimeError, match="exited 3"):
        fingerprint.cli_csv(["--function", "nosuch"])


def test_full_grids_keep_the_pinned_digests(fingerprint):
    got = {"runs": fingerprint.digest(fingerprint.trajectories()),
           "csvs": fingerprint.csv_digest(fingerprint.cli_csv(argv)
                                          for argv in fingerprint.cli_arguments())}
    assert got == PINNED, (
        "output bits changed; a change that alters them on purpose updates PINNED "
        "and says so in CHANGES.md (the pin holds for numpy 2.4.6 on scipy-openblas 0.3.31)")
