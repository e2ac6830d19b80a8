"""tools/fingerprint.py on a reduced grid: its digest repeats and sees one flipped bit."""

from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

GRID = {"functions": ("booth", "rosenbrock:3"), "stepsizes": (0.1, 1e13), "scales": (1.0,),
        "iterations": 5}


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
