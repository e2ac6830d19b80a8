"""Alternating A/B runs of perfbench on two revisions; writes BENCH_<label>.json.

    python3 tools/ab_bench.py --label NAME [--parent REV] [--trace]

Both sides run the same way: each is extracted with ``git archive`` into the
gitignored ``.bench_tmp/`` and runs from there. The parent is a revision
(default ``HEAD``); the change is this working tree, snapshot as a git tree
(tracked edits and the untracked files that are not ignored) through a
temporary index, so the repository's own index is left alone. For every
workload of ``BENCHMARK.json`` and each of the ten seeds 0-9,
``perfbench/run.py --workload W --seed s --trace 0`` runs once in each tree,
one after the other, and the side that goes first alternates from seed to
seed, so a drift of the host's speed falls on both sides alike. Each
run is a fresh process tree and takes ``run_seconds`` of ``BENCHMARK.json``.

For every end-to-end metric of ``BENCHMARK.json`` the output holds each
side's median and quartiles over the seeds, the ratio change / parent of the
medians, how many seeds the change won (ties count for neither side), the
metric's regression bound and a verdict. Every run's ``correct``, ``failed``
and ``attempted`` are kept, with the seeds, both revisions and each side's
``env:`` line. ``--trace`` adds one ``--trace 1`` run per side and workload,
at seed 0, and keeps its per-layer metrics.

Standard library only; nothing under ``perfbench/`` is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = list(range(10))
# the least share of the parent's median a change's median must beat it by to read
# `gain`: a 1-2% drift between the two halves of a run can win 9 pairs in 10 and
# beat a narrow parent IQR on code the change does not reach
GAIN_FLOOR = 0.03


def parse_report(text: str) -> dict:
    """The last JSON line of a perfbench report, with its ``env:`` line as ``env``."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    env = [line[len("env: "):] for line in lines if line.startswith("env: ")]
    result["env"] = json.loads(env[-1]) if env else None
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (linear interpolation between order statistics)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str,
            bound: float, change_fails: bool) -> str:
    """``failed`` when ``change_fails`` (the change failed a larger share of
    operations than the parent, or reported ``correct: false``): its timings
    then count for nothing. Otherwise ``gain`` when the change wins at least 9
    in 10 pairs and its median beats the parent's by more than the parent's
    IQR and by more than ``GAIN_FLOOR`` of the parent's median; ``regression``
    when its median is worse by more than ``bound`` of the parent's;
    ``unresolved`` when either side's IQR exceeds that bound and not
    every change run beats every parent run; ``within bound`` otherwise."""
    if change_fails:
        return "failed"
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (parent["median"] - change["median"])
    if (pairs and wins >= 0.9 * pairs and gain > parent["iqr"]
            and gain > GAIN_FLOOR * abs(parent["median"])):
        return "gain"
    if -gain > bound * abs(parent["median"]):
        return "regression"
    widest = max(side["iqr"] / abs(side["median"]) if side["median"] else 0.0
                 for side in (parent, change))
    separated = (max(sign * v for v in change["values"])
                 < min(sign * v for v in parent["values"]))
    if widest > bound and not separated:
        return "unresolved"
    return "within bound"


def failing(runs: list[dict]) -> bool:
    """Whether the change side failed a larger share of its operations than
    the parent side, or any change run reported ``correct: false``."""
    share = {}
    for side in SIDES:
        reports = [run["report"] for run in runs if run["side"] == side]
        attempted = sum(r["attempted"] for r in reports)
        share[side] = sum(r["failed"] for r in reports) / attempted if attempted else 0.0
    return (share["change"] > share["parent"]
            or any(not run["report"]["correct"] for run in runs if run["side"] == "change"))


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric, both sides' spreads over the seeds and the verdict.

    ``runs`` holds one ``{"seed", "side", "report"}`` per run of one
    workload, ``report`` as returned by ``parse_report``; ``metrics`` is the
    ``end_to_end`` list of ``BENCHMARK.json``. A seed counts as a pair only
    when both sides reported the metric. Every metric reads ``failed`` when
    the change fails more than the parent (see ``failing``).
    """
    change_fails = failing(runs)
    summary = {}
    for metric in metrics:
        name = metric["name"]
        by_side = {side: {} for side in SIDES}
        for run in runs:
            entry = run["report"]["metrics"].get(name)
            if entry is not None:
                by_side[run["side"]][run["seed"]] = entry["value"]
        if not all(by_side.values()):
            continue
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * by_side["change"][s] < sign * by_side["parent"][s] for s in seeds)
        parent = spread([by_side["parent"][s] for s in sorted(by_side["parent"])])
        change = spread([by_side["change"][s] for s in sorted(by_side["change"])])
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            "wins": wins,
            "pairs": len(seeds),
            "verdict": verdict(parent, change, wins, len(seeds), metric["better"],
                               metric["bound"], change_fails),
        }
    return summary


def git(*args: str, root: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, stdout=subprocess.PIPE,
                          text=True, env=env).stdout.strip()


def snapshot(root: Path = ROOT) -> str:
    """The sha of a git tree holding ``root``'s working tree: HEAD with every tracked edit
    and every untracked file that is not ignored. It is built in a temporary index."""
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(scratch, "index")}
        git("read-tree", "HEAD", root=root, env=env)
        git("add", "-A", root=root, env=env)
        return git("write-tree", root=root, env=env)


def extract(rev: str, root: Path = ROOT) -> tuple[Path, dict]:
    """The files of ``rev`` (a revision, or a tree's sha from ``snapshot``) under
    ``.bench_tmp/<sha>`` (extracted once), and its identity.

    The archive is unpacked into a sibling directory that is renamed only
    once ``tar`` has succeeded, so an interrupted extraction is never reused.
    """
    sha = git("rev-parse", "--verify", rev, root=root)
    tree = root / ".bench_tmp" / sha
    if not tree.is_dir():
        partial = tree.with_name(f"{sha}.partial-{os.getpid()}")
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=root, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive, check=True)
        partial.rename(tree)
    return tree, {"rev": sha, "tree": str(tree.relative_to(root))}


def perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, timeout=4 * seconds + 600)
    if proc.returncode != 0:
        sys.exit(f"ab_bench: perfbench {workload} seed {seed} in {tree} "
                 f"exited with code {proc.returncode}")
    return parse_report(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_tree, parent_rev = extract(git("rev-parse", "--verify", f"{args.parent}^{{commit}}"))
    change_tree, change_rev = extract(snapshot())
    trees = {"parent": parent_tree, "change": change_tree}
    revs = {"parent": parent_rev,
            "change": {**change_rev, "head": git("rev-parse", "HEAD"),
                       "uncommitted": bool(git("status", "--porcelain", "--", ".",
                                               ":!BENCH_*.json"))}}

    out = {"label": args.label, "revs": revs, "seeds": SEEDS, "seconds": seconds,
           "env": {}, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for index, seed in enumerate(SEEDS):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"ab_bench: {workload} seed {seed} {side}", file=sys.stderr, flush=True)
                report = perfbench(trees[side], workload, seed, seconds, 0)
                out["env"].setdefault(side, report["env"])
                runs.append({"seed": seed, "side": side, "first": side == order[0],
                             "report": report})
        entry = {
            "runs": [{"seed": r["seed"], "side": r["side"], "first": r["first"],
                      "correct": r["report"]["correct"], "failed": r["report"]["failed"],
                      "attempted": r["report"]["attempted"]} for r in runs],
            "metrics": summarise(runs, benchmark["end_to_end"]),
        }
        if args.trace:
            entry["per_layer"] = {}
            for side in SIDES:
                print(f"ab_bench: {workload} traced {side}", file=sys.stderr, flush=True)
                traced = perfbench(trees[side], workload, SEEDS[0], seconds, 1)
                entry["per_layer"][side] = {name: m["value"]
                                            for name, m in traced["metrics"].items()}
        out["workloads"][workload] = entry
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"ab_bench: wrote {path.name} after {workload}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
