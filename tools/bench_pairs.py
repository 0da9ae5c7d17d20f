"""Alternated parent/change runs of perfbench, summarised by the pairs rule.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 \\
        --first-seed 6001 --claim desk-session:wall_s --out BENCH_20.json

``--parent`` and ``--change`` are two source checkouts, each holding
``perfbench/run.py`` and ``src/`` (a ``git worktree`` or ``git archive``
of the parent commit, and the change).  Pair i runs seed first-seed + i
on every workload, the parent first on even i and the change first on odd
i, one run at a time, for the run length, workloads and end-to-end
metrics that the change tree's ``BENCHMARK.json`` declares.  Before each run every ``__pycache__`` under both
trees is deleted, and the run gets ``PYTHONDONTWRITEBYTECODE=1``, so every
job compiles the package as it does from a fresh checkout.

The output file holds, per workload and end-to-end metric, each side's
runs, median and quartiles and the pairs the change won; and, for the
claimed workload and metric, the verdict of the rule: a gain is claimed
only when the change wins at least nine tenths of all pairs run (a tie
counts for neither side) and the medians differ, in the better
direction, by more than the parent's interquartile range.  Keys of an
existing output file that this tool does not write (hand-written notes)
are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

DIGITS = 4


def clear_bytecode(*trees: Path) -> None:
    """Delete every ``__pycache__`` directory under ``trees``."""
    for tree in trees:
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``tree``; its final JSON line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``runs``, inclusive method."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, median, q3


def side_summary(runs: list[float]) -> dict:
    """Median and quartiles of one side's runs, and the runs."""
    q1, median, q3 = quartiles(runs)
    return {
        "median": round(median, DIGITS),
        "q1": round(q1, DIGITS),
        "q3": round(q3, DIGITS),
        "runs": [round(x, DIGITS) for x in runs],
    }


def summarise(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Compare paired runs (parent[i] with change[i]) of one metric.

    ``gain`` is how much better the change's median is than the parent's,
    in the metric's unit; ``met`` is the verdict of the pairs rule."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gain, iqr = sign * (median - quartiles(change)[1]), q3 - q1
    return {
        "parent": side_summary(parent),
        "change": side_summary(change),
        "change_better_pairs": f"{wins}/{len(parent)}",
        "ties": ties,
        "gain": round(gain, DIGITS + 2),
        "parent_iqr": round(iqr, DIGITS + 2),
        "met": 10 * wins >= 9 * len(parent) and gain > iqr,
    }


def _git_head(tree: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", required=True, help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    claim_workload, claim_metric = args.claim.split(":")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    results = {w["name"]: {"parent": [], "change": []} for w in spec["workloads"]}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in results:
            for side in order:
                clear_bytecode(*trees.values())
                result = run_once(trees[side], workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{side} run of {workload} seed {seed} failed: {result}")
                results[workload][side].append({m: v["value"] for m, v in result["metrics"].items()})
                print(f"pair {i + 1} {workload} {side}: {results[workload][side][-1]}", file=sys.stderr)

    workloads = {
        w: {
            metric: summarise([r[metric] for r in sides["parent"]], [r[metric] for r in sides["change"]], better)
            for metric, better in metrics
        }
        for w, sides in results.items()
    }
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.update({
        "parent_commit": _git_head(trees["parent"]),
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "protocol": (
            f"{args.pairs} pairs per workload, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
            "parent first on odd pairs and change first on even ones; each side runs from its own copy "
            "of the source tree, one run at a time, with PYTHONDONTWRITEBYTECODE=1 and every __pycache__ "
            "of both trees deleted before each run; times are scaled by the benchmark's calibration task"
        ),
        "machine": {
            "cpu": f"{platform.processor() or platform.machine()}, {os.cpu_count()} cores",
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
        },
        "claimed": {
            "workload": claim_workload,
            "metric": claim_metric,
            **{key: workloads[claim_workload][claim_metric][key]
               for key in ("change_better_pairs", "gain", "parent_iqr", "met")},
        },
        "workloads": workloads,
    })
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
