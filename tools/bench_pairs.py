#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload small-queries --workload height --seed 13 --out BENCH_13.json

Each of ten pairs runs `perfbench/run.py --seconds 25 --trace 0` once in
each checkout, with the same workload and seed; the side that runs first
alternates from pair to pair.  Ten pairs is what the rule for a resolved
gain (nine wins in ten) is written for.  Every run uses the checkout's own
`perfbench/run.py` and `BENCHMARK.json`.  Python's bytecode caches are
deleted from both trees before every run, because a tree that still holds
`__pycache__` measures faster whatever its code.

The BENCH file holds the environment, both revisions, every pair's metrics,
digests and failed counts, and per workload and metric: each side's median
and quartiles, how many pairs the change won and lost (ties count for
neither), and whether the change's median is better than the parent's by
more than the parent's quartile spread.  After writing the file, the tool
prints one line per workload and metric with those figures (`verdicts`),
each side as its median and quartiles: `parent 5 [4.9-5.1] -> change 4
[3.9-4.1]`.
The file is written either way, but the tool exits 1 if any workload's
answer digests differ, between the sides or between runs, or if any run
failed jobs: such a file compares different outputs.  Standard library
only.
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
from typing import Optional

DIGEST_PREFIX = "digest sha256 "
PAIRS = 10
SECONDS = 25


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    sorted values (the `inclusive` method, numpy's default)."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary of one metric over pairs: `parent[i]` and `change[i]` are the
    two sides of pair i, and `better` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (pmed - cmed)
    return {
        "parent": {"median": pmed, "q1": pq1, "q3": pq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        # negative when the change's median is better
        "relative_change": (cmed - pmed) / pmed if pmed else None,
        "within_bound": -gain <= bound * abs(pmed),
        "gain_resolved": wins * 10 >= 9 * len(parent) and gain > pq3 - pq1,
    }


def _side(q: dict) -> str:
    """A side's median and its quartiles, as `5 [4.9-5.1]`."""
    return f"{q['median']:.4g} [{q['q1']:.4g}-{q['q3']:.4g}]"


def verdicts(report: dict) -> list[str]:
    """One line per workload and metric: both medians with their quartiles,
    the relative change, wins and losses, and whether the metric is within
    its bound and its gain resolved."""
    lines = []
    for workload, result in report["workloads"].items():
        for name, r in result["metrics"].items():
            rel = r["relative_change"]
            lines.append(
                f"{workload} {name}: parent {_side(r['parent'])} -> change "
                f"{_side(r['change'])} ({'n/a' if rel is None else format(rel, '+.1%')}), "
                f"wins {r['wins']}/{r['pairs']}, losses {r['losses']}, "
                f"within_bound {r['within_bound']}, gain_resolved {r['gain_resolved']}")
    return lines


def refusal(report: dict) -> Optional[str]:
    """Why the report's sides cannot be compared, or None: a workload whose
    runs printed answers of different digests, or failed jobs."""
    for workload, result in report["workloads"].items():
        if not result["equal_digests"]:
            return f"{workload}: the runs' answer digests differ"
        if any(result["failed"].values()):
            return f"{workload}: failed jobs {result['failed']}"
    return None


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def revision(tree: Path) -> Optional[str]:
    """`git describe` of the tree: its commit, with `-dirty` if it has
    uncommitted changes; None outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty",
                           "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_run(stdout: str) -> dict:
    """The result line (the last line, JSON) and the digest of one run."""
    lines = stdout.rstrip("\n").split("\n")
    record = json.loads(lines[-1])
    digests = [line[len(DIGEST_PREFIX):] for line in lines if line.startswith(DIGEST_PREFIX)]
    return {
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        "digest": digests[-1] if digests else None,
        "failed": record["failed"],
        "attempted": record["attempted"],
    }


def bench_once(tree: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    report = {
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "revisions": {side: revision(tree) for side, tree in trees.items()},
        },
        "settings": {"seed": args.seed, "seconds": SECONDS, "pairs": PAIRS, "trace": 0},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                for tree in trees.values():
                    clear_bytecode(tree)
                runs[side] = bench_once(trees[side], workload, args.seed)
                print(f"{workload} pair {i + 1}/{PAIRS} {side}: "
                      f"{json.dumps(runs[side]['metrics'])}", file=sys.stderr)
            pairs.append({"first": order[0], **runs})
        report["workloads"][workload] = {
            "pairs": pairs,
            "equal_digests": len({p[s]["digest"] for p in pairs for s in trees}) == 1,
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in trees},
            "metrics": {
                m["name"]: compare([p["parent"]["metrics"][m["name"]] for p in pairs],
                                   [p["change"]["metrics"][m["name"]] for p in pairs],
                                   m["better"], m["bound"])
                for m in spec["end_to_end"]
            },
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for line in verdicts(report):
        print(line)
    reason = refusal(report)
    if reason:
        print(f"error: {reason}; {args.out} compares different outputs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
