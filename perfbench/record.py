"""Repeatability and layer-share record for the benchmark in perfbench/run.py.

Run from the repository root:

    python3 perfbench/record.py spread --workload height --seeds 5
    python3 perfbench/record.py record --seeds 10 --out perfbench/recorded.json

`spread` runs the benchmark command once per seed (1..N) on each named
workload and prints, per end-to-end metric, the median, the quartiles and
the quartile spread as a share of the median, next to the metric's bound.

`record` does that twice on every workload, as two sets of runs of the same
code, and compares the sets: each median of the second against the first,
within the metric's bound, and the output digests seed by seed.  Then it
runs each workload's seed-1 job list once under the tracer and measures the
layer shares: each layer's self time as a share of the traced jobs' wall
time.  It writes everything, with the environment of the runs, to --out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def benchmark(workload: str, seed: int, trace: int = 0) -> dict:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(l.split()[-1] for l in lines if l.startswith("digest sha256 "))
    return result


def spread(workload: str, seeds: int) -> dict:
    """Per end-to-end metric: the values, their median and quartiles, and
    the quartile spread as a share of the median."""
    runs = [benchmark(workload, seed) for seed in range(1, seeds + 1)]
    summary = {"seeds": seeds, "failed": sum(r["failed"] for r in runs),
               "digests": [r["digest"] for r in runs], "metrics": {}}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": metric["bound"], "values": values,
        }
    return summary


def print_spread(workload: str, summary: dict) -> None:
    print(f"{workload}: {summary['seeds']} seeds, {summary['failed']} failed jobs")
    for name, m in summary["metrics"].items():
        flag = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
        print(f"  {name:12s} median {m['median']:9.4f}  q1 {m['q1']:9.4f}  q3 {m['q3']:9.4f}  "
              f"spread {m['spread']:.3f}  bound {m['bound']:.2f}  {flag}")


def _group(stat: str) -> str:
    """The layer a traced function belongs to; the oracle and the DP are
    kept apart inside core."""
    if stat.startswith("core.enumerate_"):
        return "core.oracle"
    if stat == "core.dp_count":
        return "core.dp"
    if stat.startswith("series."):
        return ".".join(stat.split(".")[:2])
    return stat.split(".")[0]


def shares(pairs: list) -> dict:
    """Layer self time as a share of the wall time of the traced jobs in
    `pairs` (job, Done).  "startup" is interpreter start plus everything no
    wrapper covers; "cli.import" is `import lukaspaths.cli`."""
    wall = sum(done.wall for _, done in pairs)
    totals: dict = {}
    for _, done in pairs:
        rec = run.trace_record(done)
        totals["cli.import"] = totals.get("cli.import", 0.0) + rec["import_s"]
        for stat, (_, self_s) in rec["stats"].items():
            totals[_group(stat)] = totals.get(_group(stat), 0.0) + self_s
    totals["startup"] = wall - sum(totals.values())
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    return {"wall_s": wall, "shares": {name: round(s / wall, 4) for name, s in ranked}}


def traced_shares(workload: str, seed: int = 1) -> dict:
    jobs = run.make_jobs(workload, seed, SPEC["run_seconds"])
    _, results, _ = run.run_pass(jobs, time.perf_counter() + 600, traced=True)
    pairs = list(zip(jobs, results))
    out = {"seed": seed, "all_jobs": shares(pairs)}
    if workload == "height":
        out["gf_route_jobs"] = shares([p for p in pairs if p[0].argv[-1] == "gf"])
        out["dp_route_jobs"] = shares([p for p in pairs if p[0].argv[-1] == "dp"])
    if workload == "small-queries":
        out["selftest_job"] = shares([p for p in pairs if p[0].argv == ("selftest",)])
    return out


def predictions(layers: dict) -> list:
    """The three predictions of the benchmark's design, checked against the
    measured shares."""
    gf = layers["gf-batch"]["all_jobs"]["shares"]
    series_share = gf.get("series.Series", 0.0)
    height = layers["height"]["gf_route_jobs"]["shares"]
    bounded_share = height.get("bounded", 0.0) + height.get("series.IntPoly", 0.0)
    selftest = layers["small-queries"]["selftest_job"]["shares"]
    largest = max((k for k in selftest if k != "startup"), key=selftest.get)
    return [
        {"prediction": "Series self time is the majority of gf-batch",
         "measured": f"series.Series share {series_share:.3f}",
         "verdict": "confirmed" if series_share > 0.5 else "corrected"},
        {"prediction": "bounded plus IntPoly self time is the majority of the gf-route height jobs",
         "measured": f"bounded + series.IntPoly share {bounded_share:.3f}",
         "verdict": "confirmed" if bounded_share > 0.5 else "corrected"},
        {"prediction": "the oracle is the largest layer of the selftest job",
         "measured": f"largest layer {largest} at {selftest[largest]:.3f}",
         "verdict": "confirmed" if largest == "core.oracle" else "corrected"},
    ]


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "git_rev": rev}


def agreement(first: dict, second: dict) -> dict:
    """How much worse each end-to-end median of the second set is than the
    first's, against the metric's bound, and whether the output digests of
    the same seeds are identical."""
    out = {}
    for workload, summary in first.items():
        row = {"digests_equal": summary["digests"] == second[workload]["digests"]}
        for metric in SPEC["end_to_end"]:
            m1 = summary["metrics"][metric["name"]]["median"]
            m2 = second[workload]["metrics"][metric["name"]]["median"]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            row[metric["name"]] = {"median_1": m1, "median_2": m2, "worse_by": worse,
                                   "bound": metric["bound"], "ok": worse <= metric["bound"]}
        out[workload] = row
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("spread", "record"))
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("quartiles need --seeds 2 or more")
    workloads = args.workload or list(run.WORKLOADS)
    record = {"environment": environment(), "run_seconds": SPEC["run_seconds"],
              "seeds": list(range(1, args.seeds + 1)), "sets": []}
    for _ in range(2 if args.mode == "record" else 1):
        summaries = {}
        for workload in workloads:
            summaries[workload] = spread(workload, args.seeds)
            print_spread(workload, summaries[workload])
        record["sets"].append(summaries)
    if args.mode == "record":
        record["agreement"] = agreement(*record["sets"])
        record["layer_shares"] = {w: traced_shares(w) for w in workloads}
        record["predictions"] = predictions(record["layer_shares"])
        print(json.dumps({"agreement": record["agreement"],
                          "predictions": record["predictions"]}, indent=1))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
