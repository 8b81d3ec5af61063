"""Benchmark of the `lukas` command line.

Run from the repository root:

    python3 perfbench/run.py --workload gf-batch --seed 1 --seconds 20 --trace 0

A workload is a list of `lukas` jobs made from the seed.  Each job is a fresh
``python -m lukaspaths <argv>`` process, because a command-line user pays
interpreter start-up and import on every call.  This script runs the jobs one
after another: a closed loop with a single client.  Every answer is checked
after the timed loop, and a job that exits non-zero, answers wrongly or is
killed at the per-job time limit counts as failed.

``--trace 0`` reports the end-to-end metrics that BENCHMARK.json declares.
``--trace 1`` runs each job untraced and then again under perfbench/tracer.py,
and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it state the job count, the
percentile behind ``job_tail_s``, the environment and a SHA-256 digest of the
job outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Optional

from tracer import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

#: Job counts are sized so that a run lasts about `--seconds` on a 2-core
#: x86-64 box with Python 3.11; they scale linearly with `--seconds`.
REFERENCE_SECONDS = 20
#: With 21 jobs or more, the slowest-but-ten job sits above the median.
MIN_JOBS = 21
JOB_LIMIT_S = 60.0
#: Jobs not started by this many seconds after the run began count as failed,
#: so a run ends well within three minutes however slow the program gets.
RUN_LIMIT_S = 150.0
SETUP_ARGV = ("count", "--n", "1", "--k", "0")
SETUP_SPAWNS = 31
KINDS = ("any", "up", "flat", "down")


@dataclass
class Job:
    argv: tuple[str, ...]
    #: what the answer is checked against; "type" selects the check
    check: dict


@dataclass
class Done:
    rc: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_kb: int


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


# Each workload has a fixed design: which kinds, orientations, end heights
# and size slices its jobs have, and how they pair up.  The seed picks the
# exact size inside each slice, the sampled indices and fixtures, and the
# order of the jobs.  Job costs differ by 10x inside a workload, so letting the seed
# re-pair them would move the run's total and median by more than the
# regressions the benchmark must catch.


def _balanced(design: random.Random, values, count: int) -> list:
    """`count` items cycling through `values`, shuffled, so every value
    appears count // len(values) times or once more."""
    values = list(values)
    items = [values[i % len(values)] for i in range(count)]
    design.shuffle(items)
    return items


def _strata(design: random.Random, rng: random.Random, lo: int, hi: int,
            count: int) -> list[int]:
    """One integer from each of `count` equal slices of [lo, hi]: the design
    fixes which job gets which slice, the seed the value inside it."""
    width = (hi - lo + 1) / count
    slices = list(range(count))
    design.shuffle(slices)
    return [lo + int((i + rng.random()) * width) for i in slices]


def _query_flags(k: Optional[int], kind: str, orientation: str, bound: Optional[int],
                 alternate: bool) -> list[str]:
    flags = ["--total"] if k is None else ["--k", str(k)]
    flags += ["--kind", kind, "--orientation", orientation]
    if bound is not None:
        flags += ["--bound", str(bound)]
    if alternate:
        flags.append("--alternate")
    return flags


def _count_job(n, k, kind, orientation, bound=None, alternate=False) -> Job:
    q = dict(k=k, kind=kind, orientation=orientation, bound=bound, alternate=alternate)
    argv = ["count", "--n", str(n), *_query_flags(**q)]
    return Job(tuple(argv), dict(type="count", n=n, **q))


def _series_job(order, k, kind, orientation, bound=None, alternate=False,
                dp_indices=None) -> Job:
    q = dict(k=k, kind=kind, orientation=orientation, bound=bound, alternate=alternate)
    argv = ["series", *_query_flags(**q), "--order", str(order)]
    indices = list(range(1, order)) if dp_indices is None else dp_indices
    return Job(tuple(argv), dict(type="series", order=order, dp_indices=indices, **q))


def gen_gf_batch(design: random.Random, rng: random.Random, jobs: int) -> list[Job]:
    """Unbounded `count` (all engines) and `series` jobs at order 80..224.

    All four kinds and both orientations; a quarter are alternate (which
    the series engine defines for left-to-right paths only)."""
    n_alt = jobs // 4
    specs = [
        (k, o, False)
        for k, o in zip(_balanced(design, range(7), jobs - n_alt),
                        _balanced(design, ("l2r", "r2l"), jobs - n_alt))
    ] + [(k, "l2r", True) for k in _balanced(design, range(4), n_alt)]
    design.shuffle(specs)
    out = []
    for (k, orientation, alt), kind, cmd, size in zip(
        specs, _balanced(design, KINDS, jobs), _balanced(design, ("count", "series"), jobs),
        _strata(design, rng, 80, 224, jobs),
    ):
        if cmd == "count":
            out.append(_count_job(size, k, kind, orientation, alternate=alt))
        else:
            # alternate coefficients have no closed form here: the program's
            # dp engine checks the last one and two others
            sample = sorted({size - 1, *rng.sample(range(1, size - 1), 2)}) if alt else None
            out.append(_series_job(size, k, kind, orientation, alternate=alt, dp_indices=sample))
    rng.shuffle(out)
    return out


HEIGHT_FAMILIES = ("return-to-zero", "prefix-at-k", "suffix-at-k", "suffix-any")


def gen_height(design: random.Random, rng: random.Random, jobs: int) -> list[Job]:
    """`height --format json` over the four finite families at n 40..128,
    each (family, n, k) once by the gf route and once by the dp route."""
    pairs = (jobs + 1) // 2
    out = []
    for pair, (family, n, k) in enumerate(zip(
        _balanced(design, HEIGHT_FAMILIES, pairs), _strata(design, rng, 40, 128, pairs),
        _balanced(design, range(5), pairs),
    )):
        argv = ["height", "--family", family, "--n-list", str(n), "--format", "json"]
        if family.endswith("-at-k"):
            argv += ["--k", str(k)]
        for route in ("gf", "dp"):
            out.append(Job(tuple(argv + ["--route", route]), dict(type="height", pair=pair)))
    rng.shuffle(out)
    return out


#: CLI forms of the bundled fixture comparisons: (b-file, query flags, shift, start).
FIXTURES = (
    ("b000108.txt", ["--k", "0"], 0, 0),
    ("b000245.txt", ["--k", "1"], 0, 0),
    ("b002057.txt", ["--k", "2"], 1, 0),
    ("b000344.txt", ["--k", "3"], 1, 0),
    ("b000108.txt", ["--k", "1", "--orientation", "r2l"], 0, 1),
    ("b002057.txt", ["--k", "3", "--orientation", "r2l"], 3, 0),
    ("b001519.txt", ["--k", "2", "--kind", "up", "--bound", "2"], 0, 1),
    ("b080937.txt", ["--k", "2", "--kind", "up", "--bound", "4"], 0, 1),
    ("b000079.txt", ["--total", "--bound", "1"], 0, 0),
    ("b001906.txt", ["--total", "--bound", "2"], -1, 0),
    ("b005021.txt", ["--total", "--bound", "4"], 0, 0),
    ("b007051.txt", ["--total", "--bound", "3", "--orientation", "r2l"], 0, 0),
)


def _small_query(design: random.Random, kind: str, orientation: str, shape: str,
                 k_max: int, bound_max: int) -> dict:
    """Query fields for a small job: `shape` picks plain, bounded, total or
    alternate; the fields always form a finite family every engine accepts."""
    k = design.randint(0, k_max)
    bound = design.randint(k, bound_max) if shape == "bounded" else None
    if shape == "total":
        k, kind = None, "any"
        if orientation == "l2r":
            bound = design.randint(0, bound_max)
    return dict(k=k, kind=kind, orientation=orientation, bound=bound,
                alternate=shape == "alternate")


def gen_small(design: random.Random, rng: random.Random, jobs: int) -> list[Job]:
    """Many tiny jobs: counts at n <= 10 (the oracle runs), b-file checks,
    series at order <= 32, and one full `selftest`."""
    n_check = max(2, round(jobs * 0.08))
    n_series = max(2, round(jobs * 0.1))
    n_count = jobs - n_check - n_series - 1
    shapes = ("plain", "plain", "bounded", "total", "alternate")
    out = []
    for n, kind, orientation, shape in zip(
        _strata(design, rng, 1, 10, n_count), _balanced(design, KINDS, n_count),
        _balanced(design, ("l2r", "r2l"), n_count), _balanced(design, shapes, n_count),
    ):
        # the left-to-right oracle grows steeply with the end height and the
        # bound (1.3 s at n = 10, k = 5), so those stay low
        low = orientation == "l2r"
        q = _small_query(design, kind, orientation, shape,
                         min(n, 2) if low else n, min(n, 3) if low else n)
        out.append(_count_job(n, **q))
    for order, kind, orientation, shape in zip(
        _strata(design, rng, 16, 32, n_series), _balanced(design, KINDS, n_series),
        _balanced(design, ("l2r", "r2l"), n_series), _balanced(design, shapes, n_series),
    ):
        if shape == "alternate":
            orientation = "l2r"  # alternate series exist left to right only
        out.append(_series_job(order, **_small_query(design, kind, orientation, shape, 6, 8)))
    for name, flags, shift, start in rng.sample(FIXTURES, n_check):
        argv = ["check", "--bfile", f"src/lukaspaths/data/{name}", *flags,
                f"--shift={shift}", f"--start={start}", "--order", str(rng.randint(21, 31))]
        out.append(Job(tuple(argv), dict(type="text", last_line_suffix=", 0 mismatches")))
    out.append(Job(("selftest",),
                   dict(type="text", last_line_suffix="selftest: all checks passed")))
    rng.shuffle(out)
    return out


#: name -> (generator, jobs per run at REFERENCE_SECONDS)
WORKLOADS = {
    "gf-batch": (gen_gf_batch, 40),
    "height": (gen_height, 48),
    "small-queries": (gen_small, 80),
}


def make_jobs(workload: str, seed: int, seconds: float) -> list[Job]:
    """The job list of one run: a function of the workload, seed and run
    length only."""
    gen, base = WORKLOADS[workload]
    count = max(MIN_JOBS, round(base * seconds / REFERENCE_SECONDS))
    return gen(random.Random(f"{workload}/design/{count}"),
               random.Random(f"{workload}/{seed}"), count)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def job_env() -> dict:
    """The jobs import the program from this checkout's src/ and nothing
    else; LUKAS_ORDER would change the default series order."""
    env = {k: v for k, v in os.environ.items() if k not in ("LUKAS_ORDER", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, timeout: float) -> Done:
    """Run one process to exit; kill it after `timeout` seconds.  Wall time
    runs from spawn to exit; CPU time and max RSS come from `os.wait4`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(None if killed else left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(parts) for parts in chunks.values())
    for f in chunks:
        f.close()
    return Done(proc.returncode, out, err, elapsed, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss)


def setup_probe(env: dict) -> float:
    """Spawn-to-exit time of the start-up job.  A wrong answer here means
    the program is missing or broken, and the run stops without a result."""
    done = spawn([sys.executable, "-m", "lukaspaths", *SETUP_ARGV], env, JOB_LIMIT_S)
    if done.rc != 0 or done.out != b"1\n":
        raise SystemExit(f"error: start-up job failed (exit {done.rc}): "
                         f"{done.err.decode(errors='replace').strip()}")
    return done.wall


def run_pass(jobs: list[Job], deadline: float, probes: int = 0,
             traced: bool = False) -> tuple[list, list, list[float]]:
    """Run the jobs in order; a job not started before `deadline` gets None.

    Returns the jobs' runs, their runs under the tracer, and the times of
    `probes` start-up jobs.  The probes are spread evenly between the jobs,
    and with `traced` each job runs under the tracer right after its
    untraced run, so that what is compared sees the same machine load."""
    env = job_env()

    def start(prefix: list[str], job: Job) -> Optional[Done]:
        left = deadline - time.perf_counter()
        return spawn(prefix + list(job.argv), env, min(JOB_LIMIT_S, left)) if left > 0 else None

    results: list[Optional[Done]] = []
    traced_results: list[Optional[Done]] = []
    setup = []
    for i, job in enumerate(jobs):
        for _ in range((i + 1) * probes // len(jobs) - i * probes // len(jobs)):
            setup.append(setup_probe(env))
        results.append(start([sys.executable, "-m", "lukaspaths"], job))
        if traced:
            traced_results.append(start([sys.executable, str(TRACER)], job))
    return results, traced_results, setup


def wall(results: list) -> float:
    """Summed spawn-to-exit time of the jobs that ran."""
    return sum(d.wall for d in results if d)


# ---------------------------------------------------------------------------
# answer checks (outside the timed region)
# ---------------------------------------------------------------------------


def lpow(m: int, j: int) -> int:
    """[z^m] L^j for the Catalan series L: the ballot number
    j/(2m+j) C(2m+j, m), and [m = 0] for j = 0."""
    if m < 0:
        return 0
    if j == 0:
        return int(m == 0)
    q, r = divmod(j * comb(2 * m + j, m), 2 * m + j)
    if r:
        raise ArithmeticError(f"ballot number not integral at m={m}, j={j}")
    return q


def ballot(i: int, k: int, kind: str, orientation: str) -> int:
    """Coefficient i of the unbounded, non-alternate series family of end
    height k.  These are the ballot formulas of the paper written through
    powers of L; e.g. left-to-right Any-kind is [k = 0] + z L^(k+2), whose
    coefficient (k+2) C(2n+k-1, n-1) / (n+k+1) counts the length-n paths.
    The empty path belongs to the k = 0 up family, as in the series engine."""
    if orientation == "l2r":
        if kind == "up":
            return int(i == 0) if k == 0 else lpow(i - 1, k)
        if kind == "down":
            return lpow(i - 1, k + 2) - lpow(i - 1, k + 1)
        if kind == "flat":
            return lpow(i - 2, k + 2) + int(k == 0 and i == 1)
        return int(k == 0 and i == 0) + lpow(i - 1, k + 2)
    if kind == "up":
        return lpow(i - k, k)
    if kind == "down":
        return lpow(i - k - 2, k + 3)
    if kind == "flat":
        return lpow(i - k - 1, k + 1)
    return lpow(i - k, k + 1)


def ballot_count(n: int, k: int, kind: str, orientation: str) -> int:
    """Query-level count: the empty path counts for the Any kind only."""
    if n == 0:
        return int(k == 0 and kind == "any")
    return ballot(n, k, kind, orientation)


def program_dp():
    """The program's own dp engine, imported from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from lukaspaths.core import EndKind, Orientation, PathQuery, dp_count

    def dp(n, k, kind, orientation, bound, alternate):
        return dp_count(PathQuery(n, k, EndKind(kind), Orientation(orientation), bound, alternate))

    return dp


def _query(c: dict) -> tuple:
    return c["k"], c["kind"], c["orientation"], c["bound"], c["alternate"]


def _has_ballot(c: dict) -> bool:
    return c["k"] is not None and c["bound"] is None and not c["alternate"]


def check_job(job: Job, done: Optional[Done], dp) -> Optional[str]:
    """None if the job answered correctly, else what went wrong.  Height
    jobs are checked here for their exit code and format only; their means
    are compared pairwise by `check_results`."""
    if done is None:
        return "not started: run time limit reached"
    if done.rc != 0:
        return f"exit code {done.rc}"
    c = job.check
    text = done.out.decode()
    try:
        if c["type"] == "count":
            got = int(text)
            if _has_ballot(c):
                want = ballot_count(c["n"], c["k"], c["kind"], c["orientation"])
            else:
                want = dp(c["n"], *_query(c))
            return None if got == want else f"count {got} != {want}"
        if c["type"] == "series":
            got = [int(v) for v in text.split(",")]
            if len(got) != c["order"]:
                return f"{len(got)} coefficients, expected {c['order']}"
            if _has_ballot(c):
                want = [ballot(i, c["k"], c["kind"], c["orientation"]) for i in range(c["order"])]
                return None if got == want else "series differs from the ballot formulas"
            for i in c["dp_indices"]:
                if got[i] != dp(i, *_query(c)):
                    return f"coefficient {i} differs from the dp engine"
            return None
        if c["type"] == "height":
            (stat,) = json.loads(text)["stats"]
            Fraction(stat["mean"])
            return None
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last.endswith(c["last_line_suffix"]) else f"unexpected output {last!r}"
    except (ValueError, KeyError) as exc:
        return f"unparsable output: {exc}"


def check_results(jobs: list[Job], results: list, dp) -> list[Optional[str]]:
    """Check every job; the two routes of each height pair must give the
    same exact mean, or both jobs count as failed."""
    errors = [check_job(job, done, dp) for job, done in zip(jobs, results)]
    means: dict[int, list] = {}
    for i, (job, done) in enumerate(zip(jobs, results)):
        if job.check["type"] == "height":
            mean = None if errors[i] else json.loads(done.out)["stats"][0]["mean"]
            means.setdefault(job.check["pair"], []).append((i, mean))
    for members in means.values():
        if len({mean for _, mean in members}) != 1 or members[0][1] is None:
            for i, _ in members:
                errors[i] = errors[i] or "gf and dp routes disagree on the mean"
    return errors


def digest(jobs: list[Job], results: list) -> str:
    h = hashlib.sha256()
    for job, done in zip(jobs, results):
        h.update(" ".join(job.argv).encode() + b"\0")
        h.update((done.out if done else b"") + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """The highest job-time percentile with at least ten jobs beyond it:
    (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(results: list, setup: list[float]) -> dict:
    times = [d.wall for d in results if d]
    return {
        "wall_s": wall(results),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail(times)[0],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(d.rss_kb for d in results if d) / 1024,
    }


def trace_record(done: Optional[Done]) -> Optional[dict]:
    if done is None:
        return None
    for line in reversed(done.err.decode(errors="replace").splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


def layer_sums(jobs: list[Job], traced: list) -> dict:
    """Per-layer metrics summed over the traced jobs; `.s` is self time."""
    m: dict = {"cli.import_s": 0.0, "cli.output_bytes": 0, "result.max_bits": 0}
    printed = built = 0
    for job, done in zip(jobs, traced):
        rec = trace_record(done)
        if rec is None:
            continue
        m["cli.import_s"] += rec["import_s"]
        m["cli.output_bytes"] += len(done.out)
        for name, (calls, self_s) in rec["stats"].items():
            m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + calls
            m[f"{name}.s"] = m.get(f"{name}.s", 0.0) + self_s
        for name, value in rec["counts"].items():
            if ".max_" in name:
                m[name] = max(m.get(name, 0), value)
            else:
                m[name] = m.get(name, 0) + value
        m["result.max_bits"] = max(
            [m["result.max_bits"], *(int(t).bit_length() for t in re.findall(rb"\d+", done.out))])
        order = rec["counts"].get("engines.series_for_query.order", 0)
        if order and job.check["type"] in ("count", "series"):
            printed += 1 if job.check["type"] == "count" else job.check["order"]
            built += order
    m["cli.self_s"] = m.get("cli.main.s", 0.0)
    m["engines.gf.useful_coeff_ratio"] = printed / built if built else 0.0
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_metrics(kind: str) -> dict:
    """name -> unit of the `kind` ("end_to_end" or "per_layer") metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(declared: dict, values: dict) -> dict:
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"error: declared metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lukaspaths" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'lukaspaths'}", file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    jobs = make_jobs(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}: seed {args.seed}, {len(jobs)} jobs, "
          f"python {platform.python_version()}, {platform.platform()}, "
          f"nproc {len(os.sched_getaffinity(0))}")

    results, traced, setup = run_pass(jobs, deadline, probes=0 if args.trace else SETUP_SPAWNS,
                                      traced=bool(args.trace))
    errors = check_results(jobs, results, program_dp())
    print(f"digest sha256 {digest(jobs, results)}")
    if args.trace:
        for i, (plain, done) in enumerate(zip(results, traced)):
            if not errors[i] and (done is None or (done.rc, done.out) != (0, plain.out)):
                errors[i] = "traced run differs from the untraced run"
        values = layer_sums(jobs, traced)
        values["proc.cpu_s"] = sum(d.cpu for d in results if d)
        values["trace.overhead_s"] = wall(traced) - wall(results)
    else:
        values = end_to_end(results, setup)
        p = tail([d.wall for d in results if d])[1]
        print(f"job_p50_s and job_tail_s (p{p:.1f}) over {sum(1 for d in results if d)} "
              f"jobs; setup_s is the median of {len(setup)} spawns of "
              f"`lukas {' '.join(SETUP_ARGV)}`")
    failed = sum(err is not None for err in errors)
    for job, err in zip(jobs, errors):
        if err:
            print(f"failed: lukas {' '.join(job.argv)}: {err}")
    print(f"answers: {len(jobs) - failed} of {len(jobs)} correct; "
          f"run took {time.perf_counter() - start:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": emit(declared, values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
