"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They spawn `lukas` jobs, so they take about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _argvs(jobs):
    return [job.argv for job in jobs]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_fixes_the_job_list(workload):
    first = run.make_jobs(workload, 7, 20)
    assert _argvs(first) == _argvs(run.make_jobs(workload, 7, 20))
    assert _argvs(first) != _argvs(run.make_jobs(workload, 8, 20))
    assert len(first) > 20  # so the tail percentile sits above the median


def test_ballot_formulas_match_the_series_engine():
    sys.path.insert(0, str(run.SRC))
    from lukaspaths.core import EndKind, Orientation
    from lukaspaths.engines import series_for_query

    for orientation in ("l2r", "r2l"):
        for kind in run.KINDS:
            for k in range(6):
                got = series_for_query(k, EndKind(kind), Orientation(orientation), order=14)
                want = [run.ballot(i, k, kind, orientation) for i in range(14)]
                assert got.integer_coefficients() == want, (orientation, kind, k)


def _done(out: bytes, rc: int = 0) -> run.Done:
    return run.Done(rc=rc, out=out, err=b"", wall=0.1, cpu=0.1, rss_kb=1)


def test_corrupted_answers_count_as_failed():
    dp = run.program_dp()
    count = run._count_job(12, 2, "down", "l2r")
    right = run.ballot_count(12, 2, "down", "l2r")
    series = run._series_job(10, 1, "any", "r2l")
    coeffs = [run.ballot(i, 1, "any", "r2l") for i in range(10)]
    bounded = run._series_job(9, 1, "up", "l2r", bound=2)
    bounded_coeffs = [0] + [dp(i, 1, "up", "l2r", 2, False) for i in range(1, 9)]
    text = lambda values: ",".join(map(str, values)).encode() + b"\n"  # noqa: E731

    assert run.check_job(count, _done(b"%d\n" % right), dp) is None
    assert run.check_job(count, _done(b"%d\n" % (right + 1)), dp)
    assert run.check_job(count, _done(b"%d\n" % right, rc=5), dp)
    assert run.check_job(count, None, dp)
    assert run.check_job(series, _done(text(coeffs)), dp) is None
    assert run.check_job(series, _done(text(coeffs[:-1] + [coeffs[-1] - 1])), dp)
    assert run.check_job(bounded, _done(text(bounded_coeffs)), dp) is None
    assert run.check_job(bounded, _done(text(bounded_coeffs[:4] + [7] + bounded_coeffs[5:])), dp)

    height = [run.Job(("height", route), dict(type="height", pair=0)) for route in ("gf", "dp")]
    mean = lambda m: json.dumps({"stats": [{"mean": m}]}).encode()  # noqa: E731
    assert run.check_results(height, [_done(mean("7/3")), _done(mean("7/3"))], dp) == [None, None]
    assert all(run.check_results(height, [_done(mean("7/3")), _done(mean("8/3"))], dp))

    selftest = run.Job(("selftest",),
                       dict(type="text", last_line_suffix="selftest: all checks passed"))
    assert run.check_job(selftest, _done(b"grid ok\nselftest: all checks passed\n"), dp) is None
    assert run.check_job(selftest, _done(b"FAIL: disagreement\n"), dp)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "small-queries",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def _exact_counts(metrics: dict) -> dict:
    return {
        name: value for name, value in metrics.items()
        if not name.endswith("_s") and not name.endswith(".s")
        and not name.endswith("useful_coeff_ratio")
    }


def test_traced_counts_repeat_exactly():
    jobs = [job for workload in run.WORKLOADS for job in run.make_jobs(workload, 5, 1)[:3]]
    jobs.append(run._count_job(7, 2, "any", "r2l", bound=4, alternate=True))
    jobs.append(run.Job(("height", "--family", "prefix-at-k", "--k", "3", "--n-list", "12"),
                        dict(type="text", last_line_suffix="")))
    runs = []
    for _ in range(2):
        _, traced, _ = run.run_pass(jobs, time.perf_counter() + 240, traced=True)
        assert all(done.rc == 0 for done in traced)
        runs.append(_exact_counts(run.layer_sums(jobs, traced)))
    assert runs[0] == runs[1]
    counts = runs[0]
    for name in ("core.dp_count.calls", "core.dp_count.cells", "series.Series.mul.terms",
                 "series.IntPoly.mul.calls", "bounded.n_poly.calls", "core.oracle.paths",
                 "engines.count_by_engine.oracle.calls", "cli.output_bytes"):
        assert counts[name] > 0, name


def test_tracer_leaves_no_binding_unwrapped():
    code = (
        "import tracer, lukaspaths.cli;"
        "originals = tracer.install(tracer.Tracer());"
        "assert not tracer.unwrapped(originals);"
        "from lukaspaths import bounded, engines, series;"
        "assert bounded.n_poly.__wrapped__ and engines.dp_count.__wrapped__;"
        "assert series.Series.__rmul__ is series.Series.__mul__;"
        "assert series.IntPoly.__rmul__ is series.IntPoly.__mul__"
    )
    env = run.job_env()
    env["PYTHONPATH"] += ":" + str(run.HERE)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gf-batch", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
