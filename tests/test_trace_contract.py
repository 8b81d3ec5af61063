"""The benchmark's tracer wraps lukaspaths functions by name; a refactor that
renames or folds away a wrapped function must fail here rather than silently
break `perfbench/run.py --trace 1`."""
import json
import os
import subprocess
import sys

from reference import ROOT, SRC

MARKER = "perfbench-trace "


def _trace(*argv):
    """Run the tracer on one `lukas` argv; return its stdout and the record
    of its single marker line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith(MARKER)]
    assert len(lines) == 1, proc.stderr
    return proc.stdout, json.loads(lines[0][len(MARKER):])


def test_tracer_runs_a_count_and_reports():
    stdout, record = _trace("count", "--n", "3", "--k", "1")
    assert stdout.strip() == "9"
    assert set(record) == {"import_s", "stats", "counts"}
    assert record["stats"]["series.Series.mul"][0] > 0


def test_selftest_runs_the_traced_oracle_and_dp():
    """The per-layer oracle and DP metrics read the calls of these names; an
    oracle routed around them would zero those metrics without an error."""
    stdout, record = _trace("selftest", "--quick")
    assert stdout.splitlines()[-1] == "selftest: all checks passed"
    for name in ("core.enumerate_profile", "core.enumerate_count", "core.dp_count",
                 "engines.cross_engine_grid"):
        assert record["stats"][name][0] > 0, name
    assert record["counts"]["core.oracle.paths"] > 0


def _trace_height(*argv):
    """The tracer's record of one `height --route gf` run."""
    return _trace("height", *argv, "--n-list", "12", "--route", "gf")[1]


def test_height_gf_route_runs_the_traced_polynomial_kernels():
    """The benchmark's `height` workload must keep reaching `IntPoly.__mul__`
    (now only through the Casoratian product of the gf route), the Cramer
    numerators, the bounded GF constructor that seeds the sweep and the
    rational expansion; a route that bypasses them would zero those
    per-layer metrics without an error."""
    record = _trace_height("--family", "prefix-at-k", "--k", "3")
    for name in ("series.IntPoly.mul", "bounded.n_poly", "bounded.bounded_gf",
                 "series.RationalGF.expand"):
        assert record["stats"][name][0] > 0, name


def test_height_gf_route_seeds_the_total_from_its_constructor():
    """`suffix-any` has no end height: its sweep is seeded by
    `total_bounded_gf`, whose per-layer metric would read 0 otherwise."""
    record = _trace_height("--family", "suffix-any")
    assert record["stats"]["bounded.total_bounded_gf"][0] > 0
