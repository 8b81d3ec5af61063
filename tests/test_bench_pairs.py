"""The arithmetic of tools/bench_pairs.py: quartiles, wins and the rules
for a resolved gain and a bounded regression; its refusal of pairs whose
outputs differ; and the verdict lines it prints."""
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    # positions 0.75, 1.5 and 2.25 of the sorted values 1, 2, 4, 8
    assert bench_pairs.quartiles([8.0, 1.0, 4.0, 2.0]) == (1.75, 3.0, 5.0)


def test_a_lower_is_better_gain_over_ten_pairs():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [p - 0.10 for p in parent]
    change[3] = parent[3]  # a tie counts for neither side
    r = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (r["wins"], r["losses"], r["pairs"]) == (9, 0, 10)
    assert r["parent"]["median"] == pytest.approx(1.0)
    # positions 2.25 and 6.75 of the sorted parent runs: 0.9825 and 1.0175
    assert r["parent"]["q3"] - r["parent"]["q1"] == pytest.approx(0.035)
    assert r["relative_change"] == pytest.approx(-0.1)
    assert r["gain_resolved"] and r["within_bound"]


def test_eight_wins_in_ten_resolve_no_gain():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    r = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (r["wins"], r["losses"]) == (8, 2)
    assert not r["gain_resolved"]


def test_a_gain_inside_the_parent_spread_is_not_resolved():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [p - 0.5 for p in parent]
    r = bench_pairs.compare(parent, change, "lower", 0.25)
    assert r["wins"] == 5 and not r["gain_resolved"]  # 0.5 < IQR 2.0


def test_higher_is_better_and_the_regression_bound():
    parent = [10.0, 10.0, 10.0]
    r = bench_pairs.compare(parent, [9.0, 9.0, 9.0], "higher", 0.05)
    assert (r["wins"], r["losses"]) == (0, 3)
    assert not r["within_bound"]  # 10% worse against a 5% bound
    r = bench_pairs.compare(parent, [9.6, 9.6, 9.6], "higher", 0.05)
    assert r["within_bound"]


def test_parse_run_reads_the_result_line_and_the_digest():
    record = {"correct": True, "attempted": 21, "failed": 0,
              "metrics": {"wall_s": {"value": 2.5, "unit": "s"}}}
    stdout = ("workload height: seed 1, 21 jobs\n"
              "digest sha256 abc123\n"
              "answers: 21 of 21 correct; run took 3.0 s\n" + json.dumps(record) + "\n")
    assert bench_pairs.parse_run(stdout) == {
        "metrics": {"wall_s": 2.5}, "digest": "abc123", "failed": 0, "attempted": 21,
    }


@pytest.mark.parametrize("digests, failed, reason", [
    (("abc", "abc"), (0, 0), None),
    (("abc", "abd"), (0, 0), "small-queries: the runs' answer digests differ"),
    # one failed job in each of the ten change runs
    (("abc", "abc"), (0, 1), "small-queries: failed jobs {'parent': 0, 'change': 10}"),
], ids=["equal", "digests-differ", "failed-jobs"])
def test_pairs_that_compare_different_outputs_exit_1(tmp_path, monkeypatch, capsys,
                                                     digests, failed, reason):
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for tree in trees.values():
        tree.mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    run = {tree: {"metrics": {"wall_s": 1.0}, "digest": d, "failed": f, "attempted": 3}
           for tree, d, f in zip(trees.values(), digests, failed)}
    monkeypatch.setattr(bench_pairs, "bench_once", lambda tree, workload, seed: run[tree])
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", str(trees["parent"]), "--change",
                             str(trees["change"]), "--workload", "small-queries",
                             "--seed", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert bench_pairs.refusal(report) == reason
    assert code == (0 if reason is None else 1)
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == (
        [] if reason is None else [f"error: {reason}; {out} compares different outputs"])


def test_verdicts_print_one_line_per_workload_and_metric(tmp_path, monkeypatch, capsys):
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for tree in trees.values():
        tree.mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    ]}))
    # run i of a side reads wall_s base + i/10, so each side has a spread
    runs = {tree: itertools.count() for tree in trees.values()}
    base = {trees["parent"]: (5.0, 20.0), trees["change"]: (4.0, 22.0)}
    monkeypatch.setattr(bench_pairs, "bench_once", lambda tree, workload, seed: {
        "metrics": {"wall_s": base[tree][0] + next(runs[tree]) % 10 / 10,
                    "peak_rss_mb": base[tree][1]},
        "digest": "abc", "failed": 0, "attempted": 3})
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", str(trees["parent"]), "--change",
                             str(trees["change"]), "--workload", "height",
                             "--workload", "small-queries", "--seed", "1", "--out", str(out)])
    assert code == 0 and out.exists()
    assert capsys.readouterr().out.splitlines() == [
        line for w in ("height", "small-queries") for line in (
            f"{w} wall_s: parent 5.45 [5.225-5.675] -> change 4.45 [4.225-4.675] (-18.3%), "
            "wins 10/10, losses 0, within_bound True, gain_resolved True",
            f"{w} peak_rss_mb: parent 20 [20-20] -> change 22 [22-22] (+10.0%), "
            "wins 0/10, losses 10, within_bound False, gain_resolved False",
        )
    ]
