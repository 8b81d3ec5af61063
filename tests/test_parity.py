"""tools/parity.py: its grid, its diff of two checkouts' results, and its
child script on this checkout."""
import argparse

from lukaspaths.cli import build_parser

from reference import ROOT, load_tool

parity = load_tool("parity")


def test_the_grid_covers_every_subcommand_engine_and_format(tmp_path):
    parity.write_bad_bfiles(tmp_path)
    argvs = parity.grid(tmp_path)
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    assert {argv[0] for argv in argvs if argv} == {
        "count", "series", "check", "height", "selftest", "--help", "bogus",
    }
    count_engines = {argv[argv.index("--engine") + 1] for argv in argvs if "--engine" in argv}
    assert count_engines >= {"oracle", "dp", "closed", "gf", "all"}
    series_formats = {argv[-1] for argv in argvs if argv[:1] == ["series"] and "--format" in argv}
    assert series_formats == {"text", "csv", "json"}
    families = {argv[2] for argv in argvs if argv[:1] == ["height"] and "--route" in argv}
    assert len(families) == 5
    assert ["selftest", "--quick"] in argvs
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert ["--help"] in argvs
    for command in commands:
        assert [command, "--help"] in argvs, command
    assert sum(argv[:2] == ["check", "--bfile"] and str(tmp_path) in argv[2] for argv in argvs) == 6


def fake_runner(results):
    """A runner that answers each tree from `results` and records its calls."""
    calls = []

    def run(tree, cases):
        calls.append((tree.name, len(cases)))
        return [results[tree.name](argv) for argv in cases]

    return run, calls


def test_identical_trees_exit_zero(tmp_path, capsys):
    def same(argv):
        return 0, " ".join(argv), ""

    run, calls = fake_runner({"parent": same, "change": same})
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert parity.main(argv, runner=run) == 0
    assert [tree for tree, _ in calls] == ["parent", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{calls[0][1]} invocations, 0 differing streams"]


def test_each_differing_stream_is_one_line(tmp_path, capsys):
    def parent(argv):
        return 0, "5\n", ""

    def change(argv):
        if argv == ["selftest", "--quick"]:
            return 5, "FAIL\n", "oops\n"
        if argv[:2] == ["series", "--total"]:
            return 0, "5\n", "warning\n"
        return parent(argv)

    run, _ = fake_runner({"parent": parent, "change": change})
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert parity.main(argv, runner=run) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "exit: lukas selftest --quick: parent 0 change 5" in lines
    assert "stdout: lukas selftest --quick: parent '5\\n' change 'FAIL\\n'" in lines
    assert "stderr: lukas selftest --quick: parent '' change 'oops\\n'" in lines
    series = [line for line in lines if line.startswith("stderr: lukas series --total")]
    assert series and all(line.endswith("parent '' change 'warning\\n'") for line in series)
    # then one tally line per distinct (stream, parent, change), most frequent first
    assert lines[3 + len(series):] == [
        f"{len(series)} x stderr: parent '' change 'warning\\n'",
        "1 x exit: parent 0 change 5",
        "1 x stdout: parent '5\\n' change 'FAIL\\n'",
        "1 x stderr: parent '' change 'oops\\n'",
        lines[-1],
    ]
    assert lines[-1].endswith(f" {3 + len(series)} differing streams")


def test_the_child_script_runs_this_checkout():
    cases = [
        ["count", "--n", "3", "--k", "0"],
        ["series", "--k", "1", "--order", "0"],
        ["count", "--n", "3", "--total"],
    ]
    results = parity.run_tree(ROOT, cases)
    code, out, err = results[1]
    assert (code, out) == (2, "")
    assert err.endswith("lukas series: error: argument --order: must be positive, got 0\n")
    assert results[::2] == [
        (0, "5\n", ""),
        (3, "", "error: infinite family: unbounded l2r query with no end height\n"),
    ]
