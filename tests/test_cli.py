import json
import sys
import time

import pytest

from lukaspaths.cli import (
    EXIT_BFILE,
    EXIT_DISAGREE,
    EXIT_DOMAIN,
    EXIT_INFINITE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_ORACLE_CAP,
    main,
)
from lukaspaths.engines import bundled_bfile

from reference import catalan


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_examples(capsys):
    rc, out, _ = run_cli(capsys, "count", "--n", "9", "--k", "0", "--kind", "any")
    assert rc == EXIT_OK and out.strip() == "4862"
    rc, out, _ = run_cli(capsys, "count", "--n", "0", "--k", "0")
    assert rc == EXIT_OK and out.strip() == "1"
    rc, out, _ = run_cli(capsys, "count", "--n", "9", "--k", "2", "--alternate")
    assert rc == EXIT_OK and out.strip() == "1333"


def test_count_single_engines_agree(capsys):
    values = set()
    for engine in ("oracle", "dp", "closed", "gf"):
        rc, out, _ = run_cli(capsys, "count", "--n", "7", "--k", "2", "--engine", engine)
        assert rc == EXIT_OK
        values.add(out.strip())
    assert values == {"2002"}


def test_count_json_schema(capsys):
    rc, out, _ = run_cli(capsys, "count", "--n", "9", "--k", "0", "--format", "json")
    assert rc == EXIT_OK
    record = json.loads(out)
    assert list(record) == ["query", "engine", "values", "meta"]
    assert record["values"] == ["4862"]
    assert all(isinstance(v, str) for v in record["values"])
    assert record["query"]["n"] == 9
    assert record["meta"]["engines"] == ["oracle", "dp", "closed", "gf"]


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "count", "--n", "8", "--k", "1", "--format", "json")
    second = run_cli(capsys, "count", "--n", "8", "--k", "1", "--format", "json")
    assert first == second


def test_count_error_exit_codes(capsys):
    rc, _, err = run_cli(capsys, "count", "--n", "3", "--total")
    assert rc == EXIT_INFINITE and "infinite family" in err
    rc, _, err = run_cli(capsys, "count", "--n", "12", "--k", "0", "--engine", "oracle")
    assert rc == EXIT_ORACLE_CAP and "oracle cap exceeded" in err
    rc, _, err = run_cli(capsys, "count", "--n", "4", "--k", "1", "--bound", "3",
                         "--engine", "closed")
    assert rc == EXIT_DOMAIN
    rc, _, err = run_cli(capsys, "count", "--n", "4", "--k", "5", "--bound", "3")
    assert rc == EXIT_DOMAIN and "exceeds" in err
    rc, _, err = run_cli(capsys, "count", "--n", "3", "--k", "1", "--total")
    assert rc == EXIT_DOMAIN and "mutually exclusive" in err


def test_series_examples(capsys):
    rc, out, _ = run_cli(capsys, "series", "--k", "3", "--orientation", "l2r",
                         "--order", "10")
    assert rc == EXIT_OK
    assert out.strip() == "0,1,5,20,75,275,1001,3640,13260,48450"
    rc, out, _ = run_cli(capsys, "series", "--total", "--bound", "2", "--order", "6")
    assert rc == EXIT_OK and out.strip() == "1,3,8,21,55,144"
    rc, out, _ = run_cli(capsys, "series", "--k", "0", "--order", "1")
    assert rc == EXIT_OK and out.strip() == "1"


def test_series_csv_and_json(capsys):
    rc, out, _ = run_cli(capsys, "series", "--k", "0", "--order", "4", "--format", "csv")
    assert rc == EXIT_OK
    assert out.splitlines() == ["index,value", "0,1", "1,1", "2,2", "3,5"]
    rc, out, _ = run_cli(capsys, "series", "--k", "0", "--order", "4", "--format", "json")
    record = json.loads(out)
    assert record["values"] == ["1", "1", "2", "5"]
    assert record["meta"]["order"] == 4


def test_series_requires_k_or_total(capsys):
    rc, _, err = run_cli(capsys, "series", "--order", "5")
    assert rc == EXIT_DOMAIN and "--k or --total" in err


@pytest.mark.parametrize("flags, code", [
    (["--total"], EXIT_INFINITE),
    (["--k", "3", "--bound", "1"], EXIT_DOMAIN),
    (["--k", "3", "--bound", "1", "--alternate"], EXIT_DOMAIN),
], ids=["total", "k-above-bound", "k-above-bound-alternate"])
def test_series_and_count_refuse_a_bad_query_alike(capsys, flags, code):
    series = run_cli(capsys, "series", *flags, "--order", "4")
    count = run_cli(capsys, "count", "--n", "3", *flags)
    assert series == count == (code, "", series[2])
    assert series[2].count("\n") == 1 and series[2].startswith("error: ")


@pytest.mark.parametrize("flags", [["--orientation", "r2l"], ["--bound", "2"], []],
                         ids=["r2l", "bounded", "l2r"])
def test_count_needs_k_or_total(capsys, flags):
    # a count with neither flag is refused, not read as a total
    assert run_cli(capsys, "count", "--n", "5", *flags) == (
        EXIT_DOMAIN, "", "error: count needs --k or --total\n")


def test_check_names_itself_when_k_and_total_are_missing(capsys):
    bfile = str(bundled_bfile("b000108.txt"))
    assert run_cli(capsys, "check", "--bfile", bfile, "--order", "5") == (
        EXIT_DOMAIN, "", "error: check needs --k or --total\n")


def test_series_alternate_needs_l2r_unbounded(capsys):
    rc, _, err = run_cli(capsys, "series", "--k", "1", "--alternate",
                         "--orientation", "r2l", "--order", "4")
    assert rc == EXIT_DOMAIN
    rc, out, _ = run_cli(capsys, "series", "--k", "0", "--alternate", "--order", "10")
    assert rc == EXIT_OK
    assert out.strip() == "1,1,1,3,5,9,19,39,81,173"


@pytest.mark.parametrize("value", ["5", "x"])
def test_the_environment_cannot_change_the_order(capsys, monkeypatch, value):
    # --order is the only way to set the truncation order
    monkeypatch.setenv("LUKAS_ORDER", value)
    rc, out, err = run_cli(capsys, "series", "--k", "0")
    assert (rc, err) == (EXIT_OK, "")
    assert out.strip().split(",") == [str(catalan(i)) for i in range(64)]
    rc, out, _ = run_cli(capsys, "series", "--k", "0", "--format", "json")
    assert rc == EXIT_OK and json.loads(out)["meta"]["order"] == 64


def test_check_bundled_fixture(capsys):
    rc, out, _ = run_cli(capsys, "check", "--bfile", str(bundled_bfile("b000245.txt")),
                         "--k", "1", "--order", "21")
    assert rc == EXIT_OK
    assert out.strip() == "21 comparisons, 0 mismatches"


def test_check_with_shift(capsys):
    rc, out, _ = run_cli(capsys, "check", "--bfile", str(bundled_bfile("b002057.txt")),
                         "--k", "3", "--orientation", "r2l", "--shift", "3",
                         "--order", "21")
    assert rc == EXIT_OK
    assert out.strip() == "18 comparisons, 0 mismatches"


def test_check_empty_bfile(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "check", "--bfile", str(empty), "--k", "1",
                         "--order", "8")
    assert rc == EXIT_OK and out.strip() == "0 comparisons, 0 mismatches"


def test_check_malformed_bfile(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nnot a data line\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "check", "--bfile", str(bad), "--k", "1", "--order", "4")
    assert rc == EXIT_BFILE and "malformed" in err
    missing = tmp_path / "missing.txt"
    rc, _, err = run_cli(capsys, "check", "--bfile", str(missing), "--k", "1",
                         "--order", "4")
    assert rc == EXIT_BFILE and "unreadable" in err
    decreasing = tmp_path / "decreasing.txt"
    decreasing.write_text("1 1\n0 1\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "check", "--bfile", str(decreasing), "--k", "1",
                         "--order", "4")
    assert rc == EXIT_BFILE and "strictly increasing" in err


def test_check_bfile_not_utf8(capsys, tmp_path):
    """Bytes that do not decode are an unreadable b-file (exit 6), not a
    query outside the domain."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n1 \xff\xfe\n")
    rc, _, err = run_cli(capsys, "check", "--bfile", str(bad), "--k", "0", "--order", "5")
    assert rc == EXIT_BFILE
    assert err.startswith("error: unreadable b-file")


def test_check_reports_mismatches(capsys, tmp_path):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("0 1\n1 999\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "check", "--bfile", str(wrong), "--k", "0",
                         "--order", "5")
    assert rc == EXIT_DISAGREE
    assert "index 1: computed 1 != fixture 999" in out
    assert "2 comparisons, 1 mismatches" in out


def test_height_text(capsys):
    rc, out, _ = run_cli(capsys, "height", "--family", "return-to-zero",
                         "--n-list", "1,2,3")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[2].startswith("1 0 ")
    assert lines[3].startswith("2 1/2 ")
    assert lines[4].startswith("3 1 ")


def test_height_json(capsys):
    rc, out, _ = run_cli(capsys, "height", "--family", "suffix-at-k", "--k", "1",
                         "--n-list", "2,4", "--format", "json", "--route", "dp")
    assert rc == EXIT_OK
    record = json.loads(out)
    assert record["family"] == "suffix-at-k"
    assert [st["n"] for st in record["stats"]] == [2, 4]
    assert all("mean" in st and "ratio" in st for st in record["stats"])


@pytest.mark.parametrize("route", ["gf", "dp"])
def test_height_prefix_at_k_above_the_length(capsys, route):
    # left-to-right rises have any size: `count --n 3 --k 7` is 54 paths
    rc, out, _ = run_cli(capsys, "height", "--family", "prefix-at-k", "--k", "7",
                         "--n-list", "3", "--route", route)
    assert rc == EXIT_OK
    assert out.splitlines()[2].startswith("3 65/9 ")
    rc, out, err = run_cli(capsys, "height", "--family", "suffix-at-k", "--k", "7",
                           "--n-list", "3", "--route", route)
    assert rc == EXIT_DOMAIN and out == "" and "exceeds the length" in err


def test_unexpected_exception_exits_internal(capsys):
    # math.comb cannot take a length this large: an OverflowError, not a domain error
    rc, out, err = run_cli(capsys, "count", "--n", "10000000000000000000000", "--k", "0",
                           "--engine", "closed")
    assert rc == EXIT_INTERNAL == 8 and out == ""
    assert err.startswith("error: internal error: OverflowError")
    assert len(err.splitlines()) == 1


#: `height`'s usage lines.  `--family` shows a metavar, not its four choices
#: in braces, which argparse wraps differently on Python 3.13 than before.
HEIGHT_USAGE = (
    "usage: lukas height [-h] --family FAMILY [--k K] --n-list N_LIST\n"
    "                    [--route {gf,dp}] [--precision PRECISION]\n"
    "                    [--format {json,text}]\n"
)


@pytest.mark.parametrize("argv", [
    ("height", "--help"),
    ("height", "--family", "nope", "--n-list", "3"),
    ("height", "--family", "prefix-any", "--n-list", "3"),
])
def test_height_usage_is_the_same_on_every_python(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    if exc.value.code == 0:
        assert captured.out.startswith(HEIGHT_USAGE + "\n") and captured.err == ""
        assert "--family FAMILY       path family: return-to-zero, prefix-at-k" in captured.out
    else:
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith(
            HEIGHT_USAGE + "lukas height: error: argument --family: invalid choice: ")


def test_height_infinite_family(capsys):
    # prefix-any is no family `height` offers: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["height", "--family", "prefix-any", "--n-list", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --family: invalid choice: 'prefix-any'" in captured.err
    count = run_cli(capsys, "count", "--n", "4", "--total")
    assert count == (
        EXIT_INFINITE, "", "error: infinite family: unbounded l2r query with no end height\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_height_rejects_k_without_end_height(capsys, fmt):
    for family in ("return-to-zero", "suffix-any"):
        rc, out, err = run_cli(capsys, "height", "--family", family, "--k", "2",
                               "--n-list", "4", "--format", fmt)
        assert rc == EXIT_DOMAIN and out == ""
        assert "has no end height" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_height_rejects_negative_precision(capsys, fmt):
    with pytest.raises(SystemExit) as exc:
        main(["height", "--family", "return-to-zero", "--n-list", "4",
              "--precision", "-1", "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--precision" in captured.err


def test_height_refused_precision_writes_nothing(capsys):
    # every text line is rendered before any is written; JSON rounds instead
    argv = ("height", "--family", "return-to-zero", "--n-list", "3",
            "--precision", "100000000000")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_DOMAIN and out == "" and "precision too big" in err
    assert run_cli(capsys, *argv, "--format", "json")[0] == EXIT_OK


#: Comparisons per bundled fixture check at order 21: every index i >= start
#: whose fixture index i - shift the b-file holds.
SELFTEST_FIXTURE_COUNTS = (
    ("b000108.txt", 21), ("b000245.txt", 21), ("b002057.txt", 20), ("b000344.txt", 20),
    ("b000108.txt", 20), ("b000245.txt", 20), ("b002057.txt", 18), ("b001519.txt", 20),
    ("b007051.txt", 20), ("b080937.txt", 20), ("b000012.txt", 21), ("b000079.txt", 21),
    ("b001906.txt", 21), ("b003462.txt", 21), ("b005021.txt", 21), ("b000012.txt", 21),
    ("b000079.txt", 21), ("b001519.txt", 21), ("b007051.txt", 21),
)


def test_selftest_quick(capsys):
    started = time.perf_counter()
    rc, out, _ = run_cli(capsys, "selftest", "--quick")
    elapsed = time.perf_counter() - started
    assert rc == EXIT_OK
    assert out == "".join([
        "cross-engine grid (n <= 6) ...\n",
        "cross-engine grid: ok\n",
        "fixture comparisons ...\n",
        *(f"  {name}: {ncomp} comparisons, 0 mismatches [ok]\n"
          for name, ncomp in SELFTEST_FIXTURE_COUNTS),
        "selftest: all checks passed\n",
    ])
    assert elapsed < 30.0


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for code in ("3", "4", "5", "6", "7", "8"):
        assert code in out
    assert "internal error" in out


def test_count_deep_bound_gf_matches_dp(capsys):
    # column 3601 of the bound-1200 system: the shift rules are applied 1199
    # times, far past the default recursion limit
    argv = ("count", "--n", "5", "--k", "1200", "--bound", "1200")
    rc, gf, _ = run_cli(capsys, *argv, "--engine", "gf")
    assert rc == EXIT_OK
    rc, dp, _ = run_cli(capsys, *argv, "--engine", "dp")
    assert rc == EXIT_OK
    assert gf.strip() == dp.strip() == "87993316294"


@pytest.mark.parametrize("argv, saturated", [
    (("series", "--k", "1", "--order", "8"), "8"),
    (("count", "--n", "5", "--total", "--orientation", "r2l"), "6"),
])
def test_a_bound_paths_cannot_reach_costs_nothing(capsys, argv, saturated):
    # the gf engine sizes its system by the highest height a path reaches,
    # not by the bound asked for
    want = run_cli(capsys, *argv, "--bound", saturated)
    start = time.perf_counter()
    assert run_cli(capsys, *argv, "--bound", "100000") == want
    assert time.perf_counter() - start < 2
    assert want[0] == EXIT_OK


@pytest.mark.parametrize("n_list", ["", ","])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_height_rejects_empty_n_list(capsys, n_list, fmt):
    rc, out, err = run_cli(capsys, "height", "--family", "return-to-zero",
                           "--n-list", n_list, "--format", fmt)
    assert rc == EXIT_DOMAIN
    assert out == "" and "--n-list" in err


@pytest.mark.parametrize("engine", ["all", "oracle", "dp", "closed", "gf"])
@pytest.mark.parametrize("bound", [None, "3"])
def test_totals_by_kind_rejected_by_every_engine(capsys, engine, bound):
    argv = ["count", "--n", "3", "--total", "--kind", "up", "--orientation", "r2l",
            "--engine", engine]
    if bound is not None:
        argv += ["--bound", bound]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_DOMAIN and out == ""
    assert "totals over end heights are defined for kind=any only" in err


def assert_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ("series", "--k", "1", "--order", "0"),
    ("series", "--total", "--bound", "2", "--order", "0"),
    ("series", "--total", "--orientation", "r2l", "--order", "0"),
    ("series", "--k", "1", "--order", "-3"),
    ("check", "--bfile", "unused.txt", "--k", "1", "--order", "0"),
])
def test_nonpositive_order_is_a_usage_error(capsys, argv):
    assert_usage_error(capsys, argv, "argument --order: must be positive")


@pytest.mark.parametrize("engine", ["all", "oracle"])
def test_negative_oracle_cap_is_a_usage_error(capsys, engine):
    argv = ["count", "--n", "3", "--k", "0", "--oracle-cap", "-1", "--engine", engine]
    assert_usage_error(capsys, argv, "argument --oracle-cap: must be nonnegative, got -1")


@pytest.mark.parametrize("argv, flag", [
    (("count", "--n", "-1", "--k", "0"), "--n"),
    (("count", "--n", "3", "--k", "-1"), "--k"),
    (("count", "--n", "3", "--k", "0", "--bound", "-1"), "--bound"),
    (("series", "--k", "-1", "--order", "4"), "--k"),
    (("series", "--k", "0", "--bound", "-1", "--order", "4"), "--bound"),
    (("series", "--total", "--bound", "-1"), "--bound"),
    (("check", "--bfile", "unused.txt", "--k", "-1"), "--k"),
    (("check", "--bfile", "unused.txt", "--k", "1", "--bound", "-1"), "--bound"),
    (("height", "--family", "prefix-at-k", "--k", "-1", "--n-list", "4"), "--k"),
    (("check", "--bfile", "unused.txt", "--k", "1", "--shift", "-1", "--start", "-1"), "--start"),
])
def test_negative_query_argument_is_a_usage_error(capsys, argv, flag):
    assert_usage_error(capsys, argv, f"argument {flag}: must be nonnegative, got -1")


def test_zero_oracle_cap_skips_the_oracle(capsys):
    rc, out, _ = run_cli(capsys, "count", "--n", "3", "--k", "0", "--oracle-cap", "0",
                         "--format", "json")
    assert rc == EXIT_OK
    assert json.loads(out)["meta"]["engines"] == ["dp", "closed", "gf"]


def test_the_oracle_refuses_a_left_to_right_height_past_its_cap(capsys):
    """One up-step reaches any height, so `count --n 7 --k 100` has about
    2e9 paths to enumerate: the oracle refuses it, and a total's bound past
    its cap, before enumerating, while the other engines answer at once."""
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "count", "--n", "7", "--k", "100", "--format", "json")
    assert time.perf_counter() - start < 2
    assert rc == EXIT_OK and json.loads(out)["meta"]["engines"] == ["dp", "closed", "gf"]
    rc, _, err = run_cli(capsys, "count", "--n", "7", "--k", "100", "--engine", "oracle")
    assert rc == EXIT_ORACLE_CAP and "oracle cap exceeded: k=100 > 10" in err
    rc, _, err = run_cli(capsys, "count", "--n", "3", "--total", "--bound", "11",
                         "--engine", "oracle")
    assert rc == EXIT_ORACLE_CAP and "oracle cap exceeded: bound=11 > 10" in err
    rc, out, _ = run_cli(capsys, "count", "--n", "3", "--k", "100", "--engine", "oracle",
                         "--oracle-cap", "100")
    assert rc == EXIT_OK and out.strip() == "5355"
    # right to left a path rises by unit steps, so its end height needs no cap
    rc, out, _ = run_cli(capsys, "count", "--n", "3", "--k", "100", "--orientation", "r2l",
                         "--engine", "oracle")
    assert rc == EXIT_OK and out.strip() == "0"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_answers_past_the_digit_limit_print(capsys, fmt):
    # catalan(8000) has 4811 digits, past the interpreter's default limit of
    # 4300 for int-to-str conversion; main lifts it only while it runs
    limit = sys.get_int_max_str_digits()
    rc, out, err = run_cli(capsys, "count", "--n", "8000", "--k", "0", "--engine", "closed",
                           "--format", fmt)
    assert (rc, err) == (EXIT_OK, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(catalan(8000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 4811
    assert (json.loads(out)["values"] if fmt == "json" else out.split()) == [want]


def test_an_argument_past_the_digit_limit_is_a_usage_error(capsys):
    assert_usage_error(capsys, ("count", "--n", "9" * 5000, "--k", "0"),
                       "argument --n: invalid int value")
