#!/usr/bin/env python3
"""Run one fixed grid of `lukas` invocations on two checkouts and diff the results.

    python3 tools/parity.py --parent ../parent --change .

Each checkout runs the whole grid in one subprocess, in the checkout's root,
with the checkout's `src` first on the import path and
`PYTHONDONTWRITEBYTECODE=1`.  A case is an argv alone, with no environment
of its own.  Every case calls `lukaspaths.cli.main` with its argv and
records the exit code (a `SystemExit` included), standard output and
standard error.

The grid covers `count` over every engine, format and query shape, with
refusals and oracle caps; `series` in every format, with alternate and
bounded rows to order 300 at bounds 40 and 41, unbounded rows to order 1000,
and rows at end height 3000; `check` against bundled,
missing and malformed b-files; `height` for every family and route, and by
the gf route at n = 128; `selftest` with and without `--quick`; every help
text; and the usage and domain errors.

One line is printed per differing (argv, stream), where the stream is
`exit`, `stdout` or `stderr`; then one tally line per distinct (stream,
parent value, change value), `N x stream: parent ... change ...`, most
frequent first; then a summary line.  The tool exits 1 if any case differs.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, Optional

#: One invocation: the argv after `lukas`.
Case = list[str]
#: What one invocation gave: exit code, standard output, standard error.
Result = tuple[int, str, str]
STREAMS = ("exit", "stdout", "stderr")

#: Runs in the checkout's own interpreter process: reads the cases as JSON
#: on stdin and writes the module's path and the results as JSON on stdout.
CHILD = r"""
import contextlib, io, json, sys
import lukaspaths
from lukaspaths.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append((code, out.getvalue(), err.getvalue()))
json.dump({"module": lukaspaths.__file__, "results": results}, sys.stdout)
"""

_KINDS = ("any", "up", "flat", "down")
_ORIENTATIONS = ("l2r", "r2l")
_ENGINES = ("oracle", "dp", "closed", "gf", "all")


def _query_flags(k: Optional[str], kind: str, orientation: str, bound: Optional[int],
                 alternate: bool) -> list[str]:
    """Query flags; `k` is an end height, "total", or None for neither flag."""
    flags = [] if k is None else ["--total"] if k == "total" else ["--k", k]
    flags += ["--kind", kind, "--orientation", orientation]
    if bound is not None:
        flags += ["--bound", str(bound)]
    return flags + (["--alternate"] if alternate else [])


def grid(bfiles: Path) -> list[Case]:
    """The fixed grid; `bfiles` is a directory of malformed b-files (see
    `write_bad_bfiles`), named by absolute path so both checkouts read the
    same files."""
    cases: list[Case] = []

    def add(*argv):
        cases.append([str(a) for a in argv])

    shapes = list(product(("total", "0", "2", "5"), _KINDS, _ORIENTATIONS,
                          (None, 1, 3), (False, True)))
    for n in (0, 1, 3, 7, 11):
        for shape in shapes:
            flags = _query_flags(*shape)
            for engine in _ENGINES:
                add("count", "--n", n, *flags, "--engine", engine)
            add("count", "--n", n, *flags, "--format", "json")
    for shape in product((None, "total", "1"), _KINDS, _ORIENTATIONS, (None, 2), (False, True)):
        flags = _query_flags(*shape)
        for cap in (0, 3):
            add("count", "--n", 4, *flags, "--oracle-cap", cap, "--format", "json")
    for n, k in product((40, 200), ("0", "3")):
        for engine in ("dp", "closed", "gf", "all"):
            add("count", "--n", n, "--k", k, "--engine", engine)
        add("count", "--n", n, "--k", k, "--bound", 4, "--engine", "all", "--format", "json")
    add("count", "--n", 12, "--k", 0, "--engine", "oracle")
    add("count", "--n", 12, "--k", 0, "--engine", "oracle", "--oracle-cap", 12)

    for shape in product((None, "total", "0", "3"), _KINDS, _ORIENTATIONS,
                         (None, 0, 2, 5), (False, True)):
        flags = _query_flags(*shape)
        for fmt, order in product(("text", "csv", "json"), (1, 12)):
            add("series", *flags, "--order", order, "--format", fmt)
    add("series", "--k", 1, "--order", 300)
    for k, kind in product((0, 3), _KINDS):
        add("series", "--k", k, "--kind", kind, "--alternate", "--order", 300)
    add("series", "--total", "--bound", 3, "--order", 300, "--format", "json")
    # the power walk's order bookkeeping: long orders, and many steps at a tiny order
    for k, kind, orientation in product((0, 12, 40), ("any", "down"), _ORIENTATIONS):
        add("series", "--k", k, "--kind", kind, "--orientation", orientation, "--order", 1000)
    for k in (3, 20):
        add("series", "--k", k, "--alternate", "--order", 1000)
    add("series", "--k", 3000, "--order", 8)
    add("series", "--k", 3000, "--alternate", "--order", 8)
    add("count", "--n", 7, "--k", 3000, "--engine", "gf")
    # deep bounded cases at both parities of the bound, since D_t(0) = (-1)^(t+1)
    for k, kind, orientation, bound in product((0, 3), ("any", "up"), _ORIENTATIONS, (40, 41)):
        add("series", "--k", k, "--kind", kind, "--orientation", orientation,
            "--bound", bound, "--order", 300)
    for bound, orientation in product((40, 41), _ORIENTATIONS):
        add("series", "--total", "--bound", bound, "--orientation", orientation, "--order", 300)

    data = Path("src/lukaspaths/data")
    fixtures = [
        ("b000108.txt", ["--k", 0], 0, 0),
        ("b000245.txt", ["--k", 1], 0, 0),
        ("b002057.txt", ["--k", 2], 1, 0),
        ("b000108.txt", ["--k", 1, "--orientation", "r2l"], 0, 1),
        ("b001519.txt", ["--k", 2, "--kind", "up", "--bound", 2], 0, 1),
        ("b001906.txt", ["--total", "--bound", 2], -1, 0),
        ("b007051.txt", ["--total", "--bound", 3, "--orientation", "r2l"], 0, 0),
    ]
    for name, flags, shift, start in fixtures:
        for delta in (0, 1):  # the fixture's own shift, then one off
            add("check", "--bfile", data / name, *flags, "--shift", shift + delta,
                "--start", start, "--order", 21)
    for bfile in (*sorted(bfiles.iterdir()), data / "no-such-file.txt"):
        add("check", "--bfile", bfile, "--k", 0, "--order", 8)
    for flags in (["--total"], ["--k", 3, "--bound", 1], ["--k", 3, "--bound", 1, "--alternate"],
                  ["--total", "--kind", "up", "--bound", 2], []):
        add("check", "--bfile", data / "b000108.txt", *flags, "--order", 8)

    for family in ("return-to-zero", "prefix-at-k", "suffix-at-k", "suffix-any", "prefix-any"):
        for route, k, fmt in product(("gf", "dp"), (None, 0, 2), ("text", "json")):
            flags = [] if k is None else ["--k", k]
            add("height", "--family", family, "--n-list", "1,2,5,16", "--route", route,
                *flags, "--format", fmt)
        add("height", "--family", family, "--n-list", "0,3", "--k", 1, "--precision", 2)
    for family in ("return-to-zero", "prefix-at-k", "suffix-at-k", "suffix-any"):
        flags = ["--k", 3] if family.endswith("-at-k") else []
        add("height", "--family", family, "--n-list", 128, "--route", "gf", *flags,
            "--format", "json")
    for n_list in ("", ",", "x", "3,-1"):
        add("height", "--family", "return-to-zero", "--n-list", n_list)

    add("selftest")
    add("selftest", "--quick")

    for command in ("count", "series", "check", "height", "selftest"):
        add(command, "--help")
    for argv in ([], ["--help"], ["bogus"], ["count"],
                 ["count", "--n", -1], ["count", "--n", "x"], ["count", "--n", 3, "--k", -1],
                 ["count", "--n", 3, "--bound", -2], ["count", "--n", 3, "--oracle-cap", -1],
                 ["count", "--n", 3, "--k", 1, "--total"], ["count", "--n", 3, "--engine", "x"],
                 ["series", "--order", 0], ["series", "--order", 5],
                 ["height", "--family", "nope", "--n-list", 3], ["check", "--k", 0]):
        add(*argv)
    return cases


def write_bad_bfiles(directory: Path) -> None:
    """The b-files `check` must refuse or report: empty, malformed, not
    increasing, not UTF-8, and one whose values are wrong."""
    files = {
        "empty.txt": "",
        "malformed.txt": "0 1\n1 x\n",
        "three-fields.txt": "0 1 2\n",
        "not-increasing.txt": "0 1\n2 2\n1 1\n",
        "wrong-values.txt": "# Catalan numbers, two wrong\n0 1\n1 1\n2 3\n3 5\n4 15\n",
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "not-utf8.txt").write_bytes(b"0 1\n1 \xff\xfe\n")


def run_tree(tree: Path, cases: list[Case]) -> list[Result]:
    """Run every case in one subprocess of the checkout at `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tree, env=env,
                          input=json.dumps(cases), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the grid failed in {tree}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout)
    if not Path(record["module"]).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"error: {tree} imported lukaspaths from {record['module']}")
    return [tuple(result) for result in record["results"]]


def _diffs(cases: list[Case], parent: list[Result],
           change: list[Result]) -> Iterator[tuple[str, str, object, object]]:
    """(stream, command, parent value, change value) of each differing stream."""
    for argv, old, new in zip(cases, parent, change):
        command = " ".join(["lukas", *argv])
        for stream, a, b in zip(STREAMS, old, new):
            if a != b:
                yield stream, command, a, b


def differences(cases: list[Case], parent: list[Result], change: list[Result]) -> list[str]:
    """One line per (case, stream) whose results differ."""
    return [f"{stream}: {command}: parent {a!r} change {b!r}"
            for stream, command, a, b in _diffs(cases, parent, change)]


def tally(cases: list[Case], parent: list[Result], change: list[Result]) -> list[str]:
    """One line per distinct (stream, parent value, change value), with the
    number of cases that differ that way, most frequent first."""
    counts = Counter((stream, a, b) for stream, _, a, b in _diffs(cases, parent, change))
    return [f"{n} x {stream}: parent {a!r} change {b!r}"
            for (stream, a, b), n in counts.most_common()]


def main(argv: Optional[list[str]] = None,
         runner: Callable[[Path, list[Case]], list[Result]] = run_tree) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as bad:
        write_bad_bfiles(Path(bad))
        cases = grid(Path(bad))
        parent = runner(args.parent.resolve(), cases)
        change = runner(args.change.resolve(), cases)
    lines = differences(cases, parent, change)
    for line in lines + tally(cases, parent, change):
        print(line)
    print(f"{len(cases)} invocations, {len(lines)} differing streams")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
