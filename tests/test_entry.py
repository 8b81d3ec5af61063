"""The process entry point: `python -m lukaspaths` (and `lukas`) run
`cli.run`, which flushes the standard streams and exits with `os._exit`.

PYTHONUNBUFFERED is removed from the environment of every child `_spawn`
starts: unbuffered output would hide a missing flush, since nothing would
be left to flush."""
import io
import os
import subprocess
import sys
from typing import Optional

import pytest

from lukaspaths import cli

from reference import SRC, run_main, run_python

BFILE = str(SRC / "lukaspaths" / "data" / "b000245.txt")
BROKEN_PIPE = "error: internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


def _env(unbuffered: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn(argv: list[str], stdout=subprocess.PIPE, closed: Optional[int] = None,
           unbuffered: bool = False) -> subprocess.CompletedProcess:
    """Run `python -m lukaspaths argv`; `closed` names a standard descriptor
    the child starts without, as the shell's `>&-` or `2>&-` leaves it."""
    return subprocess.run([sys.executable, "-m", "lukaspaths", *argv], env=_env(unbuffered),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=None if closed is None else lambda: os.close(closed))


def _broken_pipe() -> int:
    """The write end of a pipe whose reader has gone; the caller closes it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
def test_long_output_arrives_whole(capsys, unbuffered):
    argv = ["series", "--k", "2", "--order", "400"]
    proc = _spawn(argv, unbuffered=unbuffered)
    assert len(proc.stdout) > 8192  # more than one buffer's worth
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(capsys, *argv)


#: (exit code, argv) of each documented outcome.
EXIT_CASES = pytest.mark.parametrize("code, argv", [
    (0, ["count", "--n", "5", "--k", "0"]),
    (2, ["count", "--n", "5", "--k", "0", "--no-such-flag"]),
    (3, ["count", "--n", "5", "--total"]),
    (4, ["count", "--n", "12", "--k", "0", "--engine", "oracle"]),
    (5, ["check", "--bfile", BFILE, "--k", "2", "--order", "21"]),
    (6, ["check", "--bfile", BFILE + ".missing", "--k", "1", "--order", "21"]),
    (7, ["count", "--n", "5", "--total", "--kind", "up", "--engine", "dp"]),
], ids=["ok", "bad-flag", "infinite", "oracle-cap", "disagree", "bfile", "domain"])


@EXIT_CASES
def test_exit_codes_and_messages_match_main(capsys, code, argv):
    proc = _spawn(argv)
    assert proc.returncode == code
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(capsys, *argv)
    if code not in (0, 2, 5):
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@BUFFERING
def test_closed_stdout_exits_internal(unbuffered):
    write_end = _broken_pipe()
    try:
        proc = _spawn(["count", "--n", "5", "--k", "0"], stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_INTERNAL, BROKEN_PIPE)


def test_help_into_a_closed_stdout_exits_internal():
    # argparse prints --help and raises SystemExit(0); run's flush finds
    # the closed pipe
    write_end = _broken_pipe()
    try:
        proc = _spawn(["--help"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_INTERNAL, BROKEN_PIPE)


def test_importing_the_entry_module_runs_nothing():
    assert run_python("import lukaspaths.__main__; print('after')") == "after\n"


@BUFFERING
def test_stdout_closed_at_start_up_exits_internal(unbuffered):
    # the command does not run: its answer has nowhere to go
    proc = _spawn(["count", "--n", "5", "--k", "0"], closed=1, unbuffered=unbuffered)
    assert proc.returncode == cli.EXIT_INTERNAL
    assert proc.stderr.startswith("error: internal error: ") and proc.stderr.count("\n") == 1


@BUFFERING
@EXIT_CASES
def test_closed_stderr_keeps_the_exit_code(capsys, unbuffered, code, argv):
    # the error line is lost, the exit code and the answer are not
    proc = _spawn(argv, closed=2, unbuffered=unbuffered)
    want, out, _ = run_main(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want, out, "")
    assert proc.returncode == code


@BUFFERING
def test_closed_stderr_and_broken_stdout_exit_internal(unbuffered):
    write_end = _broken_pipe()
    try:
        proc = _spawn(["count", "--n", "5", "--k", "0"], stdout=write_end, closed=2,
                      unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_INTERNAL, "")


class _Stream(io.StringIO):
    def __init__(self, name: str, events: list):
        super().__init__()
        self.stream_name = name
        self.events = events

    def flush(self):
        self.events.append(("flush", self.stream_name))
        super().flush()


def _run_with(monkeypatch, fake_main, stdout_type=_Stream) -> list:
    """Call `cli.run` with `main` replaced and the streams and `os._exit`
    recording what happens to them, in order."""
    events: list = []
    monkeypatch.setattr(sys, "stdout", stdout_type("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(cli.os, "_exit", lambda code: events.append(("exit", code)))
    cli.run()
    return events


def test_run_exits_with_mains_code_after_both_flushes(monkeypatch):
    def fake_main():
        print("answer")
        return cli.EXIT_DISAGREE

    events = _run_with(monkeypatch, fake_main)
    assert events[-3:] == [("flush", "stdout"), ("flush", "stderr"),
                           ("exit", cli.EXIT_DISAGREE)]
    assert [e for e in events if e[0] == "exit"] == [("exit", cli.EXIT_DISAGREE)]


@pytest.mark.parametrize("status, code, err", [
    (None, 0, ""), (0, 0, ""), (2, 2, ""), ("bad value", 1, "bad value\n"),
])
def test_run_maps_system_exit_as_sys_exit_does(monkeypatch, status, code, err):
    def fake_main():
        raise SystemExit(status)

    events = _run_with(monkeypatch, fake_main)
    assert events[-3:] == [("flush", "stdout"), ("flush", "stderr"), ("exit", code)]
    assert sys.stderr.getvalue() == err


@pytest.mark.parametrize("main_code", [cli.EXIT_OK, cli.EXIT_DISAGREE])
def test_run_reports_a_stdout_it_cannot_flush_once(monkeypatch, main_code):
    class ClosedPipe(_Stream):
        def flush(self):
            super().flush()
            raise BrokenPipeError(32, "Broken pipe")

    def fake_main():
        print("answer")
        return main_code

    events = _run_with(monkeypatch, fake_main, ClosedPipe)
    assert events == [("flush", "stdout"), ("flush", "stderr"), ("exit", cli.EXIT_INTERNAL)]
    assert sys.stderr.getvalue() == BROKEN_PIPE


def test_run_lets_other_exceptions_through(monkeypatch):
    def fake_main():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _run_with(monkeypatch, fake_main)
