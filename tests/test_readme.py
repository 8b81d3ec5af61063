"""Every command-line example in README.md that states its output, as
`lukas ...  # -> value` in an `sh` block, prints that value: exactly, or
as a prefix when the value ends in `...`."""
import re
import shlex

import pytest

from lukaspaths.cli import main

from reference import ROOT

README = ROOT / "README.md"
EXAMPLE = re.compile(r"^lukas (?P<argv>.+?)\s+# -> (?P<value>\S+)$")


def _examples() -> list[tuple[str, str]]:
    """(argv, value) of every `# -> ` line in the README's `sh` blocks."""
    found, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and (match := EXAMPLE.match(line)):
            found.append((match["argv"], match["value"]))
    return found


EXAMPLES = _examples()


def test_readme_states_outputs():
    # a reformatted README must not leave the check below with nothing to run
    assert len(EXAMPLES) >= 6, EXAMPLES


@pytest.mark.parametrize("argv,value", EXAMPLES, ids=[argv for argv, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, value):
    assert main(shlex.split(argv)) == 0
    out = capsys.readouterr().out
    if value.endswith("..."):
        assert out.startswith(value[:-3]), out
    else:
        assert out == value + "\n"
