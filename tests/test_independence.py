"""The generating-function engines stand apart from the dynamic program and
the oracle: a count that two engines agree on is only a check if neither
computes it through the other."""
import importlib
import types
from pathlib import Path

import pytest

from lukaspaths import core

#: The dynamic program's and the enumeration oracle's functions in `core`.
DP_AND_ORACLE = ("dp_count", "_bound_sweep", "_walk_step", "enumerate_count",
                 "enumerate_profile")


def _names_in_code(module: types.ModuleType) -> set[str]:
    """Every global, attribute and imported name the module's code refers
    to, inside functions and methods too."""
    path = Path(module.__file__)
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    names: set[str] = set()
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


@pytest.mark.parametrize("name", ["series", "counts", "bounded", "alternate"])
def test_gf_modules_use_no_dp_or_oracle_function(name):
    module = importlib.import_module(f"lukaspaths.{name}")
    functions = [getattr(core, fn) for fn in DP_AND_ORACLE]
    bound = [attr for attr, value in vars(module).items()
             if any(value is fn for fn in functions)]
    assert bound == [], f"{name} binds {bound}"
    assert not _names_in_code(module) & set(DP_AND_ORACLE), name
