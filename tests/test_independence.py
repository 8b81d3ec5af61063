"""The generating-function engines stand apart from the dynamic program and
the oracle: a count that two engines agree on is only a check if neither
computes it through the other."""
import importlib
import types
from itertools import product
from pathlib import Path

import pytest

from lukaspaths import core, engines
from lukaspaths.core import EndKind, Orientation, PathQuery

from reference import KINDS

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


def test_series_kernel_names_no_binomial():
    """The kernel the gf engine runs on holds no binomial, so no closed form
    can reach a series through it."""
    series = importlib.import_module("lukaspaths.series")
    assert not _names_in_code(series) & {"comb", "binom"}


#: Every name through which a closed form reaches the library: the closed
#: counters of `counts` with their ballot numbers and the `comb` behind
#: them, and the closed engine in `engines`.
CLOSED_FORMS = (("counts", "comb"), ("counts", "prefix_count"),
                ("counts", "suffix_count"), ("counts", "_ballot"),
                ("engines", "closed_count"))
GF_ORDER = 30


def _families():
    """(label, k, kind, orientation, bound, alternate) for every query shape
    the gf engine answers: plain k <= 8, the right-to-left total, bounded
    t <= 5 with an end height and as totals, and alternate k <= 5."""
    for orientation in Orientation:
        for k, kind in product(range(9), KINDS):
            yield "plain", k, kind, orientation, None, False
        for t in range(6):
            yield "bounded", None, EndKind.ANY, orientation, t, False
            for k, kind in product(range(t + 1), KINDS):
                yield "bounded", k, kind, orientation, t, False
    yield "total", None, EndKind.ANY, Orientation.R2L, None, False
    for k, kind in product(range(6), KINDS):
        yield "alternate", k, kind, Orientation.L2R, None, True


@pytest.fixture
def no_closed_forms(monkeypatch):
    def closed_form(*args, **kwargs):
        raise AssertionError("a closed form was evaluated")

    for module, name in CLOSED_FORMS:
        monkeypatch.setattr(importlib.import_module(f"lukaspaths.{module}"), name, closed_form)


@pytest.mark.parametrize("label", ["plain", "total", "bounded", "alternate"])
def test_gf_engine_evaluates_no_closed_form(no_closed_forms, label):
    """With every closed form patched to raise, `series_for_query` still
    equals the dynamic program at every n < 30, so the gf engine reaches its
    counts by series algebra alone, and its agreement with `closed` is a
    check."""
    with pytest.raises(AssertionError, match="closed form"):
        engines.closed_count(PathQuery(3, 1))  # the patch reaches the closed engine
    shapes = [f[1:] for f in _families() if f[0] == label]
    assert shapes
    for k, kind, orientation, bound, alternate in shapes:
        got = engines.series_for_query(k, kind, orientation, bound, alternate,
                                       order=GF_ORDER).integer_coefficients()
        want = [core.dp_count(PathQuery(n, k, kind, orientation, bound, alternate))
                for n in range(GF_ORDER)]
        if k == 0 and kind is EndKind.UP:
            want[0] = 1  # the series families charge the empty path to this state
        assert got == want, (k, kind, orientation, bound, alternate)
