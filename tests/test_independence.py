"""The generating-function engines stand apart from the dynamic program and
the oracle: a count that two engines agree on is only a check if neither
computes it through the other."""
import importlib
import types
from itertools import product
from pathlib import Path

import pytest

from lukaspaths import core, engines
from lukaspaths.core import Orientation, PathQuery

from reference import KINDS, shapes

#: The dynamic program's and the enumeration oracle's functions in `core`.
DP_AND_ORACLE = ("dp_count", "_bound_sweep", "_walk_step", "enumerate_count",
                 "enumerate_profile")


def _names_in(code: types.CodeType) -> set[str]:
    """Every global, attribute and imported name `code` refers to, inside
    its nested functions and comprehensions too."""
    stack, names = [code], set()
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def _names_in_code(module: types.ModuleType) -> set[str]:
    """Every name the module's code refers to, inside functions and methods
    too."""
    path = Path(module.__file__)
    return _names_in(compile(path.read_text(encoding="utf-8"), str(path), "exec"))


@pytest.mark.parametrize("name", ["series", "counts", "bounded", "alternate"])
def test_gf_modules_use_no_dp_or_oracle_function(name):
    module = importlib.import_module(f"lukaspaths.{name}")
    functions = [getattr(core, fn) for fn in DP_AND_ORACLE]
    bound = [attr for attr, value in vars(module).items()
             if any(value is fn for fn in functions)]
    assert bound == [], f"{name} binds {bound}"
    assert not _names_in_code(module) & set(DP_AND_ORACLE), name


#: The bounded system's Cramer column table in `core`, which the gf engine
#: reads bounded and unbounded, and the closed engine unbounded.
COLUMN_TABLE = {"_BASE", "_OFFSETS", "_column"}


@pytest.mark.parametrize("name", ["dp_count", "_walk_step", "_kind_step", "_walk_end",
                                  "_bound_sweep", "_census", "_tally"])
def test_dp_and_oracle_read_no_column_table(name):
    """The table lives in `core` beside the DP and the oracle, which stay
    independent checks of it only while their code never names it."""
    assert not _names_in(getattr(core, name).__code__) & COLUMN_TABLE


def test_every_unbounded_column_has_a_plus_sign():
    """A column sign z^P D_(t+d) over D_t tends to sign (-1)^d z^P L^(-d),
    since D_(t+1)/D_t -> -1/L.  The unbounded families read it as
    z^P L^(-d), which holds only if sign (-1)^d = +1: k <= 12, every kind,
    both orientations."""
    for orientation, k, kind in product(Orientation, range(13), KINDS):
        for off in core._OFFSETS[kind]:
            sign, _, d = core._column(3 * k + off, orientation)
            assert sign * (-1) ** d == 1, (orientation, k, kind)


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


def _families(label):
    """The shapes (k, kind, orientation, bound, alternate) of one label, each
    answered by the gf engine: plain k <= 8, the right-to-left total, bounded
    t <= 5 with an end height and as totals, and alternate k <= 5."""
    return list({
        "plain": shapes(range(9), [None], alternates=[False]),
        "total": shapes([None], [None], alternates=[False]),
        "bounded": shapes([None, *range(6)], range(6), alternates=[False]),
        "alternate": shapes(range(6), [None], [Orientation.L2R], [True]),
    }[label])


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
    family = _families(label)
    assert family
    for k, kind, orientation, bound, alternate in family:
        got = engines.series_for_query(k, kind, orientation, bound, alternate,
                                       order=GF_ORDER).integer_coefficients()
        want = [core.dp_count(PathQuery(n, k, kind, orientation, bound, alternate))
                for n in range(GF_ORDER)]
        assert got == want, (k, kind, orientation, bound, alternate)
