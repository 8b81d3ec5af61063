"""No library code without a library caller.

Every top-level function and class of `src/lukaspaths` (bar `__init__.py`)
and every method that is not a dunder must be named somewhere outside its
own body: in the library, in `tools/` or in `perfbench/`, as a `Name`, an
`Attribute` or an import alias.  Code that only the tests call belongs in
the tests (`tests/reference.py` holds such code).  The paper's results that
nothing calls are the only exceptions.

The scan has two limits, each watched by a test of its own.  First, the
members that `perfbench/tracer.py` wraps by name pass because the tracer
names them, even where no library code calls them; `TRACER_ONLY` lists
them, so a new one fails here.  Second, it matches by name, not by
binding: a name used anywhere keeps every definition of that name alive,
so it could not have flagged a library `catalan` while
`tools/gen_bfiles.py` defines and calls its own.  Within the library no two
definitions share a name, so there one caller cannot keep two alive.
"""
import ast
from collections import Counter
from pathlib import Path

from reference import ROOT, SRC

LIBRARY = SRC / "lukaspaths"

#: Results of the paper that the library reports but never calls.
PAPER_RESULTS = {"substitution_check", "alt_asymptotic"}
#: Members that only `perfbench/` names: the tracer wraps or reads them.
TRACER_ONLY = {"series.Series.inverse", "series.IntPoly.exact_div", "series.IntPoly.degree",
               "series.RationalGF.coefficients_int"}


def _names(node: ast.AST) -> Counter:
    """Every name `node` mentions as a `Name`, an `Attribute` or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
    return found


def _definitions(tree: ast.Module):
    """The top-level functions and classes of a module and the non-dunder
    methods of its classes, as (qualified name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def _library_definitions():
    """(module.qualified name, node) of every definition `_definitions`
    yields in the library modules bar `__init__.py`."""
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name != "__init__.py":
            for qualname, node in _definitions(ast.parse(path.read_text(), str(path))):
                yield f"{path.stem}.{qualname}", node


def _uncalled(*dirs: str) -> set[str]:
    """The library definitions, bar `PAPER_RESULTS`, that no module in
    the library or `dirs` names outside their own body."""
    files = [*LIBRARY.glob("*.py"), *(path for d in dirs for path in (ROOT / d).glob("*.py"))]
    named = sum((_names(ast.parse(path.read_text(), str(path))) for path in files), Counter())
    # a body naming itself is no caller
    return {qualname for qualname, node in _library_definitions()
            if node.name not in PAPER_RESULTS and named[node.name] - _names(node)[node.name] <= 0}


def test_every_library_definition_has_a_caller():
    uncalled = sorted(_uncalled("tools", "perfbench"))
    assert uncalled == [], f"named nowhere outside their own body: {uncalled}"


def test_tracer_only_members_are_listed():
    """What only `perfbench/` names is exactly `TRACER_ONLY`."""
    assert _uncalled("tools") - _uncalled("tools", "perfbench") == TRACER_ONLY


def test_library_definitions_have_distinct_names():
    """The name-matching scan keeps a definition alive through any use of
    its name, so a definition that shares one with another could pass on
    the other's callers."""
    names = Counter(node.name for _, node in _library_definitions())
    assert [name for name, c in names.items() if c > 1] == []


def _bound(path: Path) -> set[str]:
    """The names a module binds at top level by assignment, def or class."""
    bound = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return bound


def test_tests_keep_reference_names_single():
    """A table or helper the tests share is bound once, in `reference.py`."""
    shared = _bound(ROOT / "tests" / "reference.py")
    copies = [f"{path.name}: {name}" for path in sorted((ROOT / "tests").glob("test_*.py"))
              for name in sorted(_bound(path) & shared)]
    assert copies == [], f"bound again outside reference.py: {copies}"
