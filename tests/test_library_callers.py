"""No library code without a library caller.

Every top-level function and class of `src/lukaspaths` (bar `__init__.py`)
and every method that is not a dunder must be named somewhere outside its
own body: in the library, in `tools/` or in `perfbench/`, as a `Name`, an
`Attribute` or an import alias.  Code that only the tests call belongs in
the tests (`tests/reference.py` holds such code).  The paper's results that
nothing calls are the only exceptions.

The scan has two limits.  First, the members that `perfbench/tracer.py`
wraps by name (`IntPoly.exact_div`, `Series.inverse` and the like) pass
because the tracer names them, even where no library code calls them.
Second, it matches by name, not by binding: a name used anywhere keeps
every definition of that name alive, so it could not have flagged a
library `catalan` while `tools/gen_bfiles.py` defines and calls its own.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lukaspaths"

#: Results of the paper that the library reports but never calls.
PAPER_RESULTS = {"substitution_check", "alt_asymptotic"}


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


def _uncalled() -> list[str]:
    files = [*LIBRARY.glob("*.py"), *(ROOT / "tools").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in trees.items():
        if path.parent != LIBRARY or path.name == "__init__.py":
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name in PAPER_RESULTS:
                continue
            if named[name] - _names(node)[name] <= 0:  # a body naming itself is no caller
                uncalled.append(f"{path.stem}.{qualname}")
    return sorted(uncalled)


def test_every_library_definition_has_a_caller():
    uncalled = _uncalled()
    assert uncalled == [], f"named nowhere outside their own body: {uncalled}"
