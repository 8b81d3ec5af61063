"""Exact counting of Lukasiewicz lattice path prefixes and suffixes.

Four mutually checking engines: a brute-force enumeration oracle, a dynamic
program over (height, last-step class), closed-form ballot numbers, and exact
generating-function expansions, plus height-bounded transfer-matrix counting,
alternate-path (kernel method) counting, and average-height asymptotics.

The names below are loaded on first use, so importing the package (or one
of its submodules) does not import the others.
"""
import importlib

#: Public names by defining submodule.
_EXPORTS = {
    "core": (
        "EndKind", "InfiniteFamilyError", "OracleCapError", "Orientation", "PathQuery",
        "dp_count", "enumerate_count", "enumerate_profile",
    ),
    "series": (
        "DEFAULT_ORDER", "IntPoly", "RationalGF", "Series", "catalan_gf",
    ),
    "counts": ("prefix_count", "prefix_series", "suffix_count", "suffix_series"),
    "bounded": ("bounded_gf", "d_poly", "n_poly", "total_bounded_gf"),
    "alternate": (
        "SexticRoot", "alt_asymptotic", "alt_series", "dominant_root", "s1_series",
    ),
    "asymptotics": (
        "FAMILIES", "HeightStats", "avg_height", "substitution_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines `name` and cache the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
