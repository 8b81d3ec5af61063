"""Each subcommand imports only the modules it runs: a `lukas` job is a fresh
process, so every module it imports (and, without cached bytecode, compiles)
is part of its wall time."""
import pytest

from reference import run_python

#: `lukaspaths.__all__` as published; lazy loading must not change it.
PUBLIC = [
    "EndKind", "InfiniteFamilyError", "OracleCapError", "Orientation", "PathQuery",
    "dp_count", "enumerate_count", "enumerate_profile", "DEFAULT_ORDER", "IntPoly",
    "RationalGF", "Series", "catalan_gf", "prefix_count", "prefix_series",
    "suffix_count", "suffix_series", "bounded_gf", "d_poly", "n_poly",
    "total_bounded_gf", "SexticRoot", "alt_asymptotic", "alt_series", "dominant_root",
    "s1_series", "FAMILIES", "HeightStats", "avg_height", "substitution_check",
]


def _modules_after(argv: list[str]) -> set[str]:
    """The modules loaded once `cli.main(argv)` has run in a fresh process."""
    code = (
        "import sys\n"
        "from lukaspaths import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "sys.stdout.write('\\n' + '\\n'.join(sorted(sys.modules)))\n"
    )
    return set(run_python(code).split("\n"))


@pytest.mark.parametrize("argv", [
    ["count", "--n", "1", "--k", "0"],
    ["series", "--k", "2", "--order", "8"],
    ["series", "--k", "2"],
])
def test_count_and_series_skip_the_heavy_modules(argv):
    loaded = _modules_after(argv)
    assert "lukaspaths.engines" in loaded
    unwanted = {"dataclasses", "fractions", "lukaspaths.asymptotics", "lukaspaths.bounded",
                "lukaspaths.alternate"}
    assert not loaded & unwanted


def test_alternate_series_skip_fractions():
    """Only the root bisection works in rationals; the alternate series are
    integer series like every other."""
    loaded = _modules_after(["series", "--k", "2", "--order", "8", "--alternate"])
    assert "lukaspaths.alternate" in loaded
    assert "fractions" not in loaded


@pytest.mark.parametrize("route", ["dp", "gf"])
def test_height_skips_the_engines(route):
    """Each route counts the family's members itself: the dp route loads no
    series code, and neither route loads the closed forms."""
    loaded = _modules_after(["height", "--family", "return-to-zero", "--n-list", "5",
                             "--route", route])
    assert "lukaspaths.asymptotics" in loaded
    unwanted = {"lukaspaths.engines", "lukaspaths.alternate", "lukaspaths.counts"}
    if route == "dp":
        unwanted |= {"lukaspaths.bounded", "lukaspaths.series"}
    assert not loaded & unwanted


def test_package_exports_are_unchanged_and_resolve():
    import lukaspaths

    assert list(lukaspaths.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(lukaspaths, name) is not None, name
    # a fresh package has loaded none of them, yet lists them all
    listed, loaded = run_python("import sys, lukaspaths; print(*dir(lukaspaths)); "
                                "lukaspaths.PathQuery; print(*sys.modules)").splitlines()
    assert set(PUBLIC) <= set(listed.split())
    assert "lukaspaths.bounded" not in loaded.split()


def test_unknown_package_attribute_raises():
    import lukaspaths

    with pytest.raises(AttributeError):
        lukaspaths.no_such_name
    from lukaspaths import bounded  # submodules still import by attribute

    assert lukaspaths.bounded is bounded
