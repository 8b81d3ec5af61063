"""The bundled b-files are exactly what tools/gen_bfiles.py writes, and the
b-file comparison rejects what it cannot index."""
import pytest

from lukaspaths.engines import compare_bfile

from reference import SRC, load_tool

DATA = SRC / "lukaspaths" / "data"


def test_bundled_bfiles_match_the_generator(tmp_path, monkeypatch):
    gen = load_tool("gen_bfiles")
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in DATA.glob("b*.txt"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_compare_bfile_rejects_a_negative_start():
    table = {0: 1, 1: 1, 2: 2}
    assert compare_bfile(table, [0, 1, 1, 2], shift=1, start=0) == (3, [])
    with pytest.raises(ValueError, match="start must be nonnegative, got -1"):
        compare_bfile(table, [0, 1, 1, 2], shift=1, start=-1)
