"""The bundled b-files are exactly what tools/gen_bfiles.py writes, and the
b-file comparison rejects what it cannot index."""
import importlib.util
from pathlib import Path

import pytest

from lukaspaths.engines import compare_bfile

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "lukaspaths" / "data"


def test_bundled_bfiles_match_the_generator(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_bfiles", ROOT / "tools" / "gen_bfiles.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
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
