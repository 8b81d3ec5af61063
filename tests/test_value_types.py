"""The value contract of `Step`, `Path` and `PathQuery`: equality and hashing
by field, immutability, the repr text (error messages print queries), and
`PathQuery`'s validation."""
import pytest

from lukaspaths.core import EndKind, Orientation, Path, PathQuery, Step

QUERY_REPR = (
    "PathQuery(n=5, k=2, kind=<EndKind.UP: 'up'>, orientation=<Orientation.R2L: 'r2l'>, "
    "bound=4, alternate=True)"
)


def test_path_query_defaults_and_repr():
    q = PathQuery(3)
    assert (q.n, q.k, q.kind, q.orientation, q.bound, q.alternate) == (
        3, None, EndKind.ANY, Orientation.L2R, None, False
    )
    assert repr(q) == (
        "PathQuery(n=3, k=None, kind=<EndKind.ANY: 'any'>, "
        "orientation=<Orientation.L2R: 'l2r'>, bound=None, alternate=False)"
    )
    full = PathQuery(5, 2, EndKind.UP, Orientation.R2L, 4, True)
    assert repr(full) == str(full) == f"{full}" == QUERY_REPR
    assert PathQuery(n=5, k=2, kind=EndKind.UP, orientation=Orientation.R2L,
                     bound=4, alternate=True) == full


def test_path_query_equality_and_hashing():
    a = PathQuery(4, 1, bound=2)
    b = PathQuery(4, 1, EndKind.ANY, Orientation.L2R, 2, False)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, PathQuery(4, 1)}) == 2
    assert a != PathQuery(4, 1, bound=3)
    assert a != PathQuery(4, 1, bound=2, alternate=True)
    assert {a: "x"}[b] == "x"


@pytest.mark.parametrize("field", ["n", "k", "kind", "orientation", "bound", "alternate"])
def test_path_query_is_immutable(field):
    q = PathQuery(4, 1)
    with pytest.raises(AttributeError):
        setattr(q, field, 0)
    with pytest.raises(AttributeError):
        delattr(q, field)
    assert q == PathQuery(4, 1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=-1), "length must be nonnegative"),
    (dict(n=3, k=-1), "end height must be nonnegative"),
    (dict(n=3, bound=-1), "bound must be nonnegative"),
    (dict(n=3, k=4, bound=2), "end height exceeds the height bound"),
])
def test_path_query_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PathQuery(**kwargs)


def test_step_contract():
    assert Step(2) == Step.up(2) and hash(Step(2)) == hash(Step.up(2))
    assert Step(0) == Step.flat() and Step(-1) == Step.down()
    assert Step(1) != Step(2)
    assert repr(Step(-3)) == "Step(rise=-3)"
    assert [Step(1).kind, Step(0).kind, Step(-2).kind] == [EndKind.UP, EndKind.FLAT, EndKind.DOWN]
    with pytest.raises(AttributeError):
        Step(1).rise = 2
    with pytest.raises(ValueError, match="positive rise"):
        Step.up(0)
    with pytest.raises(ValueError, match="positive fall"):
        Step.down(0)


def test_path_contract():
    steps = [Step(1), Step(0), Step(-1)]
    p = Path(iter(steps))
    assert p.steps == tuple(steps) and p.orientation is Orientation.L2R
    assert len(p) == 3 and p.heights() == [1, 1, 0]
    assert p == Path(steps) and hash(p) == hash(Path(tuple(steps)))
    assert p != Path(steps, Orientation.R2L)
    assert repr(Path([Step(1)], Orientation.R2L)) == (
        "Path(steps=(Step(rise=1),), orientation=<Orientation.R2L: 'r2l'>)"
    )
    with pytest.raises(AttributeError):
        p.steps = ()
