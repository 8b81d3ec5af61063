"""The value contract of `PathQuery`: equality and hashing by field, with
its own class only, immutability, the repr text (error messages print
queries), and validation."""
import pytest

from lukaspaths.core import EndKind, InfiniteFamilyError, Orientation, PathQuery

QUERY_REPR = (
    "PathQuery(n=5, k=2, kind=<EndKind.UP: 'up'>, orientation=<Orientation.R2L: 'r2l'>, "
    "bound=4, alternate=True)"
)


def test_path_query_defaults_and_repr():
    with pytest.raises(InfiniteFamilyError):
        PathQuery(3)  # the defaults alone name the infinite l2r family
    q = PathQuery(3, bound=2)
    assert (q.n, q.k, q.kind, q.orientation, q.bound, q.alternate) == (
        3, None, EndKind.ANY, Orientation.L2R, 2, False
    )
    assert repr(q) == (
        "PathQuery(n=3, k=None, kind=<EndKind.ANY: 'any'>, "
        "orientation=<Orientation.L2R: 'l2r'>, bound=2, alternate=False)"
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
    fields = (4, 1, EndKind.ANY, Orientation.L2R, 2, False)
    assert a != fields and a.__eq__(fields) is NotImplemented


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

