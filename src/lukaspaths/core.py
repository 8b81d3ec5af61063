"""The counting query, the enumeration oracle and the dynamic-programming
counter that every other engine is checked against, and the bounded
system's Cramer column table (`_column`) that the gf and closed engines read.

Left-to-right paths live in N^2, start at the origin, and use steps (1, r)
with r >= -1: up-steps of any positive rise, flat steps, and unit down-steps.
The right-to-left (suffix) model mirrors the step set: rises are at most +1
and falls may have any size.  An "alternate" path never takes two consecutive
steps of the same direction class (up/flat/down), whatever the rise sizes.
The oracle generates every path: it walks each one step by step until four
steps are left, then reads those last steps from a table of every legal way
to take them, built once per state and counted one key per path, so every
path is still counted once; inside the walk each bucket key is packed into
one int.  The DP counts both models as one walk with the suffix step set: a
suffix as it is, a prefix read backwards.  All counts are exact Python ints.
"""
from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import accumulate, chain, count
from operator import add
from typing import Iterator, Optional

DEFAULT_ORACLE_CAP = 10


class Orientation(Enum):
    L2R = "l2r"
    R2L = "r2l"


class EndKind(Enum):
    UP = "up"
    FLAT = "flat"
    DOWN = "down"
    ANY = "any"


STEP_KINDS = (EndKind.UP, EndKind.FLAT, EndKind.DOWN)

#: The path families whose exact mean height `asymptotics.avg_height` gives.
FAMILIES = (
    "return-to-zero",
    "prefix-at-k",
    "suffix-at-k",
    "suffix-any",
)


class InfiniteFamilyError(ValueError):
    """Raised for queries whose answer is not a finite number (left-to-right
    paths with neither an end height nor a height bound)."""


class OracleCapError(ValueError):
    """The oracle's length, or left-to-right end height or bound, is past its cap."""


class EngineDomainError(ValueError):
    """The requested engine, or every engine, does not define this query."""


class BFileError(ValueError):
    """Unreadable or malformed b-file."""


class PathQuery:
    """The universal counting request: an immutable value, compared, hashed
    and printed field by field.

    ``k is None`` means "any end height", for kind Any only.  One up-step
    reaches any height, so left to right that family is finite only under a
    height bound: a query with neither raises `InfiniteFamilyError`, and
    every query that is built has a finite answer.
    """

    __slots__ = ("n", "k", "kind", "orientation", "bound", "alternate")

    def __init__(
        self,
        n: int,
        k: Optional[int] = None,
        kind: EndKind = EndKind.ANY,
        orientation: Orientation = Orientation.L2R,
        bound: Optional[int] = None,
        alternate: bool = False,
    ) -> None:
        if n < 0:
            raise ValueError("length must be nonnegative")
        if k is not None and k < 0:
            raise ValueError("end height must be nonnegative")
        if bound is not None and bound < 0:
            raise ValueError("bound must be nonnegative")
        if k is not None and bound is not None and k > bound:
            raise ValueError("end height exceeds the height bound")
        if k is None and kind is not EndKind.ANY:
            raise EngineDomainError("totals over end heights are defined for kind=any only")
        if k is None and bound is None and orientation is Orientation.L2R:
            raise InfiniteFamilyError("infinite family: unbounded l2r query with no end height")
        for name, value in zip(self.__slots__, (n, k, kind, orientation, bound, alternate)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


#: The census walks a path one step at a time until this many steps are
#: left, then reads every legal way to take them from a table.  Each step
#: more multiplies a table's length by the heights one step can reach.
#: Measured on the 40 censuses of the n <= 9 cross-engine grid (Python
#: 3.11.7, 2 CPUs), with packed int keys: 0.27 s with three steps, 0.20 s
#: with four and 0.17 s with five (three steps with tuple keys: 0.31-0.35 s).
#: A four-step table holds its three-step tables, not a flat copy of their
#: keys, so the n = 9 left-to-right census peaks at 0.40 MB allocated, as
#: with three steps, where flat tables (and five steps) peak at 1.0 MB.  A
#: fresh `selftest` then peaks at 16.3-16.6 MB RSS, against 16.6-16.7 MB with
#: three-step tuple keys; flat four-step tables took it to 16.8-17.5 MB, and
#: five steps to 16.8 MB.
_TABLE_STEPS = 4


def _census(
    n: int,
    orientation: Orientation,
    alternate: bool,
    k: Optional[int] = None,
    bound: Optional[int] = None,
) -> dict[tuple[int, EndKind, int], int]:
    """The oracle's one walker: generate every path of length n step by step
    and count the paths by (end height, last step kind, max height); the
    empty path is in the k = 0 up family, as in the paper's f_0, so its key
    is (0, EndKind.UP, 0).

    After a step from height h, with ``rem`` steps still to take, the new
    height lies in [max(h - 1, 0), min(bound, hi + rem)] left to right and in
    [max(lo - rem, 0), min(h + 1, bound)] right to left: the step set, the
    floor, the bound, and an end height in [lo, hi] still reachable.  ``lo``
    is k (else 0), and ``hi`` is k, else the bound, else n.  A step's kind is
    the sign of its rise, and an alternate path never repeats the previous
    step's kind.

    A path's first n - `_TABLE_STEPS` steps are walked one at a time.  Its
    state then, (height, max height, last kind), fixes every legal way to end
    it, so its last steps are read from a table: for each state, the bucket
    key of each of its continuations, built once per census call by the
    same step rule.  A `Counter` adds 1 per key in that table, so every path
    is still generated and counted exactly once, and no count is ever
    multiplied; a path of at most `_TABLE_STEPS` steps is one table entry as
    a whole.

    Inside the walk a bucket key is one int, (end height * span + max
    height) * 4 + kind, with kinds 0-2 the indices of `STEP_KINDS`, 3 for
    the empty path (no previous step for the alternation rule to match; it
    decodes to up), and a span above every reachable max height: hi + n - 1
    at most, as a step never climbs past hi + rem.  The keys are decoded to
    tuples once, after the walk.
    """
    l2r = orientation is Orientation.L2R
    lo = k or 0
    hi = k if k is not None else bound if bound is not None else n
    span = hi + n + 1
    up, flat, down = range(3)  # STEP_KINDS indices; 3 is the empty path's kind
    buckets: Counter[int] = Counter()
    tables: dict[tuple[int, int, int, int], tuple] = {}

    def steps(h: int, last: int, rem: int) -> list[tuple[int, int]]:
        """(new height, kind) of every legal step from height h that leaves
        ``rem`` steps to take."""
        if l2r:
            first, stop = (h - 1 if h else 0), hi + rem
        else:
            first, stop = (lo - rem if lo > rem else 0), h + 1
        if bound is not None and stop > bound:
            stop = bound
        out = []
        for nh in range(first, stop + 1):
            kind = up if nh > h else flat if nh == h else down
            if not (alternate and kind == last):
                out.append((nh, kind))
        return out

    def table(h: int, top: int, last: int, left: int) -> tuple:
        """The packed bucket key of every legal way to take the last
        ``left`` steps from this state: with none left, the state's own
        key; else built once per state from the tables of the states one
        step on.  Below `_TABLE_STEPS` steps a table holds its keys; at
        `_TABLE_STEPS` it holds those tables, one per first step, and is
        read through `chain`, so no key is stored twice."""
        if not left:
            return ((h * span + top) * 4 + last,)
        state = (h, top, last, left)
        keys = tables.get(state)
        if keys is None:
            keys = []
            for nh, kind in steps(h, last, left - 1):
                part = table(nh, nh if nh > top else top, kind, left - 1)
                keys += (part,) if left == _TABLE_STEPS else part
            keys = tables[state] = (*keys,)
        return keys

    def walk(h: int, top: int, last: int, left: int) -> None:
        if left > _TABLE_STEPS:
            for nh, kind in steps(h, last, left - 1):
                walk(nh, nh if nh > top else top, kind, left - 1)
        else:
            keys = table(h, top, last, left)
            buckets.update(chain.from_iterable(keys) if left == _TABLE_STEPS else keys)

    walk(0, 0, 3, n)
    kinds = (*STEP_KINDS, EndKind.UP)
    census = {}
    for key, c in buckets.items():
        key, last = divmod(key, 4)
        h, top = divmod(key, span)
        census[h, kinds[last], top] = c
    return census


def _tally(census: dict[tuple[int, EndKind, int], int], query: PathQuery) -> int:
    """The paths of a length-n census that answer `query`: end height k (any
    if k is None), the query's last step kind, max height within the bound."""
    k, kind, bound = query.k, query.kind, query.bound
    return sum(
        c for (h, last, top), c in census.items()
        if (k is None or h == k) and kind in (EndKind.ANY, last)
        and (bound is None or top <= bound)
    )


def enumerate_count(query: PathQuery, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Brute-force oracle: count by explicit generation.

    Step sizes are pruned to those that keep the target end height (or the
    bound) reachable, which makes the infinite step alphabet finite for every
    query.  Left to right one up-step reaches any height up to that target,
    so `cap` bounds it too, as it bounds n."""
    if query.n > cap:
        raise OracleCapError(f"oracle cap exceeded: n={query.n} > {cap}")
    name, top = ("k", query.k) if query.k is not None else ("bound", query.bound)
    if query.orientation is Orientation.L2R and top > cap:
        raise OracleCapError(f"oracle cap exceeded: {name}={top} > {cap}")
    census = _census(query.n, query.orientation, query.alternate, query.k, query.bound)
    return _tally(census, query)


def enumerate_profile(
    n: int,
    orientation: Orientation = Orientation.L2R,
    alternate: bool = False,
) -> dict[tuple[int, EndKind, int], int]:
    """Batch oracle: one exhaustive generation pass over all length-n paths
    with end height at most n, bucketed by (end height, end kind, max height),
    the empty path as (0, EndKind.UP, 0).  Bounded and per-kind counts for a
    whole query grid follow by summation, which keeps cross-engine sweeps
    affordable.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > DEFAULT_ORACLE_CAP:
        raise OracleCapError(f"oracle cap exceeded: n={n} > {DEFAULT_ORACLE_CAP}")
    return _census(n, orientation, alternate)


#: Which of `_kind_step`'s (rise, flat, fall) lists holds a path's last step
#: of each kind: the walk's last step right to left, its first step, with up
#: and down swapped, left to right.
_WALK_KIND = {
    Orientation.R2L: {EndKind.UP: 0, EndKind.FLAT: 1, EndKind.DOWN: 2},
    Orientation.L2R: {EndKind.UP: 2, EndKind.FLAT: 1, EndKind.DOWN: 0},
}


def dp_count(query: PathQuery) -> int:
    """Dynamic-programming counter: one walk with unit rises and falls of any
    size, its counts listed by height from the top down.

    Right to left the walk is the path itself, from 0 to k (to any height if
    k is None).  Left to right it is the path read backwards, from k (from
    every height up to the bound if k is None) to 0: reversing a path
    negates and reorders its steps and keeps its heights, so the floor and
    the bound still hold.  The lists grow by one height per step until they
    reach the bound, and a step is one running sum (`_walk_step`).  When a
    kind is asked for, the step that is the path's last is split by kind
    (`_kind_step`); an alternate walk splits every step and feeds each kind
    from the other two.
    """
    n, k, bound, alternate = query.n, query.k, query.bound, query.alternate
    if n == 0:  # no last step to split: the empty path is in the k = 0 up family
        return 1 if query.kind in (EndKind.ANY, EndKind.UP) and k in (0, None) else 0
    if query.orientation is Orientation.R2L:
        walk, end, last = [1], k, n
    else:
        walk, end, last = [1] * (bound + 1) if k is None else [1] + [0] * k, 0, 1
    asked = _WALK_KIND[query.orientation].get(query.kind)  # None: any kind
    width, sources = len(walk), (walk, walk, walk)
    for i in range(1, n + 1):
        grow = bound is None or width <= bound
        width += grow
        ask = asked if i == last else None
        if not alternate:
            walk = _walk_step(walk, grow) if ask is None else _kind_step(walk, walk, walk, grow)[ask]
            continue
        kinds = _kind_step(*sources, grow)
        if ask is not None:  # keep the asked kind only
            kinds = [lst if j == ask else [0] * width for j, lst in enumerate(kinds)]
        rise, flat, fall = kinds
        sources = [*map(add, flat, fall)], [*map(add, rise, fall)], [*map(add, rise, flat)]
    if alternate:  # rise + (flat + fall)
        walk = [*map(add, rise, sources[0])]
    return _walk_end(walk, end)


def _walk_step(top_down: list[int], grow: bool) -> list[int]:
    """One step of the walk on counts listed from the top height down: the
    new count at h sums the old counts at heights >= h - 1 (a unit rise, the
    flat step and every fall), a running sum.  With `grow` the list gains a
    height on top; without it the height cap stays."""
    out = [*accumulate(top_down)]
    out.append(out[-1])
    if not grow:
        del out[0]
    return out


def _kind_step(rise_src: list[int], flat_src: list[int], fall_src: list[int],
               grow: bool) -> tuple[list[int], list[int], list[int]]:
    """`_walk_step` split by the kind of the step, each kind from its own
    source: the rise lifts its source one height, the flat step copies it,
    and the fall to h sums its source strictly above h."""
    rise = [*rise_src, 0]
    flat = [0, *flat_src]
    fall = [0, 0, *accumulate(fall_src)]
    fall.pop()
    if not grow:
        del rise[0], flat[0], fall[0]
    return rise, flat, fall


def _walk_end(walk: list[int], end: Optional[int]) -> int:
    """The walk's count at height `end`, or its total if `end` is None."""
    if end is None:
        return sum(walk)
    return walk[-1 - end] if end < len(walk) else 0


def _bound_sweep(n: int, k: Optional[int], orientation: Orientation) -> Iterator[int]:
    """``dp_count(PathQuery(n, k, EndKind.ANY, orientation, bound=t))`` for
    t = k, k + 1, ..., without end; k may be None (t = 0, 1, ...) right to
    left only; what `PathQuery` refuses raises before the first value.

    This is `dp_count`'s walk, from `start` to `end`.  After i steps it is
    at most start + i high, so bound t cannot bind during the first
    t - start steps.  One unbounded run advances in lockstep with t, and
    bound t continues a copy of its state for the remaining steps under cap
    t; only the current states are kept.
    """
    PathQuery(n, k, EndKind.ANY, orientation)
    start, end = (k, 0) if orientation is Orientation.L2R else (0, k)
    state, i = [1] + [0] * start, 0  # the unbounded run after i steps
    for t in count(k or 0):
        while i < min(t - start, n):
            state, i = _walk_step(state, True), i + 1
        walk = state
        for _ in range(n - i):
            walk = _walk_step(walk, False)
        yield _walk_end(walk, end)


#: (flip, power, offset) of the bounded system's Cramer columns idx = 1..6:
#: N_idx^t = (-1)^flip z^power D_(t+offset).
_BASE = {1: (0, 0, 0), 2: (1, 2, -3), 3: (1, 1, -1), 4: (1, 1, -1), 5: (0, 2, -4), 6: (1, 2, -3)}
#: The columns 3k + offset of the family ending at height k, by kind.
_OFFSETS = {EndKind.UP: (1,), EndKind.DOWN: (2,), EndKind.FLAT: (3,), EndKind.ANY: (1, 2, 3)}


def _column(idx: int, orientation: Orientation) -> tuple[int, int, int]:
    """(sign, power, offset) of the Cramer column N_idx^t = sign z^power
    D_(t+offset), t >= (idx - 1) // 3: a `_BASE` column after r steps of the
    shift rule, left to right N_(k+3)^(t+1) = -N_k^t down to columns 4..6,
    right to left N_k^(t+1) = -z N_(k-3)^t down to columns 1..3.  As
    t -> oo, D_(t+d)/D_t -> (-1/L)^d (L the Catalan series), so the column
    over D_t tends to sign (-1)^d z^power L^(-d), d the offset."""
    if orientation is Orientation.R2L:
        r = shift = (idx - 1) // 3
    else:
        r, shift = max((idx - 4) // 3, 0), 0
    flip, power, offset = _BASE[idx - 3 * r]
    return -1 if (r + flip) % 2 else 1, shift + power, offset - r
