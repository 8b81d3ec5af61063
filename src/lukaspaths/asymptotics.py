"""Average height of the path families, exactly, and the substitution
identities that underpin the sqrt(pi n) asymptotics.

For a family with c_t(n) members of height at most t, the mean height is
sum_{t >= 0} (c_T(n) - c_t(n)) / c_T(n) for any T at or above the family's
highest member, so each route's own c_T(n) is the family's size.  Below the
end height k every c_t(n) is 0 and its term is 1, so the sum is k plus its
terms from t = k.  Means are exact rationals; only the ratio against
sqrt(pi n) is floated.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from .core import FAMILIES, Orientation, _bound_sweep


class HeightStats(NamedTuple):
    """Exact mean height of one family at one length, with its sqrt(pi n)
    comparison."""

    n: int
    family: str
    k: Optional[int]
    mean_height: Fraction
    sqrt_pi_n: float
    ratio: float


def _family_model(family: str, k: Optional[int]) -> tuple[Optional[int], Orientation]:
    """End height (None: any) and orientation of a family's bounded counts;
    `k` is the family's end height, None for the families without one."""
    end = 0 if family == "return-to-zero" else k
    return end, Orientation.R2L if family.startswith("suffix") else Orientation.L2R


def avg_height(n: int, family: str, k: Optional[int] = None, route: str = "gf") -> HeightStats:
    """Exact mean of the max-height statistic over the family at length n.

    `route` selects how the bounded counts c_t(n) are produced, each by one
    sweep of the bound t from the end height k up.  "gf" steps the exact
    rational generating functions' numerators and denominators up in t and
    expands each bound only from the first power where it differs from the
    bound before; "dp" advances one unbounded dynamic program in lockstep
    with t and finishes each bound from a copy of its state.  Both are exact and independent of
    each other and of the closed forms: each takes the family's size from
    its own count at t = n + k.  They cross-check each other in the tests,
    and the closed forms check those sizes there.  `k` is the end
    height of the *-at-k families and is rejected for the others; a
    suffix-at-k family with k > n is empty and rejected too.  Each sweep
    checks the family's query as `PathQuery` checks it: a negative k raises
    ValueError.  Every family in `FAMILIES` is finite.
    """
    if n < 1:
        raise ValueError("length must be positive")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in ("prefix-at-k", "suffix-at-k"):
        if k is None:
            raise ValueError(f"family {family!r} needs an end height k")
        if family == "suffix-at-k" and k > n:  # unit rises: no path gets there
            raise ValueError("end height exceeds the length")
    elif k is not None:
        raise ValueError(f"family {family!r} has no end height k")
    if route not in ("gf", "dp"):
        raise ValueError("route must be 'gf' or 'dp'")

    end, orientation = _family_model(family, k)
    if route == "gf":
        from .bounded import _gf_bound_sweep as sweep
    else:
        sweep = _bound_sweep
    # Every member is at least k high, and none is higher than n + k: right
    # to left every rise is a unit step, and left to right every height
    # above k costs a unit fall.
    c = [*islice(sweep(n, end, orientation), n + 1)]
    mean = (k or 0) + Fraction(sum(c[-1] - c_t for c_t in c), c[-1])
    spn = math.sqrt(math.pi * n)
    return HeightStats(n=n, family=family, k=k, mean_height=mean, sqrt_pi_n=spn,
                       ratio=float(mean) / spn)


def substitution_check(t: int, u: Fraction) -> bool:
    """Verify, in exact rational arithmetic, that D_t, N_2^t, and N_3^t
    evaluated at z = u/(1+u)^2 equal their closed forms in u:

        D_t   = (-1)^(t+3) (1 - u^(t+3)) / ((1 - u)(1 + u)^(t+2))
        N_2^t = (-1)^(t+1) u^2 (1 - u^t) / ((1 + u)^(t+3)(1 - u))
        N_3^t = (-1)^(t+1) u (1 - u^(t+2)) / ((1 - u)(1 + u)^(t+3))
    """
    if t < 0:
        raise ValueError("bound must be nonnegative")
    u = Fraction(u)
    if u == 1 or u == -1:
        raise ValueError("u = +-1 is excluded (closed forms degenerate)")
    from .bounded import d_poly, n_poly

    z = u / (1 + u) ** 2
    lhs_d = d_poly(t)(z)
    lhs_n2 = n_poly(t, 2, Orientation.L2R)(z)
    lhs_n3 = n_poly(t, 3, Orientation.L2R)(z)
    one_minus_u = 1 - u
    up = 1 + u
    rhs_d = (-1) ** (t + 3) * (1 - u ** (t + 3)) / (one_minus_u * up ** (t + 2))
    rhs_n2 = (-1) ** (t + 1) * u**2 * (1 - u**t) / (up ** (t + 3) * one_minus_u)
    rhs_n3 = (-1) ** (t + 1) * u * (1 - u ** (t + 2)) / (one_minus_u * up ** (t + 3))
    return lhs_d == rhs_d and lhs_n2 == rhs_n2 and lhs_n3 == rhs_n3
