"""Exact integer arithmetic: binomials, binomial determinants, and the
integer check every vector entry and scalar parameter passes.

Everything here is pure integer arithmetic on Python's arbitrary-precision
ints.  No floating point is used anywhere in the package; inequalities
between ratios are always decided by cross-multiplication.
"""

from math import comb


def binomial(n: int, k: int) -> int:
    """C(n, k) with the vanishing convention.

    Returns 0 whenever k < 0, n < 0 or k > n.  Several of the closed-form
    expressions in this package rely on out-of-range binomials silently
    vanishing; binom_det inlines the same guard, all else calls this.
    """
    return comb(n, k) if 0 <= k <= n else 0


def int_entries(values, what: str = "vector entries") -> tuple:
    """values as a tuple, each an int; a float, a bool or any other value
    raises ValueError, naming them as `what`, instead of being truncated or
    read as 0/1."""
    out = tuple(values)
    for x in out:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise ValueError(f"{what} must be integers, got {x!r}")
    return out


def binom_det(p: int, q: int, t: int, u: int) -> int:
    """The 2x2 binomial determinant C(p,t)*C(q,u) - C(p,u)*C(q,t), each
    binomial vanishing as in `binomial`."""
    return ((comb(p, t) * comb(q, u) if 0 <= t <= p and 0 <= u <= q else 0)
            - (comb(p, u) * comb(q, t) if 0 <= u <= p and 0 <= t <= q else 0))
