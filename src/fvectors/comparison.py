"""The f-vector comparison machinery.

The core result: if two g-vectors exhibit a crossing pattern -- the
differences v_i = g_i(Delta) - g_i(Gamma) are nonnegative up to some
index t and nonpositive after it -- then a single inequality
f_r(Delta) <= f_r(Gamma) propagates to f_s(Delta) <= f_s(Gamma) for every
s > r.  Applying this against the extremal families gives sandwich bounds:
from one known face count f_r, all later face counts are pinned between a
stacked lower bound and a cyclic upper bound (and, for centrally-symmetric
polytopes, bounded below by the cs-stacked family).

One caveat: the propagation is certified only when the smallest crossing
index t is at most r + 1.  The argument scales the comparison by the
ratio m[t][r] / m[t][s], and m[t][r] = 0 as soon as t >= r + 2; in that
regime every column through r annihilates the positive differences, the
premise f_r(Delta) <= f_r(Gamma) can only hold with equality, and the
conclusion can genuinely fail.  The smallest witness: d = 4 with
g(Delta) = (1, 1, 1) and g(Gamma) = (1, 1, 0).  Both have six vertices,
so the premise holds at r = 0, yet Delta has strictly more faces in every
higher dimension.  A strict premise f_r(Delta) < f_r(Gamma) is impossible
when t >= r + 2, so strict inequalities always propagate.  Reports carry
a `guaranteed` flag distinguishing the two regimes.
"""

from functools import partial
from itertools import combinations, repeat
from operator import le, mul, sub
from typing import NamedTuple, Optional

from .exact import binomial, int_entries
from .macaulay import _top
from .transforms import (
    GVector, _f_tail, _md_column as _column, check_dim, check_rs, delta, wrong_class)
from .families import CYCLIC, STACKED, CS_STACKED, _affine_family, g_entries


class NoCrossingError(ValueError):
    """The two g-vectors do not satisfy the crossing hypothesis."""


class BelowFloorError(ValueError):
    """The given face count is below the minimal family member's count."""


class CrossingWitness(NamedTuple):
    """Index t and the differences v_i = g_i(Delta) - g_i(Gamma):
    v_i >= 0 for 1 <= i <= t and v_i <= 0 for t < i <= delta."""

    t: int
    diffs: tuple


class BoundConclusion(NamedTuple):
    bound_holds: bool
    lhs: int
    rhs: Optional[int] = None


_conclusion = partial(tuple.__new__, BoundConclusion)  # of a triple, built in C


class ComparisonReport(NamedTuple):
    d: int
    r: int
    premise_holds: bool
    # True when the propagation argument certifies every conclusion:
    # the premise holds and the crossing index satisfies t <= r + 1.
    guaranteed: bool
    conclusions: dict
    witness: Optional[CrossingWitness] = None
    family_params: Optional[tuple] = None


def _check_r(d: int, r: int, *values: int) -> None:
    check_dim(d)
    int_entries((r, *values), "parameters")
    if not 0 <= r <= d - 2:
        raise ValueError(f"need 0 <= r <= d-2, got r={r}, d={d}")


def find_crossing(g_delta: GVector, g_gamma: GVector) -> Optional[CrossingWitness]:
    """Smallest t splitting the differences into a nonnegative prefix and a
    nonpositive suffix over indices 1..delta, or None if no t works."""
    if type(g_delta) is not GVector or type(g_gamma) is not GVector:
        raise wrong_class(GVector, g_gamma if type(g_delta) is GVector else g_delta)
    return _crossing(g_delta, g_gamma)


def _crossing(g_delta: GVector, g_gamma: GVector) -> Optional[CrossingWitness]:
    if g_delta.d != g_gamma.d:
        raise ValueError("g-vectors must share a dimension")
    diffs = tuple(map(sub, g_delta.entries, g_gamma.entries))
    # t is at least the last positive difference, and that index works
    # exactly when no difference before it is negative
    t = len(diffs) - 1
    while t and diffs[t] <= 0:
        t -= 1
    return None if min(diffs[1:t], default=0) < 0 else CrossingWitness(t, diffs)


def compare(g_delta: GVector, g_gamma: GVector, r: int) -> ComparisonReport:
    """Apply the comparison propagation to a pair of g-vectors at index r.

    Requires a crossing witness.  If f_r(Delta) <= f_r(Gamma) and the
    crossing index satisfies t <= r + 1, every conclusion
    f_s(Delta) <= f_s(Gamma) for r < s < d is certified (and asserted:
    a failure there is an arithmetic bug, not an input condition).  If the
    premise holds only through the degenerate equality corner (t >= r + 2,
    which forces f_r(Delta) = f_r(Gamma)), the report carries the actual
    truth value of each conclusion with guaranteed = False.  If the
    premise fails, premise_holds is False and nothing is claimed.

    The premise reads one column: f_r(Delta) - f_r(Gamma) is the crossing
    differences times column r of M_d.  Only if it holds do the h -> f
    passes run, for f_(r+1), ..., f_(d-1) of each side.
    """
    if type(g_delta) is not GVector or type(g_gamma) is not GVector:
        raise wrong_class(GVector, g_gamma if type(g_delta) is GVector else g_delta)
    d = g_delta.d
    _check_r(d, r)
    witness = _crossing(g_delta, g_gamma)
    if witness is None:
        raise NoCrossingError("no crossing pattern: the comparison hypothesis is unmet")
    gap = sum(map(mul, witness.diffs, _column(d, r)))  # f_r(Delta) - f_r(Gamma)
    if gap > 0:
        return ComparisonReport(d, r, False, False, {}, witness)
    guaranteed = witness.t <= r + 1
    if not guaranteed and gap != 0:
        # t >= r+2 zeroes every m[i][r] weighting a positive difference,
        # so the premise can then only hold with equality
        raise RuntimeError(f"strict premise with crossing index t={witness.t} > r+1 at "
                           f"d={d}, r={r}: impossible by the column-vanishing pattern")
    # f_{r+1}, ..., f_{d-1} of each side, so f_s is at index s - r - 1
    f_delta, f_gamma = _f_tail(d, g_delta.entries, r + 2), _f_tail(d, g_gamma.entries, r + 2)
    holds = list(map(le, f_delta, f_gamma))
    if guaranteed and not all(holds):
        i = holds.index(False)
        raise RuntimeError(f"certified comparison violated at d={d}, r={r}, s={r + 1 + i}: "
                           f"{f_delta[i]} > {f_gamma[i]}")
    conclusions = dict(zip(range(r + 1, d), map(_conclusion, zip(holds, f_delta, f_gamma))))
    return ComparisonReport(d, r, True, guaranteed, conclusions, witness)


class RatioChainReport(NamedTuple):
    d: int
    r: int
    s: int
    comparisons: tuple  # m[i][r]*m[i+1][s] - m[i][s]*m[i+1][r] for i < delta
    tail_start: Optional[int]  # first row index with m[i][s] = 0, if any
    tail_ok: bool
    all_hold: bool


def ratio_chain(d: int, r: int, s: int) -> RatioChainReport:
    """Verify the descending ratio chain down columns r < s of M_d:

        m[0][r]/m[0][s] >= m[1][r]/m[1][s] >= ... >= 0

    checked by cross-multiplication, so the comparisons are the
    consecutive-row 2x2 minors on columns r, s (a test pins them to
    phi_minor; verify_lemma3 scans them too).  The tail, the rows with
    m[i][s] = 0, follows the staircase m[i][j] > 0 iff i <= j+1, so tail_ok
    always holds: as m[i][j] = C(d+1-i, d-j) - C(i, d-j) and i <= delta <
    d+1-i, for i <= j+1 the first binomial is positive and exceeds the
    second, C(n, k) rising strictly in n >= k >= 1; for i >= j+2 both
    vanish, as d+1-i < d-j and i <= d/2 < d-j.
    """
    check_rs(d, r, s)
    cr, cs = _column(d, r), _column(d, s)
    comparisons = tuple(map(sub, map(mul, cr, cs[1:]), map(mul, cs, cr[1:])))
    tail_start = cs.index(0) if 0 in cs else None
    tail_ok = tail_start is None or (
        not any(cs[tail_start:]) and not any(cr[max(tail_start - 1, 0):])
        and min(cs[:tail_start], default=1) > 0)
    # Final chain element >= 0: entries of M_d are nonnegative.
    all_hold = min(comparisons) >= 0 and tail_ok and min(cr[-1], cs[-1]) >= 0
    return RatioChainReport(d, r, s, comparisons, tail_start, tail_ok, all_hold)


class ChainSweepReport(NamedTuple):
    d: int
    pairs: int
    failures: tuple  # (r, s) of each column pair whose chain fails


def verify_ratio_chain(d: int) -> ChainSweepReport:
    """Run ratio_chain on every column pair r < s of M_d."""
    check_dim(d)
    failures = tuple((r, s) for r, s in combinations(range(d), 2)
                     if not ratio_chain(d, r, s).all_hold)
    return ChainSweepReport(d, d * (d - 1) // 2, failures)


def _largest_n_up_to(value: int, family: str, d: int, r: int) -> tuple:
    """Largest n whose stacked or cs-stacked member has f_r <= value, and
    that member's f_s for s > r: one floor division by the step, m[1][r] > 0."""
    first, base, step = _affine_family(family, d)
    k = (value - base[r]) // step[r]
    if k < 0:
        raise BelowFloorError(f"f_{r} = {value} is below the minimal {family} value for d={d}")
    return first + k, [b + k * m for b, m in zip(base[r + 1:], step[r + 1:])]


def _cyclic_step(n: int, d: int, column: tuple) -> tuple:
    """(f(n), f(n) - f(n-1)) for f(n) = f_r(C(n, d)), n >= d+2, column
    being column r of M_d: with x = n-d-2 and c_i = C(x+i, i), f(n) is the
    sum of m[i][r] c_i and, by Pascal's rule, f(n) - f(n-1) that of
    m[i][r] c_(i-1), one running product by exact ratio steps."""
    x = n - d - 2
    f, df, c = column[0], 0, 1
    for i in range(1, len(column)):
        df += column[i] * c
        c = c * (x + i) // i
        f += column[i] * c
    return f, df


def _cyclic_n2(d: int, r: int, value: int) -> int:
    """n2 of `sandwich_simplicial`."""
    if value <= binomial(d + 1, r + 1):  # f_r of the simplex C(d+1, d)
        return d + 1
    dl = delta(d)
    if r < dl:
        return _top(value - 1, r + 1)[0] + 1
    column = _column(d, r)
    n = _top(-(-value // column[dl]) - 1, dl)[0] + d + 3 - dl
    f, df = _cyclic_step(n, d, column)
    while k := (f - value) // df:
        n -= k
        f, df = _cyclic_step(n, d, column)
    return n


def sandwich_simplicial(d: int, r: int, f_r_value: int) -> ComparisonReport:
    """Bounds for simplicial d-polytopes with f_r = f_r_value.

    Finds the largest n1 with f_r(S(n1,d)) <= f_r_value and the smallest
    n2 with f_r_value <= f_r(C(n2,d)); every later face count is then
    guaranteed to lie in [f_s(S(n1,d)), f_s(C(n2,d))].  n1 is a floor
    division, as f(S(n,d)) is affine in n.  Write f(n) = f_r(C(n,d)).

    For r < delta, C(n,d) is delta-neighborly, so f(n) = C(n, r+1) and n2
    is one Macaulay top.  Otherwise f(n) = sum_i C(n-d-2+i, i) m[i][r],
    every m[i][r] >= 0, is increasing and discretely convex for n >= d+1.
    The top term alone reaches the value at one top (its argument is >= 1,
    as m[delta][r] <= m[0][r] < value), so f(n) >= value there, and n > d+1.
    From such an n, convexity gives f(n-k) >= f(n) - k(f(n) - f(n-1)), so
    the step down by k = (f(n) - value) // (f(n) - f(n-1)) never passes
    n2; and k = 0 means f(n-1) < value, so the descent stops at n2.
    """
    _check_r(d, r, f_r_value)
    n1, f_low = _largest_n_up_to(f_r_value, STACKED, d, r)
    n2 = _cyclic_n2(d, r, f_r_value)
    f_high = _f_tail(d, g_entries(CYCLIC, n2, d), r + 2)
    conclusions = dict(zip(range(r + 1, d), map(_conclusion, zip(repeat(True), f_low, f_high))))
    return ComparisonReport(d, r, True, True, conclusions, None, (n1, n2))


def lower_bound_cs(d: int, r: int, f_r_value: int) -> ComparisonReport:
    """Lower bounds for centrally-symmetric simplicial d-polytopes with
    f_r = f_r_value: f_s >= f_s(CS(2n,d)) for the largest admissible n.

    The crossing hypothesis is certified against the Stanley floor, which
    every centrally-symmetric simplicial polytope's g-vector dominates:
    g(CS(2n,d)) exceeds it by (0, 2(n-d), 0, ..., 0), crossing at t = 1, or
    t = 0 when n = d.  f(CS(2n,d)) is affine in n, so n is a floor division.
    """
    _check_r(d, r, f_r_value)
    n, f_low = _largest_n_up_to(f_r_value, CS_STACKED, d, r)
    witness = CrossingWitness(int(n > d), (0, 2 * (n - d)) + (0,) * (delta(d) - 1))
    conclusions = dict(zip(range(r + 1, d),
                           map(_conclusion, zip(repeat(True), f_low, repeat(None)))))
    return ComparisonReport(d, r, True, True, conclusions, witness, (n,))
