"""Macaulay expansion, the del^k operator, and sequence predicates.

For integers n, k >= 1 there is a unique way of writing

    n = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_i, i)

with a_k > a_{k-1} > ... > a_i >= i >= 1 (the Macaulay expansion), and

    del^k(n) = C(a_k - 1, k - 1) + ... + C(a_i - 1, i - 1),   del^k(0) = 0.

A nonnegative integer sequence (n_0, n_1, ...) with n_0 = 1 and
del^k(n_k) <= n_{k-1} for all k > 1 is an M-sequence.  The weaker
m-sequence condition only demands: n_j >= C(m, j) implies
n_{j-1} >= C(m-1, j-1), for all m >= j > 1.

The predicates accept a GVector or any plain integer sequence whose first
entry is 1, so truncations can be validated too.
"""

import math
from typing import NamedTuple

from .exact import binomial, int_entries


class MacaulayExpansion(NamedTuple):
    """terms is a tuple of (a_j, j) pairs with j descending from k."""

    n: int
    k: int
    terms: tuple

    def value(self) -> int:
        return sum(binomial(a, j) for a, j in self.terms)


def _top(n: int, j: int) -> tuple:
    """(a, C(a, j)) for the largest a >= j with C(a, j) <= n, for n >= 1.

    With x the integer j-th root of j!*n, C(x, j) <= x^j/j! <= n, and
    C(a, j) <= n forces (a-j+1)^j <= j!*n, so a <= x+j-1.  The root pays
    only while j! and x are small next to n, so it is taken when n > 4^j
    (which puts a above 2j); below that the walk starts at j.  From the
    start, C(a+1, j) = C(a, j)*(a+1)/(a+1-j) is exact, so each step up is
    one multiply and one floor division: one math.comb per top.
    """
    if j == 1:
        return n, n
    a = j
    if 2 * j < n.bit_length():
        m = math.factorial(j) * n
        # integer Newton from above falls to floor(m^(1/j)) and stops there;
        # for j = 2 math.isqrt starts it at the root
        a = math.isqrt(m) if j == 2 else 1 << -(-m.bit_length() // j)
        while (y := ((j - 1) * a + m // a ** (j - 1)) // j) < a:
            a = y
    c = math.comb(a, j)
    while (up := c * (a + 1) // (a + 1 - j)) <= n:
        a += 1
        c = up
    return a, c


def _greedy(n: int, k: int) -> tuple:
    """The Macaulay terms of n >= 1 from j = k down, stopping once the
    remainder rem is at most j: then C(j+1, j) = j+1 > rem, so the rest is
    rem unit terms (i, i) for i = j down to j-rem+1.  Returns (terms,
    shifted, rem, j), shifted being the sum of C(a-1, j-1) over the terms."""
    terms, shifted = [], 0
    rem, j = n, k
    while rem > j:
        a, c = _top(rem, j)
        terms.append((a, j))
        shifted += c * j // a
        rem -= c
        j -= 1
    return terms, shifted, rem, j


def macaulay_expand(n: int, k: int) -> MacaulayExpansion:
    """Unique greedy expansion: largest a_k with C(a_k, k) <= n, then recurse.

    Each a_j with a_j > j is one `_top`, which C(a, j) being strictly
    increasing in a >= j permits; the unit terms (j, j) at the tail need
    no top.
    """
    int_entries((n, k), "parameters")
    if n <= 0:
        raise ValueError(f"macaulay_expand needs n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"macaulay_expand needs k >= 1, got {k}")
    terms, _, rem, j = _greedy(n, k)
    terms.extend((i, i) for i in range(j, j - rem, -1))
    return MacaulayExpansion(n, k, tuple(terms))


def del_k(n: int, k: int) -> int:
    """del^k(n): shift every expansion term down by one in both arguments.

    A term C(a, j) shifts to C(a-1, j-1) = C(a, j)*j/a, and each unit term
    (i, i) of the tail to C(i-1, i-1) = 1, so the tail adds its length, the
    remainder, in one step.
    """
    int_entries((n, k), "parameters")
    if n < 0:
        raise ValueError(f"del_k needs n >= 0, got {n}")
    if k < 1:
        raise ValueError(f"del_k needs k >= 1, got {k}")
    if n == 0:
        return 0
    _, shifted, rem, _ = _greedy(n, k)
    return shifted + rem


def _entries(v):
    entries = int_entries(getattr(v, "entries", v))
    if not entries or entries[0] != 1:
        raise ValueError("sequence predicates require a first entry of 1")
    return entries


def is_nonnegative(v) -> bool:
    """True iff all entries are >= 0."""
    entries = int_entries(getattr(v, "entries", v))
    return all(x >= 0 for x in entries)


def is_m_sequence_upper(v) -> bool:
    """The m-sequence test, reduced to the maximal binding m.

    For each position j > 1 with v_j >= 1, let m* be the largest m >= j
    with C(m, j) <= v_j; the condition v_{j-1} >= C(m*-1, j-1) is then
    equivalent to the universally quantified definition because C(m, j)
    is strictly increasing in m for m >= j.  Positions with v_j = 0 are
    vacuous (no m has C(m, j) <= 0).
    """
    if min(entries := _entries(v)) < 0:
        return False
    for j in range(2, len(entries)):
        nj = entries[j]
        if nj == 0:
            continue
        m, c = _top(nj, j)
        if entries[j - 1] < c * j // m:  # C(m-1, j-1)
            return False
    return True


def _first_violation(v):
    """() if an entry of v is negative, else the first k > 1 with del^k(v_k)
    > v_{k-1} as (k, del^k(v_k)); None when v is an M-sequence."""
    if min(entries := _entries(v)) < 0:
        return ()
    for k in range(2, len(entries)):
        if (cut := del_k(entries[k], k)) > entries[k - 1]:
            return k, cut
    return None


def is_M_sequence(v) -> bool:
    """True iff the sequence is nonnegative and del^k(v_k) <= v_{k-1} for k > 1."""
    return _first_violation(v) is None
