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

from dataclasses import dataclass

from .exact import binomial, int_entries, largest_true


@dataclass(frozen=True)
class MacaulayExpansion:
    """terms is a tuple of (a_j, j) pairs with j descending from k."""

    n: int
    k: int
    terms: tuple

    def value(self) -> int:
        return sum(binomial(a, j) for a, j in self.terms)


def macaulay_expand(n: int, k: int) -> MacaulayExpansion:
    """Unique greedy expansion: largest a_k with C(a_k, k) <= n, then recurse.

    Each a_j is found by `largest_true`, which C(a, j) being strictly
    increasing in a >= j permits, so the cost grows with k log(n).
    """
    int_entries((n, k), "parameters")
    if n <= 0:
        raise ValueError(f"macaulay_expand needs n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"macaulay_expand needs k >= 1, got {k}")
    terms = []
    rem = n
    j = k
    while rem > 0:
        a = largest_true(lambda a: binomial(a, j) <= rem, j)
        terms.append((a, j))
        rem -= binomial(a, j)
        j -= 1
    return MacaulayExpansion(n, k, tuple(terms))


def del_k(n: int, k: int) -> int:
    """del^k(n): shift every expansion term down by one in both arguments."""
    int_entries((n, k), "parameters")
    if n < 0:
        raise ValueError(f"del_k needs n >= 0, got {n}")
    if n == 0:
        return 0
    exp = macaulay_expand(n, k)
    return sum(binomial(a - 1, j - 1) for a, j in exp.terms)


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
    entries = _entries(v)
    if any(x < 0 for x in entries):
        return False
    for j in range(2, len(entries)):
        nj = entries[j]
        if nj == 0:
            continue
        m = largest_true(lambda m: binomial(m, j) <= nj, j)
        if entries[j - 1] < binomial(m - 1, j - 1):
            return False
    return True


def is_M_sequence(v) -> bool:
    """True iff the sequence is nonnegative and del^k(v_k) <= v_{k-1} for k > 1."""
    entries = _entries(v)
    if any(x < 0 for x in entries):
        return False
    for k in range(2, len(entries)):
        if del_k(entries[k], k) > entries[k - 1]:
            return False
    return True
