import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fvectors.exact import binomial
from fvectors.macaulay import (
    macaulay_expand, del_k,
    is_m_sequence_upper, is_M_sequence, is_nonnegative,
)
from fvectors.macaulay import _top

from deadline import timed
from oracles import macaulay_expansions_by_search, macaulay_terms_by_scan


def test_expansion_examples():
    assert macaulay_expand(5, 2).terms == ((3, 2), (2, 1))
    assert macaulay_expand(5, 3).terms == ((4, 3), (2, 2))
    for k in range(1, 9):
        assert macaulay_expand(1, k).terms == ((k, k),)


def test_expansion_rejects_bad_input():
    with pytest.raises(ValueError):
        macaulay_expand(0, 2)
    with pytest.raises(ValueError):
        macaulay_expand(-3, 2)
    with pytest.raises(ValueError):
        macaulay_expand(5, 0)


def test_expansion_reconstructs_n():
    for k in range(1, 9):
        for n in range(1, 5001):
            exp = macaulay_expand(n, k)
            assert exp.value() == n


def test_expansion_shape():
    for k in range(1, 7):
        for n in range(1, 400):
            terms = macaulay_expand(n, k).terms
            js = [j for _, j in terms]
            assert js == list(range(k, k - len(terms), -1))
            avals = [a for a, _ in terms]
            assert all(x > y for x, y in zip(avals, avals[1:]))
            assert all(a >= j >= 1 for a, j in terms)


def test_expansion_uniqueness_by_exhaustive_search():
    for k in range(1, 6):
        for n in range(1, 301):
            found = macaulay_expansions_by_search(n, k)
            assert len(found) == 1
            assert found[0] == macaulay_expand(n, k).terms


def test_del_examples():
    assert del_k(5, 2) == 3
    assert del_k(5, 3) == 4
    for k in range(1, 9):
        assert del_k(0, k) == 0
    with pytest.raises(ValueError):
        del_k(-1, 2)
    # k is checked before the n == 0 shortcut, as it is for n >= 1
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"del_k needs k >= 1, got {k}"):
            del_k(0, k)


def test_del_of_binomial():
    # single-term expansions: del^k(C(m, k)) = C(m-1, k-1)
    for k in range(1, 21):
        for m in range(k, 21):
            assert del_k(binomial(m, k), k) == binomial(m - 1, k - 1)


def test_m_sequence_examples():
    assert is_m_sequence_upper((1, 2, 3))
    assert is_m_sequence_upper((1, 2, 3, 5))
    assert not is_m_sequence_upper((1, 0, 1))


def test_M_sequence_examples():
    assert is_M_sequence((1, 3, 4, 5))
    assert not is_M_sequence((1, 1, 2))
    assert not is_M_sequence((1, 2, 3, 5))


def test_strict_inclusion_witness():
    # (1,2,3,5) separates the two notions
    assert is_m_sequence_upper((1, 2, 3, 5))
    assert not is_M_sequence((1, 2, 3, 5))


def test_nonnegative():
    assert is_nonnegative((1, 0, 0))
    assert is_nonnegative((1, 2, 3))
    assert not is_nonnegative((1, 5, -1))


def test_predicates_reject_non_integer_entries():
    # int() used to truncate -0.5 to 0, so the sequence passed as nonnegative
    with pytest.raises(ValueError, match="vector entries must be integers, got -0.5"):
        is_nonnegative([1, -0.5])
    with pytest.raises(ValueError, match="got True"):
        is_m_sequence_upper((1, True, 0))
    with pytest.raises(ValueError, match="got 2.0"):
        is_M_sequence((1, 2.0))


def test_first_entry_rejected():
    with pytest.raises(ValueError):
        is_m_sequence_upper((2, 1))
    with pytest.raises(ValueError):
        is_M_sequence((0, 1))


def test_negative_entries_fail():
    assert not is_m_sequence_upper((1, -1, 0))
    assert not is_M_sequence((1, 2, -3))


def _is_m_sequence_literal(entries, m_cap=80):
    # the universally quantified definition, checked for every m up to a
    # bound past which C(m, j) exceeds the entry
    if any(x < 0 for x in entries):
        return False
    for j in range(2, len(entries)):
        for m in range(j, m_cap):
            if entries[j] >= binomial(m, j) and entries[j - 1] < binomial(m - 1, j - 1):
                return False
    return True


def test_m_sequence_agrees_with_literal_definition():
    from itertools import product

    for length in (3, 4):
        for tail in product(range(9), repeat=length - 1):
            v = (1,) + tail
            assert is_m_sequence_upper(v) == _is_m_sequence_literal(v)


def test_M_implies_m_random():
    rng = random.Random(4242)
    checked = 0
    for _ in range(4000):
        length = rng.randint(2, 8)
        v = (1,) + tuple(rng.randint(0, 50) for _ in range(length - 1))
        if is_M_sequence(v):
            checked += 1
            assert is_m_sequence_upper(v)
    assert checked > 50  # the implication must actually get exercised


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=7))
def test_M_implies_m_property(tail):
    v = (1, *tail)
    if is_M_sequence(v):
        assert is_m_sequence_upper(v)


def test_positive_prefix_consequence():
    # in an m-sequence, a positive entry forces all earlier entries positive
    from itertools import product

    for length in (3, 4):
        for tail in product(range(7), repeat=length - 1):
            v = (1,) + tail
            if is_m_sequence_upper(v):
                seen_zero = False
                for x in v:
                    if x == 0:
                        seen_zero = True
                    elif seen_zero:
                        pytest.fail(f"positive entry after zero in {v}")


def test_predicates_accept_gvectors():
    from fvectors.transforms import GVector

    g = GVector(6, (1, 2, 3, 5))
    assert is_m_sequence_upper(g)
    assert not is_M_sequence(g)
    assert is_nonnegative(g)


def test_search_matches_linear_scan_oracle():
    for k in range(1, 7):
        # at k = 1 the expansion is ((n, 1),) and its scan takes n steps
        for n in range(1, 1001 if k == 1 else 5001):
            terms = macaulay_terms_by_scan(n, k)
            assert macaulay_expand(n, k).terms == terms
            assert del_k(n, k) == sum(math.comb(a - 1, j - 1) for a, j in terms)


def test_m_sequence_threshold_matches_linear_scan_oracle():
    # the scan's top term is the largest m with C(m, j) <= v_j, so in
    # (1, c, ..., c, c + e, v_j) position j binds exactly at
    # c = C(m - 1, j - 1); the constant prefix passes every earlier position
    for j in range(2, 7):
        for nj in range(1, 5001):
            m = macaulay_terms_by_scan(nj, j)[0][0]
            c = math.comb(m - 1, j - 1)
            v = (1,) + (c,) * (j - 1) + (nj,)
            assert is_m_sequence_upper(v)
            assert not is_m_sequence_upper(v[:-2] + (c - 1, nj))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 20])
def test_huge_inputs(k):
    n = 10**100
    terms = timed(macaulay_expand, n, k).terms
    assert sum(binomial(a, j) for a, j in terms) == n
    assert all(a > b for (a, _), (b, _) in zip(terms, terms[1:]))
    assert all(a >= j >= 1 for a, j in terms)
    assert [j for _, j in terms] == list(range(k, k - len(terms), -1))
    assert timed(del_k, n, k) == sum(binomial(a - 1, j - 1) for a, j in terms)
    m = 10**30
    assert timed(del_k, binomial(m, k), k) == binomial(m - 1, k - 1)
    # the binding m at a 10^100 entry: C(m, k) <= 10^100 < C(m + 1, k)
    if k >= 2:
        top = terms[0][0]
        c = binomial(top - 1, k - 1)
        v = (1,) + (c,) * (k - 1) + (n,)
        assert timed(is_m_sequence_upper, v)
        assert not is_m_sequence_upper(v[:-2] + (c - 1, n))


def test_top_on_both_sides_of_its_guard():
    # the root start is taken when n has more than 2j bits; 2^(2j) is the
    # first such n, and C(a, j) for a near 2j sits below it
    rng = random.Random(909)
    for j in range(1, 41):
        ns = [rng.randint(1, 10 ** rng.randint(1, 150)) for _ in range(40)]
        ns += [2 ** (2 * j) - 1, 2 ** (2 * j), 2 ** (2 * j) + 1]
        for a in range(max(j, 2 * j - 3), 2 * j + 4):
            ns += [math.comb(a, j), math.comb(a, j) - 1]
        for n in ns:
            if n >= 1:
                a, c = _top(n, j)
                assert a >= j and c == math.comb(a, j)
                assert c <= n < math.comb(a + 1, j), (n, j)


def test_top_matches_linear_scan_oracle():
    # 4^j, where the root start is first taken, lies inside 1..3000 for
    # j = 2..5; j = 6..8 walk up from j throughout
    for j in range(2, 9):
        for n in range(1, 3001):
            a = macaulay_terms_by_scan(n, j)[0][0]
            assert _top(n, j) == (a, math.comb(a, j)), (n, j)


def test_top_calls_math_comb_once(monkeypatch):
    rng = random.Random(1813)
    cases = [(n, j) for j in range(2, 41)
             for n in (1, 2 ** (2 * j) - 1, 2 ** (2 * j), 2 ** (2 * j) + 1,
                       rng.randint(1, 10 ** rng.randint(1, 300)))]
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda a, j: calls.append(a) or comb(a, j))
    for n, j in cases:
        calls.clear()
        a, c = _top(n, j)
        assert len(calls) == 1, (n, j)
        assert c == comb(a, j) <= n < comb(a + 1, j)


def test_expand_at_four_to_the_thousand_is_fast():
    # 4^1000 - 1 has 2j bits at j = 1000, so every top walks up from j
    n = 4**1000 - 1
    terms = timed(macaulay_expand, n, 1000, seconds=3.0).terms
    assert sum(math.comb(a, j) for a, j in terms) == n
    assert all(a > b for (a, _), (b, _) in zip(terms, terms[1:]))


def test_del_matches_linear_scan_oracle_for_large_k():
    # k >= n here, where the expansion ends in a run of unit terms (i, i)
    for k in range(1, 61):
        for n in range(1, 61):
            terms = macaulay_terms_by_scan(n, k)
            assert macaulay_expand(n, k).terms == terms
            assert del_k(n, k) == sum(math.comb(a - 1, j - 1) for a, j in terms)


@pytest.mark.parametrize("n, k", [
    (10**12, 10**12),  # 10^12 unit terms (i, i), each adding 1
    (10**12, 10**12 + 5),
    (10**30, 5000),  # thousands of terms, nearly all outside the root guard
    (10**200, 1000),
], ids=["1e12-k1e12", "1e12-k1e12+5", "1e30-k5000", "1e200-k1000"])
def test_del_with_large_k(n, k):
    out = timed(del_k, n, k)
    if n <= k:
        assert out == n
    else:
        terms = macaulay_terms_by_scan(n, k)
        assert out == sum(math.comb(a - 1, j - 1) for a, j in terms)
