import random

import pytest
from hypothesis import given, settings, strategies as st

from fvectors.exact import binomial
from fvectors.families import (
    CS_STACKED, CYCLIC, STACKED, FamilySpec, f_of_family, first_n, g_of_family,
)
from fvectors.transforms import (
    FVector, HVector, GVector,
    build_md, md_entry, delta,
    f_to_h, h_to_f, h_to_g, g_to_f, f_to_g, f_from_g,
    is_dehn_sommerville,
)

from oracles import f_by_md_product, h_side_coefficients, f_side_coefficients

M10_EXPECTED = (
    (11, 55, 165, 330, 462, 462, 330, 165, 55, 11),
    (1, 10, 45, 120, 210, 252, 210, 120, 45, 9),
    (0, 1, 9, 36, 84, 126, 126, 84, 35, 7),
    (0, 0, 1, 8, 28, 56, 70, 55, 25, 5),
    (0, 0, 0, 1, 7, 21, 34, 31, 15, 3),
    (0, 0, 0, 0, 1, 5, 10, 10, 5, 1),
)


def test_build_md_10_entry_for_entry():
    assert build_md(10) == M10_EXPECTED


def test_build_md_small_dimensions():
    assert build_md(4) == ((5, 10, 10, 5), (1, 4, 6, 3), (0, 1, 2, 1))
    assert build_md(3) == ((4, 6, 4), (1, 3, 2))


def test_build_md_rejects_small_d():
    for d in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            build_md(d)


def test_md_row0_is_simplex_fvector():
    for d in range(3, 31):
        assert build_md(d)[0] == tuple(binomial(d + 1, j + 1) for j in range(d))


def test_md_last_column():
    for d in range(3, 31):
        md = build_md(d)
        for i in range(delta(d) + 1):
            assert md[i][d - 1] == d + 1 - 2 * i


def test_md_entries_nonnegative():
    for d in range(3, 31):
        for row in build_md(d):
            assert all(x >= 0 for x in row)


def test_md_entry_matches_matrix():
    for d in (3, 7, 12):
        md = build_md(d)
        for i in range(delta(d) + 1):
            for j in range(d):
                assert md_entry(d, i, j) == md[i][j]
    # no entry outside the matrix, nor of a matrix below the least dimension
    for i, j in ((5, 0), (3, 0), (-1, 0), (0, 4), (0, -1)):
        message = f"need 0 <= i <= delta and 0 <= j <= d-1, got i={i}, j={j}"
        with pytest.raises(ValueError, match=message):
            md_entry(4, i, j)
    with pytest.raises(ValueError, match="dimension d must be >= 3, got 2"):
        md_entry(2, 0, 0)


def test_f_to_h_examples():
    assert f_to_h(FVector(3, (6, 12, 8))).entries == (1, 3, 3, 1)
    assert f_to_h(FVector(4, (5, 10, 10, 5))).entries == (1, 1, 1, 1, 1)
    assert f_to_h(FVector(4, (7, 21, 28, 14))).entries == (1, 3, 6, 3, 1)


def test_h_to_f_examples():
    assert h_to_f(HVector(3, (1, 3, 3, 1))).entries == (6, 12, 8)
    assert h_to_f(HVector(4, (1, 1, 1, 1, 1))).entries == (5, 10, 10, 5)


def test_h_to_g_examples():
    assert h_to_g(HVector(3, (1, 3, 3, 1))).entries == (1, 2)
    assert h_to_g(HVector(4, (1, 1, 1, 1, 1))).entries == (1, 0, 0)
    assert h_to_g(HVector(4, (1, 3, 6, 3, 1))).entries == (1, 2, 3)


def test_g_to_f_examples():
    assert g_to_f(GVector(3, (1, 2))).entries == (6, 12, 8)
    assert g_to_f(GVector(4, (1, 0, 0))).entries == (5, 10, 10, 5)
    assert g_to_f(GVector(4, (1, 2, 3))).entries == (7, 21, 28, 14)


def test_f_to_g_examples():
    assert f_to_g(FVector(3, (6, 12, 8))).entries == (1, 2)
    assert f_to_g(FVector(4, (5, 10, 10, 5))).entries == (1, 0, 0)
    assert f_to_g(FVector(4, (7, 21, 28, 14))).entries == (1, 2, 3)


def test_transform_satisfies_polynomial_identity():
    # f_to_h must produce the unique h with
    # sum f_{i-1} x^{d-i} == sum h_i (x+1)^{d-i}, checked by expanding
    # both sides into coefficient arrays independently.
    rng = random.Random(7)
    for d in range(3, 13):
        for _ in range(25):
            f = [rng.randint(0, 10**6) for _ in range(d)]
            h = f_to_h(FVector(d, f))
            assert f_side_coefficients(d, f) == h_side_coefficients(d, h.entries)


def _entries_with_zeros(rng, count, top):
    """count entries in [0, top], about a third of them zero."""
    return [rng.choice((0, rng.randint(1, top), rng.randint(1, top)))
            for _ in range(count)]


def test_h_to_f_satisfies_polynomial_identity():
    # the converse direction: h_to_f must give the f with
    # sum f_{i-1} x^{d-i} == sum h_i (x+1)^{d-i}, by the same oracle, so a
    # pair of wrong but mutually inverse maps cannot pass
    rng = random.Random(15)
    for d in range(3, 31):
        for _ in range(20):
            h = (1, *_entries_with_zeros(rng, d, 10**30))
            f = h_to_f(HVector(d, h)).entries
            assert f_side_coefficients(d, f) == h_side_coefficients(d, h)


def test_roundtrip_f_h_f_large_entries_and_zeros():
    rng = random.Random(30)
    for d in range(3, 31):
        for f in ([0] * d, [10**30] * d,
                  *(_entries_with_zeros(rng, d, 10**30) for _ in range(20))):
            assert h_to_f(f_to_h(FVector(d, f))).entries == tuple(f)


def test_roundtrip_h_f_h_random():
    rng = random.Random(99)
    for d in range(3, 13):
        for _ in range(200):
            h = HVector(d, (1,) + tuple(rng.randint(0, 10**6) for _ in range(d)))
            assert f_to_h(h_to_f(h)) == h


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_roundtrip_h_f_h_property(data):
    d = data.draw(st.integers(min_value=3, max_value=12))
    tail = data.draw(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=d, max_size=d)
    )
    h = HVector(d, (1, *tail))
    assert f_to_h(h_to_f(h)) == h


def test_palindromic_h_agrees_with_g_route():
    # When h is palindromic (Dehn-Sommerville), h -> g -> f must agree with
    # the direct h -> f transform; exhaustive over small palindromes.
    from itertools import product

    for d in range(3, 9):
        dl = delta(d)
        for half in product(range(4), repeat=dl):
            prefix = (1,) + half  # h_0 .. h_delta
            full = tuple(prefix[min(i, d - i)] for i in range(d + 1))
            h = HVector(d, full)
            assert is_dehn_sommerville(h)
            assert g_to_f(h_to_g(h)) == h_to_f(h)


def test_dehn_sommerville():
    assert is_dehn_sommerville(HVector(3, (1, 3, 3, 1)))
    assert is_dehn_sommerville(HVector(4, (1, 3, 6, 3, 1)))
    assert not is_dehn_sommerville(HVector(3, (1, 2, 3, 1)))
    # symmetric ends, asymmetric middle
    assert not is_dehn_sommerville(HVector(5, (1, 3, 4, 5, 3, 1)))


def test_f_to_g_truncates_non_palindromic_h():
    # f_to_g stays total even when the h-vector is not palindromic
    f = FVector(4, (6, 13, 13, 6))
    g = f_to_g(f)
    assert g.entries[0] == 1


def test_vector_validation():
    with pytest.raises(ValueError):
        FVector(3, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        FVector(3, (1, -2, 3))  # negative face count
    with pytest.raises(ValueError):
        HVector(3, (2, 3, 3, 2))  # h_0 != 1
    with pytest.raises(ValueError):
        GVector(4, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        GVector(4, (0, 2, 3))  # g_0 != 1
    with pytest.raises(ValueError):
        FVector(2, (1, 2))  # dimension too small


@pytest.mark.parametrize("cls, d, entries, bad", [
    # int() used to truncate the float to f_0 = 7 and read True as 1
    (FVector, 4, (7.9, 21, 28, 14), "7.9"),
    (GVector, 4, (1, True, 0), "True"),
    (HVector, 3, (1, 3, 3.0, 1), "3.0"),
    (GVector, 4, (1, "2", 0), "'2'"),
    # f_from_g multiplied the float, read True as 1 and concatenated strings
    (f_from_g, 4, (1, 2.5, 1), "2.5"),
    (f_from_g, 4, (1, True, 1), "True"),
    (f_from_g, 4, "abc", "'a'"),
])
def test_vector_entries_must_be_integers(cls, d, entries, bad):
    with pytest.raises(ValueError, match=f"vector entries must be integers, got {bad}"):
        cls(d, entries)


def test_integer_entries_kept_exactly():
    big = 10**40 + 1
    assert FVector(3, [big, 2 * big, big]).entries == (big, 2 * big, big)
    assert GVector(4, (1, -5, 0)).entries == (1, -5, 0)


def test_f_from_g_raw():
    assert f_from_g(3, (1, 2)) == (6, 12, 8)
    with pytest.raises(ValueError):
        f_from_g(3, (1, 2, 3))
    # the dimension is checked before the length
    with pytest.raises(ValueError, match="dimension d must be >= 3, got 2"):
        f_from_g(2, (1, 1))


def test_f_from_g_matches_md_product_oracle():
    # g_0 is drawn too, 0 and negative included: the map is linear in g,
    # which a sweep starting from 1 instead of h_0 would break
    rng = random.Random(2106)
    for d in range(3, 61):
        for g0 in (0, 1, -1, -7, rng.randint(-10**6, 10**9)):
            g = (g0,) + tuple(rng.randint(-10**6, 10**9) for _ in range(delta(d)))
            assert f_from_g(d, g) == f_by_md_product(d, g), (d, g)
        unit = (0, 1) + (0,) * (delta(d) - 1)
        assert f_from_g(d, unit) == f_by_md_product(d, unit) == build_md(d)[1]


def _producer_outputs(rng, d):
    """The library-built vectors of each producer at dimension d."""
    f = FVector(d, [rng.randint(0, 10**rng.randint(1, 15)) for _ in range(d)])
    h = HVector(d, [1] + [rng.randint(0, 10**9) for _ in range(d)])
    g = GVector(d, [1] + [rng.randint(0, 10**9) for _ in range(delta(d))])
    yield from (g_to_f(g), h_to_f(h), f_to_h(f), h_to_g(h), f_to_g(f))
    for family in (CYCLIC, STACKED, CS_STACKED):
        spec = FamilySpec(family, first_n(family, d) + rng.randint(0, 10**6), d)
        yield from (g_of_family(spec), f_of_family(spec))


def test_library_built_vectors_pass_their_own_validation():
    # producers build their results unvalidated: every entry must be an int,
    # and the public constructor must accept the result unchanged
    rng = random.Random(2401)
    for d in range(3, 41):
        for _ in range(3):
            for v in _producer_outputs(rng, d):
                assert type(v)(v.d, v.entries) == v, (d, v)
                assert all(type(x) is int for x in v.entries), (d, v)


@pytest.mark.parametrize("produce, arg", [
    (g_to_f, GVector(4, (1, -10, 0))),  # f_0 = 5 - 4*10
    (h_to_f, HVector(3, (1, -5, 0, 0))),  # f_0 = 3 - 5
])
def test_library_built_f_vectors_keep_the_sign_check(produce, arg):
    with pytest.raises(ValueError, match="^f-vector entries must be nonnegative$"):
        produce(arg)
