import random
from itertools import product

import pytest

from fvectors.exact import binomial, binom_det

from oracles import bareiss_det, cofactor_det, pascal_table


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(11, 1) == 11
    assert binomial(0, 0) == 1


def test_binomial_vanishing_convention():
    assert binomial(3, 7) == 0
    assert binomial(4, -1) == 0
    assert binomial(-2, 0) == 0
    assert binomial(-1, 3) == 0


def test_binomial_symmetry_exhaustive():
    for n in range(61):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


def test_binomial_pascal_recurrence():
    for n in range(1, 61):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_binomial_large_exact():
    # C(200, 100) must be exact; spot-check via Pascal on the value itself
    assert binomial(200, 100) == binomial(199, 100) + binomial(199, 99)
    assert binomial(200, 100) % 2 == 0


def test_binom_det_examples():
    assert binom_det(1, 2, 0, 1) == 1
    assert binom_det(2, 3, 1, 2) == 3


def test_binom_det_equal_rows_vanish():
    for p in range(8):
        for t in range(8):
            for u in range(8):
                assert binom_det(p, p, t, u) == 0


def test_binom_det_matches_matrix_determinant():
    for p in range(13):
        for q in range(13):
            for t in range(13):
                for u in range(13):
                    m = [
                        [binomial(p, t), binomial(p, u)],
                        [binomial(q, t), binomial(q, u)],
                    ]
                    assert binom_det(p, q, t, u) == bareiss_det(m)


def test_binomial_and_binom_det_vanish_as_the_pascal_table():
    # binom_det inlines binomial's guards, so each is held to the oracle
    # on every sign and order of its arguments
    span = range(-3, 15)
    c = pascal_table(14).get
    for n, k in product(span, repeat=2):
        assert binomial(n, k) == c((n, k), 0), (n, k)
    for p, q, t, u in product(span, repeat=4):
        expected = c((p, t), 0) * c((q, u), 0) - c((p, u), 0) * c((q, t), 0)
        assert binom_det(p, q, t, u) == expected, (p, q, t, u)


def test_det_examples():
    assert bareiss_det([[1]]) == 1
    assert bareiss_det([[2, 1], [3, 3]]) == 3
    assert bareiss_det([[11, 55], [1, 10]]) == 55


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        bareiss_det([])


def test_det_singular_and_permutation():
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[0, 1], [1, 0]]) == -1


def test_det_against_cofactor_expansion():
    rng = random.Random(20240817)
    for n in range(1, 7):
        for _ in range(40):
            m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(m) == cofactor_det(m)
