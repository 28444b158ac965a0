import pytest

from fvectors import families
from fvectors.exact import binomial
from fvectors.families import (
    FamilySpec, CYCLIC, STACKED, CS_STACKED,
    _affine_family, first_n, g_of_family, f_of_family, stanley_cs_floor,
)
from fvectors.transforms import GVector, delta, f_from_g

from deadline import timed
from oracles import cyclic_fvector_gale, f_by_md_product, family_f_r, stacked_fvector_subdivision


def _g(family, n, d):
    return g_of_family(FamilySpec(family, n, d)).entries


def test_g_cyclic_examples():
    assert _g(CYCLIC, 7, 4) == (1, 2, 3)
    assert _g(CYCLIC, 7, 3) == (1, 3)
    for d in range(3, 10):
        assert _g(CYCLIC, d + 1, d) == (1,) + (0,) * delta(d)


def test_g_stacked_examples():
    assert _g(STACKED, 6, 4) == (1, 1, 0)
    assert _g(STACKED, 20, 5) == (1, 14, 0)
    for d in range(3, 10):
        assert _g(STACKED, d + 1, d) == (1,) + (0,) * delta(d)


def test_g_cs_stacked_examples():
    assert _g(CS_STACKED, 3, 3) == (1, 2)
    assert _g(CS_STACKED, 4, 4) == (1, 3, 2)
    assert _g(CS_STACKED, 5, 4) == (1, 5, 2)


def test_stanley_cs_floor_examples():
    assert stanley_cs_floor(4).entries == (1, 3, 2)
    assert stanley_cs_floor(3).entries == (1, 2)
    assert stanley_cs_floor(6).entries == (1, 5, 9, 5)


def test_cs_floor_equals_cross_polytope_g():
    # the entries past g_1 do not depend on n, so every member shares them
    for d in range(3, 61):
        tail = tuple(binomial(d, i) - binomial(d, i - 1) for i in range(2, delta(d) + 1))
        assert stanley_cs_floor(d).entries == (1, d - 1) + tail
        assert stanley_cs_floor(d) == g_of_family(FamilySpec(CS_STACKED, d, d))
        for n in (d + 5, 10**20):
            assert _g(CS_STACKED, n, d) == (1, 2 * n - d - 1) + tail


def test_parameter_floors_rejected():
    # a below-floor member is refused when its spec is built
    for args, message in (
        ((CYCLIC, 4, 4), "cyclic polytope needs n >= d+1, got n=4, d=4"),
        ((STACKED, 5, 5), "stacked polytope needs n >= d+1, got n=5, d=5"),
        ((CS_STACKED, 3, 4), "cs-stacked polytope needs n >= d, got n=3, d=4"),
        (("prism", 8, 4), "unknown family 'prism'"),
    ):
        with pytest.raises(ValueError) as err:
            FamilySpec(*args)
        assert str(err.value) == message


def test_f_r_grows_by_one_constant_step():
    # the bound search reads n1 and the cs-stacked n as floor divisions
    # off the first two members, which needs f_r affine and increasing in n;
    # f_of_family is affine by construction, so f comes from g * M_d
    for d in range(3, 13):
        for family in (STACKED, CS_STACKED):
            first = first_n(family, d)
            f = [f_from_g(d, _g(family, n, d)) for n in range(first, first + 21)]
            for r in range(d - 1):
                steps = {b[r] - a[r] for a, b in zip(f, f[1:])}
                assert len(steps) == 1 and steps.pop() > 0


def test_cross_polytope_fvector():
    # CS(2d, d) is the cross-polytope: f_j = 2^(j+1) * C(d, j+1)
    for d in range(3, 13):
        f = f_of_family(FamilySpec(CS_STACKED, d, d))
        assert f.entries == tuple(
            2 ** (j + 1) * binomial(d, j + 1) for j in range(d)
        )
        assert tuple(family_f_r("cs_stacked", d, d, j) for j in range(d)) == f.entries
        # CS(2n+2, d) stacks two antipodal facets of CS(2n, d): twice the
        # face-count increments of one stacking
        one = [a - b for a, b in zip(stacked_fvector_subdivision(d + 2, d),
                                     stacked_fvector_subdivision(d + 1, d))]
        for n in range(d, d + 10):
            for j in range(d):
                step = family_f_r("cs_stacked", n + 1, d, j) - family_f_r("cs_stacked", n, d, j)
                assert step == 2 * one[j]


def test_octahedron():
    assert f_of_family(FamilySpec(CS_STACKED, 3, 3)).entries == (6, 12, 8)


def test_f_of_family_examples():
    assert f_of_family(FamilySpec(CYCLIC, 7, 4)).entries == (7, 21, 28, 14)
    assert f_of_family(FamilySpec(STACKED, 6, 4)).entries == (6, 14, 16, 8)
    # g = (1,5,2) so h = (1,6,8,6,1) and f = (10,32,44,22); checked against
    # the cross-polytope value (8,24,32,16) plus one doubled stacking step,
    # which adds 2*(1,4,6,3)
    assert f_of_family(FamilySpec(CS_STACKED, 5, 4)).entries == (10, 32, 44, 22)
    assert f_of_family(FamilySpec(CS_STACKED, 4, 4)).entries == (8, 24, 32, 16)


def test_vertex_counts():
    for d in range(3, 13):
        for n in range(d + 1, 31):
            assert f_of_family(FamilySpec(CYCLIC, n, d))[0] == n
            assert f_of_family(FamilySpec(STACKED, n, d))[0] == n
        for n in range(d, 31):
            assert f_of_family(FamilySpec(CS_STACKED, n, d))[0] == 2 * n


def test_strict_monotonicity_in_n():
    # underwrites the monotone bound search in the comparison engine
    for d in range(3, 13):
        for family, floor in ((CYCLIC, d + 1), (STACKED, d + 1), (CS_STACKED, d)):
            prev = f_of_family(FamilySpec(family, floor, d))
            for n in range(floor + 1, 51):
                cur = f_of_family(FamilySpec(family, n, d))
                assert all(a < b for a, b in zip(prev.entries, cur.entries))
                prev = cur


def test_cyclic_against_gale_evenness_oracle():
    for d in range(3, 7):
        for n in range(d + 1, 11):
            gale = cyclic_fvector_gale(n, d)
            assert f_of_family(FamilySpec(CYCLIC, n, d)).entries == gale
            assert tuple(family_f_r("cyclic", n, d, r) for r in range(d)) == gale


def test_stacked_against_subdivision_oracle():
    for d in range(3, 9):
        for n in range(d + 1, 20):
            sub = stacked_fvector_subdivision(n, d)
            assert f_of_family(FamilySpec(STACKED, n, d)).entries == sub
            assert tuple(family_f_r("stacked", n, d, r) for r in range(d)) == sub


def test_stacked_facet_count_closed_form():
    for d in range(3, 12):
        for n in range(d + 1, 30):
            assert f_of_family(FamilySpec(STACKED, n, d))[d - 1] == (n - d) * (d - 1) + 2


def test_g_of_family_dispatch():
    assert g_of_family(FamilySpec(CYCLIC, 7, 4)) == GVector(4, (1, 2, 3))
    assert g_of_family(FamilySpec(STACKED, 6, 4)) == GVector(4, (1, 1, 0))
    assert g_of_family(FamilySpec(CS_STACKED, 5, 4)) == GVector(4, (1, 5, 2))


def test_affine_family_matches_the_md_product():
    # base is the first member's g times M_d, step the unit change of g_1
    # (2 per n for cs-stacked) times M_d
    for d in range(3, 61):
        for family, unit in ((STACKED, 1), (CS_STACKED, 2)):
            first = first_n(family, d)
            step = (0, unit) + (0,) * (delta(d) - 1)
            assert _affine_family(family, d) == (
                first, f_by_md_product(d, _g(family, first, d)), f_by_md_product(d, step))


@pytest.mark.parametrize("d", [200, 400])
def test_affine_family_at_large_d(d):
    for family in (STACKED, CS_STACKED):
        first, base, step = _affine_family(family, d)
        for n in (first, first + 1, first + 37, 10**20):
            for r in (0, 1, 3, d // 2, d - 2, d - 1):
                assert base[r] + (n - first) * step[r] == family_f_r(family, n, d, r)


def test_affine_f_of_family_equals_g_times_md():
    for d in range(3, 21):
        for family in (STACKED, CS_STACKED):
            first = first_n(family, d)
            for n in (*range(first, first + 31), 10**30):
                spec = FamilySpec(family, n, d)
                assert f_of_family(spec).entries == f_from_g(d, g_of_family(spec).entries)


@pytest.mark.parametrize("family", [STACKED, CS_STACKED])
def test_cold_affine_family_at_d_3200(family):
    _affine_family.cache_clear()
    first, base, step = timed(_affine_family, family, 3200, seconds=0.1)
    assert first == first_n(family, 3200) and len(base) == len(step) == 3200


def test_affine_f_of_family_runs_no_passes(monkeypatch):
    calls = []
    real = families._f_tail
    monkeypatch.setattr(families, "_f_tail", lambda *args: calls.append(args) or real(*args))
    for d in range(3, 13):
        for family in (STACKED, CS_STACKED):
            f_of_family(FamilySpec(family, first_n(family, d) + 5, d))
    assert calls == []
    f_of_family(FamilySpec(CYCLIC, 9, 4))
    assert len(calls) == 1
