import math
import random
from itertools import product

import pytest

from fvectors.comparison import (
    CrossingWitness, NoCrossingError, BelowFloorError,
    find_crossing, compare, ratio_chain, verify_ratio_chain,
    sandwich_simplicial, lower_bound_cs,
)
from fvectors import comparison, families, transforms
from fvectors.minors import phi_minor
from fvectors.families import (
    FamilySpec, CYCLIC, STACKED, CS_STACKED, f_of_family, g_of_family, stanley_cs_floor,
)
from fvectors.transforms import GVector, build_md, delta, f_from_g, g_to_f

from deadline import timed
from oracles import (
    crossing_index_by_scan, cyclic_fvector_gale, family_f_r,
    largest_n_below_by_scan, sandwich_params_by_scan,
)


def random_crossing_pair(rng, d):
    """A (g_delta, g_gamma) pair with a crossing sign pattern."""
    dl = delta(d)
    gamma = (1,) + tuple(rng.randint(0, 10**4) for _ in range(dl))
    t = rng.randint(0, dl)
    diffs = [0]
    for i in range(1, dl + 1):
        if i <= t:
            diffs.append(rng.randint(0, 10**4))
        else:
            diffs.append(-rng.randint(0, gamma[i]))
    delta_g = tuple(a + b for a, b in zip(gamma, diffs))
    return GVector(d, delta_g), GVector(d, gamma)


def test_find_crossing_examples():
    w = find_crossing(GVector(3, (1, 2)), GVector(3, (1, 3)))
    assert w == CrossingWitness(0, (0, -1))
    w = find_crossing(GVector(4, (1, 5, 0)), GVector(4, (1, 2, 3)))
    assert w == CrossingWitness(1, (0, 3, -3))
    assert find_crossing(GVector(7, (1, 2, 0, 3)), GVector(7, (1, 1, 1, 1))) is None


def _crossing_t(gd, gg):
    w = find_crossing(gd, gg)
    return None if w is None else w.t


def test_find_crossing_matches_scan_on_every_sign_pattern():
    # every difference vector in {-1, 0, 1}^delta, crossing or not
    seen_none = 0
    for d in range(3, 13):
        gamma = (1,) * (delta(d) + 1)
        for signs in product((-1, 0, 1), repeat=delta(d)):
            diffs = (0,) + signs
            gd = GVector(d, tuple(a + b for a, b in zip(gamma, diffs)))
            expected = crossing_index_by_scan(diffs)
            assert _crossing_t(gd, GVector(d, gamma)) == expected
            seen_none += expected is None
    assert seen_none > 0


def test_find_crossing_matches_scan_on_random_pairs():
    rng = random.Random(4242)
    for _ in range(1000):
        gd, gg = random_crossing_pair(rng, rng.randint(3, 12))
        diffs = tuple(a - b for a, b in zip(gd.entries, gg.entries))
        assert _crossing_t(gd, gg) == crossing_index_by_scan(diffs)


def test_find_crossing_identical():
    g = GVector(4, (1, 4, 2))
    w = find_crossing(g, g)
    assert w.t == 0
    assert w.diffs == (0, 0, 0)


def test_find_crossing_dimension_mismatch():
    with pytest.raises(ValueError):
        find_crossing(GVector(3, (1, 2)), GVector(4, (1, 2, 3)))


def test_compare_example_d3():
    report = compare(GVector(3, (1, 2)), GVector(3, (1, 3)), 0)
    assert report.premise_holds  # 6 <= 7
    assert report.conclusions[1].lhs == 12 and report.conclusions[1].rhs == 15
    assert report.conclusions[2].lhs == 8 and report.conclusions[2].rhs == 10
    assert all(c.bound_holds for c in report.conclusions.values())


def test_compare_identical_gives_equalities():
    g = GVector(4, (1, 3, 2))
    report = compare(g, g, 0)
    assert report.premise_holds
    for c in report.conclusions.values():
        assert c.bound_holds and c.lhs == c.rhs


def test_compare_premise_fails():
    # f(C(7,4)) = (7,...) vs f(S(6,4)) = (6,...): premise 7 <= 6 fails
    report = compare(GVector(4, (1, 2, 3)), GVector(4, (1, 1, 0)), 0)
    assert not report.premise_holds
    assert report.conclusions == {}


def test_compare_requires_crossing():
    with pytest.raises(NoCrossingError):
        compare(GVector(7, (1, 2, 0, 3)), GVector(7, (1, 1, 1, 1)), 0)


def test_compare_r_out_of_range():
    g = GVector(4, (1, 0, 0))
    with pytest.raises(ValueError):
        compare(g, g, 3)
    with pytest.raises(ValueError):
        compare(g, g, -1)


def test_comparison_propagation_randomized():
    rng = random.Random(1234)
    for d in range(3, 13):
        for _ in range(300):
            gd, gg = random_crossing_pair(rng, d)
            fd = f_from_g(d, gd.entries)
            fg = f_from_g(d, gg.entries)
            w = find_crossing(gd, gg)
            for r in range(d - 1):
                if fd[r] <= fg[r]:
                    report = compare(gd, gg, r)
                    assert report.premise_holds
                    if w.t <= r + 1:
                        assert report.guaranteed
                        assert all(fd[s] <= fg[s] for s in range(r + 1, d))
                    else:
                        # degenerate corner: premise only via equality,
                        # conclusions reported but not certified
                        assert fd[r] == fg[r]
                        assert not report.guaranteed
                    break


def test_compare_degenerate_equality_corner():
    # smallest instance where the propagation fails: equal vertex counts,
    # crossing index t = 2 > r + 1 = 1, all higher face counts strictly larger
    report = compare(GVector(4, (1, 1, 1)), GVector(4, (1, 1, 0)), 0)
    assert report.premise_holds  # f_0: 6 <= 6
    assert not report.guaranteed
    assert report.witness.t == 2
    assert [report.conclusions[s].bound_holds for s in (1, 2, 3)] == [False] * 3
    assert report.conclusions[1].lhs == 15 and report.conclusions[1].rhs == 14

    # the same pair at r = 1 has a failing premise, not a degenerate one
    report = compare(GVector(4, (1, 1, 1)), GVector(4, (1, 1, 0)), 1)
    assert not report.premise_holds


def _plant_f(monkeypatch, target, s, value):
    """compare reads f_s = value for the g-vector `target`: a planted
    arithmetic fault behind its guards, in the f-tail from f_{first-1} on."""
    real = comparison._f_tail

    def planted(d, g, first=1):
        f = real(d, g, first)
        if tuple(g) == target:
            f[s - first + 1] = value
        return f

    monkeypatch.setattr(comparison, "_f_tail", planted)


def test_compare_raises_on_a_planted_certified_violation(monkeypatch):
    # S(10, 6) against C(10, 6): t = 0 <= r + 1, f_4 is 66 against 150
    stacked, cyclic = GVector(6, (1, 3, 0, 0)), GVector(6, (1, 3, 6, 10))
    assert compare(stacked, cyclic, 1).guaranteed
    _plant_f(monkeypatch, stacked.entries, 4, 151)
    with pytest.raises(RuntimeError) as info:
        compare(stacked, cyclic, 1)
    assert str(info.value) == "certified comparison violated at d=6, r=1, s=4: 151 > 150"


def test_compare_raises_on_a_planted_strict_premise(monkeypatch):
    # t = 3 = r + 2 zeroes m[3][1], so f_1 is 28 on both sides
    gd, gg = GVector(6, (1, 1, 1, 1)), GVector(6, (1, 1, 1, 0))
    report = compare(gd, gg, 1)
    assert report.premise_holds and not report.guaranteed
    # compare reads the premise off column 1 of M_6: a planted m[3][1] = -1
    # makes f_1(Delta) - f_1(Gamma) = -1, a strict premise behind its guard
    real = comparison._column
    monkeypatch.setattr(comparison, "_column", lambda d, r: real(d, r)[:3] + (-1,))
    with pytest.raises(RuntimeError) as info:
        compare(gd, gg, 1)
    assert str(info.value) == ("strict premise with crossing index t=3 > r+1 at d=6, r=1: "
                               "impossible by the column-vanishing pattern")


def test_compare_runs_the_passes_only_when_its_premise_holds(monkeypatch):
    # the premise is one column of M_d; the f-tails are built only for a
    # report that reads them
    calls = {"_f_tail": [], "_column": []}
    for name in calls:
        real = getattr(comparison, name)
        monkeypatch.setattr(comparison, name,
                            lambda *args, real=real, seen=calls[name]: seen.append(args) or real(*args))
    report = compare(GVector(4, (1, 1, 1)), GVector(4, (1, 1, 0)), 1)
    assert not report.premise_holds
    assert calls == {"_f_tail": [], "_column": [(4, 1)]}
    report = compare(GVector(6, (1, 3, 0, 0)), GVector(6, (1, 3, 6, 10)), 1)
    assert report.premise_holds and report.guaranteed
    assert calls["_column"] == [(4, 1), (6, 1)]
    assert calls["_f_tail"] == [(6, (1, 3, 0, 0), 3), (6, (1, 3, 6, 10), 3)]


def test_strict_premise_forces_small_crossing_index():
    # whenever f_r is strictly smaller, the minimal crossing index is at
    # most r + 1, so strict premises always land in the certified regime
    rng = random.Random(4321)
    seen_strict = 0
    for d in range(3, 13):
        for _ in range(300):
            gd, gg = random_crossing_pair(rng, d)
            fd = f_from_g(d, gd.entries)
            fg = f_from_g(d, gg.entries)
            w = find_crossing(gd, gg)
            for r in range(d - 1):
                if fd[r] < fg[r]:
                    seen_strict += 1
                    assert w.t <= r + 1
                    assert compare(gd, gg, r).guaranteed
                    break
    assert seen_strict > 1000


def test_key_proof_inequality():
    # sum_i v_i m[i][r] * m[t][s] >= m[t][r] * sum_i v_i m[i][s]
    # for every crossing witness, whenever m[t][s] > 0
    rng = random.Random(777)
    for d in range(3, 13):
        md = build_md(d)
        for _ in range(200):
            gd, gg = random_crossing_pair(rng, d)
            w = find_crossing(gd, gg)
            t = w.t
            for r in range(d - 1):
                for s in range(r + 1, d):
                    if md[t][s] <= 0:
                        continue
                    lhs = sum(v * md[i][r] for i, v in enumerate(w.diffs))
                    rhs = sum(v * md[i][s] for i, v in enumerate(w.diffs))
                    assert lhs * md[t][s] >= md[t][r] * rhs


def test_ratio_chain_examples():
    chain = ratio_chain(10, 0, 1)
    assert chain.all_hold
    assert chain.comparisons[0] == 110 - 55

    chain = ratio_chain(4, 2, 3)
    assert chain.all_hold
    # rows 0,1 on columns 2,3 of M_4: 10*3 >= 5*6 with equality
    assert chain.comparisons[0] == 0


def test_ratio_chain_comparisons_are_consecutive_row_minors():
    for d in range(3, 14):
        for r in range(d - 1):
            for s in range(r + 1, d):
                chain = ratio_chain(d, r, s)
                assert chain.comparisons == tuple(
                    phi_minor(d, i, i + 1, r, s) for i in range(delta(d))
                )


def test_ratio_chain_exhaustive():
    for d in range(3, 14):
        for r in range(d - 1):
            for s in range(r + 1, d):
                assert ratio_chain(d, r, s).all_hold


def test_ratio_chain_zero_tail_shape():
    for d in range(3, 31):
        md = build_md(d)
        for r in range(d - 1):
            for s in range(r + 1, d):
                chain = ratio_chain(d, r, s)
                assert chain.tail_ok
                if chain.tail_start is not None:
                    k = chain.tail_start
                    assert all(md[i][s] == 0 for i in range(k, delta(d) + 1))
                    assert all(md[i][r] == 0 for i in range(k - 1, delta(d) + 1))


def test_verify_ratio_chain_reports_planted_failures(monkeypatch):
    real = comparison.ratio_chain
    planted = {(0, 3), (2, 5)}

    def failing(d, r, s):
        chain = real(d, r, s)
        return chain._replace(all_hold=False) if (r, s) in planted else chain

    monkeypatch.setattr(comparison, "ratio_chain", failing)
    report = verify_ratio_chain(6)
    assert report.failures == ((0, 3), (2, 5))
    assert report.pairs == 15


def test_ratio_chain_reports_planted_failure(monkeypatch):
    # m[2][4] of M_6 raised from 9 to 10: rows 1, 2 on columns 4, 5 then
    # give 15*3 - 5*10 = -5, the only negative consecutive-row minor
    md = [list(row) for row in build_md(6)]
    md[2][4] = 10
    planted = tuple(zip(*md))
    monkeypatch.setattr(comparison, "_column", lambda _, r: planted[r])
    chain = ratio_chain(6, 4, 5)
    assert chain.comparisons == (0, -5, 1)
    assert chain.tail_start is None
    assert chain.tail_ok
    assert not chain.all_hold
    assert verify_ratio_chain(6).failures == ((4, 5),)


def _plant_columns(monkeypatch, d, cr, cs):
    """M_d's columns 0 and 1 replaced by cr and cs, the rest kept."""
    planted = (cr, cs) + tuple(zip(*build_md(d)))[2:]
    monkeypatch.setattr(comparison, "_column", lambda _, r: planted[r])


def test_ratio_chain_reports_planted_tail_break(monkeypatch):
    # cs vanishes at row 1 but not at row 3, while every cross-product is 0
    _plant_columns(monkeypatch, 6, (1, 0, 0, 0), (1, 0, 0, 1))
    chain = ratio_chain(6, 0, 1)
    assert chain.comparisons == (0, 0, 0)
    assert chain.tail_start == 1
    assert not chain.tail_ok
    assert not chain.all_hold


def test_ratio_chain_reports_a_planted_negative_entry_above_the_tail(monkeypatch):
    # cs is -1 just above its zero tail, and every cross-product is 0
    _plant_columns(monkeypatch, 6, (0, 0, 0, 0), (1, -1, 0, 0))
    chain = ratio_chain(6, 0, 1)
    assert chain.comparisons == (0, 0, 0)
    assert chain.tail_start == 2
    assert not chain.tail_ok and not chain.all_hold


def test_ratio_chain_reports_planted_negative_last_entry(monkeypatch):
    # no zero in cs and a nonnegative cross-product, but cr ends below 0
    _plant_columns(monkeypatch, 3, (1, -1), (1, 1))
    chain = ratio_chain(3, 0, 1)
    assert chain.comparisons == (2,)
    assert chain.tail_start is None
    assert chain.tail_ok
    assert not chain.all_hold


def test_ratio_chain_rejects_bad_indices():
    with pytest.raises(ValueError):
        ratio_chain(5, 3, 3)
    with pytest.raises(ValueError):
        ratio_chain(5, 4, 2)


def test_sandwich_examples():
    report = sandwich_simplicial(4, 1, 21)
    assert report.guaranteed
    assert report.family_params[1] == 7
    assert report.conclusions[2].rhs == 28
    assert report.conclusions[3].rhs == 14

    report = sandwich_simplicial(4, 0, 6)
    assert report.family_params[0] == 6
    assert report.conclusions[1].lhs == 14
    assert report.conclusions[2].lhs == 16
    assert report.conclusions[3].lhs == 8

    report = sandwich_simplicial(4, 0, 5)
    assert report.family_params == (5, 5)
    assert [report.conclusions[s].lhs for s in (1, 2, 3)] == [10, 10, 5]
    assert [report.conclusions[s].rhs for s in (1, 2, 3)] == [10, 10, 5]


def test_sandwich_reproduces_classical_bounds():
    # at r = 0 with f_0 = n the intervals are exactly the lower/upper
    # bound theorem values
    for d in range(3, 9):
        for n in range(d + 1, 18):
            report = sandwich_simplicial(d, 0, n)
            assert report.family_params == (n, n)
            f_low = f_of_family(FamilySpec(STACKED, n, d))
            f_high = f_of_family(FamilySpec(CYCLIC, n, d))
            for s in range(1, d):
                assert report.conclusions[s].lhs == f_low[s]
                assert report.conclusions[s].rhs == f_high[s]


def test_sandwich_below_floor():
    with pytest.raises(BelowFloorError):
        sandwich_simplicial(4, 0, 4)


def test_lower_bound_cs_examples():
    report = lower_bound_cs(3, 0, 6)
    assert report.family_params == (3,)
    assert report.conclusions[1].lhs == 12
    assert report.conclusions[2].lhs == 8

    # g(CS(10,4)) = (1,5,2), h = (1,6,8,6,1), f = (10,32,44,22)
    report = lower_bound_cs(4, 0, 10)
    assert report.family_params == (5,)
    assert [report.conclusions[s].lhs for s in (1, 2, 3)] == [32, 44, 22]

    report = lower_bound_cs(4, 0, 9)
    assert report.family_params == (4,)
    assert [report.conclusions[s].lhs for s in (1, 2, 3)] == [24, 32, 16]


def test_lower_bound_cs_witness_certified():
    report = lower_bound_cs(4, 0, 10)
    assert report.guaranteed
    # the cs witness has diffs vanishing beyond index 1, so t <= 1 always
    assert report.witness.t <= 1
    assert report.witness is not None
    assert report.witness.diffs[0] == 0
    assert all(v == 0 for v in report.witness.diffs[2:])


def test_lower_bound_cs_below_floor():
    with pytest.raises(BelowFloorError):
        lower_bound_cs(3, 0, 5)


def _boundary_values(family, d, r, n_floor, count=20):
    """f_r of the first `count` family members and their neighbours."""
    out = set()
    for n in range(n_floor, n_floor + count):
        x = family_f_r(family, n, d, r)
        out |= {x - 1, x, x + 1}
    return out


def test_bound_searches_match_linear_scan_oracle():
    # d = 3..12 is the range of the bounds_scaling benchmark; every value
    # next to a family member's f_r is an edge of the floor divisions
    for d in range(3, 13):
        for r in range(d - 1):
            # keep the stacked scan short: values up to f_r(S(d + 21, d))
            cap = family_f_r("stacked", d + 21, d, r)
            values = _boundary_values("stacked", d, r, d + 1) | {
                v for v in _boundary_values("cyclic", d, r, d + 1) if v <= cap
            }
            for v in sorted(values):
                n1, n2 = sandwich_params_by_scan(d, r, v)
                if n1 is None:
                    with pytest.raises(BelowFloorError):
                        sandwich_simplicial(d, r, v)
                else:
                    assert sandwich_simplicial(d, r, v).family_params == (n1, n2)
            for v in sorted(_boundary_values("cs_stacked", d, r, d)):
                n = largest_n_below_by_scan("cs_stacked", d, r, v, d)
                if n is None:
                    with pytest.raises(BelowFloorError):
                        lower_bound_cs(d, r, v)
                else:
                    assert lower_bound_cs(d, r, v).family_params == (n,)


@pytest.mark.parametrize("d, r", [(3, 0), (4, 0), (7, 2), (12, 3), (12, 10)])
def test_bounds_at_huge_values(d, r):
    v = 10**100
    n1, n2 = timed(sandwich_simplicial, d, r, v).family_params
    assert family_f_r("stacked", n1, d, r) <= v < family_f_r("stacked", n1 + 1, d, r)
    assert family_f_r("cyclic", n2 - 1, d, r) < v <= family_f_r("cyclic", n2, d, r)
    (n,) = timed(lower_bound_cs, d, r, v).family_params
    assert family_f_r("cs_stacked", n, d, r) <= v < family_f_r("cs_stacked", n + 1, d, r)


def test_cyclic_step_matches_closed_form_and_gale_oracles():
    # (f(n), f(n) - f(n-1)) from one pass, n = d+2 (next to the simplex)
    # on, as the n2 descent never steps at the simplex; Gale's evenness
    # enumerates C(n, d) candidate facets and 2^d faces of each, so it
    # checks the members it reaches quickly (d <= 11) and the h-vector
    # closed form checks all
    for d in range(3, 20):
        columns = tuple(zip(*build_md(d)))
        for n in range(d + 2, d + 61):
            gale = (cyclic_fvector_gale(n - 1, d), cyclic_fvector_gale(n, d)) \
                if d <= 11 and math.comb(n, d) <= 1000 else None
            for r, column in enumerate(columns):
                f_prev, f = family_f_r("cyclic", n - 1, d, r), family_f_r("cyclic", n, d, r)
                assert comparison._cyclic_step(n, d, column) == (f, f - f_prev), (n, d, r)
                if gale:
                    assert (f_prev, f) == (gale[0][r], gale[1][r])


def _clear_bound_caches():
    for cached in (transforms._md_column, families._affine_family):
        cached.cache_clear()


def test_f_vectors_and_bounds_build_no_md():
    # M_d is built only by the engines that verify it: of the calls below,
    # only compare (its premise) and the cyclic n2 at r >= delta read M_d,
    # and only column r
    _clear_bound_caches()
    for d in range(3, 21):
        stacked, cyclic = (g_of_family(FamilySpec(family, d + 9, d)) for family in (STACKED, CYCLIC))
        g_to_f(cyclic)
        f_of_family(FamilySpec(CS_STACKED, d + 9, d))
        compare(stacked, cyclic, 0)
        for r in (1, delta(d), d - 2):  # r < delta and r >= delta
            sandwich_simplicial(d, r, 10**40)
            lower_bound_cs(d, r, 10**40)
    read = {(d, r) for d in range(3, 21) for r in (1, delta(d), d - 2) if r >= delta(d)}
    read |= {(d, 0) for d in range(3, 21)}
    assert transforms._md_column.cache_info().currsize == len(read) == 52


def test_cold_sandwich_at_d_800():
    _clear_bound_caches()
    n1, n2 = timed(sandwich_simplicial, 800, 3, 10**60, seconds=0.5).family_params
    assert family_f_r("stacked", n1, 800, 3) <= 10**60 < family_f_r("stacked", n1 + 1, 800, 3)
    assert math.comb(n2 - 1, 4) < 10**60 <= math.comb(n2, 4)


@pytest.mark.parametrize("d, r, seconds", [(10, 2, 0.2), (10, 6, 0.2), (20, 3, 1.0)])
def test_sandwich_at_ten_thousand_digits(d, r, seconds):
    v = 10**10000
    n1, n2 = timed(sandwich_simplicial, d, r, v, seconds=seconds).family_params
    assert family_f_r("stacked", n1, d, r) <= v < family_f_r("stacked", n1 + 1, d, r)
    assert family_f_r("cyclic", n2 - 1, d, r) < v <= family_f_r("cyclic", n2, d, r)


def test_cs_witness_is_the_crossing_with_the_stanley_floor():
    for d in range(3, 13):
        for n in (d, d + 1, d + 2, d + 7, 10**30):
            expected = find_crossing(g_of_family(FamilySpec(CS_STACKED, n, d)), stanley_cs_floor(d))
            for r in range(d - 1):
                report = lower_bound_cs(d, r, family_f_r("cs_stacked", n, d, r))
                assert report.family_params == (n,)
                assert report.witness == expected
