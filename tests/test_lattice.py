from itertools import product

import pytest

from oracles import disjoint_pairs_by_scan
from fvectors import lattice
from fvectors.exact import binom_det, binomial
from fvectors.lattice import (
    LatticePath, PathPair, PathFamilySpec,
    enumerate_paths, enumerate_disjoint_pairs, count_disjoint_pairs,
    gv_identity_check, phi, phi_with_case, verify_phi,
    disjointness_margin_2c, paths_disjoint,
    CASE_1, CASE_2A, CASE_2B, CASE_2C,
)
from fvectors.minors import phi_minor
from fvectors.transforms import delta


def test_path_geometry():
    p = LatticePath((0, -2), "NE")
    assert p.end == (1, -1)
    assert p.vertices() == ((0, -2), (0, -1), (1, -1))
    with pytest.raises(ValueError):
        LatticePath((0, 0), "NX")


def test_enumerate_paths_examples():
    paths = enumerate_paths((0, -2), (1, -1))
    assert sorted(p.steps for p in paths) == ["EN", "NE"]
    assert enumerate_paths((0, 0), (1, -1)) == []
    assert len(enumerate_paths((0, 0), (0, 0))) == 1


def test_enumerate_paths_counts_are_binomial():
    for total in range(17):
        for dx in range(total + 1):
            dy = total - dx
            assert len(enumerate_paths((0, 0), (dx, dy))) == binomial(total, dx)


def test_path_pair_rejects_intersecting():
    p = LatticePath((0, -1), "E")
    q = LatticePath((0, -1), "EE")
    with pytest.raises(ValueError):
        PathPair(p, q)


def test_count_disjoint_pairs_examples():
    assert count_disjoint_pairs(PathFamilySpec(1, 2, 0, 1)) == 1
    assert count_disjoint_pairs(PathFamilySpec(2, 3, 1, 2)) == 3
    # shared start point forces intersection
    for t in range(4):
        for u in range(4):
            assert count_disjoint_pairs(PathFamilySpec(2, 2, t, u)) == 0


def test_count_disjoint_pairs_matches_pair_scan():
    # empty families, negative parameters and shared starts (p == q) included
    for pqtu in product(range(-2, 9), repeat=4):
        assert count_disjoint_pairs(PathFamilySpec(*pqtu)) == disjoint_pairs_by_scan(*pqtu)


@pytest.mark.parametrize("args", [(True, 2, 1, 1), (2.0, 3, 1, 2), (1, 2, 0, "1"), (1, None, 0, 1)])
def test_path_family_spec_rejects_non_integers(args):
    # a bool is not read as 0/1 and a float is not carried into the walk
    with pytest.raises(ValueError, match="vector entries must be integers"):
        PathFamilySpec(*args)


def test_gv_identity_small_exhaustive():
    for p in range(6):
        for q in range(6):
            for t in range(6):
                for u in range(6):
                    assert gv_identity_check(PathFamilySpec(p, q, t, u))


def test_gv_ordered_parameters_count_directly():
    # with p <= q and t <= u no crossed pair survives, so the determinant
    # counts the disjoint pairs outright; this is the only configuration
    # the minor decomposition produces
    from fvectors.lattice import count_crossed_disjoint_pairs

    for p in range(7):
        for q in range(p, 7):
            for t in range(7):
                for u in range(t, 7):
                    spec = PathFamilySpec(p, q, t, u)
                    assert count_crossed_disjoint_pairs(spec) == 0
                    assert binom_det(p, q, t, u) == count_disjoint_pairs(spec)


def test_gv_identity_degenerate():
    assert binom_det(1, 2, 3, 1) == 0
    assert gv_identity_check(PathFamilySpec(1, 2, 3, 1))


def test_phi_case1_hand_traced():
    # d=4, a=1, r=2, s=3: P="E" from (0,-1), Q="EE" from (0,-2)
    pair = PathPair(LatticePath((0, -1), "E"), LatticePath((0, -2), "EE"))
    image, case = phi_with_case(pair, 4, 1, 2, 3)
    assert case == CASE_1
    assert image.p == pair.p
    assert image.q == LatticePath((0, -3), "NEE")


def test_phi_case2a_is_step_removal():
    # any domain pair with both paths starting N maps by dropping the first
    # step; prepending N to the image members recovers the input
    d = 6
    for a in range(delta(d)):
        at = d + 1 - a
        for r in range(d - 1):
            for s in range(r + 1, d):
                spec = PathFamilySpec(a + 1, at, d - s, d - r)
                for pair in enumerate_disjoint_pairs(spec):
                    if not (pair.p.steps.startswith("N") and pair.q.steps.startswith("N")):
                        continue
                    image, case = phi_with_case(pair, d, a, r, s)
                    assert case == CASE_2A
                    assert "N" + image.p.steps == pair.p.steps
                    assert "N" + image.q.steps == pair.q.steps


def test_phi_rejects_foreign_pairs():
    pair = PathPair(LatticePath((0, -9), "E"), LatticePath((0, -7), "EE"))
    with pytest.raises(ValueError):
        phi(pair, 4, 1, 2, 3)


def test_phi_rejects_bad_parameters():
    pair = PathPair(LatticePath((0, -1), "E"), LatticePath((0, -2), "EE"))
    with pytest.raises(ValueError):
        phi(pair, 4, 2, 2, 3)  # a = delta not admissible
    with pytest.raises(ValueError):
        phi(pair, 4, 1, 3, 2)  # r >= s


def test_verify_phi_small_dimensions():
    for d in range(3, 8):
        report = verify_phi(d)
        assert report.all_ok, report.failures[:5]
        assert report.injective
        assert report.cases_partition
        assert report.membership_ok
        assert report.anchors_ok
        assert report.counts_consistent


def test_phi_images_match_domain_cardinality():
    # injectivity cardinality check at d=6: #images == #domain per instance
    report = verify_phi(6)
    assert report.injective and report.pairs_checked > 0


def _all_2c_instances(d):
    for a in range(delta(d)):
        at = d + 1 - a
        for r in range(d - 1):
            for s in range(r + 1, d):
                spec = PathFamilySpec(a + 1, at, d - s, d - r)
                for pair in enumerate_disjoint_pairs(spec):
                    if pair.q.steps.startswith("N") and pair.p.steps.startswith("E"):
                        yield pair, a, r, s


def test_disjointness_margin_2c_positive():
    for d in (3, 4, 5, 6, 7, 8):
        for pair, a, r, s in _all_2c_instances(d):
            assert disjointness_margin_2c(pair, d, a, r, s) >= 1


def test_disjointness_margin_matches_geometry():
    # margin = vertical distance between the cited extreme points
    for d in (5, 6, 7):
        for pair, a, r, s in _all_2c_instances(d):
            at = d + 1 - a
            k = len(pair.p.steps) - len(pair.p.steps.lstrip("E"))
            q = pair.q.steps
            e_pos = [i for i, c in enumerate(q) if c == "E"]
            i_k, i_k1 = e_pos[k - 1], e_pos[k]
            h = q[1:i_k].count("N")
            v = i_k1 - i_k - 1
            low_p_y = -a - h - 2
            high_q_y = -at + v
            assert disjointness_margin_2c(pair, d, a, r, s) == low_p_y - high_q_y


def test_margin_formula_at_zero_h_v():
    # with v = 0 and h = 0 the margin degenerates to (d+1-a) - a - 2
    for d in (5, 6, 7, 8):
        for pair, a, r, s in _all_2c_instances(d):
            k = len(pair.p.steps) - len(pair.p.steps.lstrip("E"))
            q = pair.q.steps
            e_pos = [i for i, c in enumerate(q) if c == "E"]
            h = q[1:e_pos[k - 1]].count("N")
            v = e_pos[k] - e_pos[k - 1] - 1
            if h == 0 and v == 0:
                assert disjointness_margin_2c(pair, d, a, r, s) == (d + 1 - a) - a - 2


def test_margin_requires_2c_input():
    pair = PathPair(LatticePath((0, -1), "E"), LatticePath((0, -2), "EE"))
    with pytest.raises(ValueError):
        disjointness_margin_2c(pair, 4, 1, 2, 3)


def test_minor_decomposition_into_binomial_determinants():
    # m[a][r]*m[b][s] - m[a][s]*m[b][r] rearranges into four binomial
    # determinants over the reflected parameters
    for d in range(3, 13):
        dl = delta(d)
        for a in range(dl + 1):
            for b in range(a + 1, dl + 1):
                at, bt = d + 1 - a, d + 1 - b
                for r in range(d - 1):
                    for s in range(r + 1, d):
                        sb, rb = d - s, d - r
                        expected = (
                            binom_det(a, bt, sb, rb)
                            + binom_det(bt, at, sb, rb)
                            - binom_det(a, b, sb, rb)
                            - binom_det(b, at, sb, rb)
                        )
                        assert phi_minor(d, a, b, r, s) == expected


def test_gv_counts_match_minor_for_actual_instances():
    # the four families behind a consecutive-row minor, counted by brute
    # force, reproduce the minor exactly
    for d in (4, 6, 8):
        dl = delta(d)
        for a in range(dl):
            at = d + 1 - a
            for r in range(d - 1):
                for s in range(r + 1, d):
                    sb, rb = d - s, d - r
                    total = (
                        count_disjoint_pairs(PathFamilySpec(a, at - 1, sb, rb))
                        + count_disjoint_pairs(PathFamilySpec(at - 1, at, sb, rb))
                        - count_disjoint_pairs(PathFamilySpec(a, a + 1, sb, rb))
                        - count_disjoint_pairs(PathFamilySpec(a + 1, at, sb, rb))
                    )
                    assert total == phi_minor(d, a, a + 1, r, s)


def test_case_dispatch_is_partition():
    # every domain element matches exactly one of the four case predicates
    d = 6
    for a in range(delta(d)):
        at = d + 1 - a
        for r in range(d - 1):
            for s in range(r + 1, d):
                sb, rb = d - s, d - r
                dom1 = enumerate_disjoint_pairs(PathFamilySpec(a, a + 1, sb, rb))
                dom2 = enumerate_disjoint_pairs(PathFamilySpec(a + 1, at, sb, rb))
                for pair in dom1:
                    _, case = phi_with_case(pair, d, a, r, s)
                    assert case == CASE_1
                for pair in dom2:
                    _, case = phi_with_case(pair, d, a, r, s)
                    preds = [
                        pair.p.steps.startswith("N") and pair.q.steps.startswith("N"),
                        pair.q.steps.startswith("E"),
                        pair.q.steps.startswith("N") and pair.p.steps.startswith("E"),
                    ]
                    assert sum(preds) == 1
                    assert case in (CASE_2A, CASE_2B, CASE_2C)


def test_paths_disjoint_helper():
    a = LatticePath((0, 0), "EN")
    b = LatticePath((0, 1), "NE")
    assert paths_disjoint(a, b)
    c = LatticePath((0, 0), "NE")
    assert not paths_disjoint(a, c)


def _messages(report):
    return {message for _, message in report.failures}


def test_verify_phi_catches_image_collision(monkeypatch):
    # every case-1 pair of an instance maps to that instance's first image
    real = lattice._phi_words
    first_image = {}

    def colliding(first, p_steps, q_steps, d, a, r, s):
        image = real(first, p_steps, q_steps, d, a, r, s)
        return first_image.setdefault((a, r, s), image) if first else image

    monkeypatch.setattr(lattice, "_phi_words", colliding)
    report = verify_phi(6)
    assert not report.injective
    assert _messages(report) == {"image collision"}
    assert report.cases_partition and report.membership_ok and report.counts_consistent


def test_verify_phi_catches_intersecting_image(monkeypatch):
    # case 1 keeps P from (0, -a) and lets Q climb the y-axis onto P's start
    real = lattice._phi_words

    def intersecting(first, p_steps, q_steps, d, a, r, s):
        if first:
            return CASE_1, p_steps, "N" * (d - 2 * a) + p_steps
        return real(first, p_steps, q_steps, d, a, r, s)

    monkeypatch.setattr(lattice, "_phi_words", intersecting)
    report = verify_phi(6)
    assert not report.cases_partition
    assert _messages(report) == {
        "construction failed: paths in a PathPair must be vertex-disjoint"
    }


def test_verify_phi_catches_image_outside_target(monkeypatch):
    # case 1 returns its input words, so Q starts at (0, 1-A) but keeps the
    # length of a path from (0, -a-1) and misses the (u, -u) endpoint
    real = lattice._phi_words

    def identity_on_case_1(first, p_steps, q_steps, d, a, r, s):
        if first:
            return CASE_1, p_steps, q_steps
        return real(first, p_steps, q_steps, d, a, r, s)

    monkeypatch.setattr(lattice, "_phi_words", identity_on_case_1)
    report = verify_phi(6)
    assert not report.membership_ok
    assert "case 1 image in wrong family" in _messages(report)
    assert report.cases_partition and report.injective


def _count_by_scan(spec):
    return disjoint_pairs_by_scan(spec.p, spec.q, spec.t, spec.u)


def test_verify_phi_reports_match_with_pair_scan_counts(monkeypatch):
    walked = [repr(verify_phi(d)) for d in range(3, 12)]
    monkeypatch.setattr(lattice, "count_disjoint_pairs", _count_by_scan)
    assert [repr(verify_phi(d)) for d in range(3, 12)] == walked


def test_verify_phi_catches_a_miscounted_target(monkeypatch):
    # one pair too many in the L(A-1, A) target of d=6, a=0, r=2, s=3
    real = lattice.count_disjoint_pairs
    target = PathFamilySpec(6, 7, 3, 4)
    assert real(target) > 0
    monkeypatch.setattr(
        lattice, "count_disjoint_pairs", lambda spec: real(spec) + (spec == target)
    )
    report = verify_phi(6)
    assert report.counts_consistent is False
    assert [(tag, message.split(":")[0]) for tag, message in report.failures] == [
        ((0, 2, 3), "count mismatch")
    ]
    assert report.injective and report.cases_partition
    assert report.membership_ok and report.anchors_ok
