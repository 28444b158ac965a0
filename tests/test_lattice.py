from collections import Counter
from itertools import combinations, product

import pytest

from deadline import timed
from oracles import (
    _ne_paths, disjoint_pairs_by_levels, disjoint_pairs_by_scan, disjoint_word_pairs,
    path_vertices, phi_by_pairs,
)
from fvectors import lattice
from fvectors.exact import binom_det, binomial
from fvectors.lattice import (
    PathFamilySpec, count_disjoint_pairs, gv_identity_check, phi, verify_gv, verify_phi,
    _family_paths, _head_2c, _paths_with_masks, _phi_words, _vertex_bit,
    CASE_1, CASE_2A, CASE_2B, CASE_2C,
)
from fvectors.minors import phi_minor
from fvectors.transforms import delta


def _mask(*vertices):
    return sum(1 << _vertex_bit(x, y) for x, y in set(vertices))


def test_path_geometry():
    assert _mask(*path_vertices((0, -2), "NE")) == _mask((0, -2), (0, -1), (1, -1))
    assert _mask(*path_vertices((0, 1), "")) == _mask((0, 1))


def test_enumerate_paths_examples():
    paths = _paths_with_masks((0, -2), (1, -1))
    assert paths == {
        "EN": _mask((0, -2), (1, -2), (1, -1)),
        "NE": _mask((0, -2), (0, -1), (1, -1)),
    }
    assert _paths_with_masks((0, 0), (1, -1)) == {}
    assert _paths_with_masks((0, 0), (0, 0)) == {"": _mask((0, 0))}


def test_enumerate_paths_counts_are_binomial():
    # the uncached builder, so no mask of these 2^17 paths stays cached
    paths = _paths_with_masks.__wrapped__
    for total in range(17):
        for dx in range(total + 1):
            dy = total - dx
            assert len(paths((0, 0), (dx, dy))) == binomial(total, dx)


def test_prefix_built_masks_match_the_oracle_paths():
    # words in the oracle's order (E positions by `combinations`), each
    # mask holding exactly the bits of the path's vertices
    for p in range(9):
        for t in range(9):
            start = (0, -p)
            paths = _paths_with_masks.__wrapped__(start, (t, -t))
            assert list(paths) == [w for w, _ in _ne_paths(p, t, p + 1)]
            for word, mask in paths.items():
                assert mask == _mask(*path_vertices(start, word)), (p, t, word)


def test_level_bit_tables_match_the_oracle_paths_verify_phi_reads():
    # every start and end verify_phi builds paths between at d <= 10: P
    # from (0, -a), (0, -a-1), (0, 1-A) to (t, -t); Q from (0, -a-1),
    # (0, 1-A), (0, -A) to (u, -u); and the zero-width axis climbed from
    # (0, 1-A) to the anchor (0, -a-1)
    for d in range(3, 11):
        for a in range(delta(d)):
            at = d + 1 - a
            spans = {(-a, t) for t in range(1, d)} | {(-a - 1, t) for t in range(1, d)}
            spans |= {(1 - at, t) for t in range(1, d + 1)} | {(-at, u) for u in range(2, d + 1)}
            for y, t in spans:
                paths = _paths_with_masks.__wrapped__((0, y), (t, -t))
                assert list(paths) == [w for w, _ in _ne_paths(-y, t, 1 - y)], (d, a, y, t)
                for word, mask in paths.items():
                    assert mask == _mask(*path_vertices((0, y), word)), (d, a, y, t, word)
            axis = _paths_with_masks.__wrapped__((0, 1 - at), (0, -a - 1))
            word = "N" * (at - a - 2)
            assert axis == {word: _mask(*path_vertices((0, 1 - at), word))}, (d, a)


def test_paths_disjoint_helper():
    assert not _mask(*path_vertices((0, 0), "EN")) & _mask(*path_vertices((0, 1), "NE"))
    assert _mask(*path_vertices((0, 0), "EN")) & _mask(*path_vertices((0, 0), "NE"))
    assert _mask(*path_vertices((0, -1), "E")) & _mask(*path_vertices((0, -1), "EE"))
    for start in range(5):
        for dx in range(start + 1):
            for pw, pm in _paths_with_masks((0, -start), (dx, -dx)).items():
                for qw, qm in _paths_with_masks((0, -4), (2, -2)).items():
                    meet = set(path_vertices((0, -start), pw)) & set(
                        path_vertices((0, -4), qw))
                    assert bool(pm & qm) == bool(meet)


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


def test_count_disjoint_pairs_matches_dict_level_walk():
    for pqtu in product(range(-2, 15), repeat=4):
        assert count_disjoint_pairs(PathFamilySpec(*pqtu)) == disjoint_pairs_by_levels(*pqtu)


def test_count_disjoint_pairs_limbs_follow_the_cell_bound():
    # 2999 lockstep levels on cells as wide as C(3000, 40)*C(2999, 20), 473
    # bits, took 0.13 s on a 2-core Xeon VM; cells of p + q + 3 = 6002 bits
    # took over 4 s.  With t > u the swapped term vanishes, so
    # Gessel-Viennot gives the count.
    spec = PathFamilySpec(3000, 2999, 40, 20)
    assert timed(count_disjoint_pairs, spec, seconds=1.0) == binom_det(3000, 2999, 40, 20)


def test_count_disjoint_pairs_seed_at_large_start_gap():
    # p - q = 999,999 prefixes walked alone before the lockstep; the seed row
    # needs only cells 0..t, and an unreduced (2^B + 1)^(p-q) would be a
    # 41-million-bit int
    spec = PathFamilySpec(10**6, 1, 2, 0)
    assert timed(count_disjoint_pairs, spec, seconds=0.1) == binom_det(10**6, 1, 2, 0)


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


def test_verify_gv_reports_planted_failures(monkeypatch):
    planted = {(1, 2, 0, 1), (3, 0, 2, 2)}
    real = lattice.gv_identity_check
    monkeypatch.setattr(
        lattice, "gv_identity_check",
        lambda spec: (spec.p, spec.q, spec.t, spec.u) not in planted and real(spec),
    )
    report = verify_gv(3)
    assert report.failures == ((1, 2, 0, 1), (3, 0, 2, 2))
    assert report.instances == 256


def test_gv_ordered_parameters_count_directly():
    # with p <= q and t <= u no pair with swapped endpoints survives, so the
    # determinant counts the disjoint pairs outright; this is the only
    # configuration the minor decomposition produces
    for p in range(7):
        for q in range(p, 7):
            for t in range(7):
                for u in range(t, 7):
                    assert count_disjoint_pairs(PathFamilySpec(p, q, u, t)) == 0
                    assert binom_det(p, q, t, u) == count_disjoint_pairs(
                        PathFamilySpec(p, q, t, u))


def test_gv_identity_degenerate():
    assert binom_det(1, 2, 3, 1) == 0
    assert gv_identity_check(PathFamilySpec(1, 2, 3, 1))


def test_phi_case1_hand_traced():
    # d=4, a=1, r=2, s=3: P="E" from (0,-1), Q="EE" from (0,-2); the image
    # keeps P and lifts Q to start at (0,-3)
    assert phi(True, "E", "EE", 4, 1, 2, 3) == (CASE_1, "E", "NEE")


def _domain_pairs(d, first):
    """(a, r, s, P word, Q word) over every pair of L(a, a+1) (first) or
    of L(a+1, A), from the oracle."""
    for a in range(delta(d)):
        at = d + 1 - a
        for r in range(d - 1):
            for s in range(r + 1, d):
                low, high = (a, a + 1) if first else (a + 1, at)
                for pw, qw in disjoint_word_pairs(low, high, d - s, d - r):
                    yield a, r, s, pw, qw


def test_phi_case2a_is_step_removal():
    # any domain pair with both paths starting N maps by dropping the first
    # step; prepending N to the image members recovers the input
    d = 6
    seen = 0
    for a, r, s, pw, qw in _domain_pairs(d, False):
        if not (pw.startswith("N") and qw.startswith("N")):
            continue
        case, image_pw, image_qw = phi(False, pw, qw, d, a, r, s)
        assert case == CASE_2A
        assert "N" + image_pw == pw
        assert "N" + image_qw == qw
        seen += 1
    assert seen > 0


def test_phi_rejects_foreign_pairs():
    # d=4, a=1, r=2, s=3: L(1, 2) holds only ("E", "EE"), and L(2, 4) only
    # pairs whose P runs from (0,-2) to (1,-1)
    with pytest.raises(ValueError, match="does not belong to the domain"):
        phi(True, "N", "EE", 4, 1, 2, 3)  # P misses its endpoint
    with pytest.raises(ValueError, match="does not belong to the domain"):
        phi(True, "E", "NEE", 4, 1, 2, 3)  # Q starts elsewhere
    with pytest.raises(ValueError, match="does not belong to the domain"):
        phi(False, "E", "EE", 4, 1, 2, 3)  # a pair of the other family
    with pytest.raises(ValueError, match="does not belong to the domain"):
        phi(True, "E", "EX", 4, 1, 2, 3)


def test_path_pair_rejects_intersecting():
    # at d=4, a=1, r=2, s=3 both words are paths of L(2, 4), P = "EN" from
    # (0,-2) and Q = "ENNE" from (0,-4), but both pass through (1,-2)
    assert _mask(*path_vertices((0, -2), "EN")) & _mask(*path_vertices((0, -4), "ENNE"))
    with pytest.raises(ValueError, match="does not belong to the domain"):
        phi(False, "EN", "ENNE", 4, 1, 2, 3)
    assert phi(False, "EN", "EENN", 4, 1, 2, 3)[0] == CASE_2B


def test_phi_rejects_bad_parameters():
    with pytest.raises(ValueError):
        phi(True, "E", "EE", 4, 2, 2, 3)  # a = delta not admissible
    for first, p_word, q_word in (("x", "E", "EE"), (1, "E", "EE"), (None, "E", "EE"),
                                  (True, ["E"], "EE"), (True, "E", ("E", "E")),
                                  (False, b"EN", "EENN")):
        with pytest.raises(ValueError, match="first must be a bool and the two words strings"):
            phi(first, p_word, q_word, 4, 1, 2, 3)
    with pytest.raises(ValueError):
        phi(True, "E", "EE", 4, 1, 3, 2)  # r >= s
    with pytest.raises(ValueError):
        phi(True, "E", "EE", 2, 1, 2, 3)  # d < 3


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


def test_disjointness_margin_2c_positive():
    # subcase 2c splits P = E^k N P' and Q = N R E N^v E Q' (the k-th and
    # (k+1)-st E of Q), h being the number of N's in R.  On the column
    # x = k the image Q from (0,-A) rises exactly to (k, -A+v), and the
    # image P from (0,-(A-1)) stays at or above (k, -a-h-2), strictly above
    # the image Q.  The P bound is an inequality: some images sit higher.
    inputs = attained = 0
    for d in range(3, 11):
        for a, r, s, pw, qw in _domain_pairs(d, False):
            if not (pw.startswith("E") and qw.startswith("N")):
                continue
            at = d + 1 - a
            k = len(pw) - len(pw.lstrip("E"))
            e_pos = [i for i, c in enumerate(qw) if c == "E"]
            h = qw[1:e_pos[k - 1]].count("N")
            v = e_pos[k] - e_pos[k - 1] - 1
            case, image_pw, image_qw = phi(False, pw, qw, d, a, r, s)
            assert case == CASE_2C
            high_q = max(y for x, y in path_vertices((0, -at), image_qw) if x == k)
            low_p = min(y for x, y in path_vertices((0, 1 - at), image_pw) if x == k)
            assert high_q == -at + v
            assert low_p >= -a - h - 2
            assert low_p > high_q
            inputs += 1
            attained += low_p == -a - h - 2
    assert (inputs, attained) == (5918, 5161)


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


def test_case_table_partitions_each_domain_by_first_steps():
    # the table alone: on L(a+1, A) each pair of first steps is taken by
    # exactly one row, on L(a, a+1) case 1 takes every pair
    for first in (True, False):
        for p_step, q_step in product("EN", repeat=2):
            takers = [row.label for row in lattice._CASES if row.first is first
                      and p_step in row.p_first and q_step in row.q_first]
            if first:
                assert takers == [CASE_1]
            else:
                assert len(takers) == 1, (p_step, q_step, takers)
    assert {row.label for row in lattice._CASES} == {CASE_1, CASE_2A, CASE_2B, CASE_2C}


# faults of the case table itself: a row left out, or a row whose first steps
# also select other rows' pairs, with the pairs checked at d = 6 (378 when sound)
_TABLE_FAULTS = {
    "2a-missing": (lambda rows: tuple(row for row in rows if row.label != CASE_2A), 336),
    "2c-missing": (lambda rows: tuple(row for row in rows if row.label != CASE_2C), 273),
    "2b-overlapping": (lambda rows: tuple(
        row._replace(q_first="EN") if row.label == CASE_2B else row for row in rows), 525),
}


@pytest.mark.parametrize("fault", _TABLE_FAULTS)
def test_verify_phi_counts_a_gap_or_an_overlap_of_case_rows(monkeypatch, fault):
    # every row counts the disjoint pairs its first steps select, so a pair
    # no row takes, or one that two rows take, moves the domain size off the
    # minor; the maps of the rows left are sound, so no other flag clears
    plant, pairs = _TABLE_FAULTS[fault]
    monkeypatch.setattr(lattice, "_CASES", plant(lattice._CASES))
    report = verify_phi(6)
    assert not report.counts_consistent and report.pairs_checked == pairs
    assert {message.split(":")[0] for message in _messages(report)} == {"count mismatch"}
    assert report.injective and report.cases_partition
    assert report.membership_ok and report.anchors_ok


def test_case_dispatch_is_partition():
    # every domain element matches exactly one of the four case predicates
    # (phi reads the case table that verify_phi runs)
    for d in range(3, 11):
        for a, r, s, pw, qw in _domain_pairs(d, True):
            assert phi(True, pw, qw, d, a, r, s)[0] == CASE_1
        for a, r, s, pw, qw in _domain_pairs(d, False):
            case = phi(False, pw, qw, d, a, r, s)[0]
            preds = [
                pw.startswith("N") and qw.startswith("N"),
                qw.startswith("E"),
                qw.startswith("N") and pw.startswith("E"),
            ]
            assert sum(preds) == 1
            assert case == (CASE_2A, CASE_2B, CASE_2C)[preds.index(True)]


def test_phi_words_2c_needs_k_plus_one_e_steps_in_q():
    # P = EEN gives k = 2, so Q must hold at least three E steps
    assert _phi_words(False, "EEN", "NEENE", 6, 1, 2, 3) == (CASE_2C, "NNEENN", "EENEN")
    with pytest.raises(ValueError, match="Q lacks the k-th and \\(k\\+1\\)-st E steps"):
        _phi_words(False, "EEN", "NEEN", 6, 1, 2, 3)
    # Q climbs more N steps before its k-th E than the head's north prefix
    # can give back; verify_phi(d) meets no such domain pair for d <= 14
    with pytest.raises(ValueError,
                       match=r"negative north prefix in subcase 2c \(a=1, r=2, s=3, d=6\)"):
        _phi_words(False, "EN", "NNNNENE", 6, 1, 2, 3)


def _messages(report):
    return {message for _, message in report.failures}


def _with_cells(monkeypatch, case, **cells):
    # the case table with cells of the row labelled `case` replaced; phi
    # and verify_phi both read it
    monkeypatch.setattr(lattice, "_CASES", tuple(
        row._replace(**cells) if row.label == case else row for row in lattice._CASES))


def test_verify_phi_catches_image_collision(monkeypatch):
    # case 1's Q map sorts Q's steps, E's first: every Q becomes the path
    # below and right of every P, so the pairs that share a P share an image.
    # verify_phi sees each unsorted Q word's image off its word; pair by
    # pair, the oracle sees the collisions
    _with_cells(monkeypatch, CASE_1, q_map=lambda q, d, a: lattice._lift(_sorted(q), d, a))
    report = verify_phi(6)
    assert not report.injective
    assert _messages(report) == {"case 1 image off its word"}
    assert report.cases_partition and report.membership_ok and report.counts_consistent
    pairs, cleared, failures = phi_by_pairs(6, lattice._phi_words)
    assert pairs == report.pairs_checked and cleared == {"injective"}
    assert {message for _, message in failures} == {"image collision"}


def test_verify_phi_catches_intersecting_image(monkeypatch):
    # case 1's Q map climbs one step past Q's start onto P's start (0, -a).
    # The longer Q word is off its target, which verify_phi reports without
    # testing it against P; pair by pair, the oracle finds the intersection
    _with_cells(monkeypatch, CASE_1, q_map=lambda q, d, a: "N" * (d - 2 * a) + q)
    report = verify_phi(6)
    assert not report.membership_ok
    assert _messages(report) == {"case 1 image in wrong family"}
    assert report.cases_partition and report.injective and report.anchors_ok
    _, cleared, failures = phi_by_pairs(6, lattice._phi_words)
    assert cleared == {"cases_partition"}
    assert {message for _, message in failures} == {
        "construction failed: image paths must be vertex-disjoint"
    }


def test_verify_phi_catches_image_outside_target(monkeypatch):
    # case 1's Q map returns its input word, so Q starts at (0, 1-A) but
    # keeps the length of a path from (0, -a-1) and misses the (u, -u) endpoint
    _with_cells(monkeypatch, CASE_1, q_map=lambda q, d, a: q)
    report = verify_phi(6)
    assert not report.membership_ok
    assert "case 1 image in wrong family" in _messages(report)
    assert report.cases_partition and report.injective


def test_verify_phi_catches_broken_anchor(monkeypatch):
    # case 1's row is relabelled 2a: the same words land in the same target,
    # but the anchor (0, -a-1) lies on them, which case 2a must avoid.  The
    # label is a cell of the table that phi and verify_phi both read, so
    # verify_phi sees each lifted Q word through the anchor, and the oracle
    # each of the 7 domain pairs
    _with_cells(monkeypatch, CASE_1, label=CASE_2A)
    report = verify_phi(6)
    assert not report.anchors_ok
    assert _messages(report) == {"case 2a anchor invariant broken"}
    assert report.injective and report.membership_ok
    assert report.cases_partition and report.counts_consistent
    pairs, cleared, failures = phi_by_pairs(6, lattice._phi_words)
    assert pairs == report.pairs_checked and cleared == {"anchors_ok"}
    assert [message for _, message in failures] == ["case 2a anchor invariant broken"] * 7


def test_verify_phi_catches_swapped_labels(monkeypatch):
    # the 2a and 2b rows trade labels: each row's images are looked up in
    # the other target, where the dropped and lifted words are no paths
    monkeypatch.setattr(lattice, "_CASES", tuple(
        row._replace(label={CASE_2A: CASE_2B, CASE_2B: CASE_2A}.get(row.label, row.label))
        for row in lattice._CASES))
    report = verify_phi(6)
    assert not report.membership_ok
    assert _messages(report) == {"case 2a image in wrong family", "case 2b image in wrong family"}
    _, cleared, _ = phi_by_pairs(6, lattice._phi_words)
    assert "membership_ok" in cleared


def test_the_word_path_rests_on_shared_dicts_and_an_axis_through_the_anchor():
    # the facts that let the word-by-word path of verify_phi skip checks:
    # case 1's P words and 2b's Q words are their targets' own, so they are
    # not mapped, and they miss the stretch of y-axis that the other word of
    # their pair climbs, from (0, 1-A) to just below the anchor, and the
    # anchor too; each side's words (the Q words of L(a+1, A) short of the
    # climb to P's start) all start at the anchor or all miss it, so one
    # mask per side moves each word to its image
    for d in range(3, 13):
        for a in range(delta(d)):
            at = d + 1 - a
            anchor = _mask((0, -a - 1))
            [(word, stretch)] = _paths_with_masks((0, 1 - at), (0, -a - 2)).items()
            assert word == "N" * (d - 2 - 2 * a) and stretch & anchor == 0
            assert stretch | anchor == _mask(*path_vertices((0, 1 - at), word + "N"))
            for r, s in combinations(range(d), 2):
                t, u = d - s, d - r
                p1, q1 = _family_paths(PathFamilySpec(a, a + 1, t, u))
                p2, q2 = _family_paths(PathFamilySpec(a + 1, at, t, u))
                low_p = _family_paths(PathFamilySpec(a, at - 1, t, u))[0]
                high_q = _family_paths(PathFamilySpec(at - 1, at, t, u))[1]
                assert p1 is low_p and q2 is high_q
                assert not any(m & (stretch | anchor) for m in p1.values())
                assert not any(m & (stretch | anchor) for w, m in q2.items() if w.startswith("E"))
                assert all(m & anchor for m in (*p2.values(), *q1.values()))
                q2_below = [m for w, m in q2.items() if not w.startswith("N" * (d - 2 * a))]
                assert not any(m & anchor for m in q2_below)


def _spy_cells(monkeypatch, calls):
    # each map cell of the case table records its calls under (case, cell)
    def recording(key, real):
        def record(*args):
            calls.setdefault(key, []).append(args)
            return real(*args)
        return record

    monkeypatch.setattr(lattice, "_CASES", tuple(
        row._replace(**{cell: recording((row.label, cell), getattr(row, cell))
                        for cell in ("p_map", "q_map", "pair_map") if getattr(row, cell)})
        for row in lattice._CASES))


def _spy(monkeypatch, name, calls, key):
    real = getattr(lattice, name)

    def recording(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(lattice, name, recording)


def test_verify_phi_calls_its_seams_once_per_word_and_target(monkeypatch):
    # the planted-fault tests patch the case table's map cells and
    # count_disjoint_pairs.  On sound maps every instance is checked word by
    # word: each word map sees every word of its case's domain pairs, at
    # most once per side (the P words of each (a, s), the Q words of each
    # (a, r)), the 2c head once per disjoint 2c domain pair, and
    # count_disjoint_pairs each target once; _phi_words, phi's lookup of a
    # pair's row, never runs
    cells = {(CASE_1, "q_map"), (CASE_2A, "p_map"), (CASE_2A, "q_map"), (CASE_2B, "p_map"),
             (CASE_2C, "pair_map")}
    calls, dispatched, counts = {}, [], []
    _spy_cells(monkeypatch, calls)
    _spy(monkeypatch, "_phi_words", dispatched, lambda *args: args)
    _spy(monkeypatch, "count_disjoint_pairs", counts, lambda spec: spec)
    for d in range(3, 9):
        calls.clear()
        counts.clear()
        report = verify_phi(d)
        assert report.all_ok and not dispatched and set(calls) <= cells
        made = {key: Counter((args[2], args[0]) if key[1] != "pair_map" else
                             (args[3], args[4], args[5], args[0], args[1])
                             for args in calls.get(key, ())) for key in cells}
        needed = {key: set() for key in cells}
        allowed = {key: Counter() for key in cells}
        for a in range(delta(d)):
            at = d + 1 - a
            for t in range(1, d):  # every t = d - s and u = t + 1 = d - r
                q1 = _family_paths(PathFamilySpec(a, a + 1, t, t + 1))[1]
                p2, q2 = _family_paths(PathFamilySpec(a + 1, at, t, t + 1))
                allowed[CASE_1, "q_map"].update((a, q) for q in q1)
                allowed[CASE_2B, "p_map"].update((a, p) for p in p2)
                allowed[CASE_2A, "p_map"].update((a, p) for p in p2 if p.startswith("N"))
                allowed[CASE_2A, "q_map"].update((a, q) for q in q2 if q.startswith("N"))
            for r, s in combinations(range(d), 2):
                needed[CASE_1, "q_map"] |= {(a, q) for _, q in
                                            disjoint_word_pairs(a, a + 1, d - s, d - r)}
                pairs = disjoint_word_pairs(a + 1, at, d - s, d - r)
                needed[CASE_2B, "p_map"] |= {(a, p) for p, q in pairs if q.startswith("E")}
                both_n = [(p, q) for p, q in pairs if p.startswith("N") and q.startswith("N")]
                needed[CASE_2A, "p_map"] |= {(a, p) for p, _ in both_n}
                needed[CASE_2A, "q_map"] |= {(a, q) for _, q in both_n}
                allowed[CASE_2C, "pair_map"].update(
                    (a, r, s, q, len(p) - len(p.lstrip("E")))
                    for p, q in pairs if p.startswith("E") and q.startswith("N"))
        needed[CASE_2C, "pair_map"] = set(allowed[CASE_2C, "pair_map"])
        for key in cells:
            assert needed[key] <= set(made[key]) and made[key] <= allowed[key], (d, key)
        targets = [PathFamilySpec(low, high, d - s, d - r)
                   for a in range(delta(d)) for r, s in combinations(range(d), 2)
                   for low, high in ((a, d - a), (d - a, d + 1 - a))]
        assert sorted(counts) == sorted(targets) and len(counts) == 2 * report.instances


def test_verify_phi_by_words_matches_the_pair_loop():
    for d in range(3, 11):
        report = verify_phi(d)
        assert report.all_ok and phi_by_pairs(d, _phi_words) == (report.pairs_checked, set(), [])
    for d in (11, 12):  # the oracle's pair loop takes seconds here; its pair count does not
        report = verify_phi(d)
        assert report.all_ok
        assert report.pairs_checked == sum(
            disjoint_pairs_by_levels(p, q, d - s, d - r)
            for a in range(delta(d)) for r, s in combinations(range(d), 2)
            for p, q in ((a, a + 1), (a + 1, d + 1 - a)))


def _sorted(word):
    # the same steps, E's first: the path below and right of the others
    return "".join(sorted(word))


def _head_with(p_head=None, q_bar=None):
    # subcase 2c's map with one of its two words rebuilt from the real ones
    def head(q, k, d, a, r, s):
        real = _head_2c(q, k, d, a, r, s)
        return (p_head or (lambda w, k, d, a: w))(real[0], k, d, a), (q_bar or str)(real[1])
    return head


def _both(word_map):
    return {"p_map": word_map, "q_map": word_map}


# each fault breaks one case's maps, cells of the case table; together they
# reach every check of the word-by-word path that no other check of it implies
_WORD_MAP_FAULTS = {
    "1-unlifted": (CASE_1, {"q_map": lambda q, d, a: q}),
    "1-colliding": (CASE_1, {"q_map": lambda q, d, a: "N" * (d - 1 - 2 * a) + _sorted(q)}),
    "1-unlifted-at-u3": (CASE_1, {
        "q_map": lambda q, d, a: "N" * (d - 1 - 2 * a) * (q.count("E") != 3) + q}),
    "2b-unlifted": (CASE_2B, {"p_map": lambda p, d, a: p}),
    "2b-unlifted-at-t2": (CASE_2B, {
        "p_map": lambda p, d, a: "N" * (d - 1 - 2 * a) * (p.count("E") != 2) + p}),
    "2a-kept": (CASE_2A, _both(lambda w, d, a: w)),
    "2a-colliding": (CASE_2A, _both(lambda w, d, a: _sorted(w[1:]))),
    "2c-one-E-short": (CASE_2C, {
        "pair_map": lambda q, k, d, a, r, s: _head_2c(q, k + 1, d, a, r, s)}),
    "2c-Q-off-target": (CASE_2C, {"pair_map": _head_with(q_bar=lambda w: w + "E")}),
    "2c-intersecting": (CASE_2C, {
        "pair_map": _head_with(q_bar=lambda w: "N" + w.replace("N", "", 1))}),
    "2c-anchored": (CASE_2C, {
        "pair_map": _head_with(p_head=lambda w, k, d, a: "N" * (d - 1 - 2 * a) + "E" * k)}),
    "2c-colliding": (CASE_2C, {"pair_map": _head_with(q_bar=_sorted)}),
}


# the faults whose flags verify_phi clears are all the oracle's.  In the
# others a lifted or dropped word is off its target, which the word path
# reports as such, while the pair loop also finds the image pair off the
# anchor or through it, or intersecting
_FAULTS_SEEN_ALIKE = {
    "1-colliding", "2a-colliding", "2c-one-E-short", "2c-Q-off-target", "2c-intersecting",
    "2c-anchored", "2c-colliding",
}


@pytest.mark.parametrize("fault", _WORD_MAP_FAULTS)
def test_a_planted_word_map_fault_falls_back_to_the_pair_loop(monkeypatch, fault):
    # verify_phi sees the fault, and clears only flags that the pair loop of
    # the oracle clears too, over d = 3..8 (the word path checks every word
    # of a side, so at d=3 it sees the 2a faults on words no disjoint pair uses)
    case, cells = _WORD_MAP_FAULTS[fault]
    _with_cells(monkeypatch, case, **cells)
    by_words, by_pairs = set(), set()
    for d in range(3, 9):
        report = verify_phi(d)
        pairs, cleared, _ = phi_by_pairs(d, lattice._phi_words)
        assert pairs == report.pairs_checked
        by_words |= {flag for flag in lattice._PHI_FLAGS if not getattr(report, flag)}
        by_pairs |= cleared
    assert by_words and by_words <= by_pairs
    if fault in _FAULTS_SEEN_ALIKE:
        assert by_words == by_pairs


def test_verify_phi_catches_an_anchored_2c_image(monkeypatch):
    # 2c's P head climbs the y-axis to the anchor before its E's, so the
    # word path, which checks 2c pair by pair, clears anchors_ok
    case, cells = _WORD_MAP_FAULTS["2c-anchored"]
    _with_cells(monkeypatch, case, **cells)
    report = verify_phi(6)
    assert not report.anchors_ok
    assert _messages(report) == {"case 2c anchor invariant broken", "image collision"}
    assert report.membership_ok and report.cases_partition and report.counts_consistent


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


def test_verify_phi_reports_a_negative_minor_whose_counts_balance(monkeypatch):
    # the minor of d=6, a=0, r=2, s=3 and its L(A-1, A) target both drop by
    # 176, so target total - domain size still equals the minor, now -1
    real_minor, real_count = lattice.phi_minor, lattice.count_disjoint_pairs
    instance, target = (6, 0, 1, 2, 3), PathFamilySpec(6, 7, 3, 4)
    assert real_minor(*instance) == real_count(target) == 175
    monkeypatch.setattr(
        lattice, "phi_minor", lambda *args: real_minor(*args) - 176 * (args == instance)
    )
    monkeypatch.setattr(
        lattice, "count_disjoint_pairs", lambda spec: real_count(spec) - 176 * (spec == target)
    )
    report = verify_phi(6)
    assert report.counts_consistent is False
    assert report.failures == (((0, 2, 3), "negative minor: -1"),)
    assert report.injective and report.cases_partition
    assert report.membership_ok and report.anchors_ok
