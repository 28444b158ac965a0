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


def test_case_dispatch_is_partition():
    # every domain element matches exactly one of the four case predicates
    # (verify_phi checks the word maps but never runs this dispatch)
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


def test_verify_phi_catches_image_collision(monkeypatch):
    # case 1's Q map sorts Q's steps, E's first: every Q becomes the path
    # below and right of every P, so the pairs that share a P share an image.
    # verify_phi sees each unsorted Q word's image off its word; pair by
    # pair, the oracle sees the collisions
    real = lattice._lift_q
    monkeypatch.setattr(lattice, "_lift_q", lambda q, d, a: real("".join(sorted(q)), d, a))
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
    monkeypatch.setattr(lattice, "_lift_q", lambda q, d, a: "N" * (d - 2 * a) + q)
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
    monkeypatch.setattr(lattice, "_lift_q", lambda q, d, a: q)
    report = verify_phi(6)
    assert not report.membership_ok
    assert "case 1 image in wrong family" in _messages(report)
    assert report.cases_partition and report.injective


def test_verify_phi_catches_broken_anchor(monkeypatch):
    # case 1 is relabelled 2a: the same words land in the same target, but
    # the anchor (0, -a-1) lies on them, which case 2a must avoid.  Case 1
    # maps onto every pair of its target through the anchor, so no fault of
    # a word map moves the anchor alone: the label is planted in the map
    # the oracle checks pair by pair.  verify_phi checks the word maps,
    # which the relabelling leaves as they are
    real = lattice._phi_words

    def relabelled(first, p_steps, q_steps, d, a, r, s):
        case, image_pw, image_qw = real(first, p_steps, q_steps, d, a, r, s)
        return (CASE_2A if case == CASE_1 else case), image_pw, image_qw

    monkeypatch.setattr(lattice, "_phi_words", relabelled)
    report = verify_phi(6)
    assert report.all_ok
    pairs, cleared, failures = phi_by_pairs(6, lattice._phi_words)
    assert pairs == report.pairs_checked and cleared == {"anchors_ok"}
    assert [message for _, message in failures] == ["case 2a anchor invariant broken"] * 7


def test_the_word_path_rests_on_shared_dicts_and_an_axis_through_the_anchor():
    # the facts that let the word-by-word path of verify_phi skip checks:
    # the climbed axis it reads is the one all-N path from (0, 1-A) to the
    # anchor, case 1's P words and 2b's Q words are their targets' own and
    # miss that axis, and no 2a image can hold the anchor
    for d in range(3, 13):
        for a in range(delta(d)):
            at = d + 1 - a
            anchor = _mask((0, -a - 1))
            word = "N" * (d - 1 - 2 * a)
            [(axis_word, axis)] = _paths_with_masks((0, 1 - at), (0, -a - 1)).items()
            assert axis_word == word
            assert axis == _mask(*path_vertices((0, 1 - at), word))
            assert axis & anchor
            for r, s in combinations(range(d), 2):
                t, u = d - s, d - r
                p1 = _family_paths(PathFamilySpec(a, a + 1, t, u))[0]
                q2 = _family_paths(PathFamilySpec(a + 1, at, t, u))[1]
                low_p = _family_paths(PathFamilySpec(a, at - 1, t, u))[0]
                high_q = _family_paths(PathFamilySpec(at - 1, at, t, u))[1]
                assert p1 is low_p and q2 is high_q
                assert not any(m & axis for m in p1.values())
                assert not any(m & axis for w, m in q2.items() if w.startswith("E"))
                assert not any(m & anchor for m in low_p.values())
                q2_north = [m for w, m in q2.items()
                            if w.startswith("N") and not w.startswith("N" * (d - 2 * a))]
                assert not any(m & anchor for m in q2_north)


def _spy(monkeypatch, name, calls, key):
    real = getattr(lattice, name)

    def recording(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(lattice, name, recording)


def test_verify_phi_calls_its_seams_once_per_word_and_target(monkeypatch):
    # the planted-fault tests patch the word maps and count_disjoint_pairs.
    # On sound maps every instance is checked word by word: each map sees
    # every word of its case's domain pairs, at most once per side (the P
    # words of each (a, s), the Q words of each (a, r)), the 2c head once
    # per disjoint 2c domain pair, and count_disjoint_pairs each target
    # once; _phi_words, the dispatch of phi, never runs
    calls = {name: [] for name in ("_lift_q", "_lift_p", "_drop", "_head_2c", "_phi_words")}
    _spy(monkeypatch, "_lift_q", calls["_lift_q"], lambda q, d, a: (a, q))
    _spy(monkeypatch, "_lift_p", calls["_lift_p"], lambda p, d, a: (a, p))
    _spy(monkeypatch, "_drop", calls["_drop"], lambda w: w)
    _spy(monkeypatch, "_head_2c", calls["_head_2c"], lambda q, k, d, a, r, s: (a, r, s, q, k))
    _spy(monkeypatch, "_phi_words", calls["_phi_words"], lambda *args: args)
    counts = []
    _spy(monkeypatch, "count_disjoint_pairs", counts, lambda spec: spec)
    for d in range(3, 9):
        for recorded in (*calls.values(), counts):
            recorded.clear()
        report = verify_phi(d)
        assert report.all_ok and not calls["_phi_words"]
        needed = {name: set() for name in calls}
        allowed = {name: Counter() for name in calls}
        for a in range(delta(d)):
            at = d + 1 - a
            for t in range(1, d):  # every t = d - s and u = t + 1 = d - r
                q1 = _family_paths(PathFamilySpec(a, a + 1, t, t + 1))[1]
                p2, q2 = _family_paths(PathFamilySpec(a + 1, at, t, t + 1))
                allowed["_lift_q"].update((a, q) for q in q1)
                allowed["_lift_p"].update((a, p) for p in p2)
                allowed["_drop"].update(w for w in (*p2, *q2) if w.startswith("N"))
            for r, s in combinations(range(d), 2):
                needed["_lift_q"] |= {(a, q) for _, q in disjoint_word_pairs(a, a + 1, d - s, d - r)}
                pairs = disjoint_word_pairs(a + 1, at, d - s, d - r)
                needed["_lift_p"] |= {(a, p) for p, q in pairs if q.startswith("E")}
                needed["_drop"] |= {w for p, q in pairs if p.startswith("N") and q.startswith("N")
                                    for w in (p, q)}
                allowed["_head_2c"].update((a, r, s, q, len(p) - len(p.lstrip("E")))
                                           for p, q in pairs if p.startswith("E") and q.startswith("N"))
        needed["_head_2c"] = set(allowed["_head_2c"])
        for name in ("_lift_q", "_lift_p", "_drop", "_head_2c"):
            made = Counter(calls[name])
            assert needed[name] <= set(made) and made <= allowed[name], (d, name)
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


# each fault breaks one case's word map; together they reach every check of
# the word-by-word path that no other check of it implies
_WORD_MAP_FAULTS = {
    "1-unlifted": ("_lift_q", lambda q, d, a: q),
    "1-colliding": ("_lift_q", lambda q, d, a: "N" * (d - 1 - 2 * a) + _sorted(q)),
    "1-unlifted-at-u3": ("_lift_q", lambda q, d, a: "N" * (d - 1 - 2 * a) * (q.count("E") != 3) + q),
    "2b-unlifted": ("_lift_p", lambda p, d, a: p),
    "2b-unlifted-at-t2": ("_lift_p", lambda p, d, a: "N" * (d - 1 - 2 * a) * (p.count("E") != 2) + p),
    "2a-kept": ("_drop", lambda w: w),
    "2a-colliding": ("_drop", lambda w: _sorted(w[1:])),
    "2c-one-E-short": ("_head_2c", lambda q, k, d, a, r, s: _head_2c(q, k + 1, d, a, r, s)),
    "2c-Q-off-target": ("_head_2c", _head_with(q_bar=lambda w: w + "E")),
    "2c-intersecting": ("_head_2c", _head_with(q_bar=lambda w: "N" + w.replace("N", "", 1))),
    "2c-anchored": ("_head_2c", _head_with(p_head=lambda w, k, d, a: "N" * (d - 1 - 2 * a) + "E" * k)),
    "2c-colliding": ("_head_2c", _head_with(q_bar=_sorted)),
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
    monkeypatch.setattr(lattice, *_WORD_MAP_FAULTS[fault])
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
    monkeypatch.setattr(lattice, *_WORD_MAP_FAULTS["2c-anchored"])
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
