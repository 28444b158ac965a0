import tracemalloc
from itertools import combinations
from math import comb, prod
from operator import add

import pytest

from fvectors import minors
from fvectors.minors import (
    MinorReport, phi_minor, verify_lemma3, verify_total_nonnegativity,
)
from fvectors.transforms import build_md, delta

from deadline import timed
from oracles import (
    bareiss_det, fold_orders, laplace_scan, md_by_closed_form, minors_by_order,
    two_by_two_scan,
)


def _expected_reports(d, per_order):
    """The MinorReport of every max_order in 1..delta+1 and "all", from an
    oracle's per-order (count, least minor, witness)."""
    top = delta(d) + 1
    for max_order in [*range(1, top + 1), "all"]:
        k = top if max_order == "all" else max_order
        checked, low, witness = fold_orders(per_order[:k])
        order = "all" if k == top else k
        yield max_order, MinorReport(d, order, checked, low, witness, low >= 0)


@pytest.mark.parametrize("d", range(3, 11))
def test_scan_matches_cofactor_oracle(d):
    per_order = minors_by_order(md_by_closed_form(d))
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order


@pytest.mark.parametrize("d", range(11, 14))
def test_scan_matches_bareiss_scan(d):
    # the k-major scan taking a Bareiss det of every submatrix, which is
    # how verify_total_nonnegativity computed its minors before the
    # Laplace scanner
    per_order = minors_by_order(build_md(d), bareiss_det)
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order


def test_lemma3_matches_direct_2x2_oracle():
    for d in range(3, 31):
        checked, low, witness = two_by_two_scan(md_by_closed_form(d))
        assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, low >= 0)


def test_total_nonnegativity_d14_exhaustive():
    report = timed(verify_total_nonnegativity, 14, seconds=5)
    # every minor of every order of the 8 x 14 matrix M_14
    assert report.minors_checked == 319769 == comb(22, 8) - 1
    assert report.all_nonnegative


def _planted(d, i, j, value):
    md = md_by_closed_form(d)
    md[i][j] = value
    return tuple(map(tuple, md))


def test_scanner_reports_planted_negative_entry(monkeypatch):
    d = 9
    planted = _planted(d, 2, 3, -5)
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    entries = verify_total_nonnegativity(d, 1)
    assert not entries.all_nonnegative
    assert (entries.min_value, entries.min_witness) == (-5, ((2,), (3,)))
    per_order = minors_by_order(planted)
    for max_order, expected in _expected_reports(d, per_order):
        report = verify_total_nonnegativity(d, max_order)
        assert report == expected and not report.all_nonnegative, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert low < 0
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_scanner_reports_negative_minor_of_top_order_only(monkeypatch):
    # m[0][1] of M_6 raised from 21 to 22: every minor of orders 1-3 stays
    # nonnegative, and only the deepest Laplace level goes negative
    d = 6
    planted = _planted(d, 0, 1, 22)
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted)
    assert [low for _, low, _ in per_order] == [0, 0, 0, -6]
    for max_order, expected in _expected_reports(d, per_order):
        report = verify_total_nonnegativity(d, max_order)
        assert report == expected, max_order
        assert report.all_nonnegative == (max_order in (1, 2, 3)), max_order
    checked, low, witness = two_by_two_scan(planted)
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, True)


def test_scanner_keeps_the_first_of_tied_top_order_minima(monkeypatch):
    # rows 2 and 3 of M_6 both made (0, 1, 15, 10, 9, 3): the least minors of
    # orders 2 and 3 are negative, each met on a row set holding row 2 and
    # again with row 3 in its place, so a scan whose top order leaves out a
    # row meets the tie there and must keep the first row set as witness
    d = 6
    planted = _planted(d, 2, 2, 15)
    planted = planted[:3] + planted[2:3]
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted)
    ties = [(((0, 2), (2, 3)), ((0, 3), (2, 3))),
            (((0, 1, 2), (1, 2, 3)), ((0, 1, 3), (1, 2, 3)))]
    for (_, low, witness), (first, second) in zip(per_order[1:3], ties):
        rows, cols = second
        assert low < 0 and witness == first
        assert bareiss_det([[planted[i][j] for j in cols] for i in rows]) == low
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert (low, witness) == (-175, ties[0][0])
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_phi_minor_examples():
    assert phi_minor(10, 0, 1, 0, 1) == 55  # 11*10 - 55*1
    assert phi_minor(10, 2, 3, 2, 3) == 36  # 9*8 - 36*1


def test_phi_minor_rejects_bad_indices():
    with pytest.raises(ValueError):
        phi_minor(10, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        phi_minor(10, 0, 1, 2, 2)
    with pytest.raises(ValueError):
        phi_minor(10, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        phi_minor(10, 0, 9, 0, 1)  # row beyond delta


def test_verify_lemma3_counts():
    report = verify_lemma3(10)
    assert report.minors_checked == 15 * 45 == 675
    assert report.all_nonnegative

    report = verify_lemma3(3)
    assert report.minors_checked == 3
    assert report.all_nonnegative


def test_verify_lemma3_range():
    for d in range(3, 31):
        report = verify_lemma3(d)
        assert report.all_nonnegative, (d, report.min_witness)
        assert report.min_value >= 0


def test_total_nonnegativity_d3_by_hand():
    # all minors of [[4,6,4],[1,3,2]]: six entries plus the three 2x2
    # determinants 6, 4, 0
    report = verify_total_nonnegativity(3)
    assert report.minors_checked == 6 + 3
    assert report.all_nonnegative
    assert report.min_value == 0
    md = build_md(3)
    dets = [bareiss_det([[md[0][c1], md[0][c2]], [md[1][c1], md[1][c2]]])
            for c1, c2 in combinations(range(3), 2)]
    assert sorted(dets) == [0, 4, 6]


def test_total_nonnegativity_small_range():
    for d in range(3, 10):
        report = verify_total_nonnegativity(d)
        assert report.all_nonnegative


def test_order2_matches_lemma3():
    for d in (4, 7, 10, 13):
        full = verify_lemma3(d)
        dl = delta(d)
        md = build_md(d)
        order2 = verify_total_nonnegativity(d, 2)
        # same 2x2 minimum (order-2 scan also includes 1x1 minors)
        min_2x2 = min(
            phi_minor(d, a, b, r, s)
            for a, b in combinations(range(dl + 1), 2)
            for r, s in combinations(range(d), 2)
        )
        assert full.min_value == min_2x2
        entries_min = min(min(row) for row in md)
        assert order2.min_value == min(min_2x2, entries_min)


def test_minor_count_formula():
    from fvectors.exact import binomial

    for d in (5, 9, 13):
        dl = delta(d)
        report = verify_total_nonnegativity(d)
        assert report.minors_checked == sum(
            binomial(dl + 1, k) * binomial(d, k) for k in range(1, dl + 2)
        )


def test_max_order_truncation():
    r1 = verify_total_nonnegativity(11, 1)
    assert r1.order == 1
    md = build_md(11)
    assert r1.minors_checked == len(md) * len(md[0])
    assert r1.min_value == min(min(row) for row in md)


def test_scans_give_the_same_reports_when_repeated():
    cases = ([(verify_total_nonnegativity, d) for d in range(3, 13)]
             + [(verify_lemma3, d) for d in range(3, 31)])
    first = [repr(scan(d)) for scan, d in cases]
    assert [repr(scan(d)) for scan, d in cases] == first


def test_scans_give_the_same_reports_with_max_orders_interleaved():
    d = 11
    orders = [*range(1, delta(d) + 3), "all"]  # 7 > delta + 1 scans every order
    first = {order: repr(verify_total_nonnegativity(d, order)) for order in orders}
    lemma3 = repr(verify_lemma3(d))
    for order in ["all", 2, 6, 1, 3, "all", 5, 2, 4, 7, 1]:
        assert repr(verify_total_nonnegativity(d, order)) == first[order], order
        assert repr(verify_lemma3(d)) == lemma3


@pytest.mark.parametrize("d", [14, 15])
def test_scan_matches_depth_first_laplace_oracle(d):
    md = md_by_closed_form(d)
    per_order = laplace_scan(md, range(1, delta(d) + 2))
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    # below delta + 1 the scan holds its top order as partial blocks, each
    # row set tested at its last parent; at d = 14 the oracle also stops at
    # each such order (at d = 15 that would add about a second)
    for max_order in range(1, delta(d) + 1) if d == 14 else ():
        checked, low, witness = fold_orders(laplace_scan(md, range(1, max_order + 1)))
        expected = MinorReport(d, max_order, checked, low, witness, low >= 0)
        assert verify_total_nonnegativity(d, max_order) == expected, max_order


def test_lemma3_matches_depth_first_laplace_oracle_d31_to_40():
    for d in range(31, 41):
        [(checked, low, witness)] = laplace_scan(md_by_closed_form(d), range(2, 3))
        assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, low >= 0), d


@pytest.mark.parametrize("i, j, value", [
    (1, 0, -4),  # column 0: a negative entry
    (2, 0, 1),  # column 0: negative minors of orders 2-4 only
    (0, 8, 19),  # column d-1: negative minors of orders 2 and 4 only
    (4, 4, 7),  # the last row: negative minors of orders 3-5 only
    (4, 8, 3),  # the last row and column: every minor stays nonnegative
])
def test_scanner_reports_planted_faults_at_block_edges(monkeypatch, i, j, value):
    # the scan packs the column sets from the right, so columns 0 and d-1
    # sit at the ends of its blocks, and a parent is dropped after the child
    # that adds the last row
    d = 9
    planted = _planted(d, i, j, value)
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted, bareiss_det)
    assert all(low >= 0 for _, low, _ in per_order) == (value == 3)
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, low >= 0)


def test_scanner_reads_cells_near_the_width_bound(monkeypatch):
    # a scaled 4 x 4 Hadamard matrix in columns 0, 2, 4 and 6, small mixed
    # signs between: its least top-order minor, -16a^4, nearly attains the
    # Hadamard bound, so cells and the least minor reach the test's edge
    d, a = 7, 1 << 12
    signs = [(1, 1, 1, -1), (1, -1, 1, 1), (1, 1, -1, 1), (1, -1, -1, -1)]
    small = [(3, -1, 2), (-2, 0, 1), (1, 2, -3), (0, -1, -1)]
    planted = tuple((a * h0, s0, a * h1, s1, a * h2, s2, a * h3)
                    for (h0, h1, h2, h3), (s0, s1, s2) in zip(signs, small))
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    squares = [sum(x * x for x in row) for row in planted]
    w = (prod(squares).bit_length() + 1) // 2 + 2  # the scan's cell width
    per_order = minors_by_order(planted, bareiss_det)
    assert -per_order[-1][1] >= 1 << w - 4
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_lemma3_reads_cells_at_the_width_bound(monkeypatch):
    # rows with two entries +-a: each 2x2 minor on columns 0, 1 is +-2a^2,
    # the Hadamard bound itself, and rows (0, 1) set the least minor -2a^2
    # before rows (1, 2) meet +2a^2, so one bit less of width would carry
    d, a = 5, 1 << 10
    planted = ((a, a, 0, 0, 0), (a, -a, 0, 0, 0), (a, a, 0, 0, 0))
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    checked, low, witness = two_by_two_scan(planted)
    assert (low, witness) == (-2 * a * a, ((0, 1), (0, 1)))
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_scanner_width_covers_lower_orders_past_a_zero_row(monkeypatch):
    # a zero row's squared norm is 0: taken as it is, the width's product
    # over the top order would be 0 and leave no room for the 2x2 minors
    d = 5
    planted = ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (0, 0, 0, 0, 0))
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted, bareiss_det)
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_scanner_keeps_the_first_of_tied_minima_within_a_row_set(monkeypatch):
    # column 4 of M_6 a copy of column 3 and m[0][2] negated: the least 2x2
    # minor, on rows (0, 1), is met on columns (2, 3) and again on (2, 4)
    d = 6
    planted = [list(row) for row in _planted(d, 0, 2, -35)]
    for row in planted:
        row[4] = row[3]
    planted = tuple(map(tuple, planted))
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted, bareiss_det)
    assert per_order[1][1:] == (-1225, ((0, 1), (2, 3)))
    assert bareiss_det([[planted[i][j] for j in (2, 4)] for i in (0, 1)]) == -1225
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_scanner_keeps_the_first_of_tied_minima_completed_out_of_order(monkeypatch):
    # m[3][4] of M_6 raised from 3 to 13 and m[2][2] from 5 to 11: the least
    # 2x2 minor, -70, lies on rows (0, 3), columns (4, 5), and again on rows
    # (1, 2), columns (2, 3).  The scan completes (1, 2) at its parent (2),
    # before (0, 3) at (3), and there on an earlier column set, so only the
    # tie rule keeps (0, 3)
    d = 6
    planted = [list(row) for row in _planted(d, 3, 4, 13)]
    planted[2][2] = 11
    planted = tuple(map(tuple, planted))
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted, bareiss_det)
    assert per_order[1][1:] == (-70, ((0, 3), (4, 5)))
    assert bareiss_det([[planted[i][j] for j in (2, 3)] for i in (1, 2)]) == -70
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert (low, witness) == (-70, ((0, 3), (4, 5)))
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, False)


def test_scanner_keeps_the_first_of_tied_order_3_minima_completed_out_of_order(monkeypatch):
    # M_8 with m[3][4] raised from 15 to 17, then rows 0 and 4 made copies
    # of rows 2 and 1: rows (0, 3, 4) and (2, 3, 4) are rows (1, 2, 3)
    # cyclically permuted, so the three hold the same 3x3 minors, whose
    # least, -1078, is below every entry and 2x2 minor.  The scan completes
    # (1, 2, 3) at its parent (2, 3), before (0, 3, 4) at (3, 4)
    d = 8
    planted = _planted(d, 3, 4, 17)
    planted = planted[2:3] + planted[1:4] + planted[1:2]
    monkeypatch.setattr(minors, "build_md", lambda _: planted)
    per_order = minors_by_order(planted, bareiss_det)
    low, (rows, cols) = per_order[2][1:]
    assert low == -1078 and rows == (0, 3, 4) and min(per_order[0][1], per_order[1][1]) > low
    assert bareiss_det([[planted[i][j] for j in cols] for i in (1, 2, 3)]) == low
    for max_order, expected in _expected_reports(d, per_order):
        assert verify_total_nonnegativity(d, max_order) == expected, max_order
    checked, low, witness = two_by_two_scan(planted)
    assert verify_lemma3(d) == MinorReport(d, 2, checked, low, witness, low >= 0)


@pytest.mark.parametrize("max_order", ["all", 5, 7])
def test_scan_frees_each_parent_once_scattered(max_order):
    # the scan keeps order k-1's blocks while it builds order k's, and below
    # delta + 1 it holds the top order as partial blocks; freeing each parent
    # once its terms are scattered to its children keeps its peak below the
    # bytes of two whole adjacent orders' cells at its width w (an all-order
    # scan's top order is one row set).  At d = 15 the peak is 2.3 MB
    # against 3.5 MB for all orders, 1.3 against 2.2 MB for max order 5 and
    # 2.1 against 3.2 MB for 7; keeping every parent peaks at 3.9, 1.7 and
    # 3.6 MB, past the bound but at max order 5
    d = 15
    md = build_md(d)
    n = len(md)
    top = n if max_order == "all" else max_order
    squares = sorted(sum(x * x for x in row) for row in md)
    w = (prod(squares[n - top:]).bit_length() + 1) // 2 + 2
    cells = [comb(n, k) * comb(d, k) for k in range(1, top + 1)]
    two_orders = max(map(add, cells, cells[1:])) * w // 8
    verify_total_nonnegativity(3)
    tracemalloc.start()
    try:
        verify_total_nonnegativity(d, max_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < two_orders


def test_total_nonnegativity_d16_within_a_second():
    report = timed(verify_total_nonnegativity, 16, seconds=1)
    assert report.minors_checked == sum(comb(9, k) * comb(16, k) for k in range(1, 10))
    assert report.all_nonnegative


def test_step1_ratio_equiv():
    # the reduction to consecutive-row ratios: every 2x2 minor of M_d is
    # nonnegative, and for each column pair the consecutive-row minors being
    # nonnegative carries over to every row pair
    for d in range(3, 14):
        report = verify_lemma3(d)
        assert report.all_nonnegative, (d, report.min_witness)
        dl = delta(d)
        for r, s in combinations(range(d), 2):
            if all(phi_minor(d, a, a + 1, r, s) >= 0 for a in range(dl)):
                for a, b in combinations(range(dl + 1), 2):
                    assert phi_minor(d, a, b, r, s) >= 0, (d, a, b, r, s)


def test_step1_composition_witness():
    # nonnegativity of the (0,2) minor follows from the two consecutive
    # minors via cross-multiplication transitivity; check the arithmetic
    d, r, s = 10, 0, 1
    md = build_md(d)
    assert phi_minor(d, 0, 1, r, s) >= 0
    assert phi_minor(d, 1, 2, r, s) >= 0
    # compose: m[0][r]*m[1][s] >= m[0][s]*m[1][r] and
    #          m[1][r]*m[2][s] >= m[1][s]*m[2][r]
    lhs = md[0][r] * md[1][s] * md[1][r] * md[2][s]
    rhs = md[0][s] * md[1][r] * md[1][s] * md[2][r]
    assert lhs >= rhs
    assert phi_minor(d, 0, 2, r, s) >= 0
