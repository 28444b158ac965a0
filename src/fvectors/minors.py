"""Minor scans of the M_d matrix.

All 2x2 minors of M_d are nonnegative, which is what drives the ratio
chain behind the comparison theorem.  M_d is in fact totally nonnegative
(all minors of all orders), as the paper conjectured and Björklund and
Engström proved ("The g-theorem matrices are totally nonnegative",
J. Combin. Theory Ser. A 116 (2009)); this module verifies both claims
at finite scale with one exact minor scanner.

At even d, M_d has rank delta, one less than its delta+1 rows, so every
(delta+1)-order minor is 0; an all-order scan computes these zeros too
(43,758 of the 13,123,109 minors at d = 18), as skipping them would save
little.

The scan keeps nothing between calls and holds at most two orders' packed
minors at a time: a cold all-order scan peaks at about 88, 140 and 547 MB
of RSS at d = 18, 19 and 20, growing about 6x per step of 2 in d.
"""

from itertools import accumulate, combinations, islice
from math import comb, prod
from operator import add, and_, eq, lshift, mul, sub
from typing import NamedTuple, Optional, Union

from .exact import int_entries
from .transforms import _md_column, build_md, check_dim, check_rs, delta


class MinorReport(NamedTuple):
    d: int
    order: Union[int, str]  # k of the scanned k x k minors, or "all"
    minors_checked: int
    min_value: Optional[int]
    min_witness: Optional[tuple]  # (row index tuple, column index tuple)
    all_nonnegative: bool


def phi_minor(d: int, a: int, b: int, r: int, s: int) -> int:
    """The 2x2 minor of M_d on rows {a, b} and columns {r, s}:
    m[a][r]*m[b][s] - m[a][s]*m[b][r]."""
    check_rs(d, r, s, a, b)
    dl = delta(d)
    if not 0 <= a < b <= dl:
        raise ValueError(f"need 0 <= a < b <= {dl}, got a={a}, b={b}")
    cr, cs = _md_column(d, r), _md_column(d, s)
    return cr[a] * cs[b] - cs[a] * cr[b]


def _scan(d: int, orders: range):
    """Every k x k minor of M_d for k in orders, scanned breadth-first over
    the orders.  Returns (minors checked, minimum, witness); ties go to the
    lowest order, then the first row set, then the first column set.

    Rows are read reversed, m'[r][c] = m[r][d-1-c], so that colex order of
    the indices is reverse lexicographic order of M_d's column sets.  A row
    set R of size k holds its k x k minors as d ints: block c packs
    det(R, C) for the C with last index c, in colex order of the other k-1
    (the (k-1)-subsets of range(c)), each in a signed w-bit cell; laid end
    to end, sum_c block_c << w*C(c, k) holds all of R's minors in colex
    order.  Order 1's blocks are the entries.  Laplace expansion along the
    last index, M_d's first column of C, gives order k from order k-1 with
    no minor touched one at a time:

        block_c(R) = sum_i (-1)^i m'[r_i][c] * P_i[c],
        P_i[c] = sum_{c' < c} block_c'(R - r_i) << w*C(c', k-1),

    P_i[c], a running prefix of a parent's blocks, being its minors on the
    (k-1)-subsets of range(c).  The parents are walked in lexicographic
    order; each one's prefixes are built once and scattered: the term of
    every child R = parent + r goes into R's partial blocks, which hold
    (-1)^(k-1) times the terms so far, so that no list is ever negated.
    The parent is then freed.  R is complete at its last parent, R - r_0,
    that is when the row added lies below the parent's first; only then is
    it tested and, below the top order, kept.  So the top order's partials
    live from their first parent to their last, and the row sets of an
    order complete out of lexicographic order: (1, 2) before (0, 3).

    w = ceil(bits(S) / 2) + 2, S the product of the top order's largest
    squared row norms, each at least 1 so that S bounds the lower orders
    too: by Hadamard's inequality every cell v has
    v^2 <= S < 2^bits(S), so |v| < 2^(w-2), and so has t, the least minor so
    far (at first 2^(w-2) - 1, above them all).  lifts[c], 2^(w-1) - t in
    each cell of block c, makes cell v read v - t + 2^(w-1), in [2, 2^w): a
    base-2^w digit, so no cell borrows from or carries into the next, and
    its top bit (tops[c] holds them) is set exactly when v >= t.  So one
    test per block shows that no cell lies below t.  A row set that
    completes after the witness's of its order but precedes it
    lexicographically is tested against t + 1 instead (cells in [1, 2^w)),
    so that a tie goes to it.  Only a row set that fails the test is
    decoded, from its binary string: that reads the cells top first, in
    lexicographic order, so the first least one is the witness.
    """
    md = build_md(d)
    n, top = len(md), orders[-1]
    squares = sorted(sum(map(mul, row, row)) or 1 for row in md)  # a zero row counts 1
    w = (prod(squares[n - top:]).bit_length() + 1) // 2 + 2
    half = 1 << w - 1
    reversed_rows = [row[::-1] for row in md]
    if orders[0] == 1:  # order 1: the entries, by row then column
        t = min(map(min, md))
        r = next(r for r, row in enumerate(md) if t in row)
        best = (r,), md[r].index(t), 1
    else:
        t = (1 << w - 2) - 1
    level = dict(zip(combinations(range(n), 1), reversed_rows))
    ones, shifts, sign = [1] * d, range(0, w * d, w), (add, sub)
    for k in range(2, top + 1):
        # ones[c]: a one in each of block c's C(c, k-1) cells
        ones = list(accumulate(map(lshift, ones, shifts), initial=0))[:d]
        parent_shifts, shifts = shifts, list(accumulate(shifts, initial=0))[:d]
        tops = [one << w - 1 for one in ones]
        lifts = [(half - t) * one for one in ones]
        # term i joins a partial with sign (-1)^(k-1-i); mark: the witness's rows at order k
        children, mark = {}, ()
        for parent in combinations(range(n), k - 1):
            prefixes = list(accumulate(map(lshift, level.pop(parent), parent_shifts), initial=0))
            for r in range(parent[-1] + 1, n):  # the child's first parent
                children[parent + (r,)] = list(map(mul, reversed_rows[r], prefixes))
            for i in range(1, k - 1):
                for r in range(parent[i - 1] + 1, parent[i]):
                    rows = parent[:i] + (r,) + parent[i:]
                    children[rows] = list(map(sign[(k - 1 - i) % 2], children[rows],
                                              map(mul, reversed_rows[r], prefixes)))
            for r in range(parent[0]):  # the child's last parent
                rows = (r,) + parent
                blocks = list(map(sign[(k - 1) % 2], map(mul, reversed_rows[r], prefixes),
                                  children.pop(rows)))
                lift = list(map(sub, lifts, ones)) if rows < mark else lifts
                if not all(map(eq, map(and_, map(add, blocks, lift), tops), tops)):
                    lifted = map(lshift, map(add, blocks, lift), shifts)
                    bits = format(sum(lifted), "b").zfill(w * comb(d, k))
                    cells = [bits[j:j + w] for j in range(0, len(bits), w)]
                    low = min(cells)  # equal widths: as strings as by value
                    t += int(low, 2) - half + (lift is not lifts)
                    best, mark = (rows, cells.index(low), k), rows
                    lifts = [(half - t) * one for one in ones]
                if k < top:
                    children[rows] = blocks
        level = children
    checked = sum(comb(n, j) * comb(d, j) for j in orders)
    rows, rank, k = best
    return checked, t, (rows, next(islice(combinations(range(d), k), rank, None)))


def verify_lemma3(d: int) -> MinorReport:
    """Scan every 2x2 minor of M_d and report the minimum found."""
    check_dim(d)
    checked, min_value, min_witness = _scan(d, range(2, 3))
    return MinorReport(d, 2, checked, min_value, min_witness, min_value >= 0)


def verify_total_nonnegativity(d: int, max_order: Union[int, str] = "all") -> MinorReport:
    """Compute every k x k minor of M_d for k up to max_order (or all
    possible orders) exactly; report minimum and witness.

    A negative minor would be a counterexample to total nonnegativity and
    is reported, never raised.
    """
    check_dim(d)
    dl = delta(d)
    if max_order != "all":
        int_entries((max_order,), "parameters")
    top = dl + 1 if max_order == "all" else min(max_order, dl + 1)
    if top < 1:
        raise ValueError(f"max_order must be >= 1 or 'all', got {max_order!r}")
    checked, min_value, min_witness = _scan(d, range(1, top + 1))
    order = "all" if max_order == "all" or top == dl + 1 else top
    return MinorReport(d, order, checked, min_value, min_witness, min_value >= 0)

