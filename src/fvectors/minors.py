"""Minor scans of the M_d matrix.

All 2x2 minors of M_d are nonnegative, which is what drives the ratio
chain behind the comparison theorem.  M_d is in fact totally nonnegative
(all minors of all orders), as the paper conjectured and Björklund and
Engström proved ("The g-theorem matrices are totally nonnegative",
J. Combin. Theory Ser. A 116 (2009)); this module verifies both claims
at finite scale with one exact minor scanner.
"""

from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations
from operator import add, itemgetter, mul
from typing import Optional, Union

from .exact import int_entries
from .transforms import build_md, check_dim, check_rs, delta


@dataclass(frozen=True)
class MinorReport:
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
    md = build_md(d)
    return md[a][r] * md[b][s] - md[a][s] * md[b][r]


_add_each = partial(map, add)


def _column_level(d: int, k: int):
    """The k-subsets C of range(d), in lexicographic order, as their
    bitmasks and their Laplace terms by position j = 0..k-1.  Position j
    holds two getters: one picks from a signed row (the row followed by
    its negation) the entry of column c_j of every C with the sign
    (-1)^(k-1-j); the other picks from a dict of order-(k-1) minors the
    minor on C minus c_j.  Each picks C(d, k) >= 2 items, so it returns a
    tuple."""
    subsets = list(combinations(range(d), k))
    masks = tuple(sum(1 << c for c in cols) for cols in subsets)
    terms = [
        (
            itemgetter(*(cols[j] + (d if (k - 1 - j) % 2 else 0) for cols in subsets)),
            itemgetter(*(mask ^ (1 << cols[j]) for cols, mask in zip(subsets, masks))),
        )
        for j in range(k)
    ]
    return masks, terms


def _scan(d: int, orders: range):
    """Every k x k minor of M_d for k in orders, found depth-first over the
    row sets in lexicographic order.

    The minors on rows R + (r,) come from the minors of the parent row set
    R by Laplace expansion along the new last row r:

        det(R + r, C) = sum_j (-1)^(k-1-j) m[r][c_j] * det(R, C - c_j).

    A row set's minors live in a dict keyed by column bitmask only while
    its descendants are scanned, so at most sum_k C(d, k) ints are held.
    Returns (minors checked, minimum, witness): ties are broken on
    (k, rows, cols), the first minimum of a k-major lexicographic scan.
    """
    signed_rows = [row + tuple(-x for x in row) for row in build_md(d)]
    top = orders[-1]
    table = {k: _column_level(d, k) for k in range(1, top + 1)}
    checked = 0
    best = None  # least (value, k, rows, index of the columns in table[k])

    def visit(rows, parent, k):
        nonlocal checked, best
        masks, terms = table[k]
        for r in range(rows[-1] + 1 if rows else 0, len(signed_rows)):
            row = signed_rows[r]
            values = list(reduce(_add_each, [
                map(mul, entries(row), minors(parent)) for entries, minors in terms
            ]))
            child_rows = rows + (r,)
            if k in orders:
                checked += len(values)
                low = min(values)
                node_best = (low, k, child_rows, values.index(low))
                if best is None or node_best < best:
                    best = node_best
            if k < top:
                visit(child_rows, dict(zip(masks, values)), k + 1)

    visit((), {0: 1}, 1)  # the empty minor is 1
    value, k, rows, index = best
    mask = table[k][0][index]
    return checked, value, (rows, tuple(c for c in range(d) if mask >> c & 1))


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

