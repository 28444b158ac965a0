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
"""

from functools import lru_cache, partial, reduce
from itertools import combinations, islice, repeat
from operator import add, itemgetter, mul, sub
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


_add_each = partial(map, add)


@lru_cache(maxsize=2 * 30)  # two orders per d (lemma 3's 2 and one top order) to d = 30
def _column_levels(d: int, top: int):
    """The Laplace terms of the k-subsets C of range(d), k = 1..top, in
    lexicographic order, by position j < k: a getter of the entries
    (-1)^(k-1-j) m[r][c_j] from signed row r (the row, then its negation),
    and a getter of the minors det(R, C - c_j), by rank, from the list of
    order-(k-1) minors.  Each picks C(d, k) >= 2 items, so gives a tuple.

    The tables depend on (d, top) alone, so they are built once and shared
    by every scan: callers must not modify them.  The cache keeps the 60
    (d, top) pairs used last.  Measured with tracemalloc, the all-order
    tables of d = 3..13 hold 1.2 MB, with order 2 of d = 3..30 1.35 MB,
    and d = 18's all-order tables alone 29 MB."""
    levels, rank = {}, {0: 0}  # the rank of each (k-1)-subset by bitmask
    powers = [1 << c for c in range(d)]
    for k in range(1, top + 1):
        columns = list(zip(*combinations(range(d), k)))  # column j of every C
        bits = [itemgetter(*cols)(powers) for cols in columns]
        masks = list(reduce(_add_each, bits))
        levels[k] = [(itemgetter(*map(partial(add, d * ((k - 1 - j) % 2)), cols)),
                      itemgetter(*map(rank.__getitem__, map(sub, masks, bit))))
                     for j, (cols, bit) in enumerate(zip(columns, bits))]
        rank = dict(zip(masks, range(len(masks))))
    return levels


def _scan(d: int, orders: range):
    """Every k x k minor of M_d for k in orders, found depth-first over the
    row sets in lexicographic order.

    The minors on rows R + (r,) come from the minors of the parent row set
    R by Laplace expansion along the new last row r:

        det(R + r, C) = sum_j (-1)^(k-1-j) m[r][c_j] * det(R, C - c_j).

    A row set's k x k minors are one list, ranked like the k-subsets C.  It
    gathers its k tuples det(R, C - c_j) once for all its children; a row
    set ending at M_d's last row has none and is not visited.  Each level of
    the stack holds one list and k gathered tuples: at most
    sum_k (k + 1) C(d, k) ints.  Returns (minors checked, minimum, witness):
    ties go to the first minimum of a k-major lexicographic scan.
    """
    signed_rows = [row + tuple(-x for x in row) for row in build_md(d)]
    last = len(signed_rows) - 1
    top = orders[-1]
    levels = _column_levels(d, top)
    # the top order's entries of each row it can end at, shared by all parents
    top_entries = {r: [gather(signed_rows[r]) for gather, _ in levels[top]]
                   for r in range(top - 1, last + 1)}
    checked, best = 0, None  # best: least (value, k, rows, rank of the columns)

    def visit(rows, parent, k):
        nonlocal checked, best
        pieces = [minors(parent) for _, minors in levels[k]]
        for r in range(rows[-1] + 1 if rows else 0, last + 1):
            entries = (top_entries[r] if k == top
                       else [gather(signed_rows[r]) for gather, _ in levels[k]])
            values = reduce(_add_each, map(map, repeat(mul), entries, pieces))
            if k < top:
                values = list(values)
                del entries  # not held down the recursion
            if k in orders:
                checked += len(pieces[0])
                low = min(values)
                if best is None or (low, k) < best[:2]:  # same-order row sets come sorted
                    if k == top:  # its rank, from the minors again
                        values = list(reduce(_add_each, map(map, repeat(mul), entries, pieces)))
                    best = (low, k, rows + (r,), values.index(low))
            if k < top and r < last:
                visit(rows + (r,), values, k + 1)

    visit((), [1], 1)  # the empty minor is 1
    value, k, rows, index = best
    cols = next(islice(combinations(range(d), k), index, None))
    return checked, value, (rows, cols)


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

