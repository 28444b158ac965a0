"""Minor scans of the M_d matrix.

All 2x2 minors of M_d are nonnegative, which is what drives the ratio
chain behind the comparison theorem.  Conjecturally M_d is totally
nonnegative (all minors of all orders); this module verifies both claims
at finite scale with exact determinants.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .exact import det
from .transforms import build_md, check_dim, delta


@dataclass(frozen=True)
class MinorReport:
    d: int
    order: Union[int, str]  # k of the scanned k x k minors, or "all"
    minors_checked: int
    min_value: Optional[int]
    min_witness: Optional[tuple]  # (row index tuple, column index tuple)
    all_nonnegative: bool
    beyond_verified_range: bool = False  # d > 13 extends the known evidence


def phi_minor(d: int, a: int, b: int, r: int, s: int) -> int:
    """The 2x2 minor of M_d on rows {a, b} and columns {r, s}:
    m[a][r]*m[b][s] - m[a][s]*m[b][r]."""
    check_dim(d)
    dl = delta(d)
    if not 0 <= a < b <= dl:
        raise ValueError(f"need 0 <= a < b <= {dl}, got a={a}, b={b}")
    if not 0 <= r < s <= d - 1:
        raise ValueError(f"need 0 <= r < s <= {d - 1}, got r={r}, s={s}")
    md = build_md(d)
    return md[a][r] * md[b][s] - md[a][s] * md[b][r]


def verify_lemma3(d: int) -> MinorReport:
    """Scan every 2x2 minor of M_d and report the minimum found."""
    check_dim(d)
    dl = delta(d)
    checked = 0
    min_value = None
    min_witness = None
    for a, b in combinations(range(dl + 1), 2):
        for r, s in combinations(range(d), 2):
            value = phi_minor(d, a, b, r, s)
            checked += 1
            if min_value is None or value < min_value:
                min_value = value
                min_witness = ((a, b), (r, s))
    return MinorReport(d, 2, checked, min_value, min_witness, min_value >= 0)


def verify_total_nonnegativity(d: int, max_order: Union[int, str] = "all") -> MinorReport:
    """Compute every k x k minor of M_d for k up to max_order (or all
    possible orders) by exact determinant; report minimum and witness.

    A negative minor would be a counterexample to total nonnegativity and
    is reported, never raised.
    """
    check_dim(d)
    md = build_md(d)
    dl = delta(d)
    top = dl + 1 if max_order == "all" else min(int(max_order), dl + 1)
    checked = 0
    min_value = None
    min_witness = None
    for k in range(1, top + 1):
        for rows in combinations(range(dl + 1), k):
            for cols in combinations(range(d), k):
                sub = [[md[i][j] for j in cols] for i in rows]
                value = det(sub)
                checked += 1
                if min_value is None or value < min_value:
                    min_value = value
                    min_witness = (rows, cols)
    order = "all" if max_order == "all" or top == dl + 1 else top
    return MinorReport(
        d, order, checked, min_value, min_witness, min_value >= 0,
        beyond_verified_range=d > 13,
    )


def step1_ratio_equiv(d: int) -> bool:
    """Two checks behind the reduction to consecutive-row minors.

    (i) For all i < j, t < u with m[j][u] > 0, the minor being nonnegative
    is equivalent to the cross-multiplied ratio comparison
    m[i][t]*m[j][u] >= m[i][u]*m[j][t].

    (ii) For each column pair, nonnegativity of all consecutive-row minors
    implies nonnegativity of every (a, b) minor, by composing the ratio
    inequalities down the rows.
    """
    check_dim(d)
    md = build_md(d)
    dl = delta(d)
    for i, j in combinations(range(dl + 1), 2):
        for t, u in combinations(range(d), 2):
            if md[j][u] <= 0:
                continue
            minor_nonneg = md[i][t] * md[j][u] - md[i][u] * md[j][t] >= 0
            ratio_holds = md[i][t] * md[j][u] >= md[i][u] * md[j][t]
            if minor_nonneg != ratio_holds:
                return False
    for r, s in combinations(range(d), 2):
        consecutive_ok = all(
            phi_minor(d, a, a + 1, r, s) >= 0 for a in range(dl)
        )
        if not consecutive_ok:
            continue
        # Composing adjacent ratio inequalities must cover the general case.
        for a, b in combinations(range(dl + 1), 2):
            if phi_minor(d, a, b, r, s) < 0:
                return False
    return True
