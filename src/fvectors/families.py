"""Closed-form g-vectors (and derived f-vectors) of the extremal families.

Three families of simplicial d-polytopes play the extremal roles:

  cyclic      C(n, d)    g_i = C(n-d-2+i, i)
  stacked     S(n, d)    g = (1, n-d-1, 0, ..., 0)
  cs_stacked  CS(2n, d)  g_1 = 2n-d-1, g_i = C(d,i) - C(d,i-1) for i >= 2

Only the g/f-vectors are represented.  The combinatorial types of stacked
polytopes depend on choices made during their construction, but their
f-vectors are well-defined, so no polytope is ever built.

Stacked and cs-stacked g-vectors grow only in g_1, so their f-vectors are
affine in n, f_j = base_j + (n - first)*step_j, with no h -> f pass:

  stacked     first = d+1, base_j = C(d+1, j+1) (the simplex), and step_j =
              C(d, j) for j <= d-2, d-1 for j = d-1 (row 1 of M_d)
  cs_stacked  first = d, base_j = 2^(j+1) C(d, j+1) (the cross-polytope),
              and twice the stacked step
"""

from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

from .exact import int_entries
from .transforms import GVector, FVector, _f_tail, check_dim, delta, wrong_class

CYCLIC = "cyclic"
STACKED = "stacked"
CS_STACKED = "cs_stacked"


def first_n(family: str, d: int) -> int:
    """n of the family's first member: the simplex C(d+1, d) = S(d+1, d),
    or the cross-polytope CS(2d, d)."""
    return d if family == CS_STACKED else d + 1


class _FamilyFields(NamedTuple):
    family: str
    n: int
    d: int


class FamilySpec(_FamilyFields):
    """A family name plus its vertex parameter n (vertex count is 2n for
    cs_stacked) and the dimension d; n is at least `first_n`."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, family: str, n: int, d: int):
        check_dim(d)
        if type(n) is not int:  # skips the general check on the hot path
            int_entries((n,), "parameters")
        if family not in (CYCLIC, STACKED, CS_STACKED):
            raise ValueError(f"unknown family {family!r}")
        if n < first_n(family, d):
            least = "d" if family == CS_STACKED else "d+1"
            raise ValueError(f"{family.replace('_', '-')} polytope needs n >= {least}, "
                             f"got n={n}, d={d}")
        return tuple.__new__(cls, (family, n, d))


def g_entries(family: str, n: int, d: int) -> tuple:
    """The entries of g for the member (family, n, d) as a plain tuple, for
    parameters that `FamilySpec` accepts; nothing is checked here."""
    if family == CYCLIC:
        # g_i = C(x+i, i) = g_{i-1}*(x+i)/i, x = n-d-2; the simplex has x+1 = 0
        x, c, g = n - d - 2, 1, [1]
        for i in range(1, delta(d) + 1):
            c = c * (x + i) // i
            g.append(c)
        return tuple(g)
    if family == STACKED:
        return (1, n - d - 1) + (0,) * (delta(d) - 1)
    g, c = [1, 2 * n - d - 1], d  # g_i = C(d, i) - C(d, i-1), c = C(d, i-1)
    for i in range(2, delta(d) + 1):
        c, prev = c * (d + 1 - i) // i, c
        g.append(c - prev)
    return tuple(g)


def stanley_cs_floor(d: int) -> GVector:
    """Componentwise lower bound on g-vectors of centrally-symmetric
    simplicial d-polytopes: g_i >= C(d,i) - C(d,i-1) for i >= 1, attained
    by the cross-polytope CS(2d, d).

    Used as the comparison hypothesis when bounding such polytopes from
    below by cs-stacked ones.
    """
    return g_of_family(FamilySpec(CS_STACKED, d, d))


def g_of_family(spec: FamilySpec) -> GVector:
    if type(spec) is not FamilySpec:
        raise wrong_class(FamilySpec, spec)
    return GVector._of(spec.d, g_entries(*spec))


@lru_cache(maxsize=None)
def _affine_family(family: str, d: int) -> tuple:
    """(first n, base, step) of the stacked or cs-stacked family, from the
    closed forms above: C(d, j) by exact ratio steps, C(d+1, j+1) by Pascal."""
    row = [1]
    for j in range(1, d + 1):
        row.append(row[-1] * (d + 1 - j) // j)
    step = (*row[:d - 1], d - 1)
    if family == STACKED:
        base = tuple(map(add, row, row[1:]))
    else:
        base, step = tuple(c << j for j, c in enumerate(row[1:], 1)), tuple(c << 1 for c in step)
    return first_n(family, d), base, step


def f_of_family(spec: FamilySpec) -> FVector:
    """f-vector of the family member: the affine form for stacked and
    cs-stacked members, f = g * M_d as in g_to_f for cyclic ones."""
    if type(spec) is not FamilySpec:
        raise wrong_class(FamilySpec, spec)
    family, n, d = spec
    if family == CYCLIC:
        return FVector._of(d, _f_tail(d, g_entries(*spec)))
    first, base, step = _affine_family(family, d)
    return FVector._of(d, tuple(map(add, base, map(mul, step, repeat(n - first)))))
