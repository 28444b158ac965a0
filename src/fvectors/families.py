"""Closed-form g-vectors (and derived f-vectors) of the extremal families.

Three families of simplicial d-polytopes play the extremal roles:

  cyclic      C(n, d)    g_i = C(n-d-2+i, i)
  stacked     S(n, d)    g = (1, n-d-1, 0, ..., 0)
  cs_stacked  CS(2n, d)  g_1 = 2n-d-1, g_i = C(d,i) - C(d,i-1) for i >= 2

Only the g/f-vectors are represented.  The combinatorial types of stacked
polytopes depend on choices made during their construction, but their
f-vectors are well-defined, so no polytope is ever built.
"""

from dataclasses import dataclass

from .exact import binomial, int_entries
from .transforms import GVector, FVector, check_dim, delta, g_to_f

CYCLIC = "cyclic"
STACKED = "stacked"
CS_STACKED = "cs_stacked"


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its vertex parameter n (vertex count is 2n for
    cs_stacked) and the dimension d."""

    family: str
    n: int
    d: int

    def __post_init__(self):
        _check_nd(self.n, self.d)
        if self.family not in (CYCLIC, STACKED, CS_STACKED):
            raise ValueError(f"unknown family {self.family!r}")


def _check_nd(n: int, d: int) -> None:
    check_dim(d)
    if type(n) is not int:  # skips the general check on the hot path
        int_entries((n,), "parameters")


def cyclic_entries(n: int, d: int) -> tuple:
    """The entries of g(C(n, d)) as a plain tuple, for an int n >= d+1 and a
    checked d; `g_cyclic` checks both and wraps this in a GVector."""
    # g_0 is pinned to 1: the closed form would give C(n-d-2, 0), which the
    # vanishing-binomial convention sends to 0 at n = d+1 (the simplex).
    return (1,) + tuple(binomial(n - d - 2 + i, i) for i in range(1, delta(d) + 1))


def g_cyclic(n: int, d: int) -> GVector:
    """g-vector of the cyclic polytope C(n, d); needs n >= d+1."""
    _check_nd(n, d)
    if n <= d:
        raise ValueError(f"cyclic polytope needs n >= d+1, got n={n}, d={d}")
    return GVector(d, cyclic_entries(n, d))


def g_stacked(n: int, d: int) -> GVector:
    """g-vector of the stacked polytope S(n, d); needs n >= d+1."""
    _check_nd(n, d)
    if n <= d:
        raise ValueError(f"stacked polytope needs n >= d+1, got n={n}, d={d}")
    return GVector(d, (1, n - d - 1) + (0,) * (delta(d) - 1))


def g_cs_stacked(n: int, d: int) -> GVector:
    """g-vector of the centrally-symmetric stacked polytope CS(2n, d).

    Needs n >= d; n = d gives the cross-polytope itself.
    """
    _check_nd(n, d)
    if n < d:
        raise ValueError(f"cs-stacked polytope needs n >= d, got n={n}, d={d}")
    g = [1, 2 * n - d - 1]
    for i in range(2, delta(d) + 1):
        g.append(binomial(d, i) - binomial(d, i - 1))
    return GVector(d, tuple(g))


def stanley_cs_floor(d: int) -> GVector:
    """Componentwise lower bound on g-vectors of centrally-symmetric
    simplicial d-polytopes: g_i >= C(d,i) - C(d,i-1) for i >= 1.

    Used as the comparison hypothesis when bounding such polytopes from
    below by cs-stacked ones.
    """
    check_dim(d)
    return GVector(
        d,
        (1,) + tuple(binomial(d, i) - binomial(d, i - 1) for i in range(1, delta(d) + 1)),
    )


_G_BUILDERS = {CYCLIC: g_cyclic, STACKED: g_stacked, CS_STACKED: g_cs_stacked}


def g_of_family(spec: FamilySpec) -> GVector:
    return _G_BUILDERS[spec.family](spec.n, spec.d)


def f_of_family(spec: FamilySpec) -> FVector:
    """f-vector of the family member, via f = g * M_d."""
    return g_to_f(g_of_family(spec))
