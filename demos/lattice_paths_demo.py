"""Binomial determinants as counts of non-intersecting lattice paths.

The 2x2 determinant C(p,t)C(q,u) - C(p,u)C(q,t) counts pairs of
vertex-disjoint NE-paths, and an explicit injection between path
families proves the consecutive-row minors of the comparison matrix
nonnegative.  This demo counts small instances, applies the injection to
one pair of step words, and runs the full verification at one dimension.
"""

from fvectors.exact import binom_det
from fvectors.lattice import (
    PathFamilySpec, count_disjoint_pairs, phi, verify_phi,
)

spec = PathFamilySpec(2, 3, 1, 2)
print("path family p=2, q=3, t=1, u=2")
print("disjoint pairs: %d   determinant: %d" % (
    count_disjoint_pairs(spec), binom_det(2, 3, 1, 2)))

# the signed identity covers crossed parameter orders too: the second count
# takes the pairs whose endpoints are swapped
print("\nsigned form on a crossed instance (p > q):")
det = binom_det(3, 2, 1, 2)
same = count_disjoint_pairs(PathFamilySpec(3, 2, 1, 2))
crossed = count_disjoint_pairs(PathFamilySpec(3, 2, 2, 1))
print("   det = %d,  disjoint - crossed = %d - %d = %d" % (
    det, same, crossed, same - crossed))

# one pair through the injection: d=4, a=1, r=2, s=3, the pair of L(1, 2)
# with P = E from (0,-1) and Q = EE from (0,-2)
case, p_word, q_word = phi(True, "E", "EE", 4, 1, 2, 3)
print("\ninjection on (E, EE) at d=4, a=1, r=2, s=3: case %s, image (%s, %s)" % (
    case, p_word, q_word))

# exhaustive certificate that the injection behind the minor bound works
report = verify_phi(8)
print("\ninjection check at d=8: %d instances, %d path pairs" % (
    report.instances, report.pairs_checked))
print("   injective: %s   cases partition: %s   image membership: %s" % (
    report.injective, report.cases_partition, report.membership_ok))
print("   anchor invariant: %s   counts match the minors: %s" % (
    report.anchors_ok, report.counts_consistent))
