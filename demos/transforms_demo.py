"""Walk through the f/h/g-vector transforms on a concrete polytope.

The running example is the cyclic 4-polytope on 7 vertices, whose face
counts are small enough to eyeball.
"""

from fvectors import FVector, f_to_h, h_to_g, g_to_f, is_dehn_sommerville
from fvectors.transforms import build_md, delta

d = 4
f = FVector(d, (7, 21, 28, 14))
print("f-vector (vertices, edges, triangles, facets):", f.entries)

h = f_to_h(f)
print("h-vector:", h.entries)
print("palindromic (boundary-sphere symmetry)?", is_dehn_sommerville(h))

g = h_to_g(h)
print("g-vector (successive h differences up to the middle):", g.entries)

# the whole pipeline collapses to one matrix product: f = g * M_d
md = build_md(d)
print("\nM_%d matrix (%d rows x %d cols):" % (d, delta(d) + 1, d))
for row in md:
    print("   ", row)

# g_to_f computes that map without the table: h by prefix sums of g,
# mirrored by h_{d-i} = h_i, then the h -> f passes
back = g_to_f(g)
product = tuple(sum(gi * row[j] for gi, row in zip(g.entries, md)) for j in range(d))
print("\ng * M_d recovers f exactly:", back.entries == f.entries == product)

# entries grow but stay exact: a larger round trip through h
from fvectors import h_to_f

big = FVector(10, tuple((n + 1) ** 9 for n in range(10)))
print("\nd=10 with ~9-digit entries, f -> h -> f is still the identity:",
      h_to_f(f_to_h(big)).entries == big.entries)
