"""Scanning the comparison matrix for negative minors.

The bound-propagation machinery rests on all 2x2 minors of M_d being
nonnegative; total nonnegativity (all orders) is the stronger property
the paper conjectured and Björklund and Engström proved, which the
scanner checks exhaustively with exact arithmetic.
"""

import time

from fvectors import verify_lemma3, verify_total_nonnegativity

print("all 2x2 minors, d = 3..30:")
worst = None
for d in range(3, 31):
    report = verify_lemma3(d)
    if worst is None or report.min_value < worst[1]:
        worst = (d, report.min_value, report.min_witness)
    assert report.all_nonnegative
print("   all nonnegative; global minimum %d at d=%d, indices %s" % (
    worst[1], worst[0], worst[2]))

print("\nall-order minors (total nonnegativity):")
for d in (6, 10, 13):
    t0 = time.time()
    report = verify_total_nonnegativity(d)
    print("   d=%2d  %6d minors  min=%d  ok=%s  (%.2fs)" % (
        d, report.minors_checked, report.min_value,
        report.all_nonnegative, time.time() - t0))

# the scan is exhaustive at d=14 too: every minor of every order
t0 = time.time()
report = verify_total_nonnegativity(14)
print("\nd=14 all orders: %d minors  ok=%s  (%.2fs)"
      % (report.minors_checked, report.all_nonnegative, time.time() - t0))
