"""
Searching for two vertex-disjoint intersecting extremal pieces
==============================================================

A trivial way to hit tau = (r-1) nu at nu = 2 is to drop two disjoint
copies of an intersecting extremal family side by side.  The decompose
search asks whether a given instance secretly has that shape: it looks
for two minimal pairwise-intersecting edge families with tau >= r-1
(kernels) on disjoint vertex sets.  It is partner-first: it grows one
family only while the edges that avoid it still hold a kernel.
"""

from ryserplanes import (
    build_h1,
    conic_truncated,
    disjoint_union,
    find_disjoint_ryser_pair,
)

# positive control: a glued-together pair had better be found
double = disjoint_union(conic_truncated(3), conic_truncated(3))
res = find_disjoint_ryser_pair(double)
print("TC4 + TC4:", res.outcome)
print("  first kernel edges ", res.pair.first.edge_ids)
print("  second kernel edges", res.pair.second.edge_ids)

# the nu=2 construction is genuinely one piece
h, _ = build_h1(3, 2)
res = find_disjoint_ryser_pair(h)
print("\nh1(3,2):", res.outcome, f"({res.visited} search nodes)")

# the nu=3 construction is not: a third glued plane leaves enough room
# for two kernels that avoid each other
h, _ = build_h1(3, 3)
res = find_disjoint_ryser_pair(h)
print("\nh1(3,3):", res.outcome)
a, b = res.pair.first, res.pair.second
print("  first  kernel edges", a.edge_ids, "tau", a.tau)
print("  second kernel edges", b.edge_ids, "tau", b.tau)
print("  supports share", len(a.support & b.support), "vertices")
