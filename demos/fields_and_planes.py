"""
Finite fields and the projective planes built on them
=====================================================

Every construction downstream starts here: GF(q) arithmetic, the point
and line incidence of PG(2, q), and the conic with its tangent lines.
"""

from ryserplanes import (
    FieldSpec,
    classify_line,
    conic_canonical,
    line_through,
    plane_build,
)

# every field comes with its canonical irreducible modulus (x for a prime field),
# coefficients constant-first
f9 = FieldSpec(9)
print("GF(9) modulus:", f9.modulus)
print("2 + 7 =", f9.add(2, 7), "   2 * 7 =", f9.mul(2, 7), "   1/5 =", f9.inv(5))

plane = plane_build(3)
print("\nPG(2,3):", len(plane.points), "points,", len(plane.lines), "lines")

# two distinct points span a unique line
p, q = plane.points[0], plane.points[5]
line = line_through(plane, p.id, q.id)
print("line through", p.coords, "and", q.coords, "->", sorted(line.points))

# the canonical conic is a (q+1)-arc; lines meet it in 0, 1 or 2 points
conic = conic_canonical(plane)
print("\nconic points:", sorted(conic.points))
census = {"tangent": 0, "secant": 0, "external": 0}
for l in plane.lines:
    census[classify_line(conic, l)] += 1
print("line census:", census)
