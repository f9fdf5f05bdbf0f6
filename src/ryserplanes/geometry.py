"""The projective plane PG(2,q) as an explicit incidence structure.

Points are homogeneous triples over GF(q), normalized so the leftmost
nonzero coordinate is 1, and numbered by lexicographic rank of the triple.
Lines use the same triples as dual coefficient vectors, so point i and
line i carry the same triple; incidence is the vanishing of the bilinear
form a0*x0 + a1*x1 + a2*x2.  The form is symmetric, so point j lies on
line i iff point i lies on line j: the lines through point p are the points
of line p, and the point sets of the lines are the one incidence table.
The line through two points is read from it: the one line in both pencils.
Everything downstream (conics, constructions, file output) refers to these
ids, so the numbering is part of the contract.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Optional

from .errors import NotAnArc, NotSquareOrder, SamePoint
from .gf import FieldSpec


@dataclass(frozen=True)
class PlanePoint:
    id: int
    coords: tuple


@dataclass(frozen=True)
class PlaneLine:
    id: int
    coeffs: tuple
    points: frozenset  # ids of the points on the line


@dataclass(frozen=True)
class Conic:
    points: tuple  # point ids, ascending
    nucleus: Optional[int]  # common point of all tangents; even q only


def _normalized_triples(q):
    # Leftmost nonzero coordinate equal to 1 picks one representative per
    # projective class; plain lex enumeration then gives the id order.
    out = []
    for x0 in range(q):
        for x1 in range(q):
            for x2 in range(q):
                lead = x0 if x0 else (x1 if x1 else x2)
                if lead == 1:
                    out.append((x0, x1, x2))
    return out


class ProjectivePlane:
    """Immutable PG(2,q); all queries are table lookups."""

    def __init__(self, q: int):
        field = FieldSpec(q)
        triples = _normalized_triples(q)
        self.q = q
        self.field = field
        self.points = [PlanePoint(i, t) for i, t in enumerate(triples)]
        self._id_of = {t: i for i, t in enumerate(triples)}
        # line i takes point i's triple as coefficients; raw table lookups,
        # since every entry is a field element already
        add, mul = field._add, field._mul
        pts = [(p.id, *p.coords) for p in self.points]
        self.lines = []
        for p in self.points:
            m0, m1, m2 = (mul[a] for a in p.coords)
            on = frozenset(i for i, x0, x1, x2 in pts if add[add[m0[x0]][m1[x1]]][m2[x2]] == 0)
            self.lines.append(PlaneLine(p.id, p.coords, on))

    def normalize(self, triple):
        """Scale a nonzero triple so its leftmost nonzero entry is 1."""
        f = self.field
        lead = next((c for c in triple if c), 0)
        if lead == 0:
            raise ValueError("zero triple has no projective class")
        s = f.inv(lead)
        return tuple(f.mul(s, c) for c in triple)

    def point_id(self, triple) -> int:
        return self._id_of[self.normalize(triple)]

    line_id = point_id  # line i carries point i's triple

    def lines_through(self, point_id: int) -> frozenset:
        # duality: line j passes through point p iff point j lies on line p
        return self.lines[point_id].points

    def __repr__(self):
        return f"ProjectivePlane(q={self.q})"


@lru_cache(maxsize=None)
def plane_build(q: int) -> ProjectivePlane:
    return ProjectivePlane(q)


def line_through(plane: ProjectivePlane, a: int, b: int) -> PlaneLine:
    """The unique line through both points: the one line in both pencils."""
    if a == b:
        raise SamePoint(f"point {a} given twice")
    (lid,) = plane.lines[a].points & plane.lines[b].points
    return plane.lines[lid]


def conic_canonical(plane: ProjectivePlane) -> Conic:
    """The conic x1^2 = x0*x2: the points (1:t:t^2) together with (0:0:1)."""
    f = plane.field
    ids = [plane.point_id((1, t, f.mul(t, t))) for t in range(plane.q)]
    ids.append(plane.point_id((0, 0, 1)))
    nucleus = plane.point_id((0, 1, 0)) if plane.q % 2 == 0 else None
    return Conic(points=tuple(sorted(ids)), nucleus=nucleus)


def classify_line(conic: Conic, line: PlaneLine) -> str:
    """'tangent', 'secant', or 'external' by intersection count."""
    hits = len(line.points.intersection(conic.points))
    if hits == 1:
        return "tangent"
    if hits == 2:
        return "secant"
    if hits == 0:
        return "external"
    raise ValueError(f"{hits} collinear conic points; not a conic")


def is_arc(plane: ProjectivePlane, pts) -> bool:
    """True iff no three of the given points are collinear."""
    s = frozenset(pts)
    return all(len(s & line.points) <= 2 for line in plane.lines)


def baer_closure(plane: ProjectivePlane, quad) -> frozenset:
    """Close a 4-arc under intersections of the lines its points span.

    The fixpoint is the subplane generated by the four points.  For q = p^2
    that subplane has order p, i.e. it is a Baer subplane with q + sqrt(q) + 1
    points, and it blocks every line of the ambient plane.
    """
    s = isqrt(plane.q)
    if s * s != plane.q:
        raise NotSquareOrder(f"q={plane.q} is not a square")
    quad = tuple(quad)
    if len(set(quad)) != 4 or not is_arc(plane, quad):
        raise NotAnArc(f"{sorted(set(quad))} is not an arc of size 4")
    pts = set(quad)
    while True:
        spanned = {line_through(plane, a, b).id for a, b in combinations(sorted(pts), 2)}
        grown = set(pts)
        for l1, l2 in combinations(sorted(spanned), 2):
            grown |= plane.lines[l1].points & plane.lines[l2].points
        if grown == pts:
            return frozenset(pts)
        pts = grown
