import hashlib
from itertools import combinations

import pytest

from ryserplanes.errors import NotAnArc, NotSquareOrder, SamePoint
from ryserplanes.geometry import (
    baer_closure,
    classify_line,
    conic_canonical,
    is_arc,
    line_through,
    plane_build,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_point_line_counts(q):
    plane = plane_build(q)
    n = q * q + q + 1
    assert len(plane.points) == n
    assert len(plane.lines) == n
    for line in plane.lines:
        assert len(line.points) == q + 1
    for pid in range(n):
        assert len(plane.lines_through(pid)) == q + 1


# sha256 of repr((sorted points of each line, sorted lines through each
# point)); point and line ids are part of the file format
FROZEN_INCIDENCE = {
    2: "ffc3e3ee72c1f151b0961c33d1011006958093375ae654201bf6a97bb021104c",
    3: "1a7c8301fee864ae198b8406a6f12532c4d9fdaf729479bd89aa0e7c92e3a3f2",
    4: "8213e2cc62c517f977ee1576ad84332484a25ce4344a00671073e2b9ae9e7f3d",
    5: "321ddf726220f84dede197fc8bc742916b7a43b9cdb2b781617279014c9fd065",
    7: "46296e3f9c0b5c052cbffce48062d0189edf544542fc5448d96731c8e7988f2f",
    8: "270854ef68aac748f125541d36af94c984724c3456d30d5be827068cd2b21575",
    9: "785b57624346ece335795243df3cf56538ccc6456d11244f5bbd531a253bb21e",
    11: "c26c564a6755674b246416c4477ca5b041b8f47c3c323bd1118a9e0824f6d6bb",
    13: "f099ad4cba2fe893c437c6f270147f915272ae0135f4aa5e3bfb9787d198ae0d",
    16: "8ff92cb67ab362527988ab2cb3716bf4ffd2b1603d17cd5644fa04bcdf119428",
    17: "6f0e4687eb98fc149e3e9828bd7ad1151e75c38631d3c6b8b436cf3ae20412c5",
    19: "0c6919449f71280aac028a46488722bb9b1212c1e76fff9eda54a1aa529d8db3",
    23: "d8525a14eb94f2a103421e6b409a5d423b6df4e1b6873cbf4c8c829ac15043d6",
    25: "473faee6638438c62dbcd68ed9e7d6c66db2551264b9fdff4760eb9323a38c8a",
    27: "46aaef00cebbd7a7b6ac96136d14361a68521d986b30f00bdd439bd005be95b0",
    29: "80a54bb5cb21771ce12ea86525bca6ac4378ba9ddb76b29ea395ed30c00e1488",
    31: "8222fed4ecba50844dcbe0eb00383b97ec920cf308fadd33851881ddc057e8d6",
    32: "1c4c65db402cd1b6d27b16b9bb1c4e5fce2d434fc82d2eec85ae43e1f2e2c76e",
}


@pytest.mark.parametrize("q", sorted(FROZEN_INCIDENCE))
def test_incidence_is_frozen(q):
    plane = plane_build(q)
    incidence = (
        [sorted(line.points) for line in plane.lines],
        [sorted(plane.lines_through(p)) for p in range(len(plane.points))],
    )
    assert hashlib.sha256(repr(incidence).encode()).hexdigest() == FROZEN_INCIDENCE[q]


@pytest.mark.parametrize("q", sorted(FROZEN_INCIDENCE))
def test_lines_are_the_zeros_of_the_form(q):
    # each line's points are exactly the points where a0*x0 + a1*x1 + a2*x2
    # vanishes, evaluated point by point in the field's tables
    plane = plane_build(q)
    add, mul = plane.field._add, plane.field._mul
    points = [(p.id, *p.coords) for p in plane.points]
    for line in plane.lines:
        m0, m1, m2 = (mul[a] for a in line.coeffs)
        on = {i for i, x0, x1, x2 in points if add[add[m0[x0]][m1[x1]]][m2[x2]] == 0}
        assert line.points == on


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_two_points_span_unique_line(q):
    plane = plane_build(q)
    for a, b in combinations(range(len(plane.points)), 2):
        through = [l.id for l in plane.lines if a in l.points and b in l.points]
        assert len(through) == 1
        assert line_through(plane, a, b).id == through[0]


def test_line_through_rejects_equal_points():
    plane = plane_build(3)
    with pytest.raises(SamePoint):
        line_through(plane, 5, 5)


def test_canonical_ids():
    # points and lines share the normalized-triple numbering
    plane = plane_build(3)
    assert plane.points[0].coords == (0, 0, 1)
    assert plane.points[1].coords == (0, 1, 0)
    assert plane.points[2].coords == (0, 1, 1)
    assert plane.lines[0].coeffs == (0, 0, 1)
    # line 0 is x2 = 0: contains (0:1:0) but not (0:0:1)
    assert 1 in plane.lines[0].points
    assert 0 not in plane.lines[0].points


def test_normalize_scales_to_leading_one():
    plane = plane_build(5)
    assert plane.normalize((0, 2, 4)) == (0, 1, 2)
    assert plane.normalize((3, 1, 2)) == (1, 2, 4)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_conic_is_an_arc_of_size_q_plus_1(q):
    plane = plane_build(q)
    conic = conic_canonical(plane)
    assert len(conic.points) == q + 1
    assert is_arc(plane, conic.points)
    if q % 2 == 0:
        # even order: all tangents meet in the nucleus
        assert conic.nucleus == plane.point_id((0, 1, 0))
    else:
        assert conic.nucleus is None


@pytest.mark.parametrize(
    "q,expected",
    [(3, (4, 6, 3)), (4, (5, 10, 6)), (5, (6, 15, 10))],
)
def test_line_classification_totals(q, expected):
    plane = plane_build(q)
    conic = conic_canonical(plane)
    counts = {"tangent": 0, "secant": 0, "external": 0}
    for line in plane.lines:
        counts[classify_line(conic, line)] += 1
    assert (counts["tangent"], counts["secant"], counts["external"]) == expected


def test_tangent_count_through_nucleus():
    plane = plane_build(4)
    conic = conic_canonical(plane)
    tangents = [l for l in plane.lines if classify_line(conic, l) == "tangent"]
    for t in tangents:
        assert conic.nucleus in t.points


def test_baer_closure_blocks_every_line():
    plane = plane_build(4)
    conic = conic_canonical(plane)
    quad = conic.points[:4]
    closure = baer_closure(plane, quad)
    assert len(closure) == 4 + 2 + 1
    for line in plane.lines:
        hit = closure & set(line.points)
        assert len(hit) in (1, 3)  # Baer subplane: 1 or sqrt(q)+1 points


def test_baer_closure_order_nine():
    plane = plane_build(9)
    conic = conic_canonical(plane)
    closure = baer_closure(plane, conic.points[:4])
    assert len(closure) == 9 + 3 + 1


def test_baer_closure_needs_square_order():
    plane = plane_build(3)
    with pytest.raises(NotSquareOrder):
        baer_closure(plane, (0, 1, 2, 3))


def test_baer_closure_needs_an_arc():
    plane = plane_build(4)
    line_pts = sorted(plane.lines[0].points)[:3]
    other = next(p for p in range(len(plane.points)) if p not in plane.lines[0].points)
    with pytest.raises(NotAnArc):
        baer_closure(plane, tuple(line_pts) + (other,))
