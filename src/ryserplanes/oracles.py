"""Exhaustive blocking-set searches at small plane order.

These confirm, by direct enumeration, the incidence facts the hypergraph
builds lean on: the minimum blocker of all lines is a line, size-(q+1)
blockers of a conic's tangents and secants fall into four shapes (a line,
the conic, a subgroup swap, a single tangent trade), and the smallest
blocker containing no full line sits at q + sqrt(q) + 1 (square q, Baer
subplanes) or 3(q+1)/2 (prime q).
"""

from dataclasses import dataclass, replace
from itertools import chain, combinations, cycle, repeat
from math import isqrt

from .errors import NotOddPrime, SearchTooLarge
from .geometry import (
    ProjectivePlane,
    baer_closure,
    classify_line,
    conic_canonical,
    is_arc,
    line_through,
    plane_build,
)
from .gf import MAX_ORDER, _prime_power
from .hypergraph import _bits, _mask


@dataclass(frozen=True)
class BlockerReport:
    q: int
    target: str  # all_lines | tangent_secant | nontrivial
    minimum: int
    count: int
    blockers: tuple  # ascending point-id tuples, lexicographically sorted
    classes: tuple  # one label per blocker
    visited: int  # nodes of the report's one search; for nontrivial reports, of the frame search


def blocks_all(plane: ProjectivePlane, pts, line_ids) -> bool:
    s = set(pts)
    return all(plane.lines[lid].points & s for lid in line_ids)


def is_minimal_blocker(plane: ProjectivePlane, pts, line_ids) -> bool:
    s = set(pts)
    if not blocks_all(plane, s, line_ids):
        return False
    return all(not blocks_all(plane, s - {p}, line_ids) for p in s)


def _minimal_blockers(plane, line_ids, budget):
    """Every minimal blocker of the line family with at most budget points,
    and the number of search nodes visited.

    Each node carries the mask of family lines its chosen points leave
    unblocked; a child clears the lines through its new point, so no node
    rescans the family.  The search branches on the lowest unblocked line;
    inside a branch node the earlier points of that line are forbidden
    downstream, so each set is built along one canonical path.

    A node one point short of the budget settles its children itself: they
    are the free points of its lowest unblocked line, and each is counted
    as a visited node without a call.  If that line is the only one left,
    every free point of it completes a blocker.  Otherwise one point has to
    block two unblocked lines, and two lines of a plane meet in exactly one
    point, so the meet of the two lowest is the only candidate.

    Output sets need not be minimal and are filtered by `_alone`: a set is
    minimal iff each of its points is alone on some family line.
    """
    pts_of = [sorted(plane.lines[lid].points) for lid in line_ids]
    masks = [_mask(pts) for pts in pts_of]
    on = [0] * len(plane.points)  # point -> mask of family-line indices through it
    for i, pts in enumerate(pts_of):
        for p in pts:
            on[p] |= 1 << i
    max_through = max(m.bit_count() for m in on)
    found = []  # each set is reached along one path only, so no repeats
    visited = 0

    def dfs(chosen, size, forbidden, unblocked):
        nonlocal visited
        visited += 1
        if not unblocked:
            found.append(chosen)
            return
        # each added point blocks at most max_through family lines
        if unblocked.bit_count() > (budget - size) * max_through:
            return
        low = (unblocked & -unblocked).bit_length() - 1
        if size + 1 == budget:
            free = masks[low] & ~forbidden
            visited += free.bit_count()
            rest = unblocked & (unblocked - 1)
            if not rest:
                for p in _bits(free):
                    found.append(chosen | 1 << p)
                return
            meet = masks[low] & masks[(rest & -rest).bit_length() - 1] & free
            if meet:
                p = meet.bit_length() - 1
                if not unblocked & ~on[p]:
                    found.append(chosen | meet)
            return
        fb = forbidden
        for p in pts_of[low]:
            pb = 1 << p
            if not fb & pb:
                dfs(chosen | pb, size + 1, fb, unblocked & ~on[p])
            fb |= pb

    dfs(0, 0, 0, (1 << len(masks)) - 1)
    return sorted(pts for pts in map(tuple, map(_bits, found)) if _alone(pts, on)), visited


def _alone(pts, on) -> bool:
    """Is each point alone on some family line, `on[p]` being the mask of
    the family lines through p?  For a blocker of the family, that is minimality."""
    once = twice = 0
    for p in pts:
        twice |= once & on[p]
        once |= on[p]
    alone = once & ~twice
    return all(on[p] & alone for p in pts)


def _classify(plane, conic, pts) -> str:
    q = plane.q
    # a whole line is the line through its first two points
    if len(pts) == q + 1 and line_through(plane, pts[0], pts[1]).points == set(pts):
        return "line"
    fs = frozenset(pts)
    cset = frozenset(conic.points)
    if fs == cset:
        return "conic"
    if len(fs) == q + 1:
        s1 = cset - fs
        s2 = fs - cset
        # fs != C and |fs| = |C|, so both sides of the trade have one size d >= 1
        if len(s1) == 1:
            # a one-point trade is no subgroup swap; it blocks exactly when
            # the added point lies on the tangent at the removed one
            (x,), (y,) = s1, s2
            if classify_line(conic, line_through(plane, x, y)) == "tangent":
                return "tangent_trade"
        else:
            # d >= 2 and n = |C - line| is q - 1, q or q + 1.  A tangent (n = q)
            # gives no swap: at the conic report's prime q the one subgroup
            # order d >= 2 is q, and trading C - line for line - C gives the line.
            for line in plane.lines:
                if s2 <= line.points - cset and not s1 & line.points:
                    # a cyclic group of order n = q +/- 1 has a subgroup of order d | n
                    n = len(cset - line.points)
                    if n != q and n % len(s1) == 0:
                        return "conic_swap"
    root = isqrt(q)
    if root * root == q and root > 1 and len(fs) == q + root + 1:
        for quad in combinations(sorted(fs), 4):
            if is_arc(plane, quad) and baer_closure(plane, quad) == fs:
                return "baer_subplane"
    return "other"


def _report(plane, target, budget, found, visited) -> BlockerReport:
    """The report on one search's minimal blockers `found` (ascending
    point-id tuples): those of least size, in their order, each with its
    class against the canonical conic; `RuntimeError` if there are none."""
    if not found:
        raise RuntimeError(f"no {target} blocker of at most {budget} points")
    minimum = min(map(len, found))
    at_min = tuple(b for b in found if len(b) == minimum)
    conic = conic_canonical(plane)
    classes = tuple(_classify(plane, conic, b) for b in at_min)
    return BlockerReport(plane.q, target, minimum, len(at_min), at_min, classes, visited)


def min_blocking_sets(q: int) -> BlockerReport:
    """Minimum blockers of every line; the floor is q+1, reached by lines."""
    if q > 5:
        raise SearchTooLarge(f"all-lines blocker search is capped at q = 5, got {q}")
    plane = plane_build(q)
    lines = range(len(plane.lines))
    return _report(plane, "all_lines", q + 1, *_minimal_blockers(plane, lines, q + 1))


def classify_conic_blockers(q: int) -> BlockerReport:
    """Shapes of every size-(q+1) blocker of the conic's tangents and secants.

    The labels are `line`, `conic`, `conic_swap` (conic points off a line
    traded for as many points of that line off the conic, their number the
    order of a nontrivial subgroup) and `tangent_trade`: C - {x} + {y} with
    y != x on the tangent at x.  Every tangent trade blocks, since the
    tangent at x contains y and every other tangent or secant contains a
    conic point other than x; there are (q+1)q of them.

    One pass at budget q + 1 lists every minimal blocker of at most q + 1
    points, and a (q+1)-point set blocks iff it holds one of them.  None
    has fewer than q + 1 points (the minimum is read off the search), so
    the (q+1)-point blockers are exactly the list; a smaller blocker would
    show as a smaller minimum.
    """
    # past MAX_ORDER the size error comes first, before sqrt(q) factoring steps
    if q <= MAX_ORDER and (q % 2 == 0 or _prime_power(q) != (q, 1)):
        raise NotOddPrime(f"conic blocker classification needs an odd prime, got {q}")
    if q > 5:
        raise SearchTooLarge(f"conic blocker search is capped at q = 5, got {q}")
    plane = plane_build(q)
    conic = conic_canonical(plane)
    fam = [ln.id for ln in plane.lines if classify_line(conic, ln) in ("tangent", "secant")]
    return _report(plane, "tangent_secant", q + 1, *_minimal_blockers(plane, fam, q + 1))


def min_nontrivial_blocking(q: int) -> BlockerReport:
    """Smallest blockers of all lines that contain no full line.

    A minimal blocker containing a line is that line (a line alone already
    blocks everything), so the nontrivial ones are exactly the minimal
    non-line blockers, and each holds three non-collinear points.  The
    budget floor(3(q+1)/2) is the size of a projective triangle (odd q) or
    triad (even q), a minimal non-line blocker; for prime q Blokhuis (1994)
    proved none is smaller.  Exactness rests on neither fact.

    The search runs only through the frame triangle F = {(0:0:1), (0:1:0),
    (1:0:0)}: one `_minimal_blockers` call over the lines that miss F, at
    budget - 3, and S + F is kept when `_alone` finds each of its points
    alone on some line.  That is every minimal blocker B that holds F:
    each point of B - F has a line meeting B in it alone, that line misses
    F, so B - F is a minimal blocker of the lines off F.

    `_report` takes the kept sets as a search's blockers: its smallest are
    the representatives, the only sets classified.  Every other smallest
    blocker is the image of one under a collineation taking a non-collinear
    triple of it to F, so the report is `_report`'s with its list replaced
    by the representatives' closure under `_GENERATORS`, each image with its
    representative's label.  The closure runs on point masks with point p
    at bit n - 1 - p: sets of one size then sort as descending masks just
    as their ascending point tuples do, and each mask becomes its tuple
    once, through `_point_chars`.  Two generators reach SL(3, q), and
    `_collineations` checks at run time that they are transitive on
    non-collinear triples, raising `RuntimeError` rather than a short list.

    Past q + 1 points the labels are `baer_subplane` or `other`, read off
    `is_arc` and `baer_closure`, which every collineation keeps; those of
    q + 1 points depend on the fixed conic, so a minimum of q + 1 or less
    raises `RuntimeError`.  `visited` counts the frame search's nodes.
    """
    if q not in (3, 4, 5, 7):
        raise SearchTooLarge(f"nontrivial blocker search runs for q in 3, 4, 5 and 7, got {q}")
    budget = 3 * (q + 1) // 2
    plane = plane_build(q)
    frame = (0, 1, q + 1)
    off = [ln.id for ln in plane.lines if not ln.points.intersection(frame)]
    found, visited = _minimal_blockers(plane, off, budget - 3)
    through = [_mask(ln.points) for ln in plane.lines]  # p -> lines through p, by duality
    kept = [tuple(sorted(frame + s)) for s in found if _alone(frame + s, through)]
    reps = _report(plane, "nontrivial", budget, kept, visited)
    if reps.minimum <= q + 1:  # the (q+1)-point labels depend on the conic
        raise RuntimeError(f"a nontrivial blocker of {reps.minimum} points, at most q + 1")
    n = len(plane.points)
    seeds = {_point_mask(b, n): c for b, c in zip(reps.blockers, reps.classes)}
    closed = _closure(_collineations(plane, frame), seeds)
    keys = sorted(closed, reverse=True)  # every blocker has `minimum` points
    classes = tuple(map(closed.get, keys))
    # every blocker's point ids in a row, `minimum` to a blocker; joined as
    # str, since `bytes.join` holds an 80-byte buffer view per piece
    raw = chain.from_iterable(map(int.to_bytes, keys, repeat((n + 7) // 8), repeat("big")))
    pts = "".join(map(list.__getitem__, cycle(_point_chars(n)), raw)).encode("latin-1")
    blockers = tuple(zip(*[iter(pts)] * reps.minimum))
    return replace(reps, count=len(keys), blockers=blockers, classes=classes)


# the collineations the nontrivial report closes under, in w = x (element p)
# or 1 at prime q: (x0 : x1 : x2) -> (x1 : x2 : w x0) and x0 += x1 give SL(3, q)
# since GF(p)[w] = GF(q) (Taylor 1992), but exactness rests on the orbit check
_GENERATORS = (
    lambda w: ((0, 1, 0), (0, 0, 1), (w, 0, 0)),
    lambda w: ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
)


def _collineations(plane, frame):
    """Each generator's point permutation, w generating GF(q) over GF(p), as
    `_generator_tables` gives and checks it: byte image tables of a
    collineation, or `RuntimeError`."""
    field = plane.field
    add, mul = field._add, field._mul
    w = field.p if field.k > 1 else 1
    perms = []
    for rows in (gen(w) for gen in _GENERATORS):
        images = [
            tuple(add[add[mul[a][x]][mul[b][y]]][mul[c][z]] for a, b, c in rows)
            for x, y, z in (pt.coords for pt in plane.points)
        ]
        # a singular matrix sends some point to the zero triple
        perms.append([plane.point_id(v) if any(v) else -1 for v in images])
    return _generator_tables(plane, frame, perms)


def _generator_tables(plane, frame, perms):
    """`_image_tables` of each point permutation.

    Raises `RuntimeError` unless every permutation is a bijection of the
    points that maps each line onto a line, and the orbit of the frame
    triangle under them holds all n(n-1)(n-q-1)/6 non-collinear triples of
    the n points: collineations never make a non-collinear triple
    collinear, so the count settles it.
    """
    q, n = plane.q, len(plane.points)
    for perm in perms:
        if sorted(perm) != list(range(n)):
            raise RuntimeError(f"a generator is not a bijection of the points of PG(2,{q})")
    tables = [_image_tables(perm) for perm in perms]
    # a direct check: the closure of a non-collineation could be huge
    lines = {_point_mask(ln.points, n) for ln in plane.lines}
    if any(_image(t, m) not in lines for m in lines for t in tables):
        raise RuntimeError(f"a generator maps a line of PG(2,{q}) off the lines")
    if len(_closure(tables, {_point_mask(frame, n): None})) != n * (n - 1) * (n - q - 1) // 6:
        raise RuntimeError(f"the generators are not transitive on the triangles of PG(2,{q})")
    return tables


# Closure masks put point p at bit n - 1 - p and are read a byte at a time
# in `int.to_bytes(nb, "big")` order, nb = ceil(n / 8): the first byte, the
# only partial one, holds the lowest points.


def _point_mask(pts, n):
    return sum(1 << (n - 1 - p) for p in pts)


def _byte_tables(n, unit, empty):
    """Per byte of a closure mask, the list taking each value of that byte
    to the sum of `unit(p)` over the points p it holds, lowest first, built
    by doubling over the byte's bits from bit 0 up (descending points)."""
    tables = []
    for i in reversed(range((n + 7) // 8)):
        row = [empty]
        for b in range(8 * i, min(8 * i + 8, n)):
            u = unit(n - 1 - b)  # below every point already in the row
            row += [u + x for x in row]
        tables.append(row)
    return tables


def _image_tables(perm):
    """Per byte, the image mask under the bijection `perm` of the points
    each value of that byte holds: the points' bits are disjoint, so + is |."""
    n = len(perm)
    return _byte_tables(n, lambda p: 1 << (n - 1 - perm[p]), 0)


def _point_chars(n):
    """Per byte, the ascending ids of the points each value of that byte
    holds, one character each (q <= 7: at most 57 points)."""
    return _byte_tables(n, chr, "")


def _image(tables, mask):
    # a bijection maps the bytes' disjoint point sets to disjoint masks
    return sum(map(list.__getitem__, tables, mask.to_bytes(len(tables), "big")))


def _closure(gens, seeds):
    """Every image of the seeds (closure masks) under the group the image
    tables generate, breadth first, mapped to its seed's value."""
    seen = dict(seeds)
    frontier = list(seen)
    nb, get = len(gens[0]), list.__getitem__
    while frontier:
        nxt = []
        for m in frontier:
            value = seen[m]
            bs = m.to_bytes(nb, "big")  # `_image`, the bytes shared by the generators
            for tables in gens:
                img = sum(map(get, tables, bs))
                if img not in seen:
                    seen[img] = value
                    nxt.append(img)
        frontier = nxt
    return seen
