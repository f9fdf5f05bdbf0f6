"""Extremal Ryser hypergraph families built from projective planes.

All families live over the canonical PG(2,q) of `geometry`, so every choice
below is a point or line id and the output is identical across runs:

  truncated_plane   T(q+1): delete a point and its pencil; lines become edges.
  conic_truncated   TC(q+1): keep only the T(q+1) edges meeting C' = C - {Q}.
  build_h1          nu glued planes; every plane after the first carries the
                    lines meeting C' and is stitched through R and C'.
  build_h2          same gluing, with each later plane built from a 4-arc
                    {Q2, T1, T2, T3} and a marked point S instead of a conic.
  build_g1          the fixed 24-vertex, 14-edge example, decoded from its
                    positional vectors.

`_glue` owns the gluing shared by H1 and H2: the vertex map, plane 1 (the
lines avoiding {Q1, P} plus the line ell through P) and the two stitched
edges per later plane, laid out by `_gluing`, which also gives the edge
classes and the common recipe keys; each builder supplies only its
later-plane lines and stitch points.  The glued families
share exactly one vertex between plane 1 and each later plane: the common
point P.  Sides are the pencils through the deleted points, paired across
planes, with the P-side first.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import (
    ArityMismatch,
    InfeasibleChoice,
    NotOddPrime,
    NotPrimePower,
    NuTooSmall,
    QTooSmall,
)
from .gf import MAX_ORDER, _prime_power
from .geometry import ProjectivePlane, classify_line, conic_canonical, is_arc, line_through, plane_build, baer_closure
from .hypergraph import Hypergraph, Vertex, _bits


@dataclass(frozen=True)
class ConstructionRecipe:
    family: str
    q: int
    nu: int
    chosen: dict  # named point/line selections and edge bookkeeping, JSON-able


def _coords_str(triple):
    return f"({triple[0]}:{triple[1]}:{triple[2]})"


def parse_point_label(label: str):
    """Inverse of the vertex labels: 'p2:(0:1:1)' -> (2, (0, 1, 1))."""
    plane_part, _, coord_part = label.partition(":(")
    a, b, c = coord_part.rstrip(")").split(":")
    return int(plane_part[1:]), (int(a), int(b), int(c))


def vertex_by_label(h: Hypergraph, label: str) -> int:
    for v in h.vertices:
        if v.label == label:
            return v.id
    raise KeyError(label)


# ---- truncated families ----


def _pencil_sides(plane: ProjectivePlane, deleted: int, first_line: Optional[int] = None):
    """Map point id -> side index, sides being the lines through `deleted`.

    Sides are ordered by line id, except that `first_line` (when given) is
    pulled to the front as side 0.
    """
    pencil = sorted(plane.lines_through(deleted))
    if first_line is not None:
        pencil = [first_line] + [l for l in pencil if l != first_line]
    side_of = {}
    for idx, lid in enumerate(pencil):
        for pid in plane.lines[lid].points:
            if pid != deleted:
                side_of[pid] = idx
    return side_of, pencil


def truncated_plane(q: int) -> Hypergraph:
    """Delete the point Q = (0:0:1) and its pencil; remaining lines are edges."""
    plane = plane_build(q)
    deleted = plane.point_id((0, 0, 1))
    side_of, _ = _pencil_sides(plane, deleted)
    verts = [
        Vertex(p.id, _coords_str(p.coords), side_of[p.id])
        for p in plane.points
        if p.id != deleted
    ]
    edges = [line.points for line in plane.lines if deleted not in line.points]
    return Hypergraph(q + 1, verts, edges)


def conic_truncated(q: int) -> Hypergraph:
    """Keep only the truncated-plane edges that meet C' = conic minus Q."""
    if q < 3:
        raise QTooSmall(f"q={q}: the deleted point must leave q conic points")
    t = truncated_plane(q)
    # vertex ids are point ids, and no edge holds Q, so meeting C is meeting C'
    conic = set(conic_canonical(plane_build(q)).points)
    return Hypergraph(q + 1, t.vertices, [e for e in t.edges if conic.intersection(e)])


# ---- glued multi-plane families ----


def _anchors(plane: ProjectivePlane):
    """(Q, P, tangent, ell): Q = (0:0:1), P = (0:1:0), the line PQ (tangent
    to the canonical conic at Q) and ell, the least line through P avoiding Q."""
    return (
        plane.point_id((0, 0, 1)),
        plane.point_id((0, 1, 0)),
        plane.line_id((1, 0, 0)),
        plane.line_id((0, 0, 1)),
    )


def _gluing(plane: ProjectivePlane, nu: int, n_later: int):
    """What `_glue` lays out for nu planes whose later ones carry n_later
    lines each, before any edge is drawn: (side_of, plane 1's lines, the
    recipe keys of the gluing).  The keys are the anchors, the sides, and
    where each plane's edges, its stitched edges and its extra vertex go."""
    Q, P, tangent, ell = _anchors(plane)
    side_of, side_lines = _pencil_sides(plane, Q, tangent)
    n = len(plane.points)
    plane1 = sorted((set(range(n)) - plane.lines_through(Q) - plane.lines_through(P)) | {ell})
    plane_edges = {"1": [0, len(plane1)]}
    e1_edges, e2_edges, extra = {}, {}, {}
    for i in range(2, nu + 1):
        k = str(i)
        start = len(plane1) + (i - 2) * (n_later + 2)
        plane_edges[k] = [start, start + n_later]
        e1_edges[k] = start + n_later
        e2_edges[k] = start + n_later + 1
        # plane 1 has every point but Q, each later plane every point but Q and P
        extra[k] = n - 1 + (nu - 1) * (n - 2) + i - 2
    classes = [list(range(len(plane1))) + list(e1_edges.values())]
    for k in e2_edges:
        classes.append(list(range(*plane_edges[k])) + [e2_edges[k]])
    keys = {
        "P": P,
        "Q": Q,
        "ell_line": ell,
        "tangent_line": tangent,
        "side_lines": list(side_lines),
        "plane_edges": plane_edges,
        "e1_edges": e1_edges,
        "e2_edges": e2_edges,
        "extra_vertices": extra,
        "edge_classes": classes,
    }
    return side_of, plane1, keys


def _glue(family, plane: ProjectivePlane, nu: int, lines, e1_point, e2_points, chosen):
    """Glue nu copies of `plane` at P; returns (hypergraph, recipe).

    Plane 1 contributes every point except Q and carries the lines off
    {Q, P} plus ell.  Each later plane i contributes every point except Q
    and P (its P is plane 1's), carries `lines`, and is stitched to plane 1
    by e1 = (ell - {P}) + e1_point and e2 = e2_points + v_i, both points
    taken in plane i.  The extra vertices v_i go last, on the P-side.
    Classes: plane 1 with every e1, then each later plane with its e2.
    The recipe is `chosen` plus the keys `_gluing` lays out.
    """
    side_of, plane1, keys = _gluing(plane, nu, len(lines))
    Q, P, extra = keys["Q"], keys["P"], keys["extra_vertices"]
    verts = []
    vmap = [None]  # vmap[i][point id] -> vertex id in plane i; Q has none
    for i in range(1, nu + 1):
        row = [None] * len(plane.points)
        for pid, point in enumerate(plane.points):
            if pid == Q or (i > 1 and pid == P):
                continue
            row[pid] = len(verts)
            verts.append(Vertex(len(verts), f"p{i}:{_coords_str(point.coords)}", side_of[pid]))
        if i > 1:
            row[P] = vmap[1][P]
        vmap.append(row)
    verts += [Vertex(vid, f"v{k}", 0) for k, vid in extra.items()]

    def edge(i, pids):
        return list(map(vmap[i].__getitem__, pids))

    edges = [edge(1, plane.lines[lid].points) for lid in plane1]
    ell_rest = edge(1, plane.lines[keys["ell_line"]].points - {P})
    for i in range(2, nu + 1):
        edges += [edge(i, plane.lines[lid].points) for lid in lines]
        edges.append(ell_rest + edge(i, [e1_point]))
        edges.append(edge(i, e2_points) + [extra[str(i)]])
    recipe = ConstructionRecipe(family=family, q=plane.q, nu=nu, chosen={**chosen, **keys})
    return Hypergraph(plane.q + 1, verts, edges), recipe


def _glued_plane(family, q: int, nu: int) -> ProjectivePlane:
    """The plane of the glued family `family` ("h1" or "h2") at order q with
    nu planes; raises the builder's error on an order or nu it cannot take."""
    if family == "h1":
        if q > MAX_ORDER:  # before factoring, which takes sqrt(q) steps
            raise NotPrimePower(f"order {q} exceeds the supported cap {MAX_ORDER}")
        if q % 2 == 0 or _prime_power(q) != (q, 1):
            raise NotOddPrime(f"q={q}: the cover argument needs an odd prime order")
    elif q < 4:
        raise QTooSmall(f"q={q}: the arc construction needs q >= 4")
    if nu < 2:
        raise NuTooSmall(f"nu={nu}: at least two glued planes required")
    return plane_build(q)  # NotPrimePower for bad q


def _h1_lines(plane: ProjectivePlane, Q: int, conic):
    """C' = C - {Q} and the lines of each later H1 plane: those off Q meeting C'."""
    cprime = set(conic.points) - {Q}
    return cprime, sorted(set().union(*map(plane.lines_through, cprime)) - plane.lines_through(Q))


def build_h1(q: int, nu: int):
    """Glue nu planes at P; plane 1 holds the lines off {Q1, P} plus ell,
    the others hold the conic family with the two stitched edges.

    Known fault for nu >= 3: the output has tau = nu(q-1)+2 < nu q, so it is
    not r-Ryser.  A cover of that size is P, the q points of m - {Q} in
    plane 1 (m any line through Q other than PQ), and C' - {X} in each added
    plane, where X is the second point of tangency seen from P.  At nu = 2
    this cover has the full size 2q.  The same slack leaves two
    vertex-disjoint intersecting subfamilies with cover number r-1 in
    build_h1(3, 3).  The gluing of the paper's family for nu >= 3 is not
    recorded here; until it is, this builder is that family only for nu = 2.
    """
    plane = _glued_plane("h1", q, nu)
    Q, P, tangent, _ = _anchors(plane)
    conic = conic_canonical(plane)
    # R: least point of the line PQ besides P and Q
    R = min(plane.lines[tangent].points - {P, Q})
    cprime, lines = _h1_lines(plane, Q, conic)
    chosen = {"R": R, "conic_points": list(conic.points)}
    return _glue("h1", plane, nu, lines, R, cprime, chosen)


def _s_candidates(plane: ProjectivePlane, Q: int, T1: int, T2: int, T3: int, closure):
    """The points S may take for the arc {Q, T1, T2, T3}: those of QT2 off
    {Q, T2}, and for q = 4 also off the arc's subplane `closure` and T1T3."""
    on_qt2 = sorted(line_through(plane, Q, T2).points - {Q, T2})
    if plane.q != 4:
        return on_qt2
    t1t3 = line_through(plane, T1, T3).points
    return [S for S in on_qt2 if S not in closure and S not in t1t3]


def _h2_arc_points(plane: ProjectivePlane, Q: int, P: int, tangent: int):
    """Lexicographically first (T1, T2, T3, S) for the H2 plane.

    {Q, T1, T2, T3} must be an arc with T1 on the line PQ, S lies on Q T2
    off {Q, T2}, and the line T2T3 avoids P (otherwise the edge through P
    and T3 would miss the stitched edge e2, allowing a third matching edge).
    For q = 4 the subplane generated by the arc must avoid P, and S must
    avoid both that subplane and the line T1T3.
    """
    q = plane.q
    n = len(plane.points)
    pq_points = plane.lines[tangent].points
    for T1 in sorted(pq_points - {P, Q}):
        for T2 in range(n):
            if T2 in (P, Q, T1) or T2 in pq_points:
                continue
            for T3 in range(n):
                if T3 in (P, Q, T1, T2):
                    continue
                if not is_arc(plane, (Q, T1, T2, T3)):
                    continue
                if P in line_through(plane, T2, T3).points:
                    continue
                closure = None
                if q == 4:
                    closure = baer_closure(plane, (Q, T1, T2, T3))
                    if P in closure:
                        continue
                s_candidates = _s_candidates(plane, Q, T1, T2, T3, closure)
                if s_candidates:
                    return T1, T2, T3, s_candidates, closure
    raise InfeasibleChoice(f"no (T1,T2,T3,S) tuple exists at q={q}")


def _h2_lines(plane: ProjectivePlane, P: int, Q: int, T1: int, T2: int, T3: int, S: int):
    """The named lines T1T2, T1S and PT3, and the lines of each later H2
    plane: those three and every line off the arc {Q, T1, T2, T3}."""
    named = {
        "T1T2": line_through(plane, T1, T2).id,
        "T1S": line_through(plane, T1, S).id,
        "PT3": line_through(plane, P, T3).id,
    }
    off_arc = set(range(len(plane.lines))).difference(*map(plane.lines_through, (Q, T1, T2, T3)))
    return named, sorted(off_arc | set(named.values()))


def build_h2(q: int, nu: int):
    """Glue nu planes at P; each later plane is built from a 4-arc through Q
    and a marked point S instead of a conic.

    Shares the fault of `build_h1` for nu >= 3: the output has
    tau = nu(q-1)+2 < nu q (11 for h2(4,3), 14 for h2(4,4) and h2(5,3)), so it
    is not r-Ryser; only nu = 2 gives the paper's family.  At q = 7 and 11
    even nu = 2 is decomposable: plane 1's edges and the later plane's
    lines off P, with e2, are disjoint intersecting families of tau = q.
    """
    plane = _glued_plane("h2", q, nu)
    Q, P, tangent, _ = _anchors(plane)
    T1, T2, T3, s_candidates, closure = _h2_arc_points(plane, Q, P, tangent)
    S = s_candidates[0]
    named, lines = _h2_lines(plane, P, Q, T1, T2, T3, S)
    e2_points = (plane.lines[named["T1T2"]].points - {T1, T2}) | {S}
    chosen = {
        "T1": T1,
        "T2": T2,
        "T3": T3,
        "S": S,
        "S_candidates": list(s_candidates),
        "closure": sorted(closure) if closure is not None else None,
        "lines": named,
    }
    return _glue("h2", plane, nu, lines, T1, e2_points, chosen)


def validate_recipe(recipe: ConstructionRecipe) -> list:
    """Re-check a recipe's own consistency; returns a list of failures and
    raises on none.  An unknown family, a q or nu that is not an integer or
    that its builder refuses, a `chosen` that is not a dict, or a missing
    point or line ends the list at once.  The ids are checked to be in
    range and the points distinct, ending the list if not, before any line
    is drawn through two points, and the subplane closure is taken only of
    an arc.  Every other key is re-derived from the recorded points through
    the builders' own helpers, without building the hypergraph, and each
    one that differs is reported; the gluing keys only when `plane_edges`
    records nu planes, so the work is bounded by the recipe.

    R enters only the stitched edge e1, which is not recorded, so an h1
    recipe with R on the other free point of PQ is the consistent recipe of
    another hypergraph: no recipe is checked against a file's edges."""
    names = None
    if type(recipe.family) is str:  # a family read from a file may be any JSON value
        names = {"h1": ("P", "Q", "R"), "h2": ("P", "Q", "T1", "T2", "T3", "S")}.get(recipe.family)
    if names is None:
        return [f"unknown family {recipe.family}"]
    if not all(type(v) is int for v in (recipe.q, recipe.nu)):  # exact: a bool is not one
        return ["q and nu must be integers"]
    try:
        plane = _glued_plane(recipe.family, recipe.q, recipe.nu)
    except ValueError as e:
        return [str(e)]
    c = recipe.chosen
    if not isinstance(c, dict):
        return ["chosen must be a JSON object"]
    missing = [k for k in names + ("tangent_line", "ell_line") if k not in c]
    if missing:
        return [f"recorded {k} is missing" for k in missing]
    fails = []

    def expect(cond, msg):
        if not cond:
            fails.append(msg)
        return cond

    pts = [c[k] for k in names]
    ids = range(len(plane.points))  # a plane has as many lines as points
    # 5.0 is in range(n) but indexes no list
    in_range = all(type(i) is int and i in ids for i in pts + [c["tangent_line"], c["ell_line"]])
    if not expect(in_range, "a recorded point or line id is out of range"):
        return fails
    if not expect(len(set(pts)) == len(pts), f"the points {', '.join(names)} must be distinct"):
        return fails
    conic = conic_canonical(plane)
    P, Q = c["P"], c["Q"]
    tangent = plane.lines[c["tangent_line"]]
    expect(P in tangent.points, "P not on the recorded tangent line")
    expect(Q in tangent.points, "Q not on the recorded tangent line")
    expect(classify_line(conic, tangent) == "tangent", "recorded PQ line is not tangent")
    ell = plane.lines[c["ell_line"]].points
    expect(P in ell and Q not in ell, "ell must pass through P and avoid Q")
    if recipe.family == "h1":
        expect(list(conic.points) == c.get("conic_points"), "conic points drifted")
        expect(c["R"] in tangent.points, "R must lie on PQ away from P and Q")
        _, lines = _h1_lines(plane, Q, conic)
    else:
        T1, T2, T3, S = c["T1"], c["T2"], c["T3"], c["S"]
        expect(T1 in tangent.points, "T1 must lie on PQ away from P and Q")
        arc = expect(is_arc(plane, (Q, T1, T2, T3)), "{Q,T1,T2,T3} is not an arc")
        expect(S in line_through(plane, Q, T2).points, "S must lie on QT2 away from Q and T2")
        expect(P not in line_through(plane, T2, T3).points, "P must avoid the line T2T3")
        named, lines = _h2_lines(plane, P, Q, T1, T2, T3, S)
        expect(c.get("lines") == named, "recorded lines does not match its points")
        closure = None
        if recipe.q == 4 and arc:
            closure = baer_closure(plane, (Q, T1, T2, T3))
            expect(sorted(closure) == c.get("closure"), "recorded subplane closure drifted")
            expect(P not in closure, "P must avoid the arc's subplane closure")
            expect(S not in closure, "S must avoid the arc's subplane closure")
            expect(S not in line_through(plane, T1, T3).points, "S must avoid the line T1T3")
        elif recipe.q != 4:
            expect(c.get("closure") is None, "recorded subplane closure drifted")
        if recipe.q != 4 or arc:
            # S heads the candidates the build was handed: all that pass, or some, in order
            passing = iter(_s_candidates(plane, Q, T1, T2, T3, closure))
            cands = c.get("S_candidates")
            ok = isinstance(cands, list) and cands[:1] == [S] and all(s in passing for s in cands)
            expect(ok, "recorded S_candidates does not match its points")
    planes = c.get("plane_edges")  # nu planes are laid out only if as many are recorded
    nu_ok = type(planes) is dict and len(planes) == recipe.nu
    if expect(nu_ok, "nu differs from the number of recorded plane_edges"):
        for key, value in _gluing(plane, recipe.nu, len(lines))[2].items():
            expect(c.get(key) == value, f"recorded {key} does not match its points")
    return fails


# ---- the fixed 14-edge example ----

G1_VECTORS = (
    "1111",
    "1333",
    "1444",
    "5314",
    "6341",
    "6413",
    "2222",
    "2155",
    "3162",
    "4652",
    "4265",
    "2666",
    "2562",
    "1211",
)


def build_g1() -> Hypergraph:
    """24 vertices v_ij (position i, side j); edges decoded digit-by-digit."""
    verts = [
        Vertex((i - 1) * 4 + (j - 1), f"v{i}{j}", j - 1)
        for i in range(1, 7)
        for j in range(1, 5)
    ]
    edges = []
    for vec in G1_VECTORS:
        edges.append(tuple((int(d) - 1) * 4 + j for j, d in enumerate(vec)))
    return Hypergraph(4, verts, edges)


# ---- embedding search ----


def find_embedding(small: Hypergraph, big: Hypergraph):
    """Injective vertex map plus side bijection sending edges onto edges.

    Vertices of `small` are assigned in ascending id order, candidates in
    ascending id order, so the first embedding found is the lexicographically
    least side-respecting one; the search is exhaustive and returns None when
    no embedding exists.  Each small edge keeps the solver mask of the big
    edges holding the images so far; a mask reaching 0 rejects a candidate.
    The search keeps its own stack, one frame per small vertex, so its depth
    is not bounded by Python's recursion limit.
    """
    if small.r != big.r:
        raise ArityMismatch(f"r={small.r} vs r={big.r}")
    if len(small.vertices) > len(big.vertices) or len(small.edges) > len(big.edges):
        return None
    s = big.solver()
    order = small.vertices
    edges_of = [list(_bits(m)) for m in small.solver().vert_edges]
    bside = [v.side for v in big.vertices]

    # frame k: the next candidate for order[k], then the edge masks, side
    # map and used mask before order[k] is placed; a frame's image is its
    # next candidate less one, once a deeper frame sits on it
    stack = [[0, [s.all_edges] * len(small.edges), {}, 0]]
    while stack:
        k = len(stack) - 1
        if k == len(order):
            return {v.id: s.vids[f[0] - 1] for v, f in zip(order, stack)}
        frame = stack[-1]
        start, masks, side_map, used = frame
        v = order[k]
        want = side_map.get(v.side)
        taken = set(side_map.values())
        for w in range(start, len(bside)):
            bs = bside[w]
            if used >> w & 1 or (bs != want if want is not None else bs in taken):
                continue
            new_masks = list(masks)
            for ei in edges_of[k]:
                new_masks[ei] &= s.vert_edges[w]
                if not new_masks[ei]:
                    break
            else:
                frame[0] = w + 1
                sides = side_map if want is not None else {**side_map, v.side: bs}
                stack.append([0, new_masks, sides, used | 1 << w])
                break
        else:
            stack.pop()
    return None
