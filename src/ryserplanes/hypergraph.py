"""r-partite hypergraphs with exact matching and vertex cover solvers.

Vertices carry (id, label, side); edges are sorted tuples of vertex ids and
are referred to everywhere by their index in the edge list.  The solvers are
exact branch-and-bound searches over bitmasks, never heuristics: every number
they return comes with a witness and an exhaustiveness flag, and ties are
broken lexicographically so witnesses are stable across runs.
"""

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .errors import ArityMismatch, UnknownEdge
from .symmetry import _automorphisms, _fixing


@dataclass(frozen=True)
class Vertex:
    id: int
    label: str
    side: int


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable outcome of an exact search."""

    kind: str  # matching | cover | ryser | no_disjoint_pair | disjoint_pair
    value: dict
    witness: object
    exhaustive: bool


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    r: int
    side_sizes: tuple
    violations: tuple


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(ids):
    """Inverse of `_bits`: the bitmask with the given bit positions set."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class Hypergraph:
    """Immutable vertex/edge data; solver state is built lazily and cached."""

    def __init__(self, r: int, vertices, edges):
        vs = sorted(vertices, key=lambda v: v.id)
        self.r = r
        self.vertices = tuple(vs)
        self.edges = tuple(tuple(sorted(e)) for e in edges)
        self._by_id = {v.id: v for v in vs}
        self._solver: Optional[_ExactSolver] = None

    def vertex(self, vid: int) -> Vertex:
        return self._by_id[vid]

    def solver(self) -> "_ExactSolver":
        if self._solver is None:
            self._solver = _ExactSolver(self)
        return self._solver

    def __repr__(self):
        return f"Hypergraph(r={self.r}, n={len(self.vertices)}, m={len(self.edges)})"


class _ExactSolver:
    """Bitmask branch-and-bound for matching and cover numbers.

    Edge subfamilies are bitmasks over edge indices; the matching search
    keeps its own stack, so no recursion limit bounds nu.  The cover search
    memoizes a minimum cover and one lower bound per subfamily, so repeated
    queries (restrictions, decomposition searches) share all earlier work;
    tau is the stored cover's size, and `lex_min_cover` starts from it.
    That bound starts as the weight of a fractional matching, which bounds
    tau* and so tau.  A node that computes its matching hands it to its
    children: a child whose share of those weights already exceeds its
    budget is cut without a bound pass of its own, and its entry is stored
    negated, -k, to say that k was inherited and the child's own bound is
    still to be computed; no stored bound is 0, so a missing one reads 0.
    `tau_le` is the only writer of those bounds; `tau_exact` climbs by calling it.

    Budgets 1 and 2 are answered exactly at a leaf, with no bound pass,
    split or branch scan: every cover holds a vertex of U's lowest edge
    (Haralick & Elliott 1980 solve such small subproblems directly).  The
    leaf stores nothing.  A refutation kept as a positive b + 1 would spare
    a later visit at a higher budget its own bound pass, and so its jump to
    the fractional bound; kept as -(b + 1) it could exceed U's own bound,
    which an inherited entry never does.

    The cover search scans for its branch edge in one static order, made
    once: most conflicting edges first (`conflict[e]`, the edges meeting e),
    ties by index.  So the most constrained edges are tried first whatever
    the numbering (fail-first), at no cost per node.  In T(q) and TC(q)
    every edge has as many conflicts, so the order is the index order and
    their search trees are those of an index-order scan.

    The whole-family climb of `tau_exact` also branches by orbits (Ostrowski
    et al., Orbital branching, 2011).  A node may be given automorphisms
    that each map its family U onto itself.  Such a map g sends the child
    U - inc(p) onto the child U - inc(g(p)), so both have the same tau, and
    once one child fails no image of it is searched.  A child gets the maps
    that fix p, which fix it in turn.  The maps are found once per solver,
    by `symmetry._automorphisms`, if the root decides so, once, when its
    first child has failed: only a refutation of at least as many `_lower`
    entries as there are vertices looks, so small trees never pay.  The
    pair search of `decompose` asks for no maps.
    """

    def __init__(self, h: Hypergraph):
        vids = [v.id for v in h.vertices]
        pos = {vid: i for i, vid in enumerate(vids)}
        self.vids = vids
        self.all_edges = (1 << len(h.edges)) - 1
        self.edge_verts = [tuple(map(pos.__getitem__, e)) for e in h.edges]
        if not all(self.edge_verts):
            raise ValueError("an edge with no vertices has no cover")
        self.vert_edges = vert_edges = [0] * len(vids)
        for ei, ev in enumerate(self.edge_verts):
            bit = 1 << ei
            for p in ev:
                vert_edges[p] |= bit
        self.conflict = []
        for ev in self.edge_verts:
            c = 0
            for p in ev:
                c |= self.vert_edges[p]
            self.conflict.append(c)
        # the cover search's branch scan order; the sort is stable
        self.order = sorted(range(len(h.edges)), key=lambda ei: -self.conflict[ei].bit_count())
        self._match_memo = {0: 0}
        # a minimum cover of each settled subfamily, as a mask of vertex
        # positions: tau is its size.  The empty family's cover is empty.
        self._exact = {0: 0}
        self._lower = {}
        self.found = 0  # a cover left by the last `tau_le` that answered yes
        self._autos = None  # automorphisms, found at most once (`automorphisms`)

    # ---- matching ----

    def max_matching(self, avail: int) -> int:
        # an explicit stack of [family, children] frames: a frame builds its
        # children once, then resolves when it is next on top
        memo = self._match_memo
        stack = [[avail, None]]
        while stack:
            frame = stack[-1]
            a, kids = frame
            if a in memo:  # resolved since it was pushed
                stack.pop()
            elif kids is None:
                # some edge of a maximum matching meets the lowest edge e
                # (conflict[e] holds e): one child per such edge f
                e = (a & -a).bit_length() - 1
                frame[1] = [a & ~self.conflict[f] for f in _bits(a & self.conflict[e])]
                stack += [[k, None] for k in frame[1] if k not in memo]
            else:
                stack.pop()
                memo[a] = 1 + max(map(memo.__getitem__, kids))
        return memo[avail]

    def lex_max_matching(self) -> list:
        """Maximum matching whose sorted edge-id sequence is lexicographically least."""
        nu = self.max_matching(self.all_edges)
        out = []
        avail = self.all_edges
        need = nu
        while need:
            # avail holds no edge below the last one chosen
            for e in _bits(avail):
                rest = avail & ~self.conflict[e]
                rest &= ~((1 << (e + 1)) - 1)
                if 1 + self.max_matching(rest) == need:
                    out.append(e)
                    avail = rest
                    need -= 1
                    break
            else:
                raise AssertionError("matching reconstruction failed")
        return out

    # ---- cover ----

    def greedy_cover_le(self, U: int, b: int) -> int:
        """Upper-bound witness: the edges met by a cover of U of at most b
        vertices, a mask that holds U, or 0 when the greedy finds none.

        Repeatedly picks a vertex meeting the most edges of U still
        uncovered, the lowest position on a tie.  0 proves nothing; an empty
        U, with no edge to meet, gets it too.  The one caller is the clique
        walk of the kernel and pair searches (`decompose._reaching_cliques`),
        which carries the mask down as its cover witness.
        """
        met = 0
        for _ in range(b):
            left = U & ~met
            if not left:
                break
            met |= max(self.vert_edges, key=lambda inc: (inc & left).bit_count())
        return 0 if U & ~met else met

    def components(self, U: int) -> list:
        comps = []
        rem = U
        while rem:
            # grow from the newly reached edges only; stop once nothing is left
            comp = frontier = rem & -rem
            while frontier and comp != rem:
                grown = 0
                for ei in _bits(frontier):
                    grown |= self.conflict[ei]
                frontier = grown & rem & ~comp
                comp |= frontier
            comps.append(comp)
            rem &= ~comp
        return comps

    def _fractional(self, U: int):
        # fractional matching: y_e = 1 / (largest degree in U of a vertex of e)
        # loads each vertex by at most 1, so tau(U) >= ceil(sum y_e).  Edges
        # are grouped by that degree with masks: by_deg[d] holds the edges
        # meeting a vertex of degree d, and an edge's largest degree is the
        # first group, from the top, that holds it.  Scaled by L, all exact:
        # returns (L, [(edges, L // d), ...], L * sum y_e).
        by_deg = {}
        for inc in filter(None, map(U.__and__, self.vert_edges)):
            d = inc.bit_count()
            by_deg[d] = by_deg.get(d, 0) | inc
        L = lcm(*by_deg)
        seen = 0
        groups = []
        total = 0
        for d in sorted(by_deg, reverse=True):
            g = by_deg[d] & ~seen
            if g:
                groups.append((g, L // d))
                total += g.bit_count() * (L // d)
            seen |= by_deg[d]
        return L, groups, total

    def tau_le(self, U: int, b: int, autos=None) -> bool:
        """Is there a vertex set of size <= b meeting every edge of U?

        On yes, `found` holds such a set, a mask of vertex positions: the
        stored cover on an `_exact` hit, the one or two vertices the leaf
        found at b <= 2, the union of the components' stored covers on a
        split, or the child's cover plus the branch vertex.  A refutation
        at the leaf (b <= 2) leaves no `_lower` entry; see the class.

        `autos`, when given, lists automorphisms (vertex position maps)
        that each map U onto itself; an empty list marks the whole-family
        root of `tau_exact`'s climb, which decides discovery once.
        """
        exact = self._exact.get(U)  # U = 0 has its seeded entry, the empty cover
        if exact is not None:
            self.found = exact
            return exact.bit_count() <= b
        if b <= 0:
            return False
        lower = self._lower
        lb = lower.get(U, 0)  # 0: no entry; every stored bound is nonzero
        if abs(lb) > b:
            return False
        if b <= 2:
            # the leaf: every cover holds a vertex p of U's lowest edge, so
            # U has a cover of at most 2 iff some U - inc(p) is empty or met
            # by one vertex of its own lowest edge; one p per distinct role
            vert_edges = self.vert_edges
            tried = set()
            for p in self.edge_verts[(U & -U).bit_length() - 1]:
                left = U & ~vert_edges[p]
                if left in tried:
                    continue
                if not left:
                    self.found = 1 << p
                    return True
                if b == 2:
                    for v in self.edge_verts[(left & -left).bit_length() - 1]:
                        if not left & ~vert_edges[v]:
                            self.found = 1 << p | 1 << v
                            return True
                tried.add(left)
            return False
        groups = None  # set only when this visit computes U's own bound
        if lb <= 0:
            L, groups, total = self._fractional(U)
            lb = lower[U] = -(-total // L)
        if lb > b:
            return False
        comps = self.components(U)
        if len(comps) > 1:
            # components share no vertex and each stored cover lies on its
            # component's edges, so the union is a minimum cover of U
            cover = 0
            for c in comps:
                self.tau_exact(c)
                cover |= self._exact[c]
            self._exact[U] = self.found = cover
            return cover.bit_count() <= b
        # branch on the edge with the fewest distinct vertex roles; the scan
        # walks U in the static order (most conflicts first, ties by index)
        # and is capped, any uncovered edge being a complete branch set anyway
        best_roles = None
        scanned = 0
        for ei in self.order:
            if not U >> ei & 1:
                continue
            roles = {}
            # edges and vids are sorted by id, so p ascends: a role keeps its lowest p
            for p in self.edge_verts[ei]:
                roles.setdefault(self.vert_edges[p] & U, p)
            if best_roles is None or len(roles) < len(best_roles):
                best_roles = roles
                if len(roles) == 1:
                    break
            scanned += 1
            if scanned >= 8:
                break
        # drop dominated roles: a vertex whose incidence is contained in
        # another candidate's can always be swapped out of a cover
        kept = []
        for inc, p in sorted(best_roles.items(), key=lambda kv: -kv[0].bit_count()):
            if all(inc & ~inc2 for inc2, _ in kept):
                kept.append((inc, p))
        failed = ()  # roles whose child failed, with their images
        before = len(lower)
        for inc, p in kept:
            if inc in failed:
                continue
            child = U & ~inc
            # U's weights, less those of the edges p covers, still form a
            # fractional matching of the child, whose degrees only fell
            rest = None
            if groups is not None and child not in lower:
                rest = total
                for g, w in groups:
                    rest -= (g & inc).bit_count() * w
            if rest is not None and rest > (b - 1) * L:
                lower[child] = rest // -L
            elif self.tau_le(child, b - 1, _fixing(autos, p) if autos else None):
                self.found |= 1 << p
                return True
            if autos == []:
                # the whole-family root before discovery, after its first
                # child: look only if that refutation proved the tree large
                autos = self.automorphisms() if len(lower) - before >= len(self.vids) else None
            if autos:
                # each map sends this failed child onto the child of p's image
                failed = {*failed, *(self.vert_edges[a[p]] & U for a in autos)}
        lower[U] = b + 1
        return False

    def automorphisms(self) -> list:
        """Automorphisms found by `_automorphisms`, the identity first; cached."""
        if self._autos is None:
            self._autos = _automorphisms(self.edge_verts, len(self.vids))
        return self._autos

    def tau_exact(self, U: int) -> int:
        """Exact tau(U), climbing through `tau_le`, the one writer of `_lower`.

        The cover of the climb's last `tau_le`, which answered yes at d after
        every smaller budget was refuted, is stored as U's minimum cover.
        """
        got = self._exact.get(U)
        if got is not None:
            return got.bit_count()
        # a failed tau_le above the leaf leaves U a bound: its own, b + 1,
        # or an inherited -k; a refuting leaf (d <= 2) leaves none, read as 0
        # only the whole-family climb branches by orbits; [] lets its root
        # decide once whether to look for them (see `tau_le`)
        whole = U == self.all_edges
        d = 1
        while not self.tau_le(U, d, (self._autos or []) if whole else None):
            d = max(d + 1, abs(self._lower.get(U, 0)))
        self._exact[U] = self.found
        return d

    def lex_min_cover(self, U: int) -> list:
        """Minimum cover of U whose sorted vertex-id list is lexicographically least.

        Scans positions upward and takes the first p such that U - inc(p)
        has a cover of one vertex fewer.  `known`, a minimum cover of what
        is left (first the one `tau_exact` stored), answers that for its own
        lowest vertex with no search: known less that vertex is such a
        cover.  Each p below it is asked of `tau_le`, and a yes makes the
        cover found, plus p, the new `known`.  So the choices, and every
        question below them, are those of a scan that asks at every p, and
        the witness is the same lexicographically least cover.
        """
        self.tau_exact(U)
        known = self._exact[U]
        chosen = []
        floor = 0
        while U:
            # every vertex of known meets U, and none lies below floor: a
            # position skipped there was refuted, so no minimum cover holds it
            p = (known & -known).bit_length() - 1
            budget = known.bit_count() - 1
            for q in range(floor, p):
                inc = self.vert_edges[q] & U
                if inc and self.tau_le(U & ~inc, budget):
                    p, known = q, self.found | 1 << q
                    break
            chosen.append(self.vids[p])
            U &= ~self.vert_edges[p]
            known ^= 1 << p
            floor = p + 1
        return chosen


# ---- public operations ----


def validate_partite(h: Hypergraph) -> ValidationReport:
    """Check the r-partite invariants; violations are reported, not raised."""
    if h.r < 2:
        # (r - 1) nu is no bound below r = 2, and at r = 0 an edge can have
        # no vertex to cover it
        violation = {"code": "arity_too_small", "r": h.r}
        return ValidationReport(ok=False, r=h.r, side_sizes=(), violations=(violation,))
    # with more sides than vertices some side is empty, so no edge meets
    # every side and each edge of distinct known vertices is short: one
    # violation stands for those edge sizes, and no table of r sides is built
    wide = h.r > len(h.vertices)
    violations = [{"code": "arity_too_large", "r": h.r}] if wide else []
    side_of = {}  # where ids repeat, the last vertex's side, as in h.vertex
    sizes = {}
    for v in h.vertices:
        if v.id in side_of:
            violations.append({"code": "duplicate_vertex_id", "vertex": v.id})
        side_of[v.id] = v.side
        if 0 <= v.side < h.r:
            sizes[v.side] = sizes.get(v.side, 0) + 1
        else:
            violations.append({"code": "side_out_of_range", "vertex": v.id, "side": v.side})
    # r distinct sides in range(r) mean r distinct known vertices, one per
    # side (an unknown vertex reads None, never a side), so no check after
    # the duplicate-edge test can fire on the edge;
    # a wide family has fewer than r vertices, so no edge of it passes
    every_side = None if wide else set(range(h.r))
    seen_edges = {}
    for ei, e in enumerate(h.edges):
        if e in seen_edges:
            violations.append({"code": "duplicate_edge", "edge": ei, "other": seen_edges[e]})
        else:
            seen_edges[e] = ei
        if every_side is not None and len(e) == h.r and set(map(side_of.get, e)) == every_side:
            continue
        if len(set(e)) != len(e):
            violations.append({"code": "repeated_vertex_in_edge", "edge": ei})
        unknown = [vid for vid in e if vid not in side_of]
        if unknown:
            violations.append({"code": "unknown_vertex", "edge": ei, "vertices": unknown})
            continue
        if len(e) != h.r and not wide:
            violations.append({"code": "edge_size", "edge": ei, "size": len(e)})
        per_side = {}
        for vid in e:
            per_side.setdefault(side_of[vid], []).append(vid)
        for side, vids in per_side.items():
            if len(vids) > 1:
                violations.append(
                    {"code": "side_hit_twice", "edge": ei, "side": side, "vertices": vids}
                )
        if len(e) == h.r:  # so the scan of the sides is as long as the edge
            missing = [s for s in range(h.r) if s not in per_side]
            if missing:
                violations.append({"code": "side_missed", "edge": ei, "sides": missing})
    return ValidationReport(
        ok=not violations,
        r=h.r,
        side_sizes=() if wide else tuple(sizes.get(s, 0) for s in range(h.r)),
        violations=tuple(violations),
    )


def matching_number(h: Hypergraph) -> Certificate:
    s = h.solver()
    witness = s.lex_max_matching()
    return Certificate(
        kind="matching", value={"nu": len(witness)}, witness=tuple(witness), exhaustive=True
    )


def cover_number(h: Hypergraph) -> Certificate:
    s = h.solver()
    witness = s.lex_min_cover(s.all_edges)
    return Certificate(
        kind="cover", value={"tau": len(witness)}, witness=tuple(witness), exhaustive=True
    )


def is_ryser(h: Hypergraph) -> Certificate:
    matching = matching_number(h)
    cover = cover_number(h)
    nu = matching.value["nu"]
    tau = cover.value["tau"]
    bound = (h.r - 1) * nu
    return Certificate(
        kind="ryser",
        value={
            "r": h.r,
            "nu": nu,
            "tau": tau,
            "is_ryser": tau >= bound,
            "conjecture_holds": tau <= bound,
        },
        witness={"matching": matching.witness, "cover": cover.witness},
        exhaustive=True,
    )


def matching_is_valid(h: Hypergraph, edge_ids) -> bool:
    seen = set()
    for ei in edge_ids:
        e = set(h.edges[ei])
        if seen & e:
            return False
        seen |= e
    return True


def cover_is_valid(h: Hypergraph, vertex_ids) -> bool:
    s = set(vertex_ids)
    return all(s & set(e) for e in h.edges)


def disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    if a.r != b.r:
        raise ArityMismatch(f"r={a.r} vs r={b.r}")
    # every id of b lands above a's largest; ids >= 0 shift by max(a) + 1
    offset = max((v.id for v in a.vertices), default=-1) + 1
    offset -= min(0, min((v.id for v in b.vertices), default=0))
    verts = [Vertex(v.id, "a:" + v.label, v.side) for v in a.vertices]
    verts += [Vertex(v.id + offset, "b:" + v.label, v.side) for v in b.vertices]
    edges = [tuple(e) for e in a.edges]
    edges += [tuple(vid + offset for vid in e) for e in b.edges]
    return Hypergraph(a.r, verts, edges)


def _edge_ids(h: Hypergraph, edge_ids) -> list:
    """The sorted distinct edge ids, each checked to name an edge of h."""
    ids = sorted(set(edge_ids))
    for ei in ids:
        if not 0 <= ei < len(h.edges):
            raise UnknownEdge(f"edge {ei} not in hypergraph with {len(h.edges)} edges")
    return ids


def restrict(h: Hypergraph, edge_ids) -> Hypergraph:
    ids = _edge_ids(h, edge_ids)
    support = sorted({vid for ei in ids for vid in h.edges[ei]})
    verts = [h.vertex(vid) for vid in support]
    return Hypergraph(h.r, verts, [h.edges[ei] for ei in ids])


def tau_subfamily(h: Hypergraph, edge_ids) -> int:
    """Exact cover number of an edge subfamily, sharing the solver cache.

    A cover of a subfamily only ever needs vertices in its support, so the
    full hypergraph's solver answers this directly on an edge mask.
    """
    return h.solver().tau_exact(_mask(_edge_ids(h, edge_ids)))


def tau_subfamily_at_most(h: Hypergraph, edge_ids, b: int) -> bool:
    return h.solver().tau_le(_mask(_edge_ids(h, edge_ids)), b)
