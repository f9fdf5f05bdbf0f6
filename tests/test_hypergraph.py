"""Solver behavior on hand-checkable instances plus randomized
cross-validation against plain exhaustive search."""

import gc
import hashlib
import json
import random
import re
import weakref
from functools import cache
from itertools import combinations

import pytest

from ryserplanes.constructions import (
    build_g1,
    build_h1,
    build_h2,
    conic_truncated,
    truncated_plane,
)
from ryserplanes.decompose import _greedy_cover
from ryserplanes.errors import ArityMismatch, UnknownEdge
from ryserplanes.hypergraph import (
    Hypergraph,
    Vertex,
    _bits,
    _ExactSolver,
    cover_is_valid,
    cover_number,
    disjoint_union,
    is_ryser,
    matching_is_valid,
    matching_number,
    restrict,
    tau_subfamily,
    tau_subfamily_at_most,
    validate_partite,
)


def grid(r, per_side):
    verts = [
        Vertex(i * per_side + j, f"v{i}{j}", i) for i in range(r) for j in range(per_side)
    ]
    return verts


def make(r, per_side, edges):
    return Hypergraph(r, grid(r, per_side), [tuple(sorted(e)) for e in edges])


def brute_nu(h):
    best = 0
    m = len(h.edges)
    sets = [set(e) for e in h.edges]
    for mask in range(1 << m):
        chosen = [sets[i] for i in range(m) if mask >> i & 1]
        if len(chosen) <= best:
            continue
        union = set()
        ok = True
        for s in chosen:
            if union & s:
                ok = False
                break
            union |= s
        if ok:
            best = len(chosen)
    return best


def brute_tau(h):
    # exhaustive: cover the first uncovered edge by one of its vertices
    sets = [set(e) for e in h.edges]

    def covers(depth, chosen):
        rest = [s for s in sets if not s & chosen]
        if not rest:
            return True
        if depth == 0:
            return False
        return any(covers(depth - 1, chosen | {v}) for v in sorted(rest[0]))

    k = 0
    while not covers(k, set()):
        k += 1
    return k


# ---- validation ----


def test_validation_accepts_proper_partite():
    h = make(3, 2, [(0, 2, 4), (1, 3, 5)])
    rep = validate_partite(h)
    assert rep.ok
    assert rep.r == 3
    assert rep.side_sizes == (2, 2, 2)
    assert rep.violations == ()


def test_validation_catches_duplicate_vertex_id():
    h = Hypergraph(2, [Vertex(0, "a", 0), Vertex(0, "b", 1)], [])
    codes = [v["code"] for v in validate_partite(h).violations]
    assert "duplicate_vertex_id" in codes


def test_validation_catches_side_out_of_range():
    h = Hypergraph(2, [Vertex(0, "a", 0), Vertex(1, "b", 5)], [])
    rep = validate_partite(h)
    assert "side_out_of_range" in [v["code"] for v in rep.violations]
    assert rep.side_sizes == (1, 0)  # the side-5 vertex is not counted


def test_validation_catches_bad_edges():
    verts = grid(2, 2)
    h = Hypergraph(2, verts, [(0, 2), (0, 2), (1, 1), (0, 9), (0,), (0, 1)])
    codes = {v["code"] for v in validate_partite(h).violations}
    assert "duplicate_edge" in codes
    assert "repeated_vertex_in_edge" in codes
    assert "unknown_vertex" in codes
    assert "edge_size" in codes
    assert "side_hit_twice" in codes


@pytest.mark.parametrize("r", [1, 0, -1])
def test_validation_rejects_arity_below_two(r):
    h = Hypergraph(r, [Vertex(0, "a", 0), Vertex(1, "b", 0)], [(0,), (1,)] if r == 1 else [])
    rep = validate_partite(h)
    assert not rep.ok
    assert rep.violations == ({"code": "arity_too_small", "r": r},)


@pytest.mark.parametrize("r", [3, 10**12])
def test_validation_rejects_more_sides_than_vertices(r):
    # some side is empty, so no edge can meet every side; no table of r
    # sides is built, so r = 10**12 costs no memory
    h = Hypergraph(r, [Vertex(0, "a", 0), Vertex(1, "b", 1)], [(0, 1)])
    rep = validate_partite(h)
    assert not rep.ok
    assert rep.side_sizes == ()
    assert rep.violations == ({"code": "arity_too_large", "r": r},)


def test_solver_rejects_an_edge_with_no_vertices():
    # nothing covers an empty edge, so a cover search on it would never end
    with pytest.raises(ValueError):
        cover_number(Hypergraph(0, [], [()]))
    with pytest.raises(ValueError):
        cover_number(make(2, 2, [(0, 2), ()]))


def test_validation_catches_side_missed():
    verts = grid(3, 2)
    h = Hypergraph(3, verts, [(0, 1, 2)])  # two side-0 vertices, side 2 missed
    codes = {v["code"] for v in validate_partite(h).violations}
    assert "side_missed" in codes


def malformed_corpus(count, seed=2020):
    """Seeded r = 2..5 hypergraphs with every kind of fault mixed in.

    Vertex ids repeat, sides fall out of range and some families have
    fewer vertices than sides; edges are transversals, short, long, empty,
    with a repeated or unknown vertex, or a copy of an earlier edge.
    """
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(2, 5)
        n = rng.randint(0, 3 * r)
        verts = []
        for i in range(n):
            vid = i if rng.random() < 0.85 else rng.randrange(n)
            side = i % r if rng.random() < 0.7 else rng.choice((rng.randrange(r), -1, r, r + 2))
            verts.append(Vertex(vid, f"v{i}", side))
        ids = [v.id for v in verts]
        by_side = {}
        for v in verts:
            by_side.setdefault(v.side, []).append(v.id)
        edges = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.randrange(8)
            if kind <= 2 and all(s in by_side for s in range(r)):
                e = [rng.choice(by_side[s]) for s in range(r)]
            elif kind == 3 and edges:
                e = list(rng.choice(edges))
            elif kind == 4:
                e = []
            else:
                size = max(0, r + rng.choice((-2, -1, 0, 0, 1)))
                pool = ids + [n, n + 1, -1]
                e = [rng.choice(pool) for _ in range(size)]
            edges.append(tuple(e))
        yield Hypergraph(r, verts, edges)


# sha256 over repr(validate_partite(h)) for the 3,000 families of
# malformed_corpus(3000): the violations, their order and the side sizes
FROZEN_VALIDATION_DIGEST = "f65229de5141ce079c338e17af06044ace96fb0fa69dea02373a6455aecb20b6"


def test_validation_reports_are_frozen():
    digest = hashlib.sha256()
    codes = set()
    clean = 0
    for h in malformed_corpus(3000):
        rep = validate_partite(h)
        digest.update(repr(rep).encode())
        codes.update(v["code"] for v in rep.violations)
        clean += rep.ok
    assert codes == {
        "arity_too_large", "duplicate_vertex_id", "side_out_of_range", "duplicate_edge",
        "repeated_vertex_in_edge", "unknown_vertex", "edge_size", "side_hit_twice",
        "side_missed",
    }
    assert clean >= 40
    assert digest.hexdigest() == FROZEN_VALIDATION_DIGEST


# ---- matching and cover ----


def test_single_edge():
    h = make(2, 1, [(0, 1)])
    assert matching_number(h).value["nu"] == 1
    assert cover_number(h).value["tau"] == 1


def test_two_disjoint_edges():
    h = make(2, 2, [(0, 2), (1, 3)])
    assert matching_number(h).value["nu"] == 2
    assert cover_number(h).value["tau"] == 2


def test_intersecting_triangle():
    # pairwise-intersecting through three different vertices: nu = 1, tau = 2
    h = make(3, 3, [(0, 3, 6), (0, 4, 7), (1, 3, 7)])
    assert matching_number(h).value["nu"] == 1
    assert cover_number(h).value["tau"] == 2


def test_matching_certificate_witness_is_lex_least():
    h = make(2, 3, [(0, 3), (1, 4), (2, 5)])
    cert = matching_number(h)
    assert cert.witness == (0, 1, 2)
    assert cert.exhaustive
    assert matching_is_valid(h, cert.witness)


def test_cover_certificate_witness_is_lex_least():
    h = make(2, 2, [(0, 2), (0, 3), (1, 2)])
    cert = cover_number(h)
    assert cert.value["tau"] == 2
    assert cert.witness == (0, 1)
    assert cover_is_valid(h, cert.witness)


# lex-least witnesses (matching edge ids, cover vertex ids) of the built
# families, as the solver first committed them; any change to the search
# must reproduce them exactly
FROZEN_WITNESSES = {
    "g1": (lambda: build_g1(), (0, 6), (0, 1, 2, 3, 4, 12)),
    "h1(3,4)": (lambda: build_h1(3, 4)[0], (0, 8, 16, 24),
                (0, 1, 2, 3, 14, 16, 25, 27, 36, 38)),
    "h2(4,2)": (lambda: build_h2(4, 2)[0], (0, 13), (0, 1, 2, 3, 4, 21, 27, 28)),
    "h1(5,2)": (lambda: build_h1(5, 2)[0], (0, 22), (0, 1, 2, 3, 4, 5, 34, 35, 40, 55)),
    "h2(5,2)": (lambda: build_h2(5, 2)[0], (0, 21), (0, 1, 2, 3, 4, 5, 31, 35, 40, 50)),
    "TC(7)": (lambda: conic_truncated(7), (0,), (1, 2, 3, 4, 5, 6, 7)),
}


@pytest.mark.parametrize("name", sorted(FROZEN_WITNESSES))
def test_family_witnesses_are_frozen(name):
    build, matching, cover = FROZEN_WITNESSES[name]
    h = build()
    assert matching_number(h).witness == matching
    assert cover_number(h).witness == cover


def star(m):
    # m edges of an r = 2 graph, all through vertex 0
    verts = [Vertex(0, "c", 0)] + [Vertex(i, f"l{i}", 1) for i in range(1, m + 1)]
    return Hypergraph(2, verts, [(0, i) for i in range(1, m + 1)])


def test_matching_depth_does_not_grow_with_edges():
    # 1100 edges is past the default recursion limit, so a search that
    # recursed once per edge would crash here
    h = star(1100)
    assert matching_number(h).witness == (0,)
    two = matching_number(disjoint_union(h, h))
    assert two.value["nu"] == 2
    assert two.witness == (0, 1100)


def disjoint_edges(m):
    # m pairwise disjoint edges of an r = 2 graph: nu = tau = m
    verts = [Vertex(i, f"v{i}", i % 2) for i in range(2 * m)]
    return Hypergraph(2, verts, [(2 * i, 2 * i + 1) for i in range(m)])


def path(m):
    # an r = 2 path, edge i = (i, i + 1); its lex-least maximum matching
    # takes every other edge from the first
    verts = [Vertex(i, f"v{i}", i % 2) for i in range(m + 1)]
    return Hypergraph(2, verts, [(i, i + 1) for i in range(m)])


@pytest.mark.parametrize("build, m, nu, memo", [
    (disjoint_edges, 1200, 1200, 1201),
    (path, 5000, 2500, 5000),
])
def test_matching_needs_no_recursion_as_nu_grows(build, m, nu, memo):
    # a search that recursed once per matched edge would pass the default
    # recursion limit on both
    h = build(m)
    cert = matching_number(h)
    assert cert.value["nu"] == nu
    assert cert.witness == tuple(range(0, m, m // nu))
    assert matching_is_valid(h, cert.witness)
    assert len(h.solver()._match_memo) == memo


def test_empty_hypergraph():
    h = make(2, 2, [])
    assert matching_number(h).value["nu"] == 0
    assert cover_number(h).value["tau"] == 0
    assert cover_is_valid(h, ())


def test_is_ryser_reports_both_witnesses():
    h = make(2, 2, [(0, 2), (1, 3)])
    cert = is_ryser(h)
    assert cert.kind == "ryser"
    assert cert.value == {
        "r": 2, "nu": 2, "tau": 2, "is_ryser": True, "conjecture_holds": True,
    }
    assert matching_is_valid(h, cert.witness["matching"])
    assert cover_is_valid(h, cert.witness["cover"])


def test_witness_validators_reject_garbage():
    h = make(2, 2, [(0, 2), (1, 3)])
    assert not matching_is_valid(h, (0, 0))
    assert not cover_is_valid(h, (0,))


# ---- combinators ----


def test_disjoint_union_offsets_ids_and_labels():
    a = make(2, 1, [(0, 1)])
    b = make(2, 2, [(0, 2), (1, 3)])
    u = disjoint_union(a, b)
    assert len(u.vertices) == 6
    assert len(u.edges) == 3
    assert matching_number(u).value["nu"] == 3
    labels = {v.label for v in u.vertices}
    assert "a:v00" in labels and "b:v00" in labels


@pytest.mark.parametrize("a_ids,b_ids", [
    ((0, 1), (-2, -1)),
    ((-3, -2), (-2, -1)),
    ((-3, -2), (0, 1)),
    ((0, 1), (-1, 5)),
])
def test_disjoint_union_keeps_negative_ids_apart(a_ids, b_ids):
    def pair(ids):
        return Hypergraph(2, [Vertex(vid, f"v{vid}", side) for side, vid in enumerate(ids)],
                          [ids])

    u = disjoint_union(pair(a_ids), pair(b_ids))
    assert validate_partite(u).ok
    assert len({v.id for v in u.vertices}) == 4
    assert len(set(u.edges)) == 2
    assert matching_number(u).value["nu"] == 2


def test_disjoint_union_requires_equal_r():
    with pytest.raises(ArityMismatch):
        disjoint_union(make(2, 1, [(0, 1)]), make(3, 1, [(0, 1, 2)]))


def test_restrict_keeps_parent_ids():
    h = make(2, 2, [(0, 2), (1, 3), (0, 3)])
    sub = restrict(h, [0, 2])
    assert [v.id for v in sub.vertices] == [0, 2, 3]
    assert sub.edges == ((0, 2), (0, 3))
    with pytest.raises(UnknownEdge):
        restrict(h, [7])


def test_tau_subfamily_matches_restricted_cover():
    h = make(2, 3, [(0, 3), (1, 4), (2, 5), (0, 4)])
    for ids in [(0,), (0, 1), (0, 1, 2), (0, 3), (1, 2, 3)]:
        sub = restrict(h, ids)
        assert tau_subfamily(h, ids) == cover_number(sub).value["tau"]
        assert tau_subfamily_at_most(h, ids, len(ids))


@pytest.mark.parametrize("b, want", [(-1, False), (0, True), (1, True)])
def test_empty_subfamily_has_cover_number_zero(b, want):
    # the empty set covers no edges at all, and no set has negative size
    h = build_h1(3, 2)[0]
    assert tau_subfamily(h, []) == 0
    assert tau_subfamily_at_most(h, [], b) is want
    assert _greedy_cover(h.solver().vert_edges, 0, b) == 0  # 0 claims nothing


@pytest.mark.parametrize("ids", [[999], [0, 1, 999], [4], [-1]])
def test_subfamily_queries_reject_unknown_edges(ids):
    # the same check as restrict: an id outside the edge list is an error,
    # never an IndexError, a shift error or a bit the solver ignores
    h = make(2, 3, [(0, 3), (1, 4), (2, 5), (0, 4)])
    with pytest.raises(UnknownEdge):
        restrict(h, ids)
    with pytest.raises(UnknownEdge):
        tau_subfamily(h, ids)
    with pytest.raises(UnknownEdge):
        tau_subfamily_at_most(h, ids, 2)


# ---- randomized cross-checks ----


def random_instance(rng, max_edges=8):
    r = rng.randrange(2, 5)
    per_side = rng.randrange(2, 5)
    m = min(rng.randrange(1, max_edges + 1), per_side ** r)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(
            side * per_side + rng.randrange(per_side) for side in range(r)
        )))
    return make(r, per_side, sorted(edges))


def test_solver_agrees_with_enumeration():
    rng = random.Random(1721)
    for _ in range(60):
        h = random_instance(rng)
        nu = matching_number(h)
        tau = cover_number(h)
        assert nu.value["nu"] == brute_nu(h), h.edges
        assert tau.value["tau"] == brute_tau(h), h.edges
        assert matching_is_valid(h, nu.witness)
        assert cover_is_valid(h, tau.witness)


def test_nu_tau_sandwich_on_randoms():
    rng = random.Random(404)
    for _ in range(60):
        h = random_instance(rng)
        v = is_ryser(h).value
        assert v["nu"] <= v["tau"] <= h.r * v["nu"]


# ---- the cover search's lower bound and search size ----


def brute_tau_subsets(h, edge_ids):
    # smallest vertex set meeting every edge, by plain subset enumeration
    edges = [set(h.edges[i]) for i in edge_ids]
    support = sorted(set().union(*edges))
    for k in range(len(support) + 1):
        for pick in combinations(support, k):
            chosen = set(pick)
            if all(e & chosen for e in edges):
                return k


def own_bound(s, U):
    # U's own fractional-matching bound, ceil(sum y_e), from the solver's groups
    L, _, total = s._fractional(U)
    return -(-total // L)


def test_fractional_bound_is_sound_and_dominates_degree_bound():
    rng = random.Random(2718)
    gains = 0
    for _ in range(80):
        h = random_instance(rng, max_edges=10)
        m = len(h.edges)
        s = h.solver()
        for _ in range(4):
            ids = [i for i in range(m) if rng.random() < 0.7] or [rng.randrange(m)]
            deg = {}
            for i in ids:
                for v in h.edges[i]:
                    deg[v] = deg.get(v, 0) + 1
            degree_bound = -(-len(ids) // max(deg.values()))
            lb = own_bound(s, sum(1 << i for i in ids))
            assert degree_bound <= lb <= brute_tau_subsets(h, ids), (h.edges, ids)
            gains += lb > degree_bound
    # the sample must hold families where the two bounds differ
    assert gains >= 5


def test_fractional_bound_beats_degree_bound_on_h2_q7():
    h, _ = build_h2(7, 2)
    s = h.solver()
    U = s.all_edges
    maxdeg = max((inc & U).bit_count() for inc in s.vert_edges)
    assert -(-U.bit_count() // maxdeg) == 10
    assert own_bound(s, U) == 11


def test_inherited_bounds_are_sound():
    # a negative `_lower` entry -k is a bound a parent's fractional matching
    # proved for the child; every entry, either sign, is at most tau, and an
    # inherited k never exceeds the child's own bound.  Budgets 1 and 2 are
    # answered by the leaf, which runs no bound pass, so the sampled queries
    # ask at 3 and 4, on families large enough to need them
    rng = random.Random(31)
    inherited = 0
    for _ in range(80):
        h = random_instance(rng, max_edges=30)
        m = len(h.edges)
        s = h.solver()
        cover_number(h)
        for _ in range(6):
            s.tau_le(rng.randrange(1, 1 << m), rng.randrange(3, 5))
        negative = []
        for U, lb in s._lower.items():
            ids = [i for i in range(m) if U >> i & 1]
            assert abs(lb) <= brute_tau_subsets(h, ids), (h.edges, ids)
            if lb < 0:
                assert -lb <= own_bound(s, U), (h.edges, ids)
                negative.append((U, -lb))
        # asked again at the inherited k, a cut node computes its own bound
        for U, k in negative:
            s.tau_le(U, k)
            assert s._lower[U] > 0 and s._lower[U] >= own_bound(s, U)
        inherited += len(negative)
    # the sample must hold inherited entries
    assert inherited >= 5


def meets(h, s, cover, U):
    """Do the vertices at the positions in `cover` meet every edge of U?"""
    chosen = {s.vids[p] for p in _bits(cover)}
    return all(chosen & set(h.edges[ei]) for ei in _bits(U))


def brute_lex_min_cover(h):
    # ids rise with positions here, so the first hit is the lex-least minimum
    ids = [v.id for v in h.vertices]
    for k in range(len(ids) + 1):
        for pick in combinations(ids, k):
            if all(set(e) & set(pick) for e in h.edges):
                return pick


def test_stored_and_reported_covers_are_checked_by_brute_force():
    # every `_exact` entry is a minimum cover of its family, and every yes
    # of `tau_le` leaves a cover of at most b vertices in `found`
    rng = random.Random(1913)
    yes = 0
    for _ in range(60):
        h = random_instance(rng, max_edges=10)
        m = len(h.edges)
        s = h.solver()
        cert = cover_number(h)
        assert cert.witness == brute_lex_min_cover(h), h.edges
        for _ in range(4):
            U = rng.randrange(0, 1 << m)
            b = rng.randrange(-1, 5)
            if s.tau_le(U, b):
                assert s.found.bit_count() <= b and meets(h, s, s.found, U), (h.edges, U, b)
                yes += 1
        for U, cover in s._exact.items():
            ids = [i for i in range(m) if U >> i & 1]
            assert meets(h, s, cover, U), (h.edges, ids)
            assert cover.bit_count() == brute_tau_subsets(h, ids), (h.edges, ids)
    assert yes >= 30


def test_leaf_agrees_with_brute_force():
    # budgets 1 and 2 on a fresh solver: only the leaf answers, it is exact,
    # its yes leaves a cover of at most b vertices, and it stores nothing
    rng = random.Random(2402)
    answers = {True: 0, False: 0}
    for _ in range(120):
        h = random_instance(rng, max_edges=12)
        m = len(h.edges)
        s = h.solver()
        for _ in range(6):
            U = rng.randrange(1, 1 << m)
            tau = brute_tau_subsets(h, [i for i in range(m) if U >> i & 1])
            for b in (1, 2):
                got = s.tau_le(U, b)
                assert got == (tau <= b), (h.edges, U, b)
                if got:
                    assert s.found.bit_count() <= b and meets(h, s, s.found, U), (h.edges, U, b)
                answers[got] += 1
        assert s._lower == {} and s._exact == {0: 0}
    assert min(answers.values()) >= 200


def test_tau_le_reports_a_cover_on_every_kind_of_yes():
    # edges 0, 1 share vertex 0 and edges 2, 3 are apart: three components
    h = make(2, 4, [(0, 4), (0, 5), (1, 6), (2, 7)])
    s = h.solver()
    # the empty family: the seeded entry, the empty cover
    assert s.tau_le(0, 0) and s.found == 0
    assert not s.tau_le(0b1111, 2)
    # the split: the components' covers, stored as the family's
    assert s.tau_le(0b1111, 3)
    assert s.found.bit_count() == 3 and meets(h, s, s.found, 0b1111)
    assert s._exact[0b1111] == s.found
    # an `_exact` hit: the stored cover again, and no new search
    split, entries = s.found, len(s._lower)
    s.found = 0
    assert s.tau_le(0b1111, 4) and s.found == split
    assert len(s._lower) == entries
    # the leaf (budgets 1 and 2): one or two vertices, and nothing stored
    tri = make(3, 3, [(0, 3, 6), (0, 4, 7), (1, 3, 7)])
    t = tri.solver()
    assert not t.tau_le(t.all_edges, 1)
    assert t.tau_le(t.all_edges, 2)
    assert t.found.bit_count() == 2 and meets(tri, t, t.found, t.all_edges)
    assert t._lower == {} and t._exact == {0: 0}
    # a branch: the child's cover plus the branch vertex; this connected
    # path of five edges has tau 3, so it is asked above the leaf
    walk = make(2, 3, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)])
    w = walk.solver()
    assert not w.tau_le(w.all_edges, 2)
    assert w.tau_le(w.all_edges, 3)
    assert w.found.bit_count() == 3 and meets(walk, w, w.found, w.all_edges)
    assert w.all_edges not in w._exact and w._lower[w.all_edges] == 3


def test_solver_is_freed_without_the_garbage_collector():
    # the solver holds no reference back to its hypergraph, so dropping the
    # hypergraph frees the solver and its memos by reference counting
    gc.disable()
    try:
        h, _ = build_h1(3, 2)
        cover_number(h)
        solver = weakref.ref(h.solver())
        del h
        assert solver() is None
    finally:
        gc.enable()


def ladder_instance(name):
    if name == "g1":
        return build_g1()
    fam, q, nu = re.fullmatch(r"(h1|h2|TC|T)\((\d+)(?:,(\d+))?\)", name).groups()
    if fam == "T":
        return truncated_plane(int(q))
    if fam == "TC":
        return conic_truncated(int(q))
    return (build_h1 if fam == "h1" else build_h2)(int(q), int(nu))[0]


@cache
def covered(name):
    """The solver of a fresh build after one cover_number; tests only read it."""
    h = ladder_instance(name)
    cover_number(h)
    return h.solver()


# `_lower` entries after one cover_number on a fresh build; the counts do
# not depend on the machine, so a weaker bound or a larger tree shows here
LOWER_MEMO_CEILINGS = {
    "h1(5,2)": 49,
    "h2(5,2)": 43,
    "h2(4,4)": 165,
    "h1(5,3)": 357,
    "h2(5,3)": 414,
    "h1(5,4)": 686,
    "TC(7)": 371,
    "h2(7,2)": 194,
    "TC(9)": 4743,
    "T(32)": 30,
}


@pytest.mark.parametrize("name", sorted(LOWER_MEMO_CEILINGS))
def test_cover_search_size_does_not_grow(name):
    assert len(covered(name)._lower) <= LOWER_MEMO_CEILINGS[name]


@pytest.mark.parametrize("q", [16, 32])
def test_truncated_plane_cover_takes_one_entry_per_budget(q):
    # the root's fractional bound is already q, the descent that finds a
    # cover stores one entry a level down to budget 3, the leaf answers
    # the last two levels (budgets 2 and 1) and stores nothing, and the
    # witness asks nothing more: q - 2 entries
    assert len(covered(f"T({q})")._lower) == q - 2


def reconstruction_calls(h):
    """(cover_number(h), the `tau_le` calls made after the climb has settled tau)."""
    s = h.solver()
    s.tau_exact(s.all_edges)
    calls = 0
    search = s.tau_le

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    s.tau_le = counting  # the instance attribute: recursive calls count too
    return cover_number(h), calls


@pytest.mark.parametrize("build, m, tau, most", [
    (truncated_plane, 32, 32, 0),
    (disjoint_edges, 1200, 1200, 0),
    (path, 700, 350, 350),
])
def test_witness_reuses_the_climbs_cover(build, m, tau, most):
    # a witness scan that searched again at every position would make 528
    # calls on T(32), 1,200 on the disjoint edges and 61,775 on the path
    h = build(m)
    cert, calls = reconstruction_calls(h)
    assert cert.value["tau"] == tau
    assert cover_is_valid(h, cert.witness)
    assert calls <= most


def test_inherited_cut_spares_own_bound_passes():
    # entries > 0 are the nodes that ran their own bound pass (or failed a
    # search); the rest were cut by a parent's fractional matching
    lower = covered("TC(9)")._lower
    assert sum(lb > 0 for lb in lower.values()) <= 2424


# `_match_memo` entries after one matching_number on a fresh build: the
# families the branching and the witness reconstruction reach, whatever
# order the search visits them in
MATCH_MEMO_SIZES = {
    "g1": 6,
    "h1(3,4)": 28,
    "h2(4,4)": 28,
    "h1(5,3)": 14,
    "h1(5,4)": 28,
    "TC(9)": 2,
    "T(13)": 2,
    "h2(32,2)": 6,
}


@pytest.mark.parametrize("name", sorted(MATCH_MEMO_SIZES))
def test_matching_memo_size_is_frozen(name):
    h = ladder_instance(name)
    matching_number(h)
    assert len(h.solver()._match_memo) == MATCH_MEMO_SIZES[name]


# (name, nu, tau): the verify ladder, then h2(4,3) and h2(7,2)
WITNESS_LADDER = (
    ("g1", 2, 6),
    ("h1(3,2)", 2, 6),
    ("h1(3,4)", 4, 10),
    ("h2(4,2)", 2, 8),
    ("h2(4,4)", 4, 14),
    ("h1(5,2)", 2, 10),
    ("h1(5,3)", 3, 14),
    ("h1(5,4)", 4, 18),
    ("h2(5,2)", 2, 10),
    ("h2(5,3)", 3, 14),
    ("TC(7)", 1, 7),
    ("TC(9)", 1, 9),
    ("T(13)", 1, 13),
    ("h2(4,3)", 3, 11),
    ("h2(7,2)", 2, 14),
)


def test_ladder_witnesses_are_frozen():
    rows = []
    for name, nu, tau in WITNESS_LADDER:
        v = is_ryser(ladder_instance(name))
        assert (v.value["nu"], v.value["tau"]) == (nu, tau), name
        rows.append([nu, tau, list(v.witness["matching"]), list(v.witness["cover"])])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "4f4f2e755be3af83f0bccf1d8d1bb36c94b02766dd879ea64e0247419f6b26fb"


def test_h2_q7_cover_is_frozen():
    # taken from the solver before the fractional bound, where it ran ~20 s
    h, _ = build_h2(7, 2)
    cert = cover_number(h)
    assert cert.value["tau"] == 14
    assert cert.witness == (0, 1, 2, 3, 4, 5, 6, 56, 57, 58, 59, 60, 61, 63)
    assert cover_is_valid(h, cert.witness)


@pytest.mark.parametrize("build, q", [(build_h2, 9), (build_h1, 7), (build_h2, 13)])
def test_nu2_cover_is_2q_at_larger_q(build, q):
    h, _ = build(q, 2)
    cert = cover_number(h)
    assert cert.value["tau"] == 2 * q
    assert cover_is_valid(h, cert.witness)


@pytest.mark.parametrize("name", ["T(5)", "T(7)", "TC(7)", "TC(9)"])
def test_edge_transitive_families_branch_in_index_order(name):
    # every edge meets as many others, so the static order is the index
    # order and the cover search branches as an index-order scan does
    s = ladder_instance(name).solver()
    assert s.order == list(range(len(s.edge_verts)))


def test_branch_order_puts_most_conflicting_edges_first():
    s = ladder_instance("h1(5,3)").solver()
    keys = [(-s.conflict[ei].bit_count(), ei) for ei in s.order]
    # non-increasing in conflicts, increasing in index within a tie
    assert keys == sorted(keys)
    assert sorted(s.order) == list(range(len(s.edge_verts)))
    assert s.order != sorted(s.order)


def relabelled(h, seed):
    """A copy of h with its vertex ids and its edge order permuted."""
    rng = random.Random(seed)
    ids = [v.id for v in h.vertices]
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    verts = [Vertex(perm[v.id], v.label, v.side) for v in h.vertices]
    edges = [tuple(perm[vid] for vid in e) for e in h.edges]
    rng.shuffle(edges)
    return Hypergraph(h.r, verts, edges)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["h1(5,3)", "h1(7,2)"])
def test_relabelled_cover_search_stays_small(name, seed):
    # `_lower` entries on seeds 1/2/3: h1(5,3) 2,374 / 1,905 / 2,297 and
    # h1(7,2) 1,813 / 1,639 / 1,498.  Scanning U in index order left
    # 47,764 / 185,194 / 105,560 and 109,418 / 6,573 / 167,719.
    built = covered(name)
    h = relabelled(ladder_instance(name), seed)
    cert = cover_number(h)
    assert cert.value["tau"] == built.tau_exact(built.all_edges) == 14
    assert cover_is_valid(h, cert.witness)
    assert len(h.solver()._lower) <= 5000


# ---- symmetry ----


def symmetric_instance(name, seed=0):
    if name == "TC(5)+TC(5)":
        h = disjoint_union(conic_truncated(5), conic_truncated(5))
    else:
        h = ladder_instance(name)
    return relabelled(h, seed) if seed else h


def edge_image(h, s, g):
    """Edge i's image under the position map g, for each i; None if one is no edge."""
    index = {e: ei for ei, e in enumerate(h.edges)}
    image = []
    for e in h.edges:
        mapped = tuple(sorted(s.vids[g[s.vids.index(v)]] for v in e))
        if mapped not in index:
            return None
        image.append(index[mapped])
    return image


# T(5) is there because some of its leaf maps fail the edge check
SYMMETRIC = ["TC(3)", "TC(5)", "T(3)", "T(4)", "T(5)", "g1", "h1(3,2)", "TC(5)+TC(5)"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", SYMMETRIC + ["TC(7)", "TC(9)", "h1(5,3)"])
def test_automorphisms_are_checked_bijections(name, seed):
    h = symmetric_instance(name, seed)
    s = h.solver()
    autos = s.automorphisms()
    n = len(s.vids)
    assert autos[0] == tuple(range(n))
    assert len(set(autos)) == len(autos)
    for g in autos:
        assert sorted(g) == list(range(n))
        image = edge_image(h, s, g)
        assert image is not None and sorted(image) == list(range(len(h.edges)))


@pytest.mark.parametrize("name, order", [("TC(5)", 20), ("TC(7)", 42), ("TC(9)", 144)])
def test_conic_truncations_have_the_affine_semilinear_group(name, order):
    # |AGammaL(1, q)| = q (q - 1) e for q = p^e, found from the incidences alone
    assert len(ladder_instance(name).solver().automorphisms()) == order
    assert len(relabelled(ladder_instance(name), 1).solver().automorphisms()) == order


def brute_tau_by_components(h, ids):
    """tau of the edges `ids` by exhaustive search, one vertex-connected part at a time."""
    parts = []
    for e in (set(h.edges[i]) for i in ids):
        touching = [p for p in parts if p[0] & e]
        merged = [e | set().union(*(p[0] for p in touching)), [e]]
        for p in touching:
            merged[1] += p[1]
            parts.remove(p)
        parts.append(merged)
    return sum(brute_tau(Hypergraph(h.r, h.vertices, [tuple(e) for e in edges]))
               for _, edges in parts)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", SYMMETRIC)
def test_orbital_search_agrees_with_plain_search_and_brute_force(name, seed):
    h = symmetric_instance(name, seed)
    s = h.solver()
    autos = s.automorphisms()
    images = [edge_image(h, s, g) for g in autos]
    full = s.all_edges
    for U in (full, full & ~s.vert_edges[0], full & ~1, full & ~0b110):
        ids = [ei for ei in range(len(h.edges)) if U >> ei & 1]
        # every listed map is taken to fix the whole family; for the others
        # the test keeps those it finds sending U onto itself
        fixing = autos if U == full else [
            g for g, img in zip(autos, images) if img and {img[ei] for ei in ids} == set(ids)
        ]
        tau = brute_tau_by_components(h, ids)
        for b in range(tau + 2):
            plain = Hypergraph(h.r, h.vertices, h.edges).solver()
            orbital = Hypergraph(h.r, h.vertices, h.edges).solver()
            want = b >= tau
            assert plain.tau_le(U, b) == want, (U, b)
            assert orbital.tau_le(U, b, fixing) == want, (U, b)
    # the whole-family climb with the list from the start: the same witness
    plain = cover_number(Hypergraph(h.r, h.vertices, h.edges))
    forced = Hypergraph(h.r, h.vertices, h.edges)
    forced.solver()._autos = autos
    assert cover_number(forced) == plain


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SYMMETRIC + ["TC(7)", "TC(9)"])
def test_every_search_node_gets_maps_that_fix_its_family(monkeypatch, name, seed):
    h = symmetric_instance(name, seed)
    s = h.solver()
    images = {g: edge_image(h, s, g) for g in s.automorphisms()}
    search = _ExactSolver.tau_le
    checked = []

    def tau_le(self, U, b, autos=None):
        for g in autos or ():
            assert all(U >> images[g][ei] & 1 for ei in _bits(U)), (U, g)
        checked.append(len(autos or ()))
        return search(self, U, b, autos)

    monkeypatch.setattr(_ExactSolver, "tau_le", tau_le)
    cover_number(h)
    # the climb hands lists down below the whole-family root
    assert max(checked[1:]) > 1


# the 13 verify rungs less TC(7) and TC(9), plus three larger instances
NO_DISCOVERY = ["g1", "h1(3,2)", "h1(3,4)", "h2(4,2)", "h2(4,4)", "h1(5,2)", "h1(5,3)",
                "h1(5,4)", "h2(5,2)", "h2(5,3)", "T(13)", "T(25)", "h2(11,2)"]


@pytest.mark.parametrize("name", NO_DISCOVERY)
def test_cover_search_looks_for_symmetry_only_on_large_refutations(name):
    # discovery waits for the whole-family root's first child to fail with
    # at least as many `_lower` entries as vertices; these never get there
    assert covered(name)._autos is None


@pytest.mark.parametrize("name, order", [("TC(7)", 42), ("TC(9)", 144)])
def test_cover_search_finds_symmetry_on_the_conic_truncations(name, order):
    assert len(covered(name)._autos) == order


# a 3-partite family, 8 vertices a side, found by a seeded search over random
# families: at budget 7 its root's first failed child stores exactly 24
# `_lower` entries, one per vertex; vertices 0 and 21 are twins
AT_THE_DISCOVERY_BOUNDARY = [
    (0, 8, 21), (0, 14, 21), (1, 8, 19), (1, 11, 18), (1, 12, 22), (1, 13, 17), (2, 8, 17),
    (2, 11, 19), (2, 14, 17), (3, 8, 18), (3, 8, 20), (4, 9, 19), (4, 10, 20), (4, 11, 17),
    (4, 13, 20), (4, 15, 20), (5, 8, 17), (5, 10, 17), (5, 12, 18), (5, 15, 19), (6, 9, 18),
    (6, 9, 19), (6, 11, 23), (6, 13, 16), (6, 13, 23), (6, 14, 22), (7, 8, 22), (7, 11, 16),
    (7, 13, 19), (7, 15, 17),
]


@pytest.mark.parametrize("isolated, order", [(0, 2), (1, None)])
def test_discovery_starts_at_one_refuted_entry_per_vertex(isolated, order):
    # a vertex in no edge leaves the search as it is and raises the threshold
    # to 25 entries, which that refutation misses by one
    verts = [Vertex(i, f"v{i}", i // 8) for i in range(24)] + [Vertex(24, "v24", 0)] * isolated
    h = Hypergraph(3, verts, AT_THE_DISCOVERY_BOUNDARY)
    cert = cover_number(h)
    assert (cert.value["tau"], cert.witness) == (8, (0, 1, 2, 3, 4, 5, 6, 7))
    s = h.solver()
    assert len(s._lower) == 94
    assert (None if s._autos is None else len(s._autos)) == order


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_tc9_cover_search_stays_small(seed):
    # `_lower` entries on seeds 1/2/3: 10,164 / 9,242 / 16,235, against
    # 25 k-40 k without the orbital rule
    h = relabelled(ladder_instance("TC(9)"), seed)
    cert = cover_number(h)
    assert cert.value["tau"] == 9
    assert cover_is_valid(h, cert.witness)
    assert len(h.solver()._lower) <= 20000
