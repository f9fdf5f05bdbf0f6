"""Verdict and witness checks that share no code with the solvers.

Every function here works on plain data read back from the files and
printed output the program produces: edges are lists of vertex ids, a
matching is a list of edge indices, a cover a list of vertex ids.  A
failed check raises `WrongAnswer`; the benchmark counts it against the
op and marks the run incorrect.
"""

import hashlib
import json


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


def expect(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def load_edges(path):
    """(r, edges) straight from an instance file, no library code."""
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    return d["r"], [list(e) for e in d["edges"]]


def sha256_of(path):
    with open(path, "rb") as f:
        return "sha256:" + hashlib.sha256(f.read()).hexdigest()


def check_matching(edges, edge_ids, nu):
    expect(len(edge_ids) == nu, f"matching witness has {len(edge_ids)} edges, claim {nu}")
    seen = set()
    for ei in edge_ids:
        expect(0 <= ei < len(edges), f"matching names edge {ei} of {len(edges)}")
        e = set(edges[ei])
        expect(not seen & e, f"matching edges overlap at {sorted(seen & e)}")
        seen |= e


def check_cover(edges, vertex_ids, tau):
    expect(len(set(vertex_ids)) == tau, f"cover witness has {len(set(vertex_ids))} vertices, claim {tau}")
    s = set(vertex_ids)
    for ei, e in enumerate(edges):
        expect(s & set(e), f"cover misses edge {ei}")


def has_cover_at_most(edges, k):
    """Exhaustive: some k vertices meet every edge.

    Branches on the vertices of the first edge not yet met, which any
    cover must contain one of, so depth is at most k.
    """
    def rec(rest, k):
        if not rest:
            return True
        if k == 0:
            return False
        return any(rec([e for e in rest if v not in e], k - 1) for v in rest[0])

    return rec([set(e) for e in edges], k)


def check_kernel_pair(r, edges, first, second):
    """A `some` verdict: two pairwise-intersecting families, disjoint
    supports, each with cover number at least r - 1."""
    supports = []
    for fam in (first, second):
        expect(len(fam) > 0, "empty family in the witness pair")
        sets = [set(edges[ei]) for ei in fam]
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                expect(a & b, f"family {fam} is not pairwise intersecting")
        expect(not has_cover_at_most(sets, r - 2), f"family {fam} has tau < r - 1 = {r - 1}")
        supports.append(set().union(*sets))
    expect(not supports[0] & supports[1], "witness families share vertices")


def brute_disjoint_pair(r, edges):
    """Reference answer for the decompose question on tiny instances."""
    m = len(edges)
    expect(m <= 12, f"{m} edges is past the brute-force budget")
    sets = [set(e) for e in edges]
    supports = []
    for mask in range(1, 1 << m):
        ids = [i for i in range(m) if mask >> i & 1]
        if all(sets[a] & sets[b] for x, a in enumerate(ids) for b in ids[x + 1:]):
            fam = [sets[i] for i in ids]
            if not has_cover_at_most(fam, r - 2):
                supports.append(set().union(*fam))
    return any(
        not supports[i] & supports[j]
        for i in range(len(supports))
        for j in range(i + 1, len(supports))
    )


def check_embedding(small, big, pairs):
    """`small` and `big` are (edges, {vertex: side}); `pairs` must map every
    small vertex injectively, sides injectively, and edges onto edges."""
    (s_edges, s_side), (b_edges, b_side) = small, big
    m = dict(pairs)
    expect(len(m) == len(s_side) and set(m) == set(s_side), "embedding does not map every vertex")
    expect(len(set(m.values())) == len(m), "embedding is not injective")
    side_map = {}
    for a, b in m.items():
        expect(side_map.setdefault(s_side[a], b_side[b]) == b_side[b], "embedding splits a side")
    expect(len(set(side_map.values())) == len(side_map), "embedding merges two sides")
    big_edges = {tuple(sorted(e)) for e in b_edges}
    for e in s_edges:
        expect(tuple(sorted(m[v] for v in e)) in big_edges, f"edge {e} does not map onto an edge")


def relabel(d, rng):
    """A copy of an instance dict with vertex ids and edge order permuted.

    nu, tau and the decompose outcome are invariant; only the numbering,
    and with it the solvers' search order, changes.
    """
    ids = [v["id"] for v in d["vertices"]]
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    edges = [sorted(perm[v] for v in e) for e in d["edges"]]
    rng.shuffle(edges)
    out = dict(d)
    out["vertices"] = sorted(
        ({**v, "id": perm[v["id"]]} for v in d["vertices"]), key=lambda v: v["id"]
    )
    out["edges"] = edges
    out["meta"] = {**d.get("meta", {}), "relabelled": True}
    return out


def random_instance(rng, r, per_side, m):
    """A random r-partite instance dict with m distinct edges and per_side
    vertices on each side, in the program's file format."""
    edges = set()
    while len(edges) < m:
        edges.add(tuple(side * per_side + rng.randrange(per_side) for side in range(r)))
    return {
        "format_version": 1,
        "r": r,
        "vertices": [
            {"id": s * per_side + i, "label": f"x{s}_{i}", "side": s}
            for s in range(r)
            for i in range(per_side)
        ],
        "edges": [list(e) for e in sorted(edges)],
        "meta": {"family": "random"},
    }
