import random
from itertools import combinations

import pytest

from ryserplanes.constructions import build_h1, build_h2, conic_truncated
from ryserplanes.decompose import (
    brute_force_disjoint_pair,
    enumerate_kernels,
    find_disjoint_ryser_pair,
)
from ryserplanes.errors import SearchTooLarge
from ryserplanes.hypergraph import (
    Hypergraph,
    Vertex,
    disjoint_union,
    restrict,
    tau_subfamily,
)


def make(r, per_side, edges):
    verts = [
        Vertex(i * per_side + j, f"v{i}{j}", i)
        for i in range(r)
        for j in range(per_side)
    ]
    return Hypergraph(r, verts, [tuple(sorted(e)) for e in edges])


def test_conic_truncation_is_a_single_kernel():
    # the whole family is intersecting with tau = r - 1; no proper
    # subfamily reaches the threshold, so it is its own unique kernel
    h = conic_truncated(3)
    enum = enumerate_kernels(h)
    assert enum.status == "exhausted"
    assert len(enum.kernels) == 1
    k = enum.kernels[0]
    assert k.edge_ids == tuple(range(6))
    assert k.tau == 3
    assert k.support == frozenset(v.id for v in h.vertices)


def test_kernels_verify_their_contract():
    h, _ = build_h1(3, 2)
    enum = enumerate_kernels(h)
    assert enum.status == "exhausted"
    assert len(enum.kernels) == 13
    for k in enum.kernels:
        for a, b in combinations(k.edge_ids, 2):
            assert set(h.edges[a]) & set(h.edges[b])
        assert k.tau == tau_subfamily(h, k.edge_ids) >= h.r - 1
        for e in k.edge_ids:
            rest = [f for f in k.edge_ids if f != e]
            assert tau_subfamily(h, rest) < h.r - 1


def test_two_copies_give_a_disjoint_pair():
    tc = conic_truncated(3)
    res = find_disjoint_ryser_pair(disjoint_union(tc, tc))
    assert res.outcome == "some"
    assert res.pair.first.edge_ids == tuple(range(6))
    assert res.pair.second.edge_ids == tuple(range(6, 12))
    assert res.pair.first.support.isdisjoint(res.pair.second.support)
    assert res.certificate.kind == "disjoint_pair"
    assert res.certificate.value["tau_first"] == 3


def test_base_glued_family_has_no_disjoint_pair():
    h, _ = build_h1(3, 2)
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == "none"
    assert res.enumeration.status == "exhausted"
    assert res.pair is None
    assert res.certificate.kind == "no_disjoint_pair"
    assert res.certificate.exhaustive


def test_third_plane_creates_a_disjoint_pair():
    # with three glued planes the slack appears: five lines of the first
    # plane plus the bridge edge into plane two stay clear of the shared
    # point, and plane three's conic lines (which use it) form the partner;
    # this pins the faulty nu >= 3 gluing (see `build_h1`) and must change
    # when the gluing is fixed
    h, _ = build_h1(3, 3)
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == "some"
    a, b = res.pair.first, res.pair.second
    assert a.support.isdisjoint(b.support)
    for k in (a, b):
        for x, y in combinations(k.edge_ids, 2):
            assert set(h.edges[x]) & set(h.edges[y])
        assert tau_subfamily(h, k.edge_ids) == h.r - 1


def test_h2_q7_has_a_disjoint_pair():
    # 38 plane-1 edges and 28 plane-2 lines avoiding P plus e2 are two
    # vertex-disjoint intersecting families with tau = r - 1, so h2(7,2) is
    # decomposable; this pins the faulty H2 later plane (see `build_h2`) and
    # must change when the construction is fixed
    h, _ = build_h2(7, 2)
    k1 = list(range(38))
    k2 = [43] + list(range(50, 77)) + [78]
    for k in (k1, k2):
        for a, b in combinations(k, 2):
            assert set(h.edges[a]) & set(h.edges[b])
        assert tau_subfamily(h, k) == h.r - 1 == 7
    support = [set().union(*(h.edges[e] for e in k)) for k in (k1, k2)]
    assert support[0].isdisjoint(support[1])


@pytest.mark.parametrize("nu, outcome, pair", [
    (2, "none", None),
    (3, "some", ((1, 2, 3, 4, 5, 13), (15, 16, 17, 18, 19, 20))),
])
def test_pair_search_outcome_is_frozen(nu, outcome, pair):
    # the outcome and the pair as the search first committed them on h1(3,nu)
    h, _ = build_h1(3, nu)
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == outcome
    if pair is None:
        assert res.pair is None
    else:
        assert (res.pair.first.edge_ids, res.pair.second.edge_ids) == pair


def test_cap_reports_inconclusive():
    h, _ = build_h1(3, 2)
    res = find_disjoint_ryser_pair(h, cap=50)
    assert res.outcome == "inconclusive"
    assert res.enumeration.status == "cap_hit"
    assert res.enumeration.visited == 51
    assert not res.certificate.exhaustive


def test_brute_force_rejects_large_inputs():
    h, _ = build_h1(3, 2)
    with pytest.raises(SearchTooLarge):
        brute_force_disjoint_pair(h)


def random_instance(rng):
    r = rng.randrange(2, 5)
    per_side = rng.randrange(2, 4)
    m = min(rng.randrange(2, 11), per_side ** r)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(
            side * per_side + rng.randrange(per_side) for side in range(r)
        )))
    return make(r, per_side, sorted(edges))


def test_search_agrees_with_brute_force_on_small_instances():
    rng = random.Random(2718)
    hits = 0
    for _ in range(40):
        h = random_instance(rng)
        res = find_disjoint_ryser_pair(h)
        assert res.enumeration.status == "exhausted"
        expect = brute_force_disjoint_pair(h)
        assert (res.outcome == "some") == expect
        hits += expect
    assert hits > 0  # the corpus must exercise both outcomes


def test_restricting_to_a_kernel_gives_an_intersecting_ryser_subhypergraph():
    h, _ = build_h1(3, 2)
    enum = enumerate_kernels(h)
    k = enum.kernels[0]
    sub = restrict(h, k.edge_ids)
    from ryserplanes.hypergraph import is_ryser

    v = is_ryser(sub).value
    assert v["nu"] == 1
    assert v["tau"] == k.tau == h.r - 1
    assert v["is_ryser"]
