import random
from itertools import combinations

import pytest

from ryserplanes.constructions import build_h1, build_h2, conic_truncated
from ryserplanes.decompose import (
    _Budget,
    _CapHit,
    _greedy_cover,
    _reaching_cliques,
    brute_force_disjoint_pair,
    enumerate_kernels,
    find_disjoint_ryser_pair,
)
from ryserplanes.errors import SearchTooLarge, UnknownEdge
from ryserplanes.hypergraph import (
    _bits,
    _ExactSolver,
    disjoint_union,
    restrict,
    tau_subfamily,
)
from ryserplanes.symmetry import _orbit
from test_hypergraph import make, relabelled
from test_hypergraph import random_instance as solver_instance


def covered_by(h, edge_ids, b):
    """Brute force, no solver code: do b vertices meet every listed edge?"""
    edges = [set(h.edges[e]) for e in edge_ids]
    support = sorted(set().union(*edges))
    return any(
        all(e & set(pick) for e in edges)
        for k in range(min(b, len(support)) + 1)
        for pick in combinations(support, k)
    )


def assert_kernel_pair(h, pair, covered=covered_by):
    """Two pairwise-intersecting families on disjoint supports, each a
    minimal kernel: no cover of r - 2 vertices, one once any edge is gone."""
    a, b = pair.first, pair.second
    assert a.support.isdisjoint(b.support)
    for k in (a, b):
        assert k.tau == h.r - 1
        assert k.support == frozenset(v for e in k.edge_ids for v in h.edges[e])
        for x, y in combinations(k.edge_ids, 2):
            assert set(h.edges[x]) & set(h.edges[y])
        assert not covered(h, k.edge_ids, h.r - 2)
        for e in k.edge_ids:
            assert covered(h, [f for f in k.edge_ids if f != e], h.r - 2)


def assert_solver_pair(h, pair):
    """`assert_kernel_pair` on plain sets, with the cover questions asked
    of `tau_subfamily`: brute force over the (r - 2)-subsets of a support
    is past a unit test's budget at r = 8."""
    assert_kernel_pair(h, pair, covered=lambda h, ids, b: tau_subfamily(h, ids) <= b)


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


def test_search_finds_the_h2_q7_pair():
    # the partner-first search decides h2(7,2) on its own, in a few dozen
    # nodes; the pair is re-checked with the solver, as brute force over
    # the 6-vertex subsets of each support is past a unit test's budget
    h, _ = build_h2(7, 2)
    res = find_disjoint_ryser_pair(h, cap=2000)
    assert res.outcome == "some"
    assert res.certificate.exhaustive
    assert_solver_pair(h, res.pair)
    assert tau_subfamily(h, res.pair.first.edge_ids) == 7
    assert tau_subfamily(h, res.pair.second.edge_ids) == 7


@pytest.mark.parametrize("nu, outcome", [(2, "none"), (3, "some")])
def test_pair_search_outcome_is_frozen(nu, outcome):
    # the outcome on h1(3,nu) as the search first committed it; a pair
    # found is re-checked by brute force, not pinned, so that the search
    # order may change
    h, _ = build_h1(3, nu)
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == outcome
    if outcome == "none":
        assert res.pair is None
    else:
        assert_kernel_pair(h, res.pair)


@pytest.mark.parametrize("name, outcome, ceiling", [
    ("h2(4,2)", "none", 1682),
    ("h2(4,3)", "some", 142),
    ("TC(5)", "none", 15),
    ("TC(5)+TC(5)", "some", 30),
])
def test_pair_search_size_does_not_grow(name, outcome, ceiling):
    # search nodes, walk and kernel walks together, do not depend on the
    # machine; each ceiling is the count when it was set, and the `none`
    # rungs' exact counts are pinned below
    h = {
        "h2(4,2)": lambda: build_h2(4, 2)[0],
        "h2(4,3)": lambda: build_h2(4, 3)[0],
        "TC(5)": lambda: conic_truncated(5),
        "TC(5)+TC(5)": lambda: disjoint_union(conic_truncated(5), conic_truncated(5)),
    }[name]()
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == outcome
    assert res.visited <= ceiling
    # the pair search asks for no automorphisms
    assert h.solver()._autos is None


def test_pair_search_memo_does_not_grow():
    # cover-solver memo entries the h2(4,2) search leaves behind: a count
    # that does not depend on the machine, and that a per-node cache or a
    # larger tree would raise
    h = build_h2(4, 2)[0]
    assert find_disjoint_ryser_pair(h).outcome == "none"
    assert len(h.solver()._lower) <= 730


def test_greedy_cover_is_a_cover_of_at_most_b_vertices():
    # a nonzero answer is the set of edges met by at most b vertices, and
    # holds U; checked by brute force on plain vertex sets
    rng = random.Random(31)
    for _ in range(40):
        h = solver_instance(rng)
        s = h.solver()
        ids = [v.id for v in h.vertices]
        for _ in range(5):
            U = rng.randrange(1, s.all_edges + 1)
            b = rng.randrange(-1, 4)
            met = _greedy_cover(s.vert_edges, U, b)
            if met:
                assert U & ~met == 0
                assert any(
                    met == sum(1 << i for i, e in enumerate(h.edges) if set(e) & set(pick))
                    for k in range(b + 1)
                    for pick in combinations(ids, k)
                )
            assert b >= 0 or met == 0


def capped_h2_q8():
    """h2(8,2) relabelled at seed 1, which the pair search does not decide
    within 2,000 nodes: a capped search that stops at its cap."""
    return relabelled(build_h2(8, 2)[0], 1)


def test_capped_relabelled_h2_q8_search_does_not_grow(monkeypatch):
    # in counters that do not depend on the machine: the nodes are fixed by
    # the cap, so the cost per node is what can grow, in memo entries or in
    # greedy cover passes (the carried cover witness settles all but a few
    # nodes without one)
    import ryserplanes.decompose as decompose

    calls = []
    original = decompose._greedy_cover

    def counting(vert_edges, U, b):
        calls.append(U)
        return original(vert_edges, U, b)

    monkeypatch.setattr(decompose, "_greedy_cover", counting)
    h = capped_h2_q8()
    res = find_disjoint_ryser_pair(h, cap=2000)
    assert res.outcome == "inconclusive"
    assert res.visited == 2001
    assert len(h.solver()._lower) <= 47348
    assert len(calls) <= 23


def test_capped_relabelled_h2_q8_search_runs_no_bound_pass_below_budget_three(monkeypatch):
    # budgets 1 and 2 are answered by the leaf: no `_fractional` call is
    # made for a `tau_le` asked at them, however deep in the search
    budgets, passes = [], {}
    tau_le, fractional = _ExactSolver.tau_le, _ExactSolver._fractional

    def asking(self, U, b, autos=None):
        budgets.append(b)
        try:
            return tau_le(self, U, b, autos)
        finally:
            budgets.pop()

    def bounding(self, U):
        passes[budgets[-1]] = passes.get(budgets[-1], 0) + 1
        return fractional(self, U)

    monkeypatch.setattr(_ExactSolver, "tau_le", asking)
    monkeypatch.setattr(_ExactSolver, "_fractional", bounding)
    assert find_disjoint_ryser_pair(capped_h2_q8(), cap=2000).visited == 2001
    assert passes and min(passes) >= 3


def reference_walk(s, r, allowed, budget, keep=None):
    """`_reaching_cliques` as it reads with no carried facts: every cover
    question goes to `tau_le`, and `keep` gets the edges below the root
    and the union of `conflict`, rebuilt from the clique's edges and
    yielded with the clique."""
    threshold = r - 2

    def dfs(mask, cand):
        for e in _bits(cand):
            budget.spend(1)
            sub = mask | (1 << e)
            rest = cand & s.conflict[e] & ~((1 << (e + 1)) - 1)
            touched = (sub & -sub) - 1  # the root floor
            for f in _bits(sub):
                touched |= s.conflict[f]
            if keep is not None:
                if not keep(touched):
                    continue
                # the look-ahead: candidates whose clique `keep` would reject
                rest = sum(1 << f for f in _bits(rest) if keep(touched | s.conflict[f]))
            if s.tau_le(sub | rest, threshold):
                continue
            if rest and s.tau_le(sub, threshold):
                yield from dfs(sub, rest)
            else:
                yield sub, touched

    if not s.tau_le(allowed, threshold):
        yield from dfs(0, allowed)


def walk_trace(walk, h, cap, with_keep):
    """What a walk yields, cliques with their touched edges, spends and
    asks `keep` before it ends or hits `cap`; `keep` asks whether the
    edges avoiding the clique hold a kernel, as the pair search's partner
    lookup does."""
    s = h.solver()
    asked, partners = [], {}

    def keep(touched):
        asked.append(touched)
        avoid = s.all_edges & ~touched
        if avoid not in partners:
            partners[avoid] = bool(enumerate_kernels(h, within=avoid, first=True).kernels)
        return partners[avoid]

    budget = _Budget(cap)
    found = []
    try:
        for sub in walk(s, h.r, s.all_edges, budget, keep if with_keep else None):
            found.append(sub)
    except _CapHit:
        pass
    return found, budget.spent, asked


def fixed_arity(rng, r):
    per_side = 3
    edges = {
        tuple(side * per_side + rng.randrange(per_side) for side in range(r))
        for _ in range(rng.randrange(8, 19))
    }
    return make(r, per_side, sorted(edges))


WALK_CORPUS = {
    "h1(3,2)": lambda: build_h1(3, 2)[0],
    "h1(3,3)": lambda: build_h1(3, 3)[0],
    "h2(4,2)": lambda: build_h2(4, 2)[0],
    "TC(5)+TC(5)": lambda: disjoint_union(conic_truncated(5), conic_truncated(5)),
    **{f"planted-{i}": (lambda i=i: planted_pair(random.Random(1729 + i))) for i in range(5)},
    # threshold r - 2 of 0 and 1: the carried witness can never grow past it
    **{f"r2-{i}": (lambda i=i: fixed_arity(random.Random(40 + i), 2)) for i in range(4)},
    **{f"r3-{i}": (lambda i=i: fixed_arity(random.Random(60 + i), 3)) for i in range(4)},
}


@pytest.mark.parametrize("with_keep", [False, True])
@pytest.mark.parametrize("name", WALK_CORPUS)
def test_carried_facts_leave_the_walk_unchanged(name, with_keep):
    # the cover witness and the conflict union the walk carries only skip
    # work: it yields the same cliques with the same touched edges, spends
    # the same nodes and asks `keep` about the same unions, look-ahead
    # included, as the walk that asks `tau_le` each time and rebuilds the
    # union at each node
    got = walk_trace(_reaching_cliques, WALK_CORPUS[name](), 10 ** 6, with_keep)
    want = walk_trace(reference_walk, WALK_CORPUS[name](), 10 ** 6, with_keep)
    assert got == want
    assert got[1] < 10 ** 6
    # and both stop at the same node when the cap cuts them short
    cap = got[1] // 2
    assert (walk_trace(_reaching_cliques, WALK_CORPUS[name](), cap, with_keep)
            == walk_trace(reference_walk, WALK_CORPUS[name](), cap, with_keep))


def test_cap_reports_inconclusive():
    # h1(3,2) is decided in 21 nodes
    h, _ = build_h1(3, 2)
    res = find_disjoint_ryser_pair(h, cap=10)
    assert res.outcome == "inconclusive"
    assert res.visited == 11
    assert not res.certificate.exhaustive


def test_cap_counts_partner_lookups():
    # on TC(3) + TC(3) the one partner lookup, for the edges that avoid
    # edge 0, grows the second copy greedily and confirms it in six nodes,
    # and the walk grows the first copy in six; the confirmed copy is the
    # reported partner, and the cap bounds the walk and the lookup together
    tc = conic_truncated(3)
    h = disjoint_union(tc, tc)
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == "some"
    assert res.visited == 12
    assert find_disjoint_ryser_pair(h, cap=12).outcome == "some"
    short = find_disjoint_ryser_pair(h, cap=11)
    assert (short.outcome, short.pair, short.visited) == ("inconclusive", None, 12)
    assert not short.certificate.exhaustive


def test_partner_lookups_go_through_the_module(monkeypatch):
    # bench/run.py divides by the decompose.visited it reads from the traced
    # enumerate_kernels calls of its h2(4,2) pair search, so the pair search
    # must keep calling that function by its module-level name, and those
    # calls must spend nodes: a partner's existence is confirmed by a
    # kernel walk, never by a cover question alone
    import ryserplanes.decompose as decompose

    spent = []
    original = decompose.enumerate_kernels

    def counting(*args, **kwargs):
        enum = original(*args, **kwargs)
        spent.append(enum.visited)
        return enum

    monkeypatch.setattr(decompose, "enumerate_kernels", counting)
    res = find_disjoint_ryser_pair(build_h1(3, 2)[0])
    assert spent
    assert res.outcome == "none"
    assert res.visited == 21
    spent.clear()
    assert find_disjoint_ryser_pair(build_h2(4, 2)[0]).outcome == "none"
    assert sum(spent) > 0


# visited and the pair of each decomposable rung: the walk's first half
# and the partner its lookup found.  None of these searches looks for
# symmetry
SOME_RUNGS = {
    "h1(3,3)": (52, (2, 3, 4, 5, 6, 13), (15, 16, 17, 18, 19, 20)),
    "h2(4,3)": (142, (3, 5, 6, 8, 9, 10, 11, 12, 23), (25, 26, 27, 28, 29, 31, 32, 33, 34)),
    "TC(5)+TC(5)": (30, tuple(range(15)), tuple(range(15, 30))),
    "h2(7,2)": (62, (0, 5, 6, 10, 11, 12, 16, 17, 18) + tuple(range(22, 27)) + tuple(range(28, 38)),
                (43, 53, 54, 55, 57) + tuple(range(59, 77)) + (78,)),
    "TC(3)+TC(3)": (12, tuple(range(6)), tuple(range(6, 12))),
    "h1(5,3)": (134, (4, 7, 8, 10, 11, 12) + tuple(range(14, 21)) + (36,), tuple(range(38, 53))),
    "h2(5,3)": (353, (4, 7, 8, 10, 11, 12) + tuple(range(14, 21)) + (37,),
                (39, 42) + tuple(range(44, 55))),
}


@pytest.mark.parametrize("name", SOME_RUNGS)
def test_some_rungs_keep_their_walk(name):
    h = {
        "h1(3,3)": lambda: build_h1(3, 3)[0],
        "h2(4,3)": lambda: build_h2(4, 3)[0],
        "TC(5)+TC(5)": lambda: disjoint_union(conic_truncated(5), conic_truncated(5)),
        "h2(7,2)": lambda: build_h2(7, 2)[0],
        "TC(3)+TC(3)": lambda: disjoint_union(conic_truncated(3), conic_truncated(3)),
        "h1(5,3)": lambda: build_h1(5, 3)[0],
        "h2(5,3)": lambda: build_h2(5, 3)[0],
    }[name]()
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == "some"
    assert (res.visited, res.pair.first.edge_ids, res.pair.second.edge_ids) == SOME_RUNGS[name]
    assert h.solver()._autos is None
    # a pinned pair is also a checked one
    (assert_kernel_pair if h.r <= 6 else assert_solver_pair)(h, res.pair)


# visited at seeds 0, 4 and 5: with the reported partner taken from the
# lookup that kept the yielded clique, each copy is decided in about a
# hundred nodes
RELABELLED_H2_Q7 = {0: 96, 4: 95, 5: 104}


@pytest.mark.parametrize("seed", RELABELLED_H2_Q7)
def test_relabelled_h2_q7_reports_the_partner_its_lookup_found(seed):
    h = relabelled(build_h2(7, 2)[0], seed)
    res = find_disjoint_ryser_pair(h, cap=2000)
    assert res.outcome == "some"
    assert res.visited == RELABELLED_H2_Q7[seed]
    supports = []
    for k in (res.pair.first, res.pair.second):
        edges = [set(h.edges[e]) for e in k.edge_ids]
        for x, y in combinations(edges, 2):
            assert x & y
        supports.append(set().union(*edges))
        assert tau_subfamily(h, k.edge_ids) == h.r - 1
    assert supports[0].isdisjoint(supports[1])


RELABEL_CORPUS = {
    "h1(3,2)": lambda: build_h1(3, 2)[0],
    "h1(3,3)": lambda: build_h1(3, 3)[0],
    "h2(4,2)": lambda: build_h2(4, 2)[0],
    "h2(4,3)": lambda: build_h2(4, 3)[0],
    "TC(5)": lambda: conic_truncated(5),
    "TC(5)+TC(5)": lambda: disjoint_union(conic_truncated(5), conic_truncated(5)),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", RELABEL_CORPUS)
def test_relabelled_copies_keep_the_outcome(name, seed):
    # the numbering decides the walk and its partner lookups, never the
    # answer; a pair found is re-checked by brute force
    want = find_disjoint_ryser_pair(RELABEL_CORPUS[name]()).outcome
    h = relabelled(RELABEL_CORPUS[name](), seed)
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == want
    if want == "some":
        assert_kernel_pair(h, res.pair)


# visited at seeds 0-5: the numbering moves the count, never the answer,
# and the cap keeps a walk that loses its way from running long
RELABELLED_H1 = {
    "h1(5,2)": (92, 165, 66, 193, 179, 81),
    "h1(7,2)": (677, 553, 317, 734, 545, 170),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", RELABELLED_H1)
def test_relabelled_h1_walks_are_frozen(name, seed):
    h = relabelled(build_h1(int(name[3]), 2)[0], seed)
    res = find_disjoint_ryser_pair(h, cap=10000)
    assert res.outcome == "none"
    assert res.certificate.exhaustive
    assert res.visited == RELABELLED_H1[name][seed]


# visited on each rung with no disjoint pair
NONE_RUNGS = {
    "h1(3,2)": 21, "h2(4,2)": 34, "h1(5,2)": 53, "h2(5,2)": 52, "h1(7,2)": 101,
    "TC(5)": 15, "h2(8,2)": 134, "h2(9,2)": 170,
}


@pytest.mark.parametrize("name", NONE_RUNGS)
def test_none_rungs_are_frozen(name):
    if name == "TC(5)":
        h = conic_truncated(5)
    else:
        h = {"h1": build_h1, "h2": build_h2}[name[:2]](int(name[3]), 2)[0]
    res = find_disjoint_ryser_pair(h)
    assert res.outcome == "none"
    assert res.certificate.exhaustive
    # the certificate holds the search's counts and nothing else
    assert res.certificate.value == {"r": h.r, "visited": NONE_RUNGS[name]}


def test_one_generator_closes_a_whole_edge_orbit():
    # a bipartite 2k-cycle a_i b_i a_i b_(i+1): the rotation alone generates
    # the cyclic group; one vertex's orbit under it is its side, and one
    # edge's orbit under the edge permutation it induces is its k-edge class
    k = 6
    h = make(2, k, [(i, k + i) for i in range(k)] + [(i, k + (i + 1) % k) for i in range(k)])
    s = h.solver()
    rotate = tuple((p + 1) % k + (p >= k) * k for p in range(2 * k))
    assert _orbit([0], [rotate]) == set(range(k))
    assert _orbit([k + 2], [rotate]) == set(range(k, 2 * k))
    assert _orbit([0, 3], []) == {0, 3}
    perm = tuple(s.edge_verts.index(tuple(sorted(rotate[p] for p in ev))) for ev in s.edge_verts)
    straight = {s.edge_verts.index((i, k + i)) for i in range(k)}
    for e in straight:
        assert _orbit([e], [perm]) == straight
    assert _orbit(range(2 * k), [perm]) == set(range(2 * k))


def test_brute_force_rejects_large_inputs():
    h, _ = build_h1(3, 2)
    with pytest.raises(SearchTooLarge):
        brute_force_disjoint_pair(h)


@pytest.mark.parametrize("r", [1, 0])
def test_searches_refuse_arity_below_two(r):
    # below r = 2 every family, the empty one too, has tau >= r - 1, so
    # there is no kernel to speak of: at r = 1 two disjoint one-vertex
    # edges once gave a `none` from the search, a `True` from the brute
    # force and kernels with tau = 0 from the kernel walk
    h = make(1, 2, [(0,), (1,)]) if r == 1 else make(0, 2, [])
    for search in (enumerate_kernels, find_disjoint_ryser_pair, brute_force_disjoint_pair):
        with pytest.raises(ValueError, match="r >= 2"):
            search(h)


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
        assert res.outcome != "inconclusive"
        expect = brute_force_disjoint_pair(h)
        assert (res.outcome == "some") == expect
        if expect:
            assert_kernel_pair(h, res.pair)
        hits += expect
    assert hits > 0  # the corpus must exercise both outcomes


@pytest.mark.parametrize("past", ["far", "next", "negative"])
def test_kernel_walk_refuses_a_mask_past_its_edges(past):
    h, _ = build_h1(3, 2)
    within = {"far": 1 << 200, "next": 1 << len(h.edges), "negative": -1}[past]
    with pytest.raises(UnknownEdge):
        enumerate_kernels(h, within=within)


def test_kernel_walk_within_no_edge_finds_nothing():
    h, _ = build_h1(3, 2)
    enum = enumerate_kernels(h, within=0)
    assert (enum.kernels, enum.status) == ((), "exhausted")
    assert enumerate_kernels(h, within=h.solver().all_edges) == enumerate_kernels(h)


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


def planted_pair(rng):
    """Two vertex-disjoint, randomly relabelled copies of TC(3) (r = 4,
    tau = 3), edges shuffled, plus 0-3 noise edges on fresh vertices: an
    instance that holds a disjoint Ryser pair by construction."""
    tc = conic_truncated(3)
    r = tc.r
    per_side = 8  # 3 vertices a side for each copy, 2 fresh ones for noise
    free = [list(range(s * per_side, (s + 1) * per_side)) for s in range(r)]
    for side in free:
        rng.shuffle(side)
    edges = []
    for _ in range(2):
        new_id = {v.id: free[v.side].pop() for v in tc.vertices}
        edges += [[new_id[v] for v in e] for e in tc.edges]
    noise, want = set(), rng.randrange(4)
    while len(noise) < want:
        noise.add(tuple(rng.choice(side) for side in free))
    edges += sorted(noise)
    rng.shuffle(edges)
    return make(r, per_side, edges)


def test_search_finds_planted_pairs():
    # the brute-force corpus above almost never holds a pair at r >= 4, so
    # a cover solver that under-reports tau passes it; here every instance
    # holds one, and the pair found is re-checked on plain vertex sets
    rng = random.Random(1729)
    for _ in range(10):
        h = planted_pair(rng)
        res = find_disjoint_ryser_pair(h)
        assert res.outcome == "some"
        supports = []
        for k in (res.pair.first, res.pair.second):
            edges = [set(h.edges[e]) for e in k.edge_ids]
            for x, y in combinations(edges, 2):
                assert x & y
            assert not covered_by(h, k.edge_ids, h.r - 2)
            supports.append(set().union(*edges))
        assert supports[0].isdisjoint(supports[1])
