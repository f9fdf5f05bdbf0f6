"""Frozen results of the exhaustive blocking-set searches.

Counts were derived by this package's own enumeration and cross-checked
structurally in the assertions below (every reported set re-verifies as a
blocker, minimality holds, the conic blockers labelled `tangent_trade` are
exactly the single-point trades along a tangent, and no conic blocker is
left unclassified).  The blocker lists are pinned by digest and the search
trees by their node counts, so a change to the search that keeps the
answers but walks a different tree shows up too.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from ryserplanes import oracles
from ryserplanes.errors import NotOddPrime, SearchTooLarge
from ryserplanes.geometry import classify_line, conic_canonical, plane_build
from ryserplanes.oracles import (
    blocks_all,
    classify_conic_blockers,
    is_minimal_blocker,
    min_blocking_sets,
    min_nontrivial_blocking,
)

SEARCHES = {
    "blocking": min_blocking_sets,
    "conic-blockers": classify_conic_blockers,
    "nontrivial": min_nontrivial_blocking,
}

# (kind, q, nodes of the report's one search,
#  sha256 of json.dumps([rep.blockers, rep.classes]))
FROZEN = [
    ("blocking", 2, 26, "3bffabe64fd2e5eeedddcb8344946d17b4140397db2eabaec13802344de401ec"),
    ("blocking", 3, 179, "297da5bf1b4555bf9f53e87c3226ad979a1927096a7d31d136c1b7863c1e1e64"),
    ("blocking", 4, 538, "21e4f8eb98027c9e7d9d25161da10e1354b4298693b6869463686bfab27b3107"),
    ("blocking", 5, 3763, "0b355838afe14ea9ee72b52573a4969de60f541f4bc5c316167645feaba5467b"),
    ("conic-blockers", 3, 180, "4c0deb5d3b5ee4cdc41fb5d8051f4e076a7a89c9c6b84a458a757849b6d32a04"),
    ("conic-blockers", 5, 18391, "f02bf39b5d28102a289f59699c458488794c42e86bd40d7183fa295c0565d8a3"),
    ("nontrivial", 3, 50, "311e5178ad969b30bd17589081cecb7536d7dab459c3df84144d2ea875399f52"),
    ("nontrivial", 4, 401, "2115920921d90bf2fc5d85a81b84c7aae20f4d1af96012a4668be94a32821ec2"),
    ("nontrivial", 5, 16152, "42c254f52f7e705b2e43e99b84bb995454bf8a0fce9b10bcea1701f9acfeaf2f"),
]

FROZEN_IDS = [f"{kind}-{q}" for kind, q, _, _ in FROZEN]


@cache
def report(kind, q):
    """Each search runs once per test session; reports are frozen."""
    return SEARCHES[kind](q)


minimal_blockers = oracles._minimal_blockers  # unpatched, for the counting test


@cache
def all_lines_search(q, budget):
    """`_minimal_blockers` over every line, also run once per test session."""
    plane = plane_build(q)
    return minimal_blockers(plane, range(len(plane.lines)), budget)


@pytest.mark.parametrize("kind,q,visited,digest", FROZEN, ids=FROZEN_IDS)
def test_blocker_lists_are_frozen(kind, q, visited, digest):
    rep = report(kind, q)
    text = json.dumps([rep.blockers, rep.classes])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind,q,visited,digest", FROZEN, ids=FROZEN_IDS)
def test_search_node_counts_are_frozen(kind, q, visited, digest):
    assert report(kind, q).visited == visited


@pytest.mark.parametrize("kind,q,visited,digest", FROZEN, ids=FROZEN_IDS)
def test_each_report_is_one_search(monkeypatch, kind, q, visited, digest):
    expected = report(kind, q)
    budgets = []

    def counted(plane, line_ids, budget):
        budgets.append(budget)
        if line_ids == range(len(plane.lines)):
            return all_lines_search(plane.q, budget)  # the session's copy of the pass
        return minimal_blockers(plane, line_ids, budget)

    monkeypatch.setattr(oracles, "_minimal_blockers", counted)
    assert SEARCHES[kind](q) == expected
    assert len(budgets) == 1


@pytest.mark.parametrize("kind,q", [("blocking", 3), ("conic-blockers", 3), ("nontrivial", 3)])
def test_each_report_has_one_body(monkeypatch, kind, q):
    # every report, the nontrivial one included, is built by one `_report`
    expected = report(kind, q)
    calls = []
    report_body = oracles._report

    def counted(*args):
        calls.append(args[1])
        return report_body(*args)

    monkeypatch.setattr(oracles, "_report", counted)
    assert SEARCHES[kind](q) == expected
    assert calls == [expected.target]


def random_point_sets(plane, rng, draws):
    """Random point sets of every size, a third of them holding a full
    line, each with the minimal blocker a random pruning of it leaves when
    it blocks every line."""
    n = len(plane.points)
    every = range(len(plane.lines))
    for _ in range(draws):
        pts = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        if rng.randrange(3) == 0:
            pts |= plane.lines[rng.randrange(len(plane.lines))].points
        yield tuple(sorted(pts))
        if blocks_all(plane, pts, every):
            for p in rng.sample(sorted(pts), len(pts)):
                if blocks_all(plane, pts - {p}, every):
                    pts.discard(p)
            yield tuple(sorted(pts))


@pytest.mark.parametrize("q", [3, 4])
def test_alone_is_minimality_over_every_line(q):
    # `_alone` is the one minimality test of both filters; on a blocker of
    # every line it must say what the set-based `is_minimal_blocker` says
    plane = plane_build(q)
    every = range(len(plane.lines))
    on = [0] * len(plane.points)  # point -> mask of the lines through it
    for line in plane.lines:
        for p in line.points:
            on[p] |= 1 << line.id
    verdicts = Counter()
    for pts in random_point_sets(plane, random.Random(q), 400):
        want = is_minimal_blocker(plane, pts, every)
        assert (blocks_all(plane, pts, every) and oracles._alone(pts, on)) == want
        verdicts[blocks_all(plane, pts, every), want] += 1
    # non-blockers, blockers with a spare point and minimal ones all occur
    assert set(verdicts) == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize(
    "q,counts",
    [
        (3, [13, 13, 247, 247]),
        (4, [21, 21, 381, 10461]),
        (5, [31, 31, 31, 15531]),
    ],
)
def test_minimal_blocker_counts_by_budget(q, counts):
    # budgets q+1 .. q+4 over all lines: only the lines, until the budget
    # reaches the smallest nontrivial blocker
    found = [len(all_lines_search(q, b)[0]) for b in range(q + 1, q + 5)]
    assert found == counts


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_minimum_blockers_are_exactly_the_lines(q):
    rep = report("blocking", q)
    assert rep.target == "all_lines"
    assert rep.minimum == q + 1
    assert rep.count == q * q + q + 1
    assert set(rep.classes) == {"line"}
    plane = plane_build(q)
    line_ids = range(len(plane.lines))
    assert {frozenset(b) for b in rep.blockers} == {line.points for line in plane.lines}
    for b in rep.blockers:
        assert is_minimal_blocker(plane, b, line_ids)


def test_min_blocking_sets_budget():
    with pytest.raises(SearchTooLarge):
        min_blocking_sets(7)


@pytest.mark.parametrize(
    "q,histogram",
    [
        (3, {"line": 13, "conic": 1, "conic_swap": 6, "tangent_trade": 12}),
        (5, {"line": 31, "conic": 1, "conic_swap": 80, "tangent_trade": 30}),
    ],
)
def test_conic_blocker_census(q, histogram):
    rep = report("conic-blockers", q)
    assert rep.target == "tangent_secant"
    assert rep.minimum == q + 1
    assert dict(Counter(rep.classes)) == histogram
    assert rep.count == sum(histogram.values())
    plane = plane_build(q)
    conic = conic_canonical(plane)
    fam = [
        l.id for l in plane.lines
        if classify_line(conic, l) in ("tangent", "secant")
    ]
    for b in rep.blockers:
        assert len(b) == q + 1
        assert blocks_all(plane, b, fam)


@pytest.mark.parametrize("q", [3, 5])
def test_unclassified_conic_blockers_are_single_tangent_trades(q):
    # the blockers a subgroup swap cannot explain trade one conic point x
    # for one point of the tangent at x; they carry their own label, and
    # nothing is left as `other`
    rep = report("conic-blockers", q)
    plane = plane_build(q)
    conic = conic_canonical(plane)
    cset = set(conic.points)
    tangent_at = {}
    for line in plane.lines:
        hit = cset & set(line.points)
        if len(hit) == 1:
            tangent_at[hit.pop()] = set(line.points)
    assert "other" not in rep.classes
    trades = {
        frozenset(b) for b, c in zip(rep.blockers, rep.classes) if c == "tangent_trade"
    }
    # q+1 choices of x, q points besides x on its tangent
    expected = {
        frozenset(cset - {x} | {y})
        for x, tangent in tangent_at.items()
        for y in tangent - {x}
    }
    assert len(expected) == (q + 1) * q
    assert trades == expected


def test_conic_blockers_reject_bad_orders():
    with pytest.raises(NotOddPrime):
        classify_conic_blockers(4)
    with pytest.raises(NotOddPrime):
        classify_conic_blockers(9)
    with pytest.raises(SearchTooLarge):
        classify_conic_blockers(7)


def assert_plain_minimal_nontrivial(q, blockers, size):
    """Each set, checked on plain line masks built here: it meets every
    line, holds no whole line, and each of its points is the only one on
    some line (so no point can be dropped)."""
    lines = [sum(1 << p for p in line.points) for line in plane_build(q).lines]
    for b in blockers:
        assert len(b) == size
        pts = sum(1 << p for p in b)
        private = 0
        for line in lines:
            meet = line & pts
            assert meet and meet != line
            if meet & (meet - 1) == 0:
                private |= meet
        assert private == pts


def frame_representatives(q, rep):
    """The listed blockers through the frame triangle (0:0:1), (0:1:0), (1:0:0)."""
    return [b for b in rep.blockers if {0, 1, q + 1} <= set(b)]


def weighted_count(q, reps):
    """U * sum of 1/u(B) over the frame representatives, U the plane's
    unordered non-collinear triples and u(B) those inside B: each blocker is
    counted once per triangle in it, and every triangle holds as many
    blockers as the frame, by transitivity.  No closure is used."""
    plane = plane_build(q)
    n = len(plane.points)
    triangles = n * (n - 1) * (n - q - 1) // 6
    total = Fraction(0)
    for b in reps:
        inside = comb(len(b), 3) - sum(comb(len(line.points.intersection(b)), 3) for line in plane.lines)
        total += Fraction(1, inside)
    return triangles * total


@pytest.mark.parametrize(
    "q,minimum,count,cls",
    [
        (3, 6, 234, "other"),
        (4, 7, 360, "baer_subplane"),
        (5, 9, 15500, "other"),
    ],
)
def test_smallest_nontrivial_blockers(q, minimum, count, cls):
    rep = report("nontrivial", q)
    assert rep.target == "nontrivial"
    assert rep.minimum == minimum
    assert rep.count == count
    assert len(set(rep.blockers)) == count
    assert set(rep.classes) == {cls}
    assert_plain_minimal_nontrivial(q, rep.blockers, minimum)
    assert weighted_count(q, frame_representatives(q, rep)) == count


def test_smallest_nontrivial_blockers_q7():
    # 3(q+1)/2 = 12, a projective triangle (Blokhuis 1994); 908 frame
    # representatives, five blockers per triangle of the plane
    rep = report("nontrivial", 7)
    assert (rep.minimum, rep.count, len(set(rep.blockers))) == (12, 130340, 130340)
    assert set(rep.classes) == {"other"}
    text = json.dumps([rep.blockers, rep.classes])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2acd9c13fba197bcab9a0090277ed023bc843c8f3f38f0681bac652b333f546b"
    )
    reps = frame_representatives(7, rep)
    assert len(reps) == 908
    assert_plain_minimal_nontrivial(7, reps, 12)
    assert weighted_count(7, reps) == rep.count


def test_nontrivial_budget():
    with pytest.raises(SearchTooLarge):
        min_nontrivial_blocking(2)
    with pytest.raises(SearchTooLarge):
        min_nontrivial_blocking(8)


def test_nontrivial_pass_of_only_lines_raises(monkeypatch):
    # a pass that finds only lines must raise, and not by an assert, which
    # python -O strips
    def only_lines(plane, line_ids, budget):
        return [tuple(sorted(plane.lines[lid].points)) for lid in line_ids], 1

    monkeypatch.setattr(oracles, "_minimal_blockers", only_lines)
    with pytest.raises(RuntimeError, match="no nontrivial blocker of at most 6 points"):
        min_nontrivial_blocking(3)


def test_closure_refuses_generators_short_of_transitive(monkeypatch):
    # the coordinate cycle alone maps lines to lines but fixes the frame;
    # the report must raise, not list only the frame representatives
    perms = oracles._generator_perms
    monkeypatch.setattr(oracles, "_generator_perms", lambda plane, w: perms(plane, w)[:1])
    with pytest.raises(RuntimeError, match="not transitive"):
        min_nontrivial_blocking(3)


def test_closure_refuses_a_singular_generator(monkeypatch):
    # (x0 : x0 : x2) sends (0:1:0) to the zero triple: no bijection of the points
    perms = oracles._generator_perms
    singular = matrix_perm(plane_build(3), ((1, 0, 0), (1, 0, 0), (0, 0, 1)))
    assert singular[1] == -1
    monkeypatch.setattr(oracles, "_generator_perms", lambda plane, w: perms(plane, w) + [singular])
    with pytest.raises(RuntimeError, match="not a bijection"):
        min_nontrivial_blocking(3)


def test_transvection_alone_is_not_transitive(monkeypatch):
    # x0 += x1 alone has order p, so the frame's orbit holds at most p triangles
    perms = oracles._generator_perms
    monkeypatch.setattr(oracles, "_generator_perms", lambda plane, w: perms(plane, w)[1:])
    with pytest.raises(RuntimeError, match="not transitive"):
        oracles._collineations(plane_build(3), (0, 1, 4))


@pytest.mark.parametrize("q,transitive", [(3, True), (4, False), (5, True)])
def test_cycle_must_be_scaled_by_a_field_generator(q, transitive):
    # the bare cycle and x0 += x1 have entries in GF(p) only: at prime q
    # that is the field, but at q = 4 they generate a copy of GL(3, 2), 168
    # maps for 1,120 triangles, so w must generate GF(q) over GF(p)
    plane, frame = plane_build(q), (0, 1, q + 1)
    bare = oracles._generator_perms(plane, 1)
    assert bare == generator_perms(plane, 1)
    if transitive:
        assert len(oracles._generator_tables(plane, frame, bare)) == 2
    else:
        with pytest.raises(RuntimeError, match="not transitive"):
            oracles._generator_tables(plane, frame, bare)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_carried_classes_match_classify(q):
    # only the frame representatives are classified; every image carries
    # its representative's label, which must be the one `_classify` gives
    rep = report("nontrivial", q)
    plane = plane_build(q)
    conic = conic_canonical(plane)
    assert tuple(oracles._classify(plane, conic, b) for b in rep.blockers) == rep.classes


def test_nontrivial_minimum_of_q_plus_one_raises(monkeypatch):
    # point 8 is (1:1:1), and the frame plus it is a 4-arc: each point is
    # alone on a tangent, so the frame filter keeps it at size q + 1 = 4,
    # where the labels depend on the conic and are not carried by images
    plane = plane_build(3)
    assert plane.points[8].coords == (1, 1, 1)
    monkeypatch.setattr(oracles, "_minimal_blockers", lambda plane, line_ids, budget: ([(8,)], 1))
    with pytest.raises(RuntimeError, match="at most q \\+ 1"):
        min_nontrivial_blocking(3)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_generators_map_lines_onto_lines(q):
    plane = plane_build(q)
    f = plane.field

    def order(a):
        x, k = a, 1
        while x != 1:
            x, k = f.mul(x, a), k + 1
        return k

    w = next(a for a in f.elements() if a and order(a) == q - 1)
    perms = oracles._generator_perms(plane, w)
    assert perms == generator_perms(plane, w)
    lines = {line.points for line in plane.lines}
    for perm in perms:
        for line in plane.lines:
            assert frozenset(perm[p] for p in line.points) in lines


# the two collineations `_generator_perms` gives, as matrices in w: the
# coordinate cycle scaled by w, (x0 : x1 : x2) -> (x1 : x2 : w x0), and x0 += x1
GENERATOR_MATRICES = (
    lambda w: ((0, 1, 0), (0, 0, 1), (w, 0, 0)),
    lambda w: ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
)


def matrix_perm(plane, rows):
    """The point map of a 3x3 matrix, from the field's own add and mul; -1
    marks a point the matrix sends to the zero triple."""
    f = plane.field
    perm = []
    for pt in plane.points:
        x = pt.coords
        y = [f.add(f.add(f.mul(r[0], x[0]), f.mul(r[1], x[1])), f.mul(r[2], x[2])) for r in rows]
        perm.append(plane.point_id(y) if any(y) else -1)
    return perm


def generator_perms(plane, w=None):
    """Each of `GENERATOR_MATRICES`' point permutations, by default with the
    w `_collineations` takes (x = element p at q = p^k, k > 1; 1 at prime q)."""
    f = plane.field
    if w is None:
        w = f.p if f.k > 1 else 1
    return [matrix_perm(plane, gen(w)) for gen in GENERATOR_MATRICES]


def closure_mask(pts, n):
    """The closure's convention, spelt out here: point p is bit n - 1 - p."""
    return sum(2 ** (n - 1 - p) for p in pts)


def closure_points(mask, n):
    return {p for p in range(n) if mask >> (n - 1 - p) & 1}


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_image_tables_map_masks_as_the_points(q):
    # n = 13, 21, 31, 57: the first byte of every mask is a partial one
    plane = plane_build(q)
    n = len(plane.points)
    assert n % 8
    rng = random.Random(q)
    perms = generator_perms(plane) + [rng.sample(range(n), n) for _ in range(3)]
    spell = oracles._point_chars(n)
    assert len(spell[0]) == 2 ** (n % 8) and all(len(row) == 256 for row in spell[1:])
    for perm in perms:
        tables = oracles._image_tables(perm)
        assert len(tables) == len(spell) == (n + 7) // 8
        for _ in range(200):
            pts = rng.sample(range(n), rng.randrange(n + 1))
            mask = closure_mask(pts, n)
            assert oracles._image(tables, mask) == closure_mask([perm[p] for p in pts], n)
            raw = mask.to_bytes(len(spell), "big")
            assert [ord(c) for row, b in zip(spell, raw) for c in row[b]] == sorted(pts)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_frame_closure_matches_one_on_point_sets(q):
    # the frame triangle's orbit, closed here on frozensets of point ids
    plane = plane_build(q)
    n = len(plane.points)
    frame = frozenset((0, 1, q + 1))
    perms = generator_perms(plane)
    seen, frontier = {frame}, [frame]
    while frontier:
        frontier = [img for s in frontier for perm in perms if (img := frozenset(perm[p] for p in s)) not in seen]
        seen.update(frontier)
    assert len(seen) == n * (n - 1) * (n - q - 1) // 6
    gens = oracles._collineations(plane, tuple(frame))
    closed = oracles._closure(gens, {closure_mask(frame, n): None})
    assert {frozenset(closure_points(m, n)) for m in closed} == seen


def test_descending_masks_sort_as_ascending_tuples_of_one_size():
    rng = random.Random(5)
    n = 31
    for k in (1, 2, 9, 30):
        sets = {tuple(sorted(rng.sample(range(n), k))) for _ in range(300)}
        by_mask = sorted(sets, key=lambda s: closure_mask(s, n), reverse=True)
        assert by_mask == sorted(sets)


def test_descending_masks_misorder_sets_of_two_sizes():
    # (0,) sorts before (0, 1) as tuples, but its mask is the smaller, so
    # only blockers of one size (the report's minimum) may go through it
    n = 31
    assert (0,) < (0, 1)
    assert closure_mask((0,), n) < closure_mask((0, 1), n)


def test_line_check_refuses_a_bijection_off_the_lines():
    # swapping two points is a bijection, but a line through one of them
    # and not the other goes to a set that shares q points with it
    q = 3
    plane = plane_build(q)
    frame = (0, 1, q + 1)
    swap = list(range(len(plane.points)))
    swap[5], swap[6] = 6, 5
    assert len(oracles._generator_tables(plane, frame, generator_perms(plane))) == 2
    with pytest.raises(RuntimeError, match="off the lines"):
        oracles._generator_tables(plane, frame, generator_perms(plane) + [swap])


def plain_minimal_blockers(plane, line_ids, budget):
    """The blocker search with every leaf a call of its own: the reference
    the last-level shortcut in `_minimal_blockers` must agree with, in its
    sets and in its node count."""
    pts_of = [sorted(plane.lines[lid].points) for lid in line_ids]
    masks = [sum(1 << p for p in pts) for pts in pts_of]
    on = [0] * len(plane.points)
    for i, pts in enumerate(pts_of):
        for p in pts:
            on[p] |= 1 << i
    max_through = max(m.bit_count() for m in on)
    found = set()
    visited = 0

    def dfs(chosen, size, forbidden, unblocked):
        nonlocal visited
        visited += 1
        if not unblocked:
            found.add(chosen)
            return
        if unblocked.bit_count() > (budget - size) * max_through:
            return
        fb = forbidden
        for p in pts_of[(unblocked & -unblocked).bit_length() - 1]:
            pb = 1 << p
            if not fb & pb:
                dfs(chosen | pb, size + 1, fb, unblocked & ~on[p])
            fb |= pb

    dfs(0, 0, 0, (1 << len(masks)) - 1)
    out = []
    for ch in found:
        private = 0
        for m in masks:
            inter = m & ch
            if inter & (inter - 1) == 0:
                private |= inter
        if private == ch:
            out.append(tuple(p for p in range(ch.bit_length()) if ch >> p & 1))
    return sorted(out), visited


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_budget_one_blocks_one_line_with_any_of_its_points(q):
    # root plus q + 1 leaves, each leaf a singleton blocker
    plane = plane_build(q)
    for line in plane.lines:
        blockers, visited = oracles._minimal_blockers(plane, [line.id], 1)
        assert blockers == [(p,) for p in sorted(line.points)]
        assert visited == q + 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_budget_one_blocks_two_lines_only_at_their_meet(q):
    # the root still counts all q + 1 leaves on the lower line, of which
    # only the meet point blocks the other line too
    plane = plane_build(q)
    for a, b in [(0, j) for j in range(1, len(plane.lines))] + [(5, 1), (6, 2)]:
        (meet,) = plane.lines[a].points & plane.lines[b].points
        blockers, visited = oracles._minimal_blockers(plane, [a, b], 1)
        assert blockers == [(meet,)]
        assert visited == q + 2


def equality_cases():
    for q in (2, 3, 4, 5):
        for budget in range(q + 1, q + 4):
            yield f"all-lines-{q}-{budget}", q, "all", budget
    for q in (3, 5):
        yield f"tangent-secant-{q}", q, "tangent_secant", q + 1
    for q in (3, 4):
        for seed in range(20):
            yield f"random-{q}-{seed}", q, seed, None


@pytest.mark.parametrize(
    "q,family,budget",
    [case[1:] for case in equality_cases()],
    ids=[case[0] for case in equality_cases()],
)
def test_last_level_matches_the_plain_recursion(q, family, budget):
    plane = plane_build(q)
    if family == "all":
        line_ids = range(len(plane.lines))
        assert all_lines_search(q, budget) == plain_minimal_blockers(plane, line_ids, budget)
        return
    if family == "tangent_secant":
        conic = conic_canonical(plane)
        line_ids = [
            l.id for l in plane.lines
            if classify_line(conic, l) in ("tangent", "secant")
        ]
    else:
        # at most budget * q lines, so that most draws get past the root's bound
        rng = random.Random(1000 * q + family)
        budget = rng.randrange(1, q + 3)
        n = len(plane.lines)
        line_ids = rng.sample(range(n), rng.randrange(1, min(n, budget * q) + 1))
    assert oracles._minimal_blockers(plane, line_ids, budget) == plain_minimal_blockers(
        plane, line_ids, budget
    )


def test_nontrivial_q5_nodes_per_budget():
    # budget 9 = floor(3 * 6 / 2) is the report's one pass, the frozen
    # 789,238; budgets 7 and 8 are the passes a deepening search would add
    visited = [all_lines_search(5, b)[1] for b in (7, 8, 9)]
    assert visited == [54124, 254273, 789238]
