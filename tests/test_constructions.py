import hashlib
import json
import re
import time
from dataclasses import replace
from itertools import combinations

import pytest

from ryserplanes.cli import main
from ryserplanes.constructions import (
    build_g1,
    build_h1,
    build_h2,
    conic_truncated,
    find_embedding,
    parse_point_label,
    truncated_plane,
    validate_recipe,
    vertex_by_label,
)
from ryserplanes.errors import (
    ArityMismatch,
    NotOddPrime,
    NotPrimePower,
    NuTooSmall,
    QTooSmall,
)
from ryserplanes.geometry import is_arc, line_through, plane_build
from ryserplanes.hypergraph import (
    is_ryser,
    restrict,
    tau_subfamily,
    validate_partite,
)


# ---- truncated planes ----


@pytest.mark.parametrize("q", [3, 4, 5])
def test_truncated_plane_shape_and_invariants(q):
    h = truncated_plane(q)
    assert h.r == q + 1
    assert len(h.vertices) == q * (q + 1)
    assert len(h.edges) == q * q
    assert validate_partite(h).ok
    v = is_ryser(h).value
    # one point removed: the remaining lines pairwise meet, cover needs q
    assert v["nu"] == 1
    assert v["tau"] == q
    assert v["is_ryser"]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_conic_truncated_shape_and_invariants(q):
    h = conic_truncated(q)
    assert h.r == q + 1
    assert len(h.vertices) == q * (q + 1)
    assert len(h.edges) == q * (q + 1) // 2
    assert validate_partite(h).ok
    v = is_ryser(h).value
    assert v["nu"] == 1
    assert v["tau"] == q


def test_conic_truncated_rejects_tiny_order():
    with pytest.raises(QTooSmall):
        conic_truncated(2)


def test_truncated_plane_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        truncated_plane(6)


# ---- first glued family ----


def test_h1_base_counts_and_certificate(h1_32):
    h, recipe = h1_32
    assert h.r == 4
    assert len(h.vertices) == 24
    assert len(h.edges) == 15
    assert validate_partite(h).ok
    assert validate_recipe(recipe) == []
    v = is_ryser(h).value
    assert v == {"r": 4, "nu": 2, "tau": 6, "is_ryser": True, "conjecture_holds": True}


def test_h1_shared_point_and_extra_vertex(h1_32):
    h, recipe = h1_32
    # vertex 0 is the gluing point; the recipe names plane point ids
    assert h.vertices[0].label == "p1:(0:1:0)"
    assert recipe.chosen["P"] == 1
    assert recipe.chosen["Q"] == 0
    assert recipe.chosen["R"] == 2
    extra = recipe.chosen["extra_vertices"]["2"]
    assert h.vertex(extra).label == "v2"


def test_h1_edge_classes_partition_and_intersect(h1_32):
    h, recipe = h1_32
    classes = recipe.chosen["edge_classes"]
    assert sorted(e for c in classes for e in c) == list(range(len(h.edges)))
    for cls in classes:
        for a, b in combinations(cls, 2):
            assert set(h.edges[a]) & set(h.edges[b])


def test_h1_class_cover_numbers(h1_32):
    h, recipe = h1_32
    # each pairwise-intersecting class needs q vertices to cover
    for cls in recipe.chosen["edge_classes"]:
        assert tau_subfamily(h, cls) == 3


def test_h1_general_nu_counts(h1_33):
    h, recipe = h1_33
    assert len(h.vertices) == 36
    assert len(h.edges) == 23
    assert [len(c) for c in recipe.chosen["edge_classes"]] == [9, 7, 7]
    assert validate_partite(h).ok
    assert validate_recipe(recipe) == []


def test_h1_general_nu_certificate(h1_33):
    # The cover number stays below nu*q for nu >= 3: the shared point, one
    # point of the common line, and q-1 conic points per glued plane make a
    # cover of size nu*(q-1)+2, and exhaustive search confirms optimality.
    # This pins the faulty nu >= 3 gluing (see `build_h1`); it must change
    # when the gluing is fixed.
    h, _ = h1_33
    v = is_ryser(h).value
    assert v["nu"] == 3
    assert v["tau"] == 8
    assert not v["is_ryser"]
    assert v["conjecture_holds"]


def test_h1_nu_four_follows_same_formula():
    # pins the faulty nu >= 3 gluing (see `build_h1`); it must change when
    # the gluing is fixed
    h, _ = build_h1(3, 4)
    v = is_ryser(h).value
    assert v["nu"] == 4
    assert v["tau"] == 4 * 2 + 2


def test_h1_larger_field():
    h, recipe = build_h1(5, 2)
    assert h.r == 6
    assert len(h.vertices) == 60
    assert len(h.edges) == 38
    assert validate_recipe(recipe) == []
    v = is_ryser(h).value
    assert v["nu"] == 2
    assert v["tau"] == 10
    assert v["is_ryser"]


@pytest.mark.parametrize("q", [2, 4, 8, 9])
def test_h1_needs_odd_prime(q):
    with pytest.raises(NotOddPrime):
        build_h1(q, 2)


def test_h1_needs_nu_at_least_two():
    with pytest.raises(NuTooSmall):
        build_h1(3, 1)


# ---- second glued family ----


def test_h2_base_counts_and_certificate(h2_42):
    h, recipe = h2_42
    assert h.r == 5
    assert len(h.vertices) == 40
    assert len(h.edges) == 25
    assert validate_partite(h).ok
    assert validate_recipe(recipe) == []
    v = is_ryser(h).value
    assert v == {"r": 5, "nu": 2, "tau": 8, "is_ryser": True, "conjecture_holds": True}


def test_h2_arc_choice_is_recorded(h2_42):
    _, recipe = h2_42
    ch = recipe.chosen
    assert (ch["Q"], ch["P"], ch["T1"], ch["T2"], ch["T3"]) == (0, 1, 2, 5, 11)
    # both exclusion rules delete the same third subplane point of the
    # chosen line, so two candidates survive; the first is taken
    assert ch["S_candidates"] == [6, 7]
    assert ch["S"] == 6
    assert sorted(ch["closure"]) == [0, 2, 3, 5, 8, 10, 11]


def test_h2_closure_excludes_p_and_s(h2_42):
    _, recipe = h2_42
    ch = recipe.chosen
    assert ch["P"] not in ch["closure"]
    assert ch["S"] not in ch["closure"]


def test_h2_edge_classes_partition_and_intersect(h2_42):
    h, recipe = h2_42
    classes = recipe.chosen["edge_classes"]
    assert [len(c) for c in classes] == [14, 11]
    assert sorted(e for c in classes for e in c) == list(range(len(h.edges)))
    for cls in classes:
        for a, b in combinations(cls, 2):
            assert set(h.edges[a]) & set(h.edges[b])


def test_h2_at_q5():
    h, recipe = build_h2(5, 2)
    assert h.r == 6
    assert len(h.vertices) == 60
    assert len(h.edges) == 39
    assert recipe.chosen["closure"] is None  # no subplane rule away from q=4
    assert validate_recipe(recipe) == []
    v = is_ryser(h).value
    assert v["nu"] == 2
    assert v["tau"] == 10
    assert v["is_ryser"]


def test_h2_rejects_small_or_bad_orders():
    with pytest.raises(QTooSmall):
        build_h2(3, 2)
    with pytest.raises(NotPrimePower):
        build_h2(6, 2)
    with pytest.raises(NuTooSmall):
        build_h2(4, 0)


def test_h2_general_nu_builds_and_validates():
    h, recipe = build_h2(4, 3)
    assert validate_partite(h).ok
    assert validate_recipe(recipe) == []
    assert len(recipe.chosen["edge_classes"]) == 3


# (name, family, tampering of `chosen` given the plane, failures it must
# include).  h2(4, 2) has Q, P, T1, T2, T3, S = 0, 1, 2, 5, 11, 6 (pinned
# above): PQ = {0..4}, QT2 = {0, 5, 6, 7, 8}, T2T3 = {3, 5, 11, 16, 18},
# T1T3 = {2, 8, 11, 14, 17} and the closure {0, 2, 3, 5, 8, 10, 11}.
# h1(3, 2) has Q, P, R = 0, 1, 2 and PQ = {0..3}.
TAMPERINGS = [
    ("tangent-line-too-large", "h2", lambda pl, c: {"tangent_line": 10 ** 6},
     ["a recorded point or line id is out of range"]),
    ("negative-point", "h2", lambda pl, c: {"P": -1},
     ["a recorded point or line id is out of range"]),
    ("negative-line", "h1", lambda pl, c: {"ell_line": -1},
     ["a recorded point or line id is out of range"]),
    ("point-past-the-plane", "h1", lambda pl, c: {"R": len(pl.points)},
     ["a recorded point or line id is out of range"]),
    ("t3-is-t2", "h2", lambda pl, c: {"T3": c["T2"]},
     ["the points P, Q, T1, T2, T3, S must be distinct"]),
    ("r-is-p", "h1", lambda pl, c: {"R": c["P"]},
     ["the points P, Q, R must be distinct"]),
    ("tangent-is-ell", "h2", lambda pl, c: {"tangent_line": c["ell_line"]},
     ["Q not on the recorded tangent line"]),
    ("tangent-is-qt2", "h2", lambda pl, c: {"tangent_line": line_through(pl, c["Q"], c["T2"]).id},
     ["P not on the recorded tangent line"]),
    ("tangent-is-a-secant", "h1",
     lambda pl, c: {"tangent_line": line_through(pl, *c["conic_points"][1:3]).id},
     ["recorded PQ line is not tangent"]),
    ("ell-is-pq", "h1", lambda pl, c: {"ell_line": c["tangent_line"]},
     ["ell must pass through P and avoid Q"]),
    ("conic-reversed", "h1", lambda pl, c: {"conic_points": c["conic_points"][::-1]},
     ["conic points drifted"]),
    ("r-off-pq", "h1", lambda pl, c: {"R": 4},
     ["R must lie on PQ away from P and Q"]),
    ("t1-off-pq", "h2", lambda pl, c: {"T1": 9},
     ["T1 must lie on PQ away from P and Q"]),
    ("t3-on-pq", "h2", lambda pl, c: {"T3": 3},
     ["{Q,T1,T2,T3} is not an arc"]),
    ("s-off-qt2", "h2", lambda pl, c: {"S": 9},
     ["S must lie on QT2 away from Q and T2"]),
    ("p-on-t2t3", "h2", lambda pl, c: {"P": 16},
     ["P must avoid the line T2T3"]),
    ("closure-short", "h2", lambda pl, c: {"closure": c["closure"][:-1]},
     ["recorded subplane closure drifted"]),
    ("p-in-closure", "h2", lambda pl, c: {"P": 3},
     ["P must avoid the arc's subplane closure"]),
    ("s-in-closure-on-t1t3", "h2", lambda pl, c: {"S": 8},
     ["S must avoid the arc's subplane closure", "S must avoid the line T1T3"]),
]


@pytest.mark.parametrize(
    "family,tamper,wanted", [t[1:] for t in TAMPERINGS], ids=[t[0] for t in TAMPERINGS]
)
def test_tampered_recipe_is_reported_not_raised(h1_32, h2_42, family, tamper, wanted):
    _, recipe = h1_32 if family == "h1" else h2_42
    chosen = {**recipe.chosen, **tamper(plane_build(recipe.q), recipe.chosen)}
    fails = validate_recipe(replace(recipe, chosen=chosen))
    assert fails
    assert set(wanted) <= set(fails)


def test_unknown_family_is_reported(h1_32):
    _, recipe = h1_32
    assert validate_recipe(replace(recipe, family="h3")) == ["unknown family h3"]


# every key each of these recipes records, with `lines.<name>` for the
# three named lines of an h2 recipe
TAMPER_BUILDS = {"h1(3,2)": (build_h1, 3, 2), "h2(4,2)": (build_h2, 4, 2), "h2(4,3)": (build_h2, 4, 3)}
TAMPER_KEYS = []
for _name, (_build, _q, _nu) in TAMPER_BUILDS.items():
    _chosen = _build(_q, _nu)[1].chosen
    TAMPER_KEYS += [(_name, k) for k in _chosen]
    TAMPER_KEYS += [(_name, f"lines.{k}") for k in _chosen.get("lines", ())]


def tampered(plane, c, key):
    """A copy of `chosen` with `key` changed: P, Q, R and T1 moved off PQ,
    T2 and T3 onto it (breaking the arc), S off QT2, the tangent line and
    ell swapped, a named line set to another, a list or dict grown."""
    taken = {v for v in c.values() if isinstance(v, int)}

    def least(ok):
        return min(p for p in range(len(plane.points)) if p not in taken and ok(p))

    pq = plane.lines[c["tangent_line"]].points
    head, _, sub = key.partition(".")
    value = c[head]
    if sub:
        new = {**value, sub: next(v for k, v in value.items() if k != sub)}
    elif key in ("P", "Q", "R", "T1"):
        new = least(lambda p: p not in pq)
    elif key in ("T2", "T3"):
        new = least(lambda p: p in pq)
    elif key == "S":
        new = least(lambda p: p not in line_through(plane, c["Q"], c["T2"]).points)
    elif key in ("tangent_line", "ell_line"):
        new = c["ell_line" if key == "tangent_line" else "tangent_line"]
    elif isinstance(value, list):
        new = value + value[:1]
    else:
        new = {**value, "0": 0}
    return {**c, head: new}


@pytest.mark.parametrize("how", ["changed", "missing"])
@pytest.mark.parametrize("name,key", TAMPER_KEYS, ids=[f"{n}-{k}" for n, k in TAMPER_KEYS])
def test_every_recorded_key_is_checked(name, key, how):
    build, q, nu = TAMPER_BUILDS[name]
    _, recipe = build(q, nu)
    c = recipe.chosen
    head, _, sub = key.partition(".")
    if how == "changed":
        chosen = tampered(plane_build(q), c, key)
    elif sub:
        chosen = {**c, head: {k: v for k, v in c[head].items() if k != sub}}
    else:
        chosen = {k: v for k, v in c.items() if k != key}
    assert chosen != c
    fails = validate_recipe(replace(recipe, chosen=chosen))
    # the key's own name, or its words, e.g. "conic points drifted"
    named = rf"\b({head}|{head.replace('_', ' ')})\b"
    assert any(re.search(named, f) for f in fails), fails


@pytest.mark.parametrize(
    "family,change,wanted",
    [
        ("h2", {"q": 6}, "6 is not a prime power"),
        ("h2", {"q": 33}, "order 33 exceeds the supported cap 32"),
        ("h1", {"q": 6}, "q=6: the cover argument needs an odd prime order"),
        ("h1", {"q": 33}, "order 33 exceeds the supported cap 32"),
        ("h1", {"q": 9}, "q=9: the cover argument needs an odd prime order"),
        ("h2", {"q": 3}, "q=3: the arc construction needs q >= 4"),
        ("h2", {"nu": 0}, "nu=0: at least two glued planes required"),
        ("h1", {"nu": 1}, "nu=1: at least two glued planes required"),
    ],
)
def test_bad_order_or_nu_is_reported_not_raised(h1_32, h2_42, family, change, wanted):
    _, recipe = h1_32 if family == "h1" else h2_42
    assert validate_recipe(replace(recipe, **change)) == [wanted]


def test_missing_points_are_each_reported(h2_42):
    _, recipe = h2_42
    chosen = {k: v for k, v in recipe.chosen.items() if k not in ("S", "ell_line")}
    assert validate_recipe(replace(recipe, chosen=chosen)) == [
        "recorded S is missing",
        "recorded ell_line is missing",
    ]


BAD_ORDERS = [{"nu": "2"}, {"nu": None}, {"nu": 2.0}, {"nu": True},
              {"q": "4"}, {"q": 4.0}, {"q": None}, {"q": True}]


@pytest.mark.parametrize("change", BAD_ORDERS, ids=[repr(c) for c in BAD_ORDERS])
@pytest.mark.parametrize("family", ["h1", "h2"])
def test_order_or_nu_that_is_not_an_integer_is_reported(h1_32, h2_42, family, change):
    # recipes come from a file's meta, so any JSON value may stand here
    _, recipe = h1_32 if family == "h1" else h2_42
    assert validate_recipe(replace(recipe, **change)) == ["q and nu must be integers"]


BAD_FAMILIES = [["h2"], {"h2": 1}, None, 2]


@pytest.mark.parametrize("family", BAD_FAMILIES, ids=[repr(f) for f in BAD_FAMILIES])
def test_family_that_is_not_a_string_is_reported(h2_42, family):
    # `bench/workloads.py` builds recipes from a file's meta["family"]
    _, recipe = h2_42
    assert validate_recipe(replace(recipe, family=family)) == [f"unknown family {family}"]


BAD_CHOSEN = [5, None, [], "P", ["P", "Q"]]


@pytest.mark.parametrize("chosen", BAD_CHOSEN, ids=[repr(c) for c in BAD_CHOSEN])
def test_chosen_that_is_not_an_object_is_reported(h2_42, chosen):
    _, recipe = h2_42
    assert validate_recipe(replace(recipe, chosen=chosen)) == ["chosen must be a JSON object"]


@pytest.mark.parametrize("nu", [3, 10 ** 6, 10 ** 9])
@pytest.mark.parametrize("family", ["h1", "h2"])
def test_nu_beside_fewer_recorded_planes_lays_out_none(h1_32, h2_42, family, nu):
    _, recipe = h1_32 if family == "h1" else h2_42
    start = time.perf_counter()
    fails = validate_recipe(replace(recipe, nu=nu))
    assert time.perf_counter() - start < 1.0
    assert fails == ["nu differs from the number of recorded plane_edges"]


@pytest.mark.parametrize("key", ["T2", "tangent_line"])
def test_non_integer_id_is_reported(h2_42, key):
    _, recipe = h2_42
    chosen = {**recipe.chosen, key: float(recipe.chosen[key])}
    assert validate_recipe(replace(recipe, chosen=chosen)) == ["a recorded point or line id is out of range"]


BENCH_RECIPES = [
    (build_h1, 3, 2), (build_h1, 3, 3), (build_h1, 3, 4), (build_h1, 5, 2), (build_h1, 5, 3),
    (build_h1, 5, 4), (build_h1, 31, 2), (build_h2, 4, 2), (build_h2, 4, 3), (build_h2, 4, 4),
    (build_h2, 5, 2), (build_h2, 5, 3), (build_h2, 16, 2), (build_h2, 25, 2), (build_h2, 32, 2),
]


@pytest.mark.parametrize("build,q,nu", BENCH_RECIPES,
                         ids=[f"{b.__name__[-2:]}({q},{nu})" for b, q, nu in BENCH_RECIPES])
def test_benchmark_recipes_validate_after_a_file_round_trip(build, q, nu):
    # the benchmark reads each recipe back from its instance file
    _, recipe = build(q, nu)
    assert validate_recipe(replace(recipe, chosen=json.loads(json.dumps(recipe.chosen)))) == []


# ---- frozen builder output ----

# sha256 of the file `ryserplanes build` writes (`save_hypergraph` with the
# recipe in its meta); any change to vertex order, labels, sides, edge order
# or recipe moves these.
FROZEN_FILES = [
    ("truncated", 3, None, "33aa479b1c835c9a808e1b230c490f4ab53781d96f6bc3925e5d3431afafbba0"),
    ("conic", 5, None, "6b5164f6edd7314184fbee2c0691d808fbdf2c1b921096a5cd5c488499c4b18d"),
    ("h1", 3, 2, "c4112a312d41ba6b77df43dc5b123e40a4206c173f3919310176b96586331abc"),
    ("h1", 5, 3, "cf020e050ee405ae1365077d1b05c45789917303c48fb52dd1cc79ac3fec51ba"),
    ("h2", 4, 2, "47de4492192e43b5b244d7d6563036feb29d3ebb159a1c62292d70cbdac8b161"),
    ("h2", 5, 3, "ac370072f77a55739ce1d8a82e53b59b428da0753f82fa3347ee62945ca52b15"),
    ("g1", None, None, "59e95cbaa674edb1ec86ad7e5533fe07e2852eff54e6987a29d984dd026d0bb8"),
    ("truncated", 16, None, "895aab8fed2d529e50c888cdd263fa7642b44d13c57fdbb6c4d3e99fc9feab70"),
    ("truncated", 25, None, "5ccb7cd75108743660ab48235216eed98743c955b4bdf93ffe6b3dfee57d8382"),
    ("truncated", 32, None, "6d6707c1ebc4d0eb062c8ceade40b6625ff376439d3b4fa8eed34e5088c2a66f"),
    ("conic", 16, None, "fda3c4edeae788bb026750f48e10f7075749fe43c7e883d5a6fedf943984d2e0"),
    ("conic", 25, None, "7e94da36618bd2baa07a73634a8f1e5ed4a427da35d20d2fca23b5dd06f6e23c"),
    ("conic", 32, None, "33e985c9919dcff6c4a2b3ba8cc184537c4d5953b64a08fabd8d2c3ca603ce84"),
    ("h2", 16, 2, "9e5f14e4f22fb0ee45250af358cec50d592df99e95fb5e4aefc0a1715bf7f365"),
    ("h2", 25, 2, "5cd84c4f050c03a2e8ee0db0878f6d4342c396cc32ee141a57af1b75aff70483"),
    ("h2", 32, 2, "e3c5a95889787c3e0874566075bd25c19774652b0de31328e6c904c28c63fd4e"),
]


@pytest.mark.parametrize("family,q,nu,digest", FROZEN_FILES,
                         ids=[f"{f}-{q}-{nu}" for f, q, nu, _ in FROZEN_FILES])
def test_built_file_digest_is_frozen(tmp_path, family, q, nu, digest):
    path = tmp_path / "out.json"
    argv = ["build", "--family", family, "--out", str(path)]
    for flag, value in (("--q", q), ("--nu", nu)):
        if value is not None:
            argv += [flag, str(value)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---- labels ----


def test_labels_round_trip(h1_32):
    h, _ = h1_32
    assert parse_point_label("p2:(0:1:1)") == (2, (0, 1, 1))
    vid = vertex_by_label(h, "p1:(1:1:1)")
    assert h.vertex(vid).label == "p1:(1:1:1)"


# ---- hand-sized witness and embeddings ----


def test_g1_counts_and_certificate():
    h = build_g1()
    assert h.r == 4
    assert len(h.vertices) == 24
    assert len(h.edges) == 14
    assert validate_partite(h).ok
    v = is_ryser(h).value
    assert v == {"r": 4, "nu": 2, "tau": 6, "is_ryser": True, "conjecture_holds": True}


def test_g1_two_halves_are_edge_minimal_ryser():
    # first six and next six edges each form an intersecting family
    # with cover number 3; dropping any edge drops the cover number
    h = build_g1()
    for ids in (list(range(6)), list(range(6, 12))):
        assert tau_subfamily(h, ids) == 3
        for e in ids:
            rest = [f for f in ids if f != e]
            assert tau_subfamily(h, rest) < 3


def test_self_embedding_is_identity(h1_32):
    h, _ = h1_32
    m = find_embedding(h, h)
    assert m == {v.id: v.id for v in h.vertices}


def test_self_embedding_of_t32_needs_no_recursion():
    # one search frame per small vertex: 1,056 of them, past Python's
    # default recursion limit of 1,000
    h = truncated_plane(32)
    assert len(h.vertices) > 1000
    assert find_embedding(h, h) == {v.id: v.id for v in h.vertices}


def test_g1_embeds_into_h1_pinned(h1_32):
    h, _ = h1_32
    g = build_g1()
    m = find_embedding(g, h)
    assert m is not None
    assert m[1] == 0
    assert len(set(m.values())) == len(g.vertices)
    mapped = {tuple(sorted(m[v] for v in e)) for e in g.edges}
    assert mapped <= set(h.edges)


def test_embedding_respects_sides(h1_32):
    h, _ = h1_32
    g = build_g1()
    m = find_embedding(g, h)
    gside = {v.id: v.side for v in g.vertices}
    hside = {v.id: v.side for v in h.vertices}
    side_map = {}
    for gv, hv in m.items():
        assert side_map.setdefault(gside[gv], hside[hv]) == hside[hv]
    assert len(set(side_map.values())) == 4


def test_embedded_conic_triple_maps_to_an_arc(h1_32):
    h, _ = h1_32
    g = build_g1()
    m = find_embedding(g, h)
    plane = plane_build(3)
    pids = []
    for gvid in (4, 22, 7):  # second side-1, sixth side-3, second side-4 vertex
        plane_no, triple = parse_point_label(h.vertex(m[gvid]).label)
        assert plane_no == 2
        pids.append(plane.point_id(triple))
    pids.append(plane.point_id((0, 0, 1)))  # the deleted point of that plane
    assert is_arc(plane, pids)


# The lexicographically least side-respecting map, as images of the small
# vertices in ascending id order; None where no embedding exists.
G1_INTO_H1_32 = [3, 0, 9, 6, 14, 12, 22, 18, 15, 1, 11, 7,
                 16, 2, 10, 8, 4, 23, 20, 17, 5, 13, 21, 19]
FROZEN_EMBEDDINGS = {
    "g1 -> h1(3,2)": (build_g1, lambda: build_h1(3, 2)[0], G1_INTO_H1_32),
    # v2 of h1(3,3) is vertex 34; otherwise the same map as into h1(3,2)
    "g1 -> h1(3,3)": (build_g1, lambda: build_h1(3, 3)[0],
                      G1_INTO_H1_32[:17] + [34] + G1_INTO_H1_32[18:]),
    "TC(3) -> h1(3,3)": (lambda: conic_truncated(3), lambda: build_h1(3, 3)[0],
                         [0] + list(range(12, 23))),
    "TC(5) -> h1(5,2)": (lambda: conic_truncated(5), lambda: build_h1(5, 2)[0],
                         [0] + list(range(30, 59))),
    # plane 1 and plane 2 in place; v2 goes to h2(4,3)'s v2, vertex 58
    "h2(4,2) -> h2(4,3)": (lambda: build_h2(4, 2)[0], lambda: build_h2(4, 3)[0],
                           list(range(39)) + [58]),
    "T(3) -> h1(3,2)": (lambda: truncated_plane(3), lambda: build_h1(3, 2)[0], None),
    "h1(3,2) -> g1": (lambda: build_h1(3, 2)[0], build_g1, None),
}


@pytest.mark.parametrize("pair", sorted(FROZEN_EMBEDDINGS))
def test_embedding_is_frozen(pair):
    small_of, big_of, images = FROZEN_EMBEDDINGS[pair]
    small = small_of()
    m = find_embedding(small, big_of())
    if images is None:
        assert m is None
    else:
        assert m == dict(zip((v.id for v in small.vertices), images))


def test_embedding_arity_mismatch(h2_42):
    h2, _ = h2_42
    with pytest.raises(ArityMismatch):
        find_embedding(build_g1(), h2)


def test_no_embedding_when_too_large(h1_32):
    h, _ = h1_32
    assert find_embedding(h, build_g1()) is None
