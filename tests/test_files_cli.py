"""Round-trip storage and command-line exit-code contract."""

import hashlib
import json

import pytest

from ryserplanes import cli
from ryserplanes.cli import main
from ryserplanes.constructions import (
    build_g1,
    build_h1,
    build_h2,
    conic_truncated,
    truncated_plane,
)
from ryserplanes.decompose import DEFAULT_CAP
from ryserplanes.files import (
    file_digest,
    hypergraph_from_dict,
    hypergraph_to_dict,
    load_certificate,
    load_hypergraph,
    save_hypergraph,
)
from ryserplanes.hypergraph import Hypergraph, Vertex, disjoint_union


def _instances():
    yield "t3", truncated_plane(3), None
    yield "tc4", conic_truncated(4), None
    yield "g1", build_g1(), {"family": "g1"}
    h, recipe = build_h1(3, 2)
    yield "h1_32", h, {"family": "h1", "q": 3, "nu": 2, "recipe": recipe.chosen}
    h, recipe = build_h2(4, 2)
    yield "h2_42", h, {"family": "h2", "q": 4, "nu": 2, "recipe": recipe.chosen}


@pytest.mark.parametrize("name,h,meta", list(_instances()), ids=lambda x: x if isinstance(x, str) else "")
def test_round_trip(tmp_path, name, h, meta):
    path = tmp_path / f"{name}.json"
    save_hypergraph(path, h, meta)
    back, back_meta = load_hypergraph(path)
    assert back.r == h.r
    assert back.edges == h.edges
    assert [(v.id, v.label, v.side) for v in back.vertices] == [
        (v.id, v.label, v.side) for v in h.vertices
    ]
    # json round-trips the recipe dict as-is, keys stay strings throughout
    assert back_meta == (meta or {})


def _writer_cases():
    yield "escaped-labels", Hypergraph(
        2,
        [Vertex(0, 'quote " and \\ backslash', 0), Vertex(1, "new\nline", 1),
         Vertex(2, "plan projectif \u00e9 \u03c0 \U0001d53d", 0), Vertex(3, "", 1)],
        [(0, 1), (2, 3)],
    ), {"note": 'meta "too"\n\u00e9'}
    yield "no-edges", Hypergraph(2, [Vertex(0, "a", 0), Vertex(1, "b", 1)], []), None
    yield "no-vertices", Hypergraph(3, [], [(0, 1, 2)]), {}
    yield "nothing", Hypergraph(2, [], []), None
    yield "empty-edge", Hypergraph(2, [Vertex(0, "a", 0), Vertex(1, "b", 1)], [(0, 1), (), (1,)]), None
    yield "nested-keys", truncated_plane(2), {
        "edges": [], "vertices": [], "inner": {"edges": [], "vertices": [[0], {"edges": []}]},
    }
    yield from _instances()


@pytest.mark.parametrize("name,h,meta", list(_writer_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_writer_matches_json_dump(tmp_path, name, h, meta):
    path = tmp_path / "direct.json"
    save_hypergraph(path, h, meta)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as f:
        json.dump(hypergraph_to_dict(h, meta), f, indent=2, sort_keys=True)
        f.write("\n")
    assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_rejects_unknown_format_version():
    d = hypergraph_to_dict(truncated_plane(2))
    d["format_version"] = 99
    with pytest.raises(ValueError):
        hypergraph_from_dict(d)


def test_digest_tracks_content(tmp_path):
    p = tmp_path / "h.json"
    save_hypergraph(p, truncated_plane(2))
    d1 = file_digest(p)
    assert d1.startswith("sha256:") and len(d1) == 7 + 64
    assert file_digest(p) == d1
    save_hypergraph(p, truncated_plane(3))
    assert file_digest(p) != d1


def _run(tmp_path, *argv):
    return main([str(a) if not isinstance(a, str) else a for a in argv])


def test_cli_build_and_verify(tmp_path, capsys):
    out = tmp_path / "h1.json"
    assert _run(tmp_path, "build", "--family", "h1", "--q", "3", "--nu", "2",
                "--out", out) == 0
    assert "wrote" in capsys.readouterr().out
    h, meta = load_hypergraph(out)
    assert (h.r, len(h.vertices), len(h.edges)) == (4, 24, 15)
    assert meta["recipe"]["P"] == 1

    cert_path = tmp_path / "h1.cert.json"
    code = _run(tmp_path, "verify", "--in", out, "--expect-nu", "2",
                "--expect-tau", "6", "--expect-r", "4", "--cert", cert_path)
    assert code == 0
    values = json.loads(capsys.readouterr().out)
    assert values == {"r": 4, "nu": 2, "tau": 6, "is_ryser": True,
                      "conjecture_holds": True}
    cert = load_certificate(cert_path)
    assert cert["claim"] == "ryser"
    assert cert["exhaustive"] is True
    assert cert["input_digest"] == file_digest(out)


def test_cli_verify_failed_expectation(tmp_path, capsys):
    out = tmp_path / "t.json"
    _run(tmp_path, "build", "--family", "truncated", "--q", "3", "--out", out)
    capsys.readouterr()
    assert _run(tmp_path, "verify", "--in", out, "--expect-tau", "99") == 1
    assert "expected tau=99" in capsys.readouterr().err


def test_cli_build_needs_q(tmp_path, capsys):
    assert _run(tmp_path, "build", "--family", "h1",
                "--out", tmp_path / "x.json") == 1
    assert "--q is required" in capsys.readouterr().err


def test_cli_flag_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "nonsense", "--out", "x.json"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_cli_verify_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format_version": 99}))
    assert _run(tmp_path, "verify", "--in", p) == 1
    assert "error: ValueError" in capsys.readouterr().err


MALFORMED_FILES = {
    "no_r": {"format_version": 1, "vertices": [], "edges": []},
    "string_side": {"format_version": 1, "r": 2, "edges": [],
                    "vertices": [{"id": 0, "label": "a", "side": "0"}]},
    "top_level_list": [],
}


@pytest.mark.parametrize("command", ["verify", "decompose", "embed"])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_cli_malformed_file_is_a_one_line_error(tmp_path, capsys, name, command):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(MALFORMED_FILES[name]))
    if command == "embed":
        argv = ["embed", "--small", p, "--big", p]
    else:
        argv = [command, "--in", p]
    assert _run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError") and err.count("\n") == 1


@pytest.mark.parametrize("meta", [5, [], "x", None], ids=["number", "list", "string", "null"])
def test_meta_that_is_not_an_object_is_refused(tmp_path, capsys, meta):
    d = hypergraph_to_dict(truncated_plane(2))
    d["meta"] = meta
    with pytest.raises(ValueError, match="meta must be a JSON object"):
        hypergraph_from_dict(d)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert _run(tmp_path, "verify", "--in", p) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ValueError: meta must be a JSON object\n"


def test_missing_meta_reads_as_empty():
    d = hypergraph_to_dict(truncated_plane(2))
    del d["meta"]
    assert hypergraph_from_dict(d)[1] == {}


@pytest.mark.parametrize("command", ["verify", "decompose", "embed"])
def test_cli_unknown_vertex_is_reported_as_invalid(tmp_path, capsys, command):
    p = tmp_path / "unknown.json"
    p.write_text(json.dumps({"format_version": 1, "r": 2, "edges": [[0, 5]],
                             "vertices": [{"id": 0, "label": "a", "side": 0}]}))
    if command == "embed":
        argv = ["embed", "--small", p, "--big", p]
    else:
        argv = [command, "--in", p]
    assert _run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and "unknown_vertex" in err


def _side0(*ids):
    return [{"id": i, "label": f"v{i}", "side": 0} for i in ids]


# r < 2: an edge with no vertex made verify climb forever, and r = 1 gave a
# Ryser verdict with no content
SMALL_ARITY_FILES = {
    "r0_empty_edge": {"format_version": 1, "r": 0, "vertices": [], "edges": [[]]},
    "r0_no_edges": {"format_version": 1, "r": 0, "vertices": [], "edges": []},
    "r1_two_edges": {"format_version": 1, "r": 1, "vertices": _side0(0, 1), "edges": [[0], [1]]},
    "r_minus_1": {"format_version": 1, "r": -1, "vertices": [], "edges": []},
}


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("name", sorted(SMALL_ARITY_FILES))
def test_cli_rejects_arity_below_two(tmp_path, capsys, name, command):
    p = tmp_path / "small.json"
    p.write_text(json.dumps(SMALL_ARITY_FILES[name]))
    assert _run(tmp_path, command, "--in", p) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid: ") and captured.err.count("\n") == 1
    assert "arity_too_small" in captured.err


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_cli_rejects_more_sides_than_vertices(tmp_path, capsys, command):
    # a per-side table of 10**12 entries would end in a MemoryError
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"format_version": 1, "r": 10**12,
                             "vertices": [{"id": 0, "label": "a", "side": 0},
                                          {"id": 1, "label": "b", "side": 1}],
                             "edges": [[0, 1]]}))
    assert _run(tmp_path, command, "--in", p) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid: ") and captured.err.count("\n") == 1
    assert "arity_too_large" in captured.err
    assert "Traceback" not in captured.err


def test_cli_verifies_1200_disjoint_edges(tmp_path, capsys):
    # nu = 1200: the matching search keeps its own stack
    m = 1200
    p = tmp_path / "disjoint.json"
    p.write_text(json.dumps({"format_version": 1, "r": 2,
                             "vertices": [{"id": i, "label": f"v{i}", "side": i % 2}
                                          for i in range(2 * m)],
                             "edges": [[2 * i, 2 * i + 1] for i in range(m)]}))
    assert _run(tmp_path, "verify", "--in", p, "--expect-nu", m, "--expect-tau", m) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"conjecture_holds": True, "is_ryser": True,
                                        "nu": m, "r": 2, "tau": m}


def test_cli_decompose_exit_codes(tmp_path, capsys):
    single = tmp_path / "single.json"
    save_hypergraph(single, conic_truncated(3))
    assert _run(tmp_path, "decompose", "--in", single) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "none"

    pair_path = tmp_path / "pair.json"
    save_hypergraph(pair_path, disjoint_union(conic_truncated(3),
                                              conic_truncated(3)))
    cert_path = tmp_path / "pair.cert.json"
    assert _run(tmp_path, "decompose", "--in", pair_path,
                "--cert", cert_path) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "some"
    assert out["pair"] == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]
    cert = load_certificate(cert_path)
    assert cert["claim"] == "disjoint_pair"
    assert cert["input_digest"] == file_digest(pair_path)

    assert _run(tmp_path, "decompose", "--in", pair_path, "--cap", "3") == 3
    assert json.loads(capsys.readouterr().out)["outcome"] == "inconclusive"


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # one parser serves every call in a process: a flag given to one call,
    # or a flag error, must not carry over to the next
    caps = []
    search = cli.find_disjoint_ryser_pair

    def recording(h, cap):
        caps.append(cap)
        return search(h, cap=cap)

    monkeypatch.setattr(cli, "find_disjoint_ryser_pair", recording)
    pair_path = tmp_path / "pair.json"
    save_hypergraph(pair_path, disjoint_union(conic_truncated(3), conic_truncated(3)))
    assert _run(tmp_path, "decompose", "--in", pair_path, "--cap", "5") == 3
    assert _run(tmp_path, "decompose", "--in", pair_path) == 2
    assert caps == [5, DEFAULT_CAP]
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--in", str(pair_path), "--cap", "0"])
    assert exc.value.code == 1
    assert _run(tmp_path, "decompose", "--in", pair_path) == 2
    assert caps == [5, DEFAULT_CAP, DEFAULT_CAP]
    assert cli._parser() is cli._parser()
    out = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["outcome"] for line in out] == ["inconclusive", "some", "some"]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cli_decompose_rejects_a_cap_below_one(tmp_path, capsys, cap):
    # a cap that stops the search before it starts is a flag error, not
    # an inconclusive verdict
    path = tmp_path / "h1.json"
    save_hypergraph(path, build_h1(3, 2)[0])
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--in", str(path), "--cap", cap])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--cap" in captured.err


def test_cli_oracle(capsys):
    assert main(["oracle", "blocking", "--q", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["minimum"], out["count"]) == (3, 7)
    assert set(out["classes"]) == {"line"}
    assert out["visited"] == 26

    assert main(["oracle", "conic-blockers", "--q", "4"]) == 1
    assert "error: NotOddPrime" in capsys.readouterr().err


# sha256 of the oracle command's stdout: the JSON line, key order and all
ORACLE_STDOUT = {
    ("nontrivial", "4"): "da05919bc29922dee76c8f87e3272e8144f03d4dee3b7a5b90e4edaaf26bf1f1",
    ("conic-blockers", "5"): "3904a8f2a24aff3a3cf24165a90bffd135efa012d8613fca48c3bb3b3574f63e",
}


@pytest.mark.parametrize("kind,q", sorted(ORACLE_STDOUT))
def test_cli_oracle_output_is_frozen(capsys, kind, q):
    assert main(["oracle", kind, "--q", q]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_STDOUT[kind, q]


# sha256 of decompose's stdout and of its certificate file, one case per
# exit code: no pair (0), a pair (2) and a cap hit (3)
DECOMPOSE_BYTES = {
    "h1(3,2)": (0, "49115fe9ddce1caceff8641e0e84dea6ece7b7e3e472d2353b37799ace27f262",
                "4db73868bb5084d1709312a7a4a1e096cec839201c3ce26469c8a5df6ca80459"),
    "TC(3)+TC(3)": (2, "5479640432bb30b96af5c491a1093e96ab0f1e02f5f7282ac8dcd0f733a0ab8e",
                    "82be2fb426081531f4556a58b6a9b4cd22e115d13e21cfafcd7b100aa4b9848e"),
    # h1(3,2) is decided in 21 nodes
    "h1(3,2) --cap 10": (3, "1a8b1b76d9f583c41ce63166d14bf771454b565032aab24085c22cf48bd30745",
                         "4fb4a4ce921fcd5278f7f61cbf53594999e8b41ee3ec0d083262818f4098d67f"),
}


@pytest.mark.parametrize("case", sorted(DECOMPOSE_BYTES))
def test_cli_decompose_output_is_frozen(tmp_path, capsys, case):
    if case.startswith("TC"):
        h = disjoint_union(conic_truncated(3), conic_truncated(3))
    else:
        h = build_h1(3, 2)[0]
    path, cert = tmp_path / "in.json", tmp_path / "cert.json"
    save_hypergraph(path, h)
    extra = ["--cap", "10"] if case.endswith("--cap 10") else []
    code, stdout_sha, cert_sha = DECOMPOSE_BYTES[case]
    assert _run(tmp_path, "decompose", "--in", path, "--cert", cert, *extra) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == cert_sha


def test_cli_embed(tmp_path, capsys):
    small = tmp_path / "g1.json"
    big = tmp_path / "h1.json"
    _run(tmp_path, "build", "--family", "g1", "--out", small)
    _run(tmp_path, "build", "--family", "h1", "--q", "3", "--out", big)
    capsys.readouterr()

    assert _run(tmp_path, "embed", "--small", small, "--big", big) == 0
    pairs = json.loads(capsys.readouterr().out)["map"]
    assert len(pairs) == 24
    assert len({b for _, b in pairs}) == 24

    assert _run(tmp_path, "embed", "--small", big, "--big", small) == 1
    assert "no embedding" in capsys.readouterr().err


def test_cli_embed_t32_into_itself(tmp_path, capsys):
    # 1,056 small vertices, deeper than Python's default recursion limit
    path = tmp_path / "t32.json"
    _run(tmp_path, "build", "--family", "truncated", "--q", "32", "--out", path)
    capsys.readouterr()
    assert _run(tmp_path, "embed", "--small", path, "--big", path) == 0
    pairs = json.loads(capsys.readouterr().out)["map"]
    assert len(pairs) == 1056
    assert all(a == b for a, b in pairs)
