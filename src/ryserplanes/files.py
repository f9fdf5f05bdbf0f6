"""JSON-shaped storage for hypergraphs and certificates.

Instances are tiny, so the format optimizes for diffability: sorted keys,
stable ordering, one top-level object per file.  `save_hypergraph` writes
the vertex and edge lists itself, byte for byte as `json.dump` with
indent=2 and sorted keys would: with an indent, `json` formats in pure
Python, several times slower.  Certificates carry a digest of the
hypergraph file they were computed from, so a certificate cannot be
replayed against a different input.
"""

import hashlib
import json
from json.encoder import encode_basestring_ascii

from .hypergraph import Certificate, Hypergraph, Vertex

FORMAT_VERSION = 1


def hypergraph_to_dict(h: Hypergraph, meta: dict = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "r": h.r,
        "vertices": [
            {"id": v.id, "label": v.label, "side": v.side} for v in h.vertices
        ],
        "edges": [list(e) for e in h.edges],
        "meta": meta or {},
    }


def hypergraph_from_dict(d: dict):
    """Inverse of `hypergraph_to_dict`; a wrong shape or type is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    # exact type tests: JSON true/false load as bool, an int subclass
    if type(d.get("r")) is not int:
        raise ValueError("r must be an integer")
    vertices, edges = d.get("vertices"), d.get("edges")
    if type(vertices) is not list or not all(
        type(v) is dict and type(v.get("id")) is int and type(v.get("side")) is int
        and type(v.get("label")) is str
        for v in vertices
    ):
        raise ValueError("vertices must be objects with integer id and side and a string label")
    if type(edges) is not list or not all(
        type(e) is list and set(map(type, e)) <= {int} for e in edges
    ):
        raise ValueError("edges must be lists of integer vertex ids")
    meta = d.get("meta", {})
    if type(meta) is not dict:
        raise ValueError("meta must be a JSON object")
    verts = [Vertex(v["id"], v["label"], v["side"]) for v in vertices]
    h = Hypergraph(d["r"], verts, [tuple(e) for e in edges])
    return h, meta


def _list_items(items):
    """The text between a top-level list's brackets, as `json.dump` lays it
    out with indent=2: nothing for an empty list."""
    first = True
    for item in items:
        yield ("\n    " if first else ",\n    ") + item
        first = False
    if not first:
        yield "\n  "


def save_hypergraph(path, h: Hypergraph, meta: dict = None) -> None:
    """Write `hypergraph_to_dict(h, meta)` as indented JSON, sorted keys.

    `json` formats everything but the two lists, left empty; their items
    are then streamed in at "edges", the first top-level key, and
    "vertices", the last.  Keys nested in meta are indented deeper, so
    neither can match.
    """
    head = json.dumps(hypergraph_to_dict(Hypergraph(h.r, (), ()), meta), indent=2, sort_keys=True)
    at_edges = head.index('\n  "edges": []') + len('\n  "edges": [')
    at_vertices = head.rindex('\n  "vertices": []') + len('\n  "vertices": [')
    edges = ("[\n      " + ",\n      ".join(map(str, e)) + "\n    ]" if e else "[]" for e in h.edges)
    vertices = (
        f'{{\n      "id": {v.id},\n      "label": {encode_basestring_ascii(v.label)},'
        f'\n      "side": {v.side}\n    }}'
        for v in h.vertices
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(head[:at_edges])
        f.writelines(_list_items(edges))
        f.write(head[at_edges:at_vertices])
        f.writelines(_list_items(vertices))
        f.write(head[at_vertices:] + "\n")


def load_hypergraph(path):
    with open(path, encoding="utf-8") as f:
        return hypergraph_from_dict(json.load(f))


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return "sha256:" + hashlib.sha256(f.read()).hexdigest()


def certificate_to_dict(cert: Certificate, input_digest: str = None) -> dict:
    return {
        "claim": cert.kind,
        "values": dict(cert.value),
        "witness": cert.witness,
        "exhaustive": cert.exhaustive,
        "input_digest": input_digest,
    }


def save_certificate(path, cert: Certificate, input_path=None) -> None:
    digest = file_digest(input_path) if input_path else None
    with open(path, "w", encoding="utf-8") as f:
        json.dump(certificate_to_dict(cert, digest), f, indent=2, sort_keys=True)
        f.write("\n")


def load_certificate(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
