"""Command-line front end: build instances to files, verify claims, run
the decomposition search and the blocking-set oracles, emit certificates.

Exit codes are contractual: 0 success (for decompose: no disjoint pair,
exhaustively), 1 invalid input or flags, 2 a disjoint pair was found,
3 the decomposition search hit its cap.
"""

import argparse
import json
import sys
from functools import cache

from .constructions import (
    build_g1,
    build_h1,
    build_h2,
    conic_truncated,
    find_embedding,
    truncated_plane,
)
from .decompose import DEFAULT_CAP, find_disjoint_ryser_pair
from .files import load_hypergraph, save_certificate, save_hypergraph
from .hypergraph import cover_number, is_ryser, matching_number, validate_partite
from .oracles import (
    classify_conic_blockers,
    min_blocking_sets,
    min_nontrivial_blocking,
)


class _Parser(argparse.ArgumentParser):
    # flag errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(text):
    # a cap below 1 would end the search at once and read as a verdict
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return n


@cache  # built once per process: each parse returns a fresh namespace
def _parser():
    p = _Parser(prog="ryserplanes")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a family and write it to a file")
    b.add_argument("--family", required=True,
                   choices=["truncated", "conic", "h1", "h2", "g1"])
    b.add_argument("--q", type=int)
    b.add_argument("--nu", type=int, default=2)
    b.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="recompute nu, tau and the Ryser predicate")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--expect-nu", type=int)
    v.add_argument("--expect-tau", type=int)
    v.add_argument("--expect-r", type=int)
    v.add_argument("--cert")

    d = sub.add_parser("decompose",
                       help="search for two vertex-disjoint intersecting Ryser subfamilies")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--cap", type=_positive, default=DEFAULT_CAP)
    d.add_argument("--cert")

    o = sub.add_parser("oracle", help="run a blocking-set search")
    o.add_argument("kind", choices=["blocking", "conic-blockers", "nontrivial"])
    o.add_argument("--q", type=int, required=True)

    e = sub.add_parser("embed", help="find a side-respecting injective embedding")
    e.add_argument("--small", required=True)
    e.add_argument("--big", required=True)
    return p


def _cmd_build(args):
    meta = {"family": args.family, "q": None, "nu": None, "recipe": None}
    if args.family == "g1":
        h = build_g1()
    elif args.q is None:
        print("error: --q is required for this family", file=sys.stderr)
        return 1
    else:
        meta["q"] = args.q
        if args.family == "truncated":
            h = truncated_plane(args.q)
        elif args.family == "conic":
            h = conic_truncated(args.q)
        else:
            build = build_h1 if args.family == "h1" else build_h2
            h, recipe = build(args.q, args.nu)
            meta.update(nu=args.nu, recipe=recipe.chosen)
    save_hypergraph(args.out, h, meta)
    print(f"wrote {args.out}: r={h.r}, {len(h.vertices)} vertices, {len(h.edges)} edges")
    return 0


def _load(path):
    """The hypergraph in a file, or None after printing each partite violation."""
    h, _ = load_hypergraph(path)
    report = validate_partite(h)
    for viol in report.violations:
        print(f"invalid: {viol}", file=sys.stderr)
    return h if report.ok else None


def _cmd_verify(args):
    h = _load(args.infile)
    if h is None:
        return 1
    cert = is_ryser(h)
    print(json.dumps(cert.value, sort_keys=True))
    if args.cert:
        save_certificate(args.cert, cert, input_path=args.infile)
    failures = []
    for name, want in (("nu", args.expect_nu), ("tau", args.expect_tau),
                       ("r", args.expect_r)):
        if want is not None and cert.value[name] != want:
            failures.append(f"expected {name}={want}, got {cert.value[name]}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


def _cmd_decompose(args):
    h = _load(args.infile)
    if h is None:
        return 1
    res = find_disjoint_ryser_pair(h, cap=args.cap)
    out = {
        "outcome": res.outcome,
        "visited": res.visited,
        "pair": None if res.pair is None else [
            list(res.pair.first.edge_ids), list(res.pair.second.edge_ids)
        ],
    }
    print(json.dumps(out, sort_keys=True))
    if args.cert:
        save_certificate(args.cert, res.certificate, input_path=args.infile)
    return {"none": 0, "some": 2, "inconclusive": 3}[res.outcome]


def _cmd_oracle(args):
    fn = {
        "blocking": min_blocking_sets,
        "conic-blockers": classify_conic_blockers,
        "nontrivial": min_nontrivial_blocking,
    }[args.kind]
    # vars, not dataclasses.asdict: that deep-copies each point id (0.37 s at q = 5)
    print(json.dumps(vars(fn(args.q)), sort_keys=True))
    return 0


def _cmd_embed(args):
    small = _load(args.small)
    big = _load(args.big)
    if small is None or big is None:
        return 1
    mapping = find_embedding(small, big)
    if mapping is None:
        print("no embedding found", file=sys.stderr)
        return 1
    print(json.dumps({"map": sorted([a, b] for a, b in mapping.items())}))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "build": _cmd_build,
        "verify": _cmd_verify,
        "decompose": _cmd_decompose,
        "oracle": _cmd_oracle,
        "embed": _cmd_embed,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
