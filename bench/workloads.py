"""The four workloads: the inputs each one generates and the ops it times.

A workload's setup writes its instance files into a work directory and
returns its ops.  An op is one call a user would make, almost always a
`ryserplanes` command run through `cli.main` in this process; its check
compares the answer with the known one, using `checks` only.

Expected values: nu and tau of the nu = 2 families, T(q), TC(q) and g1
are the paper's; the rest (nu >= 3, where the paper's tau = nu*q fails)
are the exhaustive values of the solvers as first committed.  Oracle
minima and counts are the frozen values of the test suite.
"""

import gc
import io
import json
import os
import random
import re
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import speed
from checks import WrongAnswer, expect
from ryserplanes import cli, constructions, decompose, files, geometry, gf, hypergraph, oracles

# the lru_cache object itself, kept before a tracer can replace the name
PLANE_CACHE = geometry.plane_build

DECIDED = "decided"
INCONCLUSIVE = "inconclusive"

# h1(5,2) is not decided within any affordable cap today; a fixed cap
# keeps its visit count constant, so only per-node cost moves its time
DECOMPOSE_CAP = 10_000
RANDOM_DECOMPOSE = 6
# one shape for every random instance, so that the seed changes which
# edges they have and not how large they are: with the shape drawn too,
# the six instances' geometric-mean time spread over 26% of its median
# across seeds 1-10, and over 10% with it fixed
RANDOM_SHAPE = {"r": 3, "per_side": 4, "m": 10}

VERIFY_LADDER = (
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
)
# relabelled copies; h1(5,3) is left out on purpose, its time under
# relabelling ranges over two orders of magnitude.  The timed copies are
# relabelled with one fixed seed: across seeds 1-10 these five copies took
# 1.4 s to 4.8 s, which alone spread op_geomean_s over an interquartile
# range of 22% of its median.  The run's seed relabels them afresh for
# hypergraph.relabel_slowdown.
VERIFY_RELABEL_SEED = 1
VERIFY_RELABELLED = (
    ("h1(3,4)", 4, 10),
    ("h2(4,3)", 3, 11),
    ("h1(5,2)", 2, 10),
    ("h2(5,2)", 2, 10),
    ("TC(7)", 1, 7),
)

# None: the outcome is not known, any verified answer is accepted
DECOMPOSE_LADDER = (
    ("h1(3,2)", "none", None),
    ("h1(3,3)", "some", None),
    ("h2(4,2)", "none", None),
    ("h2(4,3)", "some", None),
    ("TC(5)", "none", None),
    ("TC(5)+TC(5)", "some", None),
    ("h1(5,2)", None, DECOMPOSE_CAP),
)
DECOMPOSE_RELABELLED = (("h2(4,2)", "none"), ("TC(5)", "none"))

# (kind, q, minimum, count)
ORACLES = (
    [("blocking", q, q + 1, q * q + q + 1) for q in (2, 3, 4, 5)]
    + [("conic-blockers", 3, 4, 32), ("conic-blockers", 5, 6, 142)]
    + [("nontrivial", 3, 6, 234), ("nontrivial", 4, 7, 360), ("nontrivial", 5, 9, 15500)]
)

BUILD_QS = (16, 25, 32)
H2_EDGES = {16: 457, 25: 1159, 32: 1929}
H1_31_EDGES = 1429


class Failed(Exception):
    """The op ended without a verdict: a crash or exit 1."""


class Op:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call  # call(ctx) -> raw result; ctx is a dict private to one pass
        self.check = check  # check(result) -> DECIDED | INCONCLUSIVE, or raises


# ---- instances ----


def instance(name):
    """(Hypergraph, meta) for a ladder name, meta as `ryserplanes build` writes it."""
    if name == "g1":
        return constructions.build_g1(), {"family": "g1", "q": None, "nu": None, "recipe": None}
    if name == "TC(5)+TC(5)":
        tc = constructions.conic_truncated(5)
        return hypergraph.disjoint_union(tc, tc), {"family": "union", "q": 5, "nu": None, "recipe": None}
    fam, q, nu = re.fullmatch(r"(h1|h2|TC|T)\((\d+)(?:,(\d+))?\)", name).groups()
    q = int(q)
    if fam in ("T", "TC"):
        build = constructions.truncated_plane if fam == "T" else constructions.conic_truncated
        family = "truncated" if fam == "T" else "conic"
        return build(q), {"family": family, "q": q, "nu": None, "recipe": None}
    build = constructions.build_h1 if fam == "h1" else constructions.build_h2
    h, recipe = build(q, int(nu))
    return h, {"family": fam, "q": q, "nu": int(nu), "recipe": recipe.chosen}


def _write_dict(path, d):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(d, f, indent=2, sort_keys=True)
        f.write("\n")


def _fname(name, suffix=""):
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_") + suffix + ".json"


def write_instance(workdir, name):
    path = os.path.join(workdir, _fname(name))
    h, meta = instance(name)
    files.save_hypergraph(path, h, meta)
    return path


def write_relabelled(workdir, name, seed):
    path = os.path.join(workdir, _fname(name, "_relabelled"))
    h, meta = instance(name)
    _write_dict(path, checks.relabel(files.hypergraph_to_dict(h, meta), relabel_rng(seed, name)))
    return path


def relabel_rng(seed, name):
    return random.Random(f"{seed}:relabel:{name}")


# ---- running a command ----


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _printed_json(result):
    code, out, err = result
    lines = out.strip().splitlines()
    if not lines:
        raise Failed(f"exit {code}: {err.strip()[:200]}")
    return code, json.loads(lines[-1])


# ---- verify ----


def verify_op(name, path, nu, tau):
    cert = path[: -len(".json")] + ".cert.json"
    argv = ["verify", "--in", path, "--expect-nu", str(nu), "--expect-tau", str(tau), "--cert", cert]

    def check(result):
        code, value = _printed_json(result)
        expect((value["nu"], value["tau"]) == (nu, tau),
               f"nu={value['nu']} tau={value['tau']}, expected {nu}/{tau}")
        expect(code == 0, f"exit {code} on a correct verdict")
        with open(cert, encoding="utf-8") as f:
            c = json.load(f)
        os.remove(cert)  # a stale certificate must not pass the next pass
        _, edges = checks.load_edges(path)
        expect(c["input_digest"] == checks.sha256_of(path), "certificate digest does not match its input")
        expect((c["values"]["nu"], c["values"]["tau"]) == (nu, tau), "certificate values differ from the verdict")
        checks.check_matching(edges, c["witness"]["matching"], nu)
        checks.check_cover(edges, c["witness"]["cover"], tau)
        return DECIDED

    return Op(f"verify {name}", lambda ctx: run_cli(argv), check)


def setup_verify(workdir, seed):
    ops = [verify_op(n, write_instance(workdir, n), nu, tau) for n, nu, tau in VERIFY_LADDER]
    ops += [
        verify_op(n + "~relabelled", write_relabelled(workdir, n, VERIFY_RELABEL_SEED), nu, tau)
        for n, nu, tau in VERIFY_RELABELLED
    ]
    return ops


# ---- decompose ----


def decompose_op(name, path, want, cap=None):
    argv = ["decompose", "--in", path] + ([] if cap is None else ["--cap", str(cap)])

    def check(result):
        code, value = _printed_json(result)
        outcome = value["outcome"]
        expect(code == {"none": 0, "some": 2, "inconclusive": 3}.get(outcome),
               f"outcome {outcome!r} with exit {code}")
        if outcome == "inconclusive":
            return INCONCLUSIVE
        if outcome == "some":
            r, edges = checks.load_edges(path)
            checks.check_kernel_pair(r, edges, *value["pair"])
        expect(want in (None, outcome), f"outcome {outcome}, expected {want}")
        return DECIDED

    return Op(f"decompose {name}", lambda ctx: run_cli(argv), check)


def setup_decompose(workdir, seed):
    ops = [decompose_op(n, write_instance(workdir, n), want, cap) for n, want, cap in DECOMPOSE_LADDER]
    ops += [
        decompose_op(n + "~relabelled", write_relabelled(workdir, n, seed), want)
        for n, want in DECOMPOSE_RELABELLED
    ]
    rng = random.Random(f"{seed}:random")
    for i in range(RANDOM_DECOMPOSE):
        d = checks.random_instance(rng, **RANDOM_SHAPE)
        path = os.path.join(workdir, f"random_{i}.json")
        _write_dict(path, d)
        want = "some" if checks.brute_disjoint_pair(d["r"], d["edges"]) else "none"
        ops.append(decompose_op(f"random-{i} (m={len(d['edges'])})", path, want))
    return ops


# ---- oracle ----


def oracle_op(kind, q, minimum, count):
    def check(result):
        code, value = _printed_json(result)
        expect(code == 0, f"exit {code}")
        expect((value["minimum"], value["count"]) == (minimum, count),
               f"minimum {value['minimum']} count {value['count']}, expected {minimum}/{count}")
        blockers = [tuple(b) for b in value["blockers"]]
        expect(len(set(blockers)) == count, "blockers repeat or are missing")
        expect(all(len(b) == minimum for b in blockers), "a blocker has the wrong size")
        return DECIDED

    argv = ["oracle", kind, "--q", str(q)]
    return Op(f"oracle {kind} q={q}", lambda ctx: run_cli(argv), check)


def setup_oracle(workdir, seed):
    return [oracle_op(*spec) for spec in ORACLES]


# ---- build-large ----


def _plane_op(q):
    def check(plane):
        n = q * q + q + 1
        expect(len(plane.points) == n and len(plane.lines) == n, f"PG(2,{q}) has the wrong size")
        return DECIDED

    return Op(f"plane_build({q})", lambda ctx: geometry.plane_build(q), check)


def _build_op(path, name, family, q, r, m):
    argv = ["build", "--family", family, "--q", str(q), "--nu", "2", "--out", path]

    def check(result):
        code, _, err = result
        if code != 0:
            raise Failed(f"exit {code}: {err.strip()[:200]}")
        got_r, edges = checks.load_edges(path)
        expect((got_r, len(edges)) == (r, m), f"r={got_r} m={len(edges)}, expected r={r} m={m}")
        return DECIDED

    return Op(f"build {name}", lambda ctx: run_cli(argv), check)


def _load_op(path, name):
    def call(ctx):
        h, meta = files.load_hypergraph(path)
        ctx[name] = h
        report = hypergraph.validate_partite(h)
        recipe_fails = []
        if meta.get("recipe") is not None:
            recipe = constructions.ConstructionRecipe(meta["family"], meta["q"], meta["nu"], meta["recipe"])
            recipe_fails = constructions.validate_recipe(recipe)
        return report, recipe_fails

    def check(result):
        report, recipe_fails = result
        expect(report.ok, f"validate_partite: {report.violations[:3]}")
        expect(not recipe_fails, f"validate_recipe: {recipe_fails}")
        return DECIDED

    return Op(f"check {name}", call, check)


def _solve_op(kind, name, want):
    """nu or tau of a hypergraph loaded earlier in the pass, witness checked."""
    solve, check_witness = {
        "nu": (lambda h: hypergraph.matching_number(h), checks.check_matching),
        "tau": (lambda h: hypergraph.cover_number(h), checks.check_cover),
    }[kind]

    def call(ctx):
        h = ctx[name]
        return h.edges, solve(h)

    def check(result):
        edges, cert = result
        got = cert.value[kind]
        expect(got == want, f"{kind}={got}, expected {want}")
        check_witness(edges, list(cert.witness), want)
        return DECIDED

    return Op(f"{kind} {name}", call, check)


def _h1_31_op():
    def call(ctx):
        h, _ = constructions.build_h1(31, 2)
        ctx["h1(31,2)"] = h
        return h

    def check(h):
        expect((h.r, len(h.edges)) == (32, H1_31_EDGES), f"r={h.r} m={len(h.edges)}")
        return DECIDED

    return Op("build_h1(31,2)", call, check)


def _embed_op(small, big):
    argv = ["embed", "--small", small, "--big", big]

    def check(result):
        code, value = _printed_json(result)
        expect(code == 0, f"exit {code}")
        side = {}
        for path in (small, big):
            with open(path, encoding="utf-8") as f:
                d = json.load(f)
            side[path] = (d["edges"], {v["id"]: v["side"] for v in d["vertices"]})
        checks.check_embedding(side[small], side[big], value["map"])
        return DECIDED

    return Op("embed g1 -> h1(3,2)", lambda ctx: run_cli(argv), check)


def setup_build_large(workdir, seed):
    g1 = write_instance(workdir, "g1")
    h132 = write_instance(workdir, "h1(3,2)")
    ops = []
    for q in BUILD_QS:
        ops.append(_plane_op(q))
        built = (
            (f"T({q})", "truncated", q * q, 1),
            (f"TC({q})", "conic", q * (q + 1) // 2, 1),
            (f"h2({q},2)", "h2", H2_EDGES[q], 2),
        )
        for name, family, m, _ in built:
            ops.append(_build_op(os.path.join(workdir, _fname(name)), name, family, q, q + 1, m))
        for name, *_ in built:
            ops.append(_load_op(os.path.join(workdir, _fname(name)), name))
        for name, _, _, nu in built:
            ops.append(_solve_op("nu", name, nu))
        ops.append(_solve_op("tau", f"T({q})", q))
    ops += [_h1_31_op(), _solve_op("nu", "h1(31,2)", 2), _embed_op(g1, h132)]
    return ops


SETUPS = {
    "build-large": setup_build_large,
    "verify": setup_verify,
    "decompose": setup_decompose,
    "oracle": setup_oracle,
}


# ---- running ops ----


def run_pass(ops, tracer=None, scaled=False):
    """One closed-loop pass: each op starts after the previous verdict.

    Returns (name, seconds, status, message, slowness) per op; status is
    decided, inconclusive, failed (no verdict) or wrong (a wrong
    verdict/witness).  With `scaled`, a `speed.Sampler` reads the host's
    slowness just before, during and just after each op; the op's seconds
    leave out the samples taken during it, and its slowness is their mean
    (see speed.py).  Otherwise slowness is 1.0.
    """
    PLANE_CACHE.cache_clear()  # every pass starts cold
    ctx = {}
    rows = []
    sampler = speed.Sampler() if scaled else None
    with sampler or nullcontext():
        for i, op in enumerate(ops):
            # each op starts on a collected heap, as a fresh `ryserplanes`
            # process would: a Hypergraph and its solver form a reference
            # cycle, so an earlier op's memos otherwise linger until some
            # later op pays for collecting them
            gc.collect()
            if sampler is not None:
                sampler.sample()
                first, spent = len(sampler.samples) - 1, sampler.spent
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                result = op.call(ctx)
                err = None
            except Exception as exc:  # a crash is a failed op, never a stop
                err = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            slowness = 1.0
            if sampler is not None:
                dt -= sampler.spent - spent
                sampler.sample()
                slowness = sampler.mean_since(first)
            if err is not None:
                rows.append((op.name, dt, "failed", f"{type(err).__name__}: {err}"[:200], slowness))
                continue
            try:
                rows.append((op.name, dt, op.check(result), "", slowness))
            except WrongAnswer as exc:
                rows.append((op.name, dt, "wrong", str(exc), slowness))
            except Exception as exc:  # output the checker cannot read: no verdict
                rows.append((op.name, dt, "failed", f"{type(exc).__name__}: {exc}"[:200], slowness))
    return rows


def probes(workdir):
    """Small direct calls that time a layer a workload never reaches.

    Maps the metrics a probe measures to (prepare, run): prepare makes the
    input untraced, run makes the one public call, through the module
    attribute so that a tracer sees it.
    """
    path = os.path.join(workdir, "probe_h1_5_2.json")

    def saved():
        h, meta = instance("h1(5,2)")
        files.save_hypergraph(path, h, meta)
        return h, meta

    return {
        ("gf.table_s",): (lambda: 8, lambda q: gf.FieldSpec(q)),
        ("geometry.plane_s",): (PLANE_CACHE.cache_clear, lambda _: geometry.plane_build(7)),
        ("constructions.build_s",): (lambda: None, lambda _: constructions.build_h1(5, 2)),
        ("constructions.recipe_check_s",): (
            lambda: instance("h1(5,2)")[1],
            lambda meta: constructions.validate_recipe(
                constructions.ConstructionRecipe("h1", 5, 2, meta["recipe"])),
        ),
        ("constructions.embed_s",): (
            lambda: (instance("g1")[0], instance("h1(3,2)")[0]),
            lambda pair: constructions.find_embedding(*pair),
        ),
        ("files.save_s",): (saved, lambda hm: files.save_hypergraph(path, *hm)),
        ("files.load_s",): (saved, lambda _: files.load_hypergraph(path)),
        ("files.digest_s",): (saved, lambda _: files.file_digest(path)),
        ("hypergraph.validate_s",): (lambda: instance("h1(5,2)")[0], lambda h: hypergraph.validate_partite(h)),
        ("hypergraph.matching_s",): (lambda: instance("h1(5,2)")[0], lambda h: hypergraph.matching_number(h)),
        ("hypergraph.cover_s",): (lambda: instance("h1(5,2)")[0], lambda h: hypergraph.cover_number(h)),
        ("decompose.enumerate_s", "decompose.pair_scan_s"): (
            lambda: instance("h2(4,2)")[0],
            lambda h: decompose.find_disjoint_ryser_pair(h),
        ),
        # q = 5, the oracle workload's costliest searches
        ("oracles.blocking_s",): (lambda: 5, lambda q: oracles.min_blocking_sets(q)),
        ("oracles.conic_blockers_s",): (lambda: 5, lambda q: oracles.classify_conic_blockers(q)),
        ("oracles.nontrivial_s",): (lambda: 5, lambda q: oracles.min_nontrivial_blocking(q)),
    }


def relabel_slowdown(seed):
    """Cover time on verify's relabelled copies over the canonical ones."""
    canon = relabelled = 0.0
    for name, _, _ in VERIFY_RELABELLED:
        h, meta = instance(name)
        d = checks.relabel(files.hypergraph_to_dict(h, meta), relabel_rng(seed, name))
        copy, _ = files.hypergraph_from_dict(d)
        canon += _timed(hypergraph.cover_number, h)
        relabelled += _timed(hypergraph.cover_number, copy)
    return relabelled / canon


def _timed(fn, *args):
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def field_op_ns(q=32, reps=9):
    """ns per FieldSpec.add / mul call, over all pairs of GF(q)."""
    f = gf.FieldSpec(q)
    add, mul = f.add, f.mul
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for a in range(q):
            for b in range(q):
                add(a, b)
                mul(a, b)
        times.append(perf_counter() - t0)
    return sorted(times)[reps // 2] / (2 * q * q) * 1e9

