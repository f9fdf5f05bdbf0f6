"""Spans around the public calls of each ryserplanes module, recorded from
outside the program.

`Tracer.install()` replaces every module-level reference to a traced
function (in whichever `ryserplanes` module imported it by name) with a
timing wrapper, and `uninstall()` puts the originals back.  Spans nest:
a span's self time is its duration minus the time of the spans it
caused, so within one op the self times of all spans plus the op's own
glue (`cli.overhead_s`) add up to the op's time.
"""

import os
import sys
import tracemalloc
from time import perf_counter

# span name -> (module holding the original, per-layer metric for its self time)
TRACED = {
    "FieldSpec.__init__": ("ryserplanes.gf", "gf.table_s"),
    "plane_build": ("ryserplanes.geometry", "geometry.plane_s"),
    "truncated_plane": ("ryserplanes.constructions", "constructions.build_s"),
    "conic_truncated": ("ryserplanes.constructions", "constructions.build_s"),
    "build_h1": ("ryserplanes.constructions", "constructions.build_s"),
    "build_h2": ("ryserplanes.constructions", "constructions.build_s"),
    "build_g1": ("ryserplanes.constructions", "constructions.build_s"),
    "validate_recipe": ("ryserplanes.constructions", "constructions.recipe_check_s"),
    "find_embedding": ("ryserplanes.constructions", "constructions.embed_s"),
    "save_hypergraph": ("ryserplanes.files", "files.save_s"),
    "save_certificate": ("ryserplanes.files", "files.save_s"),
    "load_hypergraph": ("ryserplanes.files", "files.load_s"),
    "file_digest": ("ryserplanes.files", "files.digest_s"),
    "validate_partite": ("ryserplanes.hypergraph", "hypergraph.validate_s"),
    "matching_number": ("ryserplanes.hypergraph", "hypergraph.matching_s"),
    "cover_number": ("ryserplanes.hypergraph", "hypergraph.cover_s"),
    "enumerate_kernels": ("ryserplanes.decompose", "decompose.enumerate_s"),
    # self time of the pair search is what remains once enumeration is out
    "find_disjoint_ryser_pair": ("ryserplanes.decompose", "decompose.pair_scan_s"),
    "min_blocking_sets": ("ryserplanes.oracles", "oracles.blocking_s"),
    "classify_conic_blockers": ("ryserplanes.oracles", "oracles.conic_blockers_s"),
    "min_nontrivial_blocking": ("ryserplanes.oracles", "oracles.nontrivial_s"),
}

# counter -> the timing metric whose calls it is read from
COUNTER_OWNER = {
    "constructions.edges": "constructions.build_s",
    "files.bytes": "files.save_s",
    "hypergraph.matching_memo": "hypergraph.matching_s",
    "hypergraph.cover_exact_memo": "hypergraph.cover_s",
    "hypergraph.cover_lower_memo": "hypergraph.cover_s",
    "decompose.visited": "decompose.enumerate_s",
    "decompose.kernels": "decompose.enumerate_s",
    "oracles.blockers": "oracles.nontrivial_s",
}


def _memo_size(h, attr):
    """Size of a solver memo, or None once the solver no longer has it."""
    memo = getattr(h.solver(), attr, None)
    return None if memo is None else len(memo)


class Tracer:
    """Records spans while installed.  `op` names what the spans belong to:
    an op's index in the pass, or "probe"."""

    def __init__(self):
        self.spans = []  # [name, op, start, end, child_time, parent index]
        self.counts = {}  # "ops" | "probe" -> counter -> total (None: unreadable)
        self.op = None
        self._stack = []
        self._saved = []

    # ---- recording ----

    def _hook(self, name, args, result):
        phase = "probe" if self.op == "probe" else "ops"
        c = self.counts.setdefault(phase, dict.fromkeys(COUNTER_OWNER, 0))

        def add(key, n):
            c[key] = None if n is None or c[key] is None else c[key] + n

        if name in ("truncated_plane", "conic_truncated", "build_g1"):
            add("constructions.edges", len(result.edges))
        elif name in ("build_h1", "build_h2"):
            add("constructions.edges", len(result[0].edges))
        elif name in ("save_hypergraph", "save_certificate"):
            add("files.bytes", os.path.getsize(args[0]))
        elif name == "matching_number":
            add("hypergraph.matching_memo", _memo_size(args[0], "_match_memo"))
        elif name == "cover_number":
            add("hypergraph.cover_exact_memo", _memo_size(args[0], "_exact"))
            add("hypergraph.cover_lower_memo", _memo_size(args[0], "_lower"))
        elif name == "enumerate_kernels":
            add("decompose.visited", result.visited)
            add("decompose.kernels", len(result.kernels))
        elif name in ("min_blocking_sets", "classify_conic_blockers", "min_nontrivial_blocking"):
            add("oracles.blockers", result.count)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [name, tracer.op, 0.0, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                if rec[5] is not None:
                    tracer.spans[rec[5]][4] += rec[3] - rec[2]
            tracer._hook(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- installing ----

    def install(self):
        for name, (modname, _) in TRACED.items():
            if name == "FieldSpec.__init__":
                cls = sys.modules[modname].FieldSpec
                self._saved.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(name, cls.__init__)
                continue
            orig = getattr(sys.modules[modname], name)
            wrapper = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("ryserplanes"):
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # ---- reading ----

    def self_times(self):
        """{op: {layer metric: summed self time}}."""
        out = {}
        for name, op, start, end, child, _ in self.spans:
            per = out.setdefault(op, {})
            metric = TRACED[name][1]
            per[metric] = per.get(metric, 0.0) + (end - start - child)
        return out

    def top_level_times(self):
        """{op: time inside library calls made directly by the op}."""
        out = {}
        for _, op, start, end, _, parent in self.spans:
            if parent is None:
                out[op] = out.get(op, 0.0) + (end - start)
        return out


def peak_traced_mb(fn):
    """Peak Python heap of one call, by tracemalloc, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
