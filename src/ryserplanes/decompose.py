"""Search for two vertex-disjoint intersecting subfamilies with large cover.

A kernel is a minimal witness: a pairwise-intersecting edge family whose
restricted cover number reaches r - 1, every proper subfamily falling short.
If two vertex-disjoint intersecting subhypergraphs with tau >= r - 1 exist
at all, then shrinking each one edge at a time (pairwise intersection and
the tau threshold survive shrinking to a minimal subfamily, and supports
only shrink) yields two support-disjoint kernels.

Both searches walk the cliques of the edge-intersection graph in ascending
edge-id order, and a clique's support only grows along the walk.  The pair
search is partner-first: it keeps a clique only while the edges avoiding
its support still hold a kernel, so the first clique to reach r - 1 is one
half of a pair, and a completed walk certifies a negative answer.

Three rules keep that walk small, each dropping only cliques that no pair
needs: a root's partner avoids the edges below it (the root floor), a
candidate whose clique would have no partner is dropped before it is
visited (the look-ahead), and a partner's existence is shown from a greedy
witness before any kernel walk searches for one.  Each rule's argument is
given where it lives, in `_reaching_cliques` and `find_disjoint_ryser_pair`.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import SearchTooLarge, UnknownEdge
from .hypergraph import Certificate, Hypergraph, _bits, _mask

DEFAULT_CAP = 10 ** 7


@dataclass(frozen=True)
class RyserKernel:
    edge_ids: tuple  # ascending edge indices, pairwise intersecting
    support: frozenset  # union of the edges' vertex ids
    tau: int  # exact cover number of the subfamily


@dataclass(frozen=True)
class WitnessPair:
    first: RyserKernel
    second: RyserKernel


@dataclass(frozen=True)
class KernelEnumeration:
    kernels: tuple  # the kernels found, in the walk's order
    status: str  # exhausted (the cap was not hit, even with `first`) | cap_hit
    visited: int


@dataclass(frozen=True)
class PairSearchResult:
    outcome: str  # some | none | inconclusive
    pair: Optional[WitnessPair]
    visited: int  # walk and partner-search nodes together
    certificate: Certificate


class _CapHit(Exception):
    pass


class _Budget:
    """Search nodes spent against a cap; spending past it raises `_CapHit`."""

    def __init__(self, cap):
        self.cap = cap
        self.spent = 0

    def spend(self, n):
        self.spent += n
        if self.spent > self.cap:
            raise _CapHit


def _reaching_cliques(s, r, allowed, budget, keep=None):
    """Cliques within `allowed` whose cover number reaches r - 1, each
    yielded with the edges it touches.

    Cliques are visited in ascending edge-id order, one budget node each,
    and one that reaches the threshold is yielded and not extended.  A
    clique is dropped with everything above it when `keep` rejects it, or
    when it and all of its candidates still have a cover of r - 2 vertices,
    so that no extension can reach r - 1.  That second cut never drops a
    prefix of a clique that reaches the threshold, so every minimal kernel
    is yielded unless `keep` drops one of its prefixes.

    `keep`, given by the pair search only, is asked about the edges a
    clique touches: those meeting its support, and those below its root
    (the root floor, see `find_disjoint_ryser_pair`).  It must reject every
    superset of a set it rejects.  At a kept node the walk also looks
    ahead: each candidate f is dropped if `keep` rejects the touched edges
    with f's conflicts added.  Any clique holding f touches at least those
    edges, so `keep` would reject it and all of its extensions.  A dropped
    f is in no clique the walk would keep, so the walk yields the same
    cliques in the same order, and the cover cut fires on the smaller
    candidate set.

    Each level hands its children two facts that would otherwise be
    rebuilt at every node.  `touched`, the union of `conflict` over the
    clique with the root's floor, is given to `keep` in place of the
    clique and yielded with it.  `covered` and `size` are a cover witness:
    some set C of at most `size` <= r - 2 vertices meets every edge of
    `covered`, and `covered` holds the clique.  A child whose new edge is
    in `covered`, or that can take one vertex of that edge into C, has a
    cover of r - 2 vertices with no search.  Only otherwise does the walk
    ask `greedy_cover_le`, whose cover is then carried, and last `tau_le`,
    whose yes carries the clique itself at size r - 2.  A witness is a
    cover, so it only skips a `tau_le(clique, r - 2)` whose answer is yes:
    every cut and every yield still rests on `tau_le`, and the walk, its
    budget and its `keep` questions are those of a walk that asks `tau_le`
    every time.
    """
    threshold = r - 2  # tau_le(mask, r - 2) false  <=>  tau >= r - 1
    conflict, vert_edges, edge_verts = s.conflict, s.vert_edges, s.edge_verts

    def dfs(mask, cand, covered, size, touched):
        for e in _bits(cand):
            sub = mask | (1 << e)
            budget.spend(1)
            rest = cand & conflict[e] & ~((1 << (e + 1)) - 1)
            union = (touched or (1 << e) - 1) | conflict[e]  # a root: its floor
            if keep is not None:
                if not keep(union):
                    continue
                rest = _mask(f for f in _bits(rest) if keep(union | conflict[f]))
            if not s.tau_le(sub | rest, threshold):
                if not rest:
                    yield sub, union
                elif covered >> e & 1:
                    yield from dfs(sub, rest, covered, size, union)
                elif size < threshold:
                    # grow C by the vertex of e that meets the most candidates
                    p = max(edge_verts[e], key=lambda p: (vert_edges[p] & rest).bit_count())
                    yield from dfs(sub, rest, covered | vert_edges[p], size + 1, union)
                else:
                    met = s.greedy_cover_le(sub, threshold)
                    if met or s.tau_le(sub, threshold):
                        yield from dfs(sub, rest, met or sub, threshold, union)
                    else:
                        yield sub, union

    if not s.tau_le(allowed, threshold):
        yield from dfs(0, allowed, 0, 0, 0)


def _shrink(s, mask, threshold):
    """Drop the edges of `mask` in ascending order while its cover number
    stays above `threshold`: a mask with tau > threshold becomes minimal."""
    for f in _bits(mask):
        if not s.tau_le(mask & ~(1 << f), threshold):
            mask &= ~(1 << f)
    return mask


def _check_arity(h):
    # below r = 2 every family, the empty one too, has tau >= r - 1
    if h.r < 2:
        raise ValueError(f"a kernel needs r >= 2, got r = {h.r}")


def _kernel(s, r, mask) -> RyserKernel:
    support = frozenset(s.vids[p] for e in _bits(mask) for p in s.edge_verts[e])
    # minimal: any mask - {e} has tau <= r - 2, so tau(mask) = r - 1
    return RyserKernel(tuple(_bits(mask)), support, r - 1)


def enumerate_kernels(h: Hypergraph, cap: int = DEFAULT_CAP, within: Optional[int] = None,
                      first: bool = False) -> KernelEnumeration:
    """The minimal kernels among the edges of the mask `within` (default: all).

    A clique reaching the tau threshold is a kernel iff minimal, and its
    supersets are never visited: they contain a qualifying proper
    subfamily, so they cannot be minimal.  Prefixes of a minimal kernel
    never reach the threshold (tau only grows with edges), so every kernel
    is found, in the walk's order.  With `first`, the walk ends at the first
    kernel.  A `within` with a bit past the last edge raises `UnknownEdge`,
    and r < 2 raises `ValueError`.
    """
    _check_arity(h)
    s = h.solver()
    within = s.all_edges if within is None else within
    if within & ~s.all_edges:
        raise UnknownEdge(f"edge mask {within} not within hypergraph with {len(h.edges)} edges")
    threshold = h.r - 2
    budget = _Budget(cap)
    kernels = []
    status = "exhausted"
    try:
        for sub, _ in _reaching_cliques(s, h.r, within, budget):
            # dropping the last edge leaves a clique the walk extended
            last = 1 << (sub.bit_length() - 1)
            if all(s.tau_le(sub & ~(1 << f), threshold) for f in _bits(sub ^ last)):
                kernels.append(_kernel(s, h.r, sub))
                if first:
                    break
    except _CapHit:
        status = "cap_hit"
    return KernelEnumeration(tuple(kernels), status, budget.spent)


def find_disjoint_ryser_pair(h: Hypergraph, cap: int = DEFAULT_CAP) -> PairSearchResult:
    """Two support-disjoint kernels, or proof that there are none.

    The walk keeps a clique only while a partner exists: a kernel among
    the edges that avoid its support.  Its extensions have larger supports,
    so a clique without one is dropped with all of them.  The first clique
    to reach r - 1 is shrunk to a kernel, one edge dropped at a time while
    the cover number stays r - 1, and paired with the kernel that its own
    partner lookup found.  `cap` bounds the walk's nodes and the kernel
    walks' nodes together.  Raises `ValueError` for r < 2.

    The root floor.  Roots are walked in ascending order and the walk ends
    at its first yield, so no root below the current root e has yielded.
    If a pair held an edge below e, the root f of the lowest edge in either
    half would have: each prefix of the half holding f has the other half,
    whose edges all lie above f, as a partner (by induction on the roots,
    the floor at f leaves out only edges below f).  So the edges below e
    count as touched, and the partner lookups leave them out.

    Witness-first lookups.  A lookup is memoised per edge mask `avoid`
    and keeps the kernel it found, or None.  There is none if `avoid` has
    a cover of r - 2 vertices, as an empty `avoid` has.  Otherwise one
    clique is grown greedily, each step taking the candidate with the most
    conflicts among those left (the lowest id on a tie).  If it reaches
    r - 1 it is shrunk to a kernel K, and `enumerate_kernels` confirms K
    in |K| nodes; if not, `enumerate_kernels` searches `avoid` itself.
    Every answer thus rests on `tau_le` and on a kernel walk, and every
    lookup is counted in `visited`.
    """
    _check_arity(h)
    s = h.solver()
    threshold = h.r - 2
    conflict = s.conflict
    budget = _Budget(cap)
    partners = {}

    def kernel_in(avoid):
        if s.tau_le(avoid, threshold):
            return None
        clique, cand = 0, avoid
        while cand:
            f = max(_bits(cand), key=lambda f: (conflict[f] & cand).bit_count())
            clique |= 1 << f
            cand &= conflict[f] & ~(1 << f)
        if not s.tau_le(clique, threshold):
            avoid = _shrink(s, clique, threshold)  # a kernel: the walk confirms it
        enum = enumerate_kernels(h, budget.cap - budget.spent, within=avoid, first=True)
        budget.spend(enum.visited)
        return enum.kernels[0] if enum.kernels else None

    def has_partner(touched):
        # touched: the edges meeting a clique's support and, from the root
        # floor, those below its root (see `_reaching_cliques`)
        avoid = s.all_edges & ~touched
        if avoid not in partners:
            partners[avoid] = kernel_in(avoid)
        return partners[avoid] is not None

    outcome = "none"
    try:
        sub, touched = next(_reaching_cliques(s, h.r, s.all_edges, budget, has_partner), (None, 0))
    except _CapHit:
        outcome, sub = "inconclusive", None
    if sub is None:
        cert = Certificate(
            kind="no_disjoint_pair",
            value={"r": h.r, "visited": budget.spent},
            witness=None,
            exhaustive=outcome == "none",
        )
        return PairSearchResult(outcome, None, budget.spent, cert)
    # the walk kept `sub` only once the lookup for its touched edges found a kernel
    pair = WitnessPair(_kernel(s, h.r, _shrink(s, sub, threshold)), partners[s.all_edges & ~touched])
    cert = Certificate(
        kind="disjoint_pair",
        value={"r": h.r, "tau_first": pair.first.tau, "tau_second": pair.second.tau},
        witness=(pair.first.edge_ids, pair.second.edge_ids),
        exhaustive=True,  # the pair itself is the certificate
    )
    return PairSearchResult("some", pair, budget.spent, cert)


def brute_force_disjoint_pair(h: Hypergraph) -> bool:
    """Reference answer over all pairs of edge subsets, checked on plain
    vertex sets and not by the solvers; tiny inputs only.  Raises
    `ValueError` for r < 2."""
    _check_arity(h)
    m = len(h.edges)
    if m > 10:
        raise SearchTooLarge(f"{m} edges is past the brute-force budget")
    edges = [set(e) for e in h.edges]
    supports = []
    for size in range(1, m + 1):
        for family in combinations(edges, size):
            if not all(a & b for a, b in combinations(family, 2)):
                continue
            support = set().union(*family)
            # tau >= r - 1: no r - 2 vertices of the support meet every edge
            k = min(h.r - 2, len(support))
            if not any(all(e & set(c) for e in family)
                       for c in combinations(sorted(support), k)):
                supports.append(support)
    return any(not a & b for a, b in combinations(supports, 2))
