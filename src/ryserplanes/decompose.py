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

The pair search also kills edges.  When a root of its walk ends with no
yield, every edge below it is already dead, so no pair holds that root:
it dies, and with it its edge orbit under the automorphisms, which map
pairs onto pairs (orbital branching at the root).  Dead edges leave the
walk and the partner lookups.  The maps are looked for once, when some
root is dead and the whole shared cover memo holds one entry per vertex;
a `none` certificate lists the roots walked and the maps.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import SearchTooLarge, UnknownEdge
from .hypergraph import Certificate, Hypergraph, _bits, _mask
from .symmetry import _orbit, edge_maps

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


def _reaching_cliques(s, r, allowed, budget, keep=None, dead=None):
    """Cliques within `allowed` whose cover number reaches r - 1.

    Cliques are visited in ascending edge-id order, one budget node each,
    and one that reaches the threshold is yielded and not extended.  A
    clique is dropped with everything above it when `keep` rejects it, or
    when it and all of its candidates still have a cover of r - 2 vertices,
    so that no extension can reach r - 1.  That second cut never drops a
    prefix of a clique that reaches the threshold, so every minimal kernel
    is yielded unless `keep` drops one of its prefixes.

    Each level hands its children two facts that would otherwise be
    rebuilt at every node.  `touched`, the union of `conflict` over the
    clique, is the set of edges meeting its support; `keep` is given it in
    place of the clique.  `covered` and `size` are a cover witness: some
    set C of at most `size` <= r - 2 vertices meets every edge of
    `covered`, and `covered` holds the clique.  A child whose new edge is
    in `covered`, or that can take one vertex of that edge into C, has a
    cover of r - 2 vertices with no search.  Only otherwise does the walk
    ask `greedy_cover_le`, whose cover is then carried, and last `tau_le`,
    whose yes carries the clique itself at size r - 2.  A witness is a
    cover, so it only skips a `tau_le(clique, r - 2)` whose answer is yes:
    every cut and every yield still rests on `tau_le`, and the walk, its
    budget and its `keep` questions are those of a walk that asks `tau_le`
    every time.

    `dead`, given by the pair search only, is its `_DeadRoots`: edges that
    no disjoint pair holds, a set that may grow at any node.  A candidate
    whose clique `dead.holds` a dead edge is skipped at no node, and a
    child's candidates leave out dead edges.  A root whose walk ends with no
    yield is handed to `dead.finish`.  With no `dead` the walk is the one
    described above.
    """
    threshold = r - 2  # tau_le(mask, r - 2) false  <=>  tau >= r - 1
    conflict, vert_edges, edge_verts = s.conflict, s.vert_edges, s.edge_verts

    def dfs(mask, cand, covered, size, touched):
        for e in _bits(cand):
            sub = mask | (1 << e)
            if dead is not None and dead.holds(sub):
                continue  # no pair holds this clique
            budget.spend(1)
            rest = cand & conflict[e] & ~((1 << (e + 1)) - 1)
            if dead is not None:
                rest &= ~dead.mask
            union = touched | conflict[e]
            if (keep is None or keep(union)) and not s.tau_le(sub | rest, threshold):
                if not rest:
                    yield sub
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
                        yield sub
            if not mask and dead is not None:
                dead.finish(e)  # a root whose walk ended with no yield

    if not s.tau_le(allowed, threshold):
        yield from dfs(0, allowed, 0, 0, 0)


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
    kernel.  A `within` with a bit past the last edge raises `UnknownEdge`.
    """
    s = h.solver()
    within = s.all_edges if within is None else within
    if within & ~s.all_edges:
        raise UnknownEdge(f"edge mask {within} not within hypergraph with {len(h.edges)} edges")
    threshold = h.r - 2
    budget = _Budget(cap)
    kernels = []
    status = "exhausted"
    try:
        for sub in _reaching_cliques(s, h.r, within, budget):
            # dropping the last edge leaves a clique the walk extended
            last = 1 << (sub.bit_length() - 1)
            if all(s.tau_le(sub & ~(1 << f), threshold) for f in _bits(sub ^ last)):
                kernels.append(_kernel(s, h.r, sub))
                if first:
                    break
    except _CapHit:
        status = "cap_hit"
    return KernelEnumeration(tuple(kernels), status, budget.spent)


class _DeadRoots:
    """Edges that no disjoint Ryser pair holds, grown by the pair walk.

    `walked` lists the live roots whose walk ended with no yield, in order,
    and `perms` the edge permutations of the automorphisms (the identity
    left out) that the set is closed under: None until they are found, see
    `find_disjoint_ryser_pair`.
    """

    def __init__(self, s):
        self.s = s
        self.mask = 0
        self.walked = []
        self.perms = None

    def holds(self, clique):
        # discovery, once: some root is dead and the whole shared cover memo,
        # not one climb's share of it, holds at least one entry per vertex
        s = self.s
        if self.perms is None and self.mask and len(s._lower) >= len(s.vids):
            self.perms = edge_maps(s.edge_verts, s.automorphisms()[1:])
            self.kill(self.mask)
        return self.mask & clique

    def finish(self, e):
        if not self.mask >> e & 1:  # still live
            self.walked.append(e)
            self.kill(1 << e)

    def kill(self, new):
        self.mask |= _mask(_orbit(_bits(new), self.perms or ()))


def find_disjoint_ryser_pair(h: Hypergraph, cap: int = DEFAULT_CAP) -> PairSearchResult:
    """Two support-disjoint kernels, or proof that there are none.

    The partner of a clique is the first kernel among the live edges that
    avoid its support, found by `enumerate_kernels` and memoised per edge
    mask.  The walk drops a clique without a partner: its extensions have
    larger supports, so they have none either.  The first clique to reach
    r - 1 with a partner is shrunk to a kernel, one edge dropped at a time
    while the cover number stays r - 1, and paired with that partner.
    `cap` bounds the walk's nodes and the partner searches' nodes together.

    Dead roots.  An edge is dead once no pair can hold it, and dead edges
    are left out of the walk and of every partner lookup.  Roots are walked
    in ascending order, so when root e ends with no yield every edge below
    e is dead.  A pair avoiding the dead edges and holding e then has e as
    the lowest edge of the half that holds it, and the walk from e would
    have found that half with its partner; so no pair holds e, and e dies.
    An automorphism maps pairs onto pairs, so e's whole edge orbit dies
    with it (orbital branching at the root; Ostrowski, Linderoth, Rossi &
    Smriglio 2011).  Each map is checked edge by edge and the dead set is
    closed under the listed maps' edge permutations to a fixed point, so
    this rests on no claim that the list is a group.  A clique that comes
    to hold a dead edge, its root included, is abandoned.

    The maps are asked of the solver once, at a walk node, when some root
    is dead and the whole shared `_lower` memo holds one entry per vertex
    (the cover climb counts only what its root's first failed child added):
    a search that succeeds at its first root, or whose cover questions stay
    small, never pays.  A `none` certificate lists the roots walked and,
    once asked for, the solver's maps as vertex-id images.
    """
    s = h.solver()
    threshold = h.r - 2
    budget = _Budget(cap)
    partners = {}
    dead = _DeadRoots(s)

    def partner(touched):
        # touched: the edges meeting a clique's support (see `_reaching_cliques`)
        avoid = s.all_edges & ~touched & ~dead.mask
        if avoid not in partners:
            enum = enumerate_kernels(h, budget.cap - budget.spent, within=avoid, first=True)
            budget.spend(enum.visited)
            partners[avoid] = enum.kernels[0] if enum.kernels else None
        return partners[avoid]

    outcome = "none"
    try:
        sub = next(_reaching_cliques(s, h.r, s.all_edges, budget, partner, dead), None)
    except _CapHit:
        outcome, sub = "inconclusive", None
    if sub is None:
        maps = [[s.vids[p] for p in g] for g in (() if dead.perms is None else s._autos[1:])]
        cert = Certificate(
            kind="no_disjoint_pair",
            value={"r": h.r, "visited": budget.spent, "roots": dead.walked, "maps": maps},
            witness=None,
            exhaustive=outcome == "none",
        )
        return PairSearchResult(outcome, None, budget.spent, cert)
    touched = 0
    for e in _bits(sub):
        touched |= s.conflict[e]
    second = partner(touched)  # a memo hit: the walk kept sub
    for f in _bits(sub):
        if not s.tau_le(sub & ~(1 << f), threshold):
            sub &= ~(1 << f)
    pair = WitnessPair(_kernel(s, h.r, sub), second)
    cert = Certificate(
        kind="disjoint_pair",
        value={"r": h.r, "tau_first": pair.first.tau, "tau_second": pair.second.tau},
        witness=(pair.first.edge_ids, pair.second.edge_ids),
        exhaustive=True,  # the pair itself is the certificate
    )
    return PairSearchResult("some", pair, budget.spent, cert)


def brute_force_disjoint_pair(h: Hypergraph) -> bool:
    """Reference answer over all pairs of edge subsets, checked on plain
    vertex sets and not by the solvers; tiny inputs only."""
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
            k = max(0, min(h.r - 2, len(support)))
            if not any(all(e & set(c) for e in family)
                       for c in combinations(sorted(support), k)):
                supports.append(support)
    return any(not a & b for a, b in combinations(supports, 2))
