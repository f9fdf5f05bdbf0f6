"""Search for two vertex-disjoint intersecting subfamilies with large cover.

A kernel is a minimal witness: a pairwise-intersecting edge family whose
restricted cover number reaches r - 1, every proper subfamily falling short.
If two vertex-disjoint intersecting subhypergraphs with tau >= r - 1 exist
at all, then shrinking each one edge at a time (pairwise intersection and
the tau threshold survive shrinking to a minimal subfamily, and supports
only shrink) yields two support-disjoint kernels.  So scanning all kernel
pairs for disjoint supports decides the property, and a completed
enumeration certifies a negative answer.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import SearchTooLarge
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
    kernels: tuple
    status: str  # exhausted | cap_hit
    visited: int


@dataclass(frozen=True)
class PairSearchResult:
    outcome: str  # some | none | inconclusive
    pair: Optional[WitnessPair]
    enumeration: KernelEnumeration
    certificate: Certificate


class _CapHit(Exception):
    pass


def enumerate_kernels(h: Hypergraph, cap: int = DEFAULT_CAP) -> KernelEnumeration:
    """All minimal kernels, by lexicographic clique search.

    Cliques of the edge-intersection graph are visited in ascending edge-id
    order.  A clique reaching the tau threshold is emitted iff minimal, and
    its supersets are pruned either way: they contain a qualifying proper
    subfamily, so they cannot be minimal.  Prefixes of a minimal kernel
    never reach the threshold (tau only grows with edges), so every kernel
    is visited before any pruning applies to it.
    """
    s = h.solver()
    m = len(h.edges)
    threshold = h.r - 2  # tau_le(mask, r - 2) false  <=>  tau >= r - 1
    adj = [s.conflict[e] & ~(1 << e) for e in range(m)]
    kernels = []
    visited = 0

    def dfs(mask, cand):
        nonlocal visited
        for e in _bits(cand):
            visited += 1
            if visited > cap:
                raise _CapHit
            sub = mask | (1 << e)
            # cheap dismissal first: a greedy cover within threshold already
            # rules the clique out, no exact search needed
            if not s.greedy_cover_le(sub, threshold) and not s.tau_le(sub, threshold):
                # dropping e leaves `mask`, entered only below the threshold
                minimal = all(
                    s.tau_le(sub & ~(1 << f), threshold) for f in _bits(mask)
                )
                if minimal:
                    ids = tuple(_bits(sub))
                    support = frozenset(s.vids[p] for p in _bits(s.support(sub)))
                    # minimal: any sub - {e} has tau <= r - 2, so tau(sub) = r - 1
                    kernels.append(RyserKernel(ids, support, h.r - 1))
                continue
            above = ~((1 << (e + 1)) - 1)
            dfs(sub, cand & adj[e] & above)

    status = "exhausted"
    try:
        dfs(0, (1 << m) - 1)
    except _CapHit:
        status = "cap_hit"
    return KernelEnumeration(tuple(kernels), status, visited)


def find_disjoint_ryser_pair(h: Hypergraph, cap: int = DEFAULT_CAP) -> PairSearchResult:
    enum = enumerate_kernels(h, cap)
    s = h.solver()
    masks = [s.support(_mask(k.edge_ids)) for k in enum.kernels]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j] == 0:
                pair = WitnessPair(enum.kernels[i], enum.kernels[j])
                cert = Certificate(
                    kind="disjoint_pair",
                    value={
                        "r": h.r,
                        "tau_first": pair.first.tau,
                        "tau_second": pair.second.tau,
                    },
                    witness=(pair.first.edge_ids, pair.second.edge_ids),
                    exhaustive=True,  # the pair itself is the certificate
                )
                return PairSearchResult("some", pair, enum, cert)
    outcome = "none" if enum.status == "exhausted" else "inconclusive"
    cert = Certificate(
        kind="no_disjoint_pair",
        value={"r": h.r, "kernels": len(enum.kernels), "visited": enum.visited},
        witness=None,
        exhaustive=enum.status == "exhausted",
    )
    return PairSearchResult(outcome, None, enum, cert)


def brute_force_disjoint_pair(h: Hypergraph) -> bool:
    """Reference answer over all pairs of edge subsets; tiny inputs only."""
    m = len(h.edges)
    if m > 10:
        raise SearchTooLarge(f"{m} edges is past the brute-force budget")
    s = h.solver()
    pairwise = []
    for mask in range(1, 1 << m):
        ids = list(_bits(mask))
        ok = all(
            s.edge_masks[a] & s.edge_masks[b]
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
        )
        if ok and not s.tau_le(mask, h.r - 2):
            sup = 0
            for e in ids:
                sup |= s.edge_masks[e]
            pairwise.append(sup)
    return any(
        pairwise[i] & pairwise[j] == 0
        for i in range(len(pairwise))
        for j in range(i + 1, len(pairwise))
    )
