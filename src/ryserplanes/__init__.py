"""Extremal r-partite hypergraphs from finite projective planes.

Builds the truncated-plane and glued-plane families, exactly verifies
matching number, cover number and the tau >= (r-1)*nu predicate, searches
for vertex-disjoint intersecting subfamilies with large cover number, and
runs exhaustive blocking-set oracles at small plane order.
"""

from .constructions import (
    ConstructionRecipe,
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
from .decompose import (
    DEFAULT_CAP,
    KernelEnumeration,
    PairSearchResult,
    RyserKernel,
    WitnessPair,
    brute_force_disjoint_pair,
    enumerate_kernels,
    find_disjoint_ryser_pair,
)
from .errors import (
    ArityMismatch,
    InfeasibleChoice,
    NotAnArc,
    NotOddPrime,
    NotPrimePower,
    NotSquareOrder,
    NuTooSmall,
    QTooSmall,
    SamePoint,
    SearchTooLarge,
    UnknownEdge,
)
from .files import (
    file_digest,
    load_certificate,
    load_hypergraph,
    save_certificate,
    save_hypergraph,
)
from .geometry import (
    Conic,
    PlaneLine,
    PlanePoint,
    ProjectivePlane,
    baer_closure,
    classify_line,
    conic_canonical,
    is_arc,
    line_through,
    plane_build,
)
from .gf import FieldSpec
from .hypergraph import (
    Certificate,
    Hypergraph,
    ValidationReport,
    Vertex,
    cover_is_valid,
    cover_number,
    disjoint_union,
    is_ryser,
    matching_is_valid,
    matching_number,
    restrict,
    tau_subfamily,
    tau_subfamily_at_most,
    validate_partite,
)
from .oracles import (
    BlockerReport,
    blocks_all,
    classify_conic_blockers,
    is_minimal_blocker,
    min_blocking_sets,
    min_nontrivial_blocking,
)

__version__ = "0.1.0"
