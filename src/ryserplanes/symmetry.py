"""Automorphisms of a hypergraph given by its incidences, and their orbits.

A hypergraph is given here as `edge_verts`, each edge a tuple of vertex
positions 0..n-1, and a map as a tuple g with g[p] the image of position p.
The maps are found by individualisation-refinement and each is checked to
send every edge onto an edge, so every listed map is an automorphism; the
list need not be a whole group.  Their one user is the cover climb, which
branches by vertex orbits (`_fixing`, `hypergraph._ExactSolver.tau_le`).
"""

# `_automorphisms` stops closing its maps under composition at this many
_MAX_AUTOMORPHISMS = 512


def _fixing(autos, p):
    """The listed maps that fix position p, or None if only the identity does."""
    stab = [a for a in autos if a[p] == p]
    return stab if len(stab) > 1 else None


def _ranks(sigs) -> list:
    """Each signature's rank among the distinct ones: names free of numbering."""
    names = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [names[sig] for sig in sigs]


def _refine(colours, edge_verts, vert_edge_ids) -> list:
    """Split vertex colours by the colours of their edges until stable.

    An edge's colour is the sorted list of its vertices' colours and a
    vertex's new colour its old one with the sorted list of its edges'
    colours, each named by rank, so an isomorphism of coloured inputs maps
    one result onto the other.
    """
    cells = len(set(colours))
    while True:
        ecol = _ranks([tuple(sorted(map(colours.__getitem__, ev))) for ev in edge_verts])
        colours = _ranks([(c, tuple(sorted(map(ecol.__getitem__, es))))
                          for c, es in zip(colours, vert_edge_ids)])
        grown = len(set(colours))
        if grown == cells:
            return colours
        cells = grown


def _automorphisms(edge_verts, n) -> list:
    """Maps of the n vertex positions that send every edge onto an edge,
    identity first.

    Individualisation-refinement (McKay & Piperno 2014), one descent per
    candidate: refine, then individualise the first vertex of the smallest
    non-singleton cell (the lowest colour on a tie) and refine again, down
    to a discrete leaf.  For each cell on that first path, deepest first,
    each other vertex not yet in the orbit of the path's vertex starts one
    descent of its own; matching its leaf to the first leaf colour by colour
    gives a map, kept only if it sends every edge onto an edge.  The first
    map that fails ends its cell's candidates.  The kept maps are closed
    under composition up to `_MAX_AUTOMORPHISMS` maps.  A missed
    automorphism only costs pruning; each listed map is checked to be one.
    """
    vert_edge_ids = [[] for _ in range(n)]
    for ei, ev in enumerate(edge_verts):
        for p in ev:
            vert_edge_ids[p].append(ei)
    edge_set = set(map(frozenset, edge_verts))

    def individualise(colours, v):
        colours = [2 * c for c in colours]
        colours[v] += 1
        return _refine(colours, edge_verts, vert_edge_ids)

    def target(colours):
        # the smallest non-singleton cell, lowest colour on a tie; None if discrete
        cells = {}
        for p, c in enumerate(colours):
            cells.setdefault(c, []).append(p)
        multi = [(len(ps), c) for c, ps in cells.items() if len(ps) > 1]
        return cells[min(multi)[1]] if multi else None

    def descend(colours, levels):
        # individualise the first vertex of each target cell, down to a leaf
        cell = target(colours)
        while cell is not None:
            levels.append((colours, cell))
            colours = individualise(colours, cell[0])
            cell = target(colours)
        return colours

    levels = []  # (colours, cell) along the first path
    first = descend(_refine([0] * n, edge_verts, vert_edge_ids), levels)
    gens = []
    for colours, cell in reversed(levels):
        # every map kept so far came from this cell or a deeper one; a leaf
        # map keeps the colours its two descents shared, so it fixes the
        # path's vertices above this cell
        orbit = _orbit([cell[0]], gens)
        for w in cell[1:]:
            if w in orbit:
                continue
            at = {c: p for p, c in enumerate(descend(individualise(colours, w), []))}
            g = tuple(at[c] for c in first)
            if not all(frozenset(g[p] for p in ev) in edge_set for ev in edge_verts):
                break
            gens.append(g)
            orbit = _orbit([cell[0]], gens)
    identity = tuple(range(n))
    group = [identity]
    seen = {identity}
    for x in group:  # grows while it is walked: a breadth-first closure
        for g in gens:
            y = tuple(g[p] for p in x)
            if y not in seen and len(group) < _MAX_AUTOMORPHISMS:
                seen.add(y)
                group.append(y)
    return group


def _orbit(seeds, maps) -> set:
    """The points that products of the maps send the seeds to, the seeds
    included; the maps need not form a group."""
    orbit = set(seeds)
    todo = list(orbit)
    while todo:
        x = todo.pop()
        for g in maps:
            if g[x] not in orbit:
                orbit.add(g[x])
                todo.append(g[x])
    return orbit
