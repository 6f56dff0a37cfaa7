"""Independent brute-force oracles the library code never imports.

Each oracle deliberately uses the dumbest correct method (subset
enumeration, fixed-order exhaustion) so it shares no logic with the
implementations it checks.
"""

from __future__ import annotations

from fractions import Fraction

from zsflow.graphs import MultiGraph


def brute_max_matching_size(g: MultiGraph) -> int:
    """Maximum matching cardinality by include/exclude search over edges."""
    edges = list(g.edges)
    best = 0

    def walk(i: int, used: set[int], size: int):
        nonlocal best
        if size > best:
            best = size
        free = g.n - len(used)
        if i == len(edges) or size + min(len(edges) - i, free // 2) <= best:
            return
        u, v = edges[i]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            walk(i + 1, used, size + 1)
            used.discard(u)
            used.discard(v)
        walk(i + 1, used, size)

    walk(0, set(), 0)
    return best


def edge_degrees(g: MultiGraph, edge_ids) -> list[int]:
    """Degree of every vertex of g within the given edge ids, counted directly."""
    deg = [0] * g.n
    for e in edge_ids:
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def flow_exists_by_enumeration(g: MultiGraph, k: int) -> bool:
    """Exhaustive zero-sum k-flow existence check in a fixed edge order.

    Enumerates values over {±1..±(k-1)} edge by edge (the edges at a
    degree-1 vertex first, then the rest sorted by (max endpoint, min
    endpoint)), cutting a branch only on arithmetic impossibilities: a
    fully-assigned vertex must sum to zero, and a partial sum must stay
    reachable given the values the remaining edges can take.  No value fits
    an edge at a degree-1 vertex, so that test rejects it at the first step.
    """
    m = g.m
    if m == 0:
        return True
    remaining = list(g.degrees())
    pendant = {e for e, (u, v) in enumerate(g.edges) if 1 in (remaining[u], remaining[v])}
    order = sorted(range(m), key=lambda e: (e not in pendant, max(g.edges[e]), min(g.edges[e])))
    values = [v for a in range(1, k) for v in (a, -a)]
    sums = [0] * g.n

    def extend(i: int) -> bool:
        if i == m:
            return True
        e = order[i]
        u, v = g.edges[e]
        for val in values:
            ok = True
            for w in (u, v):
                s = sums[w] + val
                r = remaining[w] - 1
                if abs(s) > (k - 1) * r:
                    ok = False
                    break
            if not ok:
                continue
            sums[u] += val
            sums[v] += val
            remaining[u] -= 1
            remaining[v] -= 1
            found = extend(i + 1)
            sums[u] -= val
            sums[v] -= val
            remaining[u] += 1
            remaining[v] += 1
            if found:
                return True
        return False

    return extend(0)


def incidence_rank(n: int, pairs) -> int:
    """Rank of the unsigned n x m incidence matrix of the given edges, by Fraction row reduction."""
    rows = [[int(v in (a, b)) for a, b in pairs] for v in range(n)]
    rank = 0
    for col in range(len(pairs)):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, n):
            if rows[i][col]:
                factor = Fraction(rows[i][col], top[col])
                rows[i][col:] = [x - factor * y if y else x for x, y in zip(rows[i][col:], top[col:])]
        rank += 1
    return rank


def coloops(g: MultiGraph, edge_ids) -> list[int]:
    """The edges among ``edge_ids`` whose deletion lowers the rank of the unsigned incidence matrix."""
    pairs = list(g.edges)
    rank = incidence_rank(g.n, pairs)
    return [e for e in edge_ids if incidence_rank(g.n, pairs[:e] + pairs[e + 1 :]) < rank]


def component_counts(n: int, pairs) -> tuple[int, int]:
    """(components, bipartite components), two-colouring each component by sweeps over every edge."""
    colour: list[int | None] = [None] * n
    comps = bipartite = 0
    for s in range(n):
        if colour[s] is not None:
            continue
        comps += 1
        colour[s] = 0
        members = {s}
        grew = True
        while grew:  # sweep until no edge leaves the component
            grew = False
            for a, b in pairs:
                if (a in members) != (b in members):
                    x, y = (a, b) if a in members else (b, a)
                    colour[y] = 1 - colour[x]
                    members.add(y)
                    grew = True
        bipartite += all(colour[a] != colour[b] for a, b in pairs if a in members)
    return comps, bipartite


def is_even_bridge(g: MultiGraph, e: int) -> bool:
    """Whether deleting e splits a component into two sides that are both non-bipartite."""
    pairs = list(g.edges)
    comps, bipartite = component_counts(g.n, pairs)
    comps_without, bipartite_without = component_counts(g.n, pairs[:e] + pairs[e + 1 :])
    return comps_without == comps + 1 and bipartite_without == bipartite
