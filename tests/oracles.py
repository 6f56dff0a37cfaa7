"""Independent brute-force oracles the library code never imports.

Each oracle deliberately uses the dumbest correct method (subset
enumeration, fixed-order exhaustion) so it shares no logic with the
implementations it checks.
"""

from __future__ import annotations

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
