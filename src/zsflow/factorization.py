"""Structural factorization of regular multigraphs.

Two layers: 2-factorization of even-regular multigraphs through a balanced
orientation and its bipartite out/in split, and extraction of spanning
[k-1, k]-factors whose connected components are all regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import FactorSearchError, NotRegularError
from .graphs import (
    Factor,
    MultiGraph,
    double_cover,
    euler_orientation,
    regular_degree,
    subgraph_from_edges,
)
from .matching import _euler_split, _max_matching_ids, find_exact_factor, max_matching

_PARTITION_VERTEX_LIMIT = 18
_PARTITION_FACTOR_BUDGET = 4000


def two_factorization(g: MultiGraph) -> list[Factor]:
    """Partition a 2k-regular multigraph into k spanning 2-regular factors.

    Balanced orientation first; each vertex then splits into an out-copy v
    and an in-copy n + v, so the pairs ``(tail, n + head)`` form a k-regular
    bipartite edge list under the same edge ids.  Its perfect matchings,
    found by the shared Euler split on edge-id lists with no intermediate
    graph, pull back to spanning unions of cycles.  Factors are returned
    sorted by their smallest edge id and re-verified before returning.
    """
    r = regular_degree(g)
    if r is None:
        raise NotRegularError("two_factorization needs a regular graph")
    if r == 0 or r % 2:
        raise NotRegularError(f"need an even-regular graph with r >= 2, got r={r}")
    n = g.n
    arcs = [(tail, n + head) for tail, head in euler_orientation(g)]
    matchings = _euler_split(2 * n, arcs, [True] * n + [False] * n, r // 2)
    factors = sorted((Factor(g, pm) for pm in matchings), key=lambda f: min(f.edge_ids))
    seen: set[int] = set()
    for f in factors:
        if any(d != 2 for d in f.degrees()):
            raise RuntimeError("internal: two-factorization produced a non-2-regular factor")
        if seen & f.edge_ids:
            raise RuntimeError("internal: two-factorization factors overlap")
        seen |= f.edge_ids
    if seen != set(range(g.m)):
        raise RuntimeError("internal: two-factorization does not cover the edge set")
    return factors


# ---------------------------------------------------------------------------
# regular-component [k-1, k]-factors


@dataclass(frozen=True, eq=False)
class RegularComponent:
    """One connected component of a factor, with its uniform degree."""

    vertices: tuple[int, ...]
    edge_ids: frozenset[int]
    degree: int


@dataclass(frozen=True, eq=False)
class RegularComponentFactor:
    """Spanning [k-1, k]-factor whose components are each regular."""

    host: MultiGraph
    edge_ids: frozenset[int]
    k: int
    components: tuple[RegularComponent, ...]

    def edges_with_degree(self, d: int) -> frozenset[int]:
        """Union of the edge sets of all components of the given degree."""
        out: set[int] = set()
        for comp in self.components:
            if comp.degree == d:
                out |= comp.edge_ids
        return frozenset(out)


def _component_analysis(
    g: MultiGraph, edge_ids: frozenset[int], k: int
) -> tuple[RegularComponent, ...] | None:
    """Split a factor into components; None unless each is (k-1)- or k-regular."""
    allowed = {k - 1, k} if k >= 2 else {0, 1}
    deg = [0] * g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in edge_ids:
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
        adj[u].append((e, v))
        adj[v].append((e, u))
    if any(d not in allowed for d in deg):
        return None
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        verts = [s]
        ces: set[int] = set()
        stack = [s]
        while stack:
            v = stack.pop()
            for e, w in adj[v]:
                ces.add(e)
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
                    stack.append(w)
        if len({deg[v] for v in verts}) != 1:
            return None
        comps.append(RegularComponent(tuple(sorted(verts)), frozenset(ces), deg[s]))
    return tuple(comps)


def _edge_and_cycle_cover(g: MultiGraph) -> frozenset[int]:
    """Spanning subgraph whose components are single edges or cycles.

    A perfect matching of the bipartite double cover selects every vertex
    once as a tail and once as a head; edges picked through both of their
    copies isolate as 1-regular pairs, the rest close into disjoint cycles.
    Always exists when the graph is regular.
    """
    arcs = double_cover(g)
    pm = _max_matching_ids(2 * g.n, arcs, range(len(arcs)))
    if len(pm) != g.n:  # a regular double cover always has a perfect matching
        raise RuntimeError("internal: regular bipartite double cover has no perfect matching")
    return frozenset(b // 2 for b in pm)


def _induced(g: MultiGraph, verts: set[int]):
    inside = [e for e, (u, v) in enumerate(g.edges) if u in verts and v in verts]
    return subgraph_from_edges(g, inside, vertices=verts)


def _partition_search(g: MultiGraph, k: int, factor_budget: int) -> frozenset[int] | None:
    """Exact search over vertex splits: one side gets a (k-1)-factor, the other a k-factor.

    Any regular-component [k-1, k]-factor induces such a split (no factor
    edge crosses), so enumerating splits by ascending side size is complete.
    Budgeted by the number of gadget-matching calls.
    """
    n = g.n
    incs = [g.incident(v) for v in range(n)]
    calls = 0
    for size in range(1, n):
        if (size * (k - 1)) % 2 or ((n - size) * k) % 2:
            continue
        for a_set in combinations(range(n), size):
            inside = set(a_set)
            ok = all(sum(1 for _, w in incs[a] if w in inside) >= k - 1 for a in inside)
            if ok:
                ok = all(
                    sum(1 for _, w in incs[b] if w not in inside) >= k
                    for b in range(n)
                    if b not in inside
                )
            if not ok:
                continue
            sub_a, _, emap_a = _induced(g, inside)
            fa = find_exact_factor(sub_a, [k - 1] * sub_a.n)
            calls += 1
            if fa is not None:
                rest = set(range(n)) - inside
                sub_b, _, emap_b = _induced(g, rest)
                fb = find_exact_factor(sub_b, [k] * sub_b.n)
                calls += 1
                if fb is not None:
                    return frozenset(emap_a[e] for e in fa) | frozenset(emap_b[e] for e in fb)
            if calls >= factor_budget:
                raise FactorSearchError(
                    f"regular-component factor not found within {factor_budget} matching calls"
                )
    return None


def regular_component_factor(g: MultiGraph, k: int) -> RegularComponentFactor:
    """Spanning [k-1, k]-factor of an odd-regular graph with regular components.

    Requires r odd, r >= 3, and 1 <= k <= 2r/3; such a factor always exists
    (Kano 1986).  The stages, in order, each with the reason it succeeds:

    - k = 2: the double-cover edge-and-cycle cover, which a regular graph
      always has.
    - k = 1: a maximum matching; its matched edges and unmatched vertices
      are 1- and 0-regular components.
    - k >= 3: an exact k-factor, then an exact (k-1)-factor, from the
      gadget queries of `find_exact_factor`, which find one if it exists.
      The (k-1) query is skipped when k - 1 = r - k (r = 7 at k = 4,
      r = 5 at k = 3): a (k-1)-factor is then the complement of a
      k-factor, which was just ruled out.
    - for n <= 18, the exhaustive search over vertex splits, complete
      within its budget of gadget-matching calls.

    Anything else raises FactorSearchError ("not found"), which marks a
    search limitation, never nonexistence.
    """
    r = regular_degree(g)
    if r is None:
        raise NotRegularError("regular_component_factor needs a regular graph")
    if r < 3 or r % 2 == 0:
        raise ValueError(f"need odd regular degree r >= 3, got r={r}")
    if not (1 <= k and 3 * k <= 2 * r):
        raise ValueError(f"need 1 <= k <= 2r/3, got k={k} for r={r}")

    def finish(edge_ids: frozenset[int]) -> RegularComponentFactor:
        comps = _component_analysis(g, edge_ids, k)
        if comps is None:
            raise RuntimeError("internal: candidate factor failed its component check")
        return RegularComponentFactor(g, edge_ids, k, comps)

    if k == 2:
        return finish(_edge_and_cycle_cover(g))
    if k == 1:
        return finish(max_matching(g))
    for target in (k,) if k - 1 == r - k else (k, k - 1):
        found = find_exact_factor(g, [target] * g.n)
        if found is not None:
            return finish(found)
    if g.n <= _PARTITION_VERTEX_LIMIT:
        split = _partition_search(g, k, _PARTITION_FACTOR_BUDGET)
        if split is not None:
            return finish(split)
        raise FactorSearchError(
            "partition search exhausted: no regular-component factor found "
            "(contradicts the guaranteed existence; please report)"
        )
    raise FactorSearchError(
        f"regular-component factor needs mixed components and n={g.n} exceeds "
        f"the exact-search limit {_PARTITION_VERTEX_LIMIT}"
    )
