"""Structural factorization of regular multigraphs.

2-factorization of even-regular multigraphs by the Euler split of
`matching`; and, for odd r >= 5, the one spanning [k-1, k]-factor with
regular components that the odd-degree construction takes, at
k = floor(2r/3), from one loop of exact-factor queries, one per vertex
split (none, all, then for n <= 18 the mixed splits by size), returned as
its (k-1)-regular and its k-regular part.  Edge sets are frozensets of
edge ids.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from .errors import FactorSearchError, NotRegularError
from .graphs import MultiGraph, _factor_degrees, _incidence, regular_degree
from .matching import _value_split, find_exact_factor

_PARTITION_VERTEX_LIMIT = 18
_PARTITION_FACTOR_BUDGET = 4000


def two_factorization(g: MultiGraph) -> list[frozenset[int]]:
    """Partition a 2k-regular multigraph into k spanning 2-regular factors.

    `_value_split` with the distinct values 0..r/2-1, which splits an out/in
    cover only for odd Euler circuits (none when 4 | r), grouped by value,
    checked for 2-regularity, then sorted by their smallest id.
    """
    r = regular_degree(g)
    if r is None:
        raise NotRegularError("two_factorization needs a regular graph")
    if r == 0 or r % 2:
        raise NotRegularError(f"need an even-regular graph with r >= 2, got r={r}")
    factors: list[list[int]] = [[] for _ in range(r // 2)]
    for e, i in enumerate(_value_split(g.n, g.us, g.vs, range(g.m), r, range(r // 2), [0] * g.m)):
        factors[i].append(e)
    if any(d != 2 for f in factors for d in _factor_degrees(g, f)):
        raise RuntimeError("internal: two-factorization produced a non-2-regular factor")
    return sorted(map(frozenset, factors), key=min)


# ---------------------------------------------------------------------------
# regular-component [k-1, k]-factors


def _splits(g: MultiGraph, k: int, lower_too: bool) -> Iterator[list[int]]:
    """Each split's query target, k - 1 on A and k off it, in `regular_component_factor`'s order.

    A mixed A must leave both sides even degree sums and each vertex its
    target's worth of edges on its own side.
    """
    n = g.n
    yield [k] * n
    if lower_too:
        yield [k - 1] * n
    if n > _PARTITION_VERTEX_LIMIT:
        return
    us, vs = g.us, g.vs
    nbrs = [[us[e] ^ vs[e] ^ v for e in ids] for v, ids in enumerate(_incidence(g))]  # other ends
    for size in range(1, n):
        if (size * (k - 1)) % 2 or ((n - size) * k) % 2:
            continue
        for a_set in combinations(range(n), size):
            target = [k - 1 if v in a_set else k for v in range(n)]
            if all(sum(1 for w in nbrs[v] if target[w] == t) >= t for v, t in enumerate(target)):
                yield target


def regular_component_factor(g: MultiGraph) -> tuple[frozenset[int], frozenset[int]]:
    """Spanning [k-1, k]-factor with regular components, k = floor(2r/3).

    Requires an r-regular graph with r odd, r >= 5.  This is the factor the
    odd-degree construction takes (r = 7 gives the [3, 4]-factor), and it
    always exists (Kano 1986).  Returns ``(lower, upper)``: the edge ids of
    its (k-1)-regular part and of its k-regular part; either may be empty,
    and no vertex meets both.  One loop asks each split (A, V - A) of
    `_splits` one exact query, k - 1 on A and k off it, on g without the
    edges across; with no edge across, that query's own degree check leaves
    every component regular, and is the only check.  In order:

    - A = {}, an exact k-factor, then A = V, an exact (k-1)-factor, both
      asked of g itself.  A = V is skipped when k - 1 = r - k (r = 5 and
      r = 7): a (k-1)-factor is then the complement of a k-factor, which
      was just ruled out.
    - for n <= 18, the mixed splits by ascending |A|: complete within the
      query budget, since no edge of the factor crosses its split.

    Anything else raises FactorSearchError ("not found"), which marks a
    search limitation, never nonexistence.
    """
    r = regular_degree(g)
    if r is None:
        raise NotRegularError("regular_component_factor needs a regular graph")
    if r < 5 or r % 2 == 0:
        raise ValueError(f"need odd regular degree r >= 5, got r={r}")
    k = 2 * r // 3
    us, vs = g.us, g.vs
    for queries, target in enumerate(_splits(g, k, k - 1 != r - k), 1):
        ids = [e for e, (u, v) in enumerate(zip(us, vs)) if target[u] == target[v]]
        host = g if len(ids) == g.m else MultiGraph._of_columns(g.n, [us[e] for e in ids], [vs[e] for e in ids])
        found = find_exact_factor(host, target)
        if found is not None:
            lower = frozenset(ids[e] for e in found if target[host.us[e]] < k)
            return lower, frozenset(ids[e] for e in found) - lower
        if queries >= _PARTITION_FACTOR_BUDGET:
            raise FactorSearchError(
                f"regular-component factor not found within {_PARTITION_FACTOR_BUDGET} matching calls"
            )
    if g.n <= _PARTITION_VERTEX_LIMIT:
        raise FactorSearchError(
            "partition search exhausted: no regular-component factor found "
            "(contradicts the guaranteed existence; please report)"
        )
    raise FactorSearchError(
        f"regular-component factor needs mixed components and n={g.n} exceeds "
        f"the exact-search limit {_PARTITION_VERTEX_LIMIT}"
    )


# Bound only for the benchmark's tracer, like the three at the end of `matching`.
def euler_orientation(*args, **kwargs):
    raise NotImplementedError("euler_orientation is deleted and has no replacement")
