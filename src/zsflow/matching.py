"""Maximum matching and degree-constrained factor extraction.

One matching engine, the blossom (odd-cycle contraction) method, backs every
query.  One Euler splitting by value (Alon 2003) gives each perfect matching
of a regular bipartite multigraph, or each 2-factor or odd-degree factor
(3-regular, or an Euler half of odd degree) of an even-regular one, one
value of a multiset; it needs a matching only at an odd count of matchings,
and it stops at a piece whose values agree.
Exact-degree factors reduce to perfect matching in an auxiliary gadget graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import FactorSearchError
from .graphs import MultiGraph, _euler_tails, _factor_degrees, _incidence


def max_matching(g: MultiGraph) -> frozenset[int]:
    """Maximum-cardinality matching, returned as a set of edge ids.

    Parallel edges collapse to the lowest id between each vertex pair, so
    the result is deterministic on multigraphs.
    """
    return _max_matching_ids(g.n, g.us, g.vs, range(g.m))


def _max_matching_ids(n: int, us: Sequence[int], vs: Sequence[int], ids: Sequence[int]) -> frozenset[int]:
    """``max_matching`` on the edges ``ids``, edge e joining ``us[e]`` and ``vs[e]``, with no graph built."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in ids:
        u = us[e]
        v = vs[e]
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()  # a parallel edge repeats a neighbour, which changes no search step
    match = _blossom_matching(adj)
    out = []
    for e in ids:
        u = us[e]
        v = vs[e]
        if match[u] == v:  # the pair's first edge: clearing its mates skips the others
            out.append(e)
            match[u] = match[v] = -1
    return frozenset(out)


def has_perfect_matching(g: MultiGraph) -> bool:
    """True iff a matching covers every vertex (false for odd n)."""
    if g.n % 2:
        return False
    return 2 * len(max_matching(g)) == g.n


def _blossom_matching(adj: list[list[int]]) -> list[int]:
    """Maximum matching on an adjacency-list graph; returns the mate array.

    A greedy pass in index order matches what it can, then each vertex left
    exposed roots one augmenting-path search.  The search arrays are
    allocated once here and shared by every search, which hands them back
    clean, so a search costs the size of its tree rather than n.
    """
    n = len(adj)
    match = [-1] * n
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    for root in range(n):
        if match[root] == -1:
            _blossom_augment(adj, match, root, parent, base, in_tree)
    return match


def _blossom_augment(
    adj: list[list[int]],
    match: list[int],
    root: int,
    parent: list[int],
    base: list[int],
    in_tree: list[bool],
) -> bool:
    """Augment ``match`` along one path from the exposed ``root`` (Edmonds 1965).

    Grows an alternating BFS tree from ``root`` and contracts each odd cycle
    it closes into a blossom; returns False when no augmenting path exists.
    ``parent``, ``base`` and ``in_tree`` are the caller's arrays and must be
    clean on entry (no parent, every vertex its own base, nothing in the
    tree).  The search lists every vertex it touches -- the root, each odd
    vertex given a parent, each even vertex queued -- and on exit resets
    exactly those.  Each blossom base keeps the list of its members, so a
    contraction relabels only the vertices of the blossoms on the cycle.
    """
    touched = [root]
    members: dict[int, list[int]] = {}  # base -> its blossom's vertices; absent = just itself
    in_tree[root] = True
    queue = deque([root])
    try:
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # even vertex reached: contract the blossom around the lca
                    stem = _blossom_base(base, match, parent, v, to)
                    cycle: list[int] = []
                    _blossom_cycle(base, match, parent, cycle, v, stem, to)
                    _blossom_cycle(base, match, parent, cycle, to, stem, v)
                    into = members.setdefault(stem, [stem])
                    for b in cycle:
                        if base[b] == stem:  # already merged
                            continue
                        for i in members.pop(b, (b,)):
                            base[i] = stem
                            into.append(i)
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        _flip_augmenting_path(match, parent, to)
                        return True
                    in_tree[match[to]] = True
                    touched.append(match[to])
                    queue.append(match[to])
        return False
    finally:
        for v in touched:
            parent[v] = -1
            base[v] = v
            in_tree[v] = False


def _blossom_base(base, match, parent, a, b):
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if match[a] == -1:
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = parent[match[b]]


def _blossom_cycle(base, match, parent, cycle, v, stem, child):
    # walk from v up to the stem, pointing parents back across the closing
    # edge and listing the bases passed on the way
    while base[v] != stem:
        cycle.append(base[v])
        cycle.append(base[match[v]])
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _flip_augmenting_path(match, parent, to):
    while to != -1:
        v = parent[to]
        nxt = match[v]
        match[v] = to
        match[to] = v
        to = nxt


# ---------------------------------------------------------------------------
# Euler splitting by value


def _value_split(
    n: int, us: Sequence[int], vs: Sequence[int], ids: Sequence[int], d: int, values: Iterable[int], out: list[int]
) -> list[int]:
    """``out``, with one of ``values`` on each factor of the d-regular piece ``ids``.

    Edge e joins ``us[e]`` and ``vs[e]``.  ``ids`` ascend, as a list or a
    range, and every vertex of 0..n-1 meets d of them or none.  The factors
    are perfect matchings when d is the count of values, and the caller
    vouches that the piece is then bipartite; they are 2-factors when d is
    twice the count, and f-regular factors for an odd f >= 3 when d is f
    times a count that is a power of 2 (3-regular factors, or the two
    (d/2)-regular halves of an Euler halving with two placeholder values).
    A vertex meets each factor equally often, so only the multiset counts,
    and it is split by value (Alon 2003), a piece at a time.  Uniform: a
    piece whose values agree takes that value with no walk.  Peel: an odd
    count of matchings peels one with the blossom engine for the smallest
    value of odd multiplicity.  Walk: any other piece is one Hierholzer walk
    with two shares, the lower and the upper half of an even count of
    values, or -1 and +1 for an odd count that sums to 0.  Each even circuit
    gives the edges at odd positions in its closing order the first share
    and those at even positions the second (on a cover each circuit closes
    from a left vertex, so its odd positions are its forward arcs).  Every
    other circuit goes through the walk's balanced orientation: each
    2-factor is a perfect matching of its arcs' bipartite out/in cover,
    split in turn on the same edge ids into ``out``.  With an even count
    every circuit is even (bipartite, or 4 divides d) except in a 2f-regular
    piece of two f-regular factors of odd degree f, where a component of odd
    order has no f-regular factor, not even on a cover: FactorSearchError.
    """
    vals = sorted(values)
    factor = d // len(vals) if vals else 0  # the degree of each factor
    # pieces still to split, each with its sorted values; a recursive nested
    # function would be a reference cycle keeping the columns alive
    stack = [(ids, vals)] if vals else []
    while stack:
        part, vals = stack.pop()
        if vals[0] == vals[-1]:
            for e in part:
                out[e] = vals[0]
            continue
        c = len(vals)
        if c % 2 and factor == 1:
            pm = _max_matching_ids(n, us, vs, part)
            if len(pm) * c != len(part):  # unreachable: a regular bipartite graph satisfies Hall
                raise RuntimeError("internal: regular bipartite graph lost its perfect matching")
            val = next(v for v in vals if vals.count(v) % 2)
            vals.remove(val)
            stack += (([e for e in part if e not in pm], vals), (pm, [val]))
            continue
        tails, circuits = _euler_tails(n, us, vs, part)
        if c % 2 == 0:
            halves = (vals[: c // 2], vals[c // 2 :])
        elif sum(vals) == 0:  # only 2-factors: an odd count of matchings was peeled above
            halves = ([-1], [1])
        else:
            halves = ()
        at: Sequence[int] = part  # the edges that go to the cover
        if halves:  # an odd circuit has no halving
            at = sorted(e for closed in circuits if len(closed) % 2 for e in closed)
            if len(at) == len(part):  # nothing to halve
                at, halves = part, ()
        if at and factor % 2 and factor > 1:
            raise FactorSearchError(
                f"a {factor * c}-regular piece has a component of odd order and no {factor}-regular factor"
            )
        for start, share in zip((1, 0), halves):
            half = chain.from_iterable(cl[start::2] for cl in circuits if len(cl) % 2 == 0)
            if share[0] == share[-1]:
                for e in half:
                    out[e] = share[0]
            else:
                stack.append((sorted(half), share))
        del circuits  # not kept alive through the split
        if at:
            ins = list(range(n, 2 * n))  # vertex w's in-copy n + w, one int object each
            heads = [None if t is None else ins[us[e] + vs[e] - t] for e, t in enumerate(tails)]
            _value_split(2 * n, tails, heads, at, c, vals, out)
        del tails  # not kept alive through the next piece's walk
    return out


# ---------------------------------------------------------------------------
# degree-constrained factors via gadget reduction


def find_exact_factor(g: MultiGraph, target: Sequence[int]) -> frozenset[int] | None:
    """Edge set in which vertex v has degree exactly ``target[v]``, or None.

    Classical gadget reduction: each incidence becomes a stub vertex, each
    vertex additionally gets degree(v) - target[v] core vertices joined to
    all of its stubs, and each host edge joins its two stubs.  Perfect
    matchings of the gadget select exactly the wanted edge sets (an edge is
    chosen iff its stub-stub edge is matched).  Edge e = (u, v) has stubs
    2e (at u) and 2e + 1 (at v); core vertices follow from 2m on.  A
    ``target`` of any length other than n raises ValueError.
    """
    n, m = g.n, g.m
    if len(target) != n:
        raise ValueError(f"target has {len(target)} entries for {n} vertices")
    if any(not (0 <= target[v] <= g.degree(v)) for v in range(n)):
        return None
    if sum(target) % 2:
        return None
    gadget_adj: list[list[int]] = [[] for _ in range(2 * m)]
    us = g.us
    for v, ids in enumerate(_incidence(g)):
        stubs = [2 * e + (v != us[e]) for e in ids]
        for _ in range(g.degree(v) - target[v]):
            for s in stubs:
                gadget_adj[s].append(len(gadget_adj))
            gadget_adj.append(stubs)  # v's cores share one read-only list
    for e in range(m):
        gadget_adj[2 * e].append(2 * e + 1)
        gadget_adj[2 * e + 1].append(2 * e)

    match = _blossom_matching(gadget_adj)
    if any(mate == -1 for mate in match):
        return None
    chosen = frozenset(e for e in range(m) if match[2 * e] == 2 * e + 1)
    if _factor_degrees(g, chosen) != list(target):  # sanity: gadget bijection broke
        raise RuntimeError("internal: gadget matching decoded to a wrong-degree edge set")
    return chosen


# Deleted: no library path calls these, nor factorization.euler_orientation.
# The benchmark's tracer still looks each name up; ROADMAP item 5 drops them.
def degree_range_factor(*args, **kwargs):
    raise NotImplementedError("degree_range_factor is deleted: find_exact_factor answers [k, k]; [k-1, k] has none")
def bipartite_perfect_matching(*args, **kwargs):
    raise NotImplementedError("bipartite_perfect_matching is deleted: call max_matching")
def decompose_regular_bipartite(*args, **kwargs):
    raise NotImplementedError("decompose_regular_bipartite is deleted: call two_factorization for 2-factors")
