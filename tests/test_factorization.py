from __future__ import annotations

import random
import sys
import zlib

import pytest
from oracles import edge_degrees
from splits import split_by_value

from zsflow import factorization, matching
from zsflow.errors import FactorSearchError, NotRegularError
from zsflow.factorization import (
    regular_component_factor,
    two_factorization,
)
from zsflow.flows import constant_sum_weighting, construct, verify_flow
from zsflow.graphs import (
    MultiGraph,
    _euler_tails,
    build,
    complete,
    components,
    cubic_no_pm,
    cycle,
    petersen,
    random_regular,
    regular_degree,
)
from zsflow.matching import (
    find_exact_factor,
    has_perfect_matching,
    max_matching,
)


def orientation(g: MultiGraph) -> list[tuple[int, int]]:
    """``(tail, head)`` per edge id, as the Euler walk over all of g orients it."""
    tails, _ = _euler_tails(g.n, g.us, g.vs, range(g.m))
    return [(t, u ^ v ^ t) for t, u, v in zip(tails, g.us, g.vs)]


def check_balance(g: MultiGraph, directed):
    outd = [0] * g.n
    ind = [0] * g.n
    for tail, head in directed:
        outd[tail] += 1
        ind[head] += 1
    for v in range(g.n):
        assert outd[v] == ind[v] == g.degree(v) // 2


def check_two_factorization(g: MultiGraph, factors):
    assert sum(len(f) for f in factors) == g.m
    union = set()
    for f in factors:
        assert edge_degrees(g, f) == [2] * g.n
        assert union.isdisjoint(f)
        union |= f
    assert union == set(range(g.m))


def check_regular_component_factor(g: MultiGraph, parts, k: int):
    # walk the components of lower | upper: each must be (k-1)-regular inside
    # lower or k-regular inside upper, and together they cover every vertex
    lower, upper = parts
    assert k == 2 * regular_degree(g) // 3
    assert lower.isdisjoint(upper)
    adj = {v: set() for v in range(g.n)}
    for e in lower | upper:
        u, v = g.edges[e]
        adj[u].add(v)
        adj[v].add(u)
    low, up = edge_degrees(g, lower), edge_degrees(g, upper)
    covered = set()
    for s in range(g.n):
        if s in covered:
            continue
        comp, todo = {s}, [s]
        while todo:
            for w in adj[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        covered |= comp
        assert {(low[v], up[v]) for v in comp} in ({(k - 1, 0)}, {(0, k)})
    assert covered == set(range(g.n))


def _union(*parts: MultiGraph) -> MultiGraph:
    pairs, offset = [], 0
    for g in parts:
        pairs += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return build(offset, pairs)


def _doubled(g: MultiGraph) -> MultiGraph:
    # every edge plus a parallel copy: 2r-regular when g is r-regular
    return build(g.n, list(g.edges) * 2)


def _cover(g: MultiGraph) -> MultiGraph:
    # bipartite double cover with sides 0..n-1 and n..2n-1, arcs 2e and 2e + 1
    return build(2 * g.n, [a for u, v in g.edges for a in ((u, g.n + v), (v, g.n + u))])


def _gadget_hub(r: int, attach) -> MultiGraph:
    # odd r: a centre joined to one 3-vertex gadget (a, b, c) per entry of
    # attach, through its first attach[i] vertices; ab and ac each appear
    # (r-1)/2 times, bc (r+1)/2 times when one vertex attaches, else (r-1)/2
    # times.  r-regular when the attach counts add up to r.
    h = (r - 1) // 2
    pairs = []
    for i, t in enumerate(attach):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        pairs += [(0, v) for v in (a, b, c)[:t]]
        pairs += [(a, b)] * h + [(a, c)] * h + [(b, c)] * (h + 1 if t == 1 else h)
    return build(1 + 3 * len(attach), pairs)


def _multigraph_hub() -> MultiGraph:
    # a centre joined to five 3-vertex gadgets (edges ab and ac doubled, bc
    # tripled): 5-regular with parallel edges and no perfect matching
    return _gadget_hub(5, (1, 1, 1, 1, 1))


def _permutation_union(k: int) -> MultiGraph:
    # k random perfect matchings between 0..5 and 6..11; parallel edges for k >= 2
    s = 6
    rng = random.Random(5)
    perms = [rng.sample(range(s), s) for _ in range(k)]
    return build(2 * s, [(u, s + p[u]) for p in perms for u in range(s)])


def _matching_union(r: int, n: int, seed: int) -> MultiGraph:
    # r random perfect matchings on 0..n-1: r-regular, with a perfect matching
    # by construction, and with parallel edges wherever two of them agree
    rng = random.Random(seed)
    pairs = []
    for _ in range(r):
        order = rng.sample(range(n), n)
        pairs += zip(order[::2], order[1::2])
    return build(n, pairs)


def layer_digests(g: MultiGraph, left=None) -> dict[str, int]:
    """crc32 of what each splitting layer returns on g.

    ``left`` names one side when g itself is bipartite; otherwise the
    bipartite layer runs on g's double cover.  Every edge must run from
    that side: the split's Euler walk, and so the pinned matchings, depend
    on the orientation.  Odd-regular graphs also pin the {2,3,4} weighting
    at every admissible vertex sum, which splits g's double cover
    internally.
    """

    def crc(obj) -> int:
        return zlib.crc32(repr(obj).encode())

    out = {}
    if all(d % 2 == 0 for d in g.degrees()):
        out["euler"] = crc(orientation(g))
    r = regular_degree(g)
    if r and r % 2 == 0:
        out["two_factor"] = crc([sorted(f) for f in two_factorization(g)])
    bip, side = (_cover(g), range(g.n)) if left is None else (g, left)
    assert all(u in side for u in bip.us)
    d = regular_degree(bip)
    out["bipartite"] = crc([sorted(pm) for pm in split_by_value(bip.n, bip.us, bip.vs, d, range(d))])
    if r and r % 2:
        out["weighting"] = crc([constant_sum_weighting(g, q) for q in range(2 * r, 4 * r + 1, 2)])
    return out


# name -> (graph, bipartite side or None, {layer: crc32}).  These pin the Euler
# walk order itself: any change to the start vertex, the edge order at a
# vertex or the forward/backward split moves the factors and matchings.  The
# weighting layer pins the split of the double cover by value.
GOLDEN_DECOMPOSITION = {
    "rr40_2_s1": (
        random_regular(40, 2, 1), None,
        {"euler": 1284056311, "two_factor": 459957440,
         "bipartite": 3444646583},
    ),
    "rr30_4_s2": (
        random_regular(30, 4, 2), None,
        {"euler": 870158089, "two_factor": 750126710,
         "bipartite": 1041884552},
    ),
    "rr36_6_s3": (
        random_regular(36, 6, 3), None,
        {"euler": 3418460844, "two_factor": 4266730599,
         "bipartite": 269822906},
    ),
    "rr40_8_s4": (
        random_regular(40, 8, 4), None,
        {"euler": 2996838275, "two_factor": 4040058550,
         "bipartite": 1537714712},
    ),
    "rr44_10_s5": (
        random_regular(44, 10, 5), None,
        {"euler": 3285246249, "two_factor": 1668694363,
         "bipartite": 3997758851},
    ),
    "doubled_rr20_3_s6": (
        _doubled(random_regular(20, 3, 6)), None,
        {"euler": 2607657443, "two_factor": 57282967,
         "bipartite": 3757522754},
    ),
    "doubled_rr24_5_s7": (
        _doubled(random_regular(24, 5, 7)), None,
        {"euler": 194190807, "two_factor": 4041711187,
         "bipartite": 2017024562},
    ),
    "doubled_rr30_7_s8": (
        _doubled(random_regular(30, 7, 8)), None,
        {"euler": 2638687555, "two_factor": 2062846183,
         "bipartite": 2541452367},
    ),
    "rr20_3_s6": (
        random_regular(20, 3, 6), None,
        {"bipartite": 895449508, "weighting": 3830026828},
    ),
    "rr24_5_s7": (
        random_regular(24, 5, 7), None,
        {"bipartite": 2526817303, "weighting": 1789189939},
    ),
    "rr30_7_s8": (
        random_regular(30, 7, 8), None,
        {"bipartite": 882169255, "weighting": 2272824064},
    ),
    "rr26_11_s10": (
        random_regular(26, 11, 10), None,
        {"bipartite": 1833343696, "weighting": 415558424},
    ),
    "cubic_no_pm": (
        cubic_no_pm(), None,
        {"bipartite": 3194851497, "weighting": 1260601},
    ),
    "multigraph_hub5": (
        _multigraph_hub(), None,
        {"bipartite": 3828278554, "weighting": 2807891634},
    ),
    "odd_rr30_9_s9": (
        random_regular(30, 9, 9), None,
        {"bipartite": 259987228, "weighting": 1510182130},
    ),
    "disconnected": (
        _union(random_regular(11, 4, 1), complete(5), random_regular(12, 4, 2)), None,
        {"euler": 3755158353, "two_factor": 491343615,
         "bipartite": 1089154289},
    ),
    "perm_union_k1": (
        _permutation_union(1), range(6),
        {"bipartite": 2891997037, "weighting": 957333180},
    ),
    "perm_union_k2": (
        _permutation_union(2), range(6),
        {"euler": 3536165744, "two_factor": 3750134357,
         "bipartite": 2720001238},
    ),
    "perm_union_k3": (
        _permutation_union(3), range(6),
        {"bipartite": 3808755470, "weighting": 4176465890},
    ),
    "perm_union_k4": (
        _permutation_union(4), range(6),
        {"euler": 3287337571, "two_factor": 1219404772,
         "bipartite": 3130070331},
    ),
    "perm_union_k5": (
        _permutation_union(5), range(6),
        {"bipartite": 3078832912, "weighting": 2963308516},
    ),
    "perm_union_k6": (
        _permutation_union(6), range(6),
        {"euler": 188951660, "two_factor": 3158715281,
         "bipartite": 2822297758},
    ),
    "perm_union_k7": (
        _permutation_union(7), range(6),
        {"bipartite": 1873595320, "weighting": 2995089766},
    ),
    "perm_union_k8": (
        _permutation_union(8), range(6),
        {"euler": 3988351146, "two_factor": 2483994356,
         "bipartite": 3053943265},
    ),
}


class TestEulerOrientation:
    """The balanced orientation and the circuits of `graphs._euler_tails`."""

    def test_c4_directed_cycle(self):
        g = cycle(4)
        directed = orientation(g)
        check_balance(g, directed)
        heads = {t: h for t, h in directed}
        assert len(heads) == 4  # every vertex is a tail exactly once

    def test_parallel_pair_one_each_way(self):
        g = build(2, [(0, 1), (0, 1)])
        directed = orientation(g)
        assert sorted(directed) == [(0, 1), (1, 0)]

    def test_k5_balanced(self):
        g = complete(5)
        check_balance(g, orientation(g))

    def test_disconnected(self):
        g = build(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        check_balance(g, orientation(g))

    def test_deterministic(self):
        g = _doubled(petersen())
        assert orientation(g) == orientation(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_walk_closes_each_component_as_one_circuit(self, seed):
        # three components with interleaved ids, parallel edges, and edges
        # outside the id list that leave vertices uncovered
        rng = random.Random(seed)
        g = _union(_doubled(cycle(3)), random_regular(10, 4, seed), cycle(5), complete(5))
        label = rng.sample(range(g.n), g.n)
        pairs = [((label[u], label[v]), u < 18) for u, v in g.edges]  # K5 is left out
        rng.shuffle(pairs)
        edges = [pair for pair, _ in pairs]
        ids = [e for e, (_, inside) in enumerate(pairs) if inside]
        tails, circuits = _euler_tails(g.n, [u for u, _ in edges], [v for _, v in edges], ids)
        assert sorted(e for closed in circuits for e in closed) == ids
        assert [e for e, t in enumerate(tails) if t is not None] == ids
        starts = []
        for closed in circuits:
            heads = [edges[e][0] ^ edges[e][1] ^ tails[e] for e in closed]
            for j in range(len(closed) - 1):
                assert heads[j + 1] == tails[closed[j]]  # consecutive edges share a vertex
            assert tails[closed[-1]] == heads[0]  # the circuit closes at its start
            verts = {v for e in closed for v in edges[e]}
            assert heads[0] == min(verts)
            starts.append(min(verts))
            visited = [0] * g.n
            for e in closed:
                visited[tails[e]] += 1
            assert all(2 * visited[v] == sum(v in edges[e] for e in closed) for v in verts)
        assert starts == sorted(starts) and len(starts) == 3

    @pytest.mark.parametrize("as_list", [False, True])
    def test_tails_are_the_columns_own_ints(self, as_list):
        # the walk copies no endpoint: each tail is the int object of g.us or
        # g.vs.  One component on purpose: its first tail is the start vertex
        # 0, an int from range(n) that is the columns' own only below 257
        g = random_regular(2000, 6, 1)
        ids = list(range(g.m)) if as_list else range(g.m)
        tails, circuits = _euler_tails(g.n, g.us, g.vs, ids)
        assert len(circuits) == 1
        assert all(tails[e] is g.us[e] or tails[e] is g.vs[e] for e in ids)

    def test_tails_of_a_sub_list_are_keyed_by_edge_id(self):
        # ids = G - M, a strict subset of the edges: the tails are indexed by
        # edge id over the whole host, and None on the perfect matching M
        g = random_regular(2000, 7, 1)
        pm = max_matching(g)
        assert 2 * len(pm) == g.n
        ids = [e for e in range(g.m) if e not in pm]
        tails, circuits = _euler_tails(g.n, g.us, g.vs, ids)
        assert len(circuits) == 1 and sorted(circuits[0]) == ids
        assert all(tails[e] is g.us[e] or tails[e] is g.vs[e] for e in ids)
        assert all(tails[e] is None for e in pm)


class TestTwoFactorization:
    def test_k5(self):
        g = complete(5)
        factors = two_factorization(g)
        assert len(factors) == 2
        check_two_factorization(g, factors)

    def test_doubled_triangle(self):
        g = _doubled(cycle(3))
        factors = two_factorization(g)
        assert len(factors) == 2
        for f in factors:
            assert len(f) == 3
        check_two_factorization(g, factors)

    def test_c6_single_factor(self):
        g = cycle(6)
        factors = two_factorization(g)
        assert len(factors) == 1
        assert factors[0] == frozenset(range(6))

    def test_not_even_regular_rejected(self):
        with pytest.raises(NotRegularError):
            two_factorization(petersen())
        with pytest.raises(NotRegularError):
            two_factorization(build(3, [(0, 1), (1, 2)]))

    def test_factors_are_disjoint_cycle_covers(self):
        g = random_regular(12, 6, seed=2)
        for f in two_factorization(g):
            sub_edges = sorted(f)
            adj = {v: [] for v in range(g.n)}
            for e in sub_edges:
                u, v = g.edges[e]
                adj[u].append(v)
                adj[v].append(u)
            assert all(len(nei) == 2 for nei in adj.values())

    def test_doubled_odd_regular_sweep(self):
        for n, r, seed in [(10, 3, 0), (12, 5, 1), (20, 7, 2), (30, 11, 3)]:
            g = _doubled(random_regular(n, r, seed))
            factors = two_factorization(g)
            assert len(factors) == r
            check_two_factorization(g, factors)

    def test_even_regular_sweep(self):
        for n, r, seed in [(8, 4, 0), (15, 4, 5), (14, 6, 6), (20, 8, 7)]:
            g = random_regular(n, r, seed)
            factors = two_factorization(g)
            assert len(factors) == r // 2
            check_two_factorization(g, factors)

    def test_four_dividing_r_splits_no_cover(self, monkeypatch):
        # 4 | r: every Euler circuit of each piece is even, so halving by
        # position reaches every 2-factor and no out/in cover is split
        g = random_regular(40, 8, 4)
        real = matching._value_split
        covers = []

        def spy(n, us, *args):
            covers.append(us is not g.us)
            return real(n, us, *args)

        # the first call is two_factorization's own, any later one a cover's
        monkeypatch.setattr(factorization, "_value_split", spy)
        monkeypatch.setattr(matching, "_value_split", spy)
        check_two_factorization(g, two_factorization(g))
        assert covers == [False]

    def test_large_graphs_under_default_recursion_limit(self):
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            g = random_regular(5000, 4, seed=1)
            check_two_factorization(g, two_factorization(g))
            g = random_regular(3000, 6, seed=1)
            assert verify_flow(g, construct(g)).ok
        finally:
            sys.setrecursionlimit(before)

    @pytest.mark.parametrize("value", [0, 1], ids=["whole", "empty_factor"])
    def test_internal_checks_reject_a_broken_split(self, monkeypatch, value):
        # one value on all of K5's edges leaves the other factor empty; with
        # value 1 the empty factor comes first, and it fails the check, not
        # the sort by smallest id
        monkeypatch.setattr(factorization, "_value_split", lambda n, us, vs, ids, d, values, out: [value] * len(out))
        with pytest.raises(RuntimeError, match="non-2-regular factor"):
            two_factorization(complete(5))

    def test_deterministic(self):
        g = random_regular(14, 4, seed=9)
        a = [sorted(f) for f in two_factorization(g)]
        b = [sorted(f) for f in two_factorization(g)]
        assert a == b


    @pytest.mark.parametrize("name", sorted(GOLDEN_DECOMPOSITION))
    def test_golden_decomposition(self, name):
        g, left, expected = GOLDEN_DECOMPOSITION[name]
        assert layer_digests(g, left) == expected


class TestRegularComponentFactor:
    def test_k8(self):
        g = complete(8)
        check_regular_component_factor(g, regular_component_factor(g), 4)

    def test_k10_and_k12(self):
        for n, k in [(10, 6), (12, 7)]:
            g = complete(n)
            check_regular_component_factor(g, regular_component_factor(g), k)

    def test_random_sweep(self):
        for r, k, n, seed in [(7, 4, 16, 0), (9, 6, 20, 1), (11, 7, 18, 2)]:
            g = random_regular(n, r, seed)
            lower, upper = regular_component_factor(g)
            check_regular_component_factor(g, (lower, upper), k)
            if has_perfect_matching(g):
                # the perfect matching guarantees an exact k-factor
                assert not lower

    @pytest.mark.parametrize("r", [5, 7, 9, 11, 13])
    def test_derived_k(self, r):
        # k is floor(2r/3), the one value both odd-degree constructions use
        k = 2 * r // 3
        for g in (random_regular(2 * r + 2, r, seed=r), complete(r + 1)):
            check_regular_component_factor(g, regular_component_factor(g), k)

    @pytest.mark.parametrize("r", [5, 7, 9, 11])
    def test_perfect_matching_gives_exact_k_factors(self, r):
        # a perfect matching guarantees a k-factor (Petersen), which the
        # exact k query finds; degrees counted here
        k = 2 * r // 3
        multi = _matching_union(r, 12, seed=r)
        assert len(set(map(frozenset, multi.edges))) < multi.m  # parallel edges
        for g in (multi, random_regular(2 * r + 4, r, seed=r), complete(r + 1)):
            lower, upper = regular_component_factor(g)
            assert lower == frozenset(), r
            assert edge_degrees(g, upper) == [k] * g.n, r

    def test_perfect_matching_takes_no_matching_or_two_factorization(self, monkeypatch):
        # the module imports no matching entry point, only the exact-factor
        # gadget, so two_factorization is the one call left to rule out
        assert not hasattr(factorization, "max_matching")
        calls = []
        real = factorization.two_factorization

        def spy(g):
            calls.append("two_factorization")
            return real(g)

        monkeypatch.setattr(factorization, "two_factorization", spy)
        for r, k in [(5, 3), (7, 4), (9, 6), (11, 7)]:
            for g in (_matching_union(r, 12, seed=r), random_regular(20, r, seed=r)):
                assert has_perfect_matching(g)
                lower, upper = regular_component_factor(g)
                assert not lower and edge_degrees(g, upper) == [k] * g.n
        assert calls == []

    def test_multigraph_hub_needs_split_search(self):
        # a centre joined to five 3-vertex gadgets (edges ab and ac doubled,
        # bc tripled): no perfect matching, no 2- or 3-factor, so only the
        # split search can find the mixed [2, 3]-factor
        g = _multigraph_hub()
        assert regular_degree(g) == 5
        assert not has_perfect_matching(g)
        lower, upper = regular_component_factor(g)
        check_regular_component_factor(g, (lower, upper), 3)
        assert lower and upper

    def test_disconnected_host(self):
        g = _union(complete(8), random_regular(16, 7, seed=3))
        check_regular_component_factor(g, regular_component_factor(g), 4)

    def test_rejections(self):
        with pytest.raises(NotRegularError):
            regular_component_factor(build(3, [(0, 1), (1, 2)]))
        for g in (cycle(6), complete(5), complete(7)):  # r = 2, 4, 6
            with pytest.raises(ValueError, match="odd"):
                regular_component_factor(g)
        for g in (complete(4), petersen(), cubic_no_pm()):
            with pytest.raises(ValueError, match="r >= 5, got r=3"):
                regular_component_factor(g)

    def test_partition_search_finds_forced_mix(self):
        # the r = 5 hub (k = 3) has no 3-factor, and its 2-factors are the
        # complements of 3-factors, so only a mixed split gives its factor
        g = _multigraph_hub()
        lower, upper = regular_component_factor(g)
        assert set(edge_degrees(g, lower)) == {0, 2}
        assert set(edge_degrees(g, upper)) == {0, 3}
        assert set(edge_degrees(g, lower | upper)) == {2, 3}

    def test_exhausted_search_raises(self, monkeypatch):
        # on K8 (k = 4) a vertex of A needs 3 neighbours in A and one off A
        # needs 4 off it, so no mixed split passes the degree filter: after
        # the one failed exact query the enumeration is over
        queries = []

        def none(g, target):
            queries.append(target)

        monkeypatch.setattr(factorization, "find_exact_factor", none)
        with pytest.raises(FactorSearchError, match=r"^partition search exhausted: no regular-component factor found"):
            regular_component_factor(complete(8))
        assert queries == [[4] * 8]

    def test_budget_counts_every_query(self, monkeypatch):
        # the hub finds its factor at the second query, so every query here
        # fails; 21 splits pass the filters, and the budget stops the third
        queries = []

        def none(g, target):
            queries.append(target)

        monkeypatch.setattr(factorization, "find_exact_factor", none)
        monkeypatch.setattr(factorization, "_PARTITION_FACTOR_BUDGET", 3)
        with pytest.raises(FactorSearchError, match=r"^regular-component factor not found within 3 matching calls$"):
            regular_component_factor(_multigraph_hub())
        assert len(queries) == 3

    def test_every_query_keeps_all_vertices(self, monkeypatch):
        # each split is one query on all 16 vertices with no edge across it;
        # the unsplit query is asked of the hub itself
        hosts = []
        real = factorization.find_exact_factor

        def spy(g, target):
            hosts.append((g, target))
            return real(g, target)

        monkeypatch.setattr(factorization, "find_exact_factor", spy)
        g = _multigraph_hub()
        regular_component_factor(g)
        assert hosts[0] == (g, [3] * 16)
        assert len(hosts) > 1
        for host, target in hosts:
            assert host.n == 16
            assert all(target[u] == target[v] for u, v in host.edges)


# name -> the edge-id sets one layer returns; every layer answers in frozensets
EDGE_SETS = {
    "max_matching": lambda: [max_matching(petersen())],
    "find_exact_factor": lambda: [find_exact_factor(complete(8), [4] * 8)],
    "two_factorization": lambda: two_factorization(complete(7)),
    # the factor layer's two cases keep the names of the records that once
    # held these sets: the whole factor (K8's k-regular part) and its
    # regular parts (both non-empty on the r = 5 hub)
    "RegularComponentFactor.edge_ids": lambda: [regular_component_factor(complete(8))[1]],
    "RegularComponent.edge_ids": lambda: regular_component_factor(_multigraph_hub()),
}


@pytest.mark.parametrize("name", sorted(EDGE_SETS))
def test_edge_sets_are_frozensets(name):
    sets = EDGE_SETS[name]()
    assert sets
    for ids in sets:
        assert type(ids) is frozenset, (name, type(ids))
        assert ids and all(type(e) is int for e in ids), name
