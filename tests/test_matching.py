from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from oracles import brute_max_matching_size
from splits import split_by_value
from zsflow import matching
from zsflow.flows import _split_sum
from zsflow.graphs import MultiGraph, build, complete, cubic_no_pm, cycle, petersen
from zsflow.matching import (
    _value_split,
    find_exact_factor,
    has_perfect_matching,
    max_matching,
)


def assert_is_matching(g: MultiGraph, edge_ids):
    used = set()
    for e in edge_ids:
        u, v = g.edges[e]
        assert u not in used and v not in used
        used.add(u)
        used.add(v)


class TestMaxMatching:
    def test_c4(self):
        assert len(max_matching(cycle(4))) == 2

    def test_c5(self):
        assert len(max_matching(cycle(5))) == 2

    def test_cubic_no_pm_deficiency(self):
        g = cubic_no_pm()
        m = max_matching(g)
        assert_is_matching(g, m)
        assert len(m) == 7  # 16 vertices, so one short of perfect

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(90)
        for trial in range(40):
            n = rng.randint(2, 9)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            m = rng.randint(0, min(len(pool), 12))
            g = MultiGraph(n, rng.sample(pool, m))
            got = max_matching(g)
            assert_is_matching(g, got)
            assert len(got) == brute_max_matching_size(g)

    def test_matches_brute_force_on_petersen(self):
        assert len(max_matching(petersen())) == brute_max_matching_size(petersen())

    def test_parallel_edges(self):
        g = build(2, [(0, 1), (0, 1)])
        assert len(max_matching(g)) == 1

    def test_multigraphs_keep_the_lowest_id_of_each_matched_pair(self):
        # an odd cycle, then random edges each repeated in both endpoint orders
        rng = random.Random(25)
        for _ in range(60):
            n = rng.randint(3, 9)
            odd = rng.choice([c for c in (3, 5, 7, 9) if c <= n])
            pairs = [(i, (i + 1) % odd) for i in range(odd)]
            for _ in range(rng.randint(0, 8)):
                u, v = rng.sample(range(n), 2)
                pairs += [(u, v), (v, u)][: rng.randint(1, 2)] * rng.randint(1, 2)
            rng.shuffle(pairs)
            g = MultiGraph(n, pairs)
            got = max_matching(g)
            assert_is_matching(g, got)
            assert len(got) == brute_max_matching_size(g)
            for e in got:
                assert e == min(f for f in range(g.m) if {*g.edges[f]} == {*g.edges[e]})

    def test_nested_blossom(self):
        # the triangle 0-2-4 is contracted first, then closes the 5-cycle
        # through 1, 7, 5 and 3, so all its members join the outer blossom
        g = build(8, [(0, 2), (3, 5), (5, 7), (0, 4), (1, 2), (3, 4), (1, 7), (2, 4), (3, 6)])
        got = max_matching(g)
        assert_is_matching(g, got)
        assert len(got) == 4

    def test_disjoint_blossom_components_match_brute_force(self, monkeypatch):
        # every search after the first runs on arrays an earlier search used,
        # after a failed search (odd components) or after contractions
        rng = random.Random(41)
        parts = []
        for _ in range(30):
            size = rng.randint(5, 9)
            odd = rng.choice([3, 5, 7][: (size - 1) // 2])
            pairs = {(i, (i + 1) % odd) for i in range(odd)}  # an odd cycle
            for v in range(odd, size):  # hang the rest off earlier vertices
                pairs.add((rng.randrange(v), v))
            for _ in range(rng.randint(0, 3)):
                u, v = rng.sample(range(size), 2)
                pairs.add((u, v))
            parts.append(MultiGraph(size, [(min(u, v), max(u, v)) for u, v in pairs]))
        expect = sum(brute_max_matching_size(part) for part in parts)
        n = sum(part.n for part in parts)
        label = list(range(n))
        rng.shuffle(label)
        pairs, offset = [], 0
        for part in parts:
            pairs += [(label[offset + u], label[offset + v]) for u, v in part.edges]
            offset += part.n
        rng.shuffle(pairs)
        g = MultiGraph(n, pairs)

        searches = contractions = 0
        real_augment = matching._blossom_augment
        real_base = matching._blossom_base

        def checked_augment(adj, match, root, parent, base, in_tree):
            nonlocal searches
            searches += 1
            found = real_augment(adj, match, root, parent, base, in_tree)
            # the search hands the shared arrays back clean for the next root
            assert parent == [-1] * n
            assert base == list(range(n))
            assert not any(in_tree)
            return found

        def counting_base(*args):
            nonlocal contractions
            contractions += 1
            return real_base(*args)

        monkeypatch.setattr(matching, "_blossom_augment", checked_augment)
        monkeypatch.setattr(matching, "_blossom_base", counting_base)
        got = max_matching(g)
        assert_is_matching(g, got)
        assert len(got) == expect
        assert searches > 1 and contractions > 0  # the union really exercises both


class TestHasPerfectMatching:
    def test_petersen(self):
        assert has_perfect_matching(petersen())

    def test_cubic_no_pm(self):
        assert not has_perfect_matching(cubic_no_pm())

    def test_k2(self):
        assert has_perfect_matching(build(2, [(0, 1)]))

    def test_odd_order(self):
        assert not has_perfect_matching(cycle(5))


class TestBipartitePerfectMatching:
    """Perfect matchings of bipartite multigraphs, which `max_matching` finds."""

    def test_regular_multigraph_keeps_lowest_parallel_id(self):
        # a tripled perfect matching is 3-regular and its only matching up to
        # parallels; the lowest ids of (2, 5), (0, 3), (1, 4) are 0, 1, 3
        g = build(6, [(2, 5), (0, 3), (2, 5), (1, 4), (0, 3), (1, 4), (0, 3), (2, 5), (1, 4)])
        assert max_matching(g) == {0, 1, 3}

    def test_hall_violation_has_none(self):
        # left vertices 0 and 1 both see only vertex 3
        g = build(6, [(0, 3), (1, 3), (2, 4), (2, 5)])
        assert len(max_matching(g)) == 2
        assert not has_perfect_matching(g)


class TestBipartiteDecomposition:
    """The r perfect matchings of an r-regular bipartite multigraph, by `_value_split` with r distinct values."""

    def test_c6_two_matchings(self):
        g = cycle(6)
        ms = split_by_value(g.n, g.us, g.vs, 2, range(2))
        assert len(ms) == 2
        assert set().union(*ms) == set(range(6))
        for pm in ms:
            assert len(pm) == 3
            assert_is_matching(g, pm)

    def test_k33(self):
        g = build(6, [(u, v) for u in range(3) for v in range(3, 6)])
        ms = split_by_value(g.n, g.us, g.vs, 3, range(3))
        assert len(ms) == 3
        assert sorted(len(pm) for pm in ms) == [3, 3, 3]
        assert set().union(*ms) == set(range(g.m))

    def test_parallel_bundle(self):
        k = 4
        g = build(2, [(0, 1)] * k)
        ms = split_by_value(g.n, g.us, g.vs, k, range(k))
        assert [len(pm) for pm in ms] == [1] * k
        assert set().union(*ms) == set(range(k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_random_union_of_permutations(self, k):
        # an odd count of matchings peels one with the blossom engine
        rng = random.Random(5)
        s = 6
        perms = [rng.sample(range(s), s) for _ in range(k)]
        pairs = [(u, s + p[u]) for p in perms for u in range(s)]
        g = build(2 * s, pairs)
        ms = split_by_value(g.n, g.us, g.vs, k, range(k))
        assert len(ms) == k
        covered = set()
        for pm in ms:
            assert len(pm) == s
            assert_is_matching(g, pm)
            assert covered.isdisjoint(pm)
            covered |= pm
        assert covered == set(range(g.m))


def _permutation_arcs(k: int, s: int, rng: random.Random) -> list[tuple[int, int]]:
    # k random perfect matchings from 0..s-1 to s..2s-1, in shuffled order;
    # parallel arcs wherever two permutations agree
    arcs = [(u, s + p[u]) for p in (rng.sample(range(s), s) for _ in range(k)) for u in range(s)]
    rng.shuffle(arcs)
    return arcs


def _value_multisets(k: int, rng: random.Random) -> list[list[int]]:
    # the multisets the weightings hand the split, plus equal and distinct ones
    out = [[3] * k, rng.sample(range(-20, 20), k)]
    out += [_split_sum(t, k) for t in (0, 1, *range(k, 4 * k + 1)) if k >= 2 or t]
    out += [[2] * a + [1] * (k - a) for a in range(k + 1)]
    if k % 3 == 0:
        out.append([1] * (2 * k // 3) + [-2] * (k // 3))
    for values in out:
        rng.shuffle(values)
    return out


def _two_factor_union(c: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    # c random 2-factors on components of 2, 3, 5 and 7 vertices, with the
    # labels and the edge order shuffled: a 2-vertex component is a digon
    # of parallel edges, and the odd-order ones have odd Euler circuits
    labels = rng.sample(range(17), 17)
    edges = []
    for block in (labels[:2], labels[2:5], labels[5:10], labels[10:]):
        for _ in range(c):
            order = rng.sample(block, len(block))
            edges += [(order[i - 1], order[i]) for i in range(len(order))]
    rng.shuffle(edges)
    return len(labels), edges


def _columns(pairs):
    """The endpoint columns ``(us, vs)`` of a list of pairs."""
    return [u for u, _ in pairs], [v for _, v in pairs]


class TestValueSplit:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_every_vertex_meets_each_value_as_often_as_the_multiset_holds_it(self, k):
        rng = random.Random(k)
        for s in (1, 3, 6):
            arcs = _permutation_arcs(k, s, rng)
            for values in _value_multisets(k, rng):
                got = _value_split(2 * s, *_columns(arcs), range(len(arcs)), k, values, [0] * len(arcs))
                assert len(got) == len(arcs)
                sums = [0] * (2 * s)
                seen = [Counter() for _ in range(2 * s)]
                for (u, v), val in zip(arcs, got):
                    for x in (u, v):
                        sums[x] += val
                        seen[x][val] += 1
                assert sums == [sum(values)] * (2 * s), values
                assert seen == [Counter(values)] * (2 * s), values

    @pytest.mark.parametrize("k", range(1, 10))
    def test_distinct_values_reproduce_the_euler_split(self, k):
        # any distinct values split like their ranks 0..k-1: grouped by
        # ascending value, the arcs are the matchings of the values 0..k-1
        # (which GOLDEN_DECOMPOSITION's bipartite layer pins)
        rng = random.Random(100 + k)
        for s in (2, 5):
            us, vs = _columns(_permutation_arcs(k, s, rng))
            values = rng.sample(range(-50, 50), k)
            assert split_by_value(2 * s, us, vs, k, values) == split_by_value(2 * s, us, vs, k, range(k))

    @pytest.mark.parametrize("c", range(1, 6))
    def test_two_factor_pieces(self, c):
        # d = 2c: each value goes to one 2-factor, so a vertex meets it twice;
        # the multisets hold _split_sum(0, c) for c >= 2, whose +1/-1 on the
        # even circuits is no 2-factor split, so there only the sums count
        rng = random.Random(200 + c)
        for _ in range(3):
            n, edges = _two_factor_union(c, rng)
            for values in _value_multisets(c, rng):
                got = _value_split(n, *_columns(edges), range(len(edges)), 2 * c, values, [0] * len(edges))
                assert len(got) == len(edges) and 0 not in got, values
                sums = [0] * n
                seen = [Counter() for _ in range(n)]
                for (u, v), val in zip(edges, got):
                    for x in (u, v):
                        sums[x] += val
                        seen[x][val] += 1
                assert sums == [2 * sum(values)] * n, values
                if sum(values):
                    assert seen == [Counter(values + values)] * n, values

    def test_uniform_values_take_no_walk_and_no_peel(self, monkeypatch):
        work = []
        monkeypatch.setattr(matching, "_euler_tails", lambda *args: work.append("walk"))
        monkeypatch.setattr(matching, "_max_matching_ids", lambda *args: work.append("peel"))
        arcs = _permutation_arcs(7, 5, random.Random(1))
        assert _value_split(10, *_columns(arcs), range(len(arcs)), 7, [-2] * 7, [0] * len(arcs)) == [-2] * len(arcs)
        assert work == []


class TestInternalChecks:
    """The sanity checks that no correct engine trips, each tripped by a broken one."""

    def test_peel_that_loses_an_edge(self, monkeypatch):
        peel = matching._max_matching_ids
        monkeypatch.setattr(matching, "_max_matching_ids", lambda *args: frozenset(sorted(peel(*args))[1:]))
        g = build(6, [(u, v) for u in range(3) for v in range(3, 6)])
        with pytest.raises(RuntimeError, match="lost its perfect matching"):
            split_by_value(g.n, g.us, g.vs, 3, range(3))

    def test_gadget_matching_that_breaks_the_bijection(self, monkeypatch):
        monkeypatch.setattr(matching, "_blossom_matching", lambda adj: [i ^ 1 for i in range(len(adj))])
        with pytest.raises(RuntimeError, match="decoded to a wrong-degree edge set"):
            find_exact_factor(complete(4), [1] * 4)


class TestExactFactor:
    def test_k4_one_factor(self):
        g = complete(4)
        f = find_exact_factor(g, [1] * 4)
        assert f is not None and len(f) == 2

    def test_k4_two_factor(self):
        g = complete(4)
        f = find_exact_factor(g, [2] * 4)
        deg = [0, 0, 0, 0]
        for e in f:
            u, v = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        assert deg == [2, 2, 2, 2]

    def test_odd_total_impossible(self):
        assert find_exact_factor(complete(4), [1, 1, 1, 2]) is None

    @pytest.mark.parametrize("target", [[4, 3, 3, 2], [-1, 1, 1, 1]])
    def test_target_outside_degree_range(self, target):
        # even totals, so only the range check can refuse them
        assert find_exact_factor(complete(4), target) is None

    @pytest.mark.parametrize("target", [[2] * 4 + [0], [2] * 4 + [1], [2] * 3])
    def test_target_length_must_be_n(self, target):
        with pytest.raises(ValueError, match=f"^target has {len(target)} entries for 4 vertices$"):
            find_exact_factor(complete(4), target)

    def test_mixed_targets(self):
        g = cycle(5)
        f = find_exact_factor(g, [2, 2, 2, 2, 2])
        assert f == frozenset(range(5))

    def test_mixed_targets_match_subset_enumeration(self):
        def exists(g, target):
            for size in range(g.m + 1):
                for subset in combinations(range(g.m), size):
                    deg = [0] * g.n
                    for e in subset:
                        u, v = g.edges[e]
                        deg[u] += 1
                        deg[v] += 1
                    if deg == target:
                        return True
            return False

        rng = random.Random(29)
        found = 0
        for trial in range(60):
            n = rng.randint(3, 6)
            pairs = []
            for _ in range(rng.randint(3, 10)):
                u, v = rng.sample(range(n), 2)
                pairs.append((min(u, v), max(u, v)))
            g = MultiGraph(n, pairs)
            target = [rng.randint(0, g.degree(v)) for v in range(n)]
            got = find_exact_factor(g, target)
            assert (got is not None) == exists(g, target), (pairs, target)
            if got is not None:
                found += 1
                deg = [0] * n
                for e in got:
                    u, v = g.edges[e]
                    deg[u] += 1
                    deg[v] += 1
                assert deg == target
        assert 0 < found < 60  # both answers occur
