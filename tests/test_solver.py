from __future__ import annotations

import random
import sys
import tracemalloc
import zlib

import pytest

from oracles import flow_exists_by_enumeration
from zsflow.flows import IntFlow, construct, verify_flow
from zsflow.graphs import MultiGraph, build, complete, cubic_no_pm, cycle, petersen, random_regular
from zsflow import solver
from zsflow.solver import DEFAULT_BUDGET, cross_check, flow_number, solve


def random_sparse_graph(rng: random.Random) -> MultiGraph:
    n = rng.randint(5, 9)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(n - 2, min(len(pool), n + 3))
    return MultiGraph(n, rng.sample(pool, m))


def random_multigraph(rng: random.Random) -> MultiGraph:
    # a closed walk (even degrees; a repeated step is a parallel edge), a few
    # chords and a doubled edge, and at times a degree-1 vertex or an isolated one
    n = rng.randint(2, 6)
    walk = [0]
    for _ in range(rng.randint(1, 5)):
        walk.append(rng.choice([v for v in range(n) if v != walk[-1]]))
    if walk[-1] != 0:
        walk.append(0)
    pairs = list(zip(walk, walk[1:]))
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
    pairs += rng.choices(pairs, k=rng.randint(0, 1))
    if rng.random() < 0.25:  # vertex 0 of degree 1, first in the oracle's edge order
        pairs = [(u + 1, v + 1) for u, v in pairs] + [(0, 1)]
        n += 1
    return build(n + rng.randint(0, 1), pairs)


def search_digest(outcome) -> tuple[str, int, int | None]:
    flow_crc = zlib.crc32(repr(outcome.flow.values).encode()) if outcome.flow else None
    return outcome.status, outcome.nodes, flow_crc


TRIPLE = build(2, [(0, 1)] * 3)
DUMBBELL = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])
ISOLATED = build(6, [(0, 1), (0, 1), (2, 3), (2, 3), (3, 4), (2, 4)])  # vertex 5 has degree 0

# (graph, budget, {k: (status, nodes, crc32 of the flow values)}).  These pin
# the search order itself: a change to the edge choice, the candidate order or
# the pruning moves the node counts or the flows even where the status holds.
GOLDEN_SEARCH = {
    "rr10_3_s1": (random_regular(10, 3, 1), 200_000, {
        2: ("nonexistent", 1, None), 3: ("found", 19, 440039372),
        4: ("found", 20, 440039372), 5: ("found", 20, 440039372)}),
    "rr20_3_s2": (random_regular(20, 3, 2), 200_000, {
        2: ("nonexistent", 1, None), 3: ("found", 30, 3195924263),
        4: ("found", 30, 3195924263), 5: ("found", 30, 3195924263)}),
    "rr30_3_s3": (random_regular(30, 3, 3), 200_000, {
        2: ("nonexistent", 1, None), 3: ("found", 51, 1355936215),
        4: ("found", 54, 1355936215), 5: ("found", 48, 2859156356)}),
    "rr8_5_s4": (random_regular(8, 5, 4), 200_000, {
        2: ("nonexistent", 1, None), 3: ("found", 298, 4120501758),
        4: ("found", 25, 4150656497), 5: ("found", 20, 4020145034)}),
    "rr12_5_s5": (random_regular(12, 5, 5), 200_000, {
        2: ("nonexistent", 1, None), 3: ("found", 68, 1389709692),
        4: ("found", 170, 1389709692), 5: ("found", 43, 3409531804)}),
    "rr20_5_s6": (random_regular(20, 5, 6), 200_000, {
        2: ("nonexistent", 1, None), 3: ("found", 276, 946723061),
        4: ("found", 3052, 309093077), 5: ("found", 779, 1699661311)}),
    "cubic_no_pm": (cubic_no_pm(), DEFAULT_BUDGET, {
        4: ("nonexistent", 1864, None), 5: ("found", 1138, 925762086)}),
    "petersen": (petersen(), DEFAULT_BUDGET, {3: ("found", 15, 3833609416)}),
    "triple": (TRIPLE, DEFAULT_BUDGET, {
        2: ("nonexistent", 1, None), 3: ("found", 3, 324800987),
        4: ("found", 3, 324800987), 5: ("found", 3, 324800987)}),
    "dumbbell": (DUMBBELL, DEFAULT_BUDGET, {
        2: ("nonexistent", 1, None), 3: ("found", 6, 959037243),
        4: ("found", 6, 959037243), 5: ("found", 6, 959037243)}),
    "rr200_3_s5": (random_regular(200, 3, 5), 10_000, {5: ("found", 322, 1337760840)}),
    "rr200_3_s7": (random_regular(200, 3, 7), 10_000, {5: ("undecided", 10_001, None)}),
}


class TestSolve:
    def test_c4_found(self):
        outcome = solve(cycle(4), 2)
        assert outcome.status == "found"
        assert verify_flow(cycle(4), outcome.flow).ok

    def test_c3_nonexistent_all_k(self):
        for k in (2, 3, 4, 5):
            assert solve(cycle(3), k).status == "nonexistent"

    def test_pendant_vertex_nonexistent(self):
        g = build(3, [(0, 1), (1, 2)])
        assert solve(g, 5).status == "nonexistent"

    def test_empty_graph(self):
        outcome = solve(build(3, []), 2)
        assert outcome.status == "found"
        assert outcome.flow.values == ()

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            solve(cycle(4), 1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            solve(petersen(), 5, budget=-1)
        outcome = solve(petersen(), 5, budget=0)  # zero still means "stop at the first node"
        assert (outcome.status, outcome.nodes) == ("undecided", 1)

    def test_budget_exhaustion_reports_undecided(self):
        outcome = solve(petersen(), 5, budget=3)
        assert outcome.status == "undecided"
        assert outcome.flow is None
        assert outcome.nodes == 4  # stops on the first expansion past the budget

    def test_found_flows_verify(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_sparse_graph(rng)
            outcome = solve(g, 5)
            if outcome.status == "found":
                assert verify_flow(g, outcome.flow).ok

    def test_agrees_with_enumeration(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_sparse_graph(rng)
            for k in (2, 3, 4):
                outcome = solve(g, k)
                assert outcome.status in ("found", "nonexistent")
                assert (outcome.status == "found") == flow_exists_by_enumeration(g, k)

    def test_agrees_with_enumeration_on_multigraphs(self):
        # the oracle prunes only on |s| <= (k - 1)r', so a wrong exact prune
        # shows as "nonexistent" where the oracle finds a flow
        rng = random.Random(7)
        for g in (TRIPLE, DUMBBELL, ISOLATED, *(random_multigraph(rng) for _ in range(80))):
            for k in (2, 3, 4, 5):
                got = solve(g, k).status == "found"
                assert got == flow_exists_by_enumeration(g, k)

    @pytest.mark.parametrize(
        "g", [petersen(), cubic_no_pm(), random_regular(20, 5, 6)], ids=["petersen", "cubic_no_pm", "rr20_5_s6"]
    )
    def test_odd_degree_refutes_two_flows_at_the_first_node(self, g):
        # at k = 2 a partial sum must share the parity of its count of edges left
        outcome = solve(g, 2)
        assert (outcome.status, outcome.nodes) == ("nonexistent", 1)

    def test_budget_cuts_the_search_it_does_not_change(self):
        # a budget b is undecided exactly when the unbounded search needs
        # more than b nodes, and gives the unbounded outcome otherwise
        rng = random.Random(26)
        for _ in range(12):
            n = rng.randint(2, 6)
            g = build(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 9))])
            for k in range(2, 7):
                full = solve(g, k)
                for budget in range(51):
                    outcome = solve(g, k, budget)
                    if full.nodes > budget:
                        assert (outcome.status, outcome.nodes) == ("undecided", budget + 1)
                    else:
                        assert search_digest(outcome) == search_digest(full)

    def test_a_huge_k_under_a_small_budget_allocates_little(self):
        # only the values that the budget lets the search try are built, and
        # past a fixed prefix only those the search reaches
        for g, k, budget, expected in [
            (petersen(), 10**6, 5, ("undecided", 6)),
            (complete(8), 10**9, DEFAULT_BUDGET, ("found", 28)),
        ]:
            tracemalloc.start()
            try:
                outcome = solve(g, k, budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (outcome.status, outcome.nodes) == expected
            assert peak < 10**6

    @pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
    def test_golden_search(self, name):
        g, budget, expected = GOLDEN_SEARCH[name]
        got = {k: search_digest(solve(g, k, budget)) for k in expected}
        assert got == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
    def test_golden_search_past_a_short_prefix(self, name, monkeypatch):
        # with only 1, -1 held, every other value is made as the search
        # reaches it, and in the same order
        monkeypatch.setattr(solver, "_HEAD", 2)
        g, budget, expected = GOLDEN_SEARCH[name]
        assert {k: search_digest(solve(g, k, budget)) for k in expected} == expected

    def test_monotone_in_k(self):
        rng = random.Random(77)
        for _ in range(10):
            g = random_sparse_graph(rng)
            found = [solve(g, k).status == "found" for k in (2, 3, 4, 5)]
            for lo, hi in zip(found, found[1:]):
                assert not (lo and not hi)

    def test_deterministic_nodes(self):
        g = cubic_no_pm()
        a = solve(g, 4)
        b = solve(g, 4)
        assert (a.status, a.nodes) == (b.status, b.nodes)

    def test_recursion_limit_restored(self):
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert solve(cycle(2000), 3).status == "found"  # needs depth past 1000
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(before)

    def test_deep_caller_needs_no_recursion_headroom(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"solve set the recursion limit to {limit}")

        def at_depth(depth, fn):
            return fn() if depth == 0 else at_depth(depth - 1, fn)

        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        try:
            for n in (300, 2000):  # a search one frame per edge deep would overflow at both
                outcome = at_depth(800, lambda: solve(cycle(n), 3))
                assert (outcome.status, outcome.nodes) == ("found", n)
        finally:
            monkeypatch.undo()
            sys.setrecursionlimit(before)

    def test_no_matching_cubic_graph(self):
        g = cubic_no_pm()
        assert solve(g, 4).status == "nonexistent"
        assert solve(g, 5).status == "found"


class TestFlowNumber:
    def test_k4_is_three(self):
        result = flow_number(complete(4), 6)
        assert result.k == 3
        assert result.outcomes[2].status == "nonexistent"

    def test_c4_is_two(self):
        assert flow_number(cycle(4), 6).k == 2

    def test_c3_absent(self):
        result = flow_number(cycle(3), 5)
        assert result.k is None and result.status == "nonexistent"

    def test_cubic_no_pm_is_five(self):
        assert flow_number(cubic_no_pm(), 6).k == 5

    def test_undecided_propagates(self):
        result = flow_number(petersen(), 6, budget=3)
        assert result.k is None and result.status == "undecided"

    def test_k_max_below_two_is_a_usage_error(self):
        with pytest.raises(ValueError, match="need k_max >= 2, got 1"):
            flow_number(cycle(4), 1)


class TestOneIncidencePerScan:
    @pytest.fixture
    def spied(self, monkeypatch):
        # the graph of each incidence build, and (k, digest) of each search
        calls = {"_incidence": [], "_search": []}
        real_incidence, real_search = solver._incidence, solver._search

        def incidence(g):
            calls["_incidence"].append(g)
            return real_incidence(g)

        def search(g, inc, k, budget):
            outcome = real_search(g, inc, k, budget)
            calls["_search"].append((k, search_digest(outcome)))
            return outcome

        monkeypatch.setattr(solver, "_incidence", incidence)
        monkeypatch.setattr(solver, "_search", search)
        return calls

    def separate(self, g, ks, budget):
        return [(k, search_digest(solve(g, k, budget))) for k in ks]

    @pytest.mark.parametrize("name", ["rr20_5_s6", "cubic_no_pm", "rr200_3_s7"])
    def test_flow_number(self, name, spied):
        g, budget, _ = GOLDEN_SEARCH[name]
        result = flow_number(g, 5, budget)
        assert spied["_incidence"] == [g]
        scanned = [(k, search_digest(o)) for k, o in result.outcomes.items()]
        assert spied["_search"] == scanned
        assert self.separate(g, result.outcomes, budget) == scanned

    def test_cross_check(self, spied):
        g = complete(8)
        report = cross_check(g, construct(g), budget=200_000)
        assert spied["_incidence"] == [g]
        scanned = spied["_search"][:]
        ks = [k for k, _ in scanned]
        assert ks == [5, *range(2, len(ks) + 1)]  # the claimed k, then the scan below it
        assert self.separate(g, ks, 200_000) == scanned
        assert report.status_at_claimed == scanned[0][1][0]


class TestCrossCheck:
    def test_k5_construction_consistent(self):
        g = complete(5)
        flow = construct(g)
        report = cross_check(g, flow)
        assert report.consistent
        assert report.claimed_k == 3

    def test_hand_built_two_flow_is_minimal(self):
        g = cycle(4)
        flow = IntFlow(g, (1, -1, 1, -1), 2)
        report = cross_check(g, flow)
        assert report.consistent and report.smaller_k is None

    def test_k8_constructed_flow(self):
        g = complete(8)
        flow = construct(g)
        report = cross_check(g, flow, budget=200_000)
        assert report.consistent
        if report.smaller_k is not None:
            assert 2 <= report.smaller_k < 5

    def test_bad_flow_rejected(self):
        g = cycle(4)
        with pytest.raises(ValueError, match="fails verification"):
            cross_check(g, IntFlow(g, (1, 1, 1, 1), 2))
