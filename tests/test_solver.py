from __future__ import annotations

import random
import sys

import pytest

from oracles import flow_exists_by_enumeration
from zsflow.flows import IntFlow, construct, verify_flow
from zsflow.graphs import MultiGraph, build, complete, cubic_no_pm, cycle, petersen
from zsflow.solver import DEFAULT_BUDGET, cross_check, flow_number, solve


def random_sparse_graph(rng: random.Random) -> MultiGraph:
    n = rng.randint(5, 9)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(n - 2, min(len(pool), n + 3))
    return MultiGraph(n, rng.sample(pool, m))


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
        triple = build(2, [(0, 1)] * 3)
        dumbbell = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])
        for g in (triple, dumbbell):
            for k in (2, 3, 4, 5):
                got = solve(g, k).status == "found"
                assert got == flow_exists_by_enumeration(g, k)

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
