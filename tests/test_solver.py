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


def pendant_last_multigraph(rng: random.Random) -> MultiGraph:
    # up to 13 edges on up to 7 vertices, and one more to a new vertex of
    # degree 1 with the highest id, last in an order by the larger endpoint
    n = rng.randint(2, 7)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 13))]
    return build(n + 1, pairs + [(rng.randrange(n), n)])


def sorted_toward_zero(a: int, b: int, kmax: int) -> list[int]:
    # the alphabet by |a + c| + |b + c|, then |c|, then + before -
    alphabet = [c for c in range(-kmax, kmax + 1) if c]
    return sorted(alphabet, key=lambda c: (abs(a + c) + abs(b + c), abs(c), c < 0))


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
        2: ("nonexistent", 0, None), 3: ("found", 19, 440039372),
        4: ("found", 18, 2250783296), 5: ("found", 18, 2250783296)}),
    "rr20_3_s2": (random_regular(20, 3, 2), 200_000, {
        2: ("nonexistent", 0, None), 3: ("found", 30, 3195924263),
        4: ("found", 36, 3971357846), 5: ("found", 36, 3971357846)}),
    "rr30_3_s3": (random_regular(30, 3, 3), 200_000, {
        2: ("nonexistent", 0, None), 3: ("found", 51, 1355936215),
        4: ("found", 52, 3720844611), 5: ("found", 52, 3720844611)}),
    "rr8_5_s4": (random_regular(8, 5, 4), 200_000, {
        2: ("nonexistent", 0, None), 3: ("found", 448, 4199285688),
        4: ("found", 25, 2645242383), 5: ("found", 25, 2645242383)}),
    "rr12_5_s5": (random_regular(12, 5, 5), 200_000, {
        2: ("nonexistent", 0, None), 3: ("found", 68, 1389709692),
        4: ("found", 61, 713010432), 5: ("found", 66, 2814152154)}),
    "rr20_5_s6": (random_regular(20, 5, 6), 200_000, {
        2: ("nonexistent", 0, None), 3: ("found", 257, 2427976454),
        4: ("found", 58, 398718841), 5: ("found", 58, 398718841)}),
    "cubic_no_pm": (cubic_no_pm(), DEFAULT_BUDGET, {
        4: ("nonexistent", 2728, None), 5: ("found", 2386, 367258420)}),
    "petersen": (petersen(), DEFAULT_BUDGET, {3: ("found", 15, 3833609416)}),
    "triple": (TRIPLE, DEFAULT_BUDGET, {
        2: ("nonexistent", 0, None), 3: ("found", 3, 324800987),
        4: ("found", 4, 3518727664), 5: ("found", 4, 3518727664)}),
    "dumbbell": (DUMBBELL, DEFAULT_BUDGET, {
        2: ("nonexistent", 0, None), 3: ("found", 6, 959037243),
        4: ("found", 8, 1085753170), 5: ("found", 8, 1085753170)}),
    "rr200_3_s5": (random_regular(200, 3, 5), 10_000, {5: ("found", 1636, 17240278)}),
    "rr200_3_s7": (random_regular(200, 3, 7), 10_000, {5: ("found", 1549, 1923910939)}),
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
        graphs = [TRIPLE, DUMBBELL, ISOLATED, *(random_multigraph(rng) for _ in range(80))]
        graphs += [pendant_last_multigraph(random.Random(seed)) for seed in range(20)]
        for g in graphs:
            for k in (2, 3, 4, 5):
                got = solve(g, k).status == "found"
                assert got == flow_exists_by_enumeration(g, k)

    @pytest.mark.parametrize(
        "g", [petersen(), cubic_no_pm(), random_regular(20, 5, 6)], ids=["petersen", "cubic_no_pm", "rr20_5_s6"]
    )
    def test_odd_degree_refutes_two_flows_before_the_first_node(self, g):
        # at k = 2 a partial sum must share the parity of its count of edges
        # left, which fails at an odd degree before any value is tried
        outcome = solve(g, 2)
        assert (outcome.status, outcome.nodes) == ("nonexistent", 0)

    def test_odd_degrees_far_down_the_search_order_refute_two_flows(self):
        # two vertices of degree 5 among degree 4: the search met them too late
        # to refute k = 2 within 10**6 nodes, and the scan stopped there
        g = random_regular(40, 4, 1)
        h = build(40, [*g.edges, (0, 20)])
        assert search_digest(solve(h, 2, 10**6)) == ("nonexistent", 0, None)
        result = flow_number(h, 5, 10**6)
        assert (result.k, result.status) == (3, "found")

    def test_budget_cuts_the_search_it_does_not_change(self):
        # a budget b is undecided exactly when the unbounded search needs
        # more than b nodes, and gives the unbounded outcome otherwise
        rng = random.Random(26)
        cases = []  # (graph, whether to try every budget up to the unbounded count, not just 0-50)
        for _ in range(12):
            n = rng.randint(2, 6)
            cases.append((build(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 9))]), False))
        # at k = 4 each runs past its first 4m nodes: a probe finds a flow, a
        # probe exhausts the space, and the last run, past every probe, does
        for g, expected in [
            (build(3, [(0, 1), (2, 1), (2, 1), (2, 0), (2, 0), (0, 1), (1, 2), (0, 1)]), ("found", 106)),
            (build(7, [(2, 1), (3, 6), (1, 4), (2, 4), (6, 3)]), ("nonexistent", 66)),
            (build(3, [(0, 1), (0, 1), (0, 2), (1, 2)]), ("nonexistent", 168)),
        ]:
            outcome = solve(g, 4)
            assert (outcome.status, outcome.nodes) == expected
            cases.append((g, True))
        for g, every in cases:
            for k in range(2, 7):
                full = solve(g, k)
                for budget in range(full.nodes + 2 if every else 51):
                    outcome = solve(g, k, budget)
                    if full.nodes > budget:
                        assert (outcome.status, outcome.nodes) == ("undecided", budget + 1)
                    else:
                        assert search_digest(outcome) == search_digest(full)

    def test_probes_decide_more_and_change_no_decided_status(self, monkeypatch):
        # each run searches the whole space, so a probe's verdict is the verdict
        # of the search without probes wherever both decide
        rng = random.Random(53)
        graphs = [random_regular(n, r, s) for r in (3, 5) for n in range(10, 31, 4) for s in range(10)]
        graphs += [random_multigraph(rng) for _ in range(80)]
        probed = [solve(g, k, 3000).status for g in graphs for k in (2, 3, 4, 5)]
        monkeypatch.setattr(solver, "_PROBES", 0)
        plain = [solve(g, k, 3000).status for g in graphs for k in (2, 3, 4, 5)]
        pairs = set(zip(probed, plain))
        assert not {(a, b) for a, b in pairs if a != b and "undecided" not in (a, b)}
        assert ("found", "undecided") in pairs  # a probe decided what the first order left undecided

    @pytest.mark.parametrize("seed", [1, 3, 6, 7, 10, 19, 20, 23, 25, 28, 29, 30, 31, 32, 33, 35, 37, 38])
    def test_probes_find_the_flows_one_run_left_undecided(self, seed):
        # without probes, each of these 10 000-node searches was undecided
        outcome = solve(random_regular(200, 3, seed), 5, 10_000)
        assert outcome.status == "found"

    @pytest.mark.parametrize("seed", [17, 21, 63, 80, 86, 93])
    def test_values_toward_zero_sums_find_the_flows_the_probes_left_undecided(self, seed):
        # with 1, -1, 2, -2, ... at every edge, every run of these 10 000-node
        # searches stopped short of a flow
        outcome = solve(random_regular(200, 3, seed), 5, 10_000)
        assert outcome.status == "found"

    @pytest.mark.parametrize("kmax", range(1, 9))
    def test_the_value_order_is_the_alphabet_sorted_toward_zero_sums(self, kmax):
        # a permutation of the alphabet, so the search still tries every value
        # at every edge and "nonexistent" stays a certificate
        k = kmax + 1
        for a in range(-3 * k, 3 * k + 1):
            for b in range(-3 * k, 3 * k + 1):
                assert list(solver._toward_zero(a, b, kmax)) == sorted_toward_zero(a, b, kmax)

    def test_a_huge_k_under_a_small_budget_allocates_little(self):
        # only the values that the budget lets the search try are built, and
        # of each edge's order only those the search reaches
        for g, k, budget, expected in [
            (petersen(), 10**6, 5, ("undecided", 6)),
            (complete(8), 10**9, DEFAULT_BUDGET, ("found", 33)),
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
        # the search reads a short prefix of each edge's lazy order: the whole
        # alphabet sorted at once by the same key gives the same searches
        monkeypatch.setattr(solver, "_toward_zero", sorted_toward_zero)
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
