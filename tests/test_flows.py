from __future__ import annotations

import gc
import random
import tracemalloc
import zlib
from itertools import product

import pytest
from oracles import flow_exists_by_enumeration
from test_factorization import _doubled, _gadget_hub, _matching_union, _union
from test_graphs import _outcome, _scan_variants, _set_line

from zsflow import factorization, flows, matching, solver
from zsflow.factorization import regular_component_factor
from zsflow.errors import (
    FactorSearchError,
    FlowNonexistentError,
    FlowUndecidedError,
    GraphFormatError,
    NotRegularError,
    UnsupportedDegreeError,
)
from zsflow.flows import (
    FlowDocument,
    IntFlow,
    constant_sum_weighting,
    construct,
    flow_odd_regular,
    parse_flow,
    verify_flow,
    write_flow,
)
from zsflow.graphs import (
    _FLOW_COLUMNS,
    MultiGraph,
    _canonical_ints,
    build,
    circulant,
    complete,
    components,
    cubic_no_pm,
    cycle,
    petersen,
    random_regular,
    subgraph_from_edges,
)
from zsflow.matching import find_exact_factor, max_matching
from zsflow.solver import cross_check, flow_number, solve


def hub_pairs(r: int) -> tuple[int, list[tuple[int, int]]]:
    """A centre joined to r copies of K_{r+2}, each minus a 2-path and a matching.

    The middle vertex of each removed 2-path takes the edge to the centre,
    so the graph is r-regular on 1 + r(r+2) vertices with no perfect matching.
    """
    size = r + 2
    pairs = []
    for i in range(r):
        vs = list(range(1 + i * size, 1 + (i + 1) * size))
        removed = {(vs[0], vs[1]), (vs[1], vs[2])}
        removed |= {(vs[j], vs[j + 1]) for j in range(3, size, 2)}
        pairs += [(a, b) for j, a in enumerate(vs) for b in vs[j + 1 :] if (a, b) not in removed]
        pairs.append((0, vs[1]))
    return 1 + r * size, pairs


def vertex_sums(g, values):
    sums = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        sums[u] += values[e]
        sums[v] += values[e]
    return sums


@pytest.fixture
def searches(monkeypatch):
    # the outcome of every solve call that construct makes
    calls = []
    real = solver.solve

    def spy(g, k, budget=solver.DEFAULT_BUDGET):
        calls.append(real(g, k, budget))
        return calls[-1]

    monkeypatch.setattr(solver, "solve", spy)
    return calls


class TestVerify:
    def test_intflow_of_another_graph_is_a_usage_error(self):
        flow = IntFlow(cycle(5), (1, -1, 1, -1, 1), 2)
        with pytest.raises(ValueError, match="flow belongs to a different graph"):
            verify_flow(cycle(4), flow)

    def test_bare_values_need_a_bound(self):
        with pytest.raises(ValueError, match="a claimed bound k is required"):
            verify_flow(cycle(4), [1, -1, 1, -1])

    def test_c4_alternating_passes(self):
        g = cycle(4)
        report = verify_flow(g, [1, -1, 1, -1], k=2)
        assert report.ok
        assert report.vertex_sums == (0, 0, 0, 0)
        assert report.max_abs == 1

    def test_c3_every_assignment_fails(self):
        g = cycle(3)
        for vals in product([-2, -1, 1, 2], repeat=3):
            assert not verify_flow(g, list(vals), k=3).ok

    def test_k4_matching_flow_passes(self):
        g = complete(4)
        # edge order of K4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        # matchings {01,23}, {02,13} get 1, {03,12} gets -2
        values = [1, 1, -2, -2, 1, 1]
        report = verify_flow(g, values, k=3)
        assert report.ok

    def test_zero_value_is_a_verdict_not_an_error(self):
        g = cycle(4)
        report = verify_flow(g, [1, 0, 1, -1], k=2)
        assert not report.ok
        assert report.violation == "zero value at edge 1"

    def test_out_of_range_value(self):
        g = cycle(4)
        report = verify_flow(g, [3, -3, 3, -3], k=2)
        assert not report.ok
        assert "exceeds" in report.violation

    @pytest.mark.parametrize("val", [0.5, 1.0])
    def test_non_integer_value_is_a_verdict(self, val):
        # the vertex sums vanish, but a k-flow's values are integers
        report = verify_flow(cycle(4), [val, -val, val, -val], k=2)
        assert not report.ok
        assert report.violation == f"edge 0 value {val} is not an integer"

    def test_bad_vertex_sum_reports_first_vertex(self):
        g = cycle(4)
        report = verify_flow(g, [1, 1, 1, 1], k=2)
        assert not report.ok
        assert report.violation == "vertex 0 sum 2"
        assert report.vertex_sums == (2, 2, 2, 2)

    def test_dict_rejected(self):
        # its keys 0..m-1 would otherwise be read as the values
        with pytest.raises(TypeError, match="got dict"):
            verify_flow(cycle(4), {0: 1, 1: -1, 2: 1, 3: -1}, k=2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="3 values"):
            verify_flow(cycle(4), [1, -1, 1], k=2)

    def test_intflow_defaults_k(self):
        g = cycle(4)
        flow = IntFlow(g, (1, -1, 1, -1), 2)
        assert verify_flow(g, flow).k == 2

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_bound_below_two_rejected(self, k):
        g = cycle(4)
        with pytest.raises(ValueError, match=f"need k >= 2, got {k}"):
            verify_flow(g, [1, -1, 1, -1], k=k)
        with pytest.raises(ValueError, match=f"need k >= 2, got {k}"):
            verify_flow(g, IntFlow(g, (1, -1, 1, -1), 2), k=k)
        edgeless = build(2, [])
        with pytest.raises(ValueError, match=f"need k >= 2, got {k}"):
            verify_flow(edgeless, IntFlow(edgeless, (), k))


class TestIntFlowInvariants:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero value"):
            IntFlow(cycle(3), (1, 0, 1), 3)

    def test_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            IntFlow(cycle(3), (1, 5, 1), 3)

    def test_length_rejected(self):
        with pytest.raises(ValueError):
            IntFlow(cycle(3), (1, 1), 3)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1, -5, 0, 1), "edge 1 value -5 exceeds |value| <= 2"),
            ((1, 0, 5, 1), "zero value at edge 1"),
            ((2, -2, 1, 3), "edge 3 value 3 exceeds |value| <= 2"),
            ((1, 0.5, 0, 1), "edge 1 value 0.5 is not an integer"),
            ((1, -1, 1.0, -1), "edge 2 value 1.0 is not an integer"),
        ],
    )
    def test_first_bad_value_by_edge_id(self, values, message):
        with pytest.raises(ValueError) as info:
            IntFlow(cycle(4), values, 3)
        assert str(info.value) == message


class TestConstantSumWeighting:
    def test_low_end_constant_two(self):
        g = complete(5)  # r=4
        assert set(constant_sum_weighting(g, 8)) == {2}

    def test_high_end_constant_four(self):
        g = complete(5)
        assert set(constant_sum_weighting(g, 16)) == {4}

    def test_k4_mid_target(self):
        g = complete(4)  # r=3
        w = constant_sum_weighting(g, 8)
        assert set(w) <= {2, 3, 4}
        assert vertex_sums(g, w) == [8] * 4

    def test_sweep_small_degrees(self):
        cases = [
            (3, petersen()),
            (3, cubic_no_pm()),
            (4, complete(5)),
            (5, complete(6)),
            (5, circulant(8, {1, 2, 4})),
            (6, circulant(8, {1, 2, 3})),
            (7, circulant(10, {1, 2, 3, 5})),
            (5, random_regular(30, 5, seed=4)),
            (7, random_regular(30, 7, seed=5)),
        ]
        for r, g in cases:
            for q in range(2 * r, 4 * r + 1, 2):
                w = constant_sum_weighting(g, q)
                assert set(w) <= {2, 3, 4}, (r, q)
                assert vertex_sums(g, w) == [q] * g.n, (r, q)

    def test_even_r_balanced_over_full_range(self):
        for n, r, seed in [(9, 4, 0), (10, 6, 1), (12, 8, 2), (14, 10, 3)]:
            g = random_regular(n, r, seed)
            for q in range(r, 4 * r + 1, 2):
                w = constant_sum_weighting(g, q)
                assert vertex_sums(g, w) == [q] * g.n, (r, q)
                assert set(w) <= {q // r, -(-q // r)}, (r, q)

    def test_range_lower_ends(self):
        for r, g in [(4, complete(5)), (6, complete(7)), (3, complete(4)), (5, complete(6))]:
            lo = r if r % 2 == 0 else 2 * r
            assert vertex_sums(g, constant_sum_weighting(g, lo)) == [lo] * g.n
            with pytest.raises(ValueError, match="lie in"):
                constant_sum_weighting(g, lo - 2)

    def test_rejections(self):
        with pytest.raises(ValueError, match="even"):
            constant_sum_weighting(complete(4), 7)
        with pytest.raises(ValueError, match="lie in"):
            constant_sum_weighting(complete(4), 14)
        with pytest.raises(NotRegularError):
            constant_sum_weighting(build(3, [(0, 1), (1, 2)]), 4)

    def test_split_sum_domain(self):
        for count in range(1, 41):
            ts = {1, *range(count, 4 * count + 1)} | ({0} if count >= 2 else set())
            for t in sorted(ts):
                values = flows._split_sum(t, count)
                assert len(values) == count, (t, count)
                assert sum(values) == t, (t, count)
                assert 0 not in values, (t, count)
                assert all(-2 <= val <= 4 for val in values), (t, count)
        for count in range(1, 9):
            for t in (-1, *range(-4 * count, -count + 1)):
                values = flows._split_sum(t, count)
                assert len(values) == count, (t, count)
                assert sum(values) == t, (t, count)
                assert 0 not in values, (t, count)
                assert all(-4 <= val <= 2 for val in values), (t, count)
                assert values == [-val for val in flows._split_sum(-t, count)], (t, count)

    @pytest.mark.parametrize("r", range(2, 14))
    def test_weighting_every_admitted_sum(self, r):
        # vertex sums counted here, not by verify_flow
        if r % 2:
            qs = list(range(2 * r, 4 * r + 1, 2)) + ([0] if r % 3 == 0 else [])
        else:
            qs = list(range(r, 4 * r + 1, 2)) + [2] + ([0] if r >= 4 else [])
        for seed, n in enumerate((12, 30)):
            g = _matching_union(r, n, seed)
            for q in qs:
                values = flows._weighting(g, range(g.m), r, q, [0] * g.m)
                assert len(values) == g.m and 0 not in values, (r, n, q)
                assert vertex_sums(g, values) == [q] * g.n, (r, n, q)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_weighting_on_a_part_that_leaves_vertices_uncovered(self, d):
        # K_{d+1} on the odd vertices; a cycle on the even ones and one
        # isolated vertex stay outside the part, and the two components'
        # edge ids interleave
        size = d + 1
        pairs = []
        for i in range(size):
            pairs.append((2 * i, 2 * ((i + 1) % size)))
            pairs += [(2 * i + 1, 2 * j + 1) for j in range(i + 1, size)]
        g = build(2 * size + 1, pairs)
        ids = [e for e, (u, _) in enumerate(g.edges) if u % 2]
        sub, _, _ = subgraph_from_edges(g, ids)
        if d % 2:
            qs = list(range(2 * d, 4 * d + 1, 2)) + ([0] if d % 3 == 0 else [])
        else:
            qs = list(range(d, 4 * d + 1, 2)) + [2, 0]
        for q in qs:
            out = flows._weighting(g, ids, d, q, [0] * g.m)
            values = [out[e] for e in ids]
            if q >= (d if d % 2 == 0 else 2 * d):
                assert tuple(values) == constant_sum_weighting(sub, q), q
            else:  # outside the public range: the spanning weighting of the part
                assert values == flows._weighting(sub, range(sub.m), d, q, [0] * sub.m), q
            sums = [0] * g.n
            for e, val in zip(ids, values):
                for v in g.edges[e]:
                    sums[v] += val
            assert sums == [0, q] * size + [0], q

    @pytest.mark.parametrize(
        "g, q, work",
        [
            (complete(8), None, (1, 0)),
            (random_regular(40, 13, seed=6), None, (1, 0)),
            (random_regular(40, 8, seed=4), 20, (1, 0)),
            (random_regular(40, 8, seed=4), 18, (2, 0)),
        ],
        ids=["k8_factor_flow", "r13_factor_flow", "r8_q20", "r8_q18"],
    )
    def test_every_even_part_halves(self, g, q, work, monkeypatch):
        # (walks, cover splits): a part with an even count of unequal
        # 2-factor values is halved along its own Euler circuits until each
        # piece's values agree, and no cover is split.  K8's factor flow
        # halves its 4-regular part {1, 2} once, the r = 13 factor flow its
        # 8-regular part {2, 2, 3, 3} once; r = 8 halves {2, 2, 3, 3} once at
        # q = 20, and {2, 2, 2, 3} twice at q = 18
        calls = {"walks": 0, "covers": 0}

        def walk(*args, _real=matching._euler_tails):
            calls["walks"] += 1
            return _real(*args)

        monkeypatch.setattr(matching, "_euler_tails", walk)
        for module in (flows, matching):

            def split(n, us, *args, _real=module._value_split):
                calls["covers"] += us is not g.us  # a split of a cover's arcs
                return _real(n, us, *args)

            monkeypatch.setattr(module, "_value_split", split)
        if q is None:
            assert verify_flow(g, flow_odd_regular(g)).ok
        else:
            assert vertex_sums(g, constant_sum_weighting(g, q)) == [q] * g.n
        assert (calls["walks"], calls["covers"]) == work


class TestEvenRegular:
    def test_irregular_graph_rejected(self):
        with pytest.raises(NotRegularError, match="graph is not regular"):
            construct(build(3, [(0, 1), (1, 2)]))

    def test_k5(self):
        g = complete(5)
        flow = construct(g)
        assert flow.k == 3
        assert verify_flow(g, flow).ok
        assert set(flow.values) <= {1, -1, 2, -2}

    def test_post_check_failure_raises(self, monkeypatch):
        # one value of K5's weighting negated: still a valid labelling, but
        # the sums at the ends of edge 0 move off zero
        real = flows._weighting

        def flip(*args):
            out = real(*args)
            out[0] = -out[0]
            return out

        monkeypatch.setattr(flows, "_weighting", flip)
        with pytest.raises(RuntimeError, match=r"^internal: returned flow failed verification: vertex 0 sum -?\d+$"):
            construct(complete(5))

    @pytest.mark.parametrize(
        "value, violation",
        [(0, "zero value at edge 0"), (7, r"edge 0 value 7 exceeds \|value\| <= 2")],
        ids=["zero", "too_large"],
    )
    def test_post_check_catches_a_bad_value(self, monkeypatch, value, violation):
        # a value no flow may hold is a construction fault, not a labelling error
        real = flows._weighting

        def spoil(*args):
            out = real(*args)
            out[0] = value
            return out

        monkeypatch.setattr(flows, "_weighting", spoil)
        with pytest.raises(RuntimeError, match=rf"^internal: returned flow failed verification: {violation}$"):
            construct(random_regular(20, 4, 1))

    def test_six_regular_uses_odd_sequence(self):
        g = circulant(7, {1, 2, 3})
        flow = construct(g)
        assert verify_flow(g, flow).ok
        assert 2 in flow.values  # s=3 factors valued (2,-1,-1)

    def test_values_stay_small_through_r10(self):
        for n, r, seed in [(9, 4, 0), (10, 6, 1), (12, 8, 2), (14, 10, 3)]:
            g = random_regular(n, r, seed)
            flow = construct(g)
            assert verify_flow(g, flow).ok
            assert set(flow.values) <= {1, -1, 2, -2}

    @pytest.mark.parametrize(
        "g",
        [
            complete(5),
            build(5, list(cycle(5).edges) * 2),
            build(3, list(cycle(3).edges) * 3),
            build(5, list(cycle(5).edges) * 3),
            *(random_regular(8, r, seed) for r in (4, 6) for seed in range(3)),
            _union(build(3, list(cycle(3).edges) * 3), random_regular(8, 6, seed=1)),
        ],
    )
    def test_values_are_a_two_flow_iff_one_exists(self, g):
        # vertex sums counted here, not by verify_flow; the last graph joins a
        # component with a 2-flow to one without (6-regular, since every
        # 4-regular graph has an even edge count)
        flow = construct(g)
        assert flow.k == 3
        assert vertex_sums(g, flow.values) == [0] * g.n
        assert (max(map(abs, flow.values)) == 1) == flow_exists_by_enumeration(g, 2)

    def test_even_components_take_one_walk_and_no_two_factors(self, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapped(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)

        def cover_split(module):
            real = module._value_split

            def wrapped(n, us, *args):
                if us is not g.us:  # a split of a cover's arcs
                    calls.append("_value_split")
                return real(n, us, *args)

            monkeypatch.setattr(module, "_value_split", wrapped)

        cover_split(flows)
        cover_split(matching)
        spy(flows, "max_matching")
        spy(matching, "_max_matching_ids")
        spy(matching, "_euler_tails")
        graphs = [random_regular(40, r, seed=r) for r in (4, 6, 8)]
        graphs += [
            complete(9),
            _union(random_regular(11, 4, seed=1), complete(5)),
            _union(random_regular(10, 6, seed=1), _doubled(complete(4)), random_regular(8, 6, seed=2)),
        ]
        for g in graphs:
            calls.clear()
            flow = construct(g)
            assert calls == ["_euler_tails"]
            assert set(flow.values) == {1, -1}
            assert vertex_sums(g, flow.values) == [0] * g.n

    def test_only_an_odd_component_takes_the_two_factors(self, monkeypatch):
        parts = []
        g = _union(complete(7), random_regular(10, 6, seed=1))
        ids = {frozenset(pair): e for e, pair in enumerate(g.edges)}  # g is simple
        for module in (flows, matching):

            def spy(n, us, vs, part, *args, _real=module._value_split):
                if us is not g.us:
                    # a cover split: each arc runs from an out-copy t to an in-copy g.n + h
                    parts.append(sorted(ids[frozenset((us[j], vs[j] - g.n))] for j in part))
                return _real(n, us, vs, part, *args)

            monkeypatch.setattr(module, "_value_split", spy)
        flow = construct(g)
        assert parts == [list(range(21))]
        assert vertex_sums(g, flow.values) == [0] * g.n
        assert 2 in flow.values[:21]
        assert set(flow.values[21:]) == {1, -1}

    @pytest.mark.parametrize(
        "g",
        [
            complete(7),
            _union(complete(7), random_regular(10, 6, seed=1)),
            _union(random_regular(9, 6, seed=1), complete(7), random_regular(11, 6, seed=2)),
            random_regular(41, 6, seed=3),
        ],
    )
    def test_odd_length_components_are_walked_once(self, g, monkeypatch):
        # the 2-factors of the odd-length components take the first walk's
        # tails; the split's own walks run on arcs of the bipartite double cover
        walks = []

        def spy(n, us, vs, ids, _real=matching._euler_tails):
            if us is g.us:
                walks.append(len(ids))
            return _real(n, us, vs, ids)

        monkeypatch.setattr(matching, "_euler_tails", spy)
        flow = construct(g)
        assert walks == [g.m]
        assert 2 in flow.values
        assert vertex_sums(g, flow.values) == [0] * g.n

    def test_r2_rejected(self):
        with pytest.raises(UnsupportedDegreeError):
            construct(cycle(5))


class TestSevenRegular:
    def test_k8(self):
        g = complete(8)
        flow = flow_odd_regular(g)
        assert flow.k == 5
        assert verify_flow(g, flow).ok
        assert set(flow.values) <= {1, 2, 3, 4, -2}

    def test_circulant(self):
        g = circulant(10, {1, 2, 3, 5})
        flow = flow_odd_regular(g)
        assert verify_flow(g, flow).ok

    def test_random(self):
        g = random_regular(16, 7, seed=11)
        flow = flow_odd_regular(g)
        assert verify_flow(g, flow).ok
        negatives = {v for v in flow.values if v < 0}
        assert negatives <= {-2}

    def test_wrong_degree_rejected(self):
        with pytest.raises(UnsupportedDegreeError):
            flow_odd_regular(complete(5))

    @pytest.mark.xfail(
        strict=True,
        raises=FactorSearchError,
        reason="mixed-component factors above n=18 are not searched yet (ROADMAP item 16)",
    )
    def test_hub_of_gadgets(self):
        # guaranteed by the paper, but with no perfect matching and no exact
        # 3- or 4-factor the factor search gives up
        g = build(*hub_pairs(7))
        flow = construct(g)
        assert flow.k == 5
        assert verify_flow(g, flow).ok

    def test_hub_makes_one_exact_factor_query(self, monkeypatch):
        # at r = 7, k = 4 a 3-factor is the complement of a 4-factor, so the
        # failed 4-factor query already rules it out
        targets = []
        real = factorization.find_exact_factor

        def spy(g, target):
            targets.append(set(target))
            return real(g, target)

        monkeypatch.setattr(factorization, "find_exact_factor", spy)
        g = build(*hub_pairs(7))
        with pytest.raises(
            FactorSearchError,
            match=r"^regular-component factor needs mixed components and n=64 "
            r"exceeds the exact-search limit 18$",
        ):
            construct(g)
        assert targets == [{4}]


class TestOddRegular:
    def test_k10(self):
        g = complete(10)
        flow = flow_odd_regular(g)
        assert flow.k == 5
        assert verify_flow(g, flow).ok
        assert {v for v in flow.values if v < 0} <= {-4}

    def test_k12(self):
        g = complete(12)
        flow = flow_odd_regular(g)
        assert verify_flow(g, flow).ok

    def test_random_nine_and_eleven(self):
        for n, r, seed in [(16, 9, 0), (20, 11, 1)]:
            g = random_regular(n, r, seed)
            flow = flow_odd_regular(g)
            assert verify_flow(g, flow).ok
            assert set(flow.values) <= {1, 2, 3, 4, -4}

    def test_r5_rejected(self):
        with pytest.raises(UnsupportedDegreeError, match=r"^need odd r >= 7, got r=5$"):
            flow_odd_regular(complete(6))


# name -> (graph, crc32 of construct(g).values).  Every graph but the two hubs
# has a perfect matching M.  At r = 7 the flow is 3 on M, and G - M is halved
# once along its Euler circuits into two 3-regular factors, -2 on the first
# half and 1 on the second.  At r = 9 it is -2 on M plus a weighting of G - M:
# the sorted 2-factor values {-1, -1, 1, 2} halved twice, -1 on one 4-regular
# half and the other halved again into a 2-regular half at 1 and one at 2.
# At r = 11, G - M is halved once along its Euler circuits into two 5-regular
# halves; the second takes -3, and M with the first is a 6-regular part halved
# once more into two 3-regular factors valued 2 and 3.  Where a halved part's
# values are unequal, as in r7_mixed_hub's 4-regular part {1, 2}, the halving
# replaces the split of its cover.  The hubs have no perfect matching: r9_hub pins the signed double
# cover, and r7_mixed_hub (7 ≢ 3 mod 6) pins the paper's construction on a
# mixed [3, 4]-factor.  r19_n60 and r6_n41 each split one out/in cover of
# the whole piece: at r = 19 that of G - M's nine 2-factors valued -1 and 1,
# which peels, and at r = 6 on odd order that of the three 2-factors valued
# -1, -1 and 2, whose walk closes only odd circuits.
GOLDEN_CONSTRUCT = {
    "r7_n20": (random_regular(20, 7, seed=1), 0x923BC61C),
    "r7_n100": (random_regular(100, 7, seed=2), 0x94F4FABC),
    "r7_n400": (random_regular(400, 7, seed=3), 0x70F05444),
    "r7_circulant": (circulant(10, {1, 2, 3, 5}), 0xFE9D850B),
    "r7_k8": (complete(8), 0x95DBCA86),
    "r9_n60": (random_regular(60, 9, seed=4), 0xE3C47A1D),
    "r9_k10": (complete(10), 0xDB8DFEE9),
    "r9_hub": (build(*hub_pairs(9)), 0x06E136BD),
    "r7_mixed_hub": (_gadget_hub(7, (1, 1, 1, 1, 3)), 0x5A3506D3),
    "r11_n60": (random_regular(60, 11, seed=5), 0x89EDD82F),
    "r11_k12": (complete(12), 0xED0069FA),
    "r19_n60": (random_regular(60, 19, seed=7), 0x46F93D2D),
    "r6_n41": (random_regular(41, 6, seed=8), 0xC2DC3647),
}

# (name, target) -> crc32 of the sorted edge ids of find_exact_factor on the
# GOLDEN_CONSTRUCT graph at its k and k - 1; construct no longer queries the
# gadget on these graphs, so this pins it directly.
GOLDEN_EXACT_FACTOR = {
    ("r7_n20", 4): 0x71ACD3A3,
    ("r7_n20", 3): 0x41F80B99,
    ("r7_n100", 4): 0x71DF4418,
    ("r7_n100", 3): 0x7C313CBA,
    ("r7_n400", 4): 0x2E8ABF7A,
    ("r7_n400", 3): 0x4F07A8FE,
    ("r7_circulant", 4): 0xF31DDC1A,
    ("r7_circulant", 3): 0xB2C3B97B,
    ("r7_k8", 4): 0xC9955CDF,
    ("r7_k8", 3): 0xCEEF04A5,
    ("r9_n60", 6): 0xAD06495C,
    ("r9_n60", 5): 0xFBBF502C,
    ("r9_k10", 6): 0x59B1AB63,
    ("r9_k10", 5): 0xF54EFE50,
    ("r11_n60", 7): 0x1526D88F,
    ("r11_n60", 6): 0x168288EC,
    ("r11_k12", 7): 0xC03AA416,
    ("r11_k12", 6): 0x47906A02,
}

# name -> (construction, graph, crc32 of its values).  These call the paper's
# [k-1, k]-factor construction directly: r7_mixed_hub weights both a 3-regular
# and a 4-regular part (found by the split search), r9_lower_hub only a
# 5-regular part (the exact (k-1) query), the others only a k-regular part.
GOLDEN_FACTOR_FLOW = {
    "r7_mixed_hub": (flow_odd_regular, _gadget_hub(7, (1, 1, 1, 1, 3)), 0x5A3506D3),
    "r9_lower_hub": (flow_odd_regular, _gadget_hub(9, (1, 1, 1, 3, 3)), 0x3B98CC6C),
    "r7_k8": (flow_odd_regular, complete(8), 0x8E3D975C),
    "r9_k10": (flow_odd_regular, complete(10), 0x2BBBE98E),
    "r11_n60": (flow_odd_regular, random_regular(60, 11, seed=5), 0x1A625B7F),
    "r13_n40": (flow_odd_regular, random_regular(40, 13, seed=6), 0xCB6779EE),
}


class TestConstruct:
    def test_empty_graph_rejected(self):
        with pytest.raises(NotRegularError, match="graph is empty"):
            construct(MultiGraph(0, []))

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONSTRUCT))
    def test_golden_construct(self, name):
        g, expected = GOLDEN_CONSTRUCT[name]
        assert zlib.crc32(repr(construct(g).values).encode()) == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN_FACTOR_FLOW))
    def test_golden_factor_flow(self, name):
        build_flow, g, expected = GOLDEN_FACTOR_FLOW[name]
        assert zlib.crc32(repr(build_flow(g).values).encode()) == expected

    @pytest.mark.parametrize("name, target", sorted(GOLDEN_EXACT_FACTOR))
    def test_golden_exact_factor(self, name, target):
        g, _ = GOLDEN_CONSTRUCT[name]
        found = factorization.find_exact_factor(g, [target] * g.n)
        assert zlib.crc32(repr(sorted(found)).encode()) == GOLDEN_EXACT_FACTOR[name, target]

    @pytest.mark.parametrize("r", [7, 9, 11, 13])
    def test_perfect_matching_skips_the_gadget(self, r, monkeypatch):
        targets = []
        real = factorization.find_exact_factor

        def spy(g, target):
            targets.append(set(target))
            return real(g, target)

        monkeypatch.setattr(factorization, "find_exact_factor", spy)
        for g in (random_regular(30, r, seed=r), random_regular(60, r, seed=r + 1), complete(r + 1)):
            flow = construct(g)
            assert flow.k == 5
            assert verify_flow(g, flow).ok
        assert targets == []

    @pytest.mark.parametrize(
        "r, peels, walks, halvings",
        [(7, 0, 0, 1), (9, 0, 0, 2), (11, 0, 0, 2), (13, 0, 0, 2), (15, 0, 0, 3), (23, 0, 0, 3)],
        ids=["7", "9", "11", "13", "15", "23"],
    )
    def test_perfect_matching_takes_one_two_factorization(self, r, peels, walks, halvings, monkeypatch):
        # a piece of G - M with an even count of unequal factor values is
        # halved by a walk over g's columns, alternate edges of each circuit
        # taking the lower and the upper half of the sorted values; a piece
        # whose values agree takes that value with no walk, and any other is
        # walked once and split by value on its cover.  r = 7 halves its
        # 3-regular factor values {-2, 1} once, with no cover at all.  r = 9
        # halves its 2-factor values {-1, -1, 1, 2} twice, with no cover.
        # r = 11, 15 and 23 halve G - M once into two (r - 1)/2-regular
        # halves and put -3, -2 and -3 on the second; M with the first half
        # is halved once more at r = 11 (3-regular factor values {2, 3}) and
        # twice at r = 15 ({1, 2, 2, 2}) and r = 23 ({2, 3, 3, 3}), whose
        # uniform halves {2, 2} and {3, 3} take no walk, with no peel and no
        # cover.  r = 13 halves its 3-regular factor values {-2, -1, 1, 1}
        # twice: 1 on one 6-regular half, and the other halved again into
        # {-2} and {-1}
        calls = {"regular_component_factor": 0}
        real = flows.regular_component_factor

        def count(*args):
            calls["regular_component_factor"] += 1
            return real(*args)

        monkeypatch.setattr(flows, "regular_component_factor", count)
        g = random_regular(60, r, seed=r + 2)
        degrees = []  # of the parts of G - M that a walk over g's columns covers
        covers = []  # the splits of a cover, each fed by one walk over g's columns that halves nothing

        def cover(n, *args, _real=matching._value_split):
            covers.append(n)
            return _real(n, *args)

        monkeypatch.setattr(matching, "_value_split", cover)
        for name in ("_max_matching_ids", "_euler_tails"):
            calls[name] = 0

            def spy(n, us, vs, ids, _name=name, _real=getattr(matching, name)):
                if us is not g.us:  # the split's own work, not max_matching(g)
                    calls[_name] += 1
                elif _name == "_euler_tails":
                    degrees.append(2 * len(ids) // n)
                return _real(n, us, vs, ids)

            monkeypatch.setattr(matching, name, spy)
        flow = construct(g)
        assert verify_flow(g, flow).ok
        calls["halvings"] = len(degrees) - len(covers)
        assert calls == {
            "regular_component_factor": 0,
            "_max_matching_ids": peels,
            "_euler_tails": walks,
            "halvings": halvings,
        }

    @pytest.mark.parametrize(
        "r, bound",
        [
            (4, 115), (6, 115), (8, 115), (7, 120), (9, 115), (11, 128), (13, 110), (15, 120), (23, 115),
            (19, 150), (27, 150),
        ],
    )
    def test_peak_memory_per_edge(self, r, bound):
        # the tracemalloc peak of construct above the graph, per edge, on
        # Python 3.11 to 3.13: about 98, 92 and 83 B (r = 4, 6, 8); 108, 98,
        # 120, 94, 111 and 106 B (r = 7, 9, 11, 13, 15, 23); and 131 and
        # 120 B at r = 19 and 27, which split the out/in cover of G - M on
        # the graph's own edge ids.  Python 3.10 reads 3 to 8 B less
        g = random_regular(10_000, r, seed=1)
        construct(random_regular(50, r, seed=1))  # a warm-up fills the interpreter's caches first
        tracemalloc.start()
        try:
            construct(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * g.m

    @pytest.mark.parametrize(
        "r, n", [(r, n) for r in (5, 9, 17, 21) for n in (30, 60)] + [(33, 40), (33, 60)]
    )
    def test_halved_matching_flow_is_a_3_flow(self, r, n):
        # r ≡ 1 (mod 4) with r - 1 not 3 * 2^j: G - M is halved one to four
        # times (r = 33: four halvings and no cover), and the values stay
        # within ±2 (k = 5 is still claimed)
        for seed in (1, 2, 3):
            g = random_regular(n, r, seed=seed)
            assert 2 * len(max_matching(g)) == n
            flow = construct(g)
            assert flow.k == 5
            assert vertex_sums(g, flow.values) == [0] * n
            assert set(flow.values) <= {-2, -1, 1, 2}

    @pytest.mark.parametrize("r, n", [(r, n) for r in (7, 13, 25, 49) for n in (60, 120)])
    def test_cubic_halved_matching_flow_values(self, r, n):
        # r - 1 = 3 * 2^j: 3 on M, and G - M halved down to 3-regular factors
        # valued -2 and 1 (r = 7), and then -1, +1 pairs (r = 13, 25 and 49)
        values = {7: {3, 1, -2}, 13: {3, -2, -1, 1}, 25: {3, -2, -1, 1}, 49: {3, -2, -1, 1}}[r]
        for seed in (1, 2, 3):
            g = random_regular(n, r, seed=seed)
            flow = construct(g)
            assert flow.k == 5
            assert vertex_sums(g, flow.values) == [0] * n
            assert set(flow.values) == values

    def test_odd_order_piece_takes_the_matching_3_flow(self, monkeypatch):
        # K7 □ K2 with M the 7 cross edges: G - M is two copies of K7, whose
        # odd order leaves them no 3-regular factor, so the whole graph takes
        # the matching 3-flow, -2 on M
        pairs = [(u + s, v + s) for s in (0, 7) for u, v in complete(7).edges] + [(i, i + 7) for i in range(7)]
        g = build(14, pairs)
        cross = frozenset(e for e, (u, v) in enumerate(g.edges) if v - u == 7)
        monkeypatch.setattr(flows, "max_matching", lambda _: cross)
        flow = construct(g)
        assert flow.k == 5
        assert verify_flow(g, flow).ok
        assert set(flow.values) <= {-2, -1, 1, 2}
        assert {flow.values[e] for e in cross} == {-2}

    @pytest.mark.parametrize("r", [13, 25, 49])
    def test_complete_graph_falls_back_from_the_cubic_row(self, r, monkeypatch):
        # r - 1 = 3 * 2^j on K_{r+1}: the Euler half of G - M that is halved
        # again has a component of odd order, so the 3-regular-factor row
        # raises once and the matching 3-flow row, -2 on M, answers
        rows = []

        def spy(g, r, parts, outside, _real=flows._parts_flow):
            try:
                flow = _real(g, r, parts, outside)
            except FactorSearchError:
                rows.append((outside, "raised"))
                raise
            rows.append((outside, "answered"))
            return flow

        monkeypatch.setattr(flows, "_parts_flow", spy)
        g = complete(r + 1)
        flow = construct(g)
        assert rows == [(3, "raised"), (-2, "answered")]
        assert flow.k == 5
        assert verify_flow(g, flow).ok
        assert set(flow.values) == {-2, -1, 1, 2}

    @pytest.mark.parametrize("r, n", [(r, n) for r in (11, 15, 23, 31, 47) for n in (60, 120)])
    def test_merged_half_flow_values(self, r, n, monkeypatch):
        # r ≡ 3 (mod 4) with (r + 1)/2 = a * 2^j: -a on one Euler half of
        # G - M, and M with the other half halved down to a-regular factors,
        # 3-regular ones valued 2 and then 3 (a = 3) or 2-factors valued 1
        # and then 2 (a = 2); no matching runs but max_matching(g), so
        # nothing is peeled (k = 5 is still claimed)
        values = {11: {-3, 2, 3}, 15: {-2, 1, 2}, 23: {-3, 2, 3}, 31: {-2, 1, 2}, 47: {-3, 2, 3}}[r]
        matchings = []

        def spy(*args, _real=matching._max_matching_ids):
            matchings.append(args[0])
            return _real(*args)

        monkeypatch.setattr(matching, "_max_matching_ids", spy)
        for seed in (1, 2, 3):
            g = random_regular(n, r, seed=seed)
            flow = construct(g)
            assert flow.k == 5
            assert vertex_sums(g, flow.values) == [0] * n
            assert set(flow.values) == values
        assert matchings == [n] * 3

    def test_odd_order_half_takes_the_matching_3_flow(self, monkeypatch):
        # two copies of K11 joined by the perfect matching M of their 11
        # cross edges: G - M is two copies of K11, whose odd order leaves its
        # Euler circuits no halving into 5-regular halves, so the r = 11 row
        # raises inside and the -2 row answers
        pairs = [(u + s, v + s) for s in (0, 11) for u, v in complete(11).edges] + [(i, i + 11) for i in range(11)]
        g = build(22, pairs)
        cross = frozenset(e for e, (u, v) in enumerate(g.edges) if v - u == 11)
        raised = []

        def split(*args, _real=flows._value_split):
            try:
                return _real(*args)
            except FactorSearchError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(flows, "_value_split", split)
        flow = flows._odd_flow(g, 11, cross, flows.DEFAULT_BUDGET)
        assert raised == ["a 10-regular piece has a component of odd order and no 5-regular factor"]
        assert flow.k == 5
        assert set(flow.values) <= {-2, -1, 1, 2}
        assert vertex_sums(g, flow.values) == [0] * g.n

    @pytest.mark.parametrize(
        "parts",
        [[random_regular(60, r, seed=r + 2)] for r in (4, 7, 8, 9, 11, 13)]
        + [
            [random_regular(11, 4, seed=1), complete(5)],
            [complete(8), random_regular(20, 7, seed=1)],
            [build(*hub_pairs(9)), complete(10)],
            [cubic_no_pm()] * 2,
            [_gadget_hub(5, (1, 1, 3)), complete(6)],
        ],
        ids=["4", "7", "8", "9", "11", "13"]
        + ["r4_pair", "r7_matchings", "r9_hub_and_k10", "two_cubic_no_pm", "r5_hub_and_k6"],
    )
    def test_built_branches_take_the_whole_graph(self, parts, monkeypatch):
        # weightings read edge-id parts of the host, and every branch but the
        # factor construction and the search builds one flow on the whole
        # graph: random_regular(60, r) is connected and for odd r it has a
        # perfect matching; a disconnected input's branch applies to the
        # whole when it applies to every component
        calls = []
        for name in ("components", "subgraph_from_edges"):

            def spy(*args, _name=name, _real=getattr(flows, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(flows, name, spy)
        g = _union(*parts)
        assert verify_flow(g, construct(g)).ok
        assert calls == []

    @pytest.mark.parametrize("r", [4, 6, 7, 9])
    def test_construct_leaves_no_garbage_cycles(self, r):
        # a cycle would keep the Euler split's arc list alive after the
        # return, until the cyclic collector happens to run
        g = random_regular(60, r, seed=r)
        gc.collect()
        gc.disable()
        try:
            construct(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("r", [7, 11, 13])
    def test_hub_runs_max_matching_once(self, r, monkeypatch):
        # the branch choice's matching is the only one: the factor stage
        # goes straight to its exact-factor queries
        calls = []
        real = flows.max_matching

        def spy(g):
            calls.append(g.n)
            return real(g)

        for module in (flows, matching):
            monkeypatch.setattr(module, "max_matching", spy)
        g = build(*hub_pairs(r))
        with pytest.raises(FactorSearchError):
            construct(g)
        assert calls == [g.n]

    def test_covered_component_reuses_the_whole_matching(self, monkeypatch):
        # K8 ∪ the r = 7 hub has no perfect matching, but the whole graph's
        # matching covers K8; the hub's share shows it has none, so no
        # component runs max_matching again
        calls = []
        real = flows.max_matching

        def spy(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(flows, "max_matching", spy)
        g = _union(complete(8), _gadget_hub(7, (1, 1, 1, 1, 3)))
        flow = construct(g)
        assert calls == [24]
        assert set(flow.values[:28]) == {3, 1, -2}  # K8's matching flow, 3 on M
        assert vertex_sums(g, flow.values) == [0] * g.n

    @pytest.mark.parametrize(
        "parts, matched, factored",
        [
            ([build(*hub_pairs(5)), complete(6)], [42], [42, 36]),
            # the n = 10 gadget hub takes its own 2-factor inside the split
            ([_gadget_hub(5, (1, 1, 3)), build(*hub_pairs(5)), complete(6)], [52], [52, 10, 36]),
        ],
        ids=["hub_and_k6", "gadget_hub_hub_and_k6"],
    )
    def test_r5_components_reuse_the_whole_matching(self, parts, matched, factored, monkeypatch):
        # each component takes the dispatch with its share of the whole
        # graph's matching: no second max_matching and no inner construct
        calls = {"max_matching": [], "find_exact_factor": [], "construct": []}
        for module, name in ((flows, "max_matching"), (matching, "max_matching"), (flows, "find_exact_factor"), (flows, "construct")):

            def spy(g, *args, _name=name, _real=getattr(module, name)):
                calls[_name].append(g.n)
                return _real(g, *args)

            monkeypatch.setattr(module, name, spy)
        g = _union(*parts)
        with pytest.raises(FlowUndecidedError):
            flows.construct(g, 10**4)
        assert calls == {"max_matching": matched, "find_exact_factor": factored, "construct": [g.n]}

    def test_petersen_takes_the_matching_flow(self, searches):
        flow = construct(petersen())
        assert flow.k == 5
        assert set(flow.values) == {1, -2}
        assert verify_flow(petersen(), flow).ok
        assert searches == []

    def test_k8_via_seven_branch(self):
        flow = construct(complete(8))
        assert flow.k == 5
        assert verify_flow(complete(8), flow).ok

    def test_c6_rejected(self):
        with pytest.raises(UnsupportedDegreeError):
            construct(cycle(6))

    def test_irregular_rejected_with_witness(self):
        with pytest.raises(NotRegularError, match="vertex"):
            construct(build(3, [(0, 1), (1, 2)]))

    def test_disconnected_cubic(self):
        k4 = complete(4).edges
        g = build(8, list(k4) + [(u + 4, v + 4) for u, v in k4])
        flow = construct(g)
        assert verify_flow(g, flow).ok

    def test_many_interleaved_components(self):
        # shuffled labels and edge order put each component's edges all over
        # the edge list
        rng = random.Random(8)
        k5 = complete(5).edges
        copies = 40
        label = list(range(5 * copies))
        rng.shuffle(label)
        pairs = [(label[5 * i + u], label[5 * i + v]) for i in range(copies) for u, v in k5]
        rng.shuffle(pairs)
        g = build(5 * copies, pairs)
        flow = construct(g)
        assert flow.k == 3
        assert verify_flow(g, flow).ok

    def test_disconnected_whole_is_verified_once(self, monkeypatch):
        # the even branch builds one flow on the whole disconnected graph and
        # verifies it once; no component is verified on its own
        calls = []
        real = flows.verify_flow

        def spy(g, flow, k=None):
            calls.append(g.n)
            return real(g, flow, k)

        monkeypatch.setattr(flows, "verify_flow", spy)
        g = _union(*[complete(5)] * 40)
        assert construct(g).k == 3
        assert calls == [200]

    @pytest.mark.parametrize(
        "parts, k, factored, searched",
        [
            ([random_regular(11, 4, seed=1), complete(5)], 3, [], []),
            ([complete(8), random_regular(20, 7, seed=1)], 5, [], []),  # perfect matchings
            ([build(*hub_pairs(9)), complete(10)], 5, [], []),  # the signed cover on the whole graph
            ([cubic_no_pm(), cubic_no_pm()], 5, [], []),  # the r = 3 signed cover
            # no perfect matching in the whole: K8 takes the matching flow and
            # only the hub the factor construction
            ([complete(8), _gadget_hub(7, (1, 1, 1, 1, 3))], 5, [16], []),
            # neither a perfect matching nor a 2-factor in the whole: K6 takes
            # the matching flow and only the hub (n = 36) the search
            ([build(*hub_pairs(5)), complete(6)], None, [], [36]),
            # the n = 10 gadget hub has a 2-factor of its own: only hub_pairs(5) is searched
            ([_gadget_hub(5, (1, 1, 3)), build(*hub_pairs(5)), complete(6)], None, [], [36]),
        ],
        ids=["r4", "r7_matching", "r9_hub_and_k10", "two_cubic_no_pm", "r7_k8_and_mixed_hub", "r5_hub_and_k6", "r5_gadget_hub_hub_and_k6"],
    )
    def test_disconnected_sums_vanish_on_every_branch(self, parts, k, factored, searched, monkeypatch):
        calls = {"regular_component_factor": [], "solve": []}
        for module, name in ((flows, "regular_component_factor"), (solver, "solve")):

            def spy(g, *args, _name=name, _real=getattr(module, name)):
                calls[_name].append(g.n)
                return _real(g, *args)

            monkeypatch.setattr(module, name, spy)
        g = _union(*parts)
        if k is None:
            with pytest.raises(FlowUndecidedError):
                construct(g, budget=10**4)
        else:
            # vertex sums counted here, not by verify_flow
            flow = construct(g, budget=10**4)
            assert flow.k == k
            assert all(0 < abs(val) < k for val in flow.values)
            assert vertex_sums(g, flow.values) == [0] * g.n
        assert calls == {"regular_component_factor": factored, "solve": searched}

    @pytest.mark.parametrize("g", [complete(5), complete(8)], ids=["r4", "r7"])
    def test_negative_budget_rejected_without_search(self, g):
        with pytest.raises(ValueError, match="need budget >= 0, got -1"):
            construct(g, budget=-1)

    def test_tiny_budget_is_undecided(self):
        with pytest.raises(FlowUndecidedError):
            construct(petersen(), budget=2)

    def test_k6_takes_the_matching_flow(self, searches):
        g = complete(6)
        flow = construct(g)
        assert flow.k == 5
        assert set(flow.values) == {2, -1, -2}
        assert verify_flow(g, flow).ok
        assert searches == []

    def test_five_regular_timeout_mentions_open_status(self):
        g = circulant(8, {1, 2, 4})
        with pytest.raises(FlowUndecidedError, match="open conjecture"):
            construct(g, budget=1)

    def test_dispatcher_totality_small(self):
        cases = [
            (3, random_regular(10, 3, seed=0)),
            (4, random_regular(9, 4, seed=1)),
            (6, random_regular(10, 6, seed=2)),
            (7, random_regular(12, 7, seed=3)),
            (8, random_regular(11, 8, seed=4)),
            (9, random_regular(14, 9, seed=5)),
            (10, random_regular(12, 10, seed=6)),
            (11, random_regular(14, 11, seed=7)),
        ]
        for r, g in cases:
            flow = construct(g)
            assert verify_flow(g, flow).ok, r
            assert flow.k == (3 if r % 2 == 0 else 5)


class TestOddBranches:
    @pytest.mark.parametrize("r", [9, 15])
    def test_hub_gets_the_signed_cover(self, r, monkeypatch):
        queries = []
        real = factorization.find_exact_factor

        def spy(g, target):
            queries.append(set(target))
            return real(g, target)

        monkeypatch.setattr(factorization, "find_exact_factor", spy)
        g = build(*hub_pairs(r))
        flow = construct(g)
        assert flow.k == 5
        assert verify_flow(g, flow).ok
        assert set(flow.values) <= {2, -1, -4}
        assert queries == []

    @pytest.mark.parametrize("r", [7, 9, 11, 13, 15])
    def test_matching_unions(self, r):
        # vertex sums counted here, not by verify_flow; the perfect-matching
        # branch gives 3 on M and 3-regular factors of G - M at r = 7 and 13,
        # -3 on one Euler half of G - M and 3-regular factors valued 2 and 3
        # on M with the other half at r = 11, and values in {±1, ±2} at any
        # other r
        values = {7: {3, 1, -2}, 11: {-3, 2, 3}, 13: {3, -2, -1, 1}}.get(r)
        for seed, n in enumerate((r + 1, 2 * r, 24, 40)):
            g = _matching_union(r, n, seed)
            flow = construct(g)
            assert flow.k == 5
            if values is None:
                assert set(flow.values) <= {1, -1, 2, -2}, (r, n)
            else:
                assert set(flow.values) == values, (r, n)
            assert vertex_sums(g, flow.values) == [0] * g.n, (r, n)
            if r % 6 == 3:
                flow = flows._checked(g, flows._weighting(g, range(g.m), r, 0, [0] * g.m), 5)
                assert flow.k == 5
                assert set(flow.values) <= {2, -1, -4}, (r, n)
                assert vertex_sums(g, flow.values) == [0] * g.n, (r, n)


class TestSmallOddDegrees:
    @pytest.mark.parametrize("r, values", [(3, {1, -2}), (5, {2, -1, -2})])
    def test_random_regular_takes_the_matching_flow(self, r, values, searches):
        g = random_regular(10**4, r, seed=1)
        flow = construct(g)
        assert flow.k == 5
        assert set(flow.values) == values
        assert vertex_sums(g, flow.values) == [0] * g.n
        assert searches == []

    @pytest.mark.parametrize("g", [cubic_no_pm(), build(*hub_pairs(3))], ids=["cubic_no_pm", "hub3"])
    def test_cubic_without_matching_takes_the_cover(self, g, searches):
        assert 2 * len(matching.max_matching(g)) < g.n
        flow = construct(g)
        assert set(flow.values) == {2, -1, -4}
        assert vertex_sums(g, flow.values) == [0] * g.n
        assert searches == []

    def test_five_regular_without_matching_takes_a_two_factor(self, searches):
        g = _gadget_hub(5, (1, 1, 3))
        assert 2 * len(matching.max_matching(g)) < g.n
        flow = construct(g)
        assert set(flow.values) == {-3, 2}
        assert vertex_sums(g, flow.values) == [0] * g.n
        assert searches == []

    def test_two_factor_complement_skips_the_double_cover(self, monkeypatch):
        # the 3-regular complement's q = 6 weights are [1, 1, 1]: 2 on every
        # edge, with no split of the 2n-vertex double cover
        sizes = []
        for module in (flows, matching):

            def split(n, *args, _real=module._value_split):
                sizes.append(n)
                return _real(n, *args)

            monkeypatch.setattr(module, "_value_split", split)
        g = _gadget_hub(5, (1, 1, 3))
        assert set(construct(g).values) == {-3, 2}
        assert 2 * g.n not in sizes

    @pytest.mark.parametrize("g", [petersen(), cubic_no_pm(), _gadget_hub(5, (1, 1, 3))], ids=["petersen", "cubic_no_pm", "hub5"])
    def test_budget_below_m_is_undecided(self, g, searches):
        assert verify_flow(g, construct(g, budget=g.m)).ok
        with pytest.raises(FlowUndecidedError, match=f"budget of {g.m - 1} nodes"):
            construct(g, budget=g.m - 1)
        assert searches == []

    def test_disconnected_budget_counts_the_whole_m(self, searches):
        g = _union(petersen(), petersen())  # m = 30, each component 15
        with pytest.raises(FlowUndecidedError, match="budget of 29 nodes"):
            construct(g, budget=29)
        assert verify_flow(g, construct(g, budget=30)).ok
        assert searches == []

    def test_five_regular_hub_runs_the_search(self, searches):
        g = build(*hub_pairs(5))  # neither a perfect matching nor a 2-factor
        with pytest.raises(FlowUndecidedError, match="open conjecture"):
            construct(g, budget=10**4)
        [outcome] = searches
        assert (outcome.status, outcome.nodes) == ("undecided", 10**4 + 1)
        searches.clear()
        with pytest.raises(FlowUndecidedError, match=f"budget of {g.m - 1} nodes"):
            construct(g, budget=g.m - 1)
        assert searches == []

    def test_five_regular_search_flow_is_returned(self, monkeypatch, searches):
        g = _search_only(monkeypatch, complete(6))
        flow = construct(g, 10**4)
        [outcome] = searches
        assert outcome.status == "found" and flow is outcome.flow
        assert flow.k == 5 and verify_flow(g, flow).ok

    def test_five_regular_search_nonexistent_raises(self, monkeypatch):
        g = _search_only(monkeypatch, complete(6))
        monkeypatch.setattr(solver, "solve", lambda g, k, budget: solver.SearchOutcome("nonexistent", None, 7, budget))
        with pytest.raises(FlowNonexistentError, match="counterexample to the open 5-flow conjecture"):
            construct(g, 10**4)


def _search_only(monkeypatch, g):
    # g, with construct's matching and 2-factor queries finding nothing, so
    # that an r = 5 graph reaches the search
    monkeypatch.setattr(flows, "max_matching", lambda g: frozenset())
    monkeypatch.setattr(flows, "find_exact_factor", lambda g, target: None)
    return g


class TestFlowSerialization:
    def test_roundtrip(self):
        g = complete(4)
        flow = construct(g)
        doc = parse_flow(write_flow(flow))
        assert (doc.k, doc.n, doc.m) == (flow.k, 4, 6)
        assert doc.endpoints[0] == g.edges[0]
        assert verify_flow(g, doc.values, k=doc.k).ok

    def test_bool_values_roundtrip_as_ints(self):
        # bool is an int subclass, so IntFlow takes it; the file must hold digits
        flow = IntFlow(cycle(4), (True, -1, True, -1), 2)
        assert parse_flow(write_flow(flow)).values == (1, -1, 1, -1)

    def test_parse_missing_edge(self):
        with pytest.raises(GraphFormatError, match="missing edge"):
            parse_flow("3 3 3\n0 0 1 1\n1 1 2 -1")

    def test_parse_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_flow("3 3 2\n0 0 1 1\n0 0 1 -1")

    def test_parse_indexes_by_edge_id(self):
        doc = parse_flow("3 3 3\n2 0 2 1\n0 0 1 -1\n1 2 1 2\n")
        assert doc.values == (-1, 2, 1)
        assert doc.endpoints == ((0, 1), (2, 1), (0, 2))

    @pytest.mark.parametrize(
        "text, message",
        [
            # a header far beyond the body: the errors stay those of the lines
            ("3 3 1000000000000\n999999999999 0 1 1\n", "line 1: flow is missing edge 0"),
            ("3 3 1000000000000\n0 0 1 1\n", "line 1: flow is missing edge 1"),
            (
                "3 3 1000000000000\n999999999999 0 1 1\n999999999999 1 2 1\n",
                "line 3: duplicate edge id 999999999999",
            ),
            ("3 3 2\n1 0 1 1\n2 1 2 1\n", "line 3: edge id 2 out of range for m=2"),
        ],
    )
    def test_parse_errors_keep_their_line(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_flow(text)
        assert message in str(info.value)

    def test_parse_bad_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_flow("nope")


# mutations of the canonical flow file of construct(random_regular(12, 4,
# seed=1)): 24 edge lines, so line 25 is the last
FLOW_MUTATIONS = {
    "zero value": lambda t: _set_line(t, 5, "3 0 1 0"),
    "negative value": lambda t: _set_line(t, 5, "3 0 1 -7"),
    "loop": lambda t: _set_line(t, 5, "3 4 4 1"),
    "minus alone": lambda t: _set_line(t, 5, "3 0 1 -"),
    "leading zeros": lambda t: _set_line(t, 5, "3 0 1 007"),
    "plus sign": lambda t: _set_line(t, 5, "3 0 1 +1"),
    "non-ASCII digit": lambda t: _set_line(t, 5, "3 0 1 \u0663"),
    "5000-digit int": lambda t: _set_line(t, 5, "3 0 1 " + "9" * 5000),
    "three fields": lambda t: _set_line(t, 5, "3 0 1"),
    "five fields": lambda t: _set_line(t, 5, "3 0 1 1 1"),
    "short body": lambda t: _set_line(t, 25, None),
    "long body": lambda t: t + "24 0 1 1\n",
    "non-integer header": lambda t: _set_line(t, 1, "3 12 x"),
    "two-field header": lambda t: _set_line(t, 1, "12 24"),
    "negative header": lambda t: _set_line(t, 1, "3 -12 24"),
    "header m far past the body": lambda t: _set_line(t, 1, "3 12 1000000000000"),
    "duplicate id": lambda t: _set_line(t, 5, "2 " + t.split("\n")[4].split(" ", 1)[1]),
    "missing id": lambda t: _set_line(t, 5, None),
    "id out of range": lambda t: _set_line(t, 5, "-3 " + t.split("\n")[4].split(" ", 1)[1]),
    "field after the last newline": lambda t: t + "55",
    "line after the last newline": lambda t: t + "24 0 1 55",
    "permuted ids": lambda t: _set_line(_set_line(t, 4, t.split("\n")[4]), 5, t.split("\n")[3]),
}


class TestFlowBulkPass:
    """Canonical flow files take one bulk pass; their variants take the line scan."""

    TEXT = write_flow(construct(random_regular(12, 4, seed=1)))

    @pytest.mark.parametrize("g", [random_regular(40, r, seed=r) for r in (3, 4, 7)] + [complete(4)])
    def test_canonical_text_and_its_variants_parse_alike(self, g):
        flow = construct(g)
        text = write_flow(flow)
        assert _canonical_ints(text, _FLOW_COLUMNS) is not None
        doc = parse_flow(text)
        assert doc == FlowDocument(flow.k, g.n, g.m, flow.values, g.edges)
        # the endpoints are the pair view that g.edges is, equal and hashing alike to the tuple of pairs
        assert type(doc.endpoints) is type(g.edges)
        assert hash(doc) == hash(FlowDocument(flow.k, g.n, g.m, flow.values, tuple(g.edges)))
        for variant in _scan_variants(text):
            assert _canonical_ints(variant, _FLOW_COLUMNS) is None
            assert _outcome(parse_flow, variant) == doc
            assert type(_outcome(parse_flow, variant).endpoints) is type(g.edges)

    def test_no_edges(self):
        text = "3 5 0\n"
        assert _canonical_ints(text, _FLOW_COLUMNS) == ([3, 5, 0], 0)
        assert parse_flow(text) == FlowDocument(3, 5, 0, (), ()) == parse_flow("3 5 0")

    @pytest.mark.parametrize("mutate", FLOW_MUTATIONS.values(), ids=FLOW_MUTATIONS)
    def test_a_mutation_gives_what_its_variants_give(self, mutate):
        text = mutate(self.TEXT)
        expected = _outcome(parse_flow, text)
        for variant in _scan_variants(text):
            assert _outcome(parse_flow, variant) == expected

    def test_ids_out_of_order_read_by_id(self):
        assert parse_flow(FLOW_MUTATIONS["permuted ids"](self.TEXT)) == parse_flow(self.TEXT)

    def test_errors_name_their_line(self):
        for name, message in [
            ("duplicate id", "line 5: duplicate edge id 2"),
            ("id out of range", "line 5: edge id -3 out of range for m=24"),
            ("five fields", "line 5: expected 'edge_id u v value'"),
            ("missing id", "line 1: flow is missing edge 3"),
            ("short body", "line 1: flow is missing edge 23"),
            ("long body", "line 26: edge id 24 out of range for m=24"),
        ]:
            with pytest.raises(GraphFormatError, match=message):
                parse_flow(FLOW_MUTATIONS[name](self.TEXT))


# name -> (a fresh graph, the query); the construct rows take each branch of
# the dispatch in turn, and the r = 5 hub runs the search to its budget
QUERIES = {
    "solve": (petersen, lambda g: solve(g, 4, 10**4)),
    "flow_number": (cubic_no_pm, lambda g: flow_number(g, 5, 10**4)),
    "cross_check": (petersen, lambda g: cross_check(g, construct(g), 10**4)),
    "find_exact_factor": (lambda: complete(8), lambda g: find_exact_factor(g, [4] * g.n)),
    "regular_component_factor": (lambda: _gadget_hub(7, (1, 1, 1, 1, 3)), regular_component_factor),
    "components": (lambda: _union(petersen(), complete(4)), components),
    "construct_even": (lambda: random_regular(30, 4, seed=1), construct),
    "construct_matching": (petersen, construct),
    "construct_signed_cover": (cubic_no_pm, construct),
    "construct_r5_two_factor": (lambda: _gadget_hub(5, (1, 1, 3)), construct),
    "construct_r7_factor": (lambda: _gadget_hub(7, (1, 1, 1, 1, 3)), construct),
    "construct_search": (
        lambda: build(*hub_pairs(5)),
        lambda g: pytest.raises(FlowUndecidedError, construct, g, 10**4),
    ),
}


class TestQueriesLeaveTheirInputUntouched:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_every_slot_keeps_its_object(self, name):
        make, query = QUERIES[name]
        g = make()
        before = [getattr(g, slot) for slot in MultiGraph.__slots__]
        query(g)
        assert [slot for slot, old in zip(MultiGraph.__slots__, before) if getattr(g, slot) is not old] == []

    @pytest.mark.parametrize(
        "make, query",
        [
            (lambda: random_regular(2000, 5, seed=1), lambda g: find_exact_factor(g, [2] * g.n)),
            (lambda: random_regular(2000, 3, seed=1), lambda g: solve(g, 5, 10**4)),
        ],
        ids=["find_exact_factor", "solve"],
    )
    def test_a_query_retains_nothing_on_its_input(self, make, query):
        # the result is dropped on return, so what stays allocated is what
        # the query left behind
        g = make()
        query(MultiGraph(g.n, g.edges))  # a copy fills the interpreter's free lists first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            query(g)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * g.m
