"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
deterministic (fixed seeds, integer arithmetic); criterion 9 re-runs the
others and demands byte-identical reports.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from oracles import edge_degrees, flow_exists_by_enumeration
from zsflow.flows import constant_sum_weighting, construct, verify_flow
from zsflow.graphs import (
    MultiGraph,
    build,
    circulant,
    complete,
    components,
    cubic_no_pm,
    random_regular,
    regular_degree,
)
from zsflow.factorization import regular_component_factor, two_factorization
from zsflow.matching import has_perfect_matching
from zsflow.solver import solve


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


_reports: dict[int, str] = {}


def _record(num: int, fn) -> str:
    report = fn()
    _reports[num] = report
    return report


# ---------------------------------------------------------------------------
# deterministic corpora


def construction_corpus(r: int) -> list[tuple[str, MultiGraph]]:
    """25 seeded random r-regular graphs, n <= 40, the first two small."""
    out = []
    for i in range(25):
        rng = random.Random(7_000_000 + 1000 * r + i)
        if i == 0:
            n = r + 1
        elif i == 1:
            n = rng.randint(r + 1, 12)
        else:
            n = rng.randint(r + 1, 39)
        if (n * r) % 2:
            n += 1
        g = random_regular(n, r, seed=9_000_000 + 1000 * r + i)
        out.append((f"r{r}/{i}/n{n}", g))
    return out


def small_graph_corpus() -> list[tuple[str, MultiGraph]]:
    """50 seeded random simple graphs with at most 14 edges."""
    out = []
    for i in range(50):
        rng = random.Random(40_000 + i)
        n = rng.randint(7, 12)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(n - 2, min(14, n + 3))
        out.append((f"rand14/{i}", MultiGraph(n, sorted(rng.sample(pool, m)))))
    return out


# ---------------------------------------------------------------------------
# cubic graph enumeration (criterion 4 fixture, derived in place)


def _isomorphic(adj_a: list[frozenset[int]], adj_b: list[frozenset[int]]) -> bool:
    n = len(adj_a)
    if n != len(adj_b):
        return False
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    mapping = [-1] * n
    taken = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if taken[cand] or len(adj_b[cand]) != len(adj_a[i]):
                continue
            if all((j in adj_a[i]) == (mapping[j] in adj_b[cand]) for j in range(i)):
                mapping[i] = cand
                taken[cand] = True
                if extend(i + 1):
                    return True
                mapping[i] = -1
                taken[cand] = False
        return False

    return extend(0)


def connected_cubic_graphs(n: int) -> list[MultiGraph]:
    """All connected cubic graphs on n vertices, one per isomorphism class.

    Every cubic graph can be relabelled so vertex 0 is adjacent to 1, 2, 3,
    so enumerating the remaining pairs with degree bookkeeping and grouping
    by isomorphism covers every class exactly once.
    """
    base = [(0, 1), (0, 2), (0, 3)]
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    suffix = [[0] * (len(pairs) + 1) for _ in range(n)]
    for idx in range(len(pairs) - 1, -1, -1):
        u, v = pairs[idx]
        for w in range(n):
            suffix[w][idx] = suffix[w][idx + 1] + (1 if w in (u, v) else 0)
    need = [0, 2, 2, 2] + [3] * (n - 4)
    reps: list[MultiGraph] = []
    reps_adj: list[list[frozenset[int]]] = []
    chosen: list[tuple[int, int]] = []

    def backtrack(idx: int, left: int):
        if left == 0:
            g = MultiGraph(n, base + chosen)
            if len(components(g)) == 1:
                adj = [frozenset(w for e in g.edges if v in e for w in e if w != v) for v in range(n)]
                if not any(_isomorphic(adj, got) for got in reps_adj):
                    reps.append(g)
                    reps_adj.append(adj)
            return
        if idx == len(pairs):
            return
        u, v = pairs[idx]
        if need[u] and need[v]:
            need[u] -= 1
            need[v] -= 1
            chosen.append((u, v))
            backtrack(idx + 1, left - 2)
            chosen.pop()
            need[u] += 1
            need[v] += 1
        if need[u] <= suffix[u][idx + 1] and need[v] <= suffix[v][idx + 1]:
            backtrack(idx + 1, left)

    backtrack(0, sum(need))
    return reps


# ---------------------------------------------------------------------------
# criteria


def run_criterion_1() -> str:
    start = time.perf_counter()
    lines = []
    for r in (4, 6, 8, 10, 7, 9, 11):
        want_k = 3 if r % 2 == 0 else 5
        for name, g in construction_corpus(r):
            flow = construct(g)
            report = verify_flow(g, flow)
            assert flow.k == want_k, f"{name}: got k={flow.k}, wanted {want_k}"
            assert report.ok, f"{name}: {report.violation}"
            lines.append(f"{name} k={flow.k} verified=pass")
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"construction suite took {elapsed:.1f}s, budget is ~2 minutes"
    return "\n".join(lines)


def test_criterion_1_flow_constructions():
    with criterion(1, "flow constructions: k=3 for even r, k=5 for odd r"):
        report = _record(1, run_criterion_1)
        assert report.count("verified=pass") == 175


def run_criterion_2() -> str:
    lines = []
    for r in (3, 4, 5, 6, 7):
        for i in range(10):
            rng = random.Random(20_000 + 100 * r + i)
            n = rng.randint(max(r + 1, 6), 14)
            if (n * r) % 2:
                n += 1
            g = random_regular(n, r, seed=21_000 + 100 * r + i)
            for q in range(2 * r, 4 * r + 1, 2):
                weights = constant_sum_weighting(g, q)
                assert set(weights) <= {2, 3, 4}, (r, i, q)
                sums = [0] * g.n
                for e, (u, v) in enumerate(g.edges):
                    sums[u] += weights[e]
                    sums[v] += weights[e]
                assert sums == [q] * g.n, (r, i, q)
            lines.append(f"r{r}/{i}/n{n} q=[{2 * r}..{4 * r}] ok")
    return "\n".join(lines)


def test_criterion_2_weighting_sweep():
    with criterion(2, "constant-sum {2,3,4} weighting sweep"):
        report = _record(2, run_criterion_2)
        assert report.count(" ok") == 50


def run_criterion_3() -> str:
    g = cubic_no_pm()
    budget = 10**8
    at4 = solve(g, 4, budget)
    at5 = solve(g, 5, budget)
    pm = has_perfect_matching(g)
    assert at4.status == "nonexistent", at4.status
    assert at4.nodes <= budget
    assert at5.status == "found", at5.status
    assert verify_flow(g, at5.flow).ok
    assert pm is False
    return "\n".join(
        [
            f"solve(cubic_no_pm, 4) = {at4.status} nodes={at4.nodes}",
            f"solve(cubic_no_pm, 5) = {at5.status} nodes={at5.nodes}",
            f"has_perfect_matching = {pm}",
        ]
    )


def test_criterion_3_no_4_flow_certification():
    with criterion(3, "no-4-flow certification of the no-matching cubic graph"):
        report = _record(3, run_criterion_3)
        assert "nonexistent" in report


def run_criterion_4() -> str:
    cases: list[tuple[str, MultiGraph]] = []
    for n, expected in ((4, 1), (6, 2), (8, 5)):
        reps = connected_cubic_graphs(n)
        assert len(reps) == expected, f"cubic enumeration n={n}: {len(reps)} classes"
        cases += [(f"cubic{n}/{i}", g) for i, g in enumerate(reps)]
    cases += small_graph_corpus()
    lines = []
    for name, g in cases:
        answers = []
        for k in (2, 3, 4, 5):
            outcome = solve(g, k)
            assert outcome.status in ("found", "nonexistent"), (name, k)
            expected = flow_exists_by_enumeration(g, k)
            got = outcome.status == "found"
            assert got == expected, f"{name} k={k}: solver {got}, enumeration {expected}"
            answers.append(f"{k}={'yes' if got else 'no'}")
        lines.append(f"{name} " + " ".join(answers))
    return "\n".join(lines)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "solver agrees with full enumeration"):
        report = _record(4, run_criterion_4)
        assert len(report.splitlines()) == 8 + 50


def run_criterion_5() -> str:
    corpus: list[tuple[str, MultiGraph]] = []
    for i in range(25):
        rng = random.Random(50_000 + i)
        if i == 1:
            r, n = 11, 30  # the doubled r=11, n=30 case named by the criterion
        elif i % 2 == 0:
            r = rng.choice([4, 6, 8, 10])
            n = rng.randint(r + 1, 30)
        else:
            r = rng.choice([3, 5, 7, 9])
            n = rng.randint(r + 1, 30)
        if (n * r) % 2:
            n += 1
        g = random_regular(n, r, seed=51_000 + i)
        if r % 2:
            corpus.append((f"doubled-r{r}/n{n}/{i}", build(g.n, list(g.edges) * 2)))
        else:
            corpus.append((f"even-r{r}/n{n}/{i}", g))
    lines = []
    for name, g in corpus:
        r = regular_degree(g)
        factors = two_factorization(g)
        assert len(factors) == r // 2, name
        union: set[int] = set()
        for f in factors:
            assert edge_degrees(g, f) == [2] * g.n, name
            assert union.isdisjoint(f), name
            union |= f
        assert union == set(range(g.m)), name
        lines.append(f"{name} factors={len(factors)} ok")
    return "\n".join(lines)


def test_criterion_5_two_factorization():
    with criterion(5, "2-factorization invariants on 25 multigraphs"):
        report = _record(5, run_criterion_5)
        assert report.count(" ok") == 25


def run_criterion_6() -> str:
    lines = []
    for r in (7, 9, 11):
        k = 2 * r // 3
        for name, g in construction_corpus(r):
            lower, upper = regular_component_factor(g)  # FactorSearchError = suite failure
            assert lower.isdisjoint(upper), name
            # every vertex lies in exactly one part, with that part's degree:
            # then no factor edge joins the parts and every component is regular
            pairs = set(zip(edge_degrees(g, lower), edge_degrees(g, upper)))
            assert pairs and pairs <= {(k - 1, 0), (0, k)}, name
            tags = sorted(lo + up for lo, up in pairs)
            lines.append(f"{name} k={k} component_degrees={tags[0]}..{tags[-1]}")
    return "\n".join(lines)


def test_criterion_6_regular_component_factor():
    with criterion(6, "regular-component [k-1,k]-factors on the odd corpus"):
        report = _record(6, run_criterion_6)
        assert len(report.splitlines()) == 75


def run_criterion_7() -> str:
    from zsflow.solver import cross_check

    lines = []
    for r in (4, 6, 8, 10, 7, 9, 11):
        for name, g in construction_corpus(r):
            if g.n > 12:
                continue
            flow = construct(g)
            check = cross_check(g, flow, budget=200_000)
            assert check.consistent, f"{name}: solver proved nonexistence at k={flow.k}"
            smaller = "-" if check.smaller_k is None else check.smaller_k
            lines.append(f"{name} claimed={check.claimed_k} at_claimed={check.status_at_claimed} smaller={smaller}")
    assert lines
    return "\n".join(lines)


def test_criterion_7_cross_check():
    with criterion(7, "solver cross-check on small constructed flows"):
        _record(7, run_criterion_7)


def run_criterion_8() -> str:
    graphs: list[tuple[str, MultiGraph]] = [
        ("K6", complete(6)),
        ("circ8", circulant(8, {1, 2, 4})),
        ("circ10", circulant(10, {1, 2, 5})),
        ("circ12", circulant(12, {1, 2, 6})),
        ("circ14", circulant(14, {1, 4, 7})),
        ("circ16", circulant(16, {1, 3, 8})),
    ]
    for i, n in enumerate((8, 12, 14, 16)):
        graphs.append((f"rand5/{n}", random_regular(n, 5, seed=80_000 + i)))
    lines = []
    for name, g in graphs:
        outcome = solve(g, 5, budget=2_000_000)
        if outcome.status == "nonexistent":
            raise AssertionError(
                f"NONEXISTENCE at k=5 for {name}: a 5-regular graph with no "
                "zero-sum 5-flow would settle the open conjecture; inspect immediately"
            )
        if outcome.status == "found":
            assert verify_flow(g, outcome.flow).ok, name
        lines.append(f"{name} r=5 {outcome.status} nodes={outcome.nodes}")
    return "\n".join(lines)


def test_criterion_8_five_regular_evidence():
    with criterion(8, "5-regular experiment (evidence for the open case)"):
        report = _record(8, run_criterion_8)
        assert len(report.splitlines()) == 10


def test_criterion_9_determinism():
    with criterion(9, "determinism: byte-identical reruns"):
        runs = {
            1: run_criterion_1,
            2: run_criterion_2,
            3: run_criterion_3,
            4: run_criterion_4,
            5: run_criterion_5,
            6: run_criterion_6,
            7: run_criterion_7,
            8: run_criterion_8,
        }
        for num, fn in runs.items():
            first = _reports.get(num, None)
            if first is None:
                first = fn()
            assert fn() == first, f"criterion {num} report changed between runs"
