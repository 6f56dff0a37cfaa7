"""The three seeded workloads: corpus generation and one timed call per item.

A corpus is a list of rounds; a round holds one item per size class of its
workload, so every round has the same mix.  Graphs come from the seed only:
item ``i`` of round ``j`` uses a generator seed hashed from
``(workload, seed, j, i)``.  The library sees nothing but the generated
graphs (and, on ``even``, the edge-list files written from them).

Each call returns an ``Outcome``: the wall time of the library calls alone,
whether the call failed, and a signature of everything deterministic about
the result, which must repeat exactly whenever the item runs again.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from check import check_flow, check_flow_file, contract_k, read_edge_list, write_edge_list

# Wall time of one round at the seed commit on a 2-core VM, the benchmark's
# own checking included.  It sizes the corpus to as many rounds as fit into
# --seconds; the corpus is then fixed, whatever the speed of the code under
# test.
ROUND_S = {"even": 5.0, "odd": 10.5, "search": 0.6}

EVEN_DEGREES = (4, 6, 8)
EVEN_SIZES = tuple(range(200, 1601, 100))
# (r, n) classes whose construct takes 0.05-0.3 s.  r = 7 and 9 stay at
# n = 200: above that their per-graph cost spreads 4-5x and a few slow
# graphs would set the tail; the r = 11 and 13 classes spread 1.4-2x.
ODD_CLASSES = ((7, 200), (9, 200), (11, 150), (11, 200), (13, 100), (13, 150))
ODD_PER_CLASS = 10
HUB_DEGREE = 7
# Many short searches (their found flows give a nearly fixed number of
# edges per round) and many budget-bound ones, so that the few long searches
# that happen to find a flow early average out within a run.  Every search
# has the same node budget: unbounded, the 3-flow search on a few 5-regular
# graphs with n = 18-30 takes up to 600 000 nodes, and how many of those a
# seed drew moved verified_edges_per_s by 10 %.
SHORT_SIZES = (10, 14, 18, 22, 26, 30)
SHORT_PER_SIZE = 3
LONG_SIZES = (60, 100, 100, 200, 200, 200, 200)
BUDGET = 10_000


@dataclass
class Item:
    label: str
    kind: str  # "cli", "construct", "flow_number" or "solve"
    n: int
    m: int
    r: int
    graph: object = None
    path: str = ""
    k: int = 5
    budget: int = 0
    expect: str = ""  # "nonexistent" when the answer is a known certificate


@dataclass
class Outcome:
    wall: float
    failed: bool = False
    reason: str = ""
    incorrect: bool = False  # the independent checker rejected what came back
    edges: int = 0  # m of the graph when its flow passed the checker
    nodes: int = 0
    status: str = ""
    sig: tuple = field(default_factory=tuple)
    start: float = 0.0  # perf_counter() when the call began
    scaled: float = 0.0  # wall divided by the host speed around the call


def graph_seed(workload: str, seed: int, round_idx: int, idx: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{round_idx}:{idx}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def hub_pairs(r: int) -> tuple[int, list[tuple[int, int]]]:
    """A centre joined to r copies of K_{r+2}, each minus a 2-path and a matching.

    In each copy the middle vertex of the removed 2-path has degree r-1 and
    takes the edge to the centre; the copy's other r+1 vertices lose one
    edge each (the path ends and a perfect matching of the rest).  The graph
    is r-regular with n = 1 + r(r+2), has no perfect matching, and has no
    exact k- or (k-1)-factor for the k its construction asks for.
    """
    size = r + 2
    pairs = []
    for i in range(r):
        vs = list(range(1 + i * size, 1 + (i + 1) * size))
        removed = {(vs[0], vs[1]), (vs[1], vs[2])}
        rest = vs[3:]
        removed |= {(rest[j], rest[j + 1]) for j in range(0, len(rest), 2)}
        pairs += [
            (vs[a], vs[b])
            for a in range(size)
            for b in range(a + 1, size)
            if (vs[a], vs[b]) not in removed
        ]
        pairs.append((0, vs[1]))
    return 1 + r * size, pairs


def make_round(workload: str, zs, seed: int, round_idx: int, workdir) -> list[Item]:
    """One round of the corpus, generated with the library's own generators."""
    items: list[Item] = []

    def random_graph(n: int, r: int):
        return zs.graphs.random_regular(n, r, seed=graph_seed(workload, seed, round_idx, len(items)))

    if workload == "even":
        for r in EVEN_DEGREES:
            for n in EVEN_SIZES:
                g = random_graph(n, r)
                path = workdir / f"g{round_idx}-{len(items)}.txt"
                path.write_text(write_edge_list(g.n, g.edges))
                items.append(Item(f"r{r}-n{n}", "cli", n, g.m, r, path=str(path)))
    elif workload == "odd":
        for _ in range(ODD_PER_CLASS):
            for r, n in ODD_CLASSES:
                g = random_graph(n, r)
                items.append(Item(f"r{r}-n{n}", "construct", n, g.m, r, graph=g))
        g = zs.graphs.build(*hub_pairs(HUB_DEGREE))
        items.append(Item(f"hub-r{HUB_DEGREE}", "construct", g.n, g.m, HUB_DEGREE, graph=g))
    elif workload == "search":
        for _ in range(SHORT_PER_SIZE):
            for r in (3, 5):
                for n in SHORT_SIZES:
                    g = random_graph(n, r)
                    items.append(Item(f"fn-r{r}-n{n}", "flow_number", n, g.m, r, g, budget=BUDGET))
        g = zs.graphs.cubic_no_pm()
        items.append(
            Item("nopm-k4", "solve", g.n, g.m, 3, g, k=4, budget=BUDGET, expect="nonexistent")
        )
        for n in LONG_SIZES:
            g = random_graph(n, 3)
            items.append(Item(f"solve-r3-n{n}", "solve", n, g.m, 3, g, budget=BUDGET))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def _digest(values) -> int:
    return zlib.crc32(",".join(map(str, values)).encode())


def call(zs, item: Item, workdir) -> Outcome:
    if item.kind == "cli":
        return _call_cli(zs, item, workdir)
    if item.kind == "construct":
        return _call_construct(zs, item)
    return _call_search(zs, item)


def _call_cli(zs, item: Item, workdir) -> Outcome:
    """construct through the CLI, then the CLI's own verify of the flow file."""
    flow_path = workdir / "flow.txt"
    flow_path.unlink(missing_ok=True)
    flow, report, vreport = str(flow_path), str(workdir / "report.txt"), str(workdir / "verify.txt")
    sink = io.StringIO()
    verify_code = None
    with redirect_stdout(sink), redirect_stderr(sink):
        start = perf_counter()
        code = zs.cli.main(["construct", item.path, "--flow-out", flow, "--out", report])
        if code == 0:
            verify_code = zs.cli.main(["verify", item.path, flow, "--out", vreport])
        wall = perf_counter() - start
    if code != 0:
        message = sink.getvalue().strip().splitlines()
        reason = f"construct exit {code}: {message[0] if message else ''}"[:80]
        return Outcome(wall, True, reason, sig=(code,))
    text = flow_path.read_text()
    n, edges = read_edge_list(Path(item.path).read_text())
    violation = check_flow_file(text, n, edges, (contract_k(item.r),))
    sig = (code, verify_code, _digest([text]))
    if violation:
        return Outcome(wall, True, f"checker: {violation}", True, sig=sig)
    if verify_code != 0:
        return Outcome(wall, True, f"verify exit {verify_code}", sig=sig)
    return Outcome(wall, edges=item.m, sig=sig)


def _call_construct(zs, item: Item) -> Outcome:
    g = item.graph
    start = perf_counter()
    try:
        flow = zs.flows.construct(g)
    except Exception as exc:  # a library failure is a counted outcome, never a crash
        wall = perf_counter() - start
        return Outcome(wall, True, f"{type(exc).__name__}: {exc}"[:80], sig=(type(exc).__name__,))
    wall = perf_counter() - start
    sig = (flow.k, _digest(flow.values))
    violation = check_flow(g.n, g.edges, flow.values, flow.k, (contract_k(item.r),))
    if violation:
        return Outcome(wall, True, f"checker: {violation}", True, sig=sig)
    return Outcome(wall, edges=item.m, sig=sig)


def _call_search(zs, item: Item) -> Outcome:
    g = item.graph
    start = perf_counter()
    try:
        if item.kind == "flow_number":
            result = zs.solver.flow_number(g, item.k, item.budget)
        else:
            result = zs.solver.solve(g, item.k, item.budget)
    except Exception as exc:
        wall = perf_counter() - start
        return Outcome(wall, True, f"{type(exc).__name__}: {exc}"[:80], sig=(type(exc).__name__,))
    wall = perf_counter() - start
    if item.kind == "flow_number":
        nodes = sum(o.nodes for o in result.outcomes.values())
        flow = result.outcomes[result.k].flow if result.status == "found" else None
        allowed = range(2, item.k + 1)
    else:
        nodes, flow, allowed = result.nodes, result.flow, (item.k,)
    status = result.status
    sig = (status, nodes, _digest(flow.values) if flow else 0)
    out = Outcome(wall, nodes=nodes, status=status, sig=sig)
    if item.expect and status != item.expect:
        violation = f"status {status}, the known answer is {item.expect}"
    elif status == "nonexistent" and not item.expect:
        violation = f"nonexistent for r={item.r}: a theorem (r=3) or the 5-flow conjecture (r=5) says otherwise"
    elif flow is not None:
        violation = check_flow(g.n, g.edges, flow.values, flow.k, allowed)
    else:
        violation = None
    if violation:
        out.failed, out.incorrect, out.reason = True, True, f"checker: {violation}"
    elif flow is not None:
        out.edges = item.m
    return out
