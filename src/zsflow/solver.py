"""Exhaustive backtracking search for zero-sum k-flows.

The solver is the package's independent oracle: it decides existence by
exhausting the value alphabet {±1, ..., ±(k-1)} over the edges, so a
"nonexistent" answer is a certificate that the whole space was searched.

Edge order is most-constrained-vertex first, so the last edge at each
vertex is forced to the negated partial sum.  A vertex with r > 0
unassigned edges sits in bucket r, an insertion-ordered dict, and the next
edge is the lowest unassigned edge id of the vertex most recently put into
the lowest non-empty bucket.  Assigning an edge moves its two endpoints
down one bucket and backtracking moves them back, so choosing an edge costs
O(max degree), whatever the size of the graph.  A partial sum that the
remaining edges cannot cancel prunes the branch.  The test is
exact: r' more values from the alphabet can cancel a sum s exactly when
|s| <= (k-1)r', s != 0 if r' = 1, and s ≡ r' (mod 2) if k = 2, since the
sums of r' values are {0} for r' = 0, the alphabet itself for r' = 1, every
integer in [-(k-1)r', (k-1)r'] for r' >= 2 when k >= 3, and the integers of
that range with the parity of r' when k = 2.  On the empty assignment
(s = 0, r' = deg v) that refutes a degree of 1, and an odd degree at k = 2,
before any node; after it, s + r' keeps its parity at k = 2.

The first edge tries only positive values (negating a flow preserves every
constraint).  Every other edge uw not forced tries the whole alphabet, so
"nonexistent" stays a certificate, in the order of `_toward_zero`: the
values c that bring both endpoint sums nearest zero first, by
|psum[u] + c| + |psum[w] + c|, then by |c|, then + before -.  The
prune's interval is centred on zero, so a small sum keeps the most
completions open, and it keeps the forced last values small, so that the
two ends of a closing edge agree more often.  k = 3 keeps 1, -1, 2, -2: over
150 random 5-regular graphs (n = 12-28) the reordered search took 35 % more
nodes at k = 3 (25 785 -> 34 710), and a flow number scan on odd degrees
stops there.  Each edge's order is made as the search reaches it, so the
budget, not k, bounds the memory.

The search is up to ten runs from the empty assignment: the vertices enter
the buckets in id order, then from ⌊i·n/9⌋ on for the probes i = 1, ..., 8,
each run stopping at 4m nodes, and then in id order on the rest of the
budget.  Every run searches the whole space, so "nonexistent" from any run
is a certificate.  Node counts add up over the runs, 4m for a stopped one,
and a budget only cuts them: a search within 4m nodes is the first run
alone, and a proof past 4m costs 36m more.  Where the first run is cut,
and only there, one O(m) pass reads the graph's structure
(`graphs._coloop_and_even_bridges`).  An edge that is a coloop of the
unsigned incidence matrix refutes every k: the search returns
"nonexistent" at the 4m nodes spent, naming the edge in
`SearchOutcome.coloop`.  Otherwise the probes and the last run skip the odd
values of each even bridge, an edge whose two sides are both non-bipartite
and which carries -2 times the sum over one side.  The skip filters each
edge's lazy order, so a forced odd value is rejected and a skipped value is
not a node.  A search that ends within its first run never pays for the
pass, and keeps its node count and flow.  Equal inputs give equal
outcomes and node counts.  The search is one loop over an explicit stack,
so its depth is bounded by memory, not by the recursion limit, and it
changes no interpreter-wide setting.  Each `solve` builds its own
incidence lists after the degree refutations and drops them on return, so
the graph keeps nothing.  `flow_number` and `cross_check` search only
through `solve`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, filterfalse, zip_longest

from .flows import DEFAULT_BUDGET, IntFlow, _checked, verify_flow
from .graphs import MultiGraph, _coloop_and_even_bridges, _incidence

_PROBES = 8  # runs from rotated start vertices after the first, each of 4m nodes


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one exhaustive search: status, flow, and work counter.

    status is "found", "nonexistent" (space exhausted), or "undecided"
    (budget hit).  nodes counts attempted value assignments.  coloop names
    an edge that no zero-sum flow can use, when the search met one: the
    graph then has no flow at any k.
    """

    status: str
    flow: IntFlow | None
    nodes: int
    budget: int
    coloop: int | None = None


@dataclass(frozen=True)
class FlowNumberResult:
    """Minimal k with a zero-sum k-flow, when decidable within k_max."""

    k: int | None
    status: str
    outcomes: dict[int, SearchOutcome]


@dataclass(frozen=True)
class CrossCheckReport:
    """Solver-vs-construction comparison for one constructed flow."""

    claimed_k: int
    status_at_claimed: str
    consistent: bool
    smaller_k: int | None


def _toward_zero(a: int, b: int, kmax: int) -> Iterator[int]:
    """±1, ..., ±kmax by |a + c| + |b + c| ascending, then by |c|, then + before -.

    The cost is |a - b| on [lo, hi] = [-max(a, b), -min(a, b)] and 2d more
    at hi + d and lo - d.  Clipping lo and hi to [-kmax, kmax] keeps the
    order.  min and max are spelt out, as their calls made the whole search
    about 12 % slower on cubic graphs at k = 5.
    """
    lo, hi = (-a, -b) if a > b else (-b, -a)
    lo = -kmax if lo < -kmax else kmax if lo > kmax else lo
    hi = -kmax if hi < -kmax else kmax if hi > kmax else hi
    if lo > 0:
        yield from range(lo, hi + 1)
    elif hi < 0:
        yield from range(hi, lo - 1, -1)
    else:
        for t in range(1, (hi if hi > -lo else -lo) + 1):
            if t <= hi:
                yield t
            if -t >= lo:
                yield -t
    # hi + d is the nearer to zero, or positive at a tie, when lo + hi <= 0
    up, down = range(hi + 1, kmax + 1), range(lo - 1, -kmax - 1, -1)
    for c, e in zip_longest(up, down, fillvalue=0) if lo + hi <= 0 else zip_longest(down, up, fillvalue=0):
        if c:
            yield c
        if e:
            yield e


def solve(g: MultiGraph, k: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Decide whether a zero-sum k-flow exists, exhaustively up to budget."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    degrees = g.degrees()
    if 1 in degrees:  # the prune below, at s = 0 and r' = 1; the one edge at the vertex is a coloop
        v = degrees.index(1)
        return SearchOutcome("nonexistent", None, 0, budget, g.us.index(v) if v in g.us else g.vs.index(v))
    if k == 2 and any(d & 1 for d in degrees):
        return SearchOutcome("nonexistent", None, 0, budget)  # the prune below, at s = 0 and r' = deg v
    inc = _incidence(g)
    n, m = g.n, g.m
    us, vs = g.us, g.vs
    kmax = k - 1
    positives = range(1, k)
    levels = range(1, max(degrees, default=0) + 1)
    # two lists, not one of (e, values) tuples: a deep search would leave up
    # to 2000 of its tuples allocated in the interpreter's tuple free list
    stack: list[int] = []  # the assigned edges, in order
    tried: list[Iterator[int]] = []  # tried[i]: the values left to try at stack[i]
    val: list[int] = []  # made afresh as each run starts; with m = 0 no run starts
    even: bytearray | None = None  # the even bridges, once the first run is cut
    nodes, run, limit = 0, 0, min(4 * m, budget)
    while len(stack) < m:
        if not stack:  # a run starts: its vertices enter the buckets from ⌊run·n/9⌋ on, then wrap
            val = [0] * m
            psum = [0] * n
            rem = list(degrees)
            bucket: list[dict[int, None]] = [{} for _ in range(len(levels) + 1)]  # bucket[r]: rem[v] == r > 0
            for v in chain(range(start := run * n // (_PROBES + 1), n), range(start)):  # the last run's n: id order
                if rem[v]:
                    bucket[rem[v]][v] = None
        for r in levels:
            if bucket[r]:
                break
        for e in inc[next(reversed(bucket[r]))]:
            if val[e] == 0:
                break
        u = us[e]
        w = vs[e]
        if rem[u] == 1 or rem[w] == 1:
            # the endpoint at its last edge forces -psum, which the exact prune
            # keeps in the alphabet, as no vertex starts at degree 1
            s = psum[u] if rem[u] == 1 else psum[w]
            cands = (-s,) if rem[u] + rem[w] > 2 or psum[u] == psum[w] else ()
        elif not stack:
            cands = positives
        elif k == 3:
            cands = (1, -1, 2, -2)
        else:
            cands = _toward_zero(psum[u], psum[w], kmax)
        values = iter(cands) if even is None or not even[e] else filterfalse((1).__and__, cands)
        while True:
            for c in values:
                nodes += 1
                if nodes > limit:
                    break
                su = psum[u] + c
                ru = rem[u] - 1
                if abs(su) > kmax * ru or ru == 1 and not su:
                    continue
                sw = psum[w] + c
                rw = rem[w] - 1
                if not (abs(sw) > kmax * rw or rw == 1 and not sw):
                    break
            else:
                # e has no value left: undo its parent and resume the parent's values
                if not stack:
                    return SearchOutcome("nonexistent", None, nodes, budget)
                e = stack.pop()
                values = tried.pop()
                u = us[e]
                w = vs[e]
                c = val[e]
                ru = rem[u]
                rw = rem[w]
                if ru:
                    del bucket[ru][u]
                if rw:
                    del bucket[rw][w]
                bucket[ru + 1][u] = None
                bucket[rw + 1][w] = None
                val[e] = 0
                psum[u] -= c
                psum[w] -= c
                rem[u] = ru + 1
                rem[w] = rw + 1
                continue
            break
        if nodes > limit:  # the run spent its nodes: the next starts over, its node uncounted
            if not run and limit == 4 * m:  # the first run is cut: look for coloops and even bridges once
                coloop, flags = _coloop_and_even_bridges(g, inc)
                if coloop is not None:
                    return SearchOutcome("nonexistent", None, limit, budget, coloop)
                even = flags if 1 in flags else None
            if limit == budget:
                return SearchOutcome("undecided", None, nodes, budget)
            nodes, run, stack, tried = limit, run + 1, [], []
            limit = min(limit + 4 * m, budget) if run <= _PROBES else budget
            continue
        val[e] = c
        psum[u] = su
        psum[w] = sw
        rem[u] = ru
        rem[w] = rw
        del bucket[ru + 1][u]
        del bucket[rw + 1][w]
        if ru:
            bucket[ru][u] = None
        if rw:
            bucket[rw][w] = None
        stack.append(e)
        tried.append(values)

    return SearchOutcome("found", _checked(g, val, k), nodes, budget)


def flow_number(g: MultiGraph, k_max: int, budget: int = DEFAULT_BUDGET) -> FlowNumberResult:
    """Smallest k <= k_max admitting a zero-sum k-flow.

    Scans k upward; a flow found at k is minimal because existence is
    monotone in k.  An undecided scan step propagates as undecided, since
    the true minimum might hide there.  An outcome that names a coloop
    rules out every k, so the scan stops there.
    """
    if k_max < 2:
        raise ValueError(f"need k_max >= 2, got {k_max}")
    outcomes: dict[int, SearchOutcome] = {}
    for k in range(2, k_max + 1):
        outcome = outcomes[k] = solve(g, k, budget)
        if outcome.status == "found":
            return FlowNumberResult(k, "found", outcomes)
        if outcome.status == "undecided":
            return FlowNumberResult(None, "undecided", outcomes)
        if outcome.coloop is not None:
            break
    return FlowNumberResult(None, "nonexistent", outcomes)


def cross_check(g: MultiGraph, flow: IntFlow, budget: int = DEFAULT_BUDGET) -> CrossCheckReport:
    """Compare a constructed flow against the exact search.

    Consistency means the solver never proves nonexistence at the claimed
    bound.  A strictly smaller feasible k is flagged as useful data, not a
    failure; the scan below the claim stops at the first undecided step.
    """
    report = verify_flow(g, flow)
    if not report.ok:
        raise ValueError(f"constructed flow fails verification: {report.violation}")
    claimed = flow.k
    at_claimed = solve(g, claimed, budget)
    smaller = flow_number(g, claimed - 1, budget).k if claimed > 2 else None
    return CrossCheckReport(claimed, at_claimed.status, at_claimed.status != "nonexistent", smaller)
