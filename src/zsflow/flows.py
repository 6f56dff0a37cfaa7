"""Zero-sum integer flow constructions and the flow verifier.

A zero-sum k-flow assigns a value from {±1, ..., ±(k-1)} to every edge so
that each vertex's incident values sum to zero.  Constructions here cover
even regular degree r >= 4 with k=3 and odd degrees 7 and >= 9 with k=5;
degrees 3 and 5 route through the exact search in `solver`.

For r = 7 and odd r >= 9, `construct` picks the cheapest construction the
input allows: a 3-flow from a perfect matching and one 2-factorization of
the rest when the graph has a perfect matching, else the signed double
cover when r ≡ 3 (mod 6), else the paper's [k-1, k]-factor construction
(`flow_seven_regular`, `flow_odd_regular`).  All three report k = 5.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    FlowNonexistentError,
    FlowUndecidedError,
    GraphFormatError,
    NotRegularError,
    UnsupportedDegreeError,
)
from .factorization import regular_component_factor, two_factorization
from .graphs import MultiGraph, components, double_cover, regular_degree, subgraph_from_edges
from .matching import _euler_split, max_matching


@dataclass(frozen=True, eq=False)
class IntFlow:
    """Total nonzero integer edge labelling claiming the bound k.

    ``values[e]`` is the label of edge e; every label is nonzero with
    absolute value at most k-1.  Construction enforces the invariants, so
    an IntFlow instance is well-formed by definition (whether the vertex
    sums vanish is the verifier's question).
    """

    host: MultiGraph
    values: tuple[int, ...]
    k: int

    def __post_init__(self):
        values = self.values
        if len(values) != self.host.m:
            raise ValueError(f"flow has {len(values)} values for {self.host.m} edges")
        bad = _first_bad_value(values, max(map(abs, values), default=0), self.k)
        if bad is not None:
            raise ValueError(bad)


def _first_bad_value(values: Sequence[int], max_abs: int, k: int) -> str | None:
    """Name the first zero or |value| > k - 1 by edge id; None when there is none."""
    if 0 in values or max_abs > k - 1:
        for e, val in enumerate(values):
            if val == 0:
                return f"zero value at edge {e}"
            if abs(val) > k - 1:
                return f"edge {e} value {val} exceeds |value| <= {k - 1}"
    return None


@dataclass(frozen=True)
class FlowReport:
    """Verification outcome: vertex sums, largest magnitude, verdict."""

    vertex_sums: tuple[int, ...]
    max_abs: int
    ok: bool
    violation: str | None
    k: int


def verify_flow(
    g: MultiGraph, flow: IntFlow | Mapping[int, int] | Sequence[int], k: int | None = None
) -> FlowReport:
    """Check a candidate flow against a graph; read-only.

    Accepts an IntFlow, a dense value sequence, or an edge-id mapping.  A
    missing edge or a claimed bound k < 2 is a usage error and raises;
    zero values, out-of-range values, and nonzero vertex sums are verdict
    failures.  The first violation is reported scanning edges by id and
    then vertices.
    """
    if isinstance(flow, IntFlow):
        if flow.host is not g and flow.host.edges != g.edges:
            raise ValueError("flow belongs to a different graph")
        values = list(flow.values)
        k = flow.k if k is None else k
    elif isinstance(flow, Mapping):
        values = list(map(flow.get, range(g.m)))
        if None in values:
            raise ValueError(f"flow is missing edge {values.index(None)}")
        if len(flow) != g.m:  # every id 0..m-1 is present, so some id is unknown
            extra = next(e for e in flow if not (0 <= e < g.m))
            raise ValueError(f"flow has unknown edge id {extra}")
    else:
        values = list(flow)
        if len(values) != g.m:
            raise ValueError(f"flow has {len(values)} values for {g.m} edges")
    if k is None:
        raise ValueError("a claimed bound k is required")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")

    max_abs = max(map(abs, values), default=0)
    violation = _first_bad_value(values, max_abs, k)
    sums = [0] * g.n
    for (u, v), val in zip(g.edges, values):
        sums[u] += val
        sums[v] += val
    if violation is None and any(sums):
        v = next(v for v, total in enumerate(sums) if total)
        violation = f"vertex {v} sum {sums[v]}"
    return FlowReport(tuple(sums), max_abs, violation is None, violation, k)


# ---------------------------------------------------------------------------
# edge weightings with constant vertex sums


def constant_sum_weighting(g: MultiGraph, q: int) -> tuple[int, ...]:
    """Positive edge weights whose sum at every vertex is exactly q.

    Every weight is floor(q/r) or ceil(q/r), so it lies in {2, 3, 4}
    whenever q >= 2r.  Even r accepts every even q with r <= q <= 4r:
    two-factor i (0 <= i < s = r/2, in `two_factorization`'s order) gets
    weight (q/2 + i) // s, and these s weights add up to exactly q/2
    (Hermite's identity).  Odd r accepts every even q with 2r <= q <= 4r:
    weight the r perfect matchings of the bipartite double cover with 2s
    then 1s; an edge's weight is the sum over its two arcs, and every
    vertex is the tail of one arc and the head of one arc in each matching.
    """
    r = regular_degree(g)
    if r is None or r < 1:
        raise NotRegularError("constant_sum_weighting needs a regular graph with r >= 1")
    if q % 2:
        raise ValueError(f"q must be even, got {q}")
    lo = r if r % 2 == 0 else 2 * r
    if not (lo <= q <= 4 * r):
        raise ValueError(f"q must lie in [{lo}, {4 * r}], got {q}")
    if r % 2:
        twos = (q - 2 * r) // 2
        return tuple(_cover_weighting(g, [2] * twos + [1] * (r - twos)))
    s = r // 2
    out = [0] * g.m
    for i, factor in enumerate(two_factorization(g)):
        for e in factor:
            out[e] = (q // 2 + i) // s
    return tuple(out)


def _cover_weighting(g: MultiGraph, weights: Sequence[int]) -> list[int]:
    """Edge values from one weight per perfect matching of the double cover.

    The r-regular bipartite double cover splits into r perfect matchings, in
    `_euler_split`'s order; matching i carries ``weights[i]``, and edge e gets
    the sum over its arcs 2e and 2e + 1.  Every vertex is the tail of one arc
    and the head of one arc in each matching, so each vertex sums to
    2 * sum(weights).
    """
    matchings = _euler_split(2 * g.n, double_cover(g), [True] * g.n + [False] * g.n, len(weights))
    out = [0] * g.m
    for w, pm in zip(weights, matchings):
        for arc in pm:
            out[arc // 2] += w
    return out


# (total, s mod 2) -> the leading factor values of `_two_factor_values`
_FACTOR_HEADS = {(0, 0): (), (0, 1): (2, -1, -1), (1, 0): (2, -1), (1, 1): (1,)}


def _two_factor_values(g: MultiGraph, total: int) -> list[int]:
    """Edge values giving each 2-factor of an even-regular g one value, summing to ``total``.

    The s = r/2 factors, in `two_factorization`'s order, take a head that
    fixes the sum by the parity of s, then alternating +1, -1 pairs: no head
    or (2, -1, -1) for total 0, and (2, -1) or (1) for total 1.  Each factor
    adds twice its value at every vertex, so every vertex sums to 2 * total.
    """
    factors = two_factorization(g)
    head = _FACTOR_HEADS[total, len(factors) % 2]
    seq = [*head, *[1, -1] * ((len(factors) - len(head)) // 2)]
    values = [0] * g.m
    for factor, val in zip(factors, seq):
        for e in factor:
            values[e] = val
    return values


# ---------------------------------------------------------------------------
# constructions per degree class


def flow_even_regular(g: MultiGraph) -> IntFlow:
    """Zero-sum 3-flow of an r-regular graph with even r >= 4.

    The r/2 two-factors get a fixed value sequence summing to zero:
    alternating +1/-1 when their count is even, else 2, -1, -1 followed by
    alternating pairs.  Each factor contributes twice its value per vertex.
    """
    r = regular_degree(g)
    if r is None:
        raise NotRegularError("flow_even_regular needs a regular graph")
    if r % 2 or r < 4:
        raise UnsupportedDegreeError(f"need even r >= 4, got r={r}")
    return _checked(g, _two_factor_values(g, 0), 3)


def flow_seven_regular(g: MultiGraph) -> IntFlow:
    """Zero-sum 5-flow of a 7-regular graph.

    Take a [3, 4]-factor with regular components.  The 4-regular part
    splits into two 2-factors valued 1 and 2 (1 on the factor holding the
    smallest edge id); the 3-regular part gets the {2,3,4} weighting with
    vertex sums 8; everything outside the factor gets -2.
    """
    r = regular_degree(g)
    if r != 7:
        raise UnsupportedDegreeError(f"need a 7-regular graph, got r={r}")
    return _factor_flow(g, (8, 6), -2)


def flow_odd_regular(g: MultiGraph) -> IntFlow:
    """Zero-sum 5-flow of an r-regular graph with odd r >= 9.

    With k = floor(2r/3) and k' = r - k, take a [k-1, k]-factor with
    regular components.  The (k-1)-regular part gets the {2,3,4} weighting
    with vertex sums 4k'+4, the k-regular part the weighting with sums 4k',
    and every edge outside the factor gets -4; each vertex then cancels
    exactly against its 4(k'+1) or 4k' of outside weight.
    """
    r = regular_degree(g)
    if r is None or r % 2 == 0 or r < 9:
        raise UnsupportedDegreeError(f"need odd r >= 9, got r={r}")
    k = 2 * r // 3
    kp = r - k
    return _factor_flow(g, (4 * kp + 4, 4 * kp), -4)


def _factor_flow(g: MultiGraph, sums: tuple[int, int], outside: int) -> IntFlow:
    """5-flow from the [k-1, k]-factor with regular components, k = floor(2r/3).

    ``sums`` zips with the factor's (lower, upper) parts, its (k-1)-regular
    and k-regular edges: each non-empty part gets the constant-sum weighting
    with its vertex sum, and every edge outside the factor gets ``outside``.
    """
    values = [outside] * g.m
    for part, q in zip(regular_component_factor(g), sums):
        if part:
            sub, _, emap = subgraph_from_edges(g, part)
            for e, val in zip(emap, constant_sum_weighting(sub, q)):
                values[e] = val
    return _checked(g, values, 5)


def _matching_flow(g: MultiGraph, matching: frozenset[int]) -> IntFlow:
    """Zero-sum 3-flow of an odd-regular graph from a perfect matching M, reported as k = 5.

    Every edge of M gets -2.  G - M is (r-1)-regular, and its 2-factors get
    values from {±1, ±2} that add up to 1, so every vertex sums to
    2 - 2 = 0.  One 2-factorization, no factor search.
    """
    rest, _, emap = subgraph_from_edges(
        g, [e for e in range(g.m) if e not in matching], vertices=range(g.n)
    )
    values = [-2] * g.m
    for e, val in zip(emap, _two_factor_values(rest, 1)):
        values[e] = val
    return _checked(g, values, 5)


def _signed_cover_flow(g: MultiGraph, r: int) -> IntFlow:
    """Zero-sum 5-flow of an r-regular graph with r ≡ 3 (mod 6); no matching of g needed.

    Of the r perfect matchings of the double cover, 2r/3 get weight +1 and
    r/3 get -2, so the weights add up to 0 and every vertex sums to 0.  An
    edge's two arcs give it 2, -1 or -4, never 0.
    """
    third = r // 3
    return _checked(g, _cover_weighting(g, [1] * (2 * third) + [-2] * third), 5)


def construct(g: MultiGraph, budget: int | None = None) -> IntFlow:
    """Build a verified zero-sum flow for any regular graph with r >= 3.

    Dispatch: even r >= 4 gives k=3, r=7 and odd r >= 9 give k=5, and
    r in {3, 5} runs the exact search for a 5-flow (existence is a theorem
    for r=3 and an open conjecture for r=5).  For r=7 and odd r >= 9 the
    input picks the branch: a graph with a perfect matching gets the
    matching 3-flow (values in {±1, ±2}), one without gets the signed
    double cover when r ≡ 3 (mod 6) (values 2, -1, -4), and otherwise the
    paper's [k-1, k]-factor construction; every branch reports k=5.
    Disconnected inputs are handled per component; each component's
    construction verifies its own flow, so the assembled whole is verified
    once, component by component.
    """
    r = regular_degree(g)
    if r is None:
        if g.n == 0:
            raise NotRegularError("graph is empty")
        degs = g.degrees()
        v = next(v for v in range(g.n) if degs[v] != degs[0])
        raise NotRegularError(f"graph is not regular: vertex {v} has degree {degs[v]}")
    if r < 3:
        raise UnsupportedDegreeError(f"no zero-sum flow construction for r={r} < 3")
    comps = components(g)
    if len(comps) == 1:
        return _construct_connected(g, r, budget)
    label = [0] * g.n
    for c, comp in enumerate(comps):
        for v in comp:
            label[v] = c
    inside: list[list[int]] = [[] for _ in comps]
    for e, (u, _) in enumerate(g.edges):
        inside[label[u]].append(e)
    values = [0] * g.m
    k = 0
    for comp, ids in zip(comps, inside):
        sub, _, emap = subgraph_from_edges(g, ids, vertices=comp)
        flow = _construct_connected(sub, r, budget)
        for e, val in zip(emap, flow.values):
            values[e] = val
        k = flow.k
    return IntFlow(g, tuple(values), k)


def _construct_connected(g: MultiGraph, r: int, budget: int | None) -> IntFlow:
    if r % 2 == 0:
        return flow_even_regular(g)
    if r >= 7:
        matching = max_matching(g)
        if 2 * len(matching) == g.n:
            return _matching_flow(g, matching)
        if r % 3 == 0:
            return _signed_cover_flow(g, r)
        return flow_seven_regular(g) if r == 7 else flow_odd_regular(g)
    # r in {3, 5}: no direct construction; run the exact search at k=5
    from .solver import DEFAULT_BUDGET, solve

    outcome = solve(g, 5, DEFAULT_BUDGET if budget is None else budget)
    if outcome.status == "found":
        return outcome.flow
    if outcome.status == "undecided":
        note = "; whether every 5-regular graph has one is an open conjecture" if r == 5 else ""
        raise FlowUndecidedError(
            f"degree-{r} search hit its budget of {outcome.budget} nodes undecided{note}"
        )
    if r == 3:
        raise FlowNonexistentError(
            "exhaustive search found no zero-sum 5-flow on a cubic graph, "
            "which contradicts its guaranteed existence; please report this input"
        )
    raise FlowNonexistentError(
        "exhaustive search proved this 5-regular graph has no zero-sum 5-flow: "
        "a counterexample to the open 5-flow conjecture; please report this input"
    )


def _checked(g: MultiGraph, values: Sequence[int], k: int) -> IntFlow:
    flow = IntFlow(g, tuple(values), k)
    report = verify_flow(g, flow)
    if not report.ok:
        raise RuntimeError(f"internal: constructed flow failed verification: {report.violation}")
    return flow


# ---------------------------------------------------------------------------
# flow serialization: header "k n m", then one line "edge_id u v value"


def write_flow(flow: IntFlow) -> str:
    g = flow.host
    lines = [f"{flow.k} {g.n} {g.m}"]
    lines += [f"{e} {u} {v} {flow.values[e]}" for e, (u, v) in enumerate(g.edges)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FlowDocument:
    """Raw parsed flow file: claimed bound, sizes, values, edge endpoints.

    ``values[e]`` and ``endpoints[e]`` belong to the edge with id e, whatever
    the order of the file's lines.  Values arrive unvalidated: a zero or
    out-of-range value is a verifier verdict, not a parse error.
    """

    k: int
    n: int
    m: int
    values: tuple[int, ...]
    endpoints: tuple[tuple[int, int], ...]


def parse_flow(text: str) -> FlowDocument:
    """Parse the flow format: header ``k n m`` then lines ``edge_id u v value``."""
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty flow file", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise GraphFormatError(f"expected header 'k n m', got {lines[0]!r}", line=1)
    try:
        k, n, m = map(int, head)
    except ValueError:
        raise GraphFormatError(f"non-integer header {lines[0]!r}", line=1) from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"negative size in header {lines[0]!r}", line=1)
    # A body of fewer than m lines misses some id below len(lines), so no slot
    # past that bound is needed and a huge header allocates nothing; the ids
    # past it are still range- and duplicate-checked line by line.
    size = min(m, len(lines))
    values: list[int | None] = [None] * size
    endpoints: list[tuple[int, int] | None] = [None] * size
    beyond: set[int] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 4:
            raise GraphFormatError(f"expected 'edge_id u v value', got {raw!r}", line=lineno)
        try:
            e, u, v, val = map(int, parts)
        except ValueError:
            raise GraphFormatError(f"non-integer fields in {raw!r}", line=lineno) from None
        if not (0 <= e < m):
            raise GraphFormatError(f"edge id {e} out of range for m={m}", line=lineno)
        if e < size and values[e] is None:
            values[e] = val
            endpoints[e] = (u, v)
        elif e < size or e in beyond:
            raise GraphFormatError(f"duplicate edge id {e}", line=lineno)
        else:
            beyond.add(e)
    if None in values:
        raise GraphFormatError(f"flow is missing edge {values.index(None)}", line=1)
    return FlowDocument(k, n, m, tuple(values), tuple(endpoints))
