"""Zero-sum integer flow constructions and the flow verifier.

A zero-sum k-flow assigns a value from {±1, ..., ±(k-1)} to every edge so
that each vertex's incident values sum to zero.  Constructions here cover
even regular degree r >= 4 with k=3 and every odd degree with k=5, except
the 5-regular graphs with neither a perfect matching nor a 2-factor, which
route through the exact search in `solver`.

Every construction is one `_parts_flow` row: one outside value on every
edge outside its regular parts, and on each part the weighting with a
constant vertex sum q (`_weighting`) that cancels it, with factor values
from `_split_sum`.  A part is a list of g's edge ids, and no subgraph is
built.  The rows:

- even r: q = 0 on all of g;
- r - 1 = 3 * 2^j (r = 7, 13, 25, ...) with a perfect matching M: 3 on M and
  q = -3 on G - M, halved down to 3-regular factors valued -2 and 1, then
  -1, +1 pairs, unless a 6-regular piece of the halving has a component of
  odd order;
- r ≡ 3 (mod 4), r >= 11, with (r + 1)/2 = a * 2^j, a = 3 when 3 divides it
  and 2 otherwise (r = 11, 15, 23, 31, 47, ...), and a perfect matching M:
  G - M halved once along its Euler circuits into two (r - 1)/2-regular
  halves, -a on the second, and q = a(r - 1)/2 on M with the first half,
  halved down to a-regular factors valued 2 and 3 (a = 3) or 1 and 2
  (a = 2), unless a piece of odd-degree factors has a component of odd
  order;
- odd r with a perfect matching M: -2 on M and q = 2 on G - M;
- r ≡ 3 (mod 6): the signed double cover, q = 0 on all of g;
- r = 5 with a 2-factor F: -3 on F and q = 6 on the rest;
- r >= 7: the paper's [k-1, k]-factor construction (`flow_odd_regular`).

For odd r, `_odd_flow` takes the first row that the input allows in this
order; a disconnected input that none of the first five fits splits, and
each component takes the dispatch again, and a connected one takes the
factor row for r >= 7 and the search for r = 5.  All of them report k = 5.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    FactorSearchError,
    FlowNonexistentError,
    FlowUndecidedError,
    GraphFormatError,
    NotRegularError,
    UnsupportedDegreeError,
)
from .factorization import regular_component_factor
from .graphs import (
    MultiGraph,
    _FLOW_COLUMNS,
    _Pairs,
    _canonical_ints,
    _incidence,
    _scan_ints,
    _write_ints,
    components,
    regular_degree,
    subgraph_from_edges,
)
from .matching import _value_split, find_exact_factor, max_matching

DEFAULT_BUDGET = 100_000_000  # search nodes, for `construct` and every `solver` entry point


@dataclass(frozen=True, eq=False)
class IntFlow:
    """Total nonzero integer edge labelling claiming the bound k.

    ``values[e]`` is the label of edge e; every label is a nonzero int with
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
    """Name the first non-int, zero or |value| > k - 1 by edge id; None when there is none."""
    if type(sum(values)) is not int or not all(values) or max_abs > k - 1:  # one C-level pass each
        for e, val in enumerate(values):
            if not isinstance(val, int):
                return f"edge {e} value {val} is not an integer"
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


def verify_flow(g: MultiGraph, flow: IntFlow | Sequence[int], k: int | None = None) -> FlowReport:
    """Check a candidate flow against a graph; read-only.

    Accepts an IntFlow or a sequence of m values, value e on edge e; any
    other type, a dict included, raises TypeError.  A wrong value count or
    a claimed bound k < 2 is a usage error and raises ValueError;
    non-integer, zero and out-of-range values, and nonzero vertex sums are
    verdict failures.  The first violation is reported scanning edges by id and
    then vertices.
    """
    if isinstance(flow, IntFlow):
        if flow.host is not g and flow.host.edges != g.edges:
            raise ValueError("flow belongs to a different graph")
        values = flow.values
        k = flow.k if k is None else k
    elif not isinstance(flow, Sequence):  # a dict would be read by its keys
        raise TypeError(f"flow must be an IntFlow or a sequence of values, got {type(flow).__name__}")
    else:
        values = flow
        if len(values) != g.m:
            raise ValueError(f"flow has {len(values)} values for {g.m} edges")
    if k is None:
        raise ValueError("a claimed bound k is required")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")

    max_abs = max(map(abs, values), default=0)
    violation = _first_bad_value(values, max_abs, k)
    sums = [0] * g.n
    for u, v, val in zip(g.us, g.vs, values):
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

    Even r accepts every even q with r <= q <= 4r, and every weight is
    floor(q/r) or ceil(q/r), so it lies in {2, 3, 4} whenever q >= 2r.  Odd
    r accepts every even q with 2r <= q <= 4r, and every weight lies in
    {2, 3, 4}.  `_weighting` builds both.
    """
    r = regular_degree(g)
    if r is None or r < 1:
        raise NotRegularError("constant_sum_weighting needs a regular graph with r >= 1")
    if q % 2:
        raise ValueError(f"q must be even, got {q}")
    lo = r if r % 2 == 0 else 2 * r
    if not (lo <= q <= 4 * r):
        raise ValueError(f"q must lie in [{lo}, {4 * r}], got {q}")
    return tuple(_weighting(g, range(g.m), r, q, [0] * g.m))


# (t, count mod 2) -> the leading values of `_split_sum` for t < count
_FACTOR_HEADS = {(0, 0): (), (0, 1): (2, -1, -1), (1, 0): (2, -1), (1, 1): (1,)}


def _split_sum(t: int, count: int) -> list[int]:
    """``count`` nonzero values in [-2, 4] that add up to t, or in [-4, 2] for t < 0.

    t lies in [-4 * count, -count], {-1, 0, 1} or [count, 4 * count].  For
    count <= t <= 4 * count, value i is (t + i) // count (Hermite's
    identity); t in {0, 1} takes a head fixed by the parity of count, then
    +1, -1 pairs (t = 0 needs count >= 2); t < 0 negates the values of -t.
    """
    if t < 0:
        return [-val for val in _split_sum(-t, count)]
    if t >= count:
        return [(t + i) // count for i in range(count)]
    head = _FACTOR_HEADS[t, count % 2]
    return [*head, *[1, -1] * ((count - len(head)) // 2)]


def _weighting(g: MultiGraph, ids: Sequence[int], d: int, q: int, out: list[int]) -> list[int]:
    """``out``, with nonzero values at the edges of the d-regular part ``ids`` of g that sum to q.

    ``ids`` ascend, as a list or as range(g.m), and may leave vertices of g
    uncovered.  Even d takes q = 0 (d >= 4), q = 2 or an even q in [d, 4d],
    and its d/2 two-factors the multiset `_split_sum(q/2, d/2)`.  When
    d = 3 * 2^j (j >= 1), even d also takes an odd q = 3t with t in
    `_split_sum`'s domain for d/3 values, and its d/3 three-regular factors
    `_split_sum(t, d/3)`: -2 and 1 and then -1, +1 pairs at q = -3, 2 and
    then 3s at q = 3(d - 1); this raises FactorSearchError when a 6-regular
    piece of the split has a component of odd order.  Odd d takes an even q
    in [2d, 4d], or q = 0 when 3 divides d: the double cover's d perfect
    matchings take `_split_sum(q/2, d)`, or +1 (2d/3 of them) and -2 (d/3),
    and each id sums its two arcs; equal weights skip the cover.
    `_value_split` gives each factor its value.
    """
    n, us, vs = g.n, g.us, g.vs
    if d % 2 == 0:  # d/a factors of degree a: 3-regular at odd q, 2-factors at even q
        a = 3 if q % 2 else 2
        return _value_split(n, us, vs, ids, d, _split_sum(q // a, d // a), out)
    weights = _split_sum(q // 2, d) if q else [1] * (2 * d // 3) + [-2] * (d // 3)
    if weights[0] == weights[-1]:
        for e in ids:
            out[e] = 2 * weights[0]
        return out
    # arcs 2i and 2i + 1: edge ids[i] from each end's out-copy x to the other end's in-copy ins[y]
    ins = list(range(n, 2 * n))  # one int object per in-copy
    tails = [x for e in ids for x in (us[e], vs[e])]
    heads = [ins[y] for e in ids for y in (vs[e], us[e])]
    split = iter(_value_split(2 * n, tails, heads, range(len(tails)), d, weights, [0] * len(tails)))
    for e, first, second in zip(ids, split, split):
        out[e] = first + second
    return out


def _parts_flow(g: MultiGraph, r: int, parts: Iterable[tuple[int, Sequence[int]]], outside: int) -> IntFlow:
    """Checked flow of every construction: each part's weighting cancels ``outside`` on every other edge.

    Each ``(d, part)`` lists ascending the edge ids of a d-regular subgraph
    of the r-regular g, or is empty, and no vertex lies in two parts, so
    each part vertex meets r - d edges valued ``outside``; the part gets the
    weighting with q = -outside * (r - d).  The claimed k is 3 for even r
    and 5 for odd r.
    """
    values = [outside] * g.m
    for d, part in parts:
        if part:
            _weighting(g, part, d, -outside * (r - d), values)
    return _checked(g, values, 5 if r % 2 else 3)


# ---------------------------------------------------------------------------
# constructions per degree class


def flow_odd_regular(g: MultiGraph) -> IntFlow:
    """Zero-sum 5-flow of an r-regular graph with odd r >= 7.

    With k = floor(2r/3) and k' = r - k, take a [k-1, k]-factor with
    regular components and give every edge outside it -2 at r = 7 and -4
    above.  Each part gets the {2,3,4} weighting that cancels its outside
    weight: at r = 7 the 4-regular part has vertex sums 6 (two 2-factors
    valued 1 and 2, 1 on the factor holding the smallest edge id) and the
    3-regular part sums 8; above, the (k-1)-regular part has sums 4k'+4
    and the k-regular part sums 4k'.
    """
    r = regular_degree(g)
    if r is None or r % 2 == 0 or r < 7:
        raise UnsupportedDegreeError(f"need odd r >= 7, got r={r}")
    k = 2 * r // 3
    lower, upper = regular_component_factor(g)
    return _parts_flow(g, r, ((k - 1, sorted(lower)), (k, sorted(upper))), -2 if r == 7 else -4)


def construct(g: MultiGraph, budget: int = DEFAULT_BUDGET) -> IntFlow:
    """Build a verified zero-sum flow for any regular graph with r >= 3.

    Even r >= 4 gives k=3 and odd r gives k=5: one maximum matching feeds
    `_odd_flow`, where the first branch that applies builds the flow.  A
    perfect matching M gives, when r - 1 = 3 * 2^j, 3 on M and G - M halved
    down to 3-regular factors (values {3, 1, -2} at r = 7 and {3, -2, -1, 1}
    above); when r ≡ 3 (mod 4), r >= 11 and (r + 1)/2 is 3 * 2^j or 2^j,
    G - M halved once along its Euler circuits, -3 or -2 on one half, and M
    with the other half halved down to odd-degree factors, 3-regular ones
    valued 2 and 3 (values {-3, 2, 3} at r = 11, 23, 47, ...) or 2-factors
    valued 1 and 2 ({-2, 1, 2} at r = 15, 31, ...); and otherwise, or when a
    halved piece of odd-degree factors has a component of odd order, the
    matching 3-flow (values in {±1, ±2}, with G - M halved along Euler
    circuits while its 2-factor values number evenly and differ);
    r ≡ 3 (mod 6) the signed double cover (values 2, -1, -4); r = 5 with a
    2-factor -3 on it and 2 elsewhere; r >= 7 the paper's [k-1, k]-factor
    construction; any other r = 5 the exact search for a 5-flow, whose
    existence there is an open conjecture.  On r in {3, 5} a direct flow
    stands for the m nodes in which that search would assign every edge, so
    a budget below the whole graph's m raises FlowUndecidedError before any
    work, and a negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    r = regular_degree(g)
    if r is None:
        if g.n == 0:
            raise NotRegularError("graph is empty")
        degs = g.degrees()
        v = next(v for v in range(g.n) if degs[v] != degs[0])
        raise NotRegularError(f"graph is not regular: vertex {v} has degree {degs[v]}")
    if r < 3:
        raise UnsupportedDegreeError(f"no zero-sum flow construction for r={r} < 3")
    if r < 7 and r % 2 and budget < g.m:  # a direct flow stands for m search nodes
        raise _undecided(r, budget)
    if r % 2 == 0:
        return _parts_flow(g, r, [(r, range(g.m))], 0)
    return _odd_flow(g, r, max_matching(g), budget)


def _odd_flow(g: MultiGraph, r: int, matching: Collection[int], budget: int) -> IntFlow:
    """The first odd-r flow that g allows, given a maximum matching of g.

    Every branch but the search is a `_parts_flow` row.  A perfect matching
    takes the 3-regular-factor row when r - 1 = 3 * 2^j, and the merged-half
    row when r ≡ 3 (mod 4), r >= 11 and (r + 1)/2 is a * 2^j (a = 3 when 3
    divides it, else 2): one walk halves G - M into two (r - 1)/2-regular
    halves, an odd-degree split with 0 and 1 as placeholder values, and M
    with the first half is the (r + 1)/2-regular part, -a on the second.  If
    either row's split raises FactorSearchError, the matching 3-flow row
    answers.  Before the factor construction and the search, a disconnected
    g splits: each component takes this dispatch with its share of
    ``matching``, maximum there too, and the whole budget, and verifies its
    own flow.
    """
    if 2 * len(matching) == g.n:
        rest = [e for e in range(g.m) if e not in matching]
        count, left = divmod(r - 1, 3)
        h = (r + 1) // 2
        a = 3 if h % 3 == 0 else 2
        try:
            if left == 0 and count & (count - 1) == 0:  # 3 on M, and G - M halved down to 3-regular factors
                return _parts_flow(g, r, [(r - 1, rest)], 3)
            if r >= 11 and r % 4 == 3 and (h // a) & (h // a - 1) == 0:
                # -a on one Euler half of G - M, and M with the other half split into a-regular factors
                half = _value_split(g.n, g.us, g.vs, rest, r - 1, [0, 1], [0] * g.m)
                return _parts_flow(g, r, [(h, [e for e in range(g.m) if not half[e]])], -a)
        except FactorSearchError:  # a piece of odd-degree factors with a component of odd order
            pass
        return _parts_flow(g, r, [(r - 1, rest)], -2)
    if r % 3 == 0:  # the signed double cover, with values 2, -1, -4
        return _parts_flow(g, r, [(r, range(g.m))], 0)
    if r == 5:  # -3 on a 2-factor, and 2 on its 3-regular complement
        factor = find_exact_factor(g, [2] * g.n)
        if factor is not None:
            return _parts_flow(g, r, [(3, [e for e in range(g.m) if e not in factor])], -3)
    comps = components(g)
    if len(comps) > 1:
        inc = _incidence(g)
        values = [0] * g.m
        for comp in comps:
            sub, _, emap = subgraph_from_edges(g, [e for v in comp for e in inc[v]])
            share = {j for j, e in enumerate(emap) if e in matching}
            for e, val in zip(emap, _odd_flow(sub, r, share, budget).values):
                values[e] = val
        return IntFlow(g, tuple(values), 5)
    if r >= 7:
        return flow_odd_regular(g)
    from .solver import solve

    outcome = solve(g, 5, budget)
    if outcome.status == "nonexistent":
        raise FlowNonexistentError(
            "exhaustive search proved this 5-regular graph has no zero-sum 5-flow: "
            "a counterexample to the open 5-flow conjecture; please report this input"
        )
    if outcome.flow is None:
        raise _undecided(r, budget)
    return outcome.flow


def _undecided(r: int, budget: int) -> FlowUndecidedError:
    note = "; whether every 5-regular graph has one is an open conjecture" if r == 5 else ""
    return FlowUndecidedError(f"degree-{r} search hit its budget of {budget} nodes undecided{note}")


def _checked(g: MultiGraph, values: Sequence[int], k: int) -> IntFlow:
    """The post-check of every flow that a construction or the search returns."""
    report = verify_flow(g, values, k)
    if not report.ok:
        raise RuntimeError(f"internal: returned flow failed verification: {report.violation}")
    return IntFlow(g, tuple(values), k)


# ---------------------------------------------------------------------------
# flow serialization, in the table format of `graphs._FLOW_COLUMNS`


def write_flow(flow: IntFlow) -> str:
    g = flow.host
    return _write_ints(_FLOW_COLUMNS, (flow.k, g.n, g.m), (range(g.m), g.us, g.vs, flow.values))


@dataclass(frozen=True)
class FlowDocument:
    """Raw parsed flow file: claimed bound, sizes, values, edge endpoints.

    ``values[e]`` and ``endpoints[e]`` belong to the edge with id e, whatever
    the order of the file's lines.  ``endpoints`` is a read-only pair view
    over two int columns, like `MultiGraph.edges`, so ``doc.endpoints ==
    g.edges`` compares columns.  Values arrive unvalidated: a zero or
    out-of-range value is a verifier verdict, not a parse error.
    """

    k: int
    n: int
    m: int
    values: tuple[int, ...]
    endpoints: Sequence[tuple[int, int]]


def parse_flow(text: str) -> FlowDocument:
    """Parse the flow format: header ``k n m`` then lines ``edge_id u v value``.

    Canonical text (as `write_flow` writes it, ids in order) takes one bulk
    pass.  Any other text, or a failed bulk pass, takes the line scan: the
    same document for every valid text, and each error names its line.
    """
    bulk = _canonical_ints(text, _FLOW_COLUMNS)
    if bulk is not None:
        ints, m = bulk
        if ints[2] == m and ints[1] >= 0 and ints[3::4] == list(range(m)):
            return FlowDocument(*ints[:3], tuple(ints[6::4]), _Pairs(tuple(ints[4::4]), tuple(ints[5::4])))
    (k, n, m), lines, rows = _scan_ints(text, _FLOW_COLUMNS)
    # A body of fewer than m lines misses some id below its line count, so no
    # slot past that bound is needed and a huge header allocates nothing; the
    # ids past it are still range- and duplicate-checked line by line.
    size = min(m, lines)
    values: list[int | None] = [None] * size
    us = [0] * size
    vs = [0] * size
    beyond: set[int] = set()
    for line, (e, u, v, val) in rows:
        if not (0 <= e < m):
            raise GraphFormatError(f"edge id {e} out of range for m={m}", line=line)
        if e < size and values[e] is None:
            values[e] = val
            us[e] = u
            vs[e] = v
        elif e < size or e in beyond:
            raise GraphFormatError(f"duplicate edge id {e}", line=line)
        else:
            beyond.add(e)
    if None in values:
        raise GraphFormatError(f"flow is missing edge {values.index(None)}", line=1)
    return FlowDocument(k, n, m, tuple(values), _Pairs(tuple(us), tuple(vs)))
