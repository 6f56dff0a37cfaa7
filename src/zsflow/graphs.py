"""Multigraph data model, the Euler walk, generators, and serialization.

Vertices are dense integers 0..n-1 and edge ids are dense integers 0..m-1
assigned in construction order.  Parallel edges are allowed everywhere,
loops are rejected everywhere.  Graphs are immutable after construction and
all operations on them are pure, so instances can be shared freely.  A
graph holds its endpoints, as two int columns, and its degrees only: a query
that walks incidence lists builds them with `_incidence` and drops them when
it returns, and a loop over the edges reads the columns, never the pair view.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import eq

from .errors import GraphError, GraphFormatError

_G6_RANGE = (63, 126)
_RANDOM_REGULAR_RESTARTS = 10_000


class MultiGraph:
    """Undirected multigraph with dense vertex and edge ids.

    Edge e joins ``us[e]`` and ``vs[e]``, in the orientation it was
    supplied: the endpoints are two int tuples, 16 B per edge where a tuple
    per edge costs 64.  ``edges`` is a read-only view of the pairs over
    them, built once: ``edges[e]`` is ``(us[e], vs[e])``, it iterates as
    ``zip(us, vs)``, and it compares equal to the tuple of pairs it stands
    for.  Loops (``u == v``) are rejected.  Degrees are counted on
    construction, and nothing else is stored: the edges at v are the ids e
    with v in ``edges[e]``.
    """

    __slots__ = ("n", "us", "vs", "edges", "_degrees")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        us: list[int] = []
        vs: list[int] = []
        for u, v in pairs:
            us.append(u)
            vs.append(v)
        self._fill(n, us, vs)

    @classmethod
    def _of_columns(cls, n: int, us: list[int], vs: list[int], verts: list[int] | None = None) -> MultiGraph:
        """The graph with edge e = (us[e], vs[e]), from two columns of equal length.

        ``verts``, when given, is ``list(range(n))``: the columns then hold
        its int objects, one per vertex, in place of the caller's.
        """
        g = cls.__new__(cls)
        g._fill(n, us, vs, verts)
        return g

    def _fill(self, n: int, us: list[int], vs: list[int], verts: list[int] | None = None) -> None:
        """Check the columns as whole lists, count degrees, and store them as tuples."""
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        try:
            deg = [0] * n
        except (MemoryError, OverflowError):  # n is past what one list can hold
            raise GraphError(f"vertex count {n} is too large to hold") from None
        if us and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n or any(map(eq, us, vs))):
            for idx, (u, v) in enumerate(zip(us, vs)):  # name the first bad edge by id
                if not (0 <= u < n) or not (0 <= v < n):
                    raise GraphError(f"edge {idx}: endpoint out of range for n={n}: ({u}, {v})")
                if u == v:
                    raise GraphError(f"edge {idx}: loop at vertex {u} rejected")
        for u in us:
            deg[u] += 1
        for v in vs:
            deg[v] += 1
        if verts is not None:
            us, vs = map(verts.__getitem__, us), map(verts.__getitem__, vs)
        self.n = n
        self.us = tuple(us)
        self.vs = tuple(vs)
        self.edges = _Pairs(self.us, self.vs)
        self._degrees = tuple(deg)

    @property
    def m(self) -> int:
        return len(self.us)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degree vector (parallel edges count once per endpoint)."""
        return self._degrees

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


class _Pairs(Sequence):
    """Read-only view of the pairs ``(us[e], vs[e])`` of two int tuples of equal length.

    It reads as the tuple of those pairs: ``len``, ``[e]`` (a slice gives a
    tuple of pairs), iteration as ``zip(us, vs)``, and ``==`` and ``hash``
    by value, against tuples and lists of pairs and against other views.
    """

    __slots__ = ("_us", "_vs")

    def __init__(self, us: tuple[int, ...], vs: tuple[int, ...]):
        self._us = us
        self._vs = vs

    def __len__(self) -> int:
        return len(self._us)

    def __getitem__(self, e):
        if isinstance(e, slice):
            return tuple(zip(self._us[e], self._vs[e]))
        return self._us[e], self._vs[e]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._us, self._vs)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Pairs):
            return self._us == other._us and self._vs == other._vs
        if isinstance(other, (tuple, list)):
            return len(other) == len(self._us) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def build(n: int, pairs: Iterable[tuple[int, int]]) -> MultiGraph:
    """Construct a multigraph from endpoint pairs; ids follow input order."""
    return MultiGraph(n, pairs)


def _incidence(g: MultiGraph) -> list[list[int]]:
    """The edge ids at each vertex, ascending; built on each call, kept by the caller alone."""
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for e, u, v in zip(range(g.m), g.us, g.vs):
        inc[u].append(e)
        inc[v].append(e)
    return inc


def _factor_degrees(g: MultiGraph, edge_ids: Iterable[int]) -> list[int]:
    """Per-vertex degree vector of the spanning subgraph on the given edge ids."""
    deg = [0] * g.n
    us, vs = g.us, g.vs
    for e in edge_ids:
        deg[us[e]] += 1
        deg[vs[e]] += 1
    return deg


def regular_degree(g: MultiGraph) -> int | None:
    """Return r if every vertex has degree exactly r, else None."""
    if g.n == 0:
        return None
    degs = g.degrees()
    return degs[0] if degs.count(degs[0]) == g.n else None


def components(g: MultiGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    inc, us, vs = _incidence(g), g.us, g.vs
    seen = [False] * g.n
    out: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:  # a breadth-first search: the loop reaches what it appends
            for e in inc[v]:
                w = us[e] ^ vs[e] ^ v
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        out.append(comp)
    return out


def _euler_tails(
    n: int, us: Sequence[int], vs: Sequence[int], ids: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """One balanced orientation of the edges ``ids`` (ascending), and its circuits.

    Edge e joins ``us[e]`` and ``vs[e]`` in 0..n-1, and every vertex
    must have even degree within ``ids``.  Hierholzer's walk starts at each
    vertex in turn and, standing at v, leaves v along its unused edge of
    smallest id.  Returns ``(tails, circuits)``, both keyed by edge id:
    ``tails[e]`` is the vertex the walk left edge e from, and None for an e
    outside ``ids``; ``circuits`` holds one list per component, by smallest
    vertex, of its edge ids in the order the walk closes them (backs out
    over them).  That order is a closed trail read backwards: consecutive
    edges share a vertex, and the last and the first meet at the
    component's smallest vertex.  Each step reads the far end from the
    columns, so every tail but each start vertex is the columns' own int.
    """
    inc: list[list[int]] = [[] for _ in range(n)]
    for e in reversed(ids):  # descending, so pop() yields the smallest id
        inc[us[e]].append(e)
        inc[vs[e]].append(e)
    tails: list = [None] * len(us)  # None until the walk leaves along the edge
    circuits: list[list[int]] = []
    stack: list[int] = []  # the trail from start to v
    closed: list[int] = []
    for start in range(n):
        v = start
        while True:
            out = inc[v]
            while out:
                e = out.pop()
                if tails[e] is not None:
                    continue
                tails[e] = v
                stack.append(e)
                u = us[e]
                v = vs[e] if u == v else u
                out = inc[v]
            if not stack:
                break
            e = stack.pop()
            closed.append(e)
            v = tails[e]
        if closed:
            circuits.append(closed)
            closed = []
    return tails, circuits


def subgraph_from_edges(g: MultiGraph, edge_ids: Iterable[int]) -> tuple[MultiGraph, list[int], list[int]]:
    """Relabelled subgraph on the given edges and their endpoints.

    Returns ``(sub, vmap, emap)`` where ``vmap[i]`` is the host vertex of sub
    vertex ``i`` and ``emap[j]`` the host edge id of sub edge ``j``.  The
    vertices are exactly the endpoints of the edges, so no sub vertex is
    isolated.  Sub ids preserve ascending host order.  An edge id outside
    0..m-1 raises ValueError.
    """
    emap = sorted(set(edge_ids))
    if emap and (emap[0] < 0 or emap[-1] >= g.m):
        bad = emap[0] if emap[0] < 0 else emap[-1]
        raise ValueError(f"edge id {bad} out of range for m={g.m}")
    us = [g.us[e] for e in emap]
    vs = [g.vs[e] for e in emap]
    vmap = sorted({*us, *vs})
    index = {v: i for i, v in enumerate(vmap)}
    sub = MultiGraph._of_columns(len(vmap), [index[u] for u in us], [index[v] for v in vs])
    return sub, vmap, emap


# ---------------------------------------------------------------------------
# generators


def _vertex_ids(n: int) -> list[int]:
    """``list(range(n))``: one int object per vertex, for the columns to share."""
    try:
        return list(range(n))
    except (MemoryError, OverflowError):  # n is past what one list can hold
        raise GraphError(f"vertex count {n} is too large to hold") from None


def cycle(n: int) -> MultiGraph:
    """Cycle C_n; n=2 yields the parallel pair (a 2-cycle)."""
    if n < 2:
        raise GraphError(f"cycle needs at least 2 vertices, got {n}")
    if n == 2:
        return MultiGraph(2, [(0, 1), (0, 1)])
    verts = _vertex_ids(n)
    return MultiGraph._of_columns(n, verts, verts[1:] + verts[:1])


def complete(n: int) -> MultiGraph:
    """Complete graph K_n, its edges (i, j) with i < j ascending."""
    verts = _vertex_ids(n)
    m = len(verts) * (len(verts) - 1) // 2
    try:
        us = [0] * m  # the edge count is sized before any edge is made
    except (MemoryError, OverflowError):
        raise GraphError(f"edge count {m} is too large to hold") from None
    us[:] = chain.from_iterable(repeat(i, n - 1 - i) for i in verts)
    vs = list(chain.from_iterable(verts[i + 1 :] for i in verts))
    return MultiGraph._of_columns(n, us, vs)


def petersen() -> MultiGraph:
    """The Petersen graph: outer 5-cycle, spokes, inner pentagram."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph(10, pairs)


def circulant(n: int, offsets: Iterable[int]) -> MultiGraph:
    """Circulant graph: vertex i adjacent to i +/- d for each offset d.

    Offsets are normalized mod n into 1..n//2 and must be distinct and
    nonzero.  An offset d < n/2 contributes degree 2, the offset n/2
    (even n) contributes degree 1.
    """
    if n < 1:
        raise GraphError(f"circulant needs at least 1 vertex, got {n}")
    verts = _vertex_ids(n)
    norm = []
    for d in offsets:
        d = d % n
        if d == 0:
            raise GraphError(f"offset {d} is zero mod {n}")
        norm.append(min(d, n - d))
    if len(set(norm)) != len(norm):
        raise GraphError(f"offsets collide after normalization mod {n}: {sorted(norm)}")
    us: list[int] = []
    vs: list[int] = []
    for d in sorted(norm):  # the edges (i, i + d mod n), or (i, i + d) for i < d when 2d = n
        us += verts[:d] if 2 * d == n else verts
        vs += verts[d:] if 2 * d == n else verts[d:] + verts[:d]
    return MultiGraph._of_columns(n, us, vs)


def random_regular(n: int, r: int, seed: int) -> MultiGraph:
    """Random simple r-regular graph on n vertices, deterministic in the seed.

    Configuration-model pairing: shuffle the stub list, pair greedily while
    skipping loops and parallel collisions, reshuffle the leftover stubs, and
    restart from scratch when the leftovers admit no legal pair.  Bounded at
    10,000 restarts.  The edges are ``(u, v)`` with u < v, ascending.  The
    output is a fixed function of (n, r, seed), pinned by tests: `_shuffle`
    makes the draws of ``random.Random(seed).shuffle``, so every graph equals
    the one the stdlib shuffle gave.
    """
    if r < 0 or n <= r:
        raise GraphError(f"need 0 <= r < n, got n={n}, r={r}")
    if (n * r) % 2:
        raise GraphError(f"n*r must be even, got n={n}, r={r}")
    getrandbits = random.Random(seed).getrandbits
    verts = _vertex_ids(n)  # stubs and edges share these int objects
    for _ in range(_RANDOM_REGULAR_RESTARTS):
        later = _pair_stubs(verts, r, getrandbits)
        if later is not None:
            for bs in later:
                bs.sort()
            us = list(chain.from_iterable(map(repeat, verts, map(len, later))))
            vs = list(chain.from_iterable(later))
            del later  # freed before the graph is built: it adds about 24 B per edge to the peak
            return MultiGraph._of_columns(n, us, vs)
    raise GraphError(f"random_regular(n={n}, r={r}) gave up after {_RANDOM_REGULAR_RESTARTS} restarts")


def _pair_stubs(verts: list[int], r: int, getrandbits: Callable[[int], int]) -> list[list[int]] | None:
    """``later[a]``: the partners b > a paired with a, or None if the pairing got stuck."""
    later: list[list[int]] = [[] for _ in verts]
    stubs = verts * r
    while stubs:
        _shuffle(stubs, getrandbits)
        leftover: list[int] = []
        it = iter(stubs)
        for a, b in zip(it, it):
            if a > b:
                a, b = b, a
            partners = later[a]
            if a == b or b in partners:  # a scan of at most r entries
                leftover.extend((a, b))
            else:
                partners.append(b)
        if len(leftover) == len(stubs):
            # no pair was placeable; check whether any legal pair remains
            if not any(
                a != b and max(a, b) not in later[min(a, b)]
                for i, a in enumerate(leftover)
                for b in leftover[i + 1 :]
            ):
                return None
        stubs = leftover
    return later


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """``random.Random.shuffle`` with ``_randbelow`` inlined.

    For i from len(x) - 1 down to 1, draw ``getrandbits(k)`` with
    k = (i + 1).bit_length() until it is at most i, then swap.  Those are
    the stdlib's draws, so the permutation and the generator's state after
    it are the same.  k is computed once per block of i sharing it.
    """
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i with (i + 1).bit_length() == k
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def cubic_no_pm() -> MultiGraph:
    """A 16-vertex cubic graph with no perfect matching.

    Three gadgets, each a K4 with one edge subdivided (the subdivision
    vertex has degree 2), plus a central vertex joined to the three
    subdivision vertices.  Deleting the center leaves three 5-vertex
    components, so Tutte's condition fails and no perfect matching exists.
    """
    pairs: list[tuple[int, int]] = []
    for gdt in range(3):
        a, b, c, d, s = (5 * gdt + i for i in range(5))
        pairs += [(a, s), (s, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    center = 15
    pairs += [(center, 5 * gdt + 4) for gdt in range(3)]
    return MultiGraph(16, pairs)


# ---------------------------------------------------------------------------
# serialization


def parse_graph6(text: str) -> MultiGraph:
    """Decode a graph6 string (simple graphs, standard ASCII encoding)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 string", line=1)
    data = [ord(c) - 63 for c in s]
    for i, c in enumerate(s):
        if not (_G6_RANGE[0] <= ord(c) <= _G6_RANGE[1]):
            raise GraphFormatError(f"invalid graph6 byte {c!r} at position {i}", line=1)
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise GraphFormatError("graph6 sizes above 258047 vertices are not supported", line=1)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphFormatError(
            f"graph6 body length {len(body)} does not match n={n}", line=1
        )
    pairs = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if body[bit // 6] & (1 << (5 - bit % 6)):
                pairs.append((i, j))
            bit += 1
    return MultiGraph(n, pairs)


# The integer-table formats: the columns of the header, then of each body
# row.  A header ends in the sizes n and m, and m counts the body rows.
_EDGE_LIST_COLUMNS = ("n m", "u v")
_FLOW_COLUMNS = ("k n m", "edge_id u v value")

_FIELD_CHARS = str.maketrans("", "", "0123456789-")  # deleted, they leave the separators
_COMMAS = str.maketrans(" \n", ",,")


def _write_ints(columns: tuple[str, str], head: tuple[int, ...], body: Sequence[Iterable[int]]) -> str:
    """Canonical text of a table: the ``head`` row, then m rows, row i holding field i of each of ``body``."""
    head_row, row = ("%d " * c.count(" ") + "%d\n" for c in columns)
    fields = [0] * (len(body) * head[-1])
    for j, column in enumerate(body):
        fields[j :: len(body)] = column
    return head_row % head + (row * head[-1]) % tuple(fields)


def _canonical_ints(text: str, columns: tuple[str, str]) -> tuple[list[int], int] | None:
    """The integers of a canonical text and its count of body rows, or None.

    Canonical: one space between fields and a newline after each row, the
    last one included, as `_write_ints` writes it.  Deleting the digits and
    '-' leaves the separators, and one `json.loads` decodes every field;
    JSON refuses a stray '-', a leading zero and an int past the digit limit.
    """
    head, line = (" " * c.count(" ") + "\n" for c in columns)
    seps = text.translate(_FIELD_CHARS)
    lines, extra = divmod(len(seps) - len(head), len(line))
    if lines < 0 or extra or seps != head + line * lines or not text.endswith("\n"):
        return None
    try:
        return json.loads("[" + text[:-1].translate(_COMMAS) + "]"), lines
    except ValueError:
        return None


def _scan_ints(text: str, columns: tuple[str, str]) -> tuple[list[int], int, Iterator[tuple[int, list[int]]]]:
    """Line scan of a table: its header's integers, its line count and its rows.

    Any whitespace splits fields.  The rows, ``(line, integers)`` per
    non-blank body line, come lazily, so a caller checks each before the
    next is read.  Each error names its line and the columns expected there.
    """
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError(f"empty input, expected '{columns[0]}'", line=1)
    head = _ints(lines[0], columns[0], 1)
    if min(head[-2:]) < 0:
        raise GraphFormatError(f"negative size, expected '{columns[0]}', got {lines[0]!r}", line=1)
    rows = ((i, _ints(raw, columns[1], i)) for i, raw in enumerate(lines[1:], start=2) if raw.strip())
    return head, len(lines), rows


def _ints(raw: str, columns: str, line: int) -> list[int]:
    fields = raw.split()
    if len(fields) != columns.count(" ") + 1:
        raise GraphFormatError(f"expected '{columns}', got {raw!r}", line=line)
    try:
        return list(map(int, fields))
    except ValueError:
        raise GraphFormatError(f"non-integer field, expected '{columns}', got {raw!r}", line=line) from None


def parse_edge_list(text: str) -> MultiGraph:
    """Parse the plain edge-list format: header ``n m`` then m lines ``u v``.

    Canonical text (as `write_edge_list` writes it) whose n is at most its
    count of integers takes one bulk pass, in which `MultiGraph` checks the
    endpoint columns and maps them onto one int object per vertex.  Any
    other text, or a failed bulk pass, takes the line scan: the same graph
    for every valid text, and each error names its line.  It maps each row
    onto one int object per vertex as it reads it, when n <= its line count.
    """
    bulk = _canonical_ints(text, _EDGE_LIST_COLUMNS)
    if bulk is not None:
        ints, m = bulk
        # a failed bulk pass allocates no more than the text; MultiGraph rejects n < 0
        if ints[1] == m and ints[0] <= len(ints):
            try:
                return MultiGraph._of_columns(ints[0], ints[2::2], ints[3::2], list(range(ints[0])))
            except GraphError:
                pass  # the line scan names the line
    (n, m), lines, rows = _scan_ints(text, _EDGE_LIST_COLUMNS)
    verts = list(range(n)) if n <= lines else None
    us: list[int] = []
    vs: list[int] = []
    for line, (u, v) in rows:
        if u == v:
            raise GraphFormatError(f"loop at vertex {u} rejected", line=line)
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"endpoint out of range for n={n}: ({u}, {v})", line=line)
        us.append(u if verts is None else verts[u])  # the row's own ints go with it
        vs.append(v if verts is None else verts[v])
    if len(us) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(us)}", line=1)
    return MultiGraph._of_columns(n, us, vs)


def write_edge_list(g: MultiGraph) -> str:
    """Serialize to the edge-list format; parse(write(g)) preserves ids."""
    return _write_ints(_EDGE_LIST_COLUMNS, (g.n, g.m), (g.us, g.vs))
