from __future__ import annotations

import ast
import importlib
import random
import tracemalloc
import zlib
from pathlib import Path

import pytest

import zsflow
from zsflow import factorization, graphs, matching
from zsflow.errors import GraphError, GraphFormatError
from zsflow.flows import parse_flow
from zsflow.graphs import (
    MultiGraph,
    _EDGE_LIST_COLUMNS,
    _FLOW_COLUMNS,
    _canonical_ints,
    _incidence,
    build,
    circulant,
    complete,
    components,
    cubic_no_pm,
    cycle,
    parse_edge_list,
    parse_graph6,
    petersen,
    random_regular,
    regular_degree,
    subgraph_from_edges,
    write_edge_list,
)


def _graph6(g: MultiGraph) -> str:
    """graph6 text of a simple graph, written from the format's definition."""
    n = g.n
    size = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    pairs = {(min(u, v), max(u, v)) for u, v in g.edges}
    bits = [(i, j) in pairs for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [sum(bit << (5 - t) for t, bit in enumerate(bits[i : i + 6])) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in size + body)


class TestBuild:
    def test_triangle(self):
        g = build(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3 and g.m == 3
        assert g.degrees() == (2, 2, 2)

    def test_parallel_pair(self):
        g = build(2, [(0, 1), (0, 1)])
        assert g.m == 2
        assert g.degrees() == (2, 2)

    def test_loop_rejected_with_index(self):
        with pytest.raises(GraphError, match="edge 0"):
            build(2, [(0, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build(2, [(0, 2)])

    def test_edge_ids_dense_in_input_order(self):
        g = build(4, [(3, 2), (0, 1)])
        assert g.edges == ((3, 2), (0, 1))


# the edges of random_regular(12, 4, seed=1), 24 of them, with one made bad
# at the first, a middle and the last id: an endpoint out of range, or a loop
BAD_EDGES = [(at, bad) for at in (0, 12, 23) for bad in ("range", "loop")]


def _with_bad_edge(at: int, bad: str) -> tuple[list[tuple[int, int]], str]:
    """The 24 pairs with pair ``at`` made bad, and the message that names it, without its place."""
    pairs = list(random_regular(12, 4, seed=1).edges)
    u = pairs[at][0]
    if bad == "range":
        pairs[at] = (u, 12)
        return pairs, f"endpoint out of range for n=12: ({u}, 12)"
    pairs[at] = (u, u)
    return pairs, f"loop at vertex {u} rejected"


class TestColumns:
    """Endpoints are two int columns; ``edges`` is a read-only pair view over them."""

    def test_edges_view_reads_as_the_tuple_of_pairs(self):
        pairs = ((3, 2), (0, 1), (0, 1))
        g = build(4, pairs)
        assert (g.us, g.vs) == ((3, 0, 0), (2, 1, 1))
        assert g.edges is g.edges  # built once
        assert g.edges == pairs and pairs == g.edges and g.edges == list(pairs) and list(pairs) == g.edges
        assert g.edges == build(4, pairs).edges
        assert g.edges != pairs[:2] and g.edges != ((3, 2), (0, 1), (1, 0)) and g.edges != "ab"
        assert len(g.edges) == 3 and g.edges[0] == (3, 2) and g.edges[-1] == (0, 1)
        assert g.edges[1:] == pairs[1:] and list(g.edges) == list(pairs)
        assert hash(g.edges) == hash(pairs) and repr(g.edges) == repr(pairs)
        assert (0, 1) in g.edges and g.edges.index((0, 1)) == 1 and g.edges.count((0, 1)) == 2
        with pytest.raises(TypeError):
            g.edges[0] = (1, 2)

    @pytest.mark.parametrize("r", [4, 7])
    def test_memory_retained_per_edge(self, r):
        # the graph keeps its two columns (16 B per edge), its degrees and one
        # int object per vertex: about 36 B per edge at r = 4 and 27 at r = 7
        # on Python 3.11, from the generator and from the parser alike; a
        # tuple per edge kept 75-84 from the generator, and 117 from the
        # parser, whose every endpoint was a fresh int
        text = write_edge_list(random_regular(10_000, r, seed=1))
        parse_edge_list(write_edge_list(random_regular(50, r, seed=1)))  # a warm-up fills the interpreter's caches first
        for make in (lambda: random_regular(10_000, r, seed=1), lambda: parse_edge_list(text)):
            tracemalloc.start()
            try:
                g = make()
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert retained < 48 * g.m

    def test_parser_shares_one_int_object_per_vertex(self):
        g = parse_edge_list(write_edge_list(random_regular(1000, 4, seed=1)))
        assert len({*map(id, g.us), *map(id, g.vs)}) == g.n

    @pytest.mark.parametrize("at, bad", BAD_EDGES)
    def test_constructor_names_the_bad_edge(self, at, bad):
        pairs, message = _with_bad_edge(at, bad)
        with pytest.raises(GraphError) as info:
            MultiGraph(12, pairs)
        assert str(info.value) == f"edge {at}: {message}"

    @pytest.mark.parametrize("at, bad", BAD_EDGES)
    def test_bulk_parse_names_the_bad_edge(self, at, bad, monkeypatch):
        # the bulk pass's column check names the edge; the line scan then names its line
        pairs, message = _with_bad_edge(at, bad)
        text = "12 24\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        assert _canonical_ints(text, _EDGE_LIST_COLUMNS) is not None
        raised = []
        real = MultiGraph._of_columns.__func__

        def spy(cls, *args):
            try:
                return real(cls, *args)
            except GraphError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(MultiGraph, "_of_columns", classmethod(spy))
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(text)
        assert raised == [f"edge {at}: {message}"]
        assert str(info.value) == f"line {at + 2}: {message}"


class TestQueries:
    def test_regular_degree_petersen(self):
        assert regular_degree(petersen()) == 3

    def test_regular_degree_k5(self):
        assert regular_degree(complete(5)) == 4

    def test_regular_degree_path_absent(self):
        assert regular_degree(build(3, [(0, 1), (1, 2)])) is None

    def test_regular_degree_empty_graph_absent(self):
        assert regular_degree(MultiGraph(0, [])) is None

    def test_components_two_triangles(self):
        g = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_components_connected_k4(self):
        assert components(complete(4)) == [[0, 1, 2, 3]]

    def test_components_isolated(self):
        assert components(build(3, [])) == [[0], [1], [2]]

    @pytest.mark.parametrize("bad", [-1, -6, 6])
    def test_subgraph_rejects_edge_ids_out_of_range(self, bad):
        # -6 is edge 0 counted from the end: it must not give a second copy of (0, 1)
        with pytest.raises(ValueError, match=f"^edge id {bad} out of range for m=6$"):
            subgraph_from_edges(complete(4), [0, bad])

    def test_subgraph_vertices_are_the_endpoints(self):
        sub, vmap, emap = subgraph_from_edges(cycle(6), [4, 1])
        assert (vmap, emap) == ([1, 2, 4, 5], [1, 4])
        assert sub.edges == ((0, 1), (2, 3))

    def test_components_match_union_find(self):
        rng = random.Random(3)
        for n in (1, 7, 30, 60):
            g = build(n, [tuple(rng.sample(range(n), 2)) for _ in range(n // 2)])
            root = list(range(n))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for u, v in g.edges:
                root[find(u)] = find(v)
            groups: dict[int, list[int]] = {}
            for v in range(n):
                groups.setdefault(find(v), []).append(v)
            assert components(g) == sorted(groups.values())


def _multigraph() -> MultiGraph:
    """Parallel edges 0/2 and 1/5, a degree-3 vertex 3 and the isolated vertex 4."""
    return build(5, [(1, 2), (0, 1), (2, 1), (0, 2), (1, 3), (1, 0), (3, 0), (2, 3)])


class TestIncident:
    def test_edge_ids_at_each_vertex_ascending(self):
        g = _multigraph()
        inc = _incidence(g)
        assert inc[1] == [0, 1, 2, 4, 5]
        assert inc[3] == [4, 6, 7]
        assert inc[4] == []
        for v, ids in enumerate(inc):
            assert ids == sorted(ids)
            assert ids == [e for e, pair in enumerate(g.edges) if v in pair]

    def test_repeated_calls_are_equal(self):
        g = _multigraph()
        first = _incidence(g)
        second = _incidence(g)
        assert second == first and second is not first
        assert g.__slots__ == ("n", "us", "vs", "edges", "_degrees")  # nothing to keep it in

    def test_degrees_count_parallel_edges_at_both_ends(self):
        g = _multigraph()
        assert g.degrees() == (4, 5, 4, 3, 0)
        assert g.degrees() == tuple(map(len, _incidence(g)))


def test_every_public_name_resolves():
    missing = [name for name in zsflow.__all__ if not hasattr(zsflow, name)]
    assert not missing


def test_unused_helpers_live_only_in_their_home_modules():
    # no library path calls these, so their bodies are gone and the package
    # does not export them; each name is bound for the benchmark's tracer
    # alone, to a placeholder that names what to call instead
    homes = {
        "degree_range_factor": (matching, "find_exact_factor"),
        "bipartite_perfect_matching": (matching, "max_matching"),
        "decompose_regular_bipartite": (matching, "two_factorization"),
        "euler_orientation": (factorization, "no replacement"),
    }
    for name, (home, instead) in homes.items():
        assert name not in zsflow.__all__ and not hasattr(zsflow, name), name
        with pytest.raises(NotImplementedError, match=f"^{name} is deleted.*{instead}"):
            getattr(home, name)(complete(4))


def test_every_traced_name_resolves_in_its_module():
    # the benchmark's tracer wraps getattr(zsflow.<module>, name) for each
    # name of its TRACED table, so none may go before the tracer drops it;
    # the table is read from the source, which leaves the benchmark unrun
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert "cli" in traced and "max_matching" in traced["matching"]
    for module, names in traced.items():
        home = importlib.import_module(f"zsflow.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_every_private_helper_has_a_library_caller():
    # a module-level _name that only its own body or the tests reach is dead
    # library code: delete it, or move it to the tests that keep it alive
    trees = [ast.parse(p.read_text()) for p in Path(zsflow.__file__).parent.glob("*.py")]
    owned = {}  # id of each node inside a helper's definition -> that helper's name
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[:1] == "_" != node.name[1:2]:
                owned.update((id(inner), node.name) for inner in ast.walk(node))
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and owned.get(id(node)) != name:
                used.add(name)
    unused = sorted(set(owned.values()) - used)
    assert len(set(owned.values())) > 20 and not unused, unused


class TestGenerators:
    def test_cubic_no_pm_shape(self):
        g = cubic_no_pm()
        assert g.n == 16 and g.m == 24
        assert regular_degree(g) == 3

    def test_cubic_no_pm_center_separates_three_odd_parts(self):
        g = cubic_no_pm()
        keep = [e for e, (u, v) in enumerate(g.edges) if 15 not in (u, v)]
        sub, vmap, _ = subgraph_from_edges(g, keep)
        assert sorted(len(c) for c in components(sub)) == [5, 5, 5]

    def test_circulant_degree(self):
        assert regular_degree(circulant(8, {1, 2, 3})) == 6

    def test_circulant_half_offset(self):
        assert regular_degree(circulant(10, {1, 2, 3, 5})) == 7

    def test_circulant_bad_offsets(self):
        with pytest.raises(GraphError):
            circulant(8, {0, 1})
        with pytest.raises(GraphError):
            circulant(8, {1, 7})  # 7 == -1 mod 8

    @pytest.mark.parametrize("n", [0, -3])
    def test_circulant_needs_a_vertex(self, n):
        with pytest.raises(GraphError, match="at least 1 vertex"):
            circulant(n, {1})

    @pytest.mark.parametrize(
        "generate", [cycle, complete, lambda n: circulant(n, {1, 2})], ids=["cycle", "complete", "circulant"]
    )
    def test_vertex_count_past_any_list_refused_before_allocating(self, generate):
        with pytest.raises(GraphError, match=r"^vertex count 100000000000000000000 is too large to hold$"):
            generate(10**20)

    def test_complete_sizes_its_edge_count_before_allocating(self, monkeypatch):
        # a range stands in for a vertex list of 10**10; K_n's edge count is past any list
        monkeypatch.setattr(graphs, "_vertex_ids", range)
        with pytest.raises(GraphError, match=r"^edge count 49999999995000000000 is too large to hold$"):
            complete(10**10)

    def test_cycle_of_two_is_a_parallel_pair(self):
        assert cycle(2).edges == ((0, 1), (0, 1))

    def test_cycle_needs_two_vertices(self):
        with pytest.raises(GraphError, match="at least 2 vertices, got 1"):
            cycle(1)

    @pytest.mark.parametrize(
        "n, r, seed",
        [
            (n, r, seed)
            for n in range(1, 23)
            for r in sorted({3, 4, n - 2, n - 1})
            if 0 <= r < n and n * r % 2 == 0
            for seed in range(3)
        ],
    )
    def test_random_regular_is_regular_and_simple(self, n, r, seed):
        g = random_regular(n, r, seed=seed)
        assert all(u < v for u, v in g.edges)
        assert list(g.edges) == sorted(set(g.edges))  # ascending, no parallel pair
        assert g.degrees() == (r,) * n

    # crc32 of the edge-list text, measured on the generator that called
    # random.Random.shuffle; the comments give _pair_stubs attempts (restarts + 1)
    @pytest.mark.parametrize(
        "n, r, seed, crc",
        [
            (10, 3, 1, 1297370279),  # 3 attempts
            (14, 11, 3, 108243218),  # 7 attempts, 75 shuffles
            (20, 5, 6, 208039287),  # 4 attempts
            (12, 4, 1, 1616173850),  # 2 attempts
            (1600, 8, 1, 967738982),  # 2 attempts
            (200, 13, 1, 4144141076),
            (100, 9, 5, 993086335),
        ],
    )
    def test_random_regular_golden(self, n, r, seed, crc):
        assert zlib.crc32(write_edge_list(random_regular(n, r, seed)).encode()) == crc

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffle_makes_the_stdlib_draws(self, seed):
        # restarts and reshuffles continue from the state a shuffle leaves
        for length in [*range(71), 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097]:
            ref, rng = random.Random(seed), random.Random(seed)
            a, b = list(range(length)), list(range(length))
            ref.shuffle(a)
            graphs._shuffle(b, rng.getrandbits)
            assert b == a, length
            assert rng.getstate() == ref.getstate(), length

    @pytest.mark.parametrize("r", [7, 13])
    def test_random_regular_memory(self, r):
        # the pairing peaks at ~120 B per edge; the graph keeps ~75, and it
        # shares the endpoints' int objects, where a fresh int per endpoint adds 64
        tracemalloc.start()
        try:
            g = random_regular(20000, r, seed=1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 162 * g.m
        assert retained < 80 * g.m

    def test_random_regular_deterministic(self):
        a = random_regular(20, 3, seed=7)
        b = random_regular(20, 3, seed=7)
        assert a.edges == b.edges

    def test_random_regular_parity_rejected(self):
        with pytest.raises(GraphError):
            random_regular(5, 3, seed=0)

    def test_random_regular_gives_up_after_its_restarts(self, monkeypatch):
        monkeypatch.setattr(graphs, "_RANDOM_REGULAR_RESTARTS", 0)
        with pytest.raises(GraphError, match=r"^random_regular\(n=12, r=3\) gave up after 0 restarts$"):
            random_regular(12, 3, seed=0)

    @pytest.mark.parametrize("n, r", [(4, 4), (4, 6), (5, -1)])
    def test_random_regular_degree_out_of_range(self, n, r):
        with pytest.raises(GraphError, match="need 0 <= r < n"):
            random_regular(n, r, seed=0)

    def test_random_regular_dense_degrees(self):
        # high degree exercises the stub re-pairing path
        g = random_regular(14, 11, seed=3)
        assert regular_degree(g) == 11

    def test_generator_regularity_sweep(self):
        for gen, r in [(cycle(6), 2), (complete(6), 5), (petersen(), 3), (cubic_no_pm(), 3)]:
            assert regular_degree(gen) == r


class TestSerialization:
    def test_graph6_k4(self):
        # 'C~' decodes as n=4 (67-63) with all six upper-triangle bits set
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6
        assert regular_degree(g) == 3

    def test_graph6_header_and_petersen_roundtrip_degrees(self):
        # petersen in graph6, upper triangle packed manually via adjacency
        p = petersen()
        adj = [[False] * 10 for _ in range(10)]
        for u, v in p.edges:
            adj[u][v] = adj[v][u] = True
        bits = [adj[i][j] for j in range(1, 10) for i in range(j)]
        body = []
        for i in range(0, len(bits), 6):
            chunk = bits[i : i + 6] + [False] * (6 - len(bits[i : i + 6]))
            body.append(63 + int("".join("1" if b else "0" for b in chunk), 2))
        text = ">>graph6<<" + chr(63 + 10) + "".join(map(chr, body))
        g = parse_graph6(text)
        assert g.n == 10 and g.m == 15 and regular_degree(g) == 3

    def test_graph6_stripped_control_byte_leaves_no_body(self):
        # str.strip() removes chr(30) as whitespace, so K4's body is missing
        with pytest.raises(GraphFormatError, match="graph6 body length 0 does not match n=4"):
            parse_graph6("C" + chr(30))

    @pytest.mark.parametrize(
        "g", [complete(62), complete(63), complete(70), random_regular(100, 3, seed=1)], ids=lambda g: f"n{g.n}"
    )
    def test_graph6_size_forms(self, g):
        # n <= 62 takes one size byte, 63 <= n <= 258047 the 4-byte form
        text = _graph6(g)
        assert len(text) == (1 if g.n <= 62 else 4) + (g.n * (g.n - 1) // 2 + 5) // 6
        assert sorted(parse_graph6(text).edges) == sorted(g.edges)

    def test_graph6_invalid_byte_is_named(self):
        # chr(30) above is stripped as whitespace; "!" is not
        with pytest.raises(GraphFormatError, match="invalid graph6 byte '!' at position 1"):
            parse_graph6("C!")

    @pytest.mark.parametrize("text", ["", " \n", ">>graph6<<"])
    def test_graph6_empty(self, text):
        with pytest.raises(GraphFormatError, match="empty graph6 string"):
            parse_graph6(text)

    @pytest.mark.parametrize("text", ["~~??????", "~"])
    def test_graph6_size_above_the_4_byte_form(self, text):
        with pytest.raises(GraphFormatError, match="sizes above 258047"):
            parse_graph6(text)

    def test_edge_list_triangle(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n2 0")
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_edge_list_loop_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("2 1\n0 0")

    def test_edge_list_bad_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("three edges")

    @pytest.mark.parametrize("text", ["-1 0", "3 -2", "-2 1\n0 1"])
    def test_edge_list_negative_header_size(self, text):
        with pytest.raises(GraphFormatError, match="line 1: negative size"):
            parse_edge_list(text)

    def test_edge_list_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 2\n0 1")

    def test_roundtrip_identity(self):
        g = build(4, [(2, 3), (0, 1), (1, 3), (0, 1)])
        text = write_edge_list(g)
        h = parse_edge_list(text)
        assert h.n == g.n and h.edges == g.edges
        assert write_edge_list(h) == text


def _set_line(text: str, lineno: int, line: str | None) -> str:
    """``text`` with its line ``lineno`` (1-based) replaced, or dropped when None."""
    lines = text.split("\n")
    lines[lineno - 1 : lineno] = [] if line is None else [line]
    return "\n".join(lines)


def _scan_variants(text: str) -> list[str]:
    """Spellings of a canonical text with the same lines, none of them canonical."""
    return [text.replace(" ", "\t"), text.replace("\n", "\r\n"), text + "\n", text.removesuffix("\n")]


def _outcome(parse, text: str):
    """What ``parse`` makes of ``text``: its result, or its error's type, message and line.

    A message quotes its line, so a tab there reads as the space it replaced.
    """
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc).replace("\\t", " "), getattr(exc, "line", None)


def _graph_outcome(text: str):
    g = _outcome(parse_edge_list, text)
    return (g.n, g.edges) if isinstance(g, MultiGraph) else g


# mutations of the canonical text of random_regular(12, 4, seed=1): 24 edge
# lines, so line 25 is the last
EDGE_LIST_MUTATIONS = {
    "loop": lambda t: _set_line(t, 5, "3 3"),
    "endpoint out of range": lambda t: _set_line(t, 5, "0 12"),
    "negative endpoint": lambda t: _set_line(t, 5, "-1 2"),
    "minus alone": lambda t: _set_line(t, 5, "- 2"),
    "minus zero": lambda t: _set_line(t, 5, "-0 2"),
    "leading zeros": lambda t: _set_line(t, 5, "007 2"),
    "plus sign": lambda t: _set_line(t, 5, "+1 2"),
    "non-ASCII digit": lambda t: _set_line(t, 5, "\u0663 2"),
    "5000-digit int": lambda t: _set_line(t, 5, "9" * 5000 + " 2"),
    "three fields": lambda t: _set_line(t, 5, "1 2 3"),
    "one field": lambda t: _set_line(t, 5, "1"),
    "short body": lambda t: _set_line(t, 25, None),
    "long body": lambda t: t + "0 1\n",
    "non-integer header": lambda t: _set_line(t, 1, "12 x"),
    "three-field header": lambda t: _set_line(t, 1, "12 24 1"),
    "negative header": lambda t: _set_line(t, 1, "-12 24"),
    "header n too small": lambda t: _set_line(t, 1, "3 24"),
    "isolated vertices": lambda t: _set_line(t, 1, "1000 24"),
    "header m far past the body": lambda t: _set_line(t, 1, "12 1000000000000"),
    "field after the last newline": lambda t: t + "55",
    "line after the last newline": lambda t: t + "0 55",
}


class TestEdgeListBulkPass:
    """Canonical text takes one bulk pass; its variants take the line scan."""

    TEXT = write_edge_list(random_regular(12, 4, seed=1))

    @pytest.mark.parametrize(
        "g", [random_regular(40, r, seed=r) for r in (3, 4, 7)] + [build(5, []), cubic_no_pm()]
    )
    def test_canonical_text_and_its_variants_parse_alike(self, g):
        text = write_edge_list(g)
        assert _canonical_ints(text, _EDGE_LIST_COLUMNS) is not None
        h = parse_edge_list(text)
        assert (h.n, h.edges) == (g.n, g.edges)
        for variant in _scan_variants(text):
            assert _canonical_ints(variant, _EDGE_LIST_COLUMNS) is None
            assert _graph_outcome(variant) == (g.n, g.edges)

    @pytest.mark.parametrize("mutate", EDGE_LIST_MUTATIONS.values(), ids=EDGE_LIST_MUTATIONS)
    def test_a_mutation_gives_what_its_variants_give(self, mutate):
        text = mutate(self.TEXT)
        expected = _graph_outcome(text)
        for variant in _scan_variants(text):
            assert _graph_outcome(variant) == expected

    def test_mutations_past_the_structure_check_reach_the_later_checks(self):
        # canonical in form and decoded whole, so the header checks or MultiGraph turn them back
        names = ["loop", "endpoint out of range", "negative endpoint", "short body", "long body"]
        names += ["negative header", "header n too small", "header m far past the body"]
        for name in names:
            assert _canonical_ints(EDGE_LIST_MUTATIONS[name](self.TEXT), _EDGE_LIST_COLUMNS) is not None

    def test_a_header_n_past_the_text_builds_nothing_before_the_scan(self, monkeypatch):
        built = []
        monkeypatch.setattr(MultiGraph, "_of_columns", classmethod(lambda cls, n, *columns: built.append(n)))
        with pytest.raises(GraphFormatError, match="line 2: loop"):
            parse_edge_list("1000000 1\n0 0\n")
        assert built == []

    def test_line_scan_shares_one_int_per_vertex(self):
        # n > 256, past CPython's cache of small ints, so each field parses to a fresh int
        g = random_regular(400, 4, seed=1)
        text = write_edge_list(g).replace("\n", " \n")
        assert _canonical_ints(text, _EDGE_LIST_COLUMNS) is None
        h = parse_edge_list(text)
        assert (h.n, h.edges) == (g.n, g.edges)
        assert len({id(x) for x in (*h.us, *h.vs)}) == g.n

    def test_line_scan_peaks_no_higher_than_the_bulk_pass(self):
        # each row's endpoints go onto the shared vertex ints as it is read,
        # so no column of fresh ints per endpoint is held until the end
        canonical = write_edge_list(random_regular(2000, 4, seed=1))
        peaks = []
        for text in (canonical, canonical.replace("\n", " \n")):
            parse_edge_list(text)  # fills the interpreter's free lists first
            tracemalloc.start()
            try:
                parse_edge_list(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bulk, scan = peaks
        assert scan <= bulk, peaks

    def test_line_scan_allocates_nothing_per_vertex_past_its_line_count(self):
        n = 100_000
        tracemalloc.start()
        try:
            g = parse_edge_list(f"{n} 1\n0 1 \n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == n
        assert peak < 20 * n  # the degree list and its tuple, 16 B per vertex, and no int object per vertex
        with pytest.raises(GraphError, match="^vertex count 100000000000000000000 is too large to hold$"):
            parse_edge_list("100000000000000000000 1\n0 1 \n")

    def test_errors_name_their_line(self):
        for name, line in [("loop", 5), ("endpoint out of range", 5), ("three fields", 5), ("short body", 1)]:
            with pytest.raises(GraphFormatError) as info:
                parse_edge_list(EDGE_LIST_MUTATIONS[name](self.TEXT))
            assert info.value.line == line

    def test_spellings_the_bulk_pass_refuses_are_read_as_int_reads_them(self):
        # json reads -0 as int() does; 007, +1 and the Arabic-Indic 3 go to the scan
        for name, edge in [("minus zero", (0, 2)), ("leading zeros", (7, 2)), ("plus sign", (1, 2))]:
            assert parse_edge_list(EDGE_LIST_MUTATIONS[name](self.TEXT)).edges[3] == edge
        assert parse_edge_list(EDGE_LIST_MUTATIONS["non-ASCII digit"](self.TEXT)).edges[3] == (3, 2)


# each error of the shared line scan, as (text, its line), from a format's
# valid header and two valid rows
SCAN_ERRORS = {
    "empty text": lambda head, row, row2: ("", 1),
    "header field count": lambda head, row, row2: (f"{head} 1\n{row}\n{row2}\n", 1),
    "non-integer header": lambda head, row, row2: (f"{head[:-1]}x\n{row}\n{row2}\n", 1),
    "negative size": lambda head, row, row2: (f"{head[:-1]}-1\n", 1),
    "row field count": lambda head, row, row2: (f"{head}\n{row}\n{row2} 1\n", 3),
    "non-integer row field": lambda head, row, row2: (f"{head}\n{row}\n{row2[:-1]}x\n", 3),
}
TABLE_FORMATS = {
    "edge list": (parse_edge_list, _EDGE_LIST_COLUMNS, ("3 2", "0 1", "1 2")),
    "flow": (parse_flow, _FLOW_COLUMNS, ("3 3 2", "0 0 1 1", "1 1 2 -1")),
}


@pytest.mark.parametrize("fmt", TABLE_FORMATS)
@pytest.mark.parametrize("error", SCAN_ERRORS)
def test_both_formats_word_each_scan_error_alike(fmt, error):
    parse, columns, lines = TABLE_FORMATS[fmt]
    assert parse("\n".join(lines))  # the unmutated text parses
    text, line = SCAN_ERRORS[error](*lines)
    with pytest.raises(GraphFormatError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")
    assert f"'{columns[line > 1]}'" in str(info.value)


def test_a_row_check_comes_before_a_later_rows_scan_error():
    # the scan reads rows lazily, so the first faulty line is the one named
    with pytest.raises(GraphFormatError, match="^line 2: loop"):
        parse_edge_list("3 2\n0 0\n1 x\n")
    with pytest.raises(GraphFormatError, match="^line 2: edge id 5 out of range"):
        parse_flow("3 3 2\n5 0 1 1\n1 x\n")
