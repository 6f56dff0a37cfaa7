"""Command-line surface: construct, verify, solve, flownumber, generate.

Reports are plain text documents with a stable key order so identical
command lines diff cleanly (only the wall_time_s line varies).  Exit codes:
0 success/verified (a decided "nonexistent" from solve counts as success),
1 failed verification verdict, 2 input error, 3 unsupported degree,
4 undecided within budget, 5 internal verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import __version__
from .errors import FlowUndecidedError, UnsupportedDegreeError
from .flows import construct, parse_flow, verify_flow, write_flow
from .graphs import (
    MultiGraph,
    circulant,
    complete,
    cubic_no_pm,
    cycle,
    parse_edge_list,
    parse_graph6,
    petersen,
    random_regular,
    regular_degree,
    write_edge_list,
)
from .solver import DEFAULT_BUDGET, flow_number, solve


def _load_graph(path: str, fmt: str) -> MultiGraph:
    text = Path(path).read_text()
    return parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)


def _emit(lines: list[str], out: str | None) -> None:
    _write("\n".join(lines) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _header(command: str) -> list[str]:
    return [f"command: {command}", f"version: {__version__}", "seed: -"]


def _graph_block(source: str, fmt: str, g: MultiGraph) -> list[str]:
    r = regular_degree(g)
    return [
        f"input: {source}",
        f"format: {fmt}",
        f"n: {g.n}",
        f"m: {g.m}",
        f"r: {'-' if r is None else r}",
    ]


def _cmd_construct(args) -> int:
    g = _load_graph(args.graph, args.format)
    start = time.perf_counter()
    flow = construct(g, budget=args.budget)
    wall = time.perf_counter() - start
    lines = _header("construct") + _graph_block(args.graph, args.format, g)
    lines += ["outcome: flow", f"k: {flow.k}", "verified: pass", f"wall_time_s: {wall:.3f}"]
    text = write_flow(flow)
    # the flow file's body, without its header, as one string ("flow:" alone when m = 0)
    lines.append("flow:" + text[text.index("\n") :].rstrip("\n"))
    _emit(lines, args.out)
    if args.flow_out:
        Path(args.flow_out).write_text(text)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    doc = parse_flow(Path(args.flow).read_text())
    if doc.n != g.n:
        print(f"error: vertex-count mismatch: graph has {g.n}, flow file says {doc.n}", file=sys.stderr)
        return 2
    if doc.m != g.m:
        print(f"error: edge-count mismatch: graph has {g.m}, flow file says {doc.m}", file=sys.stderr)
        return 2
    if doc.endpoints != g.edges:  # some pair is swapped or wrong
        for e, ((u, v), (fu, fv)) in enumerate(zip(g.edges, doc.endpoints)):
            if {u, v} != {fu, fv}:
                print(f"error: edge {e} endpoints differ: graph ({u}, {v}), flow ({fu}, {fv})", file=sys.stderr)
                return 2
    k = args.k if args.k is not None else doc.k
    start = time.perf_counter()
    report = verify_flow(g, doc.values, k=k)
    wall = time.perf_counter() - start
    lines = _header("verify") + _graph_block(args.graph, args.format, g)
    lines += [
        f"k: {k}",
        f"outcome: {'pass' if report.ok else 'fail'}",
        f"max_abs: {report.max_abs}",
        f"violation: {report.violation or '-'}",
        f"wall_time_s: {wall:.3f}",
    ]
    _emit(lines, args.out)
    return 0 if report.ok else 1


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph, args.format)
    start = time.perf_counter()
    outcome = solve(g, args.k, args.budget)
    wall = time.perf_counter() - start
    lines = _header("solve") + _graph_block(args.graph, args.format, g)
    lines += [f"k: {args.k}", f"budget: {args.budget}", f"outcome: {outcome.status}", f"nodes: {outcome.nodes}"]
    if outcome.status == "found":
        lines += ["verified: pass", f"wall_time_s: {wall:.3f}"]
        text = write_flow(outcome.flow)
        lines.append("flow:" + text[text.index("\n") :].rstrip("\n"))
        if args.flow_out:
            Path(args.flow_out).write_text(text)
    else:
        lines += [f"wall_time_s: {wall:.3f}"]
    _emit(lines, args.out)
    return 4 if outcome.status == "undecided" else 0


def _cmd_flownumber(args) -> int:
    g = _load_graph(args.graph, args.format)
    start = time.perf_counter()
    result = flow_number(g, args.kmax, args.budget)
    wall = time.perf_counter() - start
    lines = _header("flownumber") + _graph_block(args.graph, args.format, g)
    lines += [
        f"kmax: {args.kmax}",
        f"budget: {args.budget}",
        f"outcome: {result.status}",
        f"flow_number: {'-' if result.k is None else result.k}",
        f"nodes: {sum(o.nodes for o in result.outcomes.values())}",
        f"wall_time_s: {wall:.3f}",
    ]
    _emit(lines, args.out)
    return 4 if result.status == "undecided" else 0


_FAMILIES = {  # family -> (its parameter names, its generator, called with them and --seed)
    "cycle": (("N",), lambda n, seed: cycle(int(n))),
    "complete": (("N",), lambda n, seed: complete(int(n))),
    "petersen": ((), lambda seed: petersen()),
    "circulant": (("N", "OFFSETS"), lambda n, ds, seed: circulant(int(n), map(int, ds.split(",")))),
    "random-regular": (("N", "R"), lambda n, r, seed: random_regular(int(n), int(r), seed=seed)),
    "cubic-no-pm": ((), lambda seed: cubic_no_pm()),
}


def _cmd_generate(args) -> int:
    names, generate = _FAMILIES[args.family]
    if len(args.params) != len(names):
        usage = " ".join(("generate", args.family, *names))
        raise ValueError(f"expected '{usage}', got {len(args.params)} parameter(s)")
    g = generate(*args.params, seed=args.seed)
    _write(write_edge_list(g), args.out)
    return 0


def _add_io_options(sub, flow_out: bool = False) -> None:
    sub.add_argument("graph", help="graph file")
    sub.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    sub.add_argument("--out", help="write the report here instead of stdout")
    if flow_out:
        sub.add_argument("--flow-out", help="also write the flow in flow-file format")


@functools.cache  # built once per process; parse_args still returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zsflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"zsflow {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("construct", help="build and verify a zero-sum flow")
    _add_io_options(p, flow_out=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="solver node budget")
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("verify", help="check a flow file against a graph")
    _add_io_options(p)
    p.add_argument("flow", help="flow file ('k n m' header, then 'edge_id u v value')")
    p.add_argument("--k", type=int, help="override the claimed bound from the flow header")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("solve", help="exhaustive search for a zero-sum k-flow")
    _add_io_options(p, flow_out=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="node budget")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("flownumber", help="minimal k admitting a zero-sum k-flow")
    _add_io_options(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="node budget per k")
    p.set_defaults(func=_cmd_flownumber)

    p = subs.add_parser("generate", help="write a generated graph as an edge list")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", nargs="*", help="family parameters, e.g. 'circulant 10 1,2,3,5'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the edge list here instead of stdout")
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FlowUndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 4
    except (ValueError, IndexError, OSError) as exc:
        # graph/flow format errors, bad parameters, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # FlowNonexistentError, FactorSearchError and internal check failures
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
