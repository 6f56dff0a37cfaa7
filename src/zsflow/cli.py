"""Command-line surface: construct, verify, solve, flownumber, generate.

Reports are plain text documents with a stable key order so identical
command lines diff cleanly (only the wall_time_s line varies).  Exit codes:
0 success/verified (a decided "nonexistent" from solve counts as success),
1 failed verification verdict, 2 input error, 3 unsupported degree,
4 undecided within budget, 5 internal fault (a failed post-check,
`FactorSearchError`, `FlowNonexistentError` or an `IndexError`).  Commands
raise on input errors and return only their verdict's exit code; `main`
alone maps exceptions to exit codes and to the one ``error:`` (or
``undecided:``) line on stderr.
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


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report(args, g: MultiGraph, lines: list[str]) -> None:
    """Write the header, the graph block and ``lines`` to --out, or to stdout."""
    r = regular_degree(g)
    head = [
        f"command: {args.cmd}",
        f"version: {__version__}",
        "seed: -",
        f"input: {args.graph}",
        f"format: {args.format}",
        f"n: {g.n}",
        f"m: {g.m}",
        f"r: {'-' if r is None else r}",
    ]
    _write("\n".join([*head, *lines, ""]), args.out)


def _timed(call, *call_args):
    """Return ``call(*call_args)`` and the report's wall_time_s line for it."""
    start = time.perf_counter()
    result = call(*call_args)
    return result, f"wall_time_s: {time.perf_counter() - start:.3f}"


def _flow_block(flow, flow_out: str | None) -> str:
    """Write the flow file to --flow-out, if given, and return the report's flow line."""
    text = write_flow(flow)
    if flow_out:
        Path(flow_out).write_text(text)
    # the flow file's body, without its header and final newline ("flow:" alone when m = 0)
    return "flow:" + text[text.index("\n") : -1]


def _cmd_construct(args) -> int:
    g = _load_graph(args.graph, args.format)
    flow, wall = _timed(construct, g, args.budget)
    _report(args, g, ["outcome: flow", f"k: {flow.k}", "verified: pass", wall, _flow_block(flow, args.flow_out)])
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    doc = parse_flow(Path(args.flow).read_text())
    if doc.n != g.n:
        raise ValueError(f"vertex-count mismatch: graph has {g.n}, flow file says {doc.n}")
    if doc.m != g.m:
        raise ValueError(f"edge-count mismatch: graph has {g.m}, flow file says {doc.m}")
    if doc.endpoints != g.edges:  # two columns compared: some pair is swapped or wrong
        for e, (u, v, (fu, fv)) in enumerate(zip(g.us, g.vs, doc.endpoints)):
            if {u, v} != {fu, fv}:
                raise ValueError(f"edge {e} endpoints differ: graph ({u}, {v}), flow ({fu}, {fv})")
    k = args.k if args.k is not None else doc.k
    report, wall = _timed(verify_flow, g, doc.values, k)
    lines = [
        f"k: {k}",
        f"outcome: {'pass' if report.ok else 'fail'}",
        f"max_abs: {report.max_abs}",
        f"violation: {report.violation or '-'}",
        wall,
    ]
    _report(args, g, lines)
    return 0 if report.ok else 1


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph, args.format)
    outcome, wall = _timed(solve, g, args.k, args.budget)
    lines = [f"k: {args.k}", f"budget: {args.budget}", f"outcome: {outcome.status}", f"nodes: {outcome.nodes}"]
    if outcome.status == "found":
        lines += ["verified: pass", wall, _flow_block(outcome.flow, args.flow_out)]
    else:
        lines.append(wall)
    _report(args, g, lines)
    return 4 if outcome.status == "undecided" else 0


def _cmd_flownumber(args) -> int:
    g = _load_graph(args.graph, args.format)
    result, wall = _timed(flow_number, g, args.kmax, args.budget)
    lines = [
        f"kmax: {args.kmax}",
        f"budget: {args.budget}",
        f"outcome: {result.status}",
        f"flow_number: {'-' if result.k is None else result.k}",
        f"nodes: {sum(o.nodes for o in result.outcomes.values())}",
        wall,
    ]
    _report(args, g, lines)
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
    except (ValueError, OSError) as exc:
        # graph/flow format errors, bad parameters, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (RuntimeError, IndexError) as exc:
        # FlowNonexistentError, FactorSearchError, internal checks, indexing faults
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
