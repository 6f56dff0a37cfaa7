"""Outside-in layer trace of zsflow, done entirely from the benchmark.

``Tracer.install`` rebinds the name of each traced function in every zsflow
module that imported it (and in the package namespace), so every call that
crosses a module boundary, and every call into a traced function from its
own module, goes through a wrapper that records a span.  ``uninstall`` puts
the original functions back.  The library source is not touched.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the durations of the root spans.
Each wrapper raises the recursion limit by one while its frame is on the
stack, which keeps the library's recursion headroom identical to an
untraced call: a ``RecursionError`` hits the same calls either way.
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = {
    "graphs": ("random_regular", "build", "parse_edge_list", "subgraph_from_edges", "components"),
    "matching": (
        "max_matching",
        "find_exact_factor",
        "degree_range_factor",
        "bipartite_perfect_matching",
        "decompose_regular_bipartite",
    ),
    "factorization": ("euler_orientation", "two_factorization", "regular_component_factor"),
    "flows": ("construct", "constant_sum_weighting", "verify_flow", "write_flow", "parse_flow"),
    "solver": ("solve", "flow_number"),
    "cli": ("main",),
}
STATS = ("calls", "self_s", "total_s", "failed")
RCF_STAGES = ("exact_k", "exact_k-1", "range_seed", "partition")
SOLVE_STATUSES = ("found", "nonexistent", "undecided")


class Tracer:
    """Per-function span totals plus the counts derived from arguments and results."""

    def __init__(self):
        self.stats = {
            f"{mod}.{fn}": dict.fromkeys(STATS, 0) for mod, fns in TRACED.items() for fn in fns
        }
        self.counts = {
            "matching.find_exact_factor.gadget_vertices": 0,
            "matching.find_exact_factor.gadget_edges": 0,
            "matching.find_exact_factor.found": 0,
            "matching.degree_range_factor.found": 0,
            "matching.decompose_regular_bipartite.peels": 0,
            "solver.solve.nodes": 0,
        }
        self.counts.update(
            {f"factorization.regular_component_factor.stage.{s}": 0 for s in RCF_STAGES}
        )
        self.counts.update({f"solver.solve.{s}": 0 for s in SOLVE_STATUSES})
        self.root_s = 0.0
        self._stack: list[list] = []  # open spans: [child_s, kids]
        self._bound: list[tuple] = []

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]
        for mod, fns in TRACED.items():
            home = sys.modules[prefix + mod]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        setattr(module, fn, wrapper)
                        self._bound.append((module, fn, original))

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._bound):
            setattr(module, fn, original)
        self._bound.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            sys.setrecursionlimit(sys.getrecursionlimit() + 1)
            span = [0.0, []]
            stack.append(span)
            result = None
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - span[0]
                if not ok:
                    stats["failed"] += 1
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1].append((name, result is not None))
                else:
                    self.root_s += duration
                if observe is not None:
                    observe(args, kwargs, result, ok, span[1])
                sys.setrecursionlimit(sys.getrecursionlimit() - 1)

        return traced

    # -- counts derived from arguments, results and child spans ------------

    def _observe_cli_main(self, args, kwargs, result, ok, kids):
        if ok and result != 0:
            self.stats["cli.main"]["failed"] += 1

    def _observe_matching_find_exact_factor(self, args, kwargs, result, ok, kids):
        g = args[0] if args else kwargs["g"]
        target = args[1] if len(args) > 1 else kwargs["target"]
        degs = g.degrees()
        if sum(target) % 2 == 0 and all(0 <= t <= d for t, d in zip(target, degs)):
            self.counts["matching.find_exact_factor.gadget_vertices"] += 2 * g.m + sum(
                d - t for t, d in zip(target, degs)
            )
            self.counts["matching.find_exact_factor.gadget_edges"] += g.m + sum(
                (d - t) * d for t, d in zip(target, degs)
            )
        self.counts["matching.find_exact_factor.found"] += result is not None

    def _observe_matching_degree_range_factor(self, args, kwargs, result, ok, kids):
        self.counts["matching.degree_range_factor.found"] += result is not None

    def _observe_matching_decompose_regular_bipartite(self, args, kwargs, result, ok, kids):
        self.counts["matching.decompose_regular_bipartite.peels"] += sum(
            1 for name, found in kids if name == "matching.bipartite_perfect_matching" and found
        )

    def _observe_factorization_regular_component_factor(self, args, kwargs, result, ok, kids):
        stage = None
        exact = 0
        for name, _ in kids:
            if name == "matching.degree_range_factor":
                stage = "range_seed"
            elif name == "matching.find_exact_factor":
                if stage in ("range_seed", "partition"):
                    stage = "partition"
                else:
                    exact += 1
                    stage = "exact_k" if exact == 1 else "exact_k-1"
        if stage is not None:
            self.counts[f"factorization.regular_component_factor.stage.{stage}"] += 1

    def _observe_solver_solve(self, args, kwargs, result, ok, kids):
        if ok:
            self.counts["solver.solve.nodes"] += result.nodes
            self.counts[f"solver.solve.{result.status}"] += 1

    def metrics(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` table, plus the derived ratios."""
        out = {f"{name}.{stat}": value for name, st in self.stats.items() for stat, value in st.items()}
        counts = dict(self.counts)
        for name in ("matching.find_exact_factor", "matching.degree_range_factor"):
            calls = self.stats[name]["calls"]
            counts[f"{name}.found_frac"] = counts.pop(f"{name}.found") / calls if calls else 0.0
        constructs = self.stats["flows.construct"]["calls"]
        verifies = self.stats["flows.verify_flow"]["calls"]
        counts["flows.verify_flow.calls_per_construct"] = verifies / constructs if constructs else 0.0
        out.update(counts)
        return out

    def self_sum_s(self) -> float:
        return sum(st["self_s"] for st in self.stats.values())

    def deterministic(self) -> dict[str, float]:
        """Every traced number that is not a time: these must repeat exactly."""
        return {k: v for k, v in self.metrics().items() if not k.endswith("_s")}
