"""Independent flow checker for the benchmark.

Shares no code with zsflow: it reads plain edge lists and flow files with
its own parsers and checks every flow the benchmark gets back.  Each check
returns None when the flow is valid, or a one-line description of the first
violation.
"""

from __future__ import annotations


def contract_k(r: int) -> int:
    """The k the paper's constructions promise for regular degree r."""
    return 3 if r % 2 == 0 else 5


def check_values(n: int, edges, values, k: int) -> str | None:
    """Nonzero values, |value| <= k-1, and a zero sum at every vertex."""
    if len(values) != len(edges):
        return f"{len(values)} values for {len(edges)} edges"
    sums = [0] * n
    for e, ((u, v), val) in enumerate(zip(edges, values)):
        if type(val) is not int:
            return f"edge {e} value {val!r} is not an integer"
        if val == 0:
            return f"edge {e} has value 0"
        if abs(val) > k - 1:
            return f"edge {e} value {val} exceeds {k - 1}"
        sums[u] += val
        sums[v] += val
    for v, s in enumerate(sums):
        if s:
            return f"vertex {v} sums to {s}"
    return None


def check_flow(n: int, edges, values, k: int, allowed_k) -> str | None:
    """A returned flow: claimed bound k within the contract, then its values."""
    if k not in allowed_k:
        return f"claimed k={k}, the contract allows {sorted(allowed_k)}"
    return check_values(n, edges, values, k)


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse 'n m' then m lines 'u v'."""
    lines = text.split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = []
    for line in lines[1 : m + 1]:
        u, v = line.split()
        edges.append((int(u), int(v)))
    if len(edges) != m:
        raise ValueError(f"edge list promises {m} edges, has {len(edges)}")
    return n, edges


def write_edge_list(n: int, edges) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def check_flow_file(text: str, n: int, edges, allowed_k) -> str | None:
    """A flow file 'k n m' then 'edge_id u v value' lines, against its graph."""
    try:
        lines = [line for line in text.split("\n") if line.strip()]
        k, fn, fm = (int(x) for x in lines[0].split())
        if (fn, fm) != (n, len(edges)):
            return f"flow file is for n={fn} m={fm}, graph has n={n} m={len(edges)}"
        values = [0] * fm
        seen = [False] * fm
        for line in lines[1:]:
            e, u, v, val = (int(x) for x in line.split())
            if not 0 <= e < fm or seen[e]:
                return f"flow file edge id {e} out of range or repeated"
            if {u, v} != set(edges[e]):
                return f"flow file edge {e} = ({u}, {v}), graph has {edges[e]}"
            seen[e] = True
            values[e] = val
        if not all(seen):
            return f"flow file misses edge {seen.index(False)}"
    except (ValueError, IndexError) as exc:
        return f"unreadable flow file: {exc!r}"
    return check_flow(n, edges, values, k, allowed_k)
