"""Zero-sum integer flows on regular multigraphs.

Constructions cover even-regular graphs (3-flows) and odd-regular graphs
(5-flows).  An exact backtracking solver is the independent oracle, and the
fallback for the 5-regular graphs with neither a perfect matching nor a
2-factor.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    FactorSearchError,
    FlowNonexistentError,
    FlowUndecidedError,
    GraphError,
    GraphFormatError,
    NotRegularError,
    UnsupportedDegreeError,
    ZsflowError,
)
from .graphs import (
    MultiGraph,
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
from .factorization import (
    regular_component_factor,
    two_factorization,
)
from .flows import (
    FlowDocument,
    FlowReport,
    IntFlow,
    constant_sum_weighting,
    construct,
    flow_odd_regular,
    parse_flow,
    verify_flow,
    write_flow,
)
from .matching import (
    find_exact_factor,
    has_perfect_matching,
    max_matching,
)
from .solver import (
    DEFAULT_BUDGET,
    CrossCheckReport,
    FlowNumberResult,
    SearchOutcome,
    cross_check,
    flow_number,
    solve,
)

__all__ = [
    "DEFAULT_BUDGET",
    "CrossCheckReport",
    "FlowDocument",
    "FlowNumberResult",
    "FlowReport",
    "IntFlow",
    "SearchOutcome",
    "constant_sum_weighting",
    "construct",
    "cross_check",
    "flow_number",
    "flow_odd_regular",
    "parse_flow",
    "regular_component_factor",
    "solve",
    "two_factorization",
    "verify_flow",
    "write_flow",
    "FactorSearchError",
    "FlowNonexistentError",
    "FlowUndecidedError",
    "GraphError",
    "GraphFormatError",
    "MultiGraph",
    "NotRegularError",
    "UnsupportedDegreeError",
    "ZsflowError",
    "build",
    "circulant",
    "complete",
    "components",
    "cubic_no_pm",
    "cycle",
    "find_exact_factor",
    "has_perfect_matching",
    "max_matching",
    "parse_edge_list",
    "parse_graph6",
    "petersen",
    "random_regular",
    "regular_degree",
    "subgraph_from_edges",
    "write_edge_list",
]
