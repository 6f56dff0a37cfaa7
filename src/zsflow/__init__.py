"""Zero-sum integer flows on regular multigraphs.

Constructions cover even-regular graphs (3-flows), 7-regular and odd r >= 9
regular graphs (5-flows), with an exact backtracking solver as independent
oracle and as the search path for degrees 3 and 5.
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
    euler_orientation,
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
    flow_even_regular,
    flow_odd_regular,
    flow_seven_regular,
    parse_flow,
    verify_flow,
    write_flow,
)
from .matching import (
    bipartite_perfect_matching,
    decompose_regular_bipartite,
    degree_range_factor,
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
    "euler_orientation",
    "flow_even_regular",
    "flow_number",
    "flow_odd_regular",
    "flow_seven_regular",
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
    "bipartite_perfect_matching",
    "build",
    "circulant",
    "complete",
    "components",
    "cubic_no_pm",
    "cycle",
    "decompose_regular_bipartite",
    "degree_range_factor",
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
