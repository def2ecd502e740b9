"""Near-proper graph colorings: exact bad-edge minimization and verification tools.

When fewer colors are available than a graph's chromatic number, every
coloring leaves some monochromatic ("bad") edges.  This package computes the
exact minimum for a fixed color budget, counts and reconstructs the optimal
colorings, and cross-checks every supported closed-form family value against
the exact search kernel.
"""

from .coloring import (
    BadEdges,
    Coloring,
    RuleMode,
    adjacent_class_count,
    bad_edges,
    is_valid,
)
from .errors import (
    GraphFormatError,
    InfeasibleError,
    InvalidColoringError,
    InvalidParameterError,
    NearcolorError,
    SizeLimitError,
)
from .families import (
    BoundReport,
    FamilyResult,
    complete_defect_polynomial,
    complete_formula,
    corona_chromatic,
    corona_formula,
    cycle_defect_polynomial,
    helm_formula,
    join_bound,
    odd_cycle_formula,
    path_formula,
    union_bound,
    wheel_formula,
)
from .graph import (
    Graph,
    complete,
    corona,
    cycle,
    disjoint_union,
    helm,
    join,
    path,
    wheel,
)
from .io import (
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    write_dot,
    write_edge_list,
)
from .solver import (
    KChromaticSubgraph,
    SolveResult,
    SolverConfig,
    bad_edge_vertex_cover,
    chromatic_number,
    count_optimal,
    enumerate_oracle,
    greedy_heuristic,
    k_chromatic_subgraph,
    optimal_colorings,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BadEdges",
    "BoundReport",
    "Coloring",
    "FamilyResult",
    "Graph",
    "GraphFormatError",
    "InfeasibleError",
    "InvalidColoringError",
    "InvalidParameterError",
    "KChromaticSubgraph",
    "NearcolorError",
    "RuleMode",
    "SizeLimitError",
    "SolveResult",
    "SolverConfig",
    "adjacent_class_count",
    "bad_edge_vertex_cover",
    "bad_edges",
    "chromatic_number",
    "complete",
    "complete_defect_polynomial",
    "complete_formula",
    "corona",
    "corona_chromatic",
    "corona_formula",
    "count_optimal",
    "cycle",
    "cycle_defect_polynomial",
    "disjoint_union",
    "enumerate_oracle",
    "greedy_heuristic",
    "helm",
    "helm_formula",
    "is_valid",
    "join",
    "join_bound",
    "k_chromatic_subgraph",
    "load_graph",
    "odd_cycle_formula",
    "optimal_colorings",
    "parse_dimacs",
    "parse_edge_list",
    "parse_graph",
    "path",
    "path_formula",
    "solve",
    "union_bound",
    "wheel",
    "wheel_formula",
    "write_dot",
    "write_edge_list",
]
