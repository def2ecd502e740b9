"""Near-proper graph colorings: exact bad-edge minimization and verification tools.

When fewer colors are available than a graph's chromatic number, every
coloring leaves some monochromatic ("bad") edges.  This package computes the
exact minimum for a fixed color budget, counts and reconstructs the optimal
colorings, and cross-checks every supported closed-form family value against
the exact search kernel.
"""

from importlib import import_module

# Each public name and the module that defines it.  A name is imported on
# first use (PEP 562), so ``python -m nearcolor`` loads only what its
# command needs.
_SOURCES = {
    "coloring": ("BadEdges", "Coloring", "RuleMode", "adjacent_class_count", "bad_edges", "is_valid"),
    "errors": (
        "GraphFormatError", "InfeasibleError", "InvalidColoringError", "InvalidParameterError",
        "NearcolorError", "SizeLimitError",
    ),
    "families": (
        "BoundReport", "FamilyResult", "complete_defect_polynomial", "complete_formula",
        "corona_chromatic", "corona_formula", "cycle_defect_polynomial", "helm_formula", "join_bound",
        "odd_cycle_formula", "path_formula", "union_bound", "wheel_formula",
    ),
    "graph": ("Graph", "complete", "corona", "cycle", "disjoint_union", "helm", "join", "path", "wheel"),
    "io": ("load_graph", "parse_dimacs", "parse_edge_list", "parse_graph", "write_dot", "write_edge_list"),
    "solver": (
        "KChromaticSubgraph", "SolveResult", "bad_edge_vertex_cover", "chromatic_number",
        "count_optimal", "enumerate_oracle", "greedy_heuristic", "k_chromatic_subgraph",
        "optimal_colorings", "solve",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
