"""Reading and writing graphs.

Canonical edge-list format: the first significant line is ``n m``, followed
by exactly m lines ``u v`` with 0-based endpoints; ``#`` starts a comment.
DIMACS coloring files (``p edge n m`` header, ``e u v`` 1-based lines, ``c``
comments) are accepted on read and converted to 0-based indices.  A header
declaring more than ``MAX_VERTICES`` vertices is rejected.  The writer
always emits the canonical format with edges sorted lexicographically.
"""

from __future__ import annotations

from .coloring import Coloring, _check_fit
from .errors import GraphFormatError, _excerpt
from .graph import MAX_VERTICES, Edge, Graph


def _parse_int_pair(parts: list[str], line_no: int, what: str) -> tuple[int, int]:
    # A token longer than CPython's default int/str limit (4300 digits) is
    # refused unread, as that limit refuses it: the CLI lifts the limit, and
    # int() takes quadratic time in the digits.
    try:
        if len(parts) == 2 and max(map(len, parts)) <= 4300:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise GraphFormatError(f"expected two integers for {what}, got {_excerpt(' '.join(parts))}", line_no)


def _parse(text: str, dimacs: bool) -> Graph:
    """Parse the format ``dimacs`` selects.  Faults are reported in one order:
    the header, its counts, the number of edge lines, then each edge line in
    file order.  Error messages name the endpoints as the file wrote them."""
    if dimacs:
        comment, header_what, edge_what = "c", "header 'p edge n m'", "edge 'e u v'"
    else:
        comment, header_what, edge_what = "#", "header 'n m'", "edge 'u v'"
    numbered = enumerate(text.splitlines(), start=1)
    lines = [(no, line) for no, raw in numbered if (line := raw.strip()) and not line.startswith(comment)]
    if not lines:
        raise GraphFormatError("empty graph file")
    (header_no, header), body = lines[0], lines[1:]
    parts = header.split()
    if dimacs:
        if len(parts) != 4 or parts[0] != "p" or parts[1] != "edge":
            raise GraphFormatError(f"expected header 'p edge n m', got {_excerpt(header)}", header_no)
        parts = parts[2:]
    n, m = _parse_int_pair(parts, header_no, header_what)
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be non-negative", header_no)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {_excerpt(n)} exceeds the limit of {MAX_VERTICES}", header_no)
    if len(body) != m:
        raise GraphFormatError(
            f"header declares {_excerpt(m)} edges but file contains {len(body)} edge lines", header_no
        )
    lo, hi = (1, n) if dimacs else (0, n - 1)
    edges: set[Edge] = set()
    for line_no, line in body:
        parts = line.split()
        if dimacs:
            if parts[0] != "e":
                raise GraphFormatError(f"unexpected line type {_excerpt(parts[0])}", line_no)
            parts = parts[1:]
        u, v = _parse_int_pair(parts, line_no, edge_what)
        if not (lo <= u <= hi and lo <= v <= hi):
            raise GraphFormatError(
                f"endpoint out of range {lo}..{hi} in edge {_excerpt(u)} {_excerpt(v)}", line_no
            )
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line_no)
        e = (min(u, v) - lo, max(u, v) - lo)
        if e in edges:
            raise GraphFormatError(f"duplicate edge {u} {v}", line_no)
        edges.add(e)
    return Graph(n, tuple(edges))


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical ``n m`` / ``u v`` edge-list format."""
    return _parse(text, dimacs=False)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS coloring format (``p edge n m``, ``e u v`` 1-based)."""
    return _parse(text, dimacs=True)


def parse_graph(text: str) -> Graph:
    """Parse either supported format, detected from the first non-empty line."""
    return _parse(text, dimacs=text.lstrip()[:1] in ("p", "c"))


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header then lexicographically sorted edges."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_dot(g: Graph, coloring: Coloring | None = None) -> str:
    """DOT text for the graph; vertices carry a ``color`` attribute if given."""
    lines = ["graph G {"]
    if coloring is not None:
        _check_fit(g, coloring)
        for v in range(g.n):
            lines.append(f"  {v} [color={coloring.assignment[v]}];")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

