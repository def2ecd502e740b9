"""Edge-list and DIMACS parsing and the canonical and DOT writers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearcolor import (
    Coloring,
    Graph,
    GraphFormatError,
    InvalidColoringError,
    complete,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    path,
    write_dot,
    write_edge_list,
)
from nearcolor.io import MAX_VERTICES


def test_parse_edge_list_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
    assert g.edges == complete(3).edges


def test_parse_edge_list_with_comments_and_blank_lines():
    g = parse_graph("# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n0 2\n")
    assert g.edges == complete(3).edges


def test_parse_dimacs_path():
    g = parse_graph("c tiny instance\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.edges == path(3).edges


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("2 1\n0 0\n")
    assert exc.value.line_no == 2
    with pytest.raises(GraphFormatError) as exc:  # DIMACS vertices are named as the file wrote them
        parse_dimacs("p edge 3 2\ne 1 2\ne 3 3\n")
    assert exc.value.line_no == 3
    assert "self-loop at vertex 3" in str(exc.value)


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 2\n0 1\n1 0\n")
    assert exc.value.line_no == 3
    with pytest.raises(GraphFormatError) as exc:
        parse_dimacs("c two copies\np edge 3 2\ne 1 2\ne 2 1\n")
    assert exc.value.line_no == 4
    assert "duplicate edge 2 1" in str(exc.value)


def test_parse_rejects_out_of_range_endpoint():
    with pytest.raises(GraphFormatError):
        parse_graph("2 1\n0 5\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2 1\ne 1 3\n")


def test_parse_rejects_malformed_header_and_wrong_edge_count():
    for text in ("x y\n", "3\n0 1\n", "3 2\n0 1\n", "p edge x 1\ne 1 2\n", "p foo 3 1\ne 1 2\n", ""):
        with pytest.raises(GraphFormatError):
            parse_graph(text)


def test_parse_rejects_a_vertex_count_above_the_limit():
    for n in (MAX_VERTICES + 1, 2 * 10**9):
        for parse, text, line_no in ((parse_edge_list, f"{n} 0\n", 1), (parse_dimacs, f"c huge\np edge {n} 0\n", 2)):
            with pytest.raises(GraphFormatError) as exc:
                parse(text)
            assert exc.value.line_no == line_no
            assert f"vertex count {n} exceeds" in str(exc.value)


def test_errors_echo_a_short_token_whole_and_a_long_one_cut():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 1\n0 x\n")
    assert str(exc.value) == "line 2: expected two integers for edge 'u v', got '0 x'"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 1\n0 " + "x" * 10_000 + "\n")
    message = str(exc.value)
    assert message.startswith("line 2: expected two integers for edge 'u v', got '0 xx")
    assert message.endswith("xx'") and "..." in message and len(message) < 120


def test_parse_dimacs_rejects_unknown_line_type():
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 3 2\ne 1 2\nx 2 3\n")


def test_writer_emits_sorted_canonical_form():
    g = Graph(4, ((3, 2), (1, 0), (0, 3)))
    assert write_edge_list(g) == "4 3\n0 1\n0 3\n2 3\n"


# Tokens of both formats, a few foreign ones, and small integers only: a
# header n makes n adjacency sets, which is a memory question, not a parse one.
TOKENS = ["p", "edge", "e", "c", "#", "x", "1.5", "-1", "0", "1", "2", "3", "4", "5"]


@st.composite
def token_texts(draw):
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join), max_size=8))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def has_significant_line(text):
    """Whether any line is neither blank nor a comment of the format that the
    first non-blank line selects ('c' for DIMACS, '#' for edge lists)."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        return False
    lead = lines[0][0]
    return lead not in "c#" or any(line[0] != lead for line in lines)


@given(token_texts())
def test_parse_graph_returns_a_graph_or_a_located_format_error(text):
    try:
        g = parse_graph(text)
    except GraphFormatError as exc:
        assert exc.line_no is not None or not has_significant_line(text)
    else:
        assert isinstance(g, Graph)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = tuple(draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))))
    else:
        edges = ()
    return Graph(n, edges)


@given(graphs())
def test_round_trip_preserves_edge_set(g):
    assert parse_graph(write_edge_list(g)).edges == g.edges
    assert parse_edge_list(write_edge_list(g)).n == g.n


def test_dot_output_carries_color_attributes():
    g = path(3)
    dot = write_dot(g, Coloring((1, 2, 1), 2))
    assert "0 [color=1];" in dot
    assert "1 [color=2];" in dot
    assert "0 -- 1;" in dot
    with pytest.raises(InvalidColoringError):
        write_dot(g, Coloring((1,), 1))



# One fault per file, in each format where it can occur: (parser, text, line, message).
FAULTS = [
    (parse_edge_list, "x 1\n", 1, "expected two integers for header 'n m', got 'x 1'"),
    (parse_edge_list, "3 1\n0 x\n", 2, "expected two integers for edge 'u v', got '0 x'"),
    (parse_edge_list, "3 1\n0 1.5\n", 2, "expected two integers for edge 'u v', got '0 1.5'"),
    (parse_dimacs, "p edge x 1\ne 1 2\n", 1, "expected two integers for header 'p edge n m', got 'x 1'"),
    (parse_dimacs, "p edge 3 1\ne 1 x\n", 2, "expected two integers for edge 'e u v', got '1 x'"),
    (parse_edge_list, "3\n", 1, "expected two integers for header 'n m', got '3'"),
    (parse_edge_list, "3 1 0\n0 1\n", 1, "expected two integers for header 'n m', got '3 1 0'"),
    (parse_edge_list, "3 1\n0 1 2\n", 2, "expected two integers for edge 'u v', got '0 1 2'"),
    (parse_dimacs, "p edge 3 1\ne 1\n", 2, "expected two integers for edge 'e u v', got '1'"),
    (parse_dimacs, "p edge 3 1\ne 1 2 3\n", 2, "expected two integers for edge 'e u v', got '1 2 3'"),
    (parse_edge_list, "3 1\n0 3\n", 2, "endpoint out of range 0..2 in edge 0 3"),
    (parse_edge_list, "3 1\n-1 0\n", 2, "endpoint out of range 0..2 in edge -1 0"),
    (parse_dimacs, "p edge 3 1\ne 0 1\n", 2, "endpoint out of range 1..3 in edge 0 1"),
    (parse_dimacs, "p edge 3 1\ne 1 4\n", 2, "endpoint out of range 1..3 in edge 1 4"),
    (parse_edge_list, "3 2\n0 1\n2 2\n", 3, "self-loop at vertex 2"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 3 3\n", 3, "self-loop at vertex 3"),
    (parse_edge_list, "3 2\n0 1\n1 0\n", 3, "duplicate edge 1 0"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge 2 1"),
    (parse_edge_list, "-1 0\n", 1, "vertex and edge counts must be non-negative"),
    (parse_edge_list, "3 -1\n", 1, "vertex and edge counts must be non-negative"),
    (parse_dimacs, "p edge -1 0\n", 1, "vertex and edge counts must be non-negative"),
    (parse_dimacs, "p edge 3 -1\n", 1, "vertex and edge counts must be non-negative"),
    (parse_edge_list, f"{MAX_VERTICES + 1} 0\n", 1, f"vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"),
    (parse_dimacs, f"p edge {MAX_VERTICES + 1} 0\n", 1, f"vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"),
    (parse_edge_list, "# c\n3 2\n0 1\n", 2, "header declares 2 edges but file contains 1 edge lines"),
    (parse_edge_list, "3 0\n0 1\n", 1, "header declares 0 edges but file contains 1 edge lines"),
    (parse_dimacs, "c c\np edge 3 2\ne 1 2\n", 2, "header declares 2 edges but file contains 1 edge lines"),
    (parse_dimacs, "p edge 3 0\ne 1 2\n", 1, "header declares 0 edges but file contains 1 edge lines"),
    (parse_dimacs, "p foo 3 1\ne 1 2\n", 1, "expected header 'p edge n m', got 'p foo 3 1'"),
    (parse_dimacs, "p edge 3\n", 1, "expected header 'p edge n m', got 'p edge 3'"),
    (parse_dimacs, "p  edge 3 1 0\ne 1 2\n", 1, "expected header 'p edge n m', got 'p  edge 3 1 0'"),
    (parse_dimacs, "p edge 3 1\nx 2 3\n", 2, "unexpected line type 'x'"),
    (parse_dimacs, "p edge 3 1\n# 2 3\n", 2, "unexpected line type '#'"),
]


@pytest.mark.parametrize("parse, text, line_no, message", FAULTS)
def test_each_single_fault_names_its_line_and_message(parse, text, line_no, message):
    for variant in (text, text.replace("\n", "\r\n")):
        for call in (parse, parse_graph):
            with pytest.raises(GraphFormatError) as exc:
                call(variant)
            assert (exc.value.line_no, str(exc.value)) == (line_no, f"line {line_no}: {message}")


def test_an_empty_file_names_no_line():
    for text in ("", "\n  \n", "# only a comment\n"):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list(text)
        assert (exc.value.line_no, str(exc.value)) == (None, "empty graph file")
    with pytest.raises(GraphFormatError) as exc:
        parse_dimacs("c only a comment\n")
    assert (exc.value.line_no, str(exc.value)) == (None, "empty graph file")


def test_faults_are_reported_header_counts_edge_count_then_edge_lines_in_order():
    # Line 2 is out of range and line 3 is no integer pair; the earlier line wins.
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list("3 2\n0 5\n0 x\n")
    assert str(exc.value) == "line 2: endpoint out of range 0..2 in edge 0 5"
    # The edge count is checked before any edge line, in DIMACS as in edge lists.
    with pytest.raises(GraphFormatError) as exc:
        parse_dimacs("p edge 3 2\nx 1 2\n")
    assert str(exc.value) == "line 1: header declares 2 edges but file contains 1 edge lines"


def dimacs_text(g, order, flips):
    lines = ["c the same graph", f"p edge {g.n} {g.m}"]
    for i in order:
        u, v = g.edges[i]
        lines.append(f"e {v + 1} {u + 1}" if flips[i] else f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


@given(st.data())
def test_dimacs_and_edge_list_texts_of_one_graph_parse_equal(data):
    g = data.draw(graphs())
    order = data.draw(st.permutations(range(g.m)))
    flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    from_dimacs = parse_graph(dimacs_text(g, order, flips))
    assert from_dimacs == parse_graph(write_edge_list(g)) == g
    assert parse_dimacs(dimacs_text(g, order, flips)) == from_dimacs
