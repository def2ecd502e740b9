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

