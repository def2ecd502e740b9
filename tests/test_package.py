"""The package's public names, its value records and what a command loads."""

import ast
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nearcolor
from nearcolor import (
    BadEdges,
    Coloring,
    FamilyResult,
    Graph,
    InvalidColoringError,
    InvalidParameterError,
    RuleMode,
    SizeLimitError,
    chromatic_number,
    complete,
    complete_defect_polynomial,
    complete_formula,
    corona_formula,
    count_optimal,
    cycle,
    cycle_defect_polynomial,
    enumerate_oracle,
    greedy_heuristic,
    helm_formula,
    is_valid,
    join_bound,
    k_chromatic_subgraph,
    optimal_colorings,
    path,
    path_formula,
    solve,
    union_bound,
    wheel_formula,
)
from nearcolor.cli import main
from nearcolor.verify import random_connected_graph


def test_every_export_resolves_and_star_import_works():
    assert len(set(nearcolor.__all__)) == len(nearcolor.__all__)
    missing = [name for name in nearcolor.__all__ if not hasattr(nearcolor, name)]
    assert not missing
    namespace: dict = {}
    exec("from nearcolor import *", namespace)
    assert set(nearcolor.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        nearcolor.no_such_name


RECORDS = [
    (Graph(3, [(2, 1), (1, 0)]), Graph(3, ((0, 1), (1, 2))), Graph(3, ((0, 1),)),
     ("n", "edges"), "Graph(n=3, edges=((0, 1), (1, 2)))"),
    (Coloring([1, 2, 1], 2), Coloring((1, 2, 1), 2), Coloring((1, 2, 2), 2),
     ("assignment", "k"), "Coloring(assignment=(1, 2, 1), k=2)"),
    (path_formula(3), FamilyResult("path", 3, 1, 2, 1), FamilyResult("path", 3, 1, 2, 1, True),
     ("family", "n", "k", "min_bad", "count", "min_bad_disputed", "count_disputed"),
     "FamilyResult(family='path', n=3, k=1, min_bad=2, count=1, min_bad_disputed=False, count_disputed=False)"),
    (Graph(0), Graph(0, ()), Graph(1), ("n", "edges"), "Graph(n=0, edges=())"),
]


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS)
def test_records_compare_hash_show_and_refuse_assignment(record, same, other, fields, text):
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert record != tuple(getattr(record, name) for name in fields)
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == getattr(same, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_graph_equality_ignores_its_adjacency():
    g = Graph(3, ((0, 1),))
    assert g.adj == (frozenset({1}), frozenset({0}), frozenset())
    assert "adj" not in repr(g) and {g, Graph(3, [(1, 0)])} == {g}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Graph(-1), InvalidParameterError, "vertex count must be a non-negative integer, got -1"),
    (lambda: Graph(10**6 + 1), InvalidParameterError, "vertex count 1000001 exceeds the limit of 1000000"),
    (lambda: Graph(10**13), InvalidParameterError, "vertex count 10000000000000 exceeds the limit of 1000000"),
    (lambda: Graph(2, [(0, "a")]), InvalidParameterError, "edge endpoints must be integers, got (0, 'a')"),
    (lambda: Graph(2, [(0, 0)]), InvalidParameterError, "self-loop at vertex 0"),
    (lambda: Graph(2, [(0, 5)]), InvalidParameterError, "edge (0, 5) out of range for n=2"),
    (lambda: Graph(2, [(0, 1), (1, 0)]), InvalidParameterError, "duplicate edge (0, 1)"),
    (lambda: Coloring([1], 0), InvalidParameterError, "color count must be a positive integer, got 0"),
    (lambda: Coloring([1, 3], 2), InvalidColoringError, "vertex 1 has color 3, expected 1..2"),
    (lambda: RuleMode("one_class"), InvalidParameterError,
     "rule must be 'one-class' or 'unrestricted', got 'one_class'"),
    (lambda: solve(path(3), 1, work_budget=0), InvalidParameterError, "work budget --cap must be positive, got 0"),
    # bool is an int subclass, and a string or float budget is no count of placements.
    (lambda: Graph(True), InvalidParameterError, "vertex count must be a non-negative integer, got True"),
    (lambda: Coloring([1], True), InvalidParameterError, "color count must be a positive integer, got True"),
    (lambda: Coloring([True], 1), InvalidColoringError, "vertex 0 has color True, expected 1..1"),
    (lambda: solve(cycle(5), True), InvalidParameterError, "color count must be a positive integer, got True"),
    (lambda: join_bound(path(2), path(2), True), InvalidParameterError,
     "color count must be a positive integer, got True"),
    (lambda: solve(path(3), 2, work_budget="5"), InvalidParameterError, "work budget --cap must be positive, got '5'"),
    (lambda: solve(path(3), 2, work_budget=2.5), InvalidParameterError, "work budget --cap must be positive, got 2.5"),
    (lambda: solve(path(3), 2, work_budget=True), InvalidParameterError, "work budget --cap must be positive, got True"),
    (lambda: Graph(3, [(False, True), (1, 2)]), InvalidParameterError,
     "edge endpoints must be integers, got (False, True)"),
    (lambda: wheel_formula(2, 2), InvalidParameterError, "a wheel rim needs at least 3 vertices, got 2"),
    (lambda: helm_formula(2, 3), InvalidParameterError, "a helm rim needs at least 3 vertices, got 2"),
    (lambda: complete_formula(1, 1), InvalidParameterError, "need at least 2 vertices, got 1"),
    (lambda: cycle_defect_polynomial(5, 1, 0), InvalidParameterError, "need at least 1 color, got 0"),
    (lambda: complete_defect_polynomial(1, 2, 3), InvalidParameterError, "need at least 2 vertices, got 1"),
    (lambda: complete_defect_polynomial(5, 1, 3), InvalidParameterError, "k must lie in 2..4, got 1"),
    (lambda: complete(0), InvalidParameterError, "a complete graph needs at least 1 vertex, got 0"),
    (lambda: chromatic_number(Graph(0)), InvalidParameterError, "chromatic number needs at least one vertex"),
    (lambda: FamilyResult("path", 2, 1, -1, 1), InvalidParameterError,
     "minimum bad-edge count cannot be negative"),
    (lambda: FamilyResult("path", 2, 1, 1, 0), InvalidParameterError,
     "coloring count must be at least 1 when present"),
])
def test_records_validate_at_construction(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


# The excerpts of 10**5000 and -10**5000: past CPython's 4300-digit limit on
# int/str conversion, where str() raises ValueError.
HUGE, HUGE_TEXT = 10**5000, "1" + "0" * 27 + "..." + "0" * 28
NEG_TEXT = "-1" + "0" * 26 + "..." + "0" * 28


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(-HUGE), InvalidParameterError, f"vertex count must be a non-negative integer, got {NEG_TEXT}"),
    (lambda: Graph(HUGE), InvalidParameterError, f"vertex count {HUGE_TEXT} exceeds the limit of 1000000"),
    (lambda: Graph(3, ((0, HUGE),)), InvalidParameterError, f"edge (0, {HUGE_TEXT}) out of range for n=3"),
    (lambda: Graph(3, ((HUGE, HUGE),)), InvalidParameterError, f"self-loop at vertex {HUGE_TEXT}"),
    (lambda: Graph(3, ((0.5, -HUGE),)), InvalidParameterError,
     f"edge endpoints must be integers, got (0.5, {NEG_TEXT})"),
    (lambda: Coloring((1,), -HUGE), InvalidParameterError, f"color count must be a positive integer, got {NEG_TEXT}"),
    (lambda: Coloring((HUGE,), 2), InvalidColoringError, f"vertex 0 has color {HUGE_TEXT}, expected 1..2"),
    (lambda: solve(path(3), 1, work_budget=-HUGE), InvalidParameterError,
     f"work budget --cap must be positive, got {NEG_TEXT}"),
    (lambda: k_chromatic_subgraph(cycle(5), -HUGE), InvalidParameterError,
     f"k must satisfy 1 <= k < n (5), got {NEG_TEXT}"),
    (lambda: cycle(5).induced_subgraph([HUGE]), InvalidParameterError, f"vertex {HUGE_TEXT} out of range"),
    (lambda: random_connected_graph(None, -HUGE), InvalidParameterError, f"need at least 1 vertex, got {NEG_TEXT}"),
    (lambda: enumerate_oracle(path(2), HUGE, surjective=False), SizeLimitError,
     f"enumerating {HUGE_TEXT}**2 assignments exceeds cap 100000000"),
])
def test_messages_echo_an_excerpt_of_a_huge_integer(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


LONG_RULE = "r" * 5000


@pytest.mark.parametrize("call", [
    lambda: is_valid(path(2), Coloring((1, 2), 2), LONG_RULE),
    lambda: enumerate_oracle(path(3), 2, LONG_RULE),
    lambda: solve(path(3), 2, LONG_RULE),
    lambda: count_optimal(path(3), 2, LONG_RULE),
    lambda: list(optimal_colorings(path(3), 2, LONG_RULE)),
    lambda: greedy_heuristic(path(3), 2, LONG_RULE),
    lambda: k_chromatic_subgraph(path(3), 1, LONG_RULE),
    lambda: union_bound(path(2), path(2), 2, rule=LONG_RULE),
    lambda: join_bound(path(2), path(2), 2, rule=LONG_RULE),
    lambda: corona_formula(path(2), path(2), 2, rule=LONG_RULE),
], ids=["is_valid", "enumerate_oracle", "solve", "count_optimal", "optimal_colorings", "greedy_heuristic",
        "k_chromatic_subgraph", "union_bound", "join_bound", "corona_formula"])
def test_every_rule_entry_point_refuses_an_unknown_rule_with_an_excerpt(call):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == f"rule must be 'one-class' or 'unrestricted', got '{'r' * 27}...{'r' * 27}'"


def test_the_package_imports_only_the_standard_library():
    package = Path(nearcolor.__file__).resolve().parent
    outside = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{source.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"nearcolor"}]
    assert not outside


def test_size_limit_error_is_raised_in_three_places():
    # One work budget: every search, the class-size merge, the cover scan,
    # the k * n of a surjective count and the count that optimal_colorings
    # checks raise through _Budget.charge.  Besides it only the oracle's own
    # cap and the digit limit of poly values and printed counts raise.
    package = Path(nearcolor.__file__).resolve().parent
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "SizeLimitError":
                    sites.append(scope)
            visit(child, scope)

    for source in sorted(package.glob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), source.stem)
    assert sorted(sites) == ["families._refuse_over_digits", "solver._Budget.charge", "solver.enumerate_oracle"]


def test_result_records_are_named_tuples():
    result = solve(cycle(5), 2, RuleMode.ONE_CLASS)
    min_bad, witness, rule, surjective, count, exact = result
    assert result == (1, witness, RuleMode.ONE_CLASS, True, None, True)
    assert (min_bad, rule, surjective, count, exact) == (1, RuleMode.ONE_CLASS, True, None, True)
    assert result._asdict()["witness"] == witness
    assert BadEdges(1, ((0, 1),)) == (1, ((0, 1),))


def test_json_reports_keep_their_field_order(capsys):
    argv = ["bounds", "--op", "join", "--left", "path:2", "--right", "cycle:3", "--k", "2", "--json"]
    assert main(argv) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "op", "left", "right", "k", "t", "left_min_bad", "right_min_bad",
        "cross_term", "bound", "exact", "slack",
    ]
    assert main(["verify", "--suite", "polys", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out.splitlines()[1])
    assert {tuple(row) for row in rows} == {("case", "params", "claimed", "computed", "status")}


# Runs `python -m nearcolor ARGS` and reports, on stderr, the exit code, the
# package modules loaded and whether `dataclasses` was loaded before and after.
PROBE = """
import json, runpy, sys
before = "dataclasses" in sys.modules
sys.argv = ["nearcolor", *sys.argv[1:]]
try:
    runpy.run_module("nearcolor", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("nearcolor."))
print(json.dumps([code, loaded, before, "dataclasses" in sys.modules]), file=sys.stderr)
"""


def probe(tmp_path, *argv):
    src = str(Path(nearcolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    code, loaded, before, after = json.loads(proc.stderr.splitlines()[-1])
    return code, set(loaded), before, after


def test_solve_on_a_file_loads_neither_families_nor_verify(tmp_path):
    (tmp_path / "g.el").write_text("3 2\n0 1\n1 2\n")
    code, loaded, before, after = probe(tmp_path, "solve", "--input", "g.el", "--k", "2")
    assert code == 0
    assert not loaded & {"nearcolor.families", "nearcolor.verify"}
    assert after == before  # no module of the package imports dataclasses


@pytest.mark.parametrize("argv, needs", [
    (["gen", "--family", "join(path:2,cycle:3)"], "nearcolor.families"),
    (["bounds", "--op", "union", "--left", "path:2", "--right", "cycle:3", "--k", "2"], "nearcolor.families"),
    (["verify", "--suite", "polys"], "nearcolor.verify"),
])
def test_commands_load_the_modules_they_use(tmp_path, argv, needs):
    code, loaded, _, _ = probe(tmp_path, *argv)
    assert code == 0 and needs in loaded
