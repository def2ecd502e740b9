"""End-to-end command-line checks."""

import argparse
import json
import sys
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nearcolor.cli import _HEADER, _OPERATIONS, build_parser, main
from nearcolor.families import FAMILIES, MAX_POLY_DIGITS, OPERATIONS, parse_family_spec
from nearcolor.verify import SUITES, CheckRow
from nearcolor import InvalidParameterError, complete, families, wheel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_spec_parsing():
    assert parse_family_spec("cycle:7").n == 7
    assert parse_family_spec("wheel:5").edges == wheel(5)[0].edges
    assert parse_family_spec("join(complete:3,complete:3)").edges == complete(6).edges
    assert parse_family_spec("union(path:2,cycle:5)").n == 7
    assert parse_family_spec("corona(complete:1,complete:3)").edges == complete(4).edges
    with pytest.raises(InvalidParameterError):
        parse_family_spec("torus:5")
    with pytest.raises(InvalidParameterError):
        parse_family_spec("join(path:2)")
    with pytest.raises(InvalidParameterError):
        parse_family_spec("path:x")


def test_family_spec_size_is_limited_before_anything_is_built(capsys, monkeypatch):
    def never(n):
        raise AssertionError(f"built complete:{n}")

    # A guard that let these through would exhaust memory, so the builder is replaced.
    monkeypatch.setitem(FAMILIES, "complete", FAMILIES["complete"]._replace(build=never))
    for spec in ("complete:100000", "corona(complete:2000,complete:2000)", "complete:1415"):
        code, out, err = run(capsys, "gen", "--family", spec)
        assert (code, out) == (2, "")
        assert "over the limit of 1000000" in err
    monkeypatch.undo()
    assert parse_family_spec("complete:1000").m == 499_500


def test_family_and_poly_specs_are_limited_before_their_closed_forms(capsys, monkeypatch):
    def never(*args):
        raise AssertionError(f"evaluated a closed form at {args}")

    # These closed forms take from seconds to minutes, so a broken guard fails here instead.
    monkeypatch.setitem(FAMILIES, "complete", FAMILIES["complete"]._replace(claim=never))
    monkeypatch.setattr(families, "cycle_defect_polynomial", never)
    monkeypatch.setattr(families, "complete_defect_polynomial", never)
    for argv in (
        ["poly", "--family", "cycle:1000000000", "--lambda", "3", "--bad", "0"],
        ["poly", "--family", "complete:1415", "--lambda", "3", "--k", "3"],
        ["family", "--family", "complete:1000000000", "--k", "999999995"],
        ["family", "--family", "complete:1000000", "--k", "500000"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "over the limit of 1000000" in err
    monkeypatch.undo()
    assert run(capsys, "family", "--family", "complete:1414", "--k", "1413")[0] == 0
    assert run(capsys, "poly", "--family", "cycle:1000000", "--lambda", "1", "--bad", "1")[0] == 0


def test_poly_values_past_the_digit_limit_are_refused_before_they_are_computed(capsys):
    # (10^12 - 1)^(10^6) has about 12 * 10^6 digits; its size is estimated
    # from bit lengths, so the refusal costs nothing.
    start = time.perf_counter()
    code, out, err = run(capsys, "poly", "--family", "cycle:1000000", "--lambda", "1000000000000", "--bad", "0")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert f"over the limit of {MAX_POLY_DIGITS}" in err and "--cap" not in err
    code, _, err = run(capsys, "poly", "--family", "complete:1000", "--lambda", "10" + "0" * 400, "--k", "999")
    assert code == 3 and f"over the limit of {MAX_POLY_DIGITS}" in err


def test_huge_exact_values_print_in_full(tmp_path, capsys):
    graph_file = tmp_path / "g.el"
    graph_file.write_text("20000 0")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    cases = [
        (["count", "--input", str(graph_file), "--k", "2"], 2**20000 - 2),  # optimal_count
        (["family", "--family", "helm:20001", "--k", "3"], 3 * 20001 * 2**20001),  # claimed_count
        (["poly", "--family", "cycle:20000", "--lambda", "3", "--bad", "0"], 2**20000 + 2),
    ]
    printed = []
    for argv, _ in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        printed.append([line.rpartition(" ")[2] for line in out.splitlines()])
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for (_, value), words in zip(cases, printed):
            assert str(value) in words and len(str(value)) > 6000
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_solve_family_json(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle:5", "--k", "2", "--rule", "one-class", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_bad"] == 1
    assert payload["exact"] is True
    assert payload["witness"] == [1, 1, 2, 1, 2]


def test_count_reports_optimal_count(capsys):
    code, out, _ = run(capsys, "count", "--family", "cycle:7", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["optimal_count"] == 14


def test_solve_warns_when_k_not_below_chromatic(capsys):
    code, _, err = run(capsys, "solve", "--family", "cycle:6", "--k", "2", "--json")
    assert code == 0
    assert "not below the chromatic number" in err
    code, _, err = run(capsys, "solve", "--family", "cycle:7", "--k", "2", "--json")
    assert code == 0
    assert "not below the chromatic number" not in err


def test_solve_input_file_and_dot_export(tmp_path, capsys):
    graph_file = tmp_path / "g.el"
    graph_file.write_text("3 3\n0 1\n1 2\n0 2\n")
    dot_file = tmp_path / "g.dot"
    code, out, _ = run(capsys, "solve", "--input", str(graph_file), "--k", "1", "--json", "--dot", str(dot_file))
    assert code == 0
    assert json.loads(out)["min_bad"] == 3
    assert "[color=1]" in dot_file.read_text()


def test_solve_on_a_thousand_isolated_vertices_exits_0(tmp_path, capsys):
    # The search goes one frame deeper per vertex, past the default recursion limit.
    graph_file = tmp_path / "g.el"
    graph_file.write_text("1000 0\n")
    code, out, _ = run(capsys, "solve", "--input", str(graph_file), "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["min_bad"] == 0


def test_solve_heuristic_is_labeled_inexact(capsys):
    code, out, err = run(capsys, "solve", "--family", "cycle:9", "--k", "2", "--heuristic", "--json")
    assert code == 0
    assert json.loads(out)["exact"] is False
    assert "heuristic" in err


def test_malformed_input_exits_2(tmp_path, capsys):
    graph_file = tmp_path / "bad.el"
    graph_file.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "solve", "--input", str(graph_file), "--k", "1")
    assert code == 2
    assert "self-loop" in err
    graph_file.write_text("2000000000 0")  # 12 bytes declaring 2*10**9 vertices
    code, _, err = run(capsys, "solve", "--input", str(graph_file), "--k", "1")
    assert code == 2
    assert "line 1" in err
    # Past 4300 digits a token is refused unread, although main lifts the digit limit.
    graph_file.write_text("9" * 4301 + " 0")
    code, _, err = run(capsys, "solve", "--input", str(graph_file), "--k", "1")
    assert code == 2
    assert "expected two integers" in err and "line 1" in err
    assert len(err.encode()) < 300
    # Whatever the length of the offending text, the error line echoes an excerpt.
    graph_file.write_text("c long token\np edge 3 " + "7" * 100_000 + "\n")
    code, _, err = run(capsys, "solve", "--input", str(graph_file), "--k", "1")
    assert (code, "line 2" in err, len(err.encode()) < 300) == (2, True, True), err[:400]
    for spec in ("path:" + "9" * 5000, "x" * 5000 + ":3"):
        code, _, err = run(capsys, "gen", "--family", spec)
        assert (code, len(err.encode()) < 300) == (2, True), err[:400]
        assert "..." in err


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "path:3", "--k"],
    ["count", "--family", "path:3", "--k", "2", "--cap"],
    ["poly", "--family", "cycle:5", "--bad", "1", "--lambda"],
    ["poly", "--family", "cycle:5", "--lambda", "3", "--bad"],
    ["verify", "--seed"],
])
def test_integer_flag_errors_echo_an_excerpt(capsys, argv):
    # 5,000 digits pass CPython's int/str limit, so int() refuses the token.
    for token, tail in (("9" * 5000, "'999999999999999999999999999...999999999999999999999999999'"),
                        ("abc", "'abc'")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, token])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(f" error: argument {argv[-1]}: invalid int value: {tail}\n")
        assert len(err.encode()) < 400


def test_a_huge_negative_cap_echoes_an_excerpt(capsys):
    # 4,000 digits are within the int/str digit limit, so argparse takes the
    # token; the budget check rejects it while main has the limit lifted.
    code, _, err = run(capsys, "solve", "--family", "path:3", "--k", "1", "--cap=-" + "9" * 4000)
    assert code == 2
    assert err == "error: work budget --cap must be positive, got -999999999999999999999999999...9999999999999999999999999999\n"


def test_bounds_op_choices_are_the_operation_table():
    assert _OPERATIONS == tuple(OPERATIONS)


def test_verify_names_are_the_suite_table_and_the_row_fields():
    assert _HEADER == CheckRow._fields
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [suite] = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == (*SUITES, "all")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--input", "/nonexistent/g.el", "--k", "1")
    assert code == 2


def test_undecodable_input_exits_2(tmp_path, capsys):
    graph_file = tmp_path / "utf16.el"
    graph_file.write_bytes(b"\xff\xfe\x00\x01")
    code, _, err = run(capsys, "solve", "--input", str(graph_file), "--k", "2")
    assert code == 2
    assert err.startswith("error: cannot read") and str(graph_file) in err


def test_unwritable_dot_path_exits_2(tmp_path, capsys):
    dot_file = tmp_path / "no-such-dir" / "g.dot"
    code, _, err = run(capsys, "solve", "--family", "cycle:5", "--k", "2", "--dot", str(dot_file))
    assert code == 2
    assert err.startswith("error: cannot write") and str(dot_file) in err


# Byte pieces that often add up to a parsable file, mixed with bytes that do not.
FILE_PIECES = [b"p edge ", b"e ", b"c x", b"# ", b"0 ", b"1 ", b"2 ", b"3 ", b"4 ", b"\n", b"\r\n", b"\xff", b"\x00"]


def small_integers_only(data):
    """False when the text holds an integer token above 64: a header n makes
    n adjacency sets, which is a memory question rather than a parse one."""
    try:
        tokens = data.decode("utf-8").split()
    except UnicodeDecodeError:
        return True
    for token in tokens:
        try:
            if abs(int(token)) > 64:
                return False
        except ValueError:
            pass
    return True


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(FILE_PIECES), max_size=20).map(b"".join)))
def test_solve_on_arbitrary_file_bytes_exits_without_a_traceback(tmp_path, capsys, data):
    assume(small_integers_only(data))
    graph_file = tmp_path / "fuzz.el"
    graph_file.write_bytes(data)
    code, _, _ = run(capsys, "solve", "--input", str(graph_file), "--k", "2")
    assert code in (0, 2, 3)


def test_disconnected_input_is_solved(capsys):
    code, out, _ = run(capsys, "solve", "--family", "union(path:2,path:2)", "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["min_bad"] == 2


def test_cap_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "count", "--family", "complete:10", "--k", "4", "--cap", "1000")
    assert code == 3
    assert "--cap" in err


def test_budget_hint_names_no_flag_the_command_lacks(capsys, monkeypatch):
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 5)
    code, _, err = run(capsys, "bounds", "--op", "union", "--left", "cycle:5", "--right", "cycle:5", "--k", "2")
    assert code == 3
    assert "work budget" in err and "--cap" not in err


def test_cap_zero_is_rejected(capsys):
    code, _, err = run(capsys, "solve", "--family", "cycle:5", "--k", "2", "--cap", "0")
    assert code == 2
    assert "cap must be positive" in err


def test_infeasible_surjective_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--family", "path:2", "--k", "3")
    assert code == 2
    assert "surjective" in err


def test_poly_subcommands(capsys):
    code, out, _ = run(capsys, "poly", "--family", "cycle:5", "--lambda", "2", "--bad", "1")
    assert (code, out.strip()) == (0, "10")
    code, out, _ = run(capsys, "poly", "--family", "complete:4", "--lambda", "3", "--k", "3", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 36
    for spec in ("cycle", "cycle:x"):
        code, _, _ = run(capsys, "poly", "--family", spec, "--lambda", "2", "--bad", "1")
        assert code == 2


def test_family_subcommand(capsys):
    code, out, _ = run(capsys, "family", "--family", "complete:5", "--k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["min_bad"], payload["claimed_count"]) == (1, 240)
    code, out, _ = run(capsys, "family", "--family", "cycle:9", "--json")
    assert json.loads(out)["claimed_count"] == 18
    for spec in ("cycle", "cycle:x"):
        code, _, _ = run(capsys, "family", "--family", spec)
        assert code == 2


def test_family_unknown_name_is_named_before_k(capsys):
    code, _, err = run(capsys, "family", "--family", "foo:5")
    assert code == 2
    assert "unknown family 'foo'" in err


def test_family_claims_fix_k_for_paths_and_cycles(capsys):
    for spec, k, fixed in (("path:4", "2", 1), ("cycle:9", "3", 2)):
        code, _, err = run(capsys, "family", "--family", spec, "--k", k)
        assert code == 2
        assert f"closed form is for k={fixed}" in err
        code, out, _ = run(capsys, "family", "--family", spec, "--k", str(fixed), "--json")
        assert code == 0 and json.loads(out)["k"] == fixed
    code, _, err = run(capsys, "family", "--family", "wheel:5")
    assert code == 2
    assert "k is required" in err


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "--op", "join", "--left", "complete:3", "--right", "complete:3", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["bound"], payload["exact"], payload["slack"]) == (6, 6, 0)
    for k in ("0", "-1"):
        code, _, err = run(capsys, "bounds", "--op", "join", "--left", "path:2", "--right", "path:2", "--k", k)
        assert code == 2
        assert "positive integer" in err
    code, out, _ = run(capsys, "bounds", "--op", "corona", "--left", "cycle:3", "--right", "complete:1", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["exact"] == 1
    code, out, _ = run(capsys, "bounds", "--op", "union", "--left", "complete:9", "--right", "complete:8", "--k", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["bound"], payload["exact"], payload["slack"]) == (36, 36, 0)
    code, out, _ = run(capsys, "bounds", "--op", "corona", "--left", "cycle:7", "--right", "complete:3", "--k", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["bound"], payload["exact"], payload["slack"]) == (8, None, None)


def test_gen_round_trips_through_solve(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--family", "helm:4")
    assert code == 0
    assert out.splitlines()[0] == "9 12"
    graph_file = tmp_path / "helm.el"
    graph_file.write_text(out)
    code, out, _ = run(capsys, "solve", "--input", str(graph_file), "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["min_bad"] == 2


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "--family", "path:3", "--dot")
    assert code == 0
    assert out.startswith("graph G {")


def test_verify_polys_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "polys")
    assert code == 0
    assert "mismatch" not in [line.split()[-1] for line in out.splitlines() if line]


def test_verify_bounds_deterministic_for_fixed_seed(capsys):
    code_a, out_a, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "7")
    code_b, out_b, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "7")
    assert (code_a, out_a) == (code_b, out_b)
    assert out_a.startswith("seed: 7")
