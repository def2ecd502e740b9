"""Command-line interface.

Exit codes: 0 success, 1 verification found an undocumented mismatch,
2 invalid input or parameters, 3 exact search ran out of its work budget
(``--cap``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

from .coloring import RuleMode
from .errors import (
    GraphFormatError,
    InfeasibleError,
    InvalidColoringError,
    InvalidParameterError,
    SizeLimitError,
    _excerpt,
)
from .graph import Graph
from .io import load_graph, write_dot, write_edge_list
from .solver import DEFAULT_WORK_BUDGET, _Budget, greedy_heuristic, solve

# ``families`` (family specs, ``--op``) and ``verify`` are imported only by
# the commands that use them: without a bytecode cache every module a run
# imports is compiled again, so each one adds to start-up.  The parser needs
# the keys of ``families.OPERATIONS`` and the ``--suite`` names
# (``verify.SUITES``) before any command runs, so they are written out in
# this module, in order.
_OPERATIONS = ("union", "join", "corona")


def __getattr__(name: str):
    # ``from nearcolor.cli import parse_family_spec`` without importing
    # ``families`` for every command.
    if name == "parse_family_spec":
        from .families import parse_family_spec

        return parse_family_spec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int(text: str) -> int:
    """argparse type for the integer flags: its own message would echo a
    rejected token whole."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}")


def _load_input(args: argparse.Namespace) -> Graph:
    if getattr(args, "input", None):
        try:
            return load_graph(args.input)
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"cannot read {args.input}: {exc}")
    from .families import parse_family_spec

    return parse_family_spec(args.family)


def _add_graph_source(sub: argparse.ArgumentParser, family_only: bool = False) -> None:
    if family_only:
        sub.add_argument("--family", required=True, help="family spec, e.g. cycle:7 or join(complete:3,complete:3)")
        return
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to an edge-list or DIMACS file")
    src.add_argument("--family", help="family spec, e.g. cycle:7 or join(complete:3,complete:3)")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=_int, required=True, help="number of available colors")
    sub.add_argument("--rule", choices=[m.value for m in RuleMode], default=RuleMode.ONE_CLASS.value)
    sub.add_argument("--allow-unused", action="store_true", help="do not require every color to be used")
    sub.add_argument(
        "--cap", type=_int, default=DEFAULT_WORK_BUDGET,
        help=f"work budget: candidate placements the exact search may make (default {DEFAULT_WORK_BUDGET})",
    )
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nearcolor", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="minimize bad edges for a fixed color budget")
    _add_graph_source(sub)
    _add_solver_flags(sub)
    sub.add_argument("--heuristic", action="store_true", help="greedy upper bound instead of exact search")
    sub.add_argument("--dot", help="write the witness coloring as a DOT file")
    sub.set_defaults(run=lambda args: _cmd_solve(args, counting=False))

    sub = commands.add_parser("count", help="solve and count all optimal colorings")
    _add_graph_source(sub)
    _add_solver_flags(sub)
    sub.set_defaults(run=lambda args: _cmd_solve(args, counting=True))

    sub = commands.add_parser("family", help="closed-form value for a named family")
    sub.add_argument("--family", required=True, help="one of path:n, cycle:n, wheel:n, helm:n, complete:n")
    sub.add_argument("--k", type=_int, default=None)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_family)

    sub = commands.add_parser("poly", help="defect-polynomial value")
    sub.add_argument("--family", required=True, help="cycle:n or complete:n")
    sub.add_argument("--lambda", dest="colors", type=_int, required=True, help="number of available colors")
    sub.add_argument("--bad", type=_int, default=None, help="bad-edge count (cycle families)")
    sub.add_argument("--k", type=_int, default=None, help="used-color count (complete families)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_poly)

    sub = commands.add_parser("bounds", help="operation bound or formula report")
    sub.add_argument("--op", choices=_OPERATIONS, required=True)
    sub.add_argument("--left", required=True, help="family spec of the left operand")
    sub.add_argument("--right", required=True, help="family spec of the right operand")
    sub.add_argument("--k", type=_int, required=True)
    sub.add_argument("--relaxed", action="store_true", help="let the smaller side use all k colors")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_bounds)

    sub = commands.add_parser("verify", help="closed forms versus the exact search kernel")
    sub.add_argument("--suite", choices=["families", "polys", "bounds", "all"], default="all")
    sub.add_argument("--seed", type=_int, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_verify)

    sub = commands.add_parser("gen", help="emit a generated graph as canonical edge-list text")
    _add_graph_source(sub, family_only=True)
    sub.add_argument("--dot", action="store_true", help="emit DOT instead of edge-list text")
    sub.set_defaults(run=_cmd_gen)
    return parser


def _result_payload(g: Graph, k: int, result, elapsed_ms: int) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "k": k,
        "rule": result.rule.value,
        "surjective": result.surjective,
        "min_bad": result.min_bad,
        "optimal_count": result.optimal_count,
        "witness": list(result.witness.assignment),
        "exact": result.exact,
        "elapsed_ms": elapsed_ms,
    }


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if key == "witness":
            value = " ".join(str(c) for c in value)
        print(f"{key}: {value}")


def _cmd_solve(args: argparse.Namespace, counting: bool) -> int:
    g = _load_input(args)
    rule = RuleMode(args.rule)
    surjective = not args.allow_unused
    _Budget(args.cap)  # refuses a non-positive --cap, with --heuristic too
    start = time.perf_counter()
    if getattr(args, "heuristic", False):
        result = greedy_heuristic(g, args.k, rule, surjective)
        print("note: heuristic result; bad-edge count is an upper bound, not exact", file=sys.stderr)
    else:
        result = solve(g, args.k, rule, surjective, work_budget=args.cap, count_optimal=counting)
        if counting:
            from .families import _refuse_over_digits

            _refuse_over_digits(result.optimal_count.bit_length())
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    if result.min_bad == 0:
        # A coloring with no bad edge is proper, so k is at least the chromatic number.
        print(
            f"note: k={_excerpt(args.k)} is not below the chromatic number; "
            "the coloring found is proper",
            file=sys.stderr,
        )
    _emit(_result_payload(g, args.k, result, elapsed_ms), args.json)
    if getattr(args, "dot", None):
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(write_dot(g, result.witness))
        except OSError as exc:
            raise InvalidParameterError(f"cannot write {args.dot}: {exc}")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from .families import _split_within_limit, family_claim

    claim = family_claim(*_split_within_limit(args.family), args.k)
    payload = {
        "family": claim.family,
        "n": claim.n,
        "k": claim.k,
        "min_bad": claim.min_bad,
        "claimed_count": claim.count,
        "min_bad_disputed": claim.min_bad_disputed,
        "count_disputed": claim.count_disputed,
    }
    _emit(payload, args.json)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    from .families import _split_within_limit, complete_defect_polynomial, cycle_defect_polynomial

    name, n = _split_within_limit(args.family)
    if name == "cycle":
        if args.bad is None:
            raise InvalidParameterError("--bad is required for cycle defect polynomials")
        value = cycle_defect_polynomial(n, args.bad, args.colors)
        payload = {"family": "cycle", "n": n, "bad": args.bad, "colors": args.colors, "value": value}
    elif name == "complete":
        if args.k is None:
            raise InvalidParameterError("--k is required for complete defect polynomials")
        value = complete_defect_polynomial(n, args.k, args.colors)
        payload = {"family": "complete", "n": n, "k": args.k, "colors": args.colors, "value": value}
    else:
        raise InvalidParameterError(f"no defect polynomial for family {name!r}")
    if args.json:
        print(json.dumps(payload))
    else:
        print(payload["value"])
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .families import OPERATIONS, parse_family_spec

    g = parse_family_spec(args.left)
    h = parse_family_spec(args.right)
    report = OPERATIONS[args.op].report(g, h, args.k, relaxed=args.relaxed, labels=(args.left, args.right))
    _emit(report._asdict(), args.json)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES, CheckRow, has_hard_mismatch, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    print(f"seed: {args.seed}")
    rows = run_suites(names, seed=args.seed)
    if args.json:
        print(json.dumps([row._asdict() for row in rows]))
    else:
        widths = [max(map(len, column)) for column in zip(CheckRow._fields, *rows)]
        for row in [CheckRow._fields, *rows]:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    bad = has_hard_mismatch(rows)
    counts = Counter(row.status for row in rows)
    summary = ", ".join(f"{status}: {count}" for status, count in sorted(counts.items()))
    print(f"checks: {len(rows)} ({summary})")
    return 1 if bad else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .families import parse_family_spec

    g = parse_family_spec(args.family)
    sys.stdout.write(write_dot(g) if args.dot else write_edge_list(g))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact counts and closed forms can pass CPython's 4300-digit limit on
    # int/str conversion; lift it while the command runs (0 = no limit).
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except SizeLimitError as exc:
        # --cap lifts the work budget, not a digit limit.
        hint = " (raise it with --cap)" if hasattr(args, "cap") and "work budget" in str(exc) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3
    except (InvalidParameterError, InvalidColoringError, GraphFormatError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
