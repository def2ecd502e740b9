"""Command-line interface.

Exit codes: 0 success, 1 verification found an undocumented mismatch,
2 invalid input or parameters, 3 exact search ran out of its work budget
(``--cap``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Iterable

from .coloring import RuleMode
from .errors import (
    GraphFormatError,
    InfeasibleError,
    InvalidColoringError,
    InvalidParameterError,
    SizeLimitError,
)
from .families import (
    complete_defect_polynomial,
    complete_formula,
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
from .io import load_graph, write_dot, write_edge_list
from .solver import DEFAULT_WORK_BUDGET, SolverConfig, greedy_heuristic, solve
from .verify import CheckRow, has_hard_mismatch, run_suites

_SIMPLE_FAMILIES = {
    "path": lambda n: path(n),
    "cycle": lambda n: cycle(n),
    "wheel": lambda n: wheel(n)[0],
    "helm": lambda n: helm(n)[0],
    "complete": lambda n: complete(n),
}

_OPERATIONS = {
    "join": lambda g, h: join(g, h)[0],
    "corona": lambda g, h: corona(g, h)[0],
    "union": lambda g, h: disjoint_union(g, h)[0],
}


def parse_family_spec(spec: str) -> Graph:
    """Parse ``name:n`` or ``op(name:n,name:n)`` (one nesting level)."""
    spec = spec.strip()
    for op, build in _OPERATIONS.items():
        prefix = op + "("
        if spec.startswith(prefix) and spec.endswith(")"):
            inner = spec[len(prefix):-1]
            parts = inner.split(",")
            if len(parts) != 2:
                raise InvalidParameterError(f"{op}(...) takes exactly two operands, got {spec!r}")
            return build(_parse_simple_spec(parts[0]), _parse_simple_spec(parts[1]))
    return _parse_simple_spec(spec)


def _parse_simple_spec(spec: str) -> Graph:
    name, n = _split_spec(spec.strip(), _SIMPLE_FAMILIES)
    return _SIMPLE_FAMILIES[name](n)


def _split_spec(spec: str, names: Iterable[str] | None = None) -> tuple[str, int]:
    """Split ``name:n``; with ``names`` given, the name must be one of them."""
    name, sep, arg = spec.partition(":")
    if names is not None and (not sep or name not in names):
        known = ", ".join(sorted(names))
        raise InvalidParameterError(f"unknown family spec {spec!r} (expected one of {known}, as name:n)")
    if not sep:
        raise InvalidParameterError(f"expected name:n, got {spec!r}")
    try:
        return name, int(arg)
    except ValueError:
        raise InvalidParameterError(f"family parameter must be an integer, got {arg!r}")


def _load_input(args: argparse.Namespace) -> Graph:
    if getattr(args, "input", None):
        try:
            g = load_graph(args.input)
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"cannot read {args.input}: {exc}")
    else:
        g = parse_family_spec(args.family)
    if getattr(args, "require_connected", False) and not g.is_connected():
        raise InvalidParameterError("input graph is not connected (--require-connected)")
    return g


def _add_graph_source(sub: argparse.ArgumentParser, family_only: bool = False) -> None:
    if family_only:
        sub.add_argument("--family", required=True, help="family spec, e.g. cycle:7 or join(complete:3,complete:3)")
        return
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to an edge-list or DIMACS file")
    src.add_argument("--family", help="family spec, e.g. cycle:7 or join(complete:3,complete:3)")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, required=True, help="number of available colors")
    sub.add_argument("--rule", choices=[m.value for m in RuleMode], default=RuleMode.ONE_CLASS.value)
    sub.add_argument("--allow-unused", action="store_true", help="do not require every color to be used")
    sub.add_argument(
        "--cap", type=int, default=DEFAULT_WORK_BUDGET,
        help=f"work budget: candidate placements the exact search may make (default {DEFAULT_WORK_BUDGET})",
    )
    sub.add_argument("--require-connected", action="store_true")
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
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_family)

    sub = commands.add_parser("poly", help="defect-polynomial value")
    sub.add_argument("--family", required=True, help="cycle:n or complete:n")
    sub.add_argument("--lambda", dest="colors", type=int, required=True, help="number of available colors")
    sub.add_argument("--bad", type=int, default=None, help="bad-edge count (cycle families)")
    sub.add_argument("--k", type=int, default=None, help="used-color count (complete families)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_poly)

    sub = commands.add_parser("bounds", help="operation bound or formula report")
    sub.add_argument("--op", choices=["union", "join", "corona"], required=True)
    sub.add_argument("--left", required=True, help="family spec of the left operand")
    sub.add_argument("--right", required=True, help="family spec of the right operand")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--relaxed", action="store_true", help="let the smaller side use all k colors")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(run=_cmd_bounds)

    sub = commands.add_parser("verify", help="closed forms versus the exact search kernel")
    sub.add_argument("--suite", choices=["families", "polys", "bounds", "all"], default="all")
    sub.add_argument("--seed", type=int, default=0)
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
    config = SolverConfig(work_budget=args.cap, count_optimal=counting)
    start = time.perf_counter()
    if getattr(args, "heuristic", False):
        result = greedy_heuristic(g, args.k, rule, surjective)
        print("note: heuristic result; bad-edge count is an upper bound, not exact", file=sys.stderr)
    else:
        result = solve(g, args.k, rule, surjective, config)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    if result.min_bad == 0:
        # A coloring with no bad edge is proper, so k is at least the chromatic number.
        print(
            f"note: k={args.k} is not below the chromatic number; "
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
    name, n = _split_spec(args.family)
    builders = {
        "path": lambda k: path_formula(n),
        "cycle": lambda k: odd_cycle_formula(n),
        "wheel": lambda k: wheel_formula(n, k),
        "helm": lambda k: helm_formula(n, k),
        "complete": lambda k: complete_formula(n, k),
    }
    if name not in builders:
        raise InvalidParameterError(f"unknown family {name!r}")
    defaults = {"path": 1, "cycle": 2}
    k = args.k if args.k is not None else defaults.get(name)
    if k is None:
        raise InvalidParameterError(f"--k is required for family {name!r}")
    if name == "path" and k != 1:
        raise InvalidParameterError("the path closed form is for a single color (k=1)")
    if name == "cycle" and k != 2:
        raise InvalidParameterError("the cycle closed form is for two colors (k=2)")
    claim = builders[name](k)
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
    name, n = _split_spec(args.family)
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
    g = parse_family_spec(args.left)
    h = parse_family_spec(args.right)
    ops = {"union": union_bound, "join": join_bound, "corona": corona_formula}
    report = ops[args.op](g, h, args.k, relaxed=args.relaxed, labels=(args.left, args.right))
    _emit(dataclasses.asdict(report), args.json)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = ["families", "polys", "bounds"] if args.suite == "all" else [args.suite]
    print(f"seed: {args.seed}")
    rows = run_suites(names, seed=args.seed)
    if args.json:
        print(json.dumps([row.__dict__ for row in rows]))
    else:
        widths = [
            max(len(getattr(r, col)) for r in rows + [_HEADER])
            for col in ("case", "params", "claimed", "computed", "status")
        ]
        for row in [_HEADER] + rows:
            cells = (row.case, row.params, row.claimed, row.computed, row.status)
            print("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
    bad = has_hard_mismatch(rows)
    counts = {}
    for row in rows:
        counts[row.status] = counts.get(row.status, 0) + 1
    summary = ", ".join(f"{status}: {count}" for status, count in sorted(counts.items()))
    print(f"checks: {len(rows)} ({summary})")
    return 1 if bad else 0


_HEADER = CheckRow("case", "params", "claimed", "computed", "status")


def _cmd_gen(args: argparse.Namespace) -> int:
    g = parse_family_spec(args.family)
    sys.stdout.write(write_dot(g) if args.dot else write_edge_list(g))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParameterError, InvalidColoringError, GraphFormatError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
