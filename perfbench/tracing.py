"""Spans around the package's public calls, recorded from the benchmark's side.

`Tracer.install()` replaces each function listed in BINDINGS, in the module
that calls it (for example nearcolor.families.solve), with a wrapper that
records a span: name, start, end, parent span and operation id.
`uninstall()` puts the originals back, so untimed and untraced passes run
the package unchanged.  Spans stay in memory until `dump()`.

Calls inside one module (solver.count_optimal calling solver.solve) are not
boundaries and get no span of their own.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

_BUILD = ("path", "cycle", "wheel", "helm", "complete", "disjoint_union", "join", "corona")


def _graph_builders(*names: str) -> dict[str, str]:
    return {name: f"graph.{name}" for name in names}


# consuming module -> {attribute it calls: span name}; a span's layer is its name's first part.
BINDINGS = {
    "bench": {
        "solve": "solver.solve", "count_optimal": "solver.count_optimal",
        "union_bound": "families.union_bound", "join_bound": "families.join_bound",
        "corona_formula": "families.corona_formula", "disjoint_union": "graph.disjoint_union",
        "main": "cli.main",
    },
    "nearcolor.cli": {
        "solve": "solver.solve", "greedy_heuristic": "solver.greedy_heuristic",
        "chromatic_number": "graph.chromatic_number", "load_graph": "io.load_graph",
        "write_edge_list": "io.write_edge_list", "run_suites": "verify.run_suites",
        "union_bound": "families.union_bound", "join_bound": "families.join_bound",
        "corona_formula": "families.corona_formula", **_graph_builders(*_BUILD),
    },
    "nearcolor.io": {"parse_graph": "io.parse_graph", "Graph": "graph.Graph"},
    "nearcolor.families": {
        "solve": "solver.solve", "optimal_colorings": "solver.optimal_colorings",
        "minimum_color_usage": "solver.minimum_color_usage",
        "chromatic_number": "graph.chromatic_number", **_graph_builders("disjoint_union", "join", "corona"),
    },
    "nearcolor.verify": {
        "enumerate_oracle": "solver.enumerate_oracle", "solve": "solver.solve",
        "union_bound": "families.union_bound", "join_bound": "families.join_bound",
        "corona_formula": "families.corona_formula", "bounds_suite": "verify.bounds_suite",
        "Graph": "graph.Graph", **_graph_builders("path", "cycle", "wheel", "helm", "complete", "join"),
    },
    "nearcolor.verify.SUITES": {"families": "verify.family_suite", "polys": "verify.poly_suite"},
}

LAYERS = ("solver", "graph", "io", "families", "verify", "cli")

# Span names summed into graph.build.ms.
BUILD_SPANS = frozenset({"graph.Graph"} | {f"graph.{name}" for name in _BUILD})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count(counts: Counter, name: str, args: tuple, kwargs: dict, result) -> None:
    """Work counts taken at the boundary from the call's arguments and result."""
    if name == "solver.solve":
        counts["solver.solve.calls"] += 1
    elif name == "solver.count_optimal":
        counts["solver.count_optimal.optima"] += result
    elif name == "solver.enumerate_oracle":
        g, k = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "k")
        counts["solver.enumerate_oracle.assignments"] += k**g.n
        counts["solver.enumerate_oracle.optima"] += result.optimal_count
    elif name == "graph.chromatic_number":
        counts["graph.chromatic_number.calls"] += 1
    elif name == "io.parse_graph":
        counts["io.parse_graph.lines"] += len(_arg(args, kwargs, 0, "text").splitlines())
    elif name in ("verify.family_suite", "verify.poly_suite", "verify.bounds_suite"):
        statuses = [row.status for row in result]
        counts["verify.rows"] += len(statuses)
        counts["verify.mismatch"] += statuses.count("mismatch")
        counts["verify.known_mismatch"] += statuses.count("known-mismatch")


class Tracer:
    def __init__(self, targets: dict[str, object]):
        """`targets` maps each BINDINGS key to the module, namespace or dict to patch."""
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for key, attrs in BINDINGS.items():
            target = self.targets[key]
            for attr, name in attrs.items():
                original = _get(target, attr)
                if original is None:  # the module no longer calls this function
                    continue
                wrapper = self._wrap_generator(original, name) if name == "solver.optimal_colorings" \
                    else self._wrap(original, name)
                self._saved.append((target, attr, original))
                _set(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            _set(target, attr, original)
        self._saved.clear()

    def _open(self, name: str, start: float) -> Span:
        span = Span(len(self.spans), name, start, start, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        return span

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self._open(name, time.perf_counter())
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            _count(self.counts, name, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """The span's length is the time spent inside the generator, not its consumer's."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._open(name, time.perf_counter())
            busy = 0.0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - t0
                    self.counts["solver.optimal_colorings.yielded"] += 1
                    yield item
            finally:
                span.end = span.start + busy

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _get(target, attr: str):
    return target.get(attr) if isinstance(target, dict) else getattr(target, attr, None)


def _set(target, attr: str, value) -> None:
    if isinstance(target, dict):
        target[attr] = value
    else:
        setattr(target, attr, value)


def span_totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """(inclusive seconds per span name, self seconds per layer).

    Inclusive time counts only spans with no ancestor of the same name (or,
    for graph builders, of any builder name), so nested calls are not counted
    twice.  Self time is a span's length minus its children's.
    """
    by_id = {s.id: s for s in spans}
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for s in spans:
        key = "graph.build" if s.name in BUILD_SPANS else s.name
        self_time[s.name.split(".")[0]] += (s.end - s.start) - child_time[s.id]
        parent, nested = s.parent, False
        while parent is not None and not nested:
            p = by_id[parent]
            nested = ("graph.build" if p.name in BUILD_SPANS else p.name) == key
            parent = p.parent
        if not nested:
            inclusive[key] += s.end - s.start
    return dict(inclusive), dict(self_time)
