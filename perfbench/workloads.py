"""The benchmark's workloads: set-up, the timed calls and the output checks.

A workload is a list of cells read from perfbench/golden/<workload>.json.
`setup` imports the package afresh, picks variants from every cell with a
generator seeded by --seed, builds their graphs, writes any input files and
returns the shuffled operation list that one pass runs.  Workloads in
WHOLE_POOL run every variant of every cell, each weighted per_pass / the
number of variants; the others sample `per_pass` variants, each of weight 1.
Every operation carries a check that compares its output with the golden
results recorded by make_golden.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORK_DIR = Path(__file__).resolve().parent / ".work"
WORKLOADS = ("solve-connected", "count-union", "cli-adjudicate")
# count-union's variants differ in cost by up to 1.5x within a cell, so a
# sampled subset would move its p50 by a tenth from seed to seed.
WHOLE_POOL = ("count-union",)

BOUND_FIELDS = ("op", "left", "right", "k", "t", "left_min_bad", "right_min_bad",
                "cross_term", "bound", "exact", "slack")
CLI_FIELDS = ("n", "m", "k", "rule", "surjective", "min_bad", "optimal_count", "witness", "exact")
VERIFY_FIELDS = ("case", "params", "claimed", "computed", "status")

# Cells kept by --tiny, the smoke test's short instance lists (one variant each).
TINY_CELLS = {
    "solve-connected": ("solve-k2-n16-",),
    "count-union": ("count-k2-8+8-", "union_bound", "join_bound", "corona_formula"),
    "cli-adjudicate": ("solve-family", "malformed", "gen"),
}


@dataclass
class Op:
    """One timed call.  `call` runs it; `check` returns None when the output is right."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    ref: Callable[[], object] | None = None  # count ops: witness-only solve of the same graph
    inproc: Callable[[], object] | None = None  # cli ops: cli.main(argv) in this process
    weight: float = 1.0  # the operation's share of a sampled pass, for the metrics


@dataclass
class Workload:
    name: str
    ops: list[Op]
    calls: SimpleNamespace  # the package functions the benchmark calls directly
    modules: dict[str, object]


# ---------------------------------------------------------------------------
# Input text shared with make_golden.py
# ---------------------------------------------------------------------------

def dimacs_text(g) -> str:
    lines = ["c perfbench input", f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def malformed_text(g, index: int, kind: int) -> tuple[str, int]:
    """Edge-list text whose edge line `index` is broken; returns (text, its line number)."""
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    u, v = g.edges[index]
    lines[index + 1] = (f"{u} x", f"{u}", f"{u} {g.n}")[kind]
    return "\n".join(lines) + "\n", index + 2


def verify_digest(rows: list[dict]) -> str:
    data = json.dumps([[row[f] for f in VERIFY_FIELDS] for row in rows])
    return hashlib.sha256(data.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_package(root: Path) -> dict[str, object]:
    """Import nearcolor from root/src, discarding any copy imported before."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "nearcolor" or m.startswith("nearcolor.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in (
        "nearcolor", "nearcolor.cli", "nearcolor.verify", "nearcolor.families", "nearcolor.io")}
    if not Path(modules["nearcolor"].__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"nearcolor was imported from outside {src}")
    return modules


def setup(name: str, root: Path, seed: int, tiny: bool = False) -> Workload:
    modules = import_package(root)
    nc = modules["nearcolor"]
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    cells = golden["cells"]
    if tiny:
        cells = [dict(c, per_pass=1) for c in cells if c["cell"].startswith(TINY_CELLS[name])]
    rng = random.Random(f"{name}/{seed}")
    whole = name in WHOLE_POOL and not tiny
    picks = []
    for cell in cells:
        chosen = cell["variants"] if whole else rng.sample(cell["variants"], cell["per_pass"])
        picks += [(cell, v, cell["per_pass"] / len(chosen)) for v in chosen]
    rng.shuffle(picks)
    calls = SimpleNamespace(
        solve=nc.solve, count_optimal=nc.count_optimal, disjoint_union=nc.disjoint_union,
        union_bound=nc.union_bound, join_bound=nc.join_bound, corona_formula=nc.corona_formula,
        main=modules["nearcolor.cli"].main,
    )
    build = {"solve-connected": _solve_op, "count-union": _count_union_op,
             "cli-adjudicate": _cli_op}[name]
    work = WORK_DIR / name
    if name == "cli-adjudicate":
        work.mkdir(parents=True, exist_ok=True)
    ops = []
    for cell, v, weight in picks:
        ops.append(build(nc, calls, cell, v, root, work))
        ops[-1].weight = weight
    return Workload(name, ops, calls, modules)


def _graph(nc, n: int, edges: list) -> object:
    return nc.Graph(n, tuple((u, v) for u, v in edges))


def _witness_problem(nc, g, coloring, rule, surjective: bool, min_bad: int) -> str | None:
    if not nc.is_valid(g, coloring, rule, surjective):
        return "witness is not valid under the rule"
    if nc.bad_edges(g, coloring).count != min_bad:
        return "witness bad-edge count differs from min_bad"
    return None


# ---------------------------------------------------------------------------
# solve-connected and count-union: direct library calls
# ---------------------------------------------------------------------------

def _solve_op(nc, calls, cell, v, root, work) -> Op:
    g = _graph(nc, cell["n"], v["edges"])
    k, rule, surj = cell["k"], cell["rule"], cell["surjective"]

    def check(res) -> str | None:
        if res.min_bad != v["min_bad"]:
            return f"min_bad {res.min_bad}, golden {v['min_bad']}"
        if list(res.witness.assignment) != v["witness"]:
            return "witness differs from golden"
        return _witness_problem(nc, g, res.witness, rule, surj, res.min_bad)

    return Op(v["id"], lambda: calls.solve(g, k, rule, surj), check)


def _count_union_op(nc, calls, cell, v, root, work) -> Op:
    op = cell["op"]
    if op == "count_optimal":
        a, b = _graph(nc, cell["n"], v["left"]), _graph(nc, cell["n"], v["right"])
        k, rule, surj = cell["k"], cell["rule"], cell["surjective"]
        union, _ = nc.disjoint_union(a, b)

        def check(count) -> str | None:
            return None if count == v["count"] else f"count {count}, golden {v['count']}"

        return Op(v["id"], lambda: calls.count_optimal(calls.disjoint_union(a, b)[0], k, rule, surj),
                  check, ref=lambda: calls.solve(union, k, rule, surj))

    g, h = _graph(nc, v["left_n"], v["left"]), _graph(nc, v["right_n"], v["right"])
    k = v["k"]

    def check(report) -> str | None:
        got = {f: getattr(report, f) for f in BOUND_FIELDS}
        return None if got == v["report"] else f"report {got}, golden {v['report']}"

    return Op(v["id"], lambda: getattr(calls, op)(g, h, k), check)


# ---------------------------------------------------------------------------
# cli-adjudicate: `python -m nearcolor` subprocesses (or cli.main in process)
# ---------------------------------------------------------------------------

def _run_subprocess(argv: list[str], root: Path, work: Path) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "nearcolor", *argv], cwd=work, env=env,
                          capture_output=True, text=True, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def _run_inproc(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_input(nc, v, path: Path) -> None:
    g = _graph(nc, v["n"], v["edges"])
    fmt = v["format"]
    if fmt == "edgelist":
        text = nc.write_edge_list(g)
    elif fmt == "dimacs":
        text = dimacs_text(g)
    else:
        text, _ = malformed_text(g, *v["corrupt"])
    path.write_text(text, encoding="utf-8")


def _check_verify(v, out: str) -> str | None:
    rows = json.loads(next(line for line in out.splitlines() if line.startswith("[")))
    statuses = [r["status"] for r in rows]
    known = sorted([r["case"], r["params"]] for r in rows if r["status"] == "known-mismatch")
    if "mismatch" in statuses:
        return f"{statuses.count('mismatch')} mismatch rows"
    if known != v["known_mismatch"]:
        return "known-mismatch rows differ from golden"
    if len(rows) != v["rows"] or verify_digest(rows) != v["digest"]:
        return "verify rows differ from golden"
    return None


def _check_solve(nc, v, g, out: str) -> str | None:
    payload = json.loads(out.strip().splitlines()[-1])
    want = v["fields"]
    got = {f: payload.get(f) for f in CLI_FIELDS}
    coloring = nc.Coloring(tuple(got["witness"]), got["k"])
    if not want["exact"]:  # heuristic: valid, consistent, and no worse than recorded
        same = {f: got[f] for f in ("n", "m", "k", "rule", "surjective", "exact")}
        if same != {f: want[f] for f in same}:
            return f"heuristic payload {same} differs from golden"
        if got["min_bad"] > want["min_bad"]:
            return f"heuristic min_bad {got['min_bad']} worse than golden {want['min_bad']}"
    elif got != want:
        return f"payload {got} differs from golden"
    return _witness_problem(nc, g, coloring, got["rule"], got["surjective"], got["min_bad"])


def _cli_op(nc, calls, cell, v, root, work) -> Op:
    argv = list(v["argv"])
    if "{file}" in argv:
        path = work / (v["id"].replace("/", "_") + ".txt")
        _write_input(nc, v, path)
        argv = [str(path) if a == "{file}" else a for a in argv]
    g = _graph(nc, v["n"], v["edges"]) if "edges" in v else None

    def check(result) -> str | None:
        code, out, err = result
        if code != v["exit"]:
            return f"exit {code}, golden {v['exit']}: {err.strip()[-200:]}"
        if cell["cell"] == "verify":
            return _check_verify(v, out)
        if cell["cell"] == "malformed":
            return None if f"line {v['line']}" in err else f"error does not name line {v['line']}: {err!r}"
        if cell["cell"] == "gen":
            ok = hashlib.sha256(out.encode()).hexdigest() == v["sha256"]
            return None if ok else "generated text differs from golden"
        return _check_solve(nc, v, g, out)

    return Op(v["id"], lambda: _run_subprocess(argv, root, work), check,
              inproc=lambda: _run_inproc(calls.main, argv))
