"""Write the benchmark's instance pools and golden results to perfbench/golden/.

Run from the repository root:  python3 perfbench/make_golden.py [workload ...]

Each workload is a list of cells (one setting: color budget, rule,
surjectivity, size).  For every cell this script draws CANDIDATES seeded
random instances, keeps the VARIANTS whose search costs lie closest
together, and records each kept instance with the results the code computes
for it now.  The benchmark run picks variants from these pools by its
--seed and compares every timed call against the recorded results.

Search cost is a candidate's median time over ROUNDS rounds that time every
candidate of the cell in turn, so a slow spell of the machine touches all
candidates alike.  The pools depend a little on the machine that wrote them;
the recorded results do not.  Keeping only cost-matched variants means any two seeds give instance lists
of nearly equal cost, which keeps the end-to-end figures steady across seeds.

Where k**n <= ORACLE_LIMIT, every exact value is cross-checked against
enumerate_oracle while the file is written (never during timed runs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nearcolor as nc  # noqa: E402
from nearcolor.cli import main as cli_main, parse_family_spec  # noqa: E402

from workloads import (  # noqa: E402
    BOUND_FIELDS,
    CLI_FIELDS,
    GOLDEN_DIR,
    WORK_DIR,
    dimacs_text,
    malformed_text,
    verify_digest,
)

CANDIDATES = 64
VARIANTS = 8
ROUNDS = 5
ORACLE_LIMIT = 200_000
INPUT = WORK_DIR / "golden-input"
SETTINGS = [(rule, surj) for rule in ("one-class", "unrestricted") for surj in (True, False)]


def random_connected(rng: random.Random, n: int, m: int) -> nc.Graph:
    """Random attachment tree plus m - (n - 1) distinct extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - (n - 1)))
    return nc.Graph(n, tuple(sorted(edges)))


def cost_matched(make, cell: str) -> list[dict]:
    """Draw CANDIDATES via make(rng) -> (record, call) or None to skip; keep the
    VARIANTS whose costs lie closest together (smallest max/min ratio)."""
    drawn = [make(random.Random(f"{cell}/{i}")) for i in range(CANDIDATES)]
    drawn = [d for d in drawn if d is not None]
    times: list[list[float]] = [[] for _ in drawn]
    for _ in range(ROUNDS):
        for (_, call), spent in zip(drawn, times):
            t0 = time.perf_counter()
            call()
            spent.append((time.perf_counter() - t0) * 1000)
    pool = []
    for (record, _), spent in zip(drawn, times):
        record["ms"] = statistics.median(spent)
        pool.append(record)
    pool.sort(key=lambda p: p["ms"])
    start = min(range(len(pool) - VARIANTS + 1),
                key=lambda i: pool[i + VARIANTS - 1]["ms"] / pool[i]["ms"])
    kept = pool[start:start + VARIANTS]
    for i, p in enumerate(kept):
        p["id"] = f"{cell}/{i}"
        p["ms"] = round(p["ms"], 3)
    median = statistics.median(p["ms"] for p in pool)
    print(f"{cell}: median {median:.2f} ms of {len(pool)}, kept "
          f"{kept[0]['ms']:.2f}..{kept[-1]['ms']:.2f}", flush=True)
    return kept


def oracle_check(g: nc.Graph, k: int, rule: str, surjective: bool, min_bad: int, witness, count=None) -> bool:
    """Cross-check exact values against enumerate_oracle when k**n is small; True if checked."""
    if k**g.n > ORACLE_LIMIT:
        return False
    ref = nc.enumerate_oracle(g, k, rule, surjective)
    if ref.min_bad != min_bad or (witness is not None and list(ref.witness.assignment) != list(witness)):
        raise SystemExit(f"oracle disagrees on n={g.n} k={k} {rule} surjective={surjective}")
    if count is not None and ref.optimal_count != count:
        raise SystemExit(f"oracle count disagrees on n={g.n} k={k} {rule} surjective={surjective}")
    return True


# ---------------------------------------------------------------------------
# solve-connected
# ---------------------------------------------------------------------------

# (k, n, m, per_pass for one-class, per_pass for unrestricted).  The per_pass
# counts place the p50 and p90 inside runs of cells of similar cost, not on a
# jump between two cost levels.
SOLVE_SIZES = [
    (2, 16, 40, 1, 1),
    (2, 22, 76, 1, 2),
    (3, 11, 28, 1, 1),
    (3, 16, 72, 2, 5),
    (4, 8, 22, 1, 1),
    (4, 13, 50, 3, 2),
]


def solve_connected() -> dict:
    cells = []
    for k, n, m, *per_rule in SOLVE_SIZES:
        for rule, surj in SETTINGS:
            per_pass = per_rule[rule == "unrestricted"]
            name = f"solve-k{k}-n{n}-{rule}-{'surj' if surj else 'any'}"

            def make(rng, k=k, n=n, m=m, rule=rule, surj=surj):
                g = random_connected(rng, n, m)
                res = nc.solve(g, k, rule, surj)
                if res.min_bad == 0:  # keep k below what the graph needs
                    return None
                witness = list(res.witness.assignment)
                return {
                    "edges": [list(e) for e in g.edges],
                    "min_bad": res.min_bad,
                    "witness": witness,
                    "oracle_checked": oracle_check(g, k, rule, surj, res.min_bad, witness),
                }, lambda: nc.solve(g, k, rule, surj)

            cells.append({
                "cell": name, "op": "solve", "k": k, "n": n, "rule": rule, "surjective": surj,
                "per_pass": per_pass, "variants": cost_matched(make, name),
            })
    return {"workload": "solve-connected", "cells": cells}


# ---------------------------------------------------------------------------
# count-union
# ---------------------------------------------------------------------------

COUNT_SIZES = [  # (k, n and m per component, per_pass for one-class, for unrestricted)
    (2, 8, 15, 1, 1),
    (2, 12, 30, 2, 3),
    (3, 5, 8, 1, 1),
    (3, 7, 15, 2, 2),
]
BOUND_CELLS = [  # (op, k, per_pass)
    ("union_bound", 2, 2),
    ("union_bound", 3, 2),
    ("join_bound", 2, 2),
    ("join_bound", 3, 2),
    ("corona_formula", 0, 2),  # k is one below the corona's chromatic number
]


def _report_fields(report) -> dict:
    return {f: getattr(report, f) for f in BOUND_FIELDS}


def count_union() -> dict:
    cells = []
    for k, n, m, *per_rule in COUNT_SIZES:
        for rule, surj in SETTINGS:
            per_pass = per_rule[rule == "unrestricted"]
            name = f"count-k{k}-{n}+{n}-{rule}-{'surj' if surj else 'any'}"

            def make(rng, k=k, n=n, m=m, rule=rule, surj=surj):
                a, b = random_connected(rng, n, m), random_connected(rng, n, m)
                g, _ = nc.disjoint_union(a, b)
                count = nc.count_optimal(g, k, rule, surj)
                res = nc.solve(g, k, rule, surj)
                if res.min_bad == 0:
                    return None
                return {
                    "left": [list(e) for e in a.edges],
                    "right": [list(e) for e in b.edges],
                    "count": count,
                    "oracle_checked": oracle_check(g, k, rule, surj, res.min_bad, None, count),
                }, lambda: nc.count_optimal(g, k, rule, surj)

            cells.append({
                "cell": name, "op": "count_optimal", "k": k, "n": n, "rule": rule, "surjective": surj,
                "per_pass": per_pass, "variants": cost_matched(make, name),
            })
    for op, k, per_pass in BOUND_CELLS:
        name = f"{op}-k{k}" if k else op

        def make(rng, op=op, k=k):
            if op == "corona_formula":
                g = random_connected(rng, 3, 2)
                h = random_connected(rng, 4, rng.randint(4, 5))
                k = nc.chromatic_number(nc.corona(g, h)[0]) - 1
            else:
                na, nb = rng.randint(4, 6), rng.randint(4, 6)
                g = random_connected(rng, na, na + rng.randint(0, 2))
                h = random_connected(rng, nb, nb + rng.randint(0, 2))
            fn = getattr(nc, op)
            return {
                "left": [list(e) for e in g.edges], "left_n": g.n,
                "right": [list(e) for e in h.edges], "right_n": h.n,
                "k": k, "report": _report_fields(fn(g, h, k)),
            }, lambda: fn(g, h, k)

        cells.append({"cell": name, "op": op, "per_pass": per_pass, "variants": cost_matched(make, name)})
    return {"workload": "count-union", "cells": cells}


# ---------------------------------------------------------------------------
# cli-adjudicate
# ---------------------------------------------------------------------------

def run_cli(argv: list[str], text: str | None = None) -> tuple[int, str, str]:
    """cli.main(argv) with output captured; "{file}" in argv names a file holding text."""
    if text is not None:
        INPUT.parent.mkdir(parents=True, exist_ok=True)
        INPUT.write_text(text)
        argv = [str(INPUT) if a == "{file}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _solve_variant(argv: list[str], g: nc.Graph, k: int, rule: str, surj: bool, counting: bool,
                   text: str | None = None) -> dict:
    code, out, _ = run_cli(argv, text)
    payload = json.loads(out.strip().splitlines()[-1])
    fields = {f: payload[f] for f in CLI_FIELDS}
    checked = False
    if payload["exact"]:
        checked = oracle_check(g, k, rule, surj, payload["min_bad"], payload["witness"],
                               payload["optimal_count"] if counting else None)
    return {"argv": argv, "exit": code, "n": g.n, "edges": [list(e) for e in g.edges],
            "fields": fields, "oracle_checked": checked}


FAMILY_SOLVES = [("wheel:5", 2), ("wheel:6", 2), ("wheel:7", 2), ("helm:5", 2),
                 ("helm:6", 2), ("wheel:7", 3), ("wheel:9", 3), ("helm:7", 3)]
FAMILY_COUNTS = [("helm:4", 2), ("helm:5", 2), ("helm:6", 2), ("wheel:6", 2),
                 ("wheel:8", 2), ("wheel:5", 3), ("wheel:7", 3), ("helm:5", 3)]
SPEC_SOLVES = ["join(cycle:5,path:4)", "join(cycle:5,cycle:5)", "join(path:4,wheel:4)",
               "join(complete:3,cycle:5)", "corona(cycle:5,path:2)", "corona(cycle:3,complete:2)",
               "union(wheel:5,helm:4)", "union(cycle:7,wheel:6)"]
SPEC_COUNTS = ["join(cycle:5,path:4)", "join(cycle:5,path:3)", "join(path:4,path:4)",
               "join(cycle:3,path:5)", "union(cycle:5,cycle:7)", "union(cycle:5,wheel:5)",
               "union(wheel:5,path:4)", "corona(path:3,path:2)"]
GEN_SPECS = ["join(wheel:5,path:4)", "corona(cycle:6,complete:3)", "union(helm:7,cycle:9)",
             "helm:12", "wheel:20", "join(complete:4,cycle:8)", "corona(path:5,cycle:4)", "cycle:40"]


def cli_adjudicate() -> dict:
    cells = []

    def cell(name, per_pass, variants):
        for i, v in enumerate(variants):
            v["id"] = f"{name}/{i}"
        cells.append({"cell": name, "per_pass": per_pass, "variants": variants})
        print(f"{name}: {len(variants)} variants", flush=True)

    variants = []
    for seed in range(VARIANTS):
        argv = ["verify", "--suite", "all", "--seed", str(seed), "--json"]
        code, out, _ = run_cli(argv)
        rows = json.loads(next(line for line in out.splitlines() if line.startswith("[")))
        if code != 0 or any(r["status"] == "mismatch" for r in rows):
            raise SystemExit(f"verify --seed {seed} reports a mismatch")
        known = sorted([r["case"], r["params"]] for r in rows if r["status"] == "known-mismatch")
        variants.append({"argv": argv, "exit": code, "rows": len(rows), "known_mismatch": known,
                         "digest": verify_digest(rows)})
    cell("verify", 2, variants)

    for name, specs, counting in (("solve-family", FAMILY_SOLVES, False), ("count-family", FAMILY_COUNTS, True)):
        variants = []
        for spec, k in specs:
            argv = ["count" if counting else "solve", "--family", spec, "--k", str(k), "--json"]
            variants.append(_solve_variant(argv, parse_family_spec(spec), k, "one-class", True, counting))
        cell(name, 1, variants)

    for name, specs, counting in (("solve-spec", SPEC_SOLVES, False), ("count-spec", SPEC_COUNTS, True)):
        variants = []
        for spec in specs:
            g = parse_family_spec(spec)
            argv = ["count" if counting else "solve", "--family", spec, "--k", "2",
                    "--rule", "unrestricted", "--json"]
            variants.append(_solve_variant(argv, g, 2, "unrestricted", True, counting))
        cell(name, 1, variants)

    # Files are written by the benchmark at set-up; "{file}" is replaced by its path.
    for name, n, m, k, rule, fmt in (("solve-edgelist", 14, 35, 3, "one-class", "edgelist"),
                                     ("solve-dimacs", 12, 30, 2, "unrestricted", "dimacs")):
        variants = []
        for i in range(VARIANTS):
            g = random_connected(random.Random(f"{name}/{i}"), n, m)
            argv = ["solve", "--input", "{file}", "--k", str(k), "--rule", rule, "--json"]
            text = nc.write_edge_list(g) if fmt == "edgelist" else dimacs_text(g)
            if nc.parse_graph(text) != g:
                raise SystemExit(f"{name}: written file does not parse back")
            v = _solve_variant(argv, g, k, rule, True, False, text)
            v["format"] = fmt
            variants.append(v)
        cell(name, 1, variants)

    variants = []
    for i in range(VARIANTS):
        g = random_connected(random.Random(f"heuristic/{i}"), 300, 750)
        argv = ["solve", "--input", "{file}", "--k", "3", "--heuristic", "--json"]
        code, out, _ = run_cli(argv, nc.write_edge_list(g))
        payload = json.loads(out.strip().splitlines()[-1])
        variants.append({"argv": argv, "exit": code, "format": "edgelist", "n": g.n,
                         "edges": [list(e) for e in g.edges], "fields": {f: payload[f] for f in CLI_FIELDS}})
    cell("solve-heuristic", 1, variants)

    variants = []
    for i in range(VARIANTS):
        rng = random.Random(f"malformed/{i}")
        g = random_connected(rng, 10, 15)
        corrupt = [rng.randrange(g.m), rng.randrange(3)]
        text, line_no = malformed_text(g, *corrupt)
        argv = ["solve", "--input", "{file}", "--k", "2", "--json"]
        code, _, err = run_cli(argv, text)
        if code != 2 or f"line {line_no}" not in err:
            raise SystemExit(f"malformed/{i}: expected exit 2 naming line {line_no}, got {code}: {err!r}")
        variants.append({"argv": argv, "exit": code, "format": "malformed", "n": g.n,
                         "edges": [list(e) for e in g.edges], "corrupt": corrupt, "line": line_no})
    cell("malformed", 1, variants)

    variants = []
    for spec in GEN_SPECS:
        argv = ["gen", "--family", spec]
        code, out, _ = run_cli(argv)
        variants.append({"argv": argv, "exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()})
    cell("gen", 1, variants)
    return {"workload": "cli-adjudicate", "cells": cells}


def main(names: list[str]) -> None:
    """Write the golden file of each named workload (all three when none is named)."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    builders = {"solve-connected": solve_connected, "count-union": count_union,
                "cli-adjudicate": cli_adjudicate}
    for name in names or builders:
        data = builders[name]()
        data["generated_by"] = "perfbench/make_golden.py"
        path = GOLDEN_DIR / f"{data['workload']}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
