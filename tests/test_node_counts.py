"""Answers and search placements on the benchmark's golden instances.

Replays every variant of ``perfbench/golden/solve-connected.json`` and
``perfbench/golden/count-union.json`` (read only), checks each answer against
the recorded one, and sums the candidate placements that ``solver._search``
makes, per phase: the degree-ordered bound phase (chromatic-number searches
included), the index-order witness walk (which ``count_optimal`` skips, and
which visits every optimum for the class-size walks of the join and corona
bounds) and the count walk.  The ceiling is the sum of the recorded phase
totals; when it is broken, the failure names each phase that grew.  A change
that raises a total must say why and move its figure.

Also replays the heuristic variants of ``perfbench/golden/cli-adjudicate.json``
and requires their recorded colorings exactly: a change that alters the
heuristic's choices must say so and update this pin.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import nearcolor
from nearcolor import solver

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
PLACEMENTS = {
    "solve-connected": {"bound phase": 115_213, "witness walk": 175_610},
    "count-union": {"bound phase": 17_600, "witness walk": 8_136, "count walk": 25_442},
}


def graph(n, edges):
    return nearcolor.Graph(n, tuple(map(tuple, edges)))


def replay(cell, v):
    """Run one golden variant's call; return None when its answer matches."""
    op = cell["op"]
    if op == "solve":
        res = nearcolor.solve(graph(cell["n"], v["edges"]), cell["k"], cell["rule"], cell["surjective"])
        return None if (res.min_bad, list(res.witness.assignment)) == (v["min_bad"], v["witness"]) else v["id"]
    if op == "count_optimal":
        union, _ = nearcolor.disjoint_union(graph(cell["n"], v["left"]), graph(cell["n"], v["right"]))
        count = nearcolor.count_optimal(union, cell["k"], cell["rule"], cell["surjective"])
        return None if count == v["count"] else v["id"]
    report = getattr(nearcolor, op)(graph(v["left_n"], v["left"]), graph(v["right_n"], v["right"]), v["k"])
    return None if all(getattr(report, f) == want for f, want in v["report"].items()) else v["id"]


@pytest.mark.parametrize("workload", sorted(PLACEMENTS))
def test_golden_placements_stay_under_their_ceiling(workload, monkeypatch):
    spent_in: Counter[str] = Counter()
    search = solver._search

    def counting(g, k, rule, surjective, order, bound, leaf, budget, spent, drop=None, memo=None):
        out = search(g, k, rule, surjective, order, bound, leaf, budget, spent, drop, memo)
        spent_in["bound phase" if drop is None else "witness walk" if memo is None else "count walk"] += out - spent
        return out

    monkeypatch.setattr(solver, "_search", counting)
    cells = json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))["cells"]
    wrong = [replay(cell, v) for cell in cells for v in cell["variants"]]
    assert [w for w in wrong if w] == []
    recorded = PLACEMENTS[workload]
    grown = {phase: n for phase, n in spent_in.items() if n > recorded.get(phase, 0)}
    assert sum(spent_in.values()) <= sum(recorded.values()), f"placements grew in {grown}"


def test_heuristic_keeps_its_golden_colorings():
    cells = json.loads((GOLDEN / "cli-adjudicate.json").read_text(encoding="utf-8"))["cells"]
    (cell,) = [c for c in cells if c["cell"] == "solve-heuristic"]
    assert len(cell["variants"]) == 8
    for v in cell["variants"]:
        want = v["fields"]
        res = nearcolor.greedy_heuristic(graph(v["n"], v["edges"]), want["k"], want["rule"], want["surjective"])
        assert (res.min_bad, list(res.witness.assignment)) == (want["min_bad"], want["witness"]), v["id"]
