"""Answers and search placements on the benchmark's golden instances.

Replays every variant of ``perfbench/golden/solve-connected.json`` and
``perfbench/golden/count-union.json`` (read only), checks each answer against
the recorded one, and sums the candidate placements of each search per
phase, as the ``searches`` fixture of ``tests/conftest.py`` names them.
Every component search is one ``solver._census`` with its own start, key
and tie limit: the degree-ordered bound phase (no key, no tie), the census
of each component (every tie), which counting and the class sizes of the
join and corona bounds read, the witness census that takes a connected
``solve``'s witness (keyed by ``solver._relabel``) and the chromatic-number
searches.  The index-order witness walk is ``solver._search`` itself;
``count_optimal`` and the union, join and corona bounds skip it, and a
witness census leaves it out unless its tie limit fires.  The ceiling is
the sum of the recorded phase totals; when it is broken, the failure names
each phase that grew.  A change that raises a total must say why and move
its figure.

The same replays pin the greedy seed of every component search: a digest of
each ``solver._greedy`` call's vertex count, k, rule, bad edges and colors,
in call order, must match the one recorded.  The searches read only the
seed's bad-edge count, or the count that ``solver._polish`` reaches from
it, so without this pin a change to its colors could go unseen.

Also replays the heuristic variants of ``perfbench/golden/cli-adjudicate.json``
and requires their recorded colorings exactly: a change that alters the
heuristic's choices must say so and update this pin.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import nearcolor
from nearcolor import solver

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
PLACEMENTS = {
    "solve-connected": {"witness census": 152_066, "witness walk": 15_210},
    "count-union": {"bound phase": 8_635, "chromatic": 1_091, "census": 16_364},
}

SEEDS = {
    "solve-connected": "73e788399a164bb9556a245764a578445f970c60c4bb1c4378ac47129279577c",
    "count-union": "f66893e2e08596dcaba60e78d515fbb075be2ff43929d84cdd4bce52cb76432c",
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
def test_golden_placements_stay_under_their_ceiling(workload, searches):
    cells = json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))["cells"]
    wrong = [replay(cell, v) for cell in cells for v in cell["variants"]]
    assert [w for w in wrong if w] == []
    spent_in: Counter[str] = Counter()
    for phase, placements in searches:
        spent_in[phase] += placements
    recorded = PLACEMENTS[workload]
    grown = {phase: n for phase, n in spent_in.items() if n > recorded.get(phase, 0)}
    assert sum(spent_in.values()) <= sum(recorded.values()), f"placements grew in {grown}"


@pytest.mark.parametrize("workload", sorted(SEEDS))
def test_golden_greedy_seeds_keep_their_digest(workload, monkeypatch):
    digest = hashlib.sha256()
    greedy = solver._greedy

    def recording(g, k, rule, surjective, order):
        bad, colors, tab = greedy(g, k, rule, surjective, order)
        digest.update(repr((g.n, k, rule.value, bad, colors)).encode())
        return bad, colors, tab

    monkeypatch.setattr(solver, "_greedy", recording)
    cells = json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))["cells"]
    assert [w for w in (replay(cell, v) for cell in cells for v in cell["variants"]) if w] == []
    assert digest.hexdigest() == SEEDS[workload]


def test_heuristic_keeps_its_golden_colorings():
    cells = json.loads((GOLDEN / "cli-adjudicate.json").read_text(encoding="utf-8"))["cells"]
    (cell,) = [c for c in cells if c["cell"] == "solve-heuristic"]
    assert len(cell["variants"]) == 8
    for v in cell["variants"]:
        want = v["fields"]
        res = nearcolor.greedy_heuristic(graph(v["n"], v["edges"]), want["k"], want["rule"], want["surjective"])
        assert (res.min_bad, list(res.witness.assignment)) == (want["min_bad"], want["witness"]), v["id"]
