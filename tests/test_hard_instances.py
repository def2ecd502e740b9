"""Minima and search placements of witness-only solves on named hard instances.

Each row pins, for every listed rule and both surjectivity settings, the
minimum and the candidate placements of a witness-only ``solve`` on one
budget of ``WORK`` placements, or that the solve runs over it.  A pinned
figure may fall; a rise, or a row that goes over the budget, must say why
and move its figure, as in ``tests/test_node_counts.py``.

The families are the sizes that robustness checks of the solver have used:
odd cycles, wheels, helms, coronas, cliques and seeded sparse graphs.  The
cycle, wheel, helm, clique and ``corona(cycle:6, complete:3)`` rows have
degree order equal to index order, so their witness census takes the walk's
clique credit; without it the unrestricted corona row makes 167,685
placements.  The pendant-first K4 (pendant i, at index i < m, hangs on
vertex m + i mod 4 of a K4 at m..m+3) has minimum 1 but so many optima that
the census's tie cap fires, and the index-order walk colors every pendant
before it reaches the K4.  The seeded graphs are drawn by one
``random.Random(2026)`` for ``random_connected_graph(rng, n, (d - 2) / (n -
1))``, two graphs per (n, d), for n = 40, 60, 80 and d = 3, 4 in that
order; a row names the (n, d) and which of its two graphs it takes.

The search keeps its look-ahead rows in tables where ``solver._admits``
takes the maximum degree at the search's width and in lists elsewhere, so
some rows sit on each side of the largest admitted degree: K30 at k = 3
(degree 29, largest 48) and K20 at k = 4 (19, largest 22) run on tables,
and the ``random.Random(3)`` graph on 30 vertices, each pair an edge with
probability 0.3, at k = 6 (14, largest 10) on lists.
"""

import itertools
import random

import pytest

from nearcolor import Graph, RuleMode, SizeLimitError, complete, corona, cycle, helm, wheel
from nearcolor import solver
from nearcolor.verify import random_connected_graph

WORK = 10**5
ONE, FREE = [RuleMode.ONE_CLASS], [RuleMode.UNRESTRICTED]
BOTH = ONE + FREE


def pendant_k4(m):
    return Graph(m + 4, tuple((i, m + i % 4) for i in range(m)) + tuple(itertools.combinations(range(m, m + 4), 2)))


def sparse30():
    rng = random.Random(3)
    return Graph(30, tuple(e for e in itertools.combinations(range(30), 2) if rng.random() < 0.3))


def seeded(index):
    rng = random.Random(2026)
    graphs = [random_connected_graph(rng, n, (d - 2) / (n - 1)) for n in (40, 60, 80) for d in (3, 4) for _ in range(2)]
    return graphs[index]


# (label, graph, k, rules, (minimum, placements) or None for over budget)
ROWS = [
    ("cycle(101)", lambda: cycle(101), 2, BOTH, (1, 397)),
    ("cycle(1001)", lambda: cycle(1001), 2, BOTH, (1, 3_997)),
    ("wheel(40)", lambda: wheel(40)[0], 2, ONE, (20, 79_237)),
    ("helm(31)", lambda: helm(31)[0], 2, ONE, (17, 15_589)),
    ("corona(cycle:6,complete:3)", lambda: corona(cycle(6), complete(3))[0], 2, ONE, (18, 8_817)),
    ("corona(cycle:6,complete:3)", lambda: corona(cycle(6), complete(3))[0], 2, FREE, (12, 28_535)),
    ("K10", lambda: complete(10), 3, ONE, (28, 473)),
    ("K10", lambda: complete(10), 3, FREE, (12, 2_792)),
    ("K12", lambda: complete(12), 3, ONE, (45, 834)),
    ("K12", lambda: complete(12), 3, FREE, (18, 16_339)),
    ("K13", lambda: complete(13), 3, ONE, (55, 1_067)),
    ("K13", lambda: complete(13), 3, FREE, (22, 70_122)),
    ("K14", lambda: complete(14), 3, ONE, (66, 1_339)),
    ("K20", lambda: complete(20), 4, ONE, (136, 23_723)),
    ("K30", lambda: complete(30), 3, ONE, (378, 13_443)),
    ("random(3) n = 30, p = 0.3", sparse30, 6, FREE, (0, 1_331)),
    ("pendant-first K4, m = 14", lambda: pendant_k4(14), 3, BOTH, (1, 51_520)),
    ("seeded n = 40, d = 4, first", lambda: seeded(2), 3, ONE, (1, 3_441)),
    ("seeded n = 40, d = 4, first", lambda: seeded(2), 3, FREE, (1, 3_309)),
    ("seeded n = 80, d = 4, first", lambda: seeded(10), 3, FREE, (0, 56_815)),
    ("corona(cycle:4,complete:4)", lambda: corona(cycle(4), complete(4))[0], 3, BOTH, None),
    ("K14", lambda: complete(14), 3, FREE, None),
    ("K16", lambda: complete(16), 3, FREE, None),
    ("wheel(41)", lambda: wheel(41)[0], 2, BOTH, None),
    ("helm(41)", lambda: helm(41)[0], 2, BOTH, None),
    ("pendant-first K4, m = 20", lambda: pendant_k4(20), 3, BOTH, None),
    ("seeded n = 60, d = 4, second", lambda: seeded(7), 3, BOTH, None),
    ("seeded n = 80, d = 4, first", lambda: seeded(10), 3, ONE, None),
    ("seeded n = 80, d = 4, second", lambda: seeded(11), 3, BOTH, None),
]


@pytest.mark.parametrize("label, build, k, rules, want", ROWS,
                         ids=[f"{label} k={k} {'/'.join(r.value for r in rules)}" for label, _, k, rules, _ in ROWS])
def test_witness_only_solves_keep_their_minimum_and_placements(label, build, k, rules, want):
    g = build()
    for rule, surjective in itertools.product(rules, (True, False)):
        budget = solver._Budget(WORK)
        if want is None:
            with pytest.raises(SizeLimitError):
                solver._solve(g, k, rule, surjective, budget)
            continue
        best, placements = want
        result = solver._solve(g, k, rule, surjective, budget)
        assert result.min_bad == best, (rule, surjective)
        assert budget.spent <= placements, f"{label} {rule.value} surjective={surjective} grew to {budget.spent}"


def test_rows_on_both_sides_of_the_table_line():
    assert solver._rows(3, complete(30).adj) is not None
    assert solver._rows(4, complete(20).adj) is not None
    assert solver._rows(6, sparse30().adj) is None
