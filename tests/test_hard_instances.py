"""Minima and search placements of witness-only solves on named hard instances.

Each row pins, for every listed rule and both surjectivity settings, the
minimum and the candidate placements of a witness-only ``solve`` on one
budget of ``WORK`` placements, or that the solve runs over it.  A pinned
figure may fall; a rise, or a row that goes over the budget, must say why
and move its figure, as in ``tests/test_node_counts.py``.

The families are the sizes that robustness checks of the solver have used:
a long odd cycle, an odd wheel and helm, coronas and cliques.  The cycle,
wheel, helm, clique and ``corona(cycle:6, complete:3)`` rows have degree
order equal to index order, so their witness census takes the walk's
clique credit; without it the unrestricted corona row makes 167,685
placements.  The pendant-first K4 (pendant i, at index i < m, hangs on
vertex m + i mod 4 of a K4 at m..m+3) has minimum 1 but so many optima that
the census's tie cap fires, and the index-order walk colors every pendant
before it reaches the K4.  The seeded graph is the second with n = 80 and
average degree about 4 drawn by one ``random.Random(2026)`` for
``random_connected_graph(rng, n, (d - 2) / (n - 1))``, two graphs per
(n, d), for n = 40, 60, 80 and d = 3, 4 in that order.
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


def seeded(index):
    rng = random.Random(2026)
    graphs = [random_connected_graph(rng, n, (d - 2) / (n - 1)) for n in (40, 60, 80) for d in (3, 4) for _ in range(2)]
    return graphs[index]


# (label, graph, k, rules, (minimum, placements) or None for over budget)
ROWS = [
    ("cycle(1001)", lambda: cycle(1001), 2, BOTH, (1, 3_997)),
    ("wheel(40)", lambda: wheel(40)[0], 2, ONE, (20, 79_237)),
    ("helm(31)", lambda: helm(31)[0], 2, ONE, (17, 15_589)),
    ("corona(cycle:6,complete:3)", lambda: corona(cycle(6), complete(3))[0], 2, ONE, (18, 8_817)),
    ("corona(cycle:6,complete:3)", lambda: corona(cycle(6), complete(3))[0], 2, FREE, (12, 28_535)),
    ("K13", lambda: complete(13), 3, ONE, (55, 1_067)),
    ("K13", lambda: complete(13), 3, FREE, (22, 70_122)),
    ("pendant-first K4, m = 14", lambda: pendant_k4(14), 3, BOTH, (1, 51_520)),
    ("corona(cycle:4,complete:4)", lambda: corona(cycle(4), complete(4))[0], 3, BOTH, None),
    ("K16", lambda: complete(16), 3, FREE, None),
    ("pendant-first K4, m = 20", lambda: pendant_k4(20), 3, BOTH, None),
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
