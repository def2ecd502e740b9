"""Verification harness binding closed-form claims to the exact search kernel.

Produces tabular check rows consumed by the ``verify`` CLI subcommand and by
the acceptance tests.  Every family row is settled by the search kernel
behind :func:`solve`, whose agreement with two independent oracles (full
enumeration and a subset partition DP) is tested; a row reads only the
minimum and the count, so no witness walk runs for it.  The polynomial rows
count assignments on the same search kernel, one per class of color
renamings, under the same default work budget.  All randomness is driven
by an explicit seed.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .coloring import RuleMode
from .errors import InvalidParameterError, _excerpt
from .families import (
    FAMILIES,
    complete_defect_polynomial,
    corona_formula,
    cycle_defect_polynomial,
    family_claim,
    join_bound,
    union_bound,
)
from .graph import Graph, complete, cycle, join, path
from .solver import DEFAULT_WORK_BUDGET, _Budget, _count, _minimum, _search

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_KNOWN_MISMATCH = "known-mismatch"
STATUS_REPORTED = "reported"
STATUS_INFEASIBLE = "oracle-infeasible"


class CheckRow(NamedTuple):
    case: str
    params: str
    claimed: str
    computed: str
    status: str


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: a random attachment tree plus Bernoulli extras."""
    if n < 1:
        raise InvalidParameterError(f"need at least 1 vertex, got {_excerpt(n)}")
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return Graph(n, tuple(edges))


def count_by_bad_edges(g: Graph, colors: int) -> list[int]:
    """Histogram over all colors**n assignments of the number of bad edges.

    The search kernel visits one assignment per class of color renamings;
    one using j colors stands for ``math.perm(colors, j)`` assignments.  No
    assignment has more than m bad edges, so its bound m prunes nothing.
    """
    hist = [0] * (g.m + 1)

    def tally(assign: list[int], bad: int, used: int) -> int:
        hist[bad] += math.perm(colors, used)
        return g.m

    _search(g, colors, RuleMode.UNRESTRICTED, False, range(g.n), g.m, tally, _Budget(DEFAULT_WORK_BUDGET))
    return hist


def count_single_big_class_assignments(n: int, k: int, colors: int) -> int:
    """Assignments of ``colors`` colors to n items using exactly k colors,
    one class of size n-k+1 and all other classes singletons; counted as
    :func:`count_by_bad_edges` counts, on the edgeless graph at bound 0."""
    sizes = [1] * (k - 1) + [n - k + 1]
    total = 0

    def tally(assign: list[int], bad: int, used: int) -> int:
        nonlocal total
        if used == k and sorted(map(assign.count, range(1, k + 1))) == sizes:
            total += math.perm(colors, k)
        return 0

    _search(Graph(n), colors, RuleMode.UNRESTRICTED, False, range(n), 0, tally, _Budget(DEFAULT_WORK_BUDGET))
    return total


def _row(case: str, params: str, claimed: str, computed: str, ok: bool, known: bool = False) -> CheckRow:
    """A check row: a match when ``ok``, else a mismatch, known when the
    claim is a documented disputed one."""
    status = STATUS_MATCH if ok else STATUS_KNOWN_MISMATCH if known else STATUS_MISMATCH
    return CheckRow(case, params, claimed, computed, status)


def _family_row(label: str, name: str, n: int, k: int, check_count: bool = True) -> CheckRow:
    claim = family_claim(name, n, k)
    want_count = check_count and claim.count is not None
    g = FAMILIES[name].build(n)
    if want_count:
        best, count = _count(g, k, RuleMode.ONE_CLASS, True, _Budget(DEFAULT_WORK_BUDGET))
    else:
        best = _minimum(g, k, RuleMode.ONE_CLASS)
    claimed, computed = f"min={claim.min_bad}", f"min={best}"
    # A disputed flag excuses only its own field: known when every wrong field is disputed.
    known = claim.min_bad == best or claim.min_bad_disputed
    if want_count:
        claimed += f" count={claim.count}"
        computed += f" count={count}"
        known = known and (claim.count == count or claim.count_disputed)
    return _row(label, f"n={claim.n} k={claim.k}", claimed, computed, claimed == computed, known)


def family_suite() -> list[CheckRow]:
    """Closed-form family claims versus the exact solver."""
    rows = [_family_row("path", "path", n, 1) for n in range(2, 10)]
    rows += [_family_row("odd-cycle", "cycle", n, 2) for n in (3, 5, 7, 9, 11)]
    for name in ("wheel", "helm"):
        rows += [_family_row(name, name, n, k) for n in range(3, 8) for k in (2, 3) if k == 2 or n % 2]
    # K8 rows check the minimum only: the row text is pinned byte for byte by
    # ``verify --json`` and by the cli-adjudicate golden digest in perfbench.
    rows += [_family_row("complete", "complete", n, k, n <= 7) for n in range(2, 9) for k in range(1, n)]
    return rows


def poly_suite() -> list[CheckRow]:
    """Defect-polynomial formulas versus exhaustive assignment counts."""
    rows: list[CheckRow] = []
    for n in range(3, 9):
        for colors in range(1, 5):
            hist = count_by_bad_edges(cycle(n), colors)
            formula = [cycle_defect_polynomial(n, j, colors) for j in range(n + 1)]
            ok = formula == hist and sum(formula) == colors**n
            params = f"n={n} colors={colors}"
            rows.append(_row("cycle-defect", params, f"counts={formula}", f"counts={hist}", ok))
    for n in (3, 4, 5):
        for k in range(2, n):
            for colors in (k, k + 1):
                formula = complete_defect_polynomial(n, k, colors)
                counted = count_single_big_class_assignments(n, k, colors)
                params = f"n={n} k={k} colors={colors}"
                rows.append(_row("complete-defect", params, str(formula), str(counted), formula == counted))
    return rows


def _slack_row(case: str, params: str, report) -> CheckRow:
    if report.exact is None:
        return CheckRow(case, params, "slack>=0", "exact not computed", STATUS_INFEASIBLE)
    computed = f"bound={report.bound} exact={report.exact} slack={report.slack}"
    return _row(case, params, "slack>=0", computed, report.slack >= 0)


def bounds_suite(seed: int = 0, pairs: int = 20) -> list[CheckRow]:
    """Operation bounds on fixed instances plus seeded random pairs."""
    rows: list[CheckRow] = []
    k3 = complete(3)

    report = join_bound(k3, k3, 2)
    claimed, computed = "bound=6 exact=6", f"bound={report.bound} exact={report.exact}"
    rows.append(_row("join", "3-clique + 3-clique, k=2", claimed, computed, claimed == computed))
    report = join_bound(k3, k3, 5, relaxed=True)
    rows.append(_slack_row("join", "3-clique + 3-clique, k=5 relaxed", report))

    wheel_exact = _minimum(join(complete(1), cycle(4))[0], 2, RuleMode.UNRESTRICTED)
    rows.append(_row("join", "hub + 4-cycle, k=2", "exact=2", f"exact={wheel_exact}", wheel_exact == 2))

    report = union_bound(k3, k3, 2)
    claimed, computed = "bound=2 exact=2", f"bound={report.bound} exact={report.exact}"
    rows.append(_row("union", "3-clique | 3-clique, k=2", claimed, computed, claimed == computed))

    rng = random.Random(seed)
    for i in range(pairs):
        n_left = rng.randint(2, 5)
        n_right = rng.randint(2, min(5, 9 - n_left))
        g = random_connected_graph(rng, n_left)
        h = random_connected_graph(rng, n_right)
        params = f"pair {i}: n={n_left}+{n_right}, k=2"
        rows.append(_slack_row("union", params, union_bound(g, h, 2)))
        rows.append(_slack_row("join", params, join_bound(g, h, 2)))

    for left, right, k in (
        (complete(1), complete(3), 3),
        (cycle(3), complete(1), 2),
        (path(2), complete(1), 1),
    ):
        report = corona_formula(left, right, k)
        rows.append(
            CheckRow(
                "corona",
                f"n={left.n} over n={right.n}, k={k}",
                f"formula={report.bound}",
                f"exact={report.exact} difference={report.slack}",
                STATUS_REPORTED,
            )
        )
    return rows


SUITES = {
    "families": family_suite,
    "polys": poly_suite,
    "bounds": bounds_suite,
}


def run_suites(names: list[str], seed: int = 0) -> list[CheckRow]:
    rows: list[CheckRow] = []
    for name in names:
        if name == "bounds":
            rows.extend(bounds_suite(seed=seed))
        else:
            rows.extend(SUITES[name]())
    return rows


def has_hard_mismatch(rows: list[CheckRow]) -> bool:
    """True when any row failed outside the documented disputed cases."""
    return any(row.status == STATUS_MISMATCH for row in rows)
