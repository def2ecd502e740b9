"""Verification harness binding closed-form claims to the exact search kernel.

Produces tabular check rows consumed by the ``verify`` CLI subcommand and by
the acceptance tests.  Every family row is settled by :func:`solve`, whose
agreement with two independent oracles (full enumeration and a subset
partition DP) is tested.  The polynomial rows count assignments on the same
search kernel, one per class of color renamings, under the same default work
budget.  All randomness is driven by an explicit seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .coloring import RuleMode
from .errors import InvalidParameterError
from .families import (
    FamilyResult,
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
from .graph import Graph, complete, cycle, helm, join, path, wheel
from .solver import DEFAULT_WORK_BUDGET, SolverConfig, _search, solve

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_KNOWN_MISMATCH = "known-mismatch"
STATUS_REPORTED = "reported"
STATUS_INFEASIBLE = "oracle-infeasible"


@dataclass(frozen=True)
class CheckRow:
    case: str
    params: str
    claimed: str
    computed: str
    status: str


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: a random attachment tree plus Bernoulli extras."""
    if n < 1:
        raise InvalidParameterError(f"need at least 1 vertex, got {n}")
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

    _search(g, colors, RuleMode.UNRESTRICTED, False, range(g.n), g.m, tally, DEFAULT_WORK_BUDGET, 0)
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

    _search(Graph(n), colors, RuleMode.UNRESTRICTED, False, range(n), 0, tally, DEFAULT_WORK_BUDGET, 0)
    return total


def _family_row(label: str, claim: FamilyResult, g: Graph, check_count: bool = True) -> CheckRow:
    want_count = check_count and claim.count is not None
    res = solve(g, claim.k, RuleMode.ONE_CLASS, True, SolverConfig(count_optimal=want_count))
    min_bad, count = res.min_bad, res.optimal_count
    mismatch = False
    known = False
    if claim.min_bad != min_bad:
        mismatch = True
        known = known or claim.min_bad_disputed
    claimed = f"min={claim.min_bad}"
    computed = f"min={min_bad}"
    if want_count:
        claimed += f" count={claim.count}"
        computed += f" count={count}"
        if claim.count != count:
            mismatch = True
            known = known or claim.count_disputed
    if not mismatch:
        status = STATUS_MATCH
    elif known:
        status = STATUS_KNOWN_MISMATCH
    else:
        status = STATUS_MISMATCH
    return CheckRow(label, f"n={claim.n} k={claim.k}", claimed, computed, status)


def family_suite() -> list[CheckRow]:
    """Closed-form family claims versus the exact solver."""
    rows: list[CheckRow] = []
    for n in range(2, 10):
        rows.append(_family_row("path", path_formula(n), path(n)))
    for n in (3, 5, 7, 9, 11):
        rows.append(_family_row("odd-cycle", odd_cycle_formula(n), cycle(n)))
    for n in range(3, 8):
        g, _ = wheel(n)
        rows.append(_family_row("wheel", wheel_formula(n, 2), g))
        if n % 2 == 1:
            rows.append(_family_row("wheel", wheel_formula(n, 3), g))
    for n in range(3, 8):
        g, _ = helm(n)
        rows.append(_family_row("helm", helm_formula(n, 2), g))
        if n % 2 == 1:
            rows.append(_family_row("helm", helm_formula(n, 3), g))
    for n in range(2, 9):
        for k in range(1, n):
            # K8 rows check the minimum only: the row text is pinned byte for byte by
            # ``verify --json`` and by the cli-adjudicate golden digest in perfbench.
            rows.append(_family_row("complete", complete_formula(n, k), complete(n), check_count=n <= 7))
    return rows


def poly_suite() -> list[CheckRow]:
    """Defect-polynomial formulas versus exhaustive assignment counts."""
    rows: list[CheckRow] = []
    for n in range(3, 9):
        for colors in range(1, 5):
            hist = count_by_bad_edges(cycle(n), colors)
            formula = [cycle_defect_polynomial(n, j, colors) for j in range(n + 1)]
            ok = formula == hist and sum(formula) == colors**n
            rows.append(
                CheckRow(
                    "cycle-defect",
                    f"n={n} colors={colors}",
                    f"counts={formula}",
                    f"counts={hist}",
                    STATUS_MATCH if ok else STATUS_MISMATCH,
                )
            )
    for n in (3, 4, 5):
        for k in range(2, n):
            for colors in (k, k + 1):
                formula = complete_defect_polynomial(n, k, colors)
                counted = count_single_big_class_assignments(n, k, colors)
                rows.append(
                    CheckRow(
                        "complete-defect",
                        f"n={n} k={k} colors={colors}",
                        str(formula),
                        str(counted),
                        STATUS_MATCH if formula == counted else STATUS_MISMATCH,
                    )
                )
    return rows


def _slack_row(case: str, params: str, report) -> CheckRow:
    if report.exact is None:
        return CheckRow(case, params, "slack>=0", "exact not computed", STATUS_INFEASIBLE)
    ok = report.slack is not None and report.slack >= 0
    return CheckRow(
        case,
        params,
        "slack>=0",
        f"bound={report.bound} exact={report.exact} slack={report.slack}",
        STATUS_MATCH if ok else STATUS_MISMATCH,
    )


def bounds_suite(seed: int = 0, pairs: int = 20) -> list[CheckRow]:
    """Operation bounds on fixed instances plus seeded random pairs."""
    rows: list[CheckRow] = []
    k3 = complete(3)

    report = join_bound(k3, k3, 2)
    ok = report.bound == 6 and report.exact == 6
    rows.append(
        CheckRow(
            "join",
            "3-clique + 3-clique, k=2",
            "bound=6 exact=6",
            f"bound={report.bound} exact={report.exact}",
            STATUS_MATCH if ok else STATUS_MISMATCH,
        )
    )
    report = join_bound(k3, k3, 5, relaxed=True)
    rows.append(_slack_row("join", "3-clique + 3-clique, k=5 relaxed", report))

    wheel_exact = solve(join(complete(1), cycle(4))[0], 2, RuleMode.UNRESTRICTED).min_bad
    rows.append(
        CheckRow(
            "join",
            "hub + 4-cycle, k=2",
            "exact=2",
            f"exact={wheel_exact}",
            STATUS_MATCH if wheel_exact == 2 else STATUS_MISMATCH,
        )
    )

    report = union_bound(k3, k3, 2)
    ok = report.bound == 2 and report.exact == 2
    rows.append(
        CheckRow(
            "union",
            "3-clique | 3-clique, k=2",
            "bound=2 exact=2",
            f"bound={report.bound} exact={report.exact}",
            STATUS_MATCH if ok else STATUS_MISMATCH,
        )
    )

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
