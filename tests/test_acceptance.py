"""Acceptance suite: closed-form claims, oracle agreement, and operation bounds.

Each check prints one ``[acceptance] ... PASS/FAIL`` verdict line (visible
with ``pytest -s``); a FAIL line carries the measured values.  Two checks
(A02 odd wheels, A04 the odd helm) assert published values that exhaustive
search refutes; they fail by design rather than asserting weakened values.
The README documents the reconciliation table.
"""

import math
import random

from nearcolor import (
    Coloring,
    RuleMode,
    SolverConfig,
    bad_edges,
    chromatic_number,
    complete,
    complete_defect_polynomial,
    corona,
    corona_formula,
    cycle,
    cycle_defect_polynomial,
    enumerate_oracle,
    helm,
    join,
    join_bound,
    k_chromatic_subgraph,
    path,
    solve,
    wheel,
)
from nearcolor.verify import (
    count_by_bad_edges,
    count_single_big_class_assignments,
    random_connected_graph,
)

SEED = 20260810


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)


def _seeded_graphs(count: int = 50) -> list:
    rng = random.Random(SEED)
    return [random_connected_graph(rng, rng.randint(4, 9)) for _ in range(count)]


def test_a01_odd_cycles_one_bad_edge_and_2n_colorings():
    failures = []
    for n in (3, 5, 7, 9, 11):
        res = enumerate_oracle(cycle(n), 2, RuleMode.ONE_CLASS, True)
        if (res.min_bad, res.optimal_count) != (1, 2 * n):
            failures.append(f"n={n}: got ({res.min_bad}, {res.optimal_count})")
    _report("A01 odd cycles, k=2: min_bad=1 and 2n optima", not failures, "; ".join(failures))
    assert not failures


def test_a02_wheels_two_colors():
    failures = []
    for n in (4, 6):
        res = enumerate_oracle(wheel(n)[0], 2, RuleMode.ONE_CLASS, True)
        if (res.min_bad, res.optimal_count) != (n // 2, 4):
            failures.append(f"n={n}: expected ({n // 2}, 4), got ({res.min_bad}, {res.optimal_count})")
    for n in (5, 7):
        g = wheel(n)[0]
        oc = enumerate_oracle(g, 2, RuleMode.ONE_CLASS, True)
        expected = ((n + 1) // 2, 4 * n)
        if (oc.min_bad, oc.optimal_count) != expected:
            ur = enumerate_oracle(g, 2, RuleMode.UNRESTRICTED, True)
            failures.append(
                f"n={n}: expected {expected}, one-class oracle ({oc.min_bad}, {oc.optimal_count}), "
                f"unrestricted oracle ({ur.min_bad}, {ur.optimal_count})"
            )
    _report("A02 wheels, k=2: even (n/2, 4); odd (ceil(n/2), 4n)", not failures, "; ".join(failures))
    assert not failures, "exhaustive search refutes the published odd-wheel values"


def test_a03_wheels_three_colors():
    failures = []
    notes = []
    for n in (5, 7):
        res = enumerate_oracle(wheel(n)[0], 3, RuleMode.ONE_CLASS, True)
        if res.min_bad != 1:
            failures.append(f"n={n}: min_bad={res.min_bad}")
        status = "match" if res.optimal_count == 3 * n else "mismatch (recorded, not asserted)"
        notes.append(f"n={n}: count={res.optimal_count} vs claimed {3 * n} -> {status}")
    _report("A03 wheels, k=3: min_bad=1; count recorded vs 3n", not failures, "; ".join(failures + notes))
    assert not failures


def test_a04_helms():
    failures = []
    notes = []
    for n, expected in ((4, (2, 4)), (6, (3, 4)), (5, (3, 20))):
        g = helm(n)[0]
        oc = enumerate_oracle(g, 2, RuleMode.ONE_CLASS, True)
        if (oc.min_bad, oc.optimal_count) != expected:
            ur = enumerate_oracle(g, 2, RuleMode.UNRESTRICTED, True)
            failures.append(
                f"n={n} k=2: expected {expected}, one-class oracle ({oc.min_bad}, {oc.optimal_count}), "
                f"unrestricted oracle ({ur.min_bad}, {ur.optimal_count})"
            )
    res = solve(helm(3)[0], 3, RuleMode.ONE_CLASS, True, SolverConfig(count_optimal=True))
    if res.min_bad != 1:
        failures.append(f"n=3 k=3: min_bad={res.min_bad}")
    claimed = 3 * 3 * 2**3
    status = "match" if res.optimal_count == claimed else "mismatch (recorded, not asserted)"
    notes.append(f"n=3 k=3: count={res.optimal_count} vs claimed {claimed} -> {status}")
    _report("A04 helms: k=2 values; k=3 min_bad=1 with count recorded", not failures, "; ".join(failures + notes))
    assert not failures, "exhaustive search refutes the published odd-helm values"


def test_a05_complete_graphs_all_budgets():
    failures = []
    for n in range(2, 8):
        g = complete(n)
        for k in range(1, n):
            x = n - k
            expected = (x * (x + 1) // 2, (n - x) * math.comb(n, x + 1) * math.factorial(n - x - 1))
            res = enumerate_oracle(g, k, RuleMode.ONE_CLASS, True)
            if (res.min_bad, res.optimal_count) != expected:
                failures.append(f"n={n} k={k}: expected {expected}, got ({res.min_bad}, {res.optimal_count})")
    _report("A05 complete graphs, all k: x(x+1)/2 and the clique-count formula", not failures, "; ".join(failures))
    assert not failures


def test_a06_cycle_defect_polynomial_vs_enumeration():
    failures = []
    for n in range(3, 9):
        for colors in range(1, 5):
            hist = count_by_bad_edges(cycle(n), colors)
            formula = [cycle_defect_polynomial(n, j, colors) for j in range(n + 1)]
            if formula != hist:
                failures.append(f"n={n} colors={colors}: {formula} != {hist}")
    for n in (3, 5, 7, 9, 11):
        if cycle_defect_polynomial(n, 1, 2) != 2 * n:
            failures.append(f"n={n}: one-bad-edge value != 2n")
        if count_by_bad_edges(cycle(n), 2)[1] != 2 * n:
            failures.append(f"n={n}: enumeration disagrees with 2n")
    _report("A06 cycle defect counts match exhaustive enumeration", not failures, "; ".join(failures))
    assert not failures


def test_a07_complete_defect_polynomial():
    failures = []
    for n in (3, 4, 5):
        for k in range(2, n):
            for colors in (k, k + 1):
                formula = complete_defect_polynomial(n, k, colors)
                counted = count_single_big_class_assignments(n, k, colors)
                if formula != counted:
                    failures.append(f"n={n} k={k} colors={colors}: {formula} != {counted}")
                x = n - k
                product_form = (
                    math.comb(colors, k) * (n - x) * math.comb(n, x + 1) * math.factorial(n - x - 1)
                )
                closed_form = math.comb(n, n - k + 1) * math.perm(colors, k)
                if product_form != closed_form:
                    failures.append(f"n={n} k={k} colors={colors}: product {product_form} != closed {closed_form}")
    _report("A07 complete-graph defect counts and product identity", not failures, "; ".join(failures))
    assert not failures


def test_a08_solver_equals_oracle_on_seeded_instances():
    failures = []
    for i, g in enumerate(_seeded_graphs(50)):
        for k in (1, 2, 3):
            for rule in RuleMode:
                o = enumerate_oracle(g, k, rule, True)
                s = solve(g, k, rule, True, SolverConfig(count_optimal=True))
                if (o.min_bad, o.optimal_count, o.witness) != (s.min_bad, s.optimal_count, s.witness):
                    failures.append(f"graph {i} (n={g.n}) k={k} {rule.value}")
    _report("A08 branch-and-bound equals oracle on 50 seeded graphs", not failures, "; ".join(failures))
    assert not failures


def test_a09_invariant_suite_on_seeded_instances():
    failures = []
    rng = random.Random(SEED + 1)
    for i, g in enumerate(_seeded_graphs(50)):
        if solve(g, 1).min_bad != g.m:
            failures.append(f"graph {i}: single-color minimum != m")
        chi = chromatic_number(g)
        chain = [solve(g, k).min_bad for k in range(1, chi + 1)]
        if any(a < b for a, b in zip(chain, chain[1:])):
            failures.append(f"graph {i}: min_bad not monotone in k ({chain})")
        if chain[-1] != 0:
            failures.append(f"graph {i}: k = chromatic number should give 0 bad edges")
        for k in (2, 3):
            restricted = solve(g, k, RuleMode.ONE_CLASS).min_bad
            free = solve(g, k, RuleMode.UNRESTRICTED).min_bad
            if restricted < free:
                failures.append(f"graph {i} k={k}: one-class minimum below unrestricted")
        k = rng.randint(1, 3)
        assignment = tuple(rng.randint(1, k) for _ in range(g.n))
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        before = bad_edges(g, Coloring(assignment, k)).count
        after = bad_edges(g, Coloring(tuple(perm[c - 1] for c in assignment), k)).count
        if before != after:
            failures.append(f"graph {i}: bad-edge count changed under color permutation")
    _report("A09 invariants: b(1)=m, monotone, rule dominance, proper at chi, permutation", not failures, "; ".join(failures))
    assert not failures


def test_a10_join_bound_and_worked_example():
    failures = []
    k6, _ = join(complete(3), complete(3))
    exact = enumerate_oracle(k6, 2, RuleMode.UNRESTRICTED, True).min_bad
    if exact != 6:
        failures.append(f"two joined triangles, k=2: exact={exact}")
    report = join_bound(complete(3), complete(3), 2)
    if (report.bound, report.exact) != (6, 6):
        failures.append(f"join bound/exact = ({report.bound}, {report.exact})")
    rng = random.Random(SEED + 2)
    for i in range(20):
        n_left = rng.randint(2, 5)
        g = random_connected_graph(rng, n_left)
        h = random_connected_graph(rng, rng.randint(2, min(5, 9 - n_left)))
        rep = join_bound(g, h, 2)
        if rep.slack is None or rep.slack < 0:
            failures.append(f"pair {i}: slack={rep.slack}")
    hub_wheel, _ = join(complete(1), cycle(4))
    wheel_exact = enumerate_oracle(hub_wheel, 2, RuleMode.UNRESTRICTED, True).min_bad
    if wheel_exact != 2:
        failures.append(f"hub joined to a 4-cycle: exact={wheel_exact}")
    _report("A10 join: worked value 6, slack >= 0 on 20 pairs, wheel case 2", not failures, "; ".join(failures))
    assert not failures


def test_a11_corona_reports():
    failures = []
    notes = []
    cases = [
        (complete(1), complete(3), 3, 1),
        (cycle(3), complete(1), 2, None),
        (path(2), complete(1), 1, 3),
    ]
    for g, h, k, expected in cases:
        report = corona_formula(g, h, k)
        oracle = enumerate_oracle(corona(g, h)[0], k, RuleMode.ONE_CLASS, True).min_bad
        if report.exact != oracle:
            failures.append(f"k={k}: report exact {report.exact} != oracle {oracle}")
        if expected is not None and report.exact != expected:
            failures.append(f"k={k}: exact {report.exact} != {expected}")
        if report.slack is None:
            failures.append(f"k={k}: difference not emitted")
        notes.append(f"k={k}: formula={report.bound} exact={report.exact} difference={report.slack}")
    _report("A11 corona: oracle-exact values with emitted differences", not failures, "; ".join(failures + notes))
    assert not failures


def test_a12_subgraph_extraction_reaches_target_chromatic():
    failures = []
    instances = [
        (cycle(5), 2),
        (cycle(7), 2),
        (complete(5), 4),
        (complete(5), 3),
        (wheel(5)[0], 3),
    ]
    for g, k in instances:
        res = k_chromatic_subgraph(g, k)
        if res.chromatic > k:
            failures.append(f"(n={g.n}, k={k}): chromatic {res.chromatic} exceeds k")
        if res.chromatic != k:
            failures.append(f"(n={g.n}, k={k}): chromatic {res.chromatic} != k")
    _report("A12 cover removal leaves a subgraph of chromatic number k", not failures, "; ".join(failures))
    assert not failures
