"""Closed-form family values, defect polynomials, and operation bounds."""

import math
import random
import sys
import tracemalloc

import pytest

from nearcolor import (
    Graph,
    InvalidParameterError,
    RuleMode,
    SizeLimitError,
    chromatic_number,
    complete,
    complete_defect_polynomial,
    complete_formula,
    corona,
    corona_chromatic,
    corona_formula,
    cycle,
    cycle_defect_polynomial,
    disjoint_union,
    enumerate_oracle,
    helm_formula,
    join_bound,
    odd_cycle_formula,
    optimal_colorings,
    path,
    path_formula,
    solve,
    union_bound,
    wheel_formula,
)
from nearcolor import solver
from nearcolor.errors import _excerpt
from nearcolor.families import parse_family_spec
from nearcolor.solver import _class_sizes
from nearcolor.verify import count_by_bad_edges, random_connected_graph
from test_solver import random_graph


def test_long_integers_are_excerpted_under_the_int_str_digit_limit():
    # Library callers keep CPython's limit on int/str conversion (4300 digits
    # by default); a complete:<3,000 digits> spec has a 6,000-digit edge count.
    values = [0, -7, True, 10**59, -(10**58), 10**60, -(10**59), 3**5000, -(7**9000)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        texts = [str(v) for v in values]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert [_excerpt(v) for v in values] == [t if len(t) <= 60 else f"{t[:28]}...{t[-28:]}" for t in texts]
    with pytest.raises(InvalidParameterError, match="over the limit") as exc:
        parse_family_spec("complete:" + "9" * 3000)
    assert len(str(exc.value)) < 300


def test_path_formula():
    assert (path_formula(2).min_bad, path_formula(2).count) == (1, 1)
    assert path_formula(5).min_bad == 4
    assert path_formula(9).min_bad == enumerate_oracle(path(9), 1).min_bad
    with pytest.raises(InvalidParameterError):
        path_formula(1)


def test_odd_cycle_formula():
    assert (odd_cycle_formula(3).min_bad, odd_cycle_formula(3).count) == (1, 6)
    assert (odd_cycle_formula(9).min_bad, odd_cycle_formula(9).count) == (1, 18)
    oracle = enumerate_oracle(cycle(5), 2, RuleMode.ONE_CLASS, True)
    assert (oracle.min_bad, oracle.optimal_count) == (1, 10)
    with pytest.raises(InvalidParameterError):
        odd_cycle_formula(6)


def test_wheel_formula_values_and_dispute_flags():
    assert (wheel_formula(4, 2).min_bad, wheel_formula(4, 2).count) == (2, 4)
    assert not wheel_formula(4, 2).min_bad_disputed
    odd = wheel_formula(5, 2)
    assert (odd.min_bad, odd.count) == (3, 20)
    assert odd.min_bad_disputed and odd.count_disputed
    three = wheel_formula(5, 3)
    assert (three.min_bad, three.count) == (1, 15)
    assert three.count_disputed and not three.min_bad_disputed
    with pytest.raises(InvalidParameterError):
        wheel_formula(4, 3)  # an even wheel is 3-chromatic, so k=3 is not below it
    with pytest.raises(InvalidParameterError):
        wheel_formula(5, 4)


def test_helm_formula_values():
    assert (helm_formula(4, 2).min_bad, helm_formula(4, 2).count) == (2, 4)
    assert (helm_formula(5, 2).min_bad, helm_formula(5, 2).count) == (3, 20)
    assert helm_formula(5, 2).count_disputed
    assert (helm_formula(3, 3).min_bad, helm_formula(3, 3).count) == (1, 72)
    with pytest.raises(InvalidParameterError):
        helm_formula(4, 3)


def test_complete_formula_matches_oracle():
    assert (complete_formula(5, 4).min_bad, complete_formula(5, 4).count) == (1, 240)
    assert (complete_formula(4, 2).min_bad, complete_formula(4, 2).count) == (3, 8)
    assert (complete_formula(2, 1).min_bad, complete_formula(2, 1).count) == (1, 1)
    oracle = enumerate_oracle(complete(4), 2, RuleMode.ONE_CLASS, True)
    assert (oracle.min_bad, oracle.optimal_count) == (3, 8)
    with pytest.raises(InvalidParameterError):
        complete_formula(4, 4)


def test_complete_formula_count_matches_branch_and_bound_counting():
    from nearcolor import count_optimal

    for n in range(2, 8):
        for k in range(1, n):
            claim = complete_formula(n, k)
            assert count_optimal(complete(n), k, RuleMode.ONE_CLASS, True) == claim.count


# --- defect polynomials ---------------------------------------------------

def test_count_by_bad_edges_hand_check_on_triangle():
    # 2^3 assignments of a triangle: six have one bad edge, two have three.
    assert count_by_bad_edges(cycle(3), 2) == [0, 6, 0, 2]


def test_cycle_defect_polynomial_examples():
    for n in (3, 5, 7, 9, 11):
        assert cycle_defect_polynomial(n, 1, 2) == 2 * n
    assert cycle_defect_polynomial(3, 0, 3) == 6
    assert cycle_defect_polynomial(4, 4, 1) == 1
    with pytest.raises(InvalidParameterError):
        cycle_defect_polynomial(2, 0, 2)
    with pytest.raises(InvalidParameterError):
        cycle_defect_polynomial(5, 6, 2)


def test_cycle_defect_polynomial_matches_enumeration():
    for n in range(3, 7):
        for colors in range(1, 5):
            hist = count_by_bad_edges(cycle(n), colors)
            assert [cycle_defect_polynomial(n, j, colors) for j in range(n + 1)] == hist
            assert sum(hist) == colors**n
            # zero bad edges means proper: the classic cycle count
            assert hist[0] == (colors - 1) ** n + (-1) ** n * (colors - 1)


def test_complete_defect_polynomial_examples():
    assert complete_defect_polynomial(4, 3, 3) == 36
    assert complete_defect_polynomial(5, 4, 4) == 240
    assert complete_defect_polynomial(3, 2, 2) == 6
    with pytest.raises(InvalidParameterError):
        complete_defect_polynomial(4, 3, 2)


def test_complete_defect_polynomial_product_identity():
    # choosing the color subset first and scaling the fixed-palette count
    # gives the same integer as the falling-factorial closed form
    for n in (3, 4, 5, 6):
        for k in range(2, n):
            for colors in (k, k + 1, k + 2):
                x = n - k
                subset_form = (
                    math.comb(colors, k)
                    * (n - x)
                    * math.comb(n, x + 1)
                    * math.factorial(n - x - 1)
                )
                closed_form = math.comb(n, n - k + 1) * math.perm(colors, k)
                assert subset_form == closed_form


# --- operation bounds -----------------------------------------------------

def test_union_bound_examples():
    report = union_bound(complete(3), complete(3), 2)
    assert (report.bound, report.exact, report.slack) == (2, 2, 0)
    report = union_bound(path(3), complete(3), 2)
    assert (report.t, report.bound, report.exact, report.slack) == (1, 3, 1, 2)
    report = union_bound(cycle(5), cycle(5), 2)
    assert (report.bound, report.exact) == (2, 2)
    report = union_bound(complete(9), complete(8), 3)
    assert (report.bound, report.exact, report.slack) == (36, 36, 0)


def test_union_bound_orders_operands_by_chromatic_number():
    a = union_bound(path(3), complete(3), 2)
    b = union_bound(complete(3), path(3), 2)
    assert (a.t, a.bound, a.exact) == (b.t, b.bound, b.exact)


@pytest.mark.parametrize("bound", [union_bound, join_bound])
@pytest.mark.parametrize("k", [0, -1])
def test_operation_bounds_reject_color_counts_below_one(bound, k):
    with pytest.raises(InvalidParameterError, match="positive integer"):
        bound(path(2), path(2), k)


def test_join_bound_worked_example():
    report = join_bound(complete(3), complete(3), 2)
    assert (report.left_min_bad, report.right_min_bad, report.cross_term) == (1, 1, 4)
    assert (report.bound, report.exact, report.slack) == (6, 6, 0)


def test_join_bound_relaxed_color_set():
    report = join_bound(complete(3), complete(3), 5, relaxed=True)
    assert report.exact == 1
    assert report.slack is not None and report.slack >= 0


def test_join_bound_slack_nonnegative_on_seeded_pairs():
    rng = random.Random(123)
    for _ in range(10):
        n_left = rng.randint(2, 4)
        g = random_connected_graph(rng, n_left)
        h = random_connected_graph(rng, rng.randint(2, min(4, 9 - n_left)))
        report = join_bound(g, h, 2)
        assert report.slack is not None and report.slack >= 0


def test_join_bound_reads_class_sizes_not_labelled_optima():
    # K3's optima at 9 colors leave 6 colors unused, so each canonical
    # optimum stands for 9!/6! labelled ones; reading sizes builds none.
    tracemalloc.start()
    try:
        report = join_bound(complete(3), complete(9), 9, relaxed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.cross_term, report.bound, report.exact) == (3, 3, 3)
    assert peak < 2**20


def _labelled_profiles(g, colors, k, rule):
    """Usage counts, zero-padded to k, of every labelled optimal coloring."""
    profiles = set()
    for coloring in optimal_colorings(g, colors, rule, colors <= g.n):
        counts = [0] * k
        for c in coloring.assignment:
            counts[c - 1] += 1
        profiles.add(tuple(counts))
    return profiles


def _random_graph(rng, n):
    p = rng.choice([0.0, 0.3, 0.6, 1.0])
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def test_cross_terms_match_labelled_optima_on_seeded_pairs():
    rng = random.Random(13)
    checked = {"join": 0, "corona": 0}
    for _ in range(40):
        g, h = _random_graph(rng, rng.randint(1, 5)), _random_graph(rng, rng.randint(1, 5))
        chi_g, chi_h = chromatic_number(g), chromatic_number(h)
        # The corona's cross term depends on the base only through its order;
        # a base of at most 2 vertices keeps the exact search of the corona small.
        base = _random_graph(rng, rng.randint(1, 2))
        chi_base = chromatic_number(base)
        for k in range(1, 5):
            for rule in RuleMode:
                for relaxed in (False, True):
                    report = join_bound(g, h, k, rule=rule, relaxed=relaxed)
                    small, big = (h, g) if chi_g > chi_h else (g, h)
                    want = min(
                        sum(a * b for a, b in zip(p, q))
                        for p in _labelled_profiles(small, report.t, k, rule)
                        for q in _labelled_profiles(big, k, k, rule)
                    )
                    assert report.cross_term == want, (g, h, k, rule, relaxed)
                    checked["join"] += 1
                    if k >= corona_chromatic(chi_base, chi_h):
                        continue
                    report = corona_formula(base, h, k, rule=rule, relaxed=relaxed)
                    want = min(min(p) for p in _labelled_profiles(h, k, k, rule)) * base.n
                    assert report.cross_term == want, (base, h, k, rule, relaxed)
                    checked["corona"] += 1
    assert min(checked.values()) > 200


def _disconnected_graph(rng):
    """2-3 parts of 1-3 vertices each, densely joined within, labels shuffled."""
    edges, n = [], 0
    for _ in range(rng.randint(2, 3)):
        size, p = rng.randint(1, 3), rng.choice([0.5, 1.0])
        edges += [(n + u, n + v) for u in range(size) for v in range(u + 1, size) if rng.random() < p]
        n += size
    label = rng.sample(range(n), n)
    return Graph(n, tuple((label[u], label[v]) for u, v in edges))


def test_class_sizes_of_disconnected_operands_match_labelled_optima():
    # Each component's census is merged over the namings of its colors, the
    # dirty classes on one shared color; an isolated vertex is one class of 1.
    rng = random.Random(17)
    graphs = [_disconnected_graph(rng) for _ in range(60)]
    graphs += [disjoint_union(complete(3), complete(3))[0], disjoint_union(complete(4), Graph(2))[0]]
    shared_dirty = 0  # one-class cases with two or more components that hold bad edges
    for g in graphs:
        parts = [g.induced_subgraph(part)[0] for part in g.components()]
        assert len(parts) >= 2
        for k in range(1, 5):
            for rule in RuleMode:
                best, sizes = _class_sizes(g, k, rule)
                assert best == solve(g, k, rule, k <= g.n).min_bad
                assert sizes == {tuple(sorted(p)) for p in _labelled_profiles(g, k, k, rule)}, (g, k, rule)
                if rule is RuleMode.ONE_CLASS:
                    shared_dirty += sum(solve(h, k, rule, False).min_bad > 0 for h in parts) > 1
    assert shared_dirty > 20


def test_class_sizes_of_a_16_16_union_fit_a_small_work_budget(monkeypatch):
    # The census makes 1,932 (one-class) and 6,114 (unrestricted) placements
    # and the merge makes 263 and 294 states, where a walk over the product of
    # the two components' optima made 990,478 and 1,235,638 placements.
    u, _ = disjoint_union(random_graph(1), random_graph(2))
    for rule, ceiling in ((RuleMode.ONE_CLASS, 2195), (RuleMode.UNRESTRICTED, 6408)):
        monkeypatch.setattr(solver, "DEFAULT_WORK_BUDGET", ceiling)
        best, sizes = _class_sizes(u, 3, rule)
        assert (best, len(sizes)) == (2, 17)
        monkeypatch.setattr(solver, "DEFAULT_WORK_BUDGET", ceiling - 1)
        with pytest.raises(SizeLimitError, match=f"exceeds its work budget of {ceiling - 1} candidate placements"):
            _class_sizes(u, 3, rule)


def test_bound_reports_run_no_witness_walk(searches):
    # The reports read only minima and class sizes, never a witness.
    g, h = disjoint_union(path(3), complete(3))[0], cycle(5)
    for rule in RuleMode:
        for report in (union_bound(g, h, 2, rule=rule), join_bound(g, h, 2, rule=rule),
                       corona_formula(path(2), h, 2, rule=rule)):
            assert report.exact is not None
    assert {phase for phase, _ in searches} == {"bound phase", "chromatic", "census"}


def test_corona_formula_reports():
    report = corona_formula(complete(1), complete(3), 3)
    assert (report.bound, report.exact, report.slack) == (1, 1, 0)
    report = corona_formula(cycle(3), complete(1), 2)
    assert report.exact == solve(corona(cycle(3), complete(1))[0], 2).min_bad
    assert report.slack == report.bound - report.exact
    report = corona_formula(path(2), complete(1), 1)
    assert (report.bound, report.exact) == (3, 3)
    report = corona_formula(path(3), Graph(0), 1)  # an empty H leaves the corona equal to G
    assert (report.bound, report.exact, report.slack) == (2, 2, 0)
    report = corona_formula(path(5), path(4), 2)
    assert (report.bound, report.exact, report.slack) == (14, 12, 2)
    report = corona_formula(cycle(7), complete(3), 3)  # its exact search runs over the work budget
    assert (report.bound, report.exact, report.slack) == (8, None, None)
    # No witness walk follows the exact search's bound phase, so this one fits the budget.
    report = corona_formula(cycle(5), cycle(5), 3)
    assert (report.bound, report.exact, report.slack) == (6, 5, 1)
    with pytest.raises(InvalidParameterError):
        corona_formula(cycle(3), complete(1), 3)  # k must stay below the corona's chromatic number
    with pytest.raises(InvalidParameterError):
        corona_formula(path(6), complete(3), 4)  # 24 vertices, chromatic number 4


def test_corona_chromatic_cases_match_construction():
    pairs = [
        (complete(1), complete(3)),
        (cycle(3), complete(1)),
        (path(2), complete(1)),
        (cycle(4), complete(1)),
        (complete(3), complete(3)),
        (path(3), cycle(5)),
    ]
    for g, h in pairs:
        expected = corona_chromatic(chromatic_number(g), chromatic_number(h))
        assert chromatic_number(corona(g, h)[0]) == expected
