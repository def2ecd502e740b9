"""The verification harness: suites, statuses, and seeded reproducibility."""

import random

from nearcolor import RuleMode, complete, cycle, enumerate_oracle, helm, path, wheel
from nearcolor.verify import (
    STATUS_KNOWN_MISMATCH,
    STATUS_MATCH,
    STATUS_MISMATCH,
    STATUS_REPORTED,
    CheckRow,
    bounds_suite,
    count_by_bad_edges,
    family_suite,
    has_hard_mismatch,
    poly_suite,
    random_connected_graph,
)
from partition_oracle import partition_oracle

FAMILY_GRAPHS = {
    "path": path,
    "odd-cycle": cycle,
    "wheel": lambda n: wheel(n)[0],
    "helm": lambda n: helm(n)[0],
    "complete": complete,
}


def test_random_connected_graph_is_connected_and_reproducible():
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        g = random_connected_graph(rng, 8)
        assert g.n == 8
        assert g.is_connected()
        again = random_connected_graph(random.Random(seed), 8)
        assert again.edges == g.edges


def test_count_by_bad_edges_totals_and_minimum_agree_with_oracle():
    g = cycle(5)
    hist = count_by_bad_edges(g, 2)
    assert sum(hist) == 2**5
    res = enumerate_oracle(g, 2, RuleMode.UNRESTRICTED, surjective=False)
    assert hist[res.min_bad] == res.optimal_count
    assert all(count == 0 for count in hist[: res.min_bad])


def test_family_suite_has_no_undocumented_mismatches():
    rows = family_suite()
    assert not has_hard_mismatch(rows)
    statuses = {row.status for row in rows}
    assert statuses == {STATUS_MATCH, STATUS_KNOWN_MISMATCH}
    # the disputed odd-rim wheel and helm claims surface as known mismatches
    disputed = [r for r in rows if r.status == STATUS_KNOWN_MISMATCH]
    assert all(r.case in ("wheel", "helm") for r in disputed)
    assert any(r.params == "n=5 k=2" for r in disputed)


def test_family_rows_agree_with_independent_oracles():
    # Each row's computed text, rebuilt from an oracle that shares no code
    # with solve: the partition DP up to 11 vertices, full enumeration for
    # the 13- and 15-vertex helms at k=2.  The 15-vertex helm at k=3 is
    # beyond both (3**15 assignments); solve alone settles it.
    rows = family_suite()
    checked = 0
    for row in rows:
        n, k = (int(part.split("=")[1]) for part in row.params.split())
        g = FAMILY_GRAPHS[row.case](n)
        if g.n <= 11:
            best, count = partition_oracle(g, k, RuleMode.ONE_CLASS, True)
        elif k == 2:
            res = enumerate_oracle(g, k, RuleMode.ONE_CLASS, True)
            best, count = res.min_bad, res.optimal_count
        else:
            continue
        expect = f"min={best}" + (f" count={count}" if " count=" in row.claimed else "")
        assert row.computed == expect, row
        checked += 1
    assert (len(rows), checked) == (57, 56)


def test_poly_suite_all_match():
    rows = poly_suite()
    assert rows and all(row.status == STATUS_MATCH for row in rows)


def test_bounds_suite_statuses_and_determinism():
    rows = bounds_suite(seed=3, pairs=5)
    assert not has_hard_mismatch(rows)
    assert any(row.status == STATUS_REPORTED for row in rows if row.case == "corona")
    assert rows == bounds_suite(seed=3, pairs=5)


def test_family_suite_is_deterministic():
    assert family_suite() == family_suite()


def test_has_hard_mismatch_logic():
    ok = CheckRow("x", "", "1", "1", STATUS_MATCH)
    known = CheckRow("x", "", "1", "2", STATUS_KNOWN_MISMATCH)
    bad = CheckRow("x", "", "1", "2", STATUS_MISMATCH)
    assert not has_hard_mismatch([ok, known])
    assert has_hard_mismatch([ok, known, bad])
