"""Closed-form values for named graph families, defect-polynomial formulas,
and bounds for graph operations (union, join, corona).

Every value here is a published claim that the exact solver can
adjudicate.  Claims known to disagree with exhaustive search carry dispute
flags so the verification harness reports them instead of asserting them;
see the README for the full reconciliation table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .coloring import RuleMode
from .errors import InvalidParameterError, SizeLimitError
from .graph import Graph, corona, disjoint_union, join
from .solver import chromatic_number, minimum_color_usage, optimal_colorings, solve


@dataclass(frozen=True)
class FamilyResult:
    """Closed-form claim for a named family: minimum bad edges and, when
    claimed, the number of optimal colorings.

    ``min_bad_disputed`` / ``count_disputed`` mark claims that exhaustive
    search contradicts; verification reports those rather than asserting
    them.
    """

    family: str
    n: int
    k: int
    min_bad: int
    count: int | None
    min_bad_disputed: bool = False
    count_disputed: bool = False

    def __post_init__(self) -> None:
        if self.min_bad < 0:
            raise InvalidParameterError("minimum bad-edge count cannot be negative")
        if self.count is not None and self.count < 1:
            raise InvalidParameterError("coloring count must be at least 1 when present")


def path_formula(n: int) -> FamilyResult:
    """Single color on a path: every edge is bad, and there is one coloring."""
    if n < 2:
        raise InvalidParameterError(f"a path needs at least 2 vertices, got {n}")
    return FamilyResult("path", n, 1, n - 1, 1)


def odd_cycle_formula(n: int) -> FamilyResult:
    """Two colors on an odd cycle: one bad edge, 2n optimal colorings."""
    if n < 3 or n % 2 == 0:
        raise InvalidParameterError(
            f"two colors sit below the chromatic number only for odd cycles, got n={n}"
        )
    return FamilyResult("cycle", n, 2, 1, 2 * n)


def wheel_formula(n: int, k: int) -> FamilyResult:
    """Published wheel values for k in {2, 3}.

    The odd-rim claims disagree with exhaustive search (both the k=2 value
    and the coloring counts); they are returned with dispute flags.
    """
    if n < 3:
        raise InvalidParameterError(f"a wheel rim needs at least 3 vertices, got {n}")
    if k == 2:
        if n % 2 == 0:
            return FamilyResult("wheel", n, 2, n // 2, 4)
        return FamilyResult(
            "wheel", n, 2, (n + 1) // 2, 4 * n, min_bad_disputed=True, count_disputed=True
        )
    if k == 3:
        if n % 2 == 0:
            raise InvalidParameterError(
                "three colors is not below the chromatic number of an even wheel"
            )
        return FamilyResult("wheel", n, 3, 1, 3 * n, count_disputed=True)
    raise InvalidParameterError(f"no wheel closed form for k={k}")


def helm_formula(n: int, k: int) -> FamilyResult:
    """Published helm values for k in {2, 3}; odd-rim claims carry dispute flags."""
    if n < 3:
        raise InvalidParameterError(f"a helm rim needs at least 3 vertices, got {n}")
    if k == 2:
        if n % 2 == 0:
            return FamilyResult("helm", n, 2, n // 2, 4)
        return FamilyResult(
            "helm", n, 2, (n + 1) // 2, 4 * n, min_bad_disputed=True, count_disputed=True
        )
    if k == 3:
        if n % 2 == 0:
            raise InvalidParameterError(
                "three colors is not below the chromatic number of an even helm"
            )
        return FamilyResult("helm", n, 3, 1, 3 * n * 2**n, count_disputed=True)
    raise InvalidParameterError(f"no helm closed form for k={k}")


def complete_formula(n: int, k: int) -> FamilyResult:
    """Complete graph on n vertices with k < n colors.

    With x = n - k, the forced structure is one class of x+1 vertices plus
    singletons: x(x+1)/2 bad edges and (n-x) * C(n, x+1) * (n-x-1)! optimal
    colorings.
    """
    if n < 2:
        raise InvalidParameterError(f"need at least 2 vertices, got {n}")
    if not 1 <= k <= n - 1:
        raise InvalidParameterError(f"k must lie in 1..{n - 1}, got {k}")
    x = n - k
    count = (n - x) * comb(n, x + 1) * factorial(n - x - 1)
    return FamilyResult("complete", n, k, x * (x + 1) // 2, count)


# ---------------------------------------------------------------------------
# Defect polynomials
# ---------------------------------------------------------------------------

def falling_factorial(x: int, k: int) -> int:
    """x (x-1) (x-2) ... (x-k+1)."""
    if k < 0:
        raise InvalidParameterError(f"falling factorial needs k >= 0, got {k}")
    out = 1
    for i in range(k):
        out *= x - i
    return out


def cycle_defect_polynomial(n: int, bad: int, colors: int) -> int:
    """Number of assignments of ``colors`` colors to an n-cycle with exactly
    ``bad`` bad edges (all assignments compete: no surjectivity, no class rule).

    Closed form: C(n, bad) * ((colors-1)^(n-bad) + (-1)^(n-bad) (colors-1)).
    """
    if n < 3:
        raise InvalidParameterError(f"a cycle needs at least 3 vertices, got {n}")
    if not 0 <= bad <= n:
        raise InvalidParameterError(f"bad-edge count must lie in 0..{n}, got {bad}")
    if colors < 1:
        raise InvalidParameterError(f"need at least 1 color, got {colors}")
    sign = -1 if (n - bad) % 2 else 1
    return comb(n, bad) * ((colors - 1) ** (n - bad) + sign * (colors - 1))


def complete_defect_polynomial(n: int, k: int, colors: int) -> int:
    """Number of assignments of ``colors`` colors to a complete graph on n
    vertices realizing the optimal k-color structure: one class of n-k+1
    vertices, every other used color a singleton.

    Closed form: C(n, n-k+1) * colors * (colors-1) * ... * (colors-k+1).
    """
    if n < 2:
        raise InvalidParameterError(f"need at least 2 vertices, got {n}")
    if not 2 <= k <= n - 1:
        raise InvalidParameterError(f"k must lie in 2..{n - 1}, got {k}")
    if colors < k:
        raise InvalidParameterError(f"need at least k={k} colors, got {colors}")
    return comb(n, n - k + 1) * falling_factorial(colors, k)


def corona_chromatic(chi_g: int, chi_h: int) -> int:
    """Chromatic number of a corona G o H with H non-empty: every copy of H
    plus its base vertex needs chi(H) + 1 colors, and G needs chi(G)."""
    return max(chi_g, chi_h + 1)


# ---------------------------------------------------------------------------
# Operation bounds and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Bound (or formula value) versus exact optimum for a graph operation.

    ``slack = bound - exact``; for the inequality operations (union, join)
    slack is guaranteed non-negative, while the corona report records a
    signed difference without asserting anything about it.  ``exact`` and
    ``slack`` are None when the exact search of the combined graph runs out
    of the solver's work budget.
    """

    op: str
    left: str
    right: str
    k: int
    t: int
    left_min_bad: int
    right_min_bad: int
    cross_term: int | None
    bound: int
    exact: int | None
    slack: int | None


def _color_budget(k: int, chi: int, relaxed: bool) -> int:
    """Budget t for the smaller-chromatic side: t = k while k fits below the
    side's chromatic number, else chi - 1 (floored at one color)."""
    if relaxed:
        return k
    return max(1, min(k, chi - 1))


def _smaller_chromatic_first(
    g: Graph, h: Graph, labels: tuple[str, str]
) -> tuple[Graph, Graph, tuple[str, str], int]:
    """Order the operands so the first has the smaller chromatic number,
    swapping the labels with them; also return that chromatic number."""
    chi_g, chi_h = chromatic_number(g), chromatic_number(h)
    if chi_g > chi_h:
        return h, g, (labels[1], labels[0]), chi_h
    return g, h, labels, chi_g


def _report(
    op: str,
    g: Graph,
    h: Graph,
    k: int,
    t: int,
    rule: RuleMode,
    labels: tuple[str, str],
    cross: int | None,
    combined: Graph,
) -> BoundReport:
    """Solve each side (t colors for g, k for h; surjective only where the
    side has enough vertices), add the cross term, and compare the bound
    with the exact optimum of the combined graph where the work budget
    reaches it."""
    left = solve(g, t, rule, surjective=t <= g.n).min_bad
    right = solve(h, k, rule, surjective=k <= h.n).min_bad
    bound = left + right + (cross or 0)
    try:
        exact = solve(combined, k, rule, surjective=k <= combined.n).min_bad
    except SizeLimitError:
        exact = None
    return BoundReport(
        op=op,
        left=f"{labels[0]}(n={g.n},m={g.m})",
        right=f"{labels[1]}(n={h.n},m={h.m})",
        k=k,
        t=t,
        left_min_bad=left,
        right_min_bad=right,
        cross_term=cross,
        bound=bound,
        exact=exact,
        slack=None if exact is None else bound - exact,
    )


def union_bound(
    g: Graph,
    h: Graph,
    k: int,
    *,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    relaxed: bool = False,
    labels: tuple[str, str] = ("G", "H"),
) -> BoundReport:
    """Additive bound for the disjoint union: color each side optimally on
    its own (t colors for the smaller-chromatic side, k for the other) and
    add the two minima.

    Operands are ordered so g has the smaller chromatic number; t shrinks to
    that side's budget.  The bound corresponds to an actual coloring of the
    union, so slack is always non-negative.
    """
    rule = RuleMode(rule)
    g, h, labels, chi_g = _smaller_chromatic_first(g, h, labels)
    t = _color_budget(k, chi_g, relaxed)
    return _report("union", g, h, k, t, rule, labels, None, disjoint_union(g, h)[0])


def _usage_profiles(g: Graph, k_used: int, k_full: int, rule: RuleMode, surjective: bool):
    """Distinct usage profiles over optimal colorings, zero-padded to k_full."""
    profiles = set()
    for coloring in optimal_colorings(g, k_used, rule, surjective):
        counts = [0] * k_full
        for c in coloring.assignment:
            counts[c - 1] += 1
        profiles.add(tuple(counts))
    return sorted(profiles)


def join_bound(
    g: Graph,
    h: Graph,
    k: int,
    *,
    rule: RuleMode | str = RuleMode.UNRESTRICTED,
    relaxed: bool = False,
    labels: tuple[str, str] = ("G", "H"),
) -> BoundReport:
    """Bound for the join: each side's optimal minimum plus the smallest
    cross term over optimal side colorings.

    The cross term sums, per color, the product of the two sides' usage
    counts; it is minimized over every pair of optimal side colorings.  The
    exact side defaults to the unrestricted rule because the minimizing join
    colorings may let both sides keep a monochromatic adjacency; under that
    default every candidate corresponds to an actual coloring of the join,
    so slack is non-negative.  (With a one-class exact side the combined
    candidates can be inadmissible and the reported slack may go negative.)
    """
    rule = RuleMode(rule)
    if k < 1:
        raise InvalidParameterError(f"color count must be a positive integer, got {k!r}")
    g, h, labels, chi_g = _smaller_chromatic_first(g, h, labels)
    t = _color_budget(k, chi_g, relaxed)
    profiles_g = _usage_profiles(g, t, k, rule, t <= g.n)
    profiles_h = _usage_profiles(h, k, k, rule, k <= h.n)
    cross = min(
        sum(a * b for a, b in zip(pg, ph)) for pg in profiles_g for ph in profiles_h
    )
    return _report("join", g, h, k, t, rule, labels, cross, join(g, h)[0])


def corona_formula(
    g: Graph,
    h: Graph,
    k: int,
    *,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    relaxed: bool = False,
    labels: tuple[str, str] = ("G", "H"),
) -> BoundReport:
    """Corona formula value versus the exact optimum of the corona.

    The formula adds the base graph's optimum (t colors), one copy's optimum
    (k colors), and n_g times the smallest per-color usage over the copy's
    optimal colorings (each copy can be colored so its base vertex's color
    appears that rarely inside it).  It counts the copy term once although
    the corona contains n_g copies, so the report records the signed
    difference and asserts nothing about it.  The corona is asymmetric:
    operands are never swapped.  Its chromatic number comes from
    :func:`corona_chromatic`; with an empty h the corona is g itself.
    """
    rule = RuleMode(rule)
    chi_g = chromatic_number(g)
    chi = corona_chromatic(chi_g, chromatic_number(h)) if h.n else chi_g
    if not 1 <= k < chi:
        raise InvalidParameterError(
            f"k must satisfy 1 <= k < chromatic number of the corona ({chi}), got {k}"
        )
    t = _color_budget(k, chi_g, relaxed)
    cross = g.n * minimum_color_usage(h, k, rule, k <= h.n).value
    return _report("corona", g, h, k, t, rule, labels, cross, corona(g, h)[0])
