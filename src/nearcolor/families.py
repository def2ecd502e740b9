"""Closed-form values for named graph families, defect-polynomial formulas,
and bounds for graph operations (union, join, corona).

``FAMILIES`` and ``OPERATIONS`` are the one table of what a family spec
may name: each entry's graph builder, size and claim or bound.
``parse_family_spec``, ``family_claim`` and ``verify``'s family rows all
read them.

Every value here is a published claim that the exact solver can
adjudicate.  Claims known to disagree with exhaustive search carry dispute
flags so the verification harness reports them instead of asserting them;
see the README for the full reconciliation table.
"""

from __future__ import annotations

from math import comb, factorial, perm
from typing import Callable, NamedTuple

from ._record import Record
from .coloring import RuleMode
from .errors import InvalidParameterError, SizeLimitError, _excerpt
from .graph import MAX_VERTICES, Graph, complete, corona, cycle, disjoint_union, helm, join, path, wheel
from .solver import _class_sizes, _minimum, chromatic_number


class FamilyResult(Record):
    """Closed-form claim for a named family: minimum bad edges and, when
    claimed, the number of optimal colorings.

    ``min_bad_disputed`` / ``count_disputed`` mark claims that exhaustive
    search contradicts; verification reports those rather than asserting
    them.
    """

    __slots__ = _fields = ("family", "n", "k", "min_bad", "count", "min_bad_disputed", "count_disputed")
    family: str
    n: int
    k: int
    min_bad: int
    count: int | None
    min_bad_disputed: bool
    count_disputed: bool

    def __init__(
        self,
        family: str,
        n: int,
        k: int,
        min_bad: int,
        count: int | None,
        min_bad_disputed: bool = False,
        count_disputed: bool = False,
    ) -> None:
        if min_bad < 0:
            raise InvalidParameterError("minimum bad-edge count cannot be negative")
        if count is not None and count < 1:
            raise InvalidParameterError("coloring count must be at least 1 when present")
        self._set(
            family=family, n=n, k=k, min_bad=min_bad, count=count,
            min_bad_disputed=min_bad_disputed, count_disputed=count_disputed,
        )


def path_formula(n: int) -> FamilyResult:
    """Single color on a path: every edge is bad, and there is one coloring."""
    if n < 2:
        raise InvalidParameterError(f"a path needs at least 2 vertices, got {_excerpt(n)}")
    return FamilyResult("path", n, 1, n - 1, 1)


def odd_cycle_formula(n: int) -> FamilyResult:
    """Two colors on an odd cycle: one bad edge, 2n optimal colorings."""
    if n < 3 or n % 2 == 0:
        raise InvalidParameterError(
            f"two colors sit below the chromatic number only for odd cycles, got n={_excerpt(n)}"
        )
    return FamilyResult("cycle", n, 2, 1, 2 * n)


def _rim_formula(family: str, n: int, k: int) -> FamilyResult:
    """Published values for a wheel or a helm with an n-cycle rim, k in {2, 3}.

    The two families share every value except the odd-rim k=3 count, which
    gains a factor 2^n from the helm's pendants.  The odd-rim claims
    disagree with exhaustive search (both the k=2 value and the coloring
    counts); they are returned with dispute flags.
    """
    if n < 3:
        raise InvalidParameterError(f"a {family} rim needs at least 3 vertices, got {_excerpt(n)}")
    if k == 2:
        if n % 2 == 0:
            return FamilyResult(family, n, 2, n // 2, 4)
        return FamilyResult(
            family, n, 2, (n + 1) // 2, 4 * n, min_bad_disputed=True, count_disputed=True
        )
    if k == 3:
        if n % 2 == 0:
            raise InvalidParameterError(
                f"three colors is not below the chromatic number of an even {family}"
            )
        count = 3 * n * 2**n if family == "helm" else 3 * n
        return FamilyResult(family, n, 3, 1, count, count_disputed=True)
    raise InvalidParameterError(f"no {family} closed form for k={_excerpt(k)}")


def wheel_formula(n: int, k: int) -> FamilyResult:
    """Published wheel values for k in {2, 3}; odd-rim claims carry dispute flags."""
    return _rim_formula("wheel", n, k)


def helm_formula(n: int, k: int) -> FamilyResult:
    """Published helm values for k in {2, 3}; odd-rim claims carry dispute flags."""
    return _rim_formula("helm", n, k)


def complete_formula(n: int, k: int) -> FamilyResult:
    """Complete graph on n vertices with k < n colors.

    With x = n - k, the forced structure is one class of x+1 vertices plus
    singletons: x(x+1)/2 bad edges and (n-x) * C(n, x+1) * (n-x-1)! optimal
    colorings.
    """
    if n < 2:
        raise InvalidParameterError(f"need at least 2 vertices, got {_excerpt(n)}")
    if not 1 <= k <= n - 1:
        raise InvalidParameterError(f"k must lie in 1..{_excerpt(n - 1)}, got {_excerpt(k)}")
    x = n - k
    count = (n - x) * comb(n, x + 1) * factorial(n - x - 1)
    return FamilyResult("complete", n, k, x * (x + 1) // 2, count)


class Family(NamedTuple):
    """A named family, written ``name:n`` in a family spec: its builder, the
    ``(n, m)`` of ``build(n)`` without building it, its closed-form claim
    for k colors and the one k that claim is for (None: any k)."""

    build: Callable[[int], Graph]
    size: Callable[[int], tuple[int, int]]
    claim: Callable[[int, int], FamilyResult]
    k: int | None = None


FAMILIES = {
    "path": Family(path, lambda n: (n, n - 1), lambda n, k: path_formula(n), 1),
    "cycle": Family(cycle, lambda n: (n, n), lambda n, k: odd_cycle_formula(n), 2),
    "wheel": Family(lambda n: wheel(n)[0], lambda n: (n + 1, 2 * n), wheel_formula),
    "helm": Family(lambda n: helm(n)[0], lambda n: (2 * n + 1, 3 * n), helm_formula),
    "complete": Family(complete, lambda n: (n, n * (n - 1) // 2), complete_formula),
}


def split_spec(spec: str) -> tuple[str, int]:
    """Split ``name:n`` into a name of :data:`FAMILIES` and the integer n."""
    name, sep, arg = spec.partition(":")
    if name not in FAMILIES:
        known = ", ".join(FAMILIES)
        raise InvalidParameterError(
            f"unknown family {_excerpt(name)} in {_excerpt(spec)} (expected one of {known}, as name:n)"
        )
    if not sep:
        raise InvalidParameterError(f"expected name:n, got {_excerpt(spec)}")
    try:
        return name, int(arg)
    except ValueError:
        raise InvalidParameterError(f"family parameter must be an integer, got {_excerpt(arg)}")


def _refuse_over_limit(spec: str, vertices: int, edges: int) -> None:
    """Refuse a spec whose graph would have more than ``graph.MAX_VERTICES``
    vertices or edges, before anything is built or evaluated."""
    if max(vertices, edges) > MAX_VERTICES:
        raise InvalidParameterError(
            f"family spec {_excerpt(spec)} makes {_excerpt(vertices)} vertices"
            f" and {_excerpt(edges)} edges, over the limit of {MAX_VERTICES}"
        )


def _split_within_limit(spec: str) -> tuple[str, int]:
    """``split_spec``, under the size limit of ``parse_family_spec``: the
    closed forms of ``family`` and ``poly`` grow with the graph they describe."""
    name, n = split_spec(spec)
    _refuse_over_limit(spec, *FAMILIES[name].size(max(n, 0)))
    return name, n


def family_claim(name: str, n: int, k: int | None = None) -> FamilyResult:
    """The closed-form claim of family ``name`` for parameter n and k colors;
    k defaults to the color count the claim is for (path 1, cycle 2)."""
    family = FAMILIES[name]
    k = family.k if k is None else k
    if k is None:
        raise InvalidParameterError(f"k is required for family {name!r}")
    if family.k not in (None, k):
        raise InvalidParameterError(f"the {name} closed form is for k={family.k}")
    return family.claim(n, k)


def parse_family_spec(spec: str) -> Graph:
    """Build the graph of ``name:n`` or ``op(name:n,name:n)`` (one nesting level).

    Its vertex and edge counts are worked out from the parameters first, and
    a spec whose graph would have more than ``graph.MAX_VERTICES`` of either is
    rejected before anything is built.
    """
    spec = spec.strip()
    name, paren, inner = spec.partition("(")
    op = OPERATIONS.get(name) if paren and inner.endswith(")") else None
    parts = inner[:-1].split(",") if op else [spec]
    if op and len(parts) != 2:
        raise InvalidParameterError(f"{name}(...) takes exactly two operands, got {_excerpt(spec)}")
    operands = [split_spec(part.strip()) for part in parts]
    sizes = [FAMILIES[f].size(max(n, 0)) for f, n in operands]
    _refuse_over_limit(spec, *(op.size(*sizes) if op else sizes[0]))
    graphs = [FAMILIES[f].build(n) for f, n in operands]
    return op.build(*graphs)[0] if op else graphs[0]


# ---------------------------------------------------------------------------
# Defect polynomials
# ---------------------------------------------------------------------------

# Decimal digits a defect-polynomial value or a printed count may have: printing
# one of 10^5 digits takes about 0.3 s, and the time grows with the square of the digits.
MAX_POLY_DIGITS = 10**5


def _refuse_over_digits(bits: int) -> None:
    """Refuse a value estimated at ``bits`` bits whose decimal form would pass
    ``MAX_POLY_DIGITS`` digits, before it is computed."""
    digits = bits * 30103 // 100000  # log10(2)
    if digits > MAX_POLY_DIGITS:
        raise SizeLimitError(
            f"the value would have about {_excerpt(digits)} digits, over the limit of {MAX_POLY_DIGITS}"
        )


def _binomial_bits(n: int, r: int) -> int:
    """An upper bound on the bits of C(n, r): it is below 2^n and n^min(r, n-r)."""
    return min(n, min(r, n - r) * n.bit_length())


def cycle_defect_polynomial(n: int, bad: int, colors: int) -> int:
    """Number of assignments of ``colors`` colors to an n-cycle with exactly
    ``bad`` bad edges (all assignments compete: no surjectivity, no class rule).

    Closed form: C(n, bad) * ((colors-1)^(n-bad) + (-1)^(n-bad) (colors-1)).
    A value of more than ``MAX_POLY_DIGITS`` digits, estimated from bit
    lengths, raises :class:`SizeLimitError` before it is computed.
    """
    if n < 3:
        raise InvalidParameterError(f"a cycle needs at least 3 vertices, got {_excerpt(n)}")
    if not 0 <= bad <= n:
        raise InvalidParameterError(f"bad-edge count must lie in 0..{_excerpt(n)}, got {_excerpt(bad)}")
    if colors < 1:
        raise InvalidParameterError(f"need at least 1 color, got {_excerpt(colors)}")
    _refuse_over_digits(_binomial_bits(n, bad) + max(n - bad, 1) * (colors - 1).bit_length() + 1)
    sign = -1 if (n - bad) % 2 else 1
    return comb(n, bad) * ((colors - 1) ** (n - bad) + sign * (colors - 1))


def complete_defect_polynomial(n: int, k: int, colors: int) -> int:
    """Number of assignments of ``colors`` colors to a complete graph on n
    vertices realizing the optimal k-color structure: one class of n-k+1
    vertices, every other used color a singleton.

    Closed form: C(n, n-k+1) * colors * (colors-1) * ... * (colors-k+1).
    A value of more than ``MAX_POLY_DIGITS`` digits, estimated from bit
    lengths, raises :class:`SizeLimitError` before it is computed.
    """
    if n < 2:
        raise InvalidParameterError(f"need at least 2 vertices, got {_excerpt(n)}")
    if not 2 <= k <= n - 1:
        raise InvalidParameterError(f"k must lie in 2..{_excerpt(n - 1)}, got {_excerpt(k)}")
    if colors < k:
        raise InvalidParameterError(f"need at least k={_excerpt(k)} colors, got {_excerpt(colors)}")
    _refuse_over_digits(_binomial_bits(n, k - 1) + k * colors.bit_length())
    return comb(n, n - k + 1) * perm(colors, k)


def corona_chromatic(chi_g: int, chi_h: int) -> int:
    """Chromatic number of a corona G o H with H non-empty: every copy of H
    plus its base vertex needs chi(H) + 1 colors, and G needs chi(G)."""
    return max(chi_g, chi_h + 1)


# ---------------------------------------------------------------------------
# Operation bounds and reports
# ---------------------------------------------------------------------------

class BoundReport(NamedTuple):
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
    return k if relaxed else max(1, min(k, chi - 1))


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
    sides: tuple[int, int],
    cross: int | None,
    combined: Graph,
) -> BoundReport:
    """Add the side minima (t colors for g, k for h) and the cross term, and
    compare the bound with the exact optimum of the combined graph where the
    work budget reaches it."""
    left, right = sides
    bound = left + right + (cross or 0)
    try:
        exact = _minimum(combined, k, rule)
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
    sides = _minimum(g, t, rule), _minimum(h, k, rule)
    return _report("union", g, h, k, t, rule, labels, sides, None, disjoint_union(g, h)[0])


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
    counts; it is minimized over every pair of optimal side colorings.  Each
    side's optima are read as class sizes; h's optima are closed under
    renaming colors, so by the rearrangement inequality g's sizes ascending
    against h's descending give each pair's minimum.  The exact side
    defaults to the unrestricted rule because the minimizing join colorings
    may let both sides keep a monochromatic adjacency; under that default
    every candidate corresponds to an actual coloring of the join, so slack
    is non-negative.  (With a one-class exact side the combined
    candidates can be inadmissible and the reported slack may go negative.)
    """
    rule = RuleMode(rule)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidParameterError(f"color count must be a positive integer, got {_excerpt(k)}")
    g, h, labels, chi_g = _smaller_chromatic_first(g, h, labels)
    t = _color_budget(k, chi_g, relaxed)
    left, sizes_g = _class_sizes(g, t, rule)
    right, sizes_h = _class_sizes(h, k, rule)
    cross = min(
        sum(a * b for a, b in zip((0,) * (k - t) + p, reversed(q)))
        for p in sizes_g for q in sizes_h
    )
    return _report("join", g, h, k, t, rule, labels, (left, right), cross, join(g, h)[0])


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
    appears that rarely inside it), the smallest class size (0 for an unused
    color) over its canonical optima.  It counts the copy term once although
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
            f"k must satisfy 1 <= k < chromatic number of the corona ({chi}), got {_excerpt(k)}"
        )
    t = _color_budget(k, chi_g, relaxed)
    right, sizes_h = _class_sizes(h, k, rule)
    cross = g.n * min(p[0] for p in sizes_h)
    sides = _minimum(g, t, rule), right
    return _report("corona", g, h, k, t, rule, labels, sides, cross, corona(g, h)[0])


class Operation(NamedTuple):
    """A graph operation, written ``op(a,b)`` in a family spec: its builder,
    the ``(n, m)`` of its result from the operands' and its bound report."""

    build: Callable[[Graph, Graph], tuple[Graph, dict[str, int]]]
    size: Callable[[tuple[int, int], tuple[int, int]], tuple[int, int]]
    report: Callable[..., BoundReport]


OPERATIONS = {
    "union": Operation(disjoint_union, lambda g, h: (g[0] + h[0], g[1] + h[1]), union_bound),
    "join": Operation(join, lambda g, h: (g[0] + h[0], g[1] + h[1] + g[0] * h[0]), join_bound),
    "corona": Operation(
        corona, lambda g, h: (g[0] * (1 + h[0]), g[1] + g[0] * (h[1] + h[0])), corona_formula
    ),
}
