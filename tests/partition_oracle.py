"""A second exact oracle, by subset dynamic programming over colour classes.

It shares no code with ``nearcolor.solver``: no vertex is ever given a colour
on its own.  Colours 1..k are dealt out in turn, each taking a whole vertex
set, in the spirit of the O(k·3^n) set-partitioning algorithms of Björklund,
Husfeldt and Koivisto (2009).  Its cost is about k·3^n set steps, so it
reaches n = 11 where full enumeration of k**n assignments does not.
"""

from nearcolor.coloring import RuleMode
from nearcolor.graph import Graph


def partition_oracle(g: Graph, k: int, rule: RuleMode, surjective: bool) -> tuple[int, int]:
    """(minimum bad edges, number of optimal labelled colorings) with colours 1..k.

    Layer j maps (S, dirty) to (minimum, count) over the ways colours 1..j
    can cover exactly the vertex set S; ``dirty`` says whether a class with
    an inside edge exists yet.  Colour j takes any T outside S and adds
    e(T), the edges inside T.  T must be non-empty when surjective; under
    the one-class rule a T with e(T) > 0 is allowed only while dirty is
    clear.  The last colour takes everything left, and the answer is read at
    S = V.
    """
    n = g.n
    full = (1 << n) - 1
    nbrs = [0] * n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    inside = [0] * (1 << n)
    for t in range(1, 1 << n):
        v = (t & -t).bit_length() - 1
        rest = t & (t - 1)
        inside[t] = inside[rest] + bin(nbrs[v] & rest).count("1")
    one_class = rule is RuleMode.ONE_CLASS
    layer = {(0, False): (0, 1)}
    for j in range(1, k + 1):
        nxt: dict[tuple[int, bool], tuple[int, int]] = {}
        for (s, dirty), (best, count) in layer.items():
            free = full ^ s
            for t in (free,) if j == k else _submasks(free):
                if surjective and not t:
                    continue
                e = inside[t]
                if one_class and e and dirty:
                    continue
                key = (s | t, dirty or (one_class and e > 0))
                bad = best + e
                old = nxt.get(key)
                if old is None or bad < old[0]:
                    nxt[key] = (bad, count)
                elif bad == old[0]:
                    nxt[key] = (bad, old[1] + count)
        layer = nxt
    if not layer:
        raise ValueError(f"no valid colouring of {n} vertices with {k} colours")
    best = min(bad for bad, _ in layer.values())
    return best, sum(count for bad, count in layer.values() if bad == best)


def _submasks(mask: int):
    """Every subset of ``mask``, the empty set last."""
    t = mask
    while True:
        yield t
        if not t:
            return
        t = (t - 1) & mask
