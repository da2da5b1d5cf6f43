"""Hereditary graph classes given by finite sets of forbidden induced subgraphs.

Membership of g means no vertex subset induces any pattern of the family.
The scan-based operations (`find_forbidden_occurrence`, `is_member`) check
subsets in a fixed documented order and are meant for small inputs; the
search in the deletion module goes through `first_occurrence_avoiding`,
which picks a finder by the family's pattern set up to isomorphism (not by
its name, its pattern order or repeated patterns):

- {K2} (edgeless): any edge, O(n) mask operations;
- {P3} (cluster): a vertex with two non-adjacent neighbours, O(m);
- {P4} (cograph): cotree recognition, then a 4-path only when it fails;
- {P4, C4, 2K2} (threshold): nested neighbourhoods, O(n log n); a failing
  pair of vertices yields the occurrence (Chvatal & Hammer 1977; certifying
  form after Heggernes & Kratsch 2007);
- any other set: the generic subset scan, O(n^d) subsets.

The route is computed once per family and kept on it. The four built-in
classes, each with its family and finder, live in one table,
`BUILTIN_CLASSES`, from which the command line takes its `--family` names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from pathlib import Path

from . import backends
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    iter_bits,
    parse_graph6,
    path_graph,
)


@dataclass(frozen=True)
class ForbiddenFamily:
    """A named finite family of forbidden induced subgraphs."""

    name: str
    patterns: tuple[Graph, ...]

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise ValueError("a forbidden family needs at least one pattern")
        for p in self.patterns:
            if p.n < 1:
                raise ValueError("patterns must have at least one vertex")

    @property
    def d(self) -> int:
        """Largest pattern order; every deletion branch has at most d options."""
        return max(p.n for p in self.patterns)

    @property
    def pattern_sizes(self) -> frozenset[int]:
        return frozenset(p.n for p in self.patterns)

    @cached_property
    def occurrence_finder(self):
        """Dedicated `finder(g, mask)` for this pattern set, or None (scan)."""
        return _finder_for(self.patterns)


def builtin_family(name: str) -> ForbiddenFamily:
    """One of the built-in families: cograph, cluster, threshold, edgeless."""
    if name not in BUILTIN_CLASSES:
        known = ", ".join(sorted(BUILTIN_CLASSES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    return BUILTIN_CLASSES[name][0]


def family_from_graph6_file(path, name: str | None = None) -> ForbiddenFamily:
    """Load a custom family from a file with one graph6 pattern per line."""
    p = Path(path)
    patterns = []
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        patterns.append(parse_graph6(line))
    return ForbiddenFamily(name or p.stem, tuple(patterns))


def _induces(g: Graph, subset: tuple[int, ...], pattern: Graph) -> bool:
    """Does the subset induce a graph isomorphic to the pattern?"""
    k = pattern.n
    local = [
        [subset[j] in g.adj[subset[i]] for j in range(k)] for i in range(k)
    ]
    if tuple(sorted(sum(row) for row in local)) != pattern.degree_sequence():
        return False
    for perm in permutations(range(k)):
        if all(
            local[i][j] == pattern.has_edge(perm[i], perm[j])
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return True
    return False


def _induces_some(g: Graph, subset: tuple[int, ...], fam: ForbiddenFamily) -> bool:
    size = len(subset)
    return any(p.n == size and _induces(g, subset, p) for p in fam.patterns)


def find_forbidden_occurrence(g: Graph, fam: ForbiddenFamily) -> tuple[int, ...] | None:
    """First vertex subset inducing a pattern, or None if g is in the class.

    Scan order is contractual: subset sizes ascending, subsets of one size
    in lexicographic order, patterns of that size in family order.
    """
    for size in sorted(fam.pattern_sizes):
        pats = [p for p in fam.patterns if p.n == size]
        for combo in combinations(range(g.n), size):
            for p in pats:
                if _induces(g, combo, p):
                    return combo
    return None


def is_member(g: Graph, fam: ForbiddenFamily) -> bool:
    """True iff no subset of g induces a forbidden pattern."""
    return find_forbidden_occurrence(g, fam) is None


# ---------------------------------------------------------------------------
# fast occurrence search, used by the deletion search tree
#
# Which occurrence is returned is deterministic but otherwise unspecified;
# only existence matters to callers. Pattern-specific routes avoid the
# subset scan, whose cost explodes with n.


def _occurrence_edge(g: Graph, mask: int) -> tuple[int, ...] | None:
    for v in iter_bits(mask):
        nb = g.adj_bits[v] & mask
        if nb:
            u = (nb & -nb).bit_length() - 1
            return tuple(sorted((v, u)))
    return None


def _occurrence_path3(g: Graph, mask: int) -> tuple[int, ...] | None:
    # an induced path on 3 vertices exists iff some vertex has two
    # non-adjacent neighbours
    for v in iter_bits(mask):
        nb = g.adj_bits[v] & mask
        if nb == 0:
            continue
        for u in iter_bits(nb):
            miss = nb & ~g.adj_bits[u] & ~(1 << u)
            if miss:
                w = (miss & -miss).bit_length() - 1
                return tuple(sorted((u, v, w)))
    return None


def _occurrence_path4(g: Graph, mask: int) -> tuple[int, ...] | None:
    # Cheap overall test first: a cotree exists iff there is no induced
    # path on 4 vertices. Only hunt for the path when one must exist.
    if mask == 0 or backends.cotree_for_mask(g, mask) is not None:
        return None
    for u in iter_bits(mask):
        nu = g.adj_bits[u] & mask
        for v in iter_bits(nu):
            if v < u:
                continue
            # x-u-v-y with x only adjacent to u, y only adjacent to v
            xs = nu & ~g.adj_bits[v] & ~(1 << v)
            ys = g.adj_bits[v] & mask & ~g.adj_bits[u] & ~(1 << u)
            if not xs or not ys:
                continue
            for x in iter_bits(xs):
                rest = ys & ~g.adj_bits[x] & ~(1 << x)
                if rest:
                    y = (rest & -rest).bit_length() - 1
                    return tuple(sorted((x, u, v, y)))
    raise AssertionError("no cotree but no induced 4-path found")


def _occurrence_threshold(g: Graph, mask: int) -> tuple[int, ...] | None:
    # A graph is threshold iff its neighbourhoods are nested. With x before
    # y in degree order, nesting means N(x) - {y} <= N(y); that relation is
    # transitive, so checking consecutive pairs suffices.
    adj = g.adj_bits
    order = sorted(iter_bits(mask), key=lambda v: (adj[v] & mask).bit_count())
    for x, y in zip(order, order[1:]):
        nx = adj[x] & mask & ~(1 << y)
        ny = adj[y] & mask & ~(1 << x)
        only_x = nx & ~ny
        if only_x:
            # deg(y) >= deg(x), so y has a private neighbour too; x-a and
            # y-b are edges, x-b and y-a are not, so {x, a, y, b} induces a
            # P4, C4 or 2K2 according to the edges x-y and a-b
            only_y = ny & ~nx
            a = (only_x & -only_x).bit_length() - 1
            b = (only_y & -only_y).bit_length() - 1
            return tuple(sorted((x, a, y, b)))
    return None


def _occurrence_scan(g: Graph, fam: ForbiddenFamily, mask: int) -> tuple[int, ...] | None:
    """Lexicographically first occurrence inside `mask` (generic route)."""
    active = list(iter_bits(mask))
    sizes = fam.pattern_sizes
    d = fam.d
    prefix: list[int] = []

    def rec(start: int) -> tuple[int, ...] | None:
        for idx in range(start, len(active)):
            prefix.append(active[idx])
            hit = None
            if len(prefix) in sizes and _induces_some(g, tuple(prefix), fam):
                hit = tuple(prefix)
            elif len(prefix) < d:
                hit = rec(idx + 1)
            prefix.pop()
            if hit is not None:
                return hit
        return None

    return rec(0)


def first_occurrence_avoiding(
    g: Graph, fam: ForbiddenFamily, removed_mask: int = 0
) -> tuple[int, ...] | None:
    """Some forbidden occurrence disjoint from the removed vertices, or None.

    None means the graph minus the removed vertices is in the class.
    """
    mask = ((1 << g.n) - 1) & ~removed_mask
    finder = fam.occurrence_finder
    if finder is None:
        return _occurrence_scan(g, fam, mask)
    return finder(g, mask)


# built-in classes: name -> (forbidden family, dedicated occurrence finder)
BUILTIN_CLASSES = {
    "cograph": (ForbiddenFamily("cograph", (path_graph(4),)), _occurrence_path4),
    "cluster": (ForbiddenFamily("cluster", (path_graph(3),)), _occurrence_path3),
    "threshold": (
        ForbiddenFamily(
            "threshold",
            (
                path_graph(4),
                cycle_graph(4),
                disjoint_union(complete_graph(2), complete_graph(2)),
            ),
        ),
        _occurrence_threshold,
    ),
    "edgeless": (ForbiddenFamily("edgeless", (complete_graph(2),)), _occurrence_edge),
}


def _covers(patterns, others) -> bool:
    """Is every pattern isomorphic to one of the others?"""
    return all(
        any(p.n == q.n and _induces(p, tuple(range(p.n)), q) for q in others)
        for p in patterns
    )


def _finder_for(patterns: tuple[Graph, ...]):
    for fam, finder in BUILTIN_CLASSES.values():
        known = fam.patterns
        if _covers(patterns, known) and _covers(known, patterns):
            return finder
    return None
