"""Colored isomorphism tests for the base graph classes.

Each backend decides whether two vertex-colored graphs from one restricted
class (edgeless, disjoint cliques, cotree-decomposable) are isomorphic by a
color-preserving map, and produces a witness when they are. Colors are
always compared by their original labels so that two graphs colored from a
shared key space line up correctly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from .graphs import (
    ColoredGraph,
    Graph,
    iter_bits,
    mask_components,
    mask_complement_components,
)
from .results import IsoResult


class NotEdgelessError(ValueError):
    """Input to the edgeless backend has an edge."""


class NotClusterError(ValueError):
    """Input to the cluster backend has a component that is not a clique."""


class NotCographError(ValueError):
    """Input to the cotree backend has no cotree decomposition."""


# ---------------------------------------------------------------------------
# edgeless graphs: a color census is a complete invariant


def independent_census(cg: ColoredGraph) -> dict:
    """Count vertices per color label. The graph must have no edges."""
    if cg.graph.num_edges:
        raise NotEdgelessError("graph has an edge")
    return dict(Counter(cg.label(v) for v in range(cg.n)))


def colored_gi_independent(cg1: ColoredGraph, cg2: ColoredGraph) -> IsoResult:
    """Colored isomorphism of two edgeless graphs."""
    c1 = independent_census(cg1)
    c2 = independent_census(cg2)
    if c1 != c2:
        return IsoResult.no()
    by_label1: dict = {}
    by_label2: dict = {}
    for v in range(cg1.n):
        by_label1.setdefault(cg1.label(v), []).append(v)
    for v in range(cg2.n):
        by_label2.setdefault(cg2.label(v), []).append(v)
    mapping = [0] * cg1.n
    for label, vs in by_label1.items():
        for u, v in zip(vs, by_label2[label]):
            mapping[u] = v
    return IsoResult.yes(mapping)


# ---------------------------------------------------------------------------
# cluster graphs (disjoint unions of cliques)


def _clique_components(cg: ColoredGraph) -> list[list[int]]:
    g = cg.graph
    comps = mask_components(g.adj_bits, (1 << g.n) - 1)
    out = []
    for comp in comps:
        vs = list(iter_bits(comp))
        for v in vs:
            if g.adj_bits[v] & comp != comp ^ (1 << v):
                raise NotClusterError(f"component {vs} is not a clique")
        out.append(vs)
    return out


def _clique_key(cg: ColoredGraph, vs: list[int]) -> tuple:
    # sorted by repr: deterministic for any hashable labels
    return tuple(sorted((cg.label(v) for v in vs), key=repr))


def cluster_census(cg: ColoredGraph) -> dict:
    """Count cliques per sorted color-label multiset.

    Raises NotClusterError if some connected component is not a clique.
    """
    census: Counter = Counter()
    for vs in _clique_components(cg):
        census[_clique_key(cg, vs)] += 1
    return dict(census)


def colored_gi_cluster(cg1: ColoredGraph, cg2: ColoredGraph) -> IsoResult:
    """Colored isomorphism of two cluster graphs via the clique census."""
    cliques1 = _clique_components(cg1)
    cliques2 = _clique_components(cg2)
    census1 = Counter(_clique_key(cg1, vs) for vs in cliques1)
    census2 = Counter(_clique_key(cg2, vs) for vs in cliques2)
    if census1 != census2:
        return IsoResult.no()

    grouped1: dict = {}
    grouped2: dict = {}
    for vs in cliques1:
        grouped1.setdefault(_clique_key(cg1, vs), []).append(vs)
    for vs in cliques2:
        grouped2.setdefault(_clique_key(cg2, vs), []).append(vs)

    mapping = [0] * cg1.n
    for key, group1 in grouped1.items():
        group2 = grouped2[key]
        group1.sort(key=min)
        group2.sort(key=min)
        for vs1, vs2 in zip(group1, group2):
            # equal label multisets, so sorting by label aligns vertices
            svs1 = sorted(vs1, key=lambda v: (repr(cg1.label(v)), v))
            svs2 = sorted(vs2, key=lambda v: (repr(cg2.label(v)), v))
            for u, v in zip(svs1, svs2):
                mapping[u] = v
    return IsoResult.yes(mapping)


# ---------------------------------------------------------------------------
# cotree decomposition


@dataclass(frozen=True)
class CotreeLeaf:
    vertex: int


@dataclass(frozen=True)
class CotreeNode:
    kind: str  # "union" or "join"
    children: tuple


Cotree = Union[CotreeLeaf, CotreeNode]


def cotree_for_mask(g: Graph, mask: int) -> Cotree | None:
    """Cotree of the subgraph induced on `mask`, or None if there is none.

    Leaves keep original vertex ids. Union nodes split a disconnected
    subgraph into components, join nodes split by complement components;
    the two kinds alternate along every root-to-leaf path by construction.
    Built without recursion, so a cotree may be as deep as the graph is
    large.
    """
    if mask == 0:
        raise ValueError("empty vertex set has no cotree")
    splits = []  # (mask, kind, child masks), every parent before its children
    todo = [mask]
    while todo:
        m = todo.pop()
        if m & (m - 1) == 0:
            continue
        comps = mask_components(g.adj_bits, m)
        kind = "union"
        if len(comps) == 1:
            comps = mask_complement_components(g.adj_bits, m)
            if len(comps) == 1:
                return None
            kind = "join"
        splits.append((m, kind, comps))
        todo.extend(reversed(comps))

    nodes: dict[int, Cotree] = {}

    def node(m: int) -> Cotree:
        return nodes[m] if m & (m - 1) else CotreeLeaf(m.bit_length() - 1)

    for m, kind, comps in reversed(splits):
        nodes[m] = CotreeNode(kind, tuple(node(c) for c in comps))
    return node(mask)


def build_cotree(g: Graph) -> Cotree | None:
    """Cotree of g, or None when g has no cotree decomposition."""
    if g.n == 0:
        raise ValueError("empty graph has no cotree")
    return cotree_for_mask(g, (1 << g.n) - 1)


def cotree_leaves(t: Cotree) -> list[int]:
    if isinstance(t, CotreeLeaf):
        return [t.vertex]
    out = []
    for c in t.children:
        out.extend(cotree_leaves(c))
    return out


def cotree_to_graph(t: Cotree, n: int) -> Graph:
    """Rebuild the graph a cotree describes. Leaves must cover 0..n-1."""
    edges: list[tuple[int, int]] = []

    def rec(node: Cotree) -> list[int]:
        if isinstance(node, CotreeLeaf):
            return [node.vertex]
        parts = [rec(c) for c in node.children]
        if node.kind == "join":
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    edges.extend((u, v) for u in parts[i] for v in parts[j])
        return [v for part in parts for v in part]

    vs = rec(t)
    if sorted(vs) != list(range(n)):
        raise ValueError("cotree leaves do not cover 0..n-1")
    return Graph(n, edges)


def canonical_code(t: Cotree, colors, codes: dict | None = None) -> bytes:
    """Order-independent serialization of a colored cotree.

    Two cotrees get the same code exactly when their graphs are isomorphic
    by a color-preserving map. `colors` is indexable by original vertex id.
    When `codes` is given, the code of every subtree is stored in it under
    id(subtree), so a caller can order children without recomputing them.
    Computed bottom-up without recursion.
    """
    codes = {} if codes is None else codes
    todo = [(t, False)]
    while todo:
        node, children_done = todo.pop()
        if isinstance(node, CotreeLeaf):
            codes[id(node)] = b"(L " + repr(colors[node.vertex]).encode() + b")"
        elif children_done:
            tag = b"(U" if node.kind == "union" else b"(J"
            parts = sorted(codes[id(c)] for c in node.children)
            codes[id(node)] = tag + b"".join(parts) + b")"
        else:
            todo.append((node, True))
            todo.extend((c, False) for c in node.children)
    return codes[id(t)]


def colored_gi_cograph(cg1: ColoredGraph, cg2: ColoredGraph) -> IsoResult:
    """Colored isomorphism of two cotree-decomposable graphs.

    Raises NotCographError when either input has no cotree.
    """
    if cg1.n == 0 or cg2.n == 0:
        return IsoResult.yes(()) if cg1.n == cg2.n else IsoResult.no()
    t1 = build_cotree(cg1.graph)
    t2 = build_cotree(cg2.graph)
    if t1 is None:
        raise NotCographError("first graph has no cotree")
    if t2 is None:
        raise NotCographError("second graph has no cotree")

    codes1: dict = {}
    codes2: dict = {}
    labels1 = [cg1.label(v) for v in range(cg1.n)]
    labels2 = [cg2.label(v) for v in range(cg2.n)]
    if canonical_code(t1, labels1, codes1) != canonical_code(t2, labels2, codes2):
        return IsoResult.no()

    # equal codes: children sorted by code pair off into equal-code subtrees
    mapping = [0] * cg1.n
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, CotreeLeaf):
            mapping[a.vertex] = b.vertex
            continue
        sa = sorted(a.children, key=lambda c: codes1[id(c)])
        sb = sorted(b.children, key=lambda c: codes2[id(c)])
        todo.extend(zip(sa, sb))
    return IsoResult.yes(mapping)
