"""Isomorphism of graphs that are k vertex deletions away from a base class.

The plan: pick a smallest deletion set S for the first graph, enumerate all
minimal deletion sets of the same size for the second, and for each
candidate try every bijection of S onto it that maps edges correctly. Under
a fixed bijection, every remaining vertex is colored by which anchor
vertices it sees, with one shared color key for both sides; the remainders
then lie in the base class and a class-specific colored-isomorphism backend
finishes the job. Any success composes into a full witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .backends import (
    colored_gi_cluster,
    colored_gi_cograph,
    colored_gi_independent,
)
from .deletion import (
    enumerate_deletion_sets,
    enumerate_minimal_vertex_covers,
    enumerate_twin_covers,
)
from .graphs import (
    ColoredGraph,
    Graph,
    complement,
    induced_subgraph,
    iter_bits,
    mask_components,
    verify_isomorphism,
)
from .recognition import ForbiddenFamily, builtin_family, is_member
from .results import DistanceExceeded, IsoResult

_KINDS = ("vertex-cover", "twin-cover", "distance-to-clique", "distance-to-class")


@dataclass
class EngineStats:
    """Counters describing one engine run."""

    candidate_sets: int = 0
    bijections_tried: int = 0
    backend_calls: int = 0


@dataclass(frozen=True)
class Parameterization:
    """What 'close to a base class' means for one engine invocation."""

    kind: str
    k: int
    family: ForbiddenFamily | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown parameterization kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if (self.kind == "distance-to-class") != (self.family is not None):
            raise ValueError("a family is required exactly for distance-to-class")


def anchor_color(
    g: Graph, anchor, key: dict, base_colors=None
) -> tuple[ColoredGraph, tuple[int, ...]]:
    """Color g minus the anchor set by which anchor vertices each vertex sees.

    `key` maps frozensets of anchor vertices to color labels and must cover
    every subset that occurs; a missing entry is an engine bug, reported as
    KeyError. With `base_colors`, each label is paired with the vertex's
    preexisting color. Returns the colored remainder and the index map from
    its vertices back to g's.
    """
    anchor_set = frozenset(anchor)
    for v in anchor_set:
        if not 0 <= v < g.n:
            raise ValueError(f"anchor vertex {v} out of range")
    rest = [v for v in range(g.n) if v not in anchor_set]
    sub, idx = induced_subgraph(g, rest)
    labels = []
    for v in idx:
        seen = frozenset(g.adj[v] & anchor_set)
        if seen not in key:
            raise KeyError(f"no color assigned for anchor subset {sorted(seen)}")
        label = key[seen]
        if base_colors is not None:
            label = (base_colors[v], label)
        labels.append(label)
    return ColoredGraph(sub, labels), idx


def _anchor_bijection_ok(g1: Graph, g2: Graph, anchor, image) -> bool:
    s = len(anchor)
    for i in range(s):
        for j in range(i + 1, s):
            if (anchor[j] in g1.adj[anchor[i]]) != (image[j] in g2.adj[image[i]]):
                return False
    return True


def _search_candidates(
    g1: Graph,
    g2: Graph,
    anchor,
    candidates,
    backend,
    stats: EngineStats,
) -> IsoResult:
    """Try every candidate set and anchor bijection; first success wins."""
    anchor = tuple(anchor)
    anchor_set = frozenset(anchor)
    key: dict = {}
    for v in range(g1.n):
        if v not in anchor_set:
            key.setdefault(frozenset(g1.adj[v] & anchor_set), len(key))
    cg1, idx1 = anchor_color(g1, anchor, key)

    for cand in candidates:
        cand = tuple(cand)
        for image in permutations(cand):
            stats.bijections_tried += 1
            if not _anchor_bijection_ok(g1, g2, anchor, image):
                continue
            phi = dict(zip(anchor, image))
            key2 = {
                frozenset(phi[a] for a in subset): color
                for subset, color in key.items()
            }
            try:
                cg2, idx2 = anchor_color(g2, cand, key2)
            except KeyError:
                # g2 has a remainder vertex whose anchor attachment never
                # occurs in g1, so the censuses cannot match
                continue
            stats.backend_calls += 1
            result = backend(cg1, cg2)
            if result.isomorphic:
                full = [-1] * g1.n
                for a in anchor:
                    full[a] = phi[a]
                for i, u in enumerate(idx1):
                    full[u] = idx2[result.witness[i]]
                return IsoResult.yes(full)
    return IsoResult.no()


def _decide_generic(
    g1: Graph,
    g2: Graph,
    k: int,
    enumerator,
    backend,
    stats: EngineStats,
    verify: bool,
    candidate_check=None,
) -> IsoResult | DistanceExceeded:
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return IsoResult.no()
    sets1 = enumerator(g1)
    sets2 = enumerator(g2)
    if not sets1 or not sets2:
        return DistanceExceeded(k, not sets1, not sets2)
    size = len(sets1[0].vertices)
    if size != len(sets2[0].vertices):
        return IsoResult.no()  # smallest deletion sizes differ
    anchor = sets1[0].vertices
    candidates = [d.vertices for d in sets2 if len(d.vertices) == size]
    stats.candidate_sets = len(candidates)
    if candidate_check is not None:
        candidate_check(g1, anchor)
        for cand in candidates:
            candidate_check(g2, cand)
    result = _search_candidates(g1, g2, anchor, candidates, backend, stats)
    if verify and result.isomorphic:
        if not verify_isomorphism(g1, g2, result.witness):
            raise RuntimeError("engine produced an invalid witness")
    return result


# built-in classes with a backend, smallest first; each forbids one pattern
_FAMILY_BACKENDS = {
    "edgeless": colored_gi_independent,
    "cluster": colored_gi_cluster,
    "cograph": colored_gi_cograph,
}


def _backend_for_family(fam: ForbiddenFamily):
    """Backend of the smallest base class that contains fam's class.

    The class of fam lies inside the H-free graphs iff H itself is not in
    it, i.e. iff H contains some pattern of fam; so a threshold family gets
    the cograph backend, and a family's name plays no part.
    """
    for name, backend in _FAMILY_BACKENDS.items():
        (pattern,) = builtin_family(name).patterns
        if not is_member(pattern, fam):
            return backend
    raise ValueError(
        f"family {fam.name!r} allows an induced P4, so no colored-isomorphism"
        " backend covers its class"
    )


def gi_distance_to_class(
    g1: Graph,
    g2: Graph,
    fam: ForbiddenFamily,
    k: int,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs at deletion distance <= k from fam's class."""
    stats = stats if stats is not None else EngineStats()
    backend = _backend_for_family(fam)
    return _decide_generic(
        g1,
        g2,
        k,
        lambda g: enumerate_deletion_sets(g, fam, k),
        backend,
        stats,
        verify,
    )


def gi_vertex_cover(
    g1: Graph,
    g2: Graph,
    k: int,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs with a vertex cover of size <= k."""
    stats = stats if stats is not None else EngineStats()
    return _decide_generic(
        g1,
        g2,
        k,
        lambda g: enumerate_minimal_vertex_covers(g, k),
        colored_gi_independent,
        stats,
        verify,
    )


def _check_uniform_clique_attachment(g: Graph, cover) -> None:
    # after removing a twin cover, the members of one leftover clique are
    # pairwise twins, so they must all see the same cover vertices
    cover_mask = 0
    for v in cover:
        cover_mask |= 1 << v
    rest = ((1 << g.n) - 1) & ~cover_mask
    for comp in mask_components(g.adj_bits, rest):
        attachments = {g.adj_bits[v] & cover_mask for v in iter_bits(comp)}
        if len(attachments) != 1:
            raise RuntimeError("twin-cover remainder clique is not uniform")


def gi_twin_cover(
    g1: Graph,
    g2: Graph,
    k: int,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs with a twin cover of size <= k."""
    stats = stats if stats is not None else EngineStats()
    return _decide_generic(
        g1,
        g2,
        k,
        lambda g: enumerate_twin_covers(g, k),
        colored_gi_cluster,
        stats,
        verify,
        candidate_check=_check_uniform_clique_attachment,
    )


def gi_distance_to_clique(
    g1: Graph,
    g2: Graph,
    k: int,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs that are k deletions away from a complete graph.

    Runs the vertex-cover engine on the complements; a witness between the
    complements is a witness between the originals unchanged.
    """
    return gi_vertex_cover(complement(g1), complement(g2), k, stats, verify)


def decide(
    g1: Graph,
    g2: Graph,
    parameterization: Parameterization,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Single entry point dispatching on the parameterization kind."""
    p = parameterization
    if p.kind == "vertex-cover":
        return gi_vertex_cover(g1, g2, p.k, stats, verify)
    if p.kind == "twin-cover":
        return gi_twin_cover(g1, g2, p.k, stats, verify)
    if p.kind == "distance-to-clique":
        return gi_distance_to_clique(g1, g2, p.k, stats, verify)
    return gi_distance_to_class(g1, g2, p.family, p.k, stats, verify)
