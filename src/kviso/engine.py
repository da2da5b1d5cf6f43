"""Isomorphism of graphs that are k vertex deletions away from a base class.

Every parameterization runs one decision path, `decide`. Its kind only
picks three things:

- an input transform: the complement for distance-to-clique, else none;
- a deletion-set enumerator: the vertex-cover kernel route for
  vertex-cover and distance-to-clique, twin covers for twin-cover, the
  bounded search tree of the family for distance-to-class;
- the colored-isomorphism backend of the base class: edgeless, cluster, or
  the smallest built-in class containing the family's class.

The path: pick a smallest deletion set S for the first graph, enumerate all
minimal deletion sets of the same size for the second, and for each
candidate search the bijections of S onto it by backtracking, pruning
partial maps by isomorphism invariants (degrees, adjacency among anchor
vertices, sizes of attachment classes). Under a complete bijection, every
remaining vertex is colored by which anchor vertices it sees, with one
shared color key for both sides; the remainders then lie in the base class
and the backend finishes the job. Any success composes into a full witness.
The `gi_*` functions are shorthands for `decide` with one kind.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    verify_isomorphism,
)
from .recognition import ForbiddenFamily, builtin_family, is_member
from .results import DistanceExceeded, IsoResult

_KINDS = ("vertex-cover", "twin-cover", "distance-to-clique", "distance-to-class")


@dataclass
class EngineStats:
    """Counters describing one engine run."""

    candidate_sets: int = 0
    bijections_tried: int = 0  # complete anchor maps, each one backend call
    bijections_pruned: int = 0  # partial anchor maps rejected by an invariant
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


def _split_classes(classes: list, na: int, nb: int) -> list | None:
    """Split each attachment class by adjacency to na (g1) and nb (g2).

    Returns None when some class would split into parts of different sizes.
    """
    out = []
    for m1, m2 in classes:
        in1, in2 = m1 & na, m2 & nb
        if in1.bit_count() != in2.bit_count():
            return None
        if in1:
            out.append((in1, in2))
        if in1 != m1:
            out.append((m1 & ~na, m2 & ~nb))
    return out


def _anchor_maps(g1: Graph, g2: Graph, order, cand, stats: EngineStats):
    """Yield every map of `order` onto `cand` that survives the prune.

    Each yielded tuple lists the images of `order` in turn. A partial map
    a_i -> b is extended only when deg(a_i) == deg(b), a_i and b agree on
    adjacency to the anchor vertices mapped before them, and every
    attachment class keeps equal sizes on both sides when split by
    adjacency to a_i in g1 and to b in g2. A class is a pair of remainder
    masks (g1 vertices, g2 vertices) that see corresponding mapped anchor
    vertices. All three are isomorphism invariants, so a map that extends
    to an isomorphism is never cut; each rejected extension counts as one
    pruned bijection.
    """
    adj1, adj2 = g1.adj_bits, g2.adj_bits
    image: list[int] = []

    def extend(i: int, free: tuple, classes: list):
        if i == len(order):
            yield tuple(image)
            return
        a = order[i]
        na = adj1[a]
        for b in free:
            nb = adj2[b]
            split = None
            if na.bit_count() == nb.bit_count() and all(
                (na >> order[j] & 1) == (nb >> image[j] & 1) for j in range(i)
            ):
                split = _split_classes(classes, na, nb)
            if split is None:
                stats.bijections_pruned += 1
                continue
            image.append(b)
            yield from extend(i + 1, tuple(v for v in free if v != b), split)
            image.pop()

    rest1, rest2 = (1 << g1.n) - 1, (1 << g2.n) - 1
    for a in order:
        rest1 &= ~(1 << a)
    for b in cand:
        rest2 &= ~(1 << b)
    return extend(0, tuple(cand), [(rest1, rest2)])


def _search_candidates(
    g1: Graph,
    g2: Graph,
    anchor,
    candidates,
    backend,
    stats: EngineStats,
) -> IsoResult:
    """Try every candidate set and pruned anchor map; first success wins.

    Anchor vertices of g1 are mapped in decreasing-degree order (ties by
    vertex id), so the search order, and with it every counter, is fixed.
    Only complete maps reach anchor colouring and the backend; by then the
    attachment censuses of the two remainders agree.
    """
    anchor = tuple(anchor)
    anchor_set = frozenset(anchor)
    key: dict = {}
    for v in range(g1.n):
        if v not in anchor_set:
            key.setdefault(frozenset(g1.adj[v] & anchor_set), len(key))
    cg1, idx1 = anchor_color(g1, anchor, key)
    order = sorted(anchor, key=lambda a: (-g1.degree(a), a))

    for cand in candidates:
        for image in _anchor_maps(g1, g2, order, tuple(cand), stats):
            stats.bijections_tried += 1
            phi = dict(zip(order, image))
            key2 = {
                frozenset(phi[a] for a in subset): color
                for subset, color in key.items()
            }
            cg2, idx2 = anchor_color(g2, cand, key2)
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


def decide(
    g1: Graph,
    g2: Graph,
    parameterization: Parameterization,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Decide isomorphism of g1 and g2 under one parameterization.

    The kind picks an input transform, a deletion-set enumerator and the
    backend of its base class; every kind then runs the same anchor search.
    """
    p = parameterization
    k = p.k
    stats = stats if stats is not None else EngineStats()
    # Names are looked up here, at call time, never bound in a table at
    # import, so a caller may substitute them (the benchmark's tracer does).
    if p.kind == "distance-to-clique":
        # a witness between the complements is one between the originals
        g1, g2 = complement(g1), complement(g2)
    if p.kind == "distance-to-class":
        backend = _backend_for_family(p.family)
        enumerate_sets = lambda g: enumerate_deletion_sets(g, p.family, k)
    elif p.kind == "twin-cover":
        # a twin cover's remainder is a union of cliques, each attached
        # uniformly to the cover (checked in the tests)
        backend = _FAMILY_BACKENDS["cluster"]
        enumerate_sets = lambda g: enumerate_twin_covers(g, k)
    else:
        # vertex cover, or vertex cover of the complements
        backend = _FAMILY_BACKENDS["edgeless"]
        enumerate_sets = lambda g: enumerate_minimal_vertex_covers(g, k)

    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return IsoResult.no()
    sets1 = enumerate_sets(g1)
    sets2 = enumerate_sets(g2)
    if not sets1 or not sets2:
        return DistanceExceeded(k, not sets1, not sets2)
    if g1.degree_sequence() != g2.degree_sequence():
        return IsoResult.no()
    size = len(sets1[0].vertices)
    if size != len(sets2[0].vertices):
        return IsoResult.no()  # smallest deletion sizes differ
    anchor = sets1[0].vertices
    candidates = [d.vertices for d in sets2 if len(d.vertices) == size]
    stats.candidate_sets = len(candidates)
    result = _search_candidates(g1, g2, anchor, candidates, backend, stats)
    if verify and result.isomorphic:
        if not verify_isomorphism(g1, g2, result.witness):
            raise RuntimeError("engine produced an invalid witness")
    return result


def gi_vertex_cover(
    g1: Graph, g2: Graph, k: int, stats: EngineStats | None = None, verify: bool = False
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs with a vertex cover of size <= k."""
    return decide(g1, g2, Parameterization("vertex-cover", k), stats, verify)


def gi_twin_cover(
    g1: Graph, g2: Graph, k: int, stats: EngineStats | None = None, verify: bool = False
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs with a twin cover of size <= k."""
    return decide(g1, g2, Parameterization("twin-cover", k), stats, verify)


def gi_distance_to_clique(
    g1: Graph, g2: Graph, k: int, stats: EngineStats | None = None, verify: bool = False
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs that are k deletions away from a complete graph."""
    return decide(g1, g2, Parameterization("distance-to-clique", k), stats, verify)


def gi_distance_to_class(
    g1: Graph,
    g2: Graph,
    fam: ForbiddenFamily,
    k: int,
    stats: EngineStats | None = None,
    verify: bool = False,
) -> IsoResult | DistanceExceeded:
    """Isomorphism for graphs at deletion distance <= k from fam's class."""
    return decide(g1, g2, Parameterization("distance-to-class", k, fam), stats, verify)
