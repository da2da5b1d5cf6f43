"""Core graph types and serialization.

Graphs are finite, simple, undirected and immutable: vertices are 0..n-1,
adjacency is stored both as frozensets (convenient) and as per-vertex bit
masks (fast set algebra on subsets). Two text formats are supported: graph6
lines and DIMACS edge files.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Union

# An isomorphism witness: position u holds the image of vertex u.
VertexBijection = Sequence[int]


class GraphFormatError(ValueError):
    """Raised when a graph6 or DIMACS document cannot be decoded."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "adj_bits", "num_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        sets: list[set[int]] = [set() for _ in range(n)]
        bits = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v not in sets[u]:
                sets[u].add(v)
                sets[v].add(u)
                bits[u] |= 1 << v
                bits[v] |= 1 << u
                m += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in sets))
        object.__setattr__(self, "adj_bits", tuple(bits))
        object.__setattr__(self, "num_edges", m)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(s) for s in self.adj))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        es = self.edges()
        shown = es if len(es) <= 12 else es[:12] + ["..."]  # type: ignore[list-item]
        return f"Graph(n={self.n}, edges={shown})"


class ColoredGraph:
    """A graph plus one color per vertex.

    Colors may be arbitrary hashable labels. Internally they are renumbered
    to dense ids 0..c-1 in order of first occurrence; the original labels are
    kept in `palette` because comparisons between two colored graphs must be
    made on labels, not on per-graph dense ids.
    """

    __slots__ = ("graph", "colors", "palette")

    def __init__(self, graph: Graph, colors: Sequence[Hashable]):
        if len(colors) != graph.n:
            raise ValueError(
                f"expected {graph.n} colors, got {len(colors)}"
            )
        seen: dict[Hashable, int] = {}
        dense = []
        for c in colors:
            dense.append(seen.setdefault(c, len(seen)))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colors", tuple(dense))
        object.__setattr__(self, "palette", tuple(seen))

    def __setattr__(self, name, value):
        raise AttributeError("ColoredGraph is immutable")

    @property
    def n(self) -> int:
        return self.graph.n

    def color(self, v: int) -> int:
        """Dense color id of v (0..c-1, first occurrence order)."""
        return self.colors[v]

    def label(self, v: int) -> Hashable:
        """Original color label of v, comparable across graphs."""
        return self.palette[self.colors[v]]

    @property
    def num_colors(self) -> int:
        return len(self.palette)

    def __repr__(self) -> str:
        return f"ColoredGraph({self.graph!r}, colors={self.colors})"


# ---------------------------------------------------------------------------
# graph6


def _g6_byte(ch: str) -> int:
    val = ord(ch)
    if not 63 <= val <= 126:
        raise GraphFormatError(f"illegal graph6 byte {val!r} ({ch!r})")
    return val - 63


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line.

    The optional ">>graph6<<" prefix is accepted and stripped. The length
    header uses 1 byte for n <= 62, 4 bytes (leading 126) for n <= 258047
    and 8 bytes (leading 126 126) beyond that; the upper triangle of the
    adjacency matrix follows, packed 6 bits per byte in column order with
    zero padding.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 line")

    vals = [_g6_byte(c) for c in s]
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise GraphFormatError("truncated graph6 length header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        if n < 63:
            raise GraphFormatError("non-canonical graph6 length header")
        body = vals[4:]
    else:
        if len(vals) < 8:
            raise GraphFormatError("truncated graph6 length header")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        if n < 258048:
            raise GraphFormatError("non-canonical graph6 length header")
        body = vals[8:]

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise GraphFormatError("truncated graph6 bit-vector")
    if len(body) > nbytes:
        raise GraphFormatError("trailing bytes after graph6 bit-vector")

    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if body[k // 6] & (1 << (5 - k % 6)):
                edges.append((u, v))
            k += 1
    # remaining bits in the final byte must be zero padding
    while k < 6 * nbytes:
        if body[k // 6] & (1 << (5 - k % 6)):
            raise GraphFormatError("nonzero padding in graph6 bit-vector")
        k += 1
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header, no newline)."""
    n = g.n
    out = []
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
    else:
        if n > 68719476735:
            raise GraphFormatError(f"n={n} too large for graph6")
        out.extend([126, 126])
        out.extend(((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0))

    acc = 0
    nacc = 0
    for v in range(1, n):
        row = g.adj_bits[v]
        for u in range(v):
            acc = (acc << 1) | ((row >> u) & 1)
            nacc += 1
            if nacc == 6:
                out.append(acc + 63)
                acc = 0
                nacc = 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return "".join(chr(b) for b in out)


# ---------------------------------------------------------------------------
# DIMACS edge format


def parse_dimacs(text: str) -> Graph:
    """Decode a DIMACS edge document ("p edge N M" then "e U V" lines).

    Vertices are 1-based in the file and shifted to 0-based. Comment lines
    start with "c". Duplicate and reversed edge lines collapse to one edge.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"line {lineno}: malformed problem line")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed problem line")
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# elementary operations


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on a vertex subset.

    Returns (h, index_map) where h is on 0..|s|-1 and index_map[i] is the
    original id of h's vertex i. The subset is taken in sorted order.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(vs)}
    edges = [
        (pos[u], pos[v]) for u in vs for v in g.adj[u] if u < v and v in pos
    ]
    return Graph(len(vs), edges), tuple(vs)


def complement(g: Graph) -> Graph:
    """Complement graph: same vertices, edge iff not an edge of g."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adj[u]
    ]
    return Graph(g.n, edges)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the permutation v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def are_twins(g: Graph, u: int, v: int) -> bool:
    """True iff u and v have the same neighbourhood outside the pair."""
    if u == v:
        raise ValueError("twin test needs two distinct vertices")
    return (g.adj_bits[u] ^ g.adj_bits[v]) & ~(1 << u | 1 << v) == 0


def verify_isomorphism(g: Graph, h: Graph, f: VertexBijection) -> bool:
    """Check that f is a bijection carrying edges of g exactly onto edges of h."""
    n = g.n
    if h.n != n or len(f) != n:
        return False
    if sorted(f) != list(range(n)):
        return False
    for u in range(n):
        for v in range(u + 1, n):
            if (v in g.adj[u]) != (f[v] in h.adj[f[u]]):
                return False
    return True


def verify_colored_isomorphism(cg: ColoredGraph, ch: ColoredGraph, f: VertexBijection) -> bool:
    """As verify_isomorphism, and every vertex maps to an equally labelled one."""
    if not verify_isomorphism(cg.graph, ch.graph, f):
        return False
    return all(cg.label(v) == ch.label(f[v]) for v in range(cg.n))


# ---------------------------------------------------------------------------
# bit-mask helpers (subsets of the vertex set as Python ints)


def iter_bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_components(adj_bits: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph induced on `mask`, as masks."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj_bits[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def mask_complement_components(adj_bits: Sequence[int], mask: int) -> list[int]:
    """Components of the complement of the subgraph induced on `mask`."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= mask & ~adj_bits[v] & ~(1 << v)
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


# ---------------------------------------------------------------------------
# small standard graphs, used for forbidden patterns and in tests


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the centre at vertex 0."""
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)
