"""Shared generators and slow reference implementations for the test suite.

Everything here is deliberately written from first principles rather than
calling back into the package, so that agreement between the two is evidence
and not tautology.
"""

import itertools

from kviso.graphs import Graph, GraphFormatError


# ---------------------------------------------------------------------------
# random instance generators


def random_graph(rng, n, p=0.5):
    """Erdos-Renyi style graph on n vertices with edge probability p."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def permuted_copy(rng, g):
    """Return (h, perm) where h is g relabelled by a uniform random perm."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return Graph(g.n, edges), perm


def random_cograph(rng, n):
    """Random cograph built by recursively splitting into union/join parts."""
    verts = list(range(n))

    def build(vs, join):
        if len(vs) <= 1:
            return []
        cut = rng.randint(1, len(vs) - 1)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        left, right = shuffled[:cut], shuffled[cut:]
        edges = build(left, not join) + build(right, not join)
        if join:
            edges += [(u, v) for u in left for v in right]
        return edges

    return Graph(n, build(verts, rng.random() < 0.5))


def random_cluster(rng, n):
    """Random disjoint union of cliques on n vertices."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []
    while verts:
        take = rng.randint(1, len(verts))
        part, verts = verts[:take], verts[take:]
        edges += [(u, v) for i, u in enumerate(part) for v in part[i + 1:]]
    return Graph(n, edges)


def random_threshold(rng, n):
    """Random threshold graph: repeatedly add an isolated or universal vertex."""
    edges = []
    for v in range(n):
        if v and rng.random() < 0.5:
            edges += [(u, v) for u in range(v)]
    g = Graph(n, edges)
    h, _ = permuted_copy(rng, g)
    return h


def planted_cover_graph(rng, n, k, p=0.4):
    """Graph on n vertices whose edges all touch {0..k-1}, then relabelled.

    Returns (graph, cover) with cover a vertex cover of size <= k.
    """
    edges = set()
    for u in range(k):
        for v in range(n):
            if v != u and rng.random() < p:
                edges.add((min(u, v), max(u, v)))
    g = Graph(n, sorted(edges))
    h, perm = permuted_copy(rng, g)
    cover = tuple(sorted(perm[u] for u in range(k)))
    return h, cover


def plant_deletion_vertices(rng, g, extra, p=0.5):
    """Append `extra` vertices with random attachments to g."""
    n = g.n + extra
    edges = list(g.edges())
    for w in range(g.n, n):
        for v in range(w):
            if rng.random() < p:
                edges.append((v, w))
    return Graph(n, edges)


def edge_swapped_copy(rng, g, tries=20):
    """Copy of g with one degree-preserving double edge swap, or g itself.

    Edges a-b and c-d become a-d and c-b when those are new edges; the
    result has g's degree sequence and is often not isomorphic to g.
    """
    edges = g.edges()
    for _ in range(tries if len(edges) >= 2 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.has_edge(a, d) or g.has_edge(c, b):
            continue
        rest = [e for e in edges if e not in ((a, b), (min(c, d), max(c, d)))]
        return Graph(g.n, rest + [(a, d), (c, b)])
    return g


def cover_gadget(h, r, leaf_sets):
    """Vertex-cover gadget with 2^r minimum covers of size h + r.

    Vertices 0..h-1 are pairwise non-adjacent high vertices. r disjoint
    edges follow, both endpoints joined to every high vertex, so either
    endpoint completes a cover and all 2^r choices look alike. Then one
    leaf per entry of `leaf_sets`, joined to the high vertices listed.
    """
    edges = []
    v = h
    for _ in range(r):
        edges.append((v, v + 1))
        edges += [(c, w) for c in range(h) for w in (v, v + 1)]
        v += 2
    for leaf, seen in enumerate(leaf_sets, start=v):
        edges += [(c, leaf) for c in seen]
    return Graph(v + len(leaf_sets), edges)


def random_cnf(rng, num_vars, num_clauses, width=3):
    """Random CNF clause list over 1..num_vars, width literals per clause."""
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return tuple(clauses)


# ---------------------------------------------------------------------------
# slow reference oracles


def brute_induces(g, pattern):
    """Exhaustive induced-subgraph test: any injection realizing pattern?"""
    if pattern.n > g.n:
        return False
    for image in itertools.permutations(range(g.n), pattern.n):
        if all(
            g.has_edge(image[a], image[b]) == pattern.has_edge(a, b)
            for a in range(pattern.n)
            for b in range(a + 1, pattern.n)
        ):
            return True
    return False


def is_threshold_by_peeling(g):
    """Threshold test via the peeling characterization.

    Repeatedly delete an isolated or universal vertex; the graph is threshold
    iff this empties it.
    """
    alive = set(range(g.n))
    while alive:
        for v in list(alive):
            deg = len(g.adj[v] & alive)
            if deg == 0 or deg == len(alive) - 1:
                alive.discard(v)
                break
        else:
            return False
    return True


def min_vertex_cover_size(g):
    """Exact minimum vertex cover size by increasing-size subset search."""
    edges = g.edges()
    if not edges:
        return 0
    for r in range(1, g.n + 1):
        for cand in itertools.combinations(range(g.n), r):
            cs = set(cand)
            if all(u in cs or v in cs for u, v in edges):
                return r
    raise AssertionError("unreachable: V always covers")


def is_vertex_cover(g, vertices):
    vs = set(vertices)
    return all(u in vs or v in vs for u, v in g.edges())


def plain_minimax_hitting(universe, sets, budget):
    """Game value by raw minimax over every legal move, no pruning tricks.

    True iff the first player forces completion of a hitting set within
    `budget` total moves; the mover who completes it wins, and running out
    of budget is a loss for the first player.
    """

    def hits_all(chosen):
        return all(s & chosen for s in sets)

    def value(chosen, moves_left, mover_is_one):
        if moves_left == 0:
            return False
        for e in universe:
            if e in chosen:
                continue
            grown = chosen | {e}
            if hits_all(grown):
                if mover_is_one:
                    return True
                return False
            sub = value(grown, moves_left - 1, not mover_is_one)
            if mover_is_one and sub:
                return True
            if not mover_is_one and not sub:
                return False
        return not mover_is_one

    return value(frozenset(), budget, True)


def cnf_true_under(clauses, true_vars):
    """Does setting exactly true_vars to true satisfy every clause?"""
    return all(
        any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
        for clause in clauses
    )


def cnf_weight_k_satisfiable(num_vars, clauses, k):
    """Subset-enumeration oracle for weight-at-most-k satisfiability."""
    for r in range(k + 1):
        for combo in itertools.combinations(range(1, num_vars + 1), r):
            if cnf_true_under(clauses, set(combo)):
                return True
    return False


# ---------------------------------------------------------------------------
# per-bit graph6 decoder and pairwise witness check


def reference_parse_graph6(line):
    """graph6 decoder that tests every bit of the triangle in Python."""

    def byte(ch):
        val = ord(ch)
        if not 63 <= val <= 126:
            raise GraphFormatError(f"illegal graph6 byte {val!r} ({ch!r})")
        return val - 63

    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 line")

    vals = [byte(c) for c in s]
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
    while k < 6 * nbytes:
        if body[k // 6] & (1 << (5 - k % 6)):
            raise GraphFormatError("nonzero padding in graph6 bit-vector")
        k += 1
    return Graph(n, edges)


def reference_verify_isomorphism(g, h, f):
    """Witness check that compares every vertex pair of g with its image."""
    n = g.n
    if h.n != n or len(f) != n or sorted(f) != list(range(n)):
        return False
    return all(
        (v in g.adj[u]) == (f[v] in h.adj[f[u]])
        for u in range(n)
        for v in range(u + 1, n)
    )
