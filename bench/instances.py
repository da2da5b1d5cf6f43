"""Seeded instance generators and their certificates.

Graphs are lists of adjacency bitmasks (``adj[v]`` has bit ``u`` set iff uv
is an edge). Nothing here imports kviso: every expected answer is known from
how the instance was built and is certified by the checks in this module.

- An isomorphic pair is a graph and a seeded relabelling of it; the answer's
  witness is checked edge by edge (``check_witness``).
- A non-isomorphic pair has equal n, m and degree sequence, and joint colour
  refinement (1-WL) gives the two graphs different colour-class histograms
  (``wl_separates``). The generator retries until that holds.
- A distance-exceeded input carries k+1 vertex-disjoint forbidden
  occurrences (``check_occurrences``); both graphs of the pair exceed k.

Within-distance inputs are built as a base-class graph plus a planted
deletion set of size k, so their distance is at most k by construction.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# bitmask graphs


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def add_edge(adj: list[int], u: int, v: int) -> None:
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def remove_edge(adj: list[int], u: int, v: int) -> None:
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)


def has_edge(adj: list[int], u: int, v: int) -> bool:
    return (adj[u] >> v) & 1 == 1


def num_edges(adj: list[int]) -> int:
    return sum(a.bit_count() for a in adj) // 2


def degree_sequence(adj: list[int]) -> list[int]:
    return sorted(a.bit_count() for a in adj)


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Image of the graph under v -> perm[v]."""
    out = [0] * len(adj)
    for u, row in enumerate(adj):
        img = 0
        for v in iter_bits(row):
            img |= 1 << perm[v]
        out[perm[u]] = img
    return out


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def shuffled(rng: random.Random, adj: list[int]) -> tuple[list[int], list[int]]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return relabel(adj, perm), perm


def to_graph6(adj: list[int]) -> str:
    """One graph6 line (no newline) for n <= 258047."""
    n = len(adj)
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this encoder")
    # bit k of the upper triangle, column by column, is pair (u, v) with
    # k = v(v-1)/2 + u; each byte carries six bits, high bit first
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v in range(1, n):
        base = v * (v - 1) // 2
        for u in iter_bits(adj[v] & ((1 << v) - 1)):
            k = base + u
            body[k // 6] |= 32 >> (k % 6)
    return head + bytes(b + 63 for b in body).decode("ascii")


# ---------------------------------------------------------------------------
# certificates


def check_witness(adj1: list[int], adj2: list[int], witness) -> bool:
    """Is witness a bijection mapping every edge of g1 onto an edge of g2?

    With equal edge counts, an injective edge map is onto, so the check also
    rules out extra edges in g2.
    """
    n = len(adj1)
    if len(adj2) != n or len(witness) != n:
        return False
    if sorted(witness) != list(range(n)):
        return False
    if num_edges(adj1) != num_edges(adj2):
        return False
    for u, row in enumerate(adj1):
        fu = witness[u]
        for v in iter_bits(row):
            if v > u and not has_edge(adj2, fu, witness[v]):
                return False
    return True


def wl_separates(adj1: list[int], adj2: list[int]) -> bool:
    """Does colour refinement give the two graphs different histograms?

    Both graphs are refined together, so one colour id means the same
    signature in either; a histogram difference proves non-isomorphism.
    """
    if len(adj1) != len(adj2):
        return True
    nbrs = [[list(iter_bits(row)) for row in adj] for adj in (adj1, adj2)]
    cols = [[row.bit_count() for row in adj] for adj in (adj1, adj2)]
    classes = -1
    while True:
        if Counter(cols[0]) != Counter(cols[1]):
            return True
        now = len(set(cols[0]) | set(cols[1]))
        if now == classes:
            return False
        classes = now
        ids: dict = {}
        new = []
        for col, nb in zip(cols, nbrs):
            new.append([
                ids.setdefault((col[v], tuple(sorted(col[u] for u in nb[v]))), len(ids))
                for v in range(len(col))
            ])
        cols = new


def _shape(adj: list[int], vs) -> tuple[int, tuple[int, ...]]:
    mask = 0
    for v in vs:
        mask |= 1 << v
    degs = sorted((adj[v] & mask).bit_count() for v in vs)
    return sum(degs) // 2, tuple(degs)


# Forbidden patterns as edge lists. On at most four vertices, the edge count
# and the sorted degrees identify a graph up to isomorphism.
PATTERNS = {
    "P3": ((0, 1), (1, 2)),
    "P4": ((0, 1), (1, 2), (2, 3)),
    "C4": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "2K2": ((0, 1), (2, 3)),
}


def _pattern_graph(pattern: str) -> list[int]:
    edges = PATTERNS[pattern]
    adj = [0] * (1 + max(v for e in edges for v in e))
    for u, v in edges:
        add_edge(adj, u, v)
    return adj


def induces(adj: list[int], vs, pattern: str) -> bool:
    pat = _pattern_graph(pattern)
    return len(vs) == len(set(vs)) == len(pat) and _shape(adj, vs) == _shape(pat, range(len(pat)))


def are_twins(adj: list[int], u: int, v: int) -> bool:
    return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)


def check_occurrences(adj: list[int], occurrences, patterns, need: int) -> bool:
    """At least `need` pairwise disjoint sets, each inducing an allowed pattern.

    The pattern "K2~" is an edge whose endpoints are not twins, the twin-cover
    obstruction: every twin cover contains an endpoint of it.
    """
    if len(occurrences) < need:
        return False
    used = set()
    for occ in occurrences:
        if used & set(occ):
            return False
        used |= set(occ)
        if "K2~" in patterns and len(occ) == 2:
            u, v = occ
            if has_edge(adj, u, v) and not are_twins(adj, u, v):
                continue
        if not any(p in PATTERNS and induces(adj, occ, p) for p in patterns):
            return False
    return True


# ---------------------------------------------------------------------------
# base classes (all vertices 0..n-1, unshuffled)


def cograph(rng: random.Random, n: int, part: int) -> list[int]:
    """Disjoint union of random cotrees on `part` vertices each (the last
    may be smaller); equal parts keep the density steady between seeds."""
    adj = [0] * n

    def build(vs: list[int], join: bool) -> None:
        if len(vs) <= 1:
            return
        cut = rng.randint(1, len(vs) - 1)
        left, right = vs[:cut], vs[cut:]
        if join:
            lm = sum(1 << v for v in left)
            rm = sum(1 << v for v in right)
            for v in left:
                adj[v] |= rm
            for v in right:
                adj[v] |= lm
        build(left, not join)
        build(right, not join)

    for v in range(0, n, part):
        build(list(range(v, min(v + part, n))), True)
    return adj


def cliques(rng: random.Random, n: int, max_size: int) -> list[list[int]]:
    parts, v = [], 0
    while v < n:
        size = min(rng.randint(1, max_size), n - v)
        parts.append(list(range(v, v + size)))
        v += size
    return parts


def cluster(rng: random.Random, n: int, max_size: int) -> list[int]:
    adj = [0] * n
    for part in cliques(rng, n, max_size):
        mask = sum(1 << v for v in part)
        for v in part:
            adj[v] |= mask & ~(1 << v)
    return adj


def threshold(rng: random.Random, n: int) -> list[int]:
    """Add vertices one at a time, each isolated or dominating."""
    adj = [0] * n
    for v in range(1, n):
        if rng.random() < 0.5:
            for u in range(v):
                add_edge(adj, u, v)
    return adj


def plant(rng: random.Random, base: list[int], k: int, p: float) -> tuple[list[int], list[int]]:
    """Append k vertices joined to each base vertex with probability p.

    The planted vertices are pairwise non-adjacent, so every ordering of
    them preserves their edges and the engine runs each one.
    """
    n = len(base) + k
    adj = base + [0] * k
    for w in range(len(base), n):
        for v in range(len(base)):
            if rng.random() < p:
                add_edge(adj, v, w)
    return adj, list(range(len(base), n))


# ---------------------------------------------------------------------------
# degree-preserving perturbations for non-isomorphic partners


def swap_planted(rng: random.Random, adj: list[int], planted: list[int]) -> list[int] | None:
    """Move two planted-to-base edges, keeping every degree and the base graph.

    p1-a and p2-b become p1-b and p2-a for planted p1, p2 and base a, b. The
    base graph is untouched, so the planted set still certifies the distance.
    Threshold graphs are fixed by their degree sequence, so at k = 1 no
    degree-preserving partner exists in this form; callers need k >= 2.
    """
    if len(planted) < 2:
        raise ValueError("a non-isomorphic partner needs two planted vertices")
    pmask = sum(1 << p for p in planted)
    p1, p2 = rng.sample(planted, 2)
    a_opts = list(iter_bits(adj[p1] & ~adj[p2] & ~pmask))
    b_opts = list(iter_bits(adj[p2] & ~adj[p1] & ~pmask))
    if not a_opts or not b_opts:
        return None
    a, b = rng.choice(a_opts), rng.choice(b_opts)
    adj = adj[:]
    remove_edge(adj, p1, a)
    remove_edge(adj, p2, b)
    add_edge(adj, p1, b)
    add_edge(adj, p2, a)
    return adj


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    name: str
    param: str
    k: int
    kind: str  # "iso", "noniso" or "exceeded"
    g1: list[int]
    g2: list[int]
    occurrences: tuple = ()  # exceeded: (in g1, in g2)

    @property
    def n(self) -> int:
        return len(self.g1)

    @property
    def expected(self) -> str:
        return {
            "iso": "isomorphic",
            "noniso": "non-isomorphic",
            "exceeded": "distance-exceeded",
        }[self.kind]

    @property
    def exit_code(self) -> int:
        return {"iso": 0, "noniso": 1, "exceeded": 2}[self.kind]


class CertificateError(RuntimeError):
    """A generated instance failed its own certificate."""


EXCEED_PATTERNS = {
    "dist-cograph": ("P4",),
    "dist-cluster": ("P3",),
    "dist-threshold": ("P4", "C4", "2K2"),
    "twin-cover": ("K2~",),
}


def _structure(rng, param, n, k):
    """A within-distance graph and a perturbation giving a non-iso partner."""
    if param == "twin-cover":
        return _twin_cover_structure(rng, n, k)
    if param == "dist-cograph":
        base = cograph(rng, n - k, part=100)
    elif param == "dist-cluster":
        base = cluster(rng, n - k, max_size=24)
    else:  # dist-threshold
        base = threshold(rng, n - k)
    # a planted vertex sees 2% of the base on the sparse classes, and at
    # least four vertices on small graphs
    p = 0.5 if param == "dist-threshold" else max(0.02, 4 / n)
    adj, planted = plant(rng, base, k, p)
    return adj, lambda r: swap_planted(r, adj, planted)


def _twin_cover_structure(rng, n, k):
    """k cover vertices plus cliques, each clique attached to a cover subset."""
    cover = list(range(k))
    parts = cliques(rng, n - k, max_size=max(2, min(16, n // 40)))
    parts = [[v + k for v in part] for part in parts]
    attach = [[c for c in cover if rng.random() < 0.3] for _ in parts]
    cover_edges = [(a, b) for a in cover for b in cover if a < b and rng.random() < 0.5]

    def build(att):
        adj = [0] * n
        for a, b in cover_edges:
            add_edge(adj, a, b)
        for part, cs in zip(parts, att):
            mask = sum(1 << v for v in part)
            for v in part:
                adj[v] |= mask & ~(1 << v)
                for c in cs:
                    add_edge(adj, v, c)
        return adj

    def perturb(r):
        # two equal-size cliques trade one cover vertex each: p leaves A for
        # B and q leaves B for A, so every degree stays the same
        if len(parts) < 2:
            return None
        i, j = r.sample(range(len(parts)), 2)
        if len(parts[i]) != len(parts[j]):
            return None
        only_i = [c for c in attach[i] if c not in attach[j]]
        only_j = [c for c in attach[j] if c not in attach[i]]
        if not only_i or not only_j:
            return None
        p, q = r.choice(only_i), r.choice(only_j)
        att = [list(cs) for cs in attach]
        att[i] = sorted(set(att[i]) - {p} | {q})
        att[j] = sorted(set(att[j]) - {q} | {p})
        return build(att)

    return build(attach), perturb


def gadget(rng: random.Random, n: int, h: int, r: int):
    """Vertex-cover gadget with 2^r minimum covers of size h + r.

    h pairwise non-adjacent high vertices have degree above h + r, so every
    small cover contains them. r disjoint edges a_i b_i have both endpoints
    joined to every high vertex, so either endpoint completes a cover, all
    2^r choices are symmetric, and h! r! anchor orders per cover preserve
    the anchor's edges. Leaves see random subsets of the high vertices.
    """
    k = h + r
    high = list(range(h))
    hmask = (1 << h) - 1
    adj = [0] * n
    v = h
    for _ in range(r):
        add_edge(adj, v, v + 1)
        for w in (v, v + 1):
            adj[w] |= hmask
            for c in high:
                adj[c] |= 1 << w
        v += 2
    leaves = list(range(v, n))
    for leaf in leaves:
        for c in high:
            if rng.random() < 0.5:
                add_edge(adj, leaf, c)
    for c in high:
        spare = [leaf for leaf in leaves if not has_edge(adj, leaf, c)]
        rng.shuffle(spare)
        while adj[c].bit_count() <= k:
            if not spare:
                raise ValueError("too few leaves to force the high vertices")
            add_edge(adj, spare.pop(), c)

    def perturb(r_):
        # leaf x trades high neighbour c1 for c2 and leaf y the reverse
        x, y = r_.sample(leaves, 2)
        c1, c2 = r_.sample(high, 2)
        if not (has_edge(adj, x, c1) and has_edge(adj, y, c2)):
            return None
        if has_edge(adj, x, c2) or has_edge(adj, y, c1):
            return None
        g = adj[:]
        remove_edge(g, x, c1)
        remove_edge(g, y, c2)
        add_edge(g, x, c2)
        add_edge(g, y, c1)
        return g

    return adj, perturb


def _plant_occurrences(rng, adj, patterns, count):
    """Rewrite the edges inside `count` disjoint vertex sets into patterns.

    Returns (graph, occurrences), or None when the graph has no room.
    """
    adj = adj[:]
    order = list(range(len(adj)))
    rng.shuffle(order)
    occs = []
    for _ in range(count):
        pat = rng.choice(patterns)
        if pat == "K2~":
            # joining two non-adjacent vertices whose neighbourhoods differ
            # gives an edge whose endpoints are not twins
            u = order.pop()
            v = next((w for w in order if not has_edge(adj, u, w) and adj[w] != adj[u]), None)
            if v is None:
                return None
            order.remove(v)
            add_edge(adj, u, v)
            occs.append((u, v))
            continue
        vs = [order.pop() for _ in _pattern_graph(pat)]
        for i, j in itertools.combinations(range(len(vs)), 2):
            remove_edge(adj, vs[i], vs[j])
        for i, j in PATTERNS[pat]:
            add_edge(adj, vs[i], vs[j])
        occs.append(tuple(vs))
    return adj, occs


def make_instance(seed_key: str, param: str, n: int, k: int, kind: str, h: int = 0) -> Instance:
    """Build one certified instance from a seed string.

    For the vertex-cover route (`vc`, `dist-clique`) the graph is a gadget
    with h high vertices and k - h symmetric edges; `dist-clique` stores its
    complement.
    """
    rng = random.Random(seed_key)
    name = f"{param}-n{n}-k{k}-{kind}"
    for _attempt in range(200):
        if param in ("vc", "dist-clique"):
            g, perturb = gadget(rng, n, h, k - h)
        else:
            g, perturb = _structure(rng, param, n, k)
        if kind == "iso":
            g1, _ = shuffled(rng, g)
            g2, _ = shuffled(rng, g1)
            inst = Instance(name, param, k, kind, g1, g2)
        elif kind == "noniso":
            g2 = None
            for _try in range(200):
                g2 = perturb(rng)
                if g2 is not None and wl_separates(g, g2):
                    break
            else:
                continue  # this base admits no separating swap; rebuild it
            g1, _ = shuffled(rng, g)
            g2, _ = shuffled(rng, g2)
            inst = Instance(name, param, k, kind, g1, g2)
        else:
            planted = _plant_occurrences(rng, g, EXCEED_PATTERNS[param], k + 1)
            if planted is None:
                continue
            g, occs = planted
            g1, perm1 = shuffled(rng, g)
            g2, perm2 = shuffled(rng, g1)
            occs1 = [tuple(perm1[v] for v in occ) for occ in occs]
            occs2 = [tuple(perm2[v] for v in occ) for occ in occs1]
            inst = Instance(name, param, k, kind, g1, g2, (occs1, occs2))
        if param == "dist-clique":
            inst.g1 = complement(inst.g1)
            inst.g2 = complement(inst.g2)
        certify(inst)
        return inst
    raise CertificateError(f"{name}: no certified instance from seed {seed_key!r}")


def certify(inst: Instance) -> None:
    """Raise CertificateError unless the instance's own certificate holds."""
    g1, g2 = inst.g1, inst.g2
    if len(g1) != len(g2) or num_edges(g1) != num_edges(g2):
        raise CertificateError(f"{inst.name}: n or m differ")
    if degree_sequence(g1) != degree_sequence(g2):
        raise CertificateError(f"{inst.name}: degree sequences differ")
    if inst.kind == "noniso" and not wl_separates(g1, g2):
        raise CertificateError(f"{inst.name}: colour refinement does not separate")
    if inst.kind == "exceeded":
        pats = EXCEED_PATTERNS[inst.param]
        for g, occs in zip((g1, g2), inst.occurrences):
            if not check_occurrences(g, occs, pats, inst.k + 1):
                raise CertificateError(f"{inst.name}: planted occurrences do not hold")


# ---------------------------------------------------------------------------
# workloads: a grid of cells (param, n, k, kind, h). A run goes through
# rounds, each holding one fresh instance per cell, so a run averages over
# many random draws of every cell; the seed only changes the random content.
# The warm-up op of set-up is an instance of the first cell, so that cell is
# a cheap one.

WORKLOADS = {
    # parsing, per-bijection remainder graphs, the P3/P4 finders and cotree
    # codes at sizes where n dominates. Tiered: six cheap cells (about
    # 0.05-0.1 s an op), six cluster cells at n = 400, k = 3 (0.14 s) that
    # hold the median op, four middle cells (0.19-0.27 s) and four dear ones
    # (0.5-0.95 s), whose three of 0.5-0.6 s hold p90. Tiers alternate
    # through the round.
    "large-remainder": [
        ("dist-cluster", 400, 2, "exceeded", 0),
        ("dist-cluster", 400, 3, "iso", 0),
        ("dist-cograph", 400, 3, "noniso", 0),
        ("twin-cover", 400, 3, "noniso", 0),
        ("dist-cluster", 400, 3, "noniso", 0),
        ("dist-cograph", 400, 2, "iso", 0),
        ("twin-cover", 400, 4, "exceeded", 0),
        ("dist-cluster", 400, 3, "iso", 0),
        ("dist-cluster", 1600, 2, "exceeded", 0),
        ("twin-cover", 400, 2, "iso", 0),
        ("dist-cluster", 400, 3, "noniso", 0),
        ("dist-cograph", 400, 3, "exceeded", 0),
        ("dist-cluster", 400, 2, "iso", 0),
        ("dist-cograph", 800, 2, "noniso", 0),
        ("dist-cluster", 400, 3, "iso", 0),
        ("twin-cover", 800, 3, "iso", 0),
        ("twin-cover", 400, 4, "exceeded", 0),
        ("twin-cover", 1600, 3, "iso", 0),
        ("dist-cluster", 400, 3, "noniso", 0),
        ("dist-cograph", 400, 2, "noniso", 0),
    ],
    # the generic subset scan of the threshold family; non-isomorphic pairs
    # need k = 2 (see swap_planted), and cells at n >= 28 are left out: their
    # cost varies 10x between seeds, which no run length here averages out.
    # Tiered like anchor-search: four cheap exceeded cells (about 0.02-0.05 s
    # an op), six middle cells (0.15-0.25 s) that hold the median op, and two
    # n = 22 cells (0.35 s) that hold p90. A percentile in the gap between
    # two tiers jumps from seed to seed.
    "forbidden-scan": [
        ("dist-threshold", 16, 1, "exceeded", 0),
        ("dist-threshold", 18, 1, "iso", 0),
        ("dist-threshold", 22, 1, "iso", 0),
        ("dist-threshold", 18, 2, "exceeded", 0),
        ("dist-threshold", 18, 2, "noniso", 0),
        ("dist-threshold", 20, 1, "iso", 0),
        ("dist-threshold", 20, 1, "exceeded", 0),
        ("dist-threshold", 18, 1, "iso", 0),
        ("dist-threshold", 22, 1, "iso", 0),
        ("dist-threshold", 24, 1, "exceeded", 0),
        ("dist-threshold", 16, 2, "noniso", 0),
        ("dist-threshold", 18, 2, "iso", 0),
    ],
    # many symmetric candidate covers: the anchor-bijection loop. The cells
    # are tiered so that the median op and p90 fall inside groups of cells
    # of similar cost rather than on the edge between two tiers, and the
    # tiers alternate through the round so that a slow or fast spell of the
    # machine does not fall on one tier.
    "anchor-search": [
        ("vc", 100, 5, "noniso", 3),
        ("dist-clique", 300, 5, "iso", 3),
        ("vc", 200, 6, "iso", 3),
        ("dist-clique", 200, 6, "noniso", 3),
        ("vc", 100, 7, "noniso", 3),
        ("dist-clique", 100, 7, "iso", 3),
        ("dist-clique", 300, 5, "noniso", 3),
        ("vc", 200, 6, "noniso", 3),
        ("dist-clique", 200, 6, "iso", 3),
        ("dist-clique", 300, 6, "noniso", 3),
        ("dist-clique", 100, 7, "noniso", 3),
        ("vc", 300, 7, "iso", 3),
        ("dist-clique", 300, 6, "iso", 3),
        ("vc", 100, 6, "noniso", 3),
        ("dist-clique", 200, 5, "noniso", 3),
        ("vc", 300, 6, "noniso", 3),
        ("dist-clique", 300, 7, "iso", 3),
        ("dist-clique", 200, 7, "noniso", 3),
    ],
}


def build_round(workload: str, seed: int | str, r: int) -> list[Instance]:
    """Round r of a workload: every cell of its grid once, in table order."""
    return [
        make_instance(f"{workload}:{seed}:{r}:{i}", *cell)
        for i, cell in enumerate(WORKLOADS[workload])
    ]
