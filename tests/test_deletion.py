"""Deletion-set search, the vertex cover kernel, and twin covers."""

import itertools
import random

import pytest

import helpers
from kviso.deletion import (
    DeletionSet,
    SearchStats,
    buss_kernel,
    enumerate_deletion_sets,
    enumerate_minimal_vertex_covers,
    enumerate_occurrences,
    enumerate_twin_covers,
    minimum_deletion_set,
    remove_twin_edges,
)
from kviso.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    mask_components,
    path_graph,
    star_graph,
)
from kviso.oracle import brute_force_deletion_sets
from kviso.recognition import builtin_family, is_member


def vert_sets(deletion_sets):
    return [ds.vertices for ds in deletion_sets]


def test_deletion_set_validation():
    with pytest.raises(ValueError):
        DeletionSet((2, 1), "cograph")
    with pytest.raises(ValueError):
        DeletionSet((1, 1), "cograph")
    assert DeletionSet((), "cograph").vertices == ()


def test_enumerate_occurrences_examples():
    cog = builtin_family("cograph")
    assert enumerate_occurrences(path_graph(4), cog) == [(0, 1, 2, 3)]
    assert enumerate_occurrences(cycle_graph(4), cog) == []
    assert enumerate_occurrences(path_graph(5), cog) == [(0, 1, 2, 3), (1, 2, 3, 4)]


def test_enumerate_deletion_sets_examples():
    cog = builtin_family("cograph")
    assert vert_sets(enumerate_deletion_sets(path_graph(4), cog, 1)) == [
        (0,),
        (1,),
        (2,),
        (3,),
    ]
    assert vert_sets(enumerate_deletion_sets(cycle_graph(4), cog, 2)) == [()]
    assert enumerate_deletion_sets(cycle_graph(5), cog, 1) == []
    with pytest.raises(ValueError):
        enumerate_deletion_sets(path_graph(4), cog, -1)


def test_minimum_deletion_set_examples():
    cog = builtin_family("cograph")
    best = minimum_deletion_set(cycle_graph(5), cog, 2)
    assert best.vertices == (0, 1) and best.family == "cograph"
    assert minimum_deletion_set(cycle_graph(4), cog, 2).vertices == ()
    assert minimum_deletion_set(cycle_graph(5), cog, 1) is None


def test_deletion_sets_match_brute_force():
    rng = random.Random(47)
    fams = [builtin_family(n) for n in ["cograph", "cluster", "edgeless", "threshold"]]
    for trial in range(120):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        fam = fams[trial % 4]
        k = rng.randint(0, 3)
        got = vert_sets(enumerate_deletion_sets(g, fam, k))
        want = vert_sets(brute_force_deletion_sets(g, fam, k))
        assert got == want


def test_deletion_sets_hit_every_occurrence():
    rng = random.Random(53)
    cog = builtin_family("cograph")
    for _ in range(40):
        g = helpers.random_graph(rng, rng.randint(4, 9))
        occs = enumerate_occurrences(g, cog)
        for ds in enumerate_deletion_sets(g, cog, 3):
            vs = set(ds.vertices)
            assert all(vs & set(occ) for occ in occs)
            rest = [v for v in range(g.n) if v not in vs]
            assert is_member(induced_subgraph(g, rest)[0], cog)


def test_search_tree_node_bound():
    rng = random.Random(59)
    for fam_name in ["cograph", "cluster", "threshold", "edgeless"]:
        fam = builtin_family(fam_name)
        bound_base = fam.d
        for _ in range(25):
            g = helpers.random_graph(rng, rng.randint(1, 9))
            k = rng.randint(0, 3)
            stats = SearchStats()
            enumerate_deletion_sets(g, fam, k, stats)
            assert stats.nodes <= sum(bound_base**i for i in range(k + 1))


def test_buss_kernel_examples():
    kd = buss_kernel(star_graph(5), 2)
    assert kd.high == (0,) and kd.low == () and kd.b == 1
    kd = buss_kernel(empty_graph(4), 3)
    assert kd.high == () and kd.low == ()
    assert buss_kernel(complete_graph(5), 2) is None
    with pytest.raises(ValueError):
        buss_kernel(path_graph(2), -1)


def test_buss_kernel_soundness():
    rng = random.Random(61)
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5]))
        k = rng.randint(0, 5)
        vc = helpers.min_vertex_cover_size(g)
        kd = buss_kernel(g, k)
        if kd is None:
            assert vc > k
        else:
            assert len(kd.low) <= (k - kd.b) * (k + 1)
            assert all(g.degree(v) > k for v in kd.high)
            assert all(g.degree(v) <= k for v in kd.low)
            # no edge escapes the high/low parts
            hl = set(kd.high) | set(kd.low)
            assert all(u in hl or v in hl for u, v in g.edges())


def test_minimal_vertex_cover_examples():
    assert vert_sets(enumerate_minimal_vertex_covers(path_graph(3), 2)) == [
        (1,),
        (0, 2),
    ]
    assert vert_sets(enumerate_minimal_vertex_covers(complete_graph(2), 1)) == [
        (0,),
        (1,),
    ]
    assert vert_sets(enumerate_minimal_vertex_covers(cycle_graph(4), 2)) == [
        (0, 2),
        (1, 3),
    ]
    assert enumerate_minimal_vertex_covers(path_graph(3), 0) == []
    assert vert_sets(enumerate_minimal_vertex_covers(empty_graph(3), 0)) == [()]


def brute_minimal_covers(g, k):
    """Reference: scan all subsets, keep covers, filter to minimal."""
    covers = [
        set(c)
        for r in range(k + 1)
        for c in itertools.combinations(range(g.n), r)
        if helpers.is_vertex_cover(g, c)
    ]
    out = [c for c in covers if not any(o < c for o in covers)]
    return sorted((tuple(sorted(c)) for c in out), key=lambda vs: (len(vs), vs))


def test_minimal_vertex_covers_match_brute_force():
    rng = random.Random(67)
    for _ in range(120):
        g = helpers.random_graph(rng, rng.randint(1, 10), rng.choice([0.15, 0.35]))
        k = rng.randint(0, 4)
        got = vert_sets(enumerate_minimal_vertex_covers(g, k))
        assert got == brute_minimal_covers(g, k)
        assert len(got) <= 2**k


def test_vertex_cover_routes_agree():
    # the kernel route and the generic search tree over the one-edge family
    # must produce identical collections
    rng = random.Random(71)
    edgeless = builtin_family("edgeless")
    for _ in range(80):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        k = rng.randint(0, 3)
        kernel_route = vert_sets(enumerate_minimal_vertex_covers(g, k))
        tree_route = vert_sets(enumerate_deletion_sets(g, edgeless, k))
        assert kernel_route == tree_route


def test_remove_twin_edges():
    k4p = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    stripped = remove_twin_edges(k4p)
    # 1,2,3 are mutual twins; their triangle disappears, the rest stays
    assert stripped.edges() == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert remove_twin_edges(complete_graph(4)) == empty_graph(4)
    assert remove_twin_edges(path_graph(3)) == path_graph(3)


def test_twin_cover_examples():
    k4p = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    assert vert_sets(enumerate_twin_covers(k4p, 1)) == [(0,)]
    assert vert_sets(enumerate_twin_covers(complete_graph(6), 0)) == [()]
    assert vert_sets(enumerate_twin_covers(path_graph(3), 1)) == [(1,)]
    assert enumerate_twin_covers(k4p, 1)[0].family == "twin-cover"


def test_twin_cover_leaves_cliques():
    rng = random.Random(73)
    for _ in range(60):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        for ds in enumerate_twin_covers(g, 3):
            rest = [v for v in range(g.n) if v not in ds.vertices]
            sub, _ = induced_subgraph(g, rest)
            assert is_member(sub, builtin_family("cluster"))


def test_twin_cover_cliques_attach_uniformly():
    # the cluster backend colours a twin cover's remainder by attachment;
    # every remainder clique must see one set of cover vertices, since its
    # members are pairwise twins in g
    rng = random.Random(79)
    checked = 0
    for _ in range(300):
        extra = rng.randint(0, 4)
        base = helpers.random_cluster(rng, rng.randint(1, 12 - extra))
        g, _ = helpers.permuted_copy(
            rng, helpers.plant_deletion_vertices(rng, base, extra)
        )
        for ds in enumerate_twin_covers(g, rng.randint(0, 4)):
            cover = sum(1 << v for v in ds.vertices)
            rest = ((1 << g.n) - 1) & ~cover
            for comp in mask_components(g.adj_bits, rest):
                members = [v for v in range(g.n) if comp >> v & 1]
                assert len({g.adj_bits[v] & cover for v in members}) == 1
            checked += 1
    assert checked > 200


def test_twin_cover_of_disjoint_cliques_is_empty_set():
    g = disjoint_union(complete_graph(3), complete_graph(4))
    assert vert_sets(enumerate_twin_covers(g, 2)) == [()]
