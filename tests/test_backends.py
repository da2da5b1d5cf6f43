"""Colored-isomorphism backends: censuses and cotree canonization."""

import itertools
import random

import pytest

import helpers
from kviso.backends import (
    CotreeLeaf,
    CotreeNode,
    NotClusterError,
    NotCographError,
    NotEdgelessError,
    build_cotree,
    canonical_code,
    cluster_census,
    colored_gi_cluster,
    colored_gi_cograph,
    colored_gi_independent,
    cotree_leaves,
    cotree_to_graph,
    independent_census,
)
from kviso.graphs import (
    ColoredGraph,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    relabel,
    verify_colored_isomorphism,
)
from kviso.oracle import brute_force_colored_gi
from kviso.recognition import builtin_family, is_member


def mono(g):
    return ColoredGraph(g, [0] * g.n)


def random_coloring(rng, g, num_colors):
    return ColoredGraph(g, [rng.randrange(num_colors) for _ in range(g.n)])


# ---------------------------------------------------------------------------
# edgeless backend


def test_independent_census_examples():
    cg = ColoredGraph(empty_graph(3), ["a", "a", "b"])
    assert independent_census(cg) == {"a": 2, "b": 1}
    assert independent_census(ColoredGraph(empty_graph(0), [])) == {}
    cg = ColoredGraph(empty_graph(4), ["a"] * 4)
    assert independent_census(cg) == {"a": 4}
    with pytest.raises(NotEdgelessError):
        independent_census(mono(complete_graph(2)))


def test_colored_gi_independent_examples():
    cg1 = ColoredGraph(empty_graph(3), ["a", "a", "b"])
    cg2 = ColoredGraph(empty_graph(3), ["b", "a", "a"])
    res = colored_gi_independent(cg1, cg2)
    assert res.isomorphic
    assert verify_colored_isomorphism(cg1, cg2, res.witness)
    res = colored_gi_independent(
        ColoredGraph(empty_graph(2), ["a", "a"]),
        ColoredGraph(empty_graph(2), ["a", "b"]),
    )
    assert not res.isomorphic and res.witness is None
    res = colored_gi_independent(
        ColoredGraph(empty_graph(0), []), ColoredGraph(empty_graph(0), [])
    )
    assert res.isomorphic and res.witness == ()


# ---------------------------------------------------------------------------
# cluster backend


def test_cluster_census_examples():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    cg = ColoredGraph(g, ["a", "a", "a", "a", "a", "b"])
    assert cluster_census(cg) == {("a", "a", "a"): 1, ("a", "a", "b"): 1}
    cg = ColoredGraph(empty_graph(2), ["a", "a"])
    assert cluster_census(cg) == {("a",): 2}
    with pytest.raises(NotClusterError):
        cluster_census(mono(cycle_graph(4)))


def test_colored_gi_cluster_examples():
    g1 = disjoint_union(complete_graph(3), empty_graph(1))
    g2 = disjoint_union(empty_graph(1), complete_graph(3))
    res = colored_gi_cluster(mono(g1), mono(g2))
    assert res.isomorphic
    assert verify_colored_isomorphism(mono(g1), mono(g2), res.witness)

    g3 = disjoint_union(complete_graph(2), empty_graph(1))
    res = colored_gi_cluster(mono(complete_graph(3)), mono(g3))
    assert not res.isomorphic

    pairs = disjoint_union(complete_graph(2), complete_graph(2))
    res = colored_gi_cluster(mono(pairs), mono(complete_graph(4)))
    assert not res.isomorphic
    assert not brute_force_colored_gi(mono(pairs), mono(complete_graph(4))).isomorphic


def test_colored_gi_cluster_color_mismatch_within_clique():
    cg1 = ColoredGraph(complete_graph(2), ["a", "b"])
    cg2 = ColoredGraph(complete_graph(2), ["a", "a"])
    assert not colored_gi_cluster(cg1, cg2).isomorphic
    cg3 = ColoredGraph(complete_graph(2), ["b", "a"])
    res = colored_gi_cluster(cg1, cg3)
    assert res.isomorphic
    assert verify_colored_isomorphism(cg1, cg3, res.witness)


# ---------------------------------------------------------------------------
# cotree construction


def test_build_cotree_examples():
    t = build_cotree(path_graph(3))
    assert isinstance(t, CotreeNode) and t.kind == "join"
    kids = set()
    for child in t.children:
        if isinstance(child, CotreeLeaf):
            kids.add(("leaf", child.vertex))
        else:
            kids.add((child.kind, frozenset(c.vertex for c in child.children)))
    assert kids == {("leaf", 1), ("union", frozenset({0, 2}))}

    assert build_cotree(path_graph(4)) is None
    assert build_cotree(complete_graph(1)) == CotreeLeaf(0)
    with pytest.raises(ValueError):
        build_cotree(empty_graph(0))


def test_cotree_matches_recognition():
    rng = random.Random(79)
    cog = builtin_family("cograph")
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(1, 8))
        assert (build_cotree(g) is None) == (not is_member(g, cog))


def test_cotree_round_trip():
    rng = random.Random(83)
    done = 0
    while done < 80:
        g = helpers.random_cograph(rng, rng.randint(1, 10))
        t = build_cotree(g)
        assert t is not None
        assert cotree_to_graph(t, g.n) == g
        assert sorted(cotree_leaves(t)) == list(range(g.n))
        done += 1


def test_cotree_alternation_and_arity():
    rng = random.Random(89)
    def check(node, parent_kind):
        if isinstance(node, CotreeLeaf):
            return
        assert node.kind != parent_kind
        assert len(node.children) >= 2
        for c in node.children:
            check(c, node.kind)
    for _ in range(60):
        t = build_cotree(helpers.random_cograph(rng, rng.randint(1, 9)))
        check(t, None)


# ---------------------------------------------------------------------------
# canonical codes


def test_canonical_code_examples():
    leaf_a = canonical_code(CotreeLeaf(0), ["a"])
    leaf_b = canonical_code(CotreeLeaf(0), ["b"])
    assert isinstance(leaf_a, bytes) and leaf_a != leaf_b

    two = empty_graph(2)
    code_ab = canonical_code(build_cotree(two), ["a", "b"])
    code_ba = canonical_code(build_cotree(two), ["b", "a"])
    assert code_ab == code_ba

    p3 = path_graph(3)
    center = canonical_code(build_cotree(p3), ["x", "y", "x"])
    end = canonical_code(build_cotree(p3), ["x", "x", "y"])
    assert center != end
    assert not brute_force_colored_gi(
        ColoredGraph(p3, ["x", "y", "x"]), ColoredGraph(p3, ["x", "x", "y"])
    ).isomorphic


def test_canonical_code_relabel_invariance():
    rng = random.Random(97)
    for _ in range(150):
        g = helpers.random_cograph(rng, rng.randint(1, 9))
        colors = [rng.randrange(2) for _ in range(g.n)]
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        h_colors = [0] * g.n
        for v in range(g.n):
            h_colors[perm[v]] = colors[v]
        assert canonical_code(build_cotree(g), colors) == canonical_code(
            build_cotree(h), h_colors
        )


def test_deep_cotree_has_no_recursion_limit():
    # alternately adding an isolated and a dominating vertex gives a cotree
    # about as deep as the graph, far past Python's default recursion limit
    n = 1200
    g = Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])
    perm = list(range(n))
    random.Random(41).shuffle(perm)
    h = relabel(g, perm)
    colors = [v % 3 for v in range(n)]
    h_colors = [0] * n
    for v in range(n):
        h_colors[perm[v]] = colors[v]
    cg, ch = ColoredGraph(g, colors), ColoredGraph(h, h_colors)
    res = colored_gi_cograph(cg, ch)
    assert res.isomorphic and verify_colored_isomorphism(cg, ch, res.witness)
    # recolouring the last dominating vertex changes the code
    h_colors[perm[n - 1]] = 3
    assert not colored_gi_cograph(cg, ColoredGraph(h, h_colors)).isomorphic


def test_deep_cotree_leaves_and_rebuild_without_recursion():
    # the same alternating cograph at n=1600, cotree built by hand: vertex v
    # is dominating (a join) when odd, isolated (a union) when even
    n = 1600
    t = CotreeLeaf(0)
    for v in range(1, n):
        t = CotreeNode("join" if v % 2 else "union", (CotreeLeaf(v), t))
    assert cotree_leaves(t) == list(range(n - 1, -1, -1))
    # v sees every lower vertex when odd, and every higher odd vertex
    want = []
    odd_above = 0
    for v in range(n - 1, -1, -1):
        want.append((((1 << v) - 1) if v % 2 else 0) | odd_above)
        if v % 2:
            odd_above |= 1 << v
    assert cotree_to_graph(t, n).adj_bits == tuple(reversed(want))


# ---------------------------------------------------------------------------
# cograph backend


def test_colored_gi_cograph_examples():
    rng = random.Random(101)
    for _ in range(40):
        g = helpers.random_cograph(rng, rng.randint(1, 9))
        cg = random_coloring(rng, g, 2)
        h, perm = helpers.permuted_copy(rng, g)
        h_colors = [0] * g.n
        for v in range(g.n):
            h_colors[perm[v]] = cg.label(v)
        ch = ColoredGraph(h, h_colors)
        res = colored_gi_cograph(cg, ch)
        assert res.isomorphic
        assert verify_colored_isomorphism(cg, ch, res.witness)

    assert not colored_gi_cograph(mono(complete_graph(3)), mono(path_graph(3))).isomorphic
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert not colored_gi_cograph(mono(cycle_graph(4)), mono(two_k2)).isomorphic
    with pytest.raises(NotCographError):
        colored_gi_cograph(mono(path_graph(4)), mono(path_graph(4)))


def test_colored_gi_cograph_empty():
    res = colored_gi_cograph(
        ColoredGraph(empty_graph(0), []), ColoredGraph(empty_graph(0), [])
    )
    assert res.isomorphic and res.witness == ()


def all_colorings(g, num_colors):
    for assignment in itertools.product(range(num_colors), repeat=g.n):
        yield ColoredGraph(g, list(assignment))


def test_backends_agree_with_brute_force_exhaustive(atlas):
    # every same-size pair of atlas graphs in the backend's class, two colors
    cluster_fam = builtin_family("cluster")
    cog_fam = builtin_family("cograph")
    small = [g for g in atlas if 1 <= g.n <= 4]
    for g1, g2 in itertools.combinations_with_replacement(small, 2):
        if g1.n != g2.n:
            continue
        for backend, fam in [(colored_gi_cluster, cluster_fam),
                             (colored_gi_cograph, cog_fam)]:
            if not (is_member(g1, fam) and is_member(g2, fam)):
                continue
            for cg1 in all_colorings(g1, 2):
                for cg2 in all_colorings(g2, 2):
                    got = backend(cg1, cg2)
                    want = brute_force_colored_gi(cg1, cg2)
                    assert got.isomorphic == want.isomorphic
                    if got.isomorphic:
                        assert verify_colored_isomorphism(cg1, cg2, got.witness)


def test_backends_agree_with_brute_force_random():
    rng = random.Random(103)
    for _ in range(250):
        n = rng.randint(1, 10)
        g1 = helpers.random_cograph(rng, n)
        g2 = helpers.random_cograph(rng, n) if rng.random() < 0.5 else relabel(
            g1, rng.sample(range(n), n)
        )
        cg1 = random_coloring(rng, g1, rng.choice([1, 2, 3]))
        cg2 = random_coloring(rng, g2, rng.choice([1, 2, 3]))
        got = colored_gi_cograph(cg1, cg2)
        want = brute_force_colored_gi(cg1, cg2)
        assert got.isomorphic == want.isomorphic
        if got.isomorphic:
            assert verify_colored_isomorphism(cg1, cg2, got.witness)


def test_independent_backend_agrees_with_brute_force():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(0, 8)
        cg1 = random_coloring(rng, empty_graph(n), rng.choice([1, 2, 3]))
        cg2 = random_coloring(rng, empty_graph(n), rng.choice([1, 2, 3]))
        got = colored_gi_independent(cg1, cg2)
        want = brute_force_colored_gi(cg1, cg2)
        assert got.isomorphic == want.isomorphic
        if got.isomorphic:
            assert verify_colored_isomorphism(cg1, cg2, got.witness)


def test_cluster_backend_agrees_with_brute_force():
    rng = random.Random(109)
    for _ in range(200):
        sizes1 = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
        sizes2 = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
        g1 = empty_graph(0)
        for s in sizes1:
            g1 = disjoint_union(g1, complete_graph(s))
        g2 = empty_graph(0)
        for s in sizes2:
            g2 = disjoint_union(g2, complete_graph(s))
        cg1 = random_coloring(rng, g1, 2) if g1.n else ColoredGraph(g1, [])
        cg2 = random_coloring(rng, g2, 2) if g2.n else ColoredGraph(g2, [])
        got = colored_gi_cluster(cg1, cg2)
        want = brute_force_colored_gi(cg1, cg2)
        assert got.isomorphic == want.isomorphic
        if got.isomorphic:
            assert verify_colored_isomorphism(cg1, cg2, got.witness)


def test_threshold_graphs_always_have_cotrees():
    rng = random.Random(113)
    thr = builtin_family("threshold")
    found = 0
    for _ in range(400):
        g = helpers.random_graph(rng, rng.randint(1, 7), 0.3)
        if is_member(g, thr):
            assert build_cotree(g) is not None
            found += 1
    assert found > 20
