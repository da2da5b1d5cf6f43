"""The deletion-anchored isomorphism engine."""

import random

import pytest

import helpers
from kviso.deletion import enumerate_deletion_sets
from kviso import engine
from kviso.engine import (
    EngineStats,
    Parameterization,
    _backend_for_family,
    _search_candidates,
    anchor_color,
    decide,
    gi_distance_to_class,
    gi_distance_to_clique,
    gi_twin_cover,
    gi_vertex_cover,
)
from kviso.backends import colored_gi_cograph
from kviso.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    relabel,
    star_graph,
    verify_isomorphism,
)
from kviso.oracle import brute_force_gi
from kviso.recognition import ForbiddenFamily, builtin_family
from kviso.results import DistanceExceeded, IsoResult

COG = builtin_family("cograph")
CLU = builtin_family("cluster")

K4_PENDANT = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
BULL = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


def test_parameterization_validation():
    Parameterization("vertex-cover", 2)
    Parameterization("distance-to-class", 1, COG)
    with pytest.raises(ValueError):
        Parameterization("tree-width", 2)
    with pytest.raises(ValueError):
        Parameterization("vertex-cover", -1)
    with pytest.raises(ValueError):
        Parameterization("vertex-cover", 1, COG)
    with pytest.raises(ValueError):
        Parameterization("distance-to-class", 1)


def test_anchor_color_star():
    key = {frozenset({0}): "sees-center"}
    cg, idx = anchor_color(star_graph(3), (0,), key)
    assert idx == (1, 2, 3)
    assert cg.graph == empty_graph(3)
    assert [cg.label(v) for v in range(3)] == ["sees-center"] * 3


def test_anchor_color_p4():
    key = {frozenset({1}): "a", frozenset(): "b"}
    cg, idx = anchor_color(path_graph(4), (1,), key)
    assert idx == (0, 2, 3)
    assert [cg.label(v) for v in range(3)] == ["a", "a", "b"]


def test_anchor_color_empty_anchor():
    g = helpers.random_graph(random.Random(2), 5)
    cg, idx = anchor_color(g, (), {frozenset(): 0})
    assert idx == (0, 1, 2, 3, 4)
    assert cg.graph == g
    assert cg.num_colors == 1


def test_anchor_color_composes_base_colors():
    key = {frozenset({0}): "s", frozenset(): "o"}
    g = path_graph(3)
    cg, _ = anchor_color(g, (0,), key, base_colors=["r", "g", "b"])
    assert cg.label(0) == ("g", "s")
    assert cg.label(1) == ("b", "o")


def test_anchor_color_errors():
    with pytest.raises(KeyError):
        anchor_color(star_graph(2), (0,), {})
    with pytest.raises(ValueError):
        anchor_color(star_graph(2), (9,), {})


def test_distance_to_class_examples():
    c5 = cycle_graph(5)
    res = gi_distance_to_class(c5, c5, COG, 2, verify=True)
    assert res.isomorphic and verify_isomorphism(c5, c5, res.witness)

    c6 = cycle_graph(6)
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    res = gi_distance_to_class(c6, two_k3, CLU, 2)
    assert isinstance(res, IsoResult) and not res.isomorphic

    rng = random.Random(3)
    p4 = path_graph(4)
    h, _ = helpers.permuted_copy(rng, p4)
    res = gi_distance_to_class(p4, h, COG, 1, verify=True)
    assert res.isomorphic


def test_distance_exceeded_flags():
    c5 = cycle_graph(5)
    res = gi_distance_to_class(c5, c5, COG, 1)
    assert isinstance(res, DistanceExceeded)
    assert res.k == 1 and res.g1_exceeded and res.g2_exceeded

    # bull needs one deletion, C5 needs two; same vertex and edge counts
    res = gi_distance_to_class(BULL, c5, COG, 1)
    assert isinstance(res, DistanceExceeded)
    assert not res.g1_exceeded and res.g2_exceeded
    res = gi_distance_to_class(c5, BULL, COG, 1)
    assert res.g1_exceeded and not res.g2_exceeded


def test_vertex_cover_examples():
    s3 = star_graph(3)
    res = gi_vertex_cover(s3, s3, 1, verify=True)
    assert res.isomorphic

    k3k1 = disjoint_union(complete_graph(3), empty_graph(1))
    assert s3.num_edges == k3k1.num_edges
    res = gi_vertex_cover(s3, k3k1, 3)
    assert isinstance(res, IsoResult) and not res.isomorphic

    res = gi_vertex_cover(path_graph(3), complete_graph(3), 2)
    assert isinstance(res, IsoResult) and not res.isomorphic


def test_vertex_cover_distance_exceeded():
    res = gi_vertex_cover(complete_graph(5), complete_graph(5), 2)
    assert isinstance(res, DistanceExceeded)
    assert res.g1_exceeded and res.g2_exceeded


def test_twin_cover_examples():
    rng = random.Random(5)
    h, _ = helpers.permuted_copy(rng, K4_PENDANT)
    res = gi_twin_cover(K4_PENDANT, h, 1, verify=True)
    assert res.isomorphic

    res = gi_twin_cover(complete_graph(7), complete_graph(7), 0, verify=True)
    assert res.isomorphic

    g1 = disjoint_union(complete_graph(3), complete_graph(2))
    g2 = disjoint_union(g1, empty_graph(1))
    res = gi_twin_cover(g1, g2, 2)
    assert isinstance(res, IsoResult) and not res.isomorphic


def test_distance_to_clique_examples():
    k5e = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)][1:])
    h, _ = helpers.permuted_copy(random.Random(7), k5e)
    res = gi_distance_to_clique(k5e, h, 1, verify=True)
    assert res.isomorphic

    res = gi_distance_to_clique(complete_graph(4), cycle_graph(4), 2)
    assert isinstance(res, IsoResult) and not res.isomorphic

    # witness from the complement run must hold on the originals
    res = gi_distance_to_clique(k5e, h, 2, verify=True)
    assert verify_isomorphism(k5e, h, res.witness)


def test_distance_to_clique_edge_count_reject_precedes_complement(monkeypatch):
    # graphs with different edge counts are answered before any complement
    def no_complement(g):
        raise AssertionError("complement built for a pair with different m")

    monkeypatch.setattr(engine, "complement", no_complement)
    k5e = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)][1:])
    res = gi_distance_to_clique(complete_graph(5), k5e, 2)
    assert isinstance(res, IsoResult) and not res.isomorphic


def test_decide_dispatch():
    g = star_graph(3)
    for p in [
        Parameterization("vertex-cover", 2),
        Parameterization("twin-cover", 2),
        Parameterization("distance-to-clique", 3),
        Parameterization("distance-to-class", 2, COG),
    ]:
        res = decide(g, g, p, verify=True)
        assert res.isomorphic


def test_unknown_family_backend():
    fam_c4 = __import__("kviso.recognition", fromlist=["ForbiddenFamily"]).ForbiddenFamily(
        "no-c4", (cycle_graph(4),)
    )
    with pytest.raises(ValueError):
        gi_distance_to_class(path_graph(2), path_graph(2), fam_c4, 1)


def test_backend_by_class_not_name():
    # a family's class picks the smallest base class containing it
    star = star_graph(3)
    star_r = relabel(star, [2, 0, 3, 1])
    named_cluster = ForbiddenFamily("cluster", (path_graph(4),))
    assert _backend_for_family(named_cluster) is engine._FAMILY_BACKENDS["cograph"]
    res = gi_distance_to_class(star, star_r, named_cluster, 0, verify=True)
    assert res.isomorphic
    mine = ForbiddenFamily("mine", (complete_graph(2),))
    assert _backend_for_family(mine) is engine._FAMILY_BACKENDS["edgeless"]
    assert gi_distance_to_class(star, star_r, mine, 1, verify=True).isomorphic
    assert _backend_for_family(builtin_family("threshold")) is engine._FAMILY_BACKENDS["cograph"]
    # {K2, C4}-free graphs are edgeless; {P3, C5}-free ones are cluster graphs
    both = ForbiddenFamily("x", (cycle_graph(4), complete_graph(2)))
    assert _backend_for_family(both) is engine._FAMILY_BACKENDS["edgeless"]
    wider = ForbiddenFamily("y", (cycle_graph(5), path_graph(3)))
    assert _backend_for_family(wider) is engine._FAMILY_BACKENDS["cluster"]


def test_oracle_agreement_random():
    # random, relabelled and degree-preserving swapped pairs; swapped pairs
    # share a degree sequence, so only the anchor search can separate them
    rng = random.Random(11)
    params = [
        Parameterization("distance-to-class", 3, COG),
        Parameterization("distance-to-class", 3, CLU),
        Parameterization("distance-to-class", 3, builtin_family("threshold")),
        Parameterization("vertex-cover", 3),
        Parameterization("twin-cover", 3),
        Parameterization("distance-to-clique", 3),
    ]
    agreements = 0
    for trial in range(600):
        n = rng.randint(1, 7)
        g1 = helpers.random_graph(rng, n)
        pick = rng.random()
        if pick < 0.4:
            g2, _ = helpers.permuted_copy(rng, g1)
        elif pick < 0.8:
            g2, _ = helpers.permuted_copy(rng, helpers.edge_swapped_copy(rng, g1))
        else:
            g2 = helpers.random_graph(rng, n)
        p = params[trial % len(params)]
        res = decide(g1, g2, p, verify=True)
        if isinstance(res, DistanceExceeded):
            continue
        want = brute_force_gi(g1, g2)
        assert res.isomorphic == want.isomorphic
        if res.isomorphic:
            assert verify_isomorphism(g1, g2, res.witness)
        agreements += 1
    assert agreements > 200


def test_permutation_closure_all_kinds():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = helpers.random_graph(rng, n)
        h, _ = helpers.permuted_copy(rng, g)
        for p in [
            Parameterization("vertex-cover", 4),
            Parameterization("twin-cover", 4),
            Parameterization("distance-to-clique", 4),
            Parameterization("distance-to-class", 3, COG),
        ]:
            res = decide(g, h, p, verify=True)
            if isinstance(res, DistanceExceeded):
                continue
            assert res.isomorphic


def test_fast_rejects_never_fire_on_isomorphic_pairs():
    # a non-isomorphic verdict on a permuted pair would be a reject firing
    # wrongly; distance-exceeded is the only other allowed outcome
    rng = random.Random(17)
    for _ in range(120):
        g = helpers.random_graph(rng, rng.randint(1, 7))
        h, _ = helpers.permuted_copy(rng, g)
        res = gi_distance_to_class(g, h, COG, 2)
        assert isinstance(res, DistanceExceeded) or res.isomorphic


def test_anchor_set_independence():
    # the verdict must not depend on which minimum deletion set anchors g1
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 7)
        g1 = helpers.random_graph(rng, n)
        if rng.random() < 0.6:
            g2, _ = helpers.permuted_copy(rng, g1)
        else:
            g2 = helpers.random_graph(rng, n)
        if g1.num_edges != g2.num_edges:
            continue
        sets1 = enumerate_deletion_sets(g1, COG, 2)
        sets2 = enumerate_deletion_sets(g2, COG, 2)
        if not sets1 or not sets2:
            continue
        size = len(sets1[0].vertices)
        if size != len(sets2[0].vertices):
            continue
        candidates = [d.vertices for d in sets2 if len(d.vertices) == size]
        verdicts = set()
        for anchor_ds in sets1:
            if len(anchor_ds.vertices) != size:
                break
            res = _search_candidates(
                g1, g2, anchor_ds.vertices, candidates, colored_gi_cograph,
                EngineStats(),
            )
            verdicts.add(res.isomorphic)
        assert len(verdicts) == 1
        checked += 1


def test_enumeration_bound():
    import math

    rng = random.Random(23)
    for _ in range(60):
        g = helpers.random_graph(rng, rng.randint(2, 7))
        h, _ = helpers.permuted_copy(rng, g)
        stats = EngineStats()
        res = gi_distance_to_class(g, h, COG, 3, stats=stats)
        if isinstance(res, DistanceExceeded):
            continue
        sets_h = enumerate_deletion_sets(h, COG, 3)
        size = len(sets_h[0].vertices)
        m = sum(1 for d in sets_h if len(d.vertices) == size)
        assert stats.candidate_sets == m
        assert stats.bijections_tried <= m * math.factorial(size)
        assert stats.backend_calls <= stats.bijections_tried


def test_verify_flag_runs_clean_end_to_end(atlas):
    # spot check across the atlas that verify=True never trips
    rng = random.Random(29)
    for g in atlas[::40]:
        h, _ = helpers.permuted_copy(rng, g)
        res = gi_vertex_cover(g, h, 4, verify=True)
        assert isinstance(res, DistanceExceeded) or res.isomorphic


def test_degree_sequences_differ_no_backend_call():
    # g1 = P3 + 4K2 + K_{1,20}, g2 = 5K2 + K_{1,21}, padded to n=200: both
    # have 26 edges and minimum covers of size 6, all independent, and g2
    # has 2^5 of them; trying all 6! orders of each made 23,040 backend calls
    g1 = Graph(
        200,
        [(0, 1), (1, 2)]
        + [(3 + 2 * i, 4 + 2 * i) for i in range(4)]
        + [(11, 12 + i) for i in range(20)],
    )
    g2 = Graph(
        200,
        [(2 * i, 2 * i + 1) for i in range(5)] + [(10, 11 + i) for i in range(21)],
    )
    stats = EngineStats()
    res = gi_vertex_cover(g1, g2, 6, stats=stats)
    assert isinstance(res, IsoResult) and not res.isomorphic
    assert stats.backend_calls == 0


def test_anchor_prune_separates_cover_gadgets():
    # h=3 high vertices, r=3 symmetric edges and one leaf per non-empty set
    # of high vertices; in g2 the leaves {0} and {1, 2} trade high
    # neighbours 0 and 1. Degrees stay equal, but g1's leaves see seven
    # distinct sets and g2's five, so every anchor map fails the class
    # sizes before it is complete
    leaf_sets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    swapped = [(1,), (1,), (2,), (0, 1), (0, 2), (0, 2), (0, 1, 2)]
    g1 = helpers.cover_gadget(3, 3, leaf_sets)
    g2, _ = helpers.permuted_copy(random.Random(43), helpers.cover_gadget(3, 3, swapped))
    assert g1.degree_sequence() == g2.degree_sequence()
    assert not brute_force_gi(g1, g2).isomorphic
    stats = EngineStats()
    res = gi_vertex_cover(g1, g2, 6, stats=stats)
    assert isinstance(res, IsoResult) and not res.isomorphic
    assert stats.candidate_sets == 8
    assert stats.backend_calls == stats.bijections_tried == 0
    assert stats.bijections_pruned > 0

    # a relabelled copy: the first complete map is an isomorphism
    h, _ = helpers.permuted_copy(random.Random(47), g1)
    stats = EngineStats()
    assert gi_vertex_cover(g1, h, 6, stats=stats, verify=True).isomorphic
    assert stats.backend_calls == stats.bijections_tried == 1
