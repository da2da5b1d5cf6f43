"""The benchmark's certificates, checked against kviso's brute-force oracle.

Every generator is run at a scaled-down size over many seeds, so the oracle
can decide each instance exhaustively. That size is n <= 9, except for the
non-isomorphic gadget pairs: their degree-preserving swap needs two spare
leaves, which a gadget first has at n = 11.

    python3 -m pytest bench -q
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import instances  # noqa: E402
from kviso.graphs import Graph, parse_graph6  # noqa: E402
from kviso.oracle import brute_force_deletion_sets, brute_force_gi  # noqa: E402
from kviso.recognition import builtin_family  # noqa: E402

SEEDS = range(12)

# (param, n, k, kind, h): every generator and kind the workloads use
SMALL = [
    ("dist-cograph", 8, 2, "iso", 0),
    ("dist-cograph", 9, 2, "noniso", 0),
    ("dist-cograph", 8, 1, "exceeded", 0),
    ("dist-cluster", 8, 2, "iso", 0),
    ("dist-cluster", 9, 2, "noniso", 0),
    ("dist-cluster", 9, 2, "exceeded", 0),
    ("dist-threshold", 8, 1, "iso", 0),
    ("dist-threshold", 9, 2, "noniso", 0),
    ("dist-threshold", 8, 1, "exceeded", 0),
    ("twin-cover", 8, 2, "iso", 0),
    ("twin-cover", 9, 3, "noniso", 0),
    ("twin-cover", 8, 2, "exceeded", 0),
    ("vc", 8, 4, "iso", 3),
    ("vc", 11, 4, "noniso", 3),
    ("dist-clique", 8, 4, "iso", 3),
    ("dist-clique", 11, 4, "noniso", 3),
]


def kviso_graph(adj):
    return parse_graph6(instances.to_graph6(adj))


def twin_cover_at_most(adj, k):
    """Brute force: is there a set of <= k vertices touching every non-twin edge?"""
    n = len(adj)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if instances.has_edge(adj, u, v) and not instances.are_twins(adj, u, v)
    ]
    return any(
        all(u in cover or v in cover for u, v in edges)
        for r in range(k + 1)
        for cover in map(set, itertools.combinations(range(n), r))
    )


def within_distance(inst, adj) -> bool:
    g = kviso_graph(adj)
    if inst.param == "twin-cover":
        return twin_cover_at_most(adj, inst.k)
    if inst.param == "vc":
        family = builtin_family("edgeless")
    elif inst.param == "dist-clique":
        g = kviso_graph(instances.complement(adj))
        family = builtin_family("edgeless")
    else:
        family = builtin_family(inst.param.removeprefix("dist-"))
    return bool(brute_force_deletion_sets(g, family, inst.k))


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: f"{s[0]}-{s[3]}")
def test_certificates_agree_with_oracle(spec):
    for seed in SEEDS:
        inst = instances.make_instance(f"test:{seed}", *spec)
        g1, g2 = kviso_graph(inst.g1), kviso_graph(inst.g2)
        oracle = brute_force_gi(g1, g2)
        if inst.kind == "iso":
            assert oracle.isomorphic
            assert instances.check_witness(inst.g1, inst.g2, oracle.witness)
        if inst.kind == "noniso":
            assert not oracle.isomorphic
            assert instances.wl_separates(inst.g1, inst.g2)
        exceeded = inst.kind == "exceeded"
        for adj in (inst.g1, inst.g2):
            assert within_distance(inst, adj) != exceeded, (inst.name, seed)


def test_witness_check_rejects_a_wrong_map():
    inst = instances.make_instance("test:witness", "dist-cograph", 40, 2, "iso")
    witness = list(brute_force_gi(kviso_graph(inst.g1), kviso_graph(inst.g2)).witness)
    assert instances.check_witness(inst.g1, inst.g2, witness)
    for u, v in itertools.combinations(range(inst.n), 2):
        bad = witness[:]
        bad[u], bad[v] = bad[v], bad[u]
        if not instances.check_witness(inst.g1, inst.g2, bad):
            break
    else:
        pytest.fail("no transposition of the witness was rejected")
    assert not instances.check_witness(inst.g1, inst.g2, witness[:-1])
    assert not instances.check_witness(inst.g1, inst.g2, [0] * inst.n)


def test_colour_refinement_on_known_pairs():
    def adj_of(g: Graph):
        return [sum(1 << v for v in g.adj[u]) for u in range(g.n)]

    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # both 2-regular: colour refinement cannot separate them, and never
    # separates a graph from a relabelling of itself
    assert not instances.wl_separates(adj_of(c6), adj_of(two_triangles))
    rng = random.Random(5)
    g = instances.cograph(rng, 30, part=10)
    assert not instances.wl_separates(g, instances.shuffled(rng, g)[0])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert instances.wl_separates(adj_of(p4), adj_of(star))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 100])
def test_graph6_matches_kviso_parser(n):
    rng = random.Random(n)
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            instances.add_edge(adj, u, v)
    g = parse_graph6(instances.to_graph6(adj))
    assert g.n == n
    assert [sum(1 << v for v in g.adj[u]) for u in range(n)] == adj


def test_same_seed_same_instances():
    a = instances.build_round("anchor-search", 3, 0)
    b = instances.build_round("anchor-search", 3, 0)
    c = instances.build_round("anchor-search", 4, 0)
    assert [(i.g1, i.g2) for i in a] == [(i.g1, i.g2) for i in b]
    assert [(i.g1, i.g2) for i in a] != [(i.g1, i.g2) for i in c]


def test_broken_certificates_are_refused():
    inst = instances.make_instance("test:broken", "dist-cluster", 9, 2, "exceeded")
    occs1, occs2 = inst.occurrences
    # k + 1 = 3 occurrences are needed; two are not enough
    inst.occurrences = (occs1[:2], occs2[:2])
    with pytest.raises(instances.CertificateError):
        instances.certify(inst)
    non = instances.make_instance("test:broken", "vc", 11, 4, "noniso", 3)
    non.g2 = non.g1
    with pytest.raises(instances.CertificateError):
        instances.certify(non)
