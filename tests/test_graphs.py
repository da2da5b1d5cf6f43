"""Graph type, formats, and elementary operations."""

import random
import time

import pytest

import helpers
from kviso.graphs import (
    ColoredGraph,
    Graph,
    GraphFormatError,
    are_twins,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    empty_graph,
    induced_subgraph,
    parse_dimacs,
    parse_graph6,
    path_graph,
    relabel,
    star_graph,
    verify_colored_isomorphism,
    verify_isomorphism,
)


def test_basic_construction():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.num_edges == 2
    assert g.degree_sequence() == (1, 1, 2)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_adjacency_invariants_random():
    rng = random.Random(101)
    for _ in range(50):
        g = helpers.random_graph(rng, rng.randint(0, 12))
        for u in range(g.n):
            assert u not in g.adj[u]
            for v in g.adj[u]:
                assert u in g.adj[v]
            assert g.adj_bits[u] == sum(1 << v for v in g.adj[u])


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])


# ---------------------------------------------------------------------------
# graph6


def test_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_graph6_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.num_edges == 0


def test_graph6_round_trip_fixed():
    assert emit_graph6(parse_graph6("D?{")) == "D?{"
    g = parse_graph6("D?{")
    # star with center 4: the encoding packs column-major upper triangle
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_graph6_optional_header():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")
    # surrounding whitespace is boundary noise, not part of the line
    assert parse_graph6("A_\n") == parse_graph6("A_")


def test_graph6_malformed():
    for bad in ["", "A", "A_?", "\x3e", "A!", "~", "~?"]:
        with pytest.raises(GraphFormatError):
            parse_graph6(bad)


def test_graph6_noncanonical_length_rejected():
    # n=2 must use the one-byte form, not the ~-prefixed long form
    with pytest.raises(GraphFormatError):
        parse_graph6("~??A_")


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        g = helpers.random_graph(rng, rng.randint(0, 20))
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_large_n():
    # crosses the 63-vertex boundary into the 4-byte length form
    rng = random.Random(8)
    for n in [62, 63, 64, 90]:
        g = helpers.random_graph(rng, n, 0.1)
        text = emit_graph6(g)
        assert parse_graph6(text) == g
        assert emit_graph6(parse_graph6(text)) == text


def _g6_header(n):
    if n <= 62:
        return chr(63 + n)
    return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))


def _g6_outcome(parse, line):
    try:
        g = parse(line)
    except GraphFormatError as exc:
        return "error", str(exc)
    return g.n, g.num_edges, g.adj_bits, [list(s) for s in g.adj]


def test_graph6_matches_per_bit_reference():
    rng = random.Random(21)
    for n in [0, 1, 2, 5, 62, 63, 64, 258, 300]:
        for p in [0, 0.05, 0.5, 1]:
            text = emit_graph6(helpers.random_graph(rng, n, p))
            for line in [text, ">>graph6<<" + text, f" \t{text}\r\n",
                         f"  >>graph6<<{text}\n"]:
                got = _g6_outcome(parse_graph6, line)
                assert got[0] == n
                assert got == _g6_outcome(helpers.reference_parse_graph6, line)


def test_graph6_malformed_messages_match_reference():
    # n=302 leaves 5 padding bits in the last body byte
    long_header = _g6_header(302)
    long_body = "?" * ((302 * 301 // 2 + 5) // 6)
    bad = [
        "!_", "~?\x7f?", "~~?\x00?????",  # illegal byte in the header
        "A!", "A\x7f", "D?\xe9", "D?\u20ac", "~?!",  # ... in the body
        "~?A", "~?", "~",  # truncated 4-byte header
        "~~???", "~~??????"[:7],  # truncated 8-byte header
        "~??A_", "~~??????", "~~?????A" + "?" * 6,  # non-canonical header
        "D?", long_header + long_body[:-1],  # truncated body
        "A_?", long_header + long_body + "?",  # trailing bytes
        "A`", "D?|", long_header + long_body[:-1] + "@",  # nonzero padding
        "", "  \n", ">>graph6<<", " >>graph6<< \n",  # nothing to decode
    ]
    for line in bad:
        got = _g6_outcome(parse_graph6, line)
        assert got[0] == "error", line[:20]
        assert got == _g6_outcome(helpers.reference_parse_graph6, line), line[:20]


def test_graph6_large_edgeless_parse_is_fast():
    # the per-bit decoder took about 1.1 s on this line, one step per pair
    n = 4000
    line = _g6_header(n) + "?" * ((n * (n - 1) // 2 + 5) // 6)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        g = parse_graph6(line)
        best = min(best, time.perf_counter() - t0)
    assert g.n == n and g.num_edges == 0
    assert best < 0.4


# ---------------------------------------------------------------------------
# DIMACS


def test_dimacs_p3():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g == path_graph(3)


def test_dimacs_dedup():
    g = parse_dimacs("p edge 2 1\ne 1 2\ne 2 1\n")
    assert g == complete_graph(2)


def test_dimacs_errors():
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 2 1\ne 1 1\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 2 1\nx 1 2\n")


def test_dimacs_comments_and_blanks():
    g = parse_dimacs("c a comment\n\np edge 3 1\nc mid\ne 1 3\n")
    assert g == Graph(3, [(0, 2)])


# ---------------------------------------------------------------------------
# derived constructions


def test_induced_subgraph_examples():
    c4 = cycle_graph(4)
    sub, idx = induced_subgraph(c4, [0, 1, 2])
    assert sub == path_graph(3)
    assert idx == (0, 1, 2)
    sub, idx = induced_subgraph(c4, [])
    assert sub.n == 0 and idx == ()
    sub, idx = induced_subgraph(c4, range(4))
    assert sub == c4
    with pytest.raises(ValueError):
        induced_subgraph(c4, [0, 4])


def test_induced_subgraph_index_map():
    g = Graph(5, [(0, 3), (3, 4), (1, 2)])
    sub, idx = induced_subgraph(g, [4, 0, 3])
    assert idx == (0, 3, 4)
    assert sub.edges() == [(0, 1), (1, 2)]


def test_complement_examples():
    assert complement(complete_graph(3)) == empty_graph(3)
    assert complement(empty_graph(4)) == complete_graph(4)
    # P4 is self-complementary with the middle pair swapped outward
    assert sorted(complement(path_graph(4)).edges()) == [(0, 2), (0, 3), (1, 3)]


def test_complement_involution():
    rng = random.Random(3)
    for _ in range(60):
        g = helpers.random_graph(rng, rng.randint(0, 11))
        assert complement(complement(g)) == g


def test_are_twins():
    k3 = complete_graph(3)
    assert are_twins(k3, 0, 1) and are_twins(k3, 1, 0)
    p3 = path_graph(3)
    assert not are_twins(p3, 0, 1)
    assert are_twins(p3, 0, 2)
    c4 = cycle_graph(4)
    assert are_twins(c4, 0, 2)
    assert not are_twins(c4, 0, 1)
    with pytest.raises(ValueError):
        are_twins(k3, 1, 1)


def test_relabel():
    p3 = path_graph(3)
    g = relabel(p3, [1, 0, 2])
    assert g == Graph(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        relabel(p3, [0, 0, 1])


def test_disjoint_union():
    g = disjoint_union(complete_graph(2), path_graph(3))
    assert g.n == 5
    assert g.edges() == [(0, 1), (2, 3), (3, 4)]


def test_star_and_cycle():
    assert star_graph(3) == Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        cycle_graph(2)


# ---------------------------------------------------------------------------
# isomorphism verifiers


def test_verify_isomorphism_examples():
    g = helpers.random_graph(random.Random(5), 6)
    assert verify_isomorphism(g, g, tuple(range(6)))
    assert not verify_isomorphism(complete_graph(2), empty_graph(2), (0, 1))
    assert not verify_isomorphism(complete_graph(2), empty_graph(2), (1, 0))
    g1 = path_graph(3)
    g2 = Graph(3, [(0, 1), (0, 2)])  # path 1-0-2
    assert verify_isomorphism(g1, g2, (1, 0, 2))


def test_verify_isomorphism_rejects_junk():
    g = path_graph(3)
    assert not verify_isomorphism(g, g, (0, 0, 1))
    assert not verify_isomorphism(g, g, (0, 1))
    assert not verify_isomorphism(g, path_graph(4), (0, 1, 2))


def test_verify_isomorphism_random_relabels():
    rng = random.Random(11)
    for _ in range(80):
        g = helpers.random_graph(rng, rng.randint(1, 10))
        h, perm = helpers.permuted_copy(rng, g)
        assert verify_isomorphism(g, h, tuple(perm))


def test_verify_isomorphism_matches_pairwise_reference():
    rng = random.Random(23)
    rejected = 0
    for n in [1, 2, 5, 12, 40]:
        for p in [0.05, 0.5, 0.95]:
            g = helpers.random_graph(rng, n, p)
            h, perm = helpers.permuted_copy(rng, g)
            swapped = list(perm)
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
            repeated = list(perm)
            repeated[0] = perm[-1]
            out_of_range = list(perm)
            out_of_range[-1] = n
            cases = [
                (g, h, perm),
                (g, h, swapped),
                (g, h, perm[:-1]),
                (g, h, perm + [n]),
                (g, h, repeated),
                (g, h, out_of_range),
                (g, helpers.random_graph(rng, n + 1, p), perm + [n]),
                (helpers.random_graph(rng, n + 1, p), h, perm + [n]),
            ]
            for a, b, f in cases:
                want = helpers.reference_verify_isomorphism(a, b, f)
                assert verify_isomorphism(a, b, f) == want
                assert verify_isomorphism(a, b, tuple(f)) == want
            assert verify_isomorphism(g, h, perm)
            rejected += not verify_isomorphism(g, h, swapped)
    assert rejected >= 5  # most transpositions break the witness


def test_colored_graph_normalization():
    cg = ColoredGraph(path_graph(3), ["red", "blue", "red"])
    assert cg.colors == (0, 1, 0)
    assert cg.palette == ("red", "blue")
    assert cg.color(2) == 0
    assert cg.label(2) == "red"
    assert cg.num_colors == 2
    with pytest.raises(ValueError):
        ColoredGraph(path_graph(3), ["red", "blue"])


def test_verify_colored_isomorphism():
    cg = ColoredGraph(complete_graph(2), ["red", "red"])
    ch = ColoredGraph(complete_graph(2), ["red", "blue"])
    assert verify_colored_isomorphism(cg, cg, (0, 1))
    assert not verify_colored_isomorphism(cg, ch, (0, 1))
    assert not verify_colored_isomorphism(cg, ch, (1, 0))
    # labels matter across graphs even though dense ids coincide
    ca = ColoredGraph(empty_graph(2), ["a", "b"])
    cb = ColoredGraph(empty_graph(2), ["b", "a"])
    assert verify_colored_isomorphism(ca, cb, (1, 0))
    assert not verify_colored_isomorphism(ca, cb, (0, 1))
