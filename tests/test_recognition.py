"""Forbidden-family membership and occurrence finding."""

import itertools
import random

import pytest

import helpers
from kviso import recognition
from kviso.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    induced_subgraph,
    path_graph,
    relabel,
    star_graph,
)
from kviso.recognition import (
    ForbiddenFamily,
    builtin_family,
    family_from_graph6_file,
    find_forbidden_occurrence,
    first_occurrence_avoiding,
    is_member,
)

FAMILY_NAMES = ["cograph", "cluster", "threshold", "edgeless"]


def brute_member(g, fam):
    """Reference membership: no induced copy of any pattern."""
    return not any(helpers.brute_induces(g, h) for h in fam.patterns)


def test_builtin_families():
    cog = builtin_family("cograph")
    assert cog.d == 4
    assert [h.n for h in cog.patterns] == [4]
    assert builtin_family("cluster").patterns == (path_graph(3),)
    assert builtin_family("edgeless").patterns == (complete_graph(2),)
    thr = builtin_family("threshold")
    assert len(thr.patterns) == 3 and thr.d == 4
    with pytest.raises(ValueError):
        builtin_family("chordal")


def test_family_validation():
    with pytest.raises(ValueError):
        ForbiddenFamily("empty", ())
    with pytest.raises(ValueError):
        ForbiddenFamily("trivial", (Graph(0, []),))


def test_family_from_file(tmp_path):
    path = tmp_path / "pats.g6"
    path.write_text("# comment\nA_\n\nBw\n")
    fam = family_from_graph6_file(path)
    assert fam.name == "pats"
    assert [h.n for h in fam.patterns] == [2, 3]
    named = family_from_graph6_file(path, name="custom")
    assert named.name == "custom"


def test_occurrence_examples():
    cog = builtin_family("cograph")
    assert find_forbidden_occurrence(path_graph(4), cog) == (0, 1, 2, 3)
    assert find_forbidden_occurrence(cycle_graph(4), cog) is None
    assert find_forbidden_occurrence(cycle_graph(5), cog) == (0, 1, 2, 3)


def test_occurrence_lex_order_mixed_sizes():
    # with patterns of different sizes, smaller subsets are scanned first
    fam = ForbiddenFamily("mixed", (complete_graph(2), path_graph(3)))
    g = path_graph(3)
    assert find_forbidden_occurrence(g, fam) == (0, 1)


def test_membership_examples():
    cog = builtin_family("cograph")
    for n in range(1, 7):
        assert is_member(complete_graph(n), cog)
    assert not is_member(path_graph(5), cog)
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert is_member(two_k2, builtin_family("cluster"))
    assert is_member(star_graph(3), builtin_family("threshold"))
    assert not is_member(two_k2, builtin_family("threshold"))
    assert is_member(Graph(3, []), builtin_family("edgeless"))
    assert not is_member(complete_graph(2), builtin_family("edgeless"))


def test_membership_against_brute_force_exhaustive(atlas):
    fams = [builtin_family(name) for name in FAMILY_NAMES]
    for g in atlas:
        if g.n > 6:
            continue
        for fam in fams:
            assert is_member(g, fam) == brute_member(g, fam)


def test_membership_against_brute_force_sampled():
    rng = random.Random(23)
    fams = [builtin_family(name) for name in FAMILY_NAMES]
    for _ in range(60):
        g = helpers.random_graph(rng, rng.choice([7, 8]))
        for fam in fams:
            assert is_member(g, fam) == brute_member(g, fam)


def test_hereditary_closure():
    rng = random.Random(29)
    fams = [builtin_family(name) for name in FAMILY_NAMES]
    checked = 0
    while checked < 40:
        g = helpers.random_graph(rng, rng.randint(2, 8))
        for fam in fams:
            if not is_member(g, fam):
                continue
            for r in range(g.n + 1):
                for s in itertools.combinations(range(g.n), r):
                    sub, _ = induced_subgraph(g, s)
                    assert is_member(sub, fam)
            checked += 1


def test_threshold_matches_peeling():
    rng = random.Random(31)
    thr = builtin_family("threshold")
    for n in range(0, 6):
        for g in _all_graphs_up_to(n):
            assert is_member(g, thr) == helpers.is_threshold_by_peeling(g)
    for _ in range(80):
        g = helpers.random_graph(rng, rng.choice([7, 8]))
        assert is_member(g, thr) == helpers.is_threshold_by_peeling(g)


def _all_graphs_up_to(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits & (1 << i)])


def test_occurrence_induces_a_pattern():
    rng = random.Random(37)
    fams = [builtin_family(name) for name in FAMILY_NAMES]
    for _ in range(120):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        for fam in fams:
            occ = find_forbidden_occurrence(g, fam)
            if occ is None:
                assert is_member(g, fam)
            else:
                sub, _ = induced_subgraph(g, occ)
                assert any(helpers.brute_induces(sub, h) and h.n == sub.n
                           for h in fam.patterns)


def test_fast_occurrence_agrees_with_membership():
    # the accelerated finder must report None exactly on class members,
    # for every removal mask, and only ever return valid occurrences
    rng = random.Random(41)
    fams = [builtin_family(name) for name in FAMILY_NAMES]
    for _ in range(60):
        g = helpers.random_graph(rng, rng.randint(1, 7))
        for fam in fams:
            for bits in range(1 << g.n):
                keep = [v for v in range(g.n) if not bits & (1 << v)]
                sub, _ = induced_subgraph(g, keep)
                occ = first_occurrence_avoiding(g, fam, bits)
                assert (occ is None) == is_member(sub, fam)
                if occ is not None:
                    assert not any(bits & (1 << v) for v in occ)
                    osub, _ = induced_subgraph(g, occ)
                    assert not is_member(osub, fam)


def test_fast_occurrence_custom_family_route():
    # non-builtin shapes exercise the generic subset-scan route
    fam = ForbiddenFamily("no-c4", (cycle_graph(4),))
    g = cycle_graph(4)
    assert first_occurrence_avoiding(g, fam, 0) == (0, 1, 2, 3)
    assert first_occurrence_avoiding(g, fam, 1) is None
    assert is_member(complete_graph(4), fam)


def test_custom_family_round_trip(tmp_path):
    # a family written to disk behaves like the in-memory original
    pats = [path_graph(3), cycle_graph(4)]
    path = tmp_path / "fam.g6"
    path.write_text("".join(emit_graph6(h) + "\n" for h in pats))
    fam = family_from_graph6_file(path)
    rng = random.Random(43)
    for _ in range(40):
        g = helpers.random_graph(rng, rng.randint(1, 7))
        expect = not any(helpers.brute_induces(g, h) for h in pats)
        assert is_member(g, fam) == expect


def _check_threshold_finder(g, removed, member_of):
    """The threshold route at one removal mask, against both references."""
    thr = builtin_family("threshold")
    keep = [v for v in range(g.n) if not removed & (1 << v)]
    sub, _ = induced_subgraph(g, keep)
    occ = first_occurrence_avoiding(g, thr, removed)
    assert (occ is None) == member_of(sub) == helpers.is_threshold_by_peeling(sub)
    if occ is not None:
        assert len(occ) == 4 and list(occ) == sorted(set(occ))
        assert not any(removed & (1 << v) for v in occ)
        osub, _ = induced_subgraph(g, occ)
        assert any(helpers.brute_induces(osub, h) for h in thr.patterns)


def test_threshold_finder_exhaustive_small():
    # every graph on at most 5 vertices with every removal mask; the
    # remainders are themselves small graphs, so membership is memoized
    thr = builtin_family("threshold")
    memo = {}

    def member_of(sub):
        if sub not in memo:
            memo[sub] = is_member(sub, thr)
        return memo[sub]

    for n in range(0, 6):
        for g in _all_graphs_up_to(n):
            for removed in range(1 << n):
                _check_threshold_finder(g, removed, member_of)


def test_threshold_finder_random_larger():
    rng = random.Random(47)
    thr = builtin_family("threshold")
    for _ in range(40):
        n = rng.randint(8, 12)
        if rng.random() < 0.5:
            # near-threshold graphs, so that None is a frequent answer
            g = helpers.plant_deletion_vertices(rng, helpers.random_threshold(rng, n - 1), 1)
        else:
            g = helpers.random_graph(rng, n)
        for removed in [0] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]:
            _check_threshold_finder(g, removed, lambda sub: is_member(sub, thr))


def _no_scan(*args):
    raise AssertionError("subset scan used")


def test_occurrence_route_by_pattern_set(monkeypatch):
    # the threshold set relabelled, reordered, repeated and renamed keeps
    # its dedicated finder, and so does a renamed cluster pattern
    monkeypatch.setattr(recognition, "_occurrence_scan", _no_scan)
    p4, c4, two_k2 = builtin_family("threshold").patterns
    fam = ForbiddenFamily(
        "mine",
        (relabel(two_k2, [3, 1, 0, 2]), relabel(c4, [1, 3, 2, 0]), p4, relabel(p4, [1, 3, 0, 2])),
    )
    rng = random.Random(53)
    for _ in range(30):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        occ = first_occurrence_avoiding(g, fam)
        assert (occ is None) == is_member(g, fam)
    g = path_graph(5)
    assert first_occurrence_avoiding(g, fam) is not None
    renamed_cluster = ForbiddenFamily("cograph", (relabel(path_graph(3), [1, 0, 2]),))
    assert first_occurrence_avoiding(g, renamed_cluster) is not None


def test_occurrence_route_other_sets_scan(monkeypatch):
    scans = []
    real_scan = recognition._occurrence_scan

    def counting_scan(g, fam, mask):
        scans.append(fam.name)
        return real_scan(g, fam, mask)

    monkeypatch.setattr(recognition, "_occurrence_scan", counting_scan)
    p4, c4, two_k2 = builtin_family("threshold").patterns
    no_p4_c4 = ForbiddenFamily("threshold", (p4, c4))
    assert first_occurrence_avoiding(cycle_graph(4), no_p4_c4) == (0, 1, 2, 3)
    assert first_occurrence_avoiding(two_k2, no_p4_c4) is None
    # a superset of the threshold set is not the threshold set
    extra = ForbiddenFamily("more", (p4, c4, two_k2, cycle_graph(5)))
    assert first_occurrence_avoiding(path_graph(4), extra) == (0, 1, 2, 3)
    assert scans == ["threshold", "threshold", "more"]
