"""Command-line surface: exit codes, report fields, file handling."""

import json

import pytest

from kviso import cli
from kviso.cli import main
from kviso.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    path_graph,
    relabel,
    verify_isomorphism,
)


def write_g6(path, g):
    path.write_text(emit_graph6(g) + "\n")
    return str(path)


@pytest.fixture
def graphs(tmp_path):
    files = {}
    files["p4"] = write_g6(tmp_path / "p4.g6", path_graph(4))
    files["p4r"] = write_g6(tmp_path / "p4r.g6", relabel(path_graph(4), [2, 0, 3, 1]))
    files["c4"] = write_g6(tmp_path / "c4.g6", cycle_graph(4))
    files["c5"] = write_g6(tmp_path / "c5.g6", cycle_graph(5))
    files["c6"] = write_g6(tmp_path / "c6.g6", cycle_graph(6))
    files["2k3"] = write_g6(
        tmp_path / "2k3.g6", disjoint_union(complete_graph(3), complete_graph(3))
    )
    files["p3"] = write_g6(tmp_path / "p3.g6", path_graph(3))
    return files


def report_of(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_iso_affirmative(graphs, capsys):
    rc = main(["iso", graphs["p4"], graphs["p4r"], "--param", "dist-cograph",
               "--k", "1", "--certificate"])
    assert rc == 0
    rep = report_of(capsys)
    assert rep["verdict"] == "isomorphic"
    assert rep["param"] == "dist-cograph" and rep["k"] == 1
    # the search counters are always reported, with no flag
    assert rep["backend_calls"] == rep["bijections_tried"] >= 1
    assert rep["bijections_pruned"] >= 0
    assert verify_isomorphism(path_graph(4), relabel(path_graph(4), [2, 0, 3, 1]),
                              tuple(rep["witness"]))


def test_iso_negative(graphs, capsys):
    rc = main(["iso", graphs["c6"], graphs["2k3"], "--param", "dist-cluster",
               "--k", "2"])
    assert rc == 1
    rep = report_of(capsys)
    assert rep["verdict"] == "non-isomorphic"
    assert "witness" not in rep


def test_iso_distance_exceeded(graphs, capsys):
    rc = main(["iso", graphs["c5"], graphs["c5"], "--param", "dist-cograph",
               "--k", "1"])
    assert rc == 2
    rep = report_of(capsys)
    assert rep["verdict"] == "distance-exceeded"
    assert rep["exceeded_by"] == [1, 2]
    assert rep["backend_calls"] == rep["bijections_pruned"] == 0


def test_iso_oracle_check(graphs, capsys):
    rc = main(["iso", graphs["p4"], graphs["p4r"], "--param", "dist-cograph",
               "--k", "1", "--oracle-check"])
    assert rc == 0
    assert report_of(capsys)["oracle_check"] == "agree"


def test_iso_oracle_check_skipped_when_large(tmp_path, capsys):
    big = write_g6(tmp_path / "big.g6", cycle_graph(12))
    rc = main(["iso", big, big, "--param", "dist-cograph", "--k", "3",
               "--oracle-check"])
    assert rc == 0
    assert report_of(capsys)["oracle_check"].startswith("skipped")


def test_iso_deterministic_flag_accepted(graphs):
    assert main(["iso", graphs["p4"], graphs["p4r"], "--param", "dist-cograph",
                 "--k", "1", "--deterministic"]) == 0


def test_recognize(graphs, capsys):
    assert main(["recognize", graphs["c4"], "--family", "cograph"]) == 0
    assert report_of(capsys)["member"] is True
    assert main(["recognize", graphs["p4"], "--family", "cograph"]) == 1
    assert report_of(capsys)["member"] is False


def test_deletion_listing_and_count(graphs, capsys):
    rc = main(["deletion", graphs["p4"], "--family", "cograph", "--k", "1"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["{0}", "{1}", "{2}", "{3}"]
    rc = main(["deletion", graphs["p4"], "--family", "cograph", "--k", "1",
               "--count"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"


def test_deletion_negative_exit(graphs, capsys):
    rc = main(["deletion", graphs["c5"], "--family", "cograph", "--k", "1"])
    assert rc == 1
    assert capsys.readouterr().out == ""


def test_deletion_custom_family_file(tmp_path, capsys):
    fam = tmp_path / "fam.g6"
    fam.write_text(emit_graph6(path_graph(3)) + "\n")
    target = write_g6(tmp_path / "g.g6", path_graph(3))
    rc = main(["deletion", target, "--family-file", str(fam), "--k", "1"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["{0}", "{1}", "{2}"]


def test_vc_listing(graphs, capsys):
    rc = main(["vc", graphs["p3"], "--k", "2"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["{1}", "{0,2}"]


def test_oracle_iso(graphs, capsys):
    assert main(["oracle", "iso", graphs["p4"], graphs["p4r"]]) == 0
    assert report_of(capsys)["verdict"] == "isomorphic"
    assert main(["oracle", "iso", graphs["c6"], graphs["2k3"]]) == 1


def test_game_hitting(tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    sets.write_text("a b\n")
    rc = main(["game", "hitting", "--file", str(sets), "--k1", "2", "--k2", "1"])
    assert rc == 0
    rep = report_of(capsys)
    assert rep["player_one_wins"] is True
    assert rep["winning_first_move"] == "a"

    sets.write_text("a\nb\n")
    rc = main(["game", "hitting", "--file", str(sets), "--k1", "1", "--k2", "2"])
    assert rc == 1
    assert report_of(capsys)["player_one_wins"] is False


def test_sat(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    rc = main(["sat", "--dimacs-cnf", str(cnf), "--k", "1"])
    assert rc == 0
    rep = report_of(capsys)
    assert rep["satisfiable"] is True and rep["true_variables"] == [2]

    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    rc = main(["sat", "--dimacs-cnf", str(cnf), "--k", "1"])
    assert rc == 1
    assert report_of(capsys)["satisfiable"] is False


def test_dimacs_graph_input(tmp_path, capsys):
    path = tmp_path / "g.col"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    assert main(["recognize", str(path), "--family", "cluster"]) == 1
    capsys.readouterr()
    assert main(["recognize", str(path), "--format", "dimacs",
                 "--family", "cograph"]) == 0


def test_usage_errors_exit_3(graphs, capsys):
    assert main(["iso", graphs["p4"], graphs["p4r"], "--param", "nope",
                 "--k", "1"]) == 3
    capsys.readouterr()
    assert main(["iso", graphs["p4"]]) == 3
    capsys.readouterr()
    assert main(["nonsense"]) == 3
    capsys.readouterr()


def test_missing_file_exit_3(tmp_path, capsys):
    assert main(["recognize", str(tmp_path / "absent.g6"),
                 "--family", "cograph"]) == 3
    assert "absent.g6" in capsys.readouterr().err


def test_malformed_graph_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("~~~not a graph~~~\n")
    assert main(["recognize", str(bad), "--family", "cograph"]) == 3
    assert capsys.readouterr().err != ""


def test_negative_k_exit_3(graphs, capsys):
    assert main(["vc", graphs["p3"], "--k", "-1"]) == 3


def test_repeated_calls_are_independent(graphs, capsys):
    # one parser serves every call in a process; no argument or default
    # may leak from one call into the next
    assert main(["iso", graphs["p4"], graphs["p4r"], "--param", "dist-cograph",
                 "--k", "1", "--certificate"]) == 0
    first = report_of(capsys)
    assert first["verdict"] == "isomorphic" and "witness" in first
    assert main(["iso", graphs["p4"], "--k", "1"]) == 3
    capsys.readouterr()
    assert main(["iso", graphs["c6"], graphs["2k3"], "--param", "dist-cluster",
                 "--k", "2"]) == 1
    second = report_of(capsys)
    assert second["verdict"] == "non-isomorphic" and "witness" not in second
    assert second["param"] == "dist-cluster" and second["k"] == 2
    assert main(["recognize", graphs["p3"], "--family", "cluster"]) == 1
    assert report_of(capsys) == {"command": "recognize", "family": "cluster",
                                 "n": 3, "member": False}
    assert main(["iso", graphs["p4"], graphs["p4r"], "--param", "dist-cograph",
                 "--k", "1", "--certificate"]) == 0
    assert report_of(capsys)["witness"] == first["witness"]


def test_internal_error_exit_5(graphs, capsys, monkeypatch):
    # a crash is not a verdict: it exits 5 with a one-line JSON report
    def broken(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(cli, "decide", broken)
    rc = main(["iso", graphs["p4"], graphs["p4r"], "--param", "dist-cograph",
               "--k", "1"])
    assert rc == 5
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"command": "iso", "error": "internal",
                                    "exception": "RuntimeError",
                                    "message": "engine exploded"}
    assert "engine exploded" in captured.err
