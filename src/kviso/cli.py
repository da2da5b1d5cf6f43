"""Command line front end.

Exit codes: 0 for an affirmative answer (isomorphic, member, winnable,
satisfiable, sets found), 1 for a negative one, 2 when a distance bound is
exceeded, 3 for usage or input errors, 4 when --oracle-check disagrees, 5
for an internal error (reported as one JSON line on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import cache
from pathlib import Path
from time import perf_counter

from .engine import EngineStats, Parameterization, decide
from .deletion import (
    enumerate_deletion_sets,
    enumerate_minimal_vertex_covers,
)
from .games import (
    CnfInstance,
    HittingGameInstance,
    parse_dimacs_cnf,
    parse_hitting_sets,
    player_one_wins,
    weighted_qcnf_sat,
    winning_first_move,
)
from .graphs import Graph, GraphFormatError, parse_dimacs, parse_graph6
from .oracle import brute_force_gi
from .recognition import (
    BUILTIN_CLASSES,
    builtin_family,
    family_from_graph6_file,
    is_member,
)
from .results import DistanceExceeded, IsoResult

# --param name -> (engine kind, built-in family for distance-to-class)
PARAM_CHOICES = {
    "vc": ("vertex-cover", None),
    "twin-cover": ("twin-cover", None),
    "dist-clique": ("distance-to-clique", None),
    "dist-cograph": ("distance-to-class", "cograph"),
    "dist-cluster": ("distance-to-class", "cluster"),
    "dist-threshold": ("distance-to-class", "threshold"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is taken by the
    # distance-exceeded verdict, so usage errors move to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read one graph from a file, sniffing graph6 before DIMACS."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{path}: no graph data")
    if fmt == "graph6":
        return parse_graph6(lines[0])
    if fmt == "dimacs":
        return parse_dimacs(text)
    try:
        return parse_graph6(lines[0])
    except GraphFormatError as g6err:
        try:
            return parse_dimacs(text)
        except GraphFormatError as dimacs_err:
            raise GraphFormatError(
                f"{path}: not graph6 ({g6err}) and not DIMACS ({dimacs_err})"
            ) from None


def _family_from_args(args) -> object:
    if getattr(args, "family_file", None):
        return family_from_graph6_file(args.family_file)
    return builtin_family(args.family)


def _print_report(report: dict) -> None:
    print(json.dumps(report))


def _print_sets(sets) -> None:
    for ds in sets:
        print("{" + ",".join(str(v) for v in ds.vertices) + "}")


def cmd_iso(args) -> int:
    g1 = load_graph(args.graph1, args.format)
    g2 = load_graph(args.graph2, args.format)
    kind, family = PARAM_CHOICES[args.param]
    param = Parameterization(
        kind, args.k, builtin_family(family) if family else None
    )
    stats = EngineStats()
    t0 = perf_counter()
    result = decide(g1, g2, param, stats=stats, verify=True)
    wall = perf_counter() - t0
    report = {
        "command": "iso",
        "param": args.param,
        "k": args.k,
        "n1": g1.n,
        "n2": g2.n,
        "candidate_sets": stats.candidate_sets,
        "bijections_tried": stats.bijections_tried,
        "bijections_pruned": stats.bijections_pruned,
        "backend_calls": stats.backend_calls,
        "wall_time_s": round(wall, 6),
    }

    if isinstance(result, DistanceExceeded):
        report["verdict"] = "distance-exceeded"
        exceeded = []
        if result.g1_exceeded:
            exceeded.append(1)
        if result.g2_exceeded:
            exceeded.append(2)
        report["exceeded_by"] = exceeded
        if args.oracle_check:
            report["oracle_check"] = "skipped (no verdict)"
        _print_report(report)
        return 2

    report["verdict"] = "isomorphic" if result.isomorphic else "non-isomorphic"
    if result.isomorphic and args.certificate:
        report["witness"] = list(result.witness)

    code = 0 if result.isomorphic else 1
    if args.oracle_check:
        if g1.n <= 9 and g2.n <= 9:
            reference = brute_force_gi(g1, g2)
            if reference.isomorphic == result.isomorphic:
                report["oracle_check"] = "agree"
            else:
                report["oracle_check"] = "disagree"
                code = 4
        else:
            report["oracle_check"] = "skipped (n > 9)"
    _print_report(report)
    return code


def cmd_recognize(args) -> int:
    g = load_graph(args.graph, args.format)
    fam = _family_from_args(args)
    member = is_member(g, fam)
    _print_report(
        {
            "command": "recognize",
            "family": fam.name,
            "n": g.n,
            "member": member,
        }
    )
    return 0 if member else 1


def cmd_deletion(args) -> int:
    g = load_graph(args.graph, args.format)
    fam = _family_from_args(args)
    sets = enumerate_deletion_sets(g, fam, args.k)
    if args.count:
        print(len(sets))
    else:
        _print_sets(sets)
    return 0 if sets else 1


def cmd_vc(args) -> int:
    g = load_graph(args.graph, args.format)
    sets = enumerate_minimal_vertex_covers(g, args.k)
    if args.count:
        print(len(sets))
    else:
        _print_sets(sets)
    return 0 if sets else 1


def cmd_oracle(args) -> int:
    g1 = load_graph(args.graph1, args.format)
    g2 = load_graph(args.graph2, args.format)
    t0 = perf_counter()
    result = brute_force_gi(g1, g2)
    wall = perf_counter() - t0
    report = {
        "command": "oracle-iso",
        "n1": g1.n,
        "n2": g2.n,
        "verdict": "isomorphic" if result.isomorphic else "non-isomorphic",
        "wall_time_s": round(wall, 6),
    }
    if result.isomorphic and args.certificate:
        report["witness"] = list(result.witness)
    _print_report(report)
    return 0 if result.isomorphic else 1


def cmd_game(args) -> int:
    universe, sets = parse_hitting_sets(Path(args.file).read_text())
    inst = HittingGameInstance(universe, sets, args.k1, args.k2)
    wins = player_one_wins(inst)
    report = {
        "command": "game-hitting",
        "universe_size": len(universe),
        "num_sets": len(sets),
        "k1": args.k1,
        "k2": args.k2,
        "player_one_wins": wins,
    }
    if wins:
        report["winning_first_move"] = winning_first_move(inst)
    _print_report(report)
    return 0 if wins else 1


def cmd_sat(args) -> int:
    num_vars, clauses = parse_dimacs_cnf(Path(args.dimacs_cnf).read_text())
    inst = CnfInstance(num_vars, clauses, args.k)
    assignment = weighted_qcnf_sat(inst)
    report = {
        "command": "sat",
        "num_vars": num_vars,
        "num_clauses": len(clauses),
        "k": args.k,
        "satisfiable": assignment is not None,
    }
    if assignment is not None:
        report["true_variables"] = sorted(assignment)
    _print_report(report)
    return 0 if assignment is not None else 1


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("graph6", "dimacs"),
        help="input format (default: sniff graph6, then DIMACS)",
    )


def _add_family(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--family",
        choices=tuple(BUILTIN_CLASSES),
        help="built-in forbidden family",
    )
    grp.add_argument(
        "--family-file",
        help="file with one graph6 pattern per line",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="kviso", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("iso", help="isomorphism test for near-class graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--param", required=True, choices=PARAM_CHOICES)
    p.add_argument("--k", type=int, required=True, help="deletion budget")
    p.add_argument(
        "--certificate",
        action="store_true",
        help="include the vertex mapping in the report",
    )
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="re-check the verdict by brute force when n <= 9",
    )
    _add_format(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("recognize", help="forbidden-subgraph class membership")
    p.add_argument("graph")
    _add_family(p)
    _add_format(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("deletion", help="list minimal deletion sets")
    p.add_argument("graph")
    _add_family(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    _add_format(p)
    p.set_defaults(func=cmd_deletion)

    p = sub.add_parser("vc", help="list minimal vertex covers")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    _add_format(p)
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("oracle", help="slow brute-force reference checks")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("iso", help="brute-force isomorphism (n <= ~10)")
    q.add_argument("graph1")
    q.add_argument("graph2")
    q.add_argument("--certificate", action="store_true")
    _add_format(q)
    q.set_defaults(func=cmd_oracle)

    p = sub.add_parser("game", help="alternating hitting-set game")
    gsub = p.add_subparsers(dest="game_cmd", required=True)
    q = gsub.add_parser("hitting", help="does the first player win?")
    q.add_argument("--file", required=True, help="one set per line")
    q.add_argument("--k1", type=int, required=True, help="max set size")
    q.add_argument("--k2", type=int, required=True, help="total move budget")
    q.set_defaults(func=cmd_game)

    p = sub.add_parser("sat", help="satisfiability with at most k true variables")
    p.add_argument("--dimacs-cnf", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_sat)

    return parser


@cache
def _shared_parser() -> _Parser:
    # building the parser costs far more than parsing, and parse_args
    # leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        return args.func(args)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"kviso: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a crash must not exit with a verdict code
        traceback.print_exc()
        _print_report(
            {
                "command": args.cmd,
                "error": "internal",
                "exception": type(exc).__name__,
                "message": str(exc),
            }
        )
        return 5


if __name__ == "__main__":
    sys.exit(main())
