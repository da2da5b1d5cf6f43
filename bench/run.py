#!/usr/bin/env python3
"""Seeded benchmark of `kviso iso`, driven through the real CLI entry point.

Run from the repository root:

    python3 bench/run.py --workload anchor-search --seed 1 --seconds 30 --trace 0

Each operation is one in-process call
``kviso.cli.main(["iso", a.g6, b.g6, "--param", P, "--k", K, "--certificate"])``
on graph6 files written during set-up. The load is a closed loop with one
client: the next operation starts when the previous one returns. Every
answer is checked against the instance's own certificate (see
instances.py). Ops run round by round, each round one fresh instance of
every cell of the workload's grid, until they have taken --seconds and
number at least MIN_OPS, and then finish the round they are in.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes over round 0 (at least two traced) and prints the per-layer
metrics of one pass; the traced passes must repeat every counter exactly.
--trace both prints both sets, and --workload all runs each workload in its
own process. Human-readable lines come first; the last line
of standard output is one JSON object.

Exit status is 0 whenever that JSON line is printed; a run that cannot set
up (no kviso sources beside this directory, an instance failing its own
certificate) exits 1 without it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import tracing  # noqa: E402

# set-ups per --trace 0 run, spread over its op time so that they do not all
# fall into one slow or fast spell of the machine
SETUP_REPEATS = 7
SETUP_KEY = "set-up"
# latency_tail_s is p90: a run goes on past --seconds until it has MIN_OPS
# ops, so that ten ops lie beyond p90 even when the machine runs slow
TAIL_PERCENTILE = 90
MIN_OPS = 100
MIN_TRACED_PASSES = 2

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

# per-layer metric, unit, and the spans or counters it needs
PER_LAYER = (
    ("cli.self_s", "s", ("cli.main", "graphs.load", "engine.decide")),
    ("graphs.self_s", "s", ("graphs.load", "graphs.induced_subgraph", "graphs.verify", "graphs.complement")),
    ("graphs.load_s", "s", ("graphs.load",)),
    ("graphs.load_calls", "count", ("graphs.load",)),
    ("graphs.induced_subgraph_s", "s", ("graphs.induced_subgraph",)),
    ("graphs.induced_subgraph_calls", "count", ("graphs.induced_subgraph",)),
    ("graphs.verify_s", "s", ("graphs.verify",)),
    ("graphs.complement_s", "s", ("graphs.complement",)),
    ("deletion.self_s", "s", ("deletion.enumerate", "recognition.occurrence", "graphs.induced_subgraph")),
    ("deletion.enumerate_s", "s", ("deletion.enumerate",)),
    ("deletion.enumerate_calls", "count", ("deletion.enumerate",)),
    ("deletion.sets_found", "count", ("deletion.enumerate",)),
    ("deletion.candidate_sets", "count", ("engine.decide",)),
    ("deletion.search_nodes", "count", ("deletion.enumerate", "search_nodes")),
    ("recognition.occurrence_s", "s", ("recognition.occurrence",)),
    ("recognition.occurrence_calls", "count", ("recognition.occurrence",)),
    ("engine.decide_s", "s", ("engine.decide",)),
    ("engine.self_s", "s", ("engine.decide", "graphs.complement", "deletion.enumerate",
                            "engine.anchor_color", "backends", "graphs.verify")),
    ("engine.anchor_color_s", "s", ("engine.anchor_color",)),
    ("engine.anchor_color_calls", "count", ("engine.anchor_color",)),
    ("engine.bijections_tried", "count", ("engine.decide",)),
    ("engine.backend_calls", "count", ("engine.decide",)),
    ("engine.backend_call_ratio", "ratio", ("engine.decide",)),
    ("engine.colour_misses", "count", ("engine.anchor_color",)),
    ("backends.s", "s", ("backends",)),
    ("backends.calls", "count", ("backends",)),
    ("backends.yes_ratio", "ratio", ("backends",)),
    ("backends.cotree_s", "s", ("backends.cotree",)),
    ("backends.cotree_calls", "count", ("backends.cotree",)),
    ("backends.canonical_code_calls", "count", ("canonical_code_calls",)),
    ("trace_overhead_s", "s", ()),
)

# counters that must repeat exactly, per op, between traced passes
DETERMINISM_COUNTERS = (
    "bijections_tried", "backend_calls", "search_nodes", "candidate_sets",
    "canonical_code_calls",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# set-up


def import_cli():
    """Import kviso afresh from the sources beside this directory."""
    for name in [m for m in sys.modules if m == "kviso" or m.startswith("kviso.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        cli = importlib.import_module("kviso.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import kviso from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"kviso was imported from {cli.__file__}, not from {SRC}")
    return cli


class Rounds:
    """The workload's instances in order, generated and written round by round.

    Only round 0 (for the traced passes) and the current round are kept, so
    the benchmark's own data stays small next to kviso's.
    """

    def __init__(self, workload: str, seed: int | str, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.cells = len(instances.WORKLOADS[workload])
        self.kept: dict[int, list] = {}

    def round(self, r: int) -> list:
        if r not in self.kept:
            for old in [k for k in self.kept if k != 0]:
                for _inst, pair in self.kept.pop(old):
                    for path in pair:
                        os.remove(path)
            self.kept[r] = [
                (inst, self.write(inst, f"r{r}-{i:02d}"))
                for i, inst in enumerate(instances.build_round(self.workload, self.seed, r))
            ]
        return self.kept[r]

    def get(self, i: int):
        """(instance, (path1, path2)) of the i-th op."""
        return self.round(i // self.cells)[i % self.cells]

    def write(self, inst, stem: str) -> tuple[str, str]:
        pair = (self.workdir / f"{stem}.a.g6", self.workdir / f"{stem}.b.g6")
        pair[0].write_text(instances.to_graph6(inst.g1) + "\n")
        pair[1].write_text(instances.to_graph6(inst.g2) + "\n")
        return str(pair[0]), str(pair[1])


class SetUps:
    """Timed set-ups of the workload; `setup_s` is the median of their times.

    One set-up generates and writes a round of instances, imports kviso
    afresh and runs the warm-up op on the round's first instance. The round
    comes from SETUP_KEY, the same for every seed, so set-up time does not
    depend on which instances a seed draws. Problems are a warm-up op that
    fails or a set-up whose files or warm-up answer differ from the first.
    """

    def __init__(self, workload: str, workdir: Path):
        self.workload, self.workdir = workload, workdir
        self.times: list[float] = []
        self.problems: list[str] = []
        self.first = None

    def run(self, keep: bool = False):
        """Set up once and return the cli module it imported.

        Unless `keep`, the kviso modules imported before are put back, so
        that the ops go on with the modules (and caches) they had.
        """
        saved = {n: m for n, m in sys.modules.items() if n == "kviso" or n.startswith("kviso.")}
        repdir = self.workdir / f"setup{len(self.times)}"
        repdir.mkdir()
        # start each set-up from a collected heap, as a fresh process would;
        # otherwise a collection of the ops' garbage may fall inside it
        gc.collect()
        t0 = perf_counter()
        items = Rounds(self.workload, SETUP_KEY, repdir).round(0)
        cli = import_cli()
        warm, warm_paths = items[0]
        reason, report, _dt = run_checked(cli, warm, warm_paths)
        self.times.append(perf_counter() - t0)
        if reason is not None:
            self.problems.append(f"warm-up op {warm.name}: {reason}")
        seen = ([Path(p).read_text() for _inst, pair in items for p in pair], signature(report))
        if self.first is None:
            self.first = seen
        elif seen != self.first:
            self.problems.append("a set-up gave different files or a different warm-up answer")
        shutil.rmtree(repdir)
        if not keep:
            for name in [n for n in sys.modules if n == "kviso" or n.startswith("kviso.")]:
                del sys.modules[name]
            sys.modules.update(saved)
        return cli


# ---------------------------------------------------------------------------
# one operation


def run_op(cli, inst, paths):
    """Call kviso's CLI once; return (seconds, exit code, stdout, error)."""
    argv = ["iso", paths[0], paths[1], "--param", inst.param, "--k", str(inst.k), "--certificate"]
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = err.getvalue().strip()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue(), error


def check(inst, code, out: str, error: str) -> tuple[str | None, dict]:
    """Return (failure reason or None, parsed report)."""
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"exit code {code} without a JSON report: {error or 'no message'}", {}
    verdict = report.get("verdict")
    if verdict != inst.expected:
        return f"verdict {verdict!r}, expected {inst.expected!r}", report
    if code != inst.exit_code:
        return f"exit code {code}, expected {inst.exit_code}", report
    if inst.kind == "iso" and not instances.check_witness(inst.g1, inst.g2, report.get("witness") or ()):
        return "witness fails the edge check", report
    if inst.kind == "exceeded" and report.get("exceeded_by") != [1, 2]:
        return f"exceeded_by {report.get('exceeded_by')!r}, expected [1, 2]", report
    return None, report


def run_checked(cli, inst, paths):
    dt, code, out, error = run_op(cli, inst, paths)
    reason, report = check(inst, code, out, error)
    return reason, report, dt


def signature(report: dict) -> tuple:
    return tuple(report.get(key) for key in ("verdict", "candidate_sets", "bijections_tried"))


# ---------------------------------------------------------------------------
# end-to-end measurement


def percentile(sorted_values, p: float):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure(cli, rounds: Rounds, seconds: float, setups: SetUps) -> dict:
    """Run ops in order until they have taken `seconds`, number MIN_OPS and
    end a round.

    Ending on a whole round gives every cell the same share of the ops in
    every run, whatever the seed. The set-ups still to do run between ops,
    one per SETUP_REPEATS-th of `seconds`; their time is not op time.
    """
    latencies, failures = [], []
    busy = 0.0
    while busy < seconds or len(latencies) < MIN_OPS or len(latencies) % rounds.cells:
        if len(setups.times) < SETUP_REPEATS and busy >= len(setups.times) * seconds / SETUP_REPEATS:
            setups.run()
        inst, paths = rounds.get(len(latencies))
        reason, _report, dt = run_checked(cli, inst, paths)
        latencies.append(dt)
        busy += dt
        if reason is not None:
            failures.append((len(latencies) - 1, inst.name, reason))
    while len(setups.times) < SETUP_REPEATS:
        setups.run()
    failed_at = {idx for idx, _, _ in failures}
    # a failed op counts as slower than every success: give it the whole
    # busy time, which no single op can exceed
    ranked = sorted(busy if i in failed_at else dt for i, dt in enumerate(latencies))
    tail, beyond = percentile(ranked, TAIL_PERCENTILE)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "ops_per_s": (len(latencies) - len(failures)) / busy,
        "latency_p50_s": percentile(ranked, 50)[0],
        "latency_tail_s": tail,
        "tail_beyond": beyond,
        "rounds": -(-len(latencies) // rounds.cells),
    }


# ---------------------------------------------------------------------------
# traced passes


def layer_values(tr: tracing.Tracer) -> dict:
    calls, total, own, counts = tr.calls, tr.total, tr.self_time, tr.counts
    graphs = ("graphs.load", "graphs.induced_subgraph", "graphs.verify", "graphs.complement")
    bij = counts["bijections_tried"]
    return {
        "cli.self_s": own["cli.main"],
        "graphs.self_s": sum(own[s] for s in graphs),
        "graphs.load_s": total["graphs.load"],
        "graphs.load_calls": calls["graphs.load"],
        "graphs.induced_subgraph_s": total["graphs.induced_subgraph"],
        "graphs.induced_subgraph_calls": calls["graphs.induced_subgraph"],
        "graphs.verify_s": total["graphs.verify"],
        "graphs.complement_s": total["graphs.complement"],
        "deletion.self_s": own["deletion.enumerate"],
        "deletion.enumerate_s": total["deletion.enumerate"],
        "deletion.enumerate_calls": calls["deletion.enumerate"],
        "deletion.sets_found": counts["sets_found"],
        "deletion.candidate_sets": counts["candidate_sets"],
        "deletion.search_nodes": counts["search_nodes"],
        "recognition.occurrence_s": total["recognition.occurrence"],
        "recognition.occurrence_calls": calls["recognition.occurrence"],
        "engine.decide_s": total["engine.decide"],
        "engine.self_s": own["engine.decide"],
        "engine.anchor_color_s": total["engine.anchor_color"],
        "engine.anchor_color_self_s": own["engine.anchor_color"],
        "engine.anchor_color_calls": calls["engine.anchor_color"],
        "engine.bijections_tried": bij,
        "engine.backend_calls": counts["backend_calls"],
        "engine.backend_call_ratio": counts["backend_calls"] / bij if bij else None,
        "engine.colour_misses": counts["colour_misses"],
        "backends.s": total["backends"],
        "backends.calls": calls["backends"],
        "backends.yes_ratio": counts["backend_yes"] / calls["backends"] if calls["backends"] else None,
        "backends.cotree_s": total["backends.cotree"],
        "backends.cotree_calls": calls["backends.cotree"],
        "backends.canonical_code_calls": counts["canonical_code_calls"],
    }


def op_counters(tr: tracing.Tracer) -> tuple:
    return tuple(tr.counts[c] for c in DETERMINISM_COUNTERS) + (tr.calls["recognition.occurrence"],)


def one_pass(cli, items, tracer=None):
    """Run every (instance, paths) once; return (busy seconds, records, failures)."""
    busy, records, failures = 0.0, [], []
    for inst, p in items:
        before = op_counters(tracer) if tracer else ()
        reason, report, dt = run_checked(cli, inst, p)
        busy += dt
        after = op_counters(tracer) if tracer else ()
        records.append((signature(report), tuple(b - a for a, b in zip(before, after))))
        if reason is not None:
            failures.append((inst.name, reason))
    return busy, records, failures


def mismatches(items, want, got, what: str) -> list:
    """Failures for the ops whose record differs from the reference pass."""
    return [(inst.name, f"{what}: {a} then {b}") for (inst, _), a, b in zip(items, want, got) if a != b]


def traced_run(cli, items, seconds: float) -> dict:
    """Alternate untraced and traced passes over `items` for `seconds` of ops.

    Every pass must give each op the same verdict and reported counters, and
    every traced pass the same per-op layer counters; an op that does not
    counts as failed.
    """
    plain, traced, layers, failures, problems = [], [], [], [], []
    unmeasured: dict = {}
    first_plain = first_traced = None
    attempted = 0
    while len(traced) < MIN_TRACED_PASSES or sum(plain) + sum(traced) < seconds:
        busy, records, fails = one_pass(cli, items)
        plain.append(busy)
        sigs = [sig for sig, _ in records]
        first_plain = first_plain or sigs
        failures += fails + mismatches(items, first_plain, sigs, "answer changed between passes")

        tr = tracing.Tracer()
        restore, unmeasured = tracing.install(tr)
        try:
            busy, records, fails = one_pass(cli, items, tr)
        finally:
            restore()
        traced.append(busy)
        failures += fails + mismatches(items, first_plain, [sig for sig, _ in records],
                                       "answer changed under tracing")
        first_traced = first_traced or records
        failures += mismatches(items, first_traced, records, "counters changed between traced passes")
        attempted += 2 * len(items)
        problems += tr.problems
        layers.append(layer_values(tr))

    # times are medians over the traced passes; counts and ratios repeat
    # exactly, and an op where they do not has failed above
    times = {name for name, unit, _needs in PER_LAYER if unit == "s"} | {"engine.anchor_color_self_s"}
    values = {
        name: statistics.median(layer[name] for layer in layers) if name in times else first
        for name, first in layers[0].items()
    }
    values["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    reasons = {}
    for name, _unit, needs in PER_LAYER:
        missing = [unmeasured[n] for n in needs if n in unmeasured]
        if missing:
            reasons[name] = "; ".join(missing)
            values[name] = None
    return {
        "values": values,
        "unmeasured": reasons,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "passes": len(traced),
        "plain_s": statistics.median(plain),
        "traced_s": statistics.median(traced),
    }


def layer_shares(values: dict) -> dict:
    """Self time of each layer, as a share of the traced pass."""
    parts = {
        "cli": values["cli.self_s"],
        "graphs": values["graphs.self_s"],
        "deletion": values["deletion.self_s"],
        "recognition": values["recognition.occurrence_s"],
        "engine loop": values["engine.self_s"],
        "anchor_color": values["engine.anchor_color_self_s"],
        "backends": values["backends.s"],
    }
    if any(v is None for v in parts.values()):
        return {}
    whole = sum(parts.values()) or 1.0
    return {name: v / whole for name, v in parts.items()}


def load_checks(workload: str, v: dict) -> list[tuple[str, bool]]:
    """Does the traced run load the layer this workload was chosen for?"""
    try:
        if workload == "forbidden-scan":
            return [("recognition.occurrence_s >= 0.9 * engine.decide_s",
                     v["recognition.occurrence_s"] >= 0.9 * v["engine.decide_s"])]
        if workload == "anchor-search":
            part = v["engine.self_s"] + v["engine.anchor_color_s"] + v["backends.s"]
            return [("engine.self_s + engine.anchor_color_s + backends.s >= 0.5 * engine.decide_s",
                     part >= 0.5 * v["engine.decide_s"])]
        if workload == "large-remainder":
            shares = layer_shares(v)
            top = shares["graphs"] + shares["anchor_color"]
            rest = [s for name, s in shares.items() if name not in ("graphs", "anchor_color")]
            return [("graphs self + anchor_color self is the largest layer share", top > max(rest))]
    except TypeError:  # an unmeasured input
        return [("layer check", False)]
    return []


# ---------------------------------------------------------------------------
# output


def fmt(value) -> str:
    return "unmeasured" if value is None else repr(value)


def run_workload(args) -> dict:
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = SetUps(args.workload, workdir)
        cli = setups.run(keep=True)
        rounds = Rounds(args.workload, args.seed, workdir)
        rounds.round(0)
        print(f"# workload {args.workload}, seed {args.seed}: {rounds.cells} cells per round")
        metrics, attempted, failures, problems = {}, 0, [], []
        if args.trace in ("0", "both"):
            m = measure(cli, rounds, args.seconds, setups)
            m["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            m["setup_s"] = statistics.median(setups.times)
            print(f"# set-ups: {', '.join(f'{t:.3f}' for t in setups.times)} s")
            attempted += m["attempted"]
            failures += [(name, reason) for _, name, reason in m["failures"]]
            print(f"# {m['attempted']} ops over {m['rounds']} rounds, {m['failed']} failed,"
                  f" fail_ratio {m['failed'] / m['attempted']!r}")
            print(f"# latency_tail_s is p{TAIL_PERCENTILE} of {m['attempted']} ops,"
                  f" {m['tail_beyond']} beyond it")
            for name, unit in END_TO_END:
                print(f"{name} = {fmt(m[name])} {unit}")
                metrics[name] = {"value": m[name], "unit": unit}
        if args.trace in ("1", "both"):
            t = traced_run(cli, rounds.round(0), args.seconds)
            attempted += t["attempted"]
            failures += t["failures"]
            problems += t["problems"]
            v = t["values"]
            print(f"# traced: {t['passes']} traced and {t['passes']} untraced passes over round 0;"
                  f" per pass: {t['plain_s']:.3f} s untraced, {t['traced_s']:.3f} s traced")
            for name, unit, _needs in PER_LAYER:
                note = f"  ({t['unmeasured'][name]})" if name in t["unmeasured"] else ""
                print(f"{name} = {fmt(v[name])} {unit}{note}")
                metrics[name] = {"value": v[name], "unit": unit}
            for name, share in layer_shares(v).items():
                print(f"# share {name}: {share:.3f}")
            for claim, holds in load_checks(args.workload, v):
                print(f"# layer check: {claim}: {'holds' if holds else 'does not hold'}")
        for name, reason in failures:
            print(f"# FAILED {name}: {reason}")
        for problem in setups.problems + problems:
            print(f"# PROBLEM {problem}")
        return {
            "correct": not failures and not problems and not setups.problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is that workload's."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in instances.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]))
        sub = json.loads(lines[-1])
        result["correct"] = result["correct"] and sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for name, metric in sub["metrics"].items():
            result["metrics"][f"{workload}/{name}"] = metric
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*instances.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import_cli()
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (SetupError, instances.CertificateError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
