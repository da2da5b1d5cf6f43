"""Per-layer spans recorded from the benchmark side.

The tracer replaces kviso functions with timing wrappers at the place where
their caller looks the name up: a module global read at call time, or the
engine's family-to-backend table, which holds function objects bound at
import. Nothing inside kviso changes. Each span adds its duration to its
parent, so a layer's self time is its total minus the time of the spans it
caused.

A name that no longer exists is reported as unmeasured, with the reason,
instead of as a silent zero.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span): every wrapped lookup site. Spans sharing a name
# aggregate, e.g. the three deletion enumerators the engine calls.
SITES = (
    ("kviso.cli", "main", "cli.main"),
    ("kviso.cli", "load_graph", "graphs.load"),
    ("kviso.cli", "decide", "engine.decide"),
    ("kviso.engine", "complement", "graphs.complement"),
    ("kviso.engine", "induced_subgraph", "graphs.induced_subgraph"),
    ("kviso.deletion", "induced_subgraph", "graphs.induced_subgraph"),
    ("kviso.engine", "verify_isomorphism", "graphs.verify"),
    ("kviso.engine", "enumerate_deletion_sets", "deletion.enumerate"),
    ("kviso.engine", "enumerate_minimal_vertex_covers", "deletion.enumerate"),
    ("kviso.engine", "enumerate_twin_covers", "deletion.enumerate"),
    ("kviso.deletion", "first_occurrence_avoiding", "recognition.occurrence"),
    ("kviso.engine", "anchor_color", "engine.anchor_color"),
    ("kviso.engine", "colored_gi_independent", "backends"),
    ("kviso.engine", "colored_gi_cluster", "backends"),
    ("kviso.engine", "_FAMILY_BACKENDS", "backends"),
    ("kviso.backends", "build_cotree", "backends.cotree"),
    ("kviso.backends", "canonical_code", None),  # counted, not timed
)

def _bits(mask: int):
    """Single-bit masks of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.problems: list[str] = []  # trace consistency failures
        self._stack: list[float] = []  # child time of each open span
        self._probes: list | None = None  # occurrence results inside a search

    def timed(self, span: str, fn, after=None):
        """Wrap fn in a span; `after(args, kwargs, result)` sees each return."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.calls[span] += 1
                self.total[span] += dt
                self.self_time[span] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- wrappers with counters -------------------------------------------

    def wrap(self, attr: str, span: str | None, fn, search_stats):
        if span is None:  # canonical_code: recursive, so a counter only
            def counted(*args, **kwargs):
                self.counts["canonical_code_calls"] += 1
                return fn(*args, **kwargs)

            return counted
        if span == "engine.decide":
            return self._decide(fn)
        if span == "deletion.enumerate":
            inner = self._search(fn, search_stats) if attr == "enumerate_deletion_sets" else fn
            return self.timed(span, inner, self._sets_found)
        if span == "recognition.occurrence":
            return self.timed(span, fn, self._occurrence)
        if span == "engine.anchor_color":
            return self.timed(span, self._colour_misses(fn))
        if span == "backends":
            return self.timed(span, fn, self._backend)
        return self.timed(span, fn)

    def _sets_found(self, args, kwargs, result):
        self.counts["sets_found"] += len(result)

    def _occurrence(self, args, kwargs, result):
        if self._probes is not None:
            removed = args[2] if len(args) > 2 else kwargs.get("removed_mask", 0)
            self._probes.append((removed, result is None))

    def _backend(self, args, kwargs, result):
        if result.isomorphic:
            self.counts["backend_yes"] += 1

    def _colour_misses(self, fn):
        def anchor_color(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except KeyError:
                self.counts["colour_misses"] += 1
                raise

        return anchor_color

    def _search(self, fn, search_stats):
        """Pass a SearchStats into enumerate_deletion_sets and read it back.

        Every search-tree node asks for one occurrence, and the search ends
        before the minimality probes start, so the first `nodes` occurrence
        spans are the tree; each later one removes one vertex from a leaf.
        """

        def enumerate_deletion_sets(*args, **kwargs):
            if search_stats is None or len(args) > 3 or "stats" in kwargs:
                return fn(*args, **kwargs)
            stats = search_stats()
            outer, self._probes = self._probes, []
            try:
                result = fn(*args, stats=stats, **kwargs)
            finally:
                probes, self._probes = self._probes, outer
            self.counts["search_nodes"] += stats.nodes
            tree, rest = probes[: stats.nodes], probes[stats.nodes:]
            leaves = {mask for mask, clear in tree if clear}
            below = {leaf ^ bit for leaf in leaves for bit in _bits(leaf)}
            ok = (
                len(tree) == stats.nodes
                and len(rest) <= sum(leaf.bit_count() for leaf in leaves)
                and all(mask in below for mask, _ in rest)
            )
            if not ok:
                self.problems.append(
                    f"{stats.nodes} search nodes but {len(probes)} occurrence spans"
                    " that do not split into tree nodes and leaf probes"
                )
            return result

        return enumerate_deletion_sets

    def _decide(self, fn):
        engine_stats = importlib.import_module("kviso.engine").EngineStats

        def decide(*args, **kwargs):
            stats = kwargs.get("stats") if len(args) < 4 else args[3]
            if stats is None:
                stats = engine_stats()
                kwargs["stats"] = stats
            spans_before = self.calls["backends"]
            result = fn(*args, **kwargs)
            spans = self.calls["backends"] - spans_before
            if spans != stats.backend_calls:
                self.problems.append(
                    f"{spans} backend spans but EngineStats.backend_calls = {stats.backend_calls}"
                )
            self.counts["bijections_tried"] += stats.bijections_tried
            self.counts["backend_calls"] += stats.backend_calls
            self.counts["candidate_sets"] += stats.candidate_sets
            return result

        return self.timed("engine.decide", decide)


def install(tracer: Tracer):
    """Wrap every site; return (undo, unmeasured) with reasons by span.

    `undo()` puts the original objects back.
    """
    undo: list = []
    unmeasured: dict[str, str] = {}
    try:
        search_stats = importlib.import_module("kviso.deletion").SearchStats
    except AttributeError:
        search_stats = None
        unmeasured["search_nodes"] = "kviso.deletion.SearchStats no longer exists"
    for modname, attr, span in SITES:
        mod = importlib.import_module(modname)
        key = span or "canonical_code_calls"
        if not hasattr(mod, attr):
            unmeasured.setdefault(key, f"{modname}.{attr} no longer exists")
            continue
        original = getattr(mod, attr)
        if isinstance(original, dict):
            # the table maps family names to backends bound at import
            wrapped = {}
            table = {}
            for fam, fn in original.items():
                if fn not in wrapped:
                    wrapped[fn] = tracer.wrap(attr, span, fn, search_stats)
                table[fam] = wrapped[fn]
            saved = dict(original)
            original.update(table)
            undo.append(lambda d=original, s=saved: (d.clear(), d.update(s)))
            continue
        setattr(mod, attr, tracer.wrap(attr, span, original, search_stats))
        undo.append(lambda m=mod, a=attr, o=original: setattr(m, a, o))

    def restore():
        for step in reversed(undo):
            step()

    return restore, unmeasured
