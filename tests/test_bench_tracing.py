"""The benchmark's tracer must still see every kviso name it wraps.

`bench/tracing.py` replaces kviso functions where their callers look them
up. A renamed or deleted name leaves its span unmeasured, and a function
bound where the tracer cannot reach it hides its calls; both break the
traced benchmark run, so both are caught here first.
"""

import importlib
import importlib.util
from pathlib import Path

from kviso.graphs import emit_graph6, path_graph, relabel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_site_exists():
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _ in load_tracing().SITES
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert missing == []


def test_tracer_sees_every_backend_call(tmp_path, capsys):
    # P4 against a relabelled copy is isomorphic and within k=2 of every
    # base class, so each parameterization makes at least one backend call
    a, b = tmp_path / "a.g6", tmp_path / "b.g6"
    a.write_text(emit_graph6(path_graph(4)) + "\n")
    b.write_text(emit_graph6(relabel(path_graph(4), [2, 0, 3, 1])) + "\n")
    tracing = load_tracing()
    cli = importlib.import_module("kviso.cli")
    for param in cli.PARAM_CHOICES:
        tracer = tracing.Tracer()
        restore, unmeasured = tracing.install(tracer)
        try:
            rc = cli.main(["iso", str(a), str(b), "--param", param, "--k", "2"])
        finally:
            restore()
        capsys.readouterr()
        assert rc == 0, param
        assert unmeasured == {}, param
        assert tracer.problems == [], param
        assert tracer.calls["backends"] == tracer.counts["backend_calls"] >= 1, param
