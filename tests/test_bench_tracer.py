"""The benchmark's span tracer finds every layer it wraps in the package."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves(monkeypatch):
    # the tracer looks its targets up by name only when a traced run installs
    # it, so a renamed or deleted layer would break that run and nothing else
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        owner = importlib.import_module("logmeans." + target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target.name
