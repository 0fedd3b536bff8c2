"""Every lookup site the benchmark's tracer wraps resolves in the library.

``perfbench/spans.py`` wraps functions by name where their callers look them
up (``beltramilab.cli.injectivity_check``, ``beltramilab.homogenization.
stream_function``, ...).  A renamed function or a dropped import would only
fail the traced benchmark run; here it fails the suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    sites = [(importlib.import_module(module), attr) for module, attr, _ in spans.SITES]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = spans.Tracer().install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
