"""The benchmark's tracer (`perfbench/tracing.py`) wraps package names it
lists in `ENTRY_POINTS`; a listed name the package no longer defines breaks
every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_entry_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for modname, attr, _, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module("%s.%s" % (tracing.PACKAGE, modname))
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
