"""The benchmark's tracer (`perfbench/tracing.py`) wraps package names it
lists in `ENTRY_POINTS`; a listed name the package no longer defines breaks
every traced benchmark run, and a character sum it no longer sees leaves
the per-layer metrics without their hot spot."""

import importlib
import importlib.util
from pathlib import Path

import constrcodes.cli  # noqa: F401 - the tracer wraps every layer's module
from constrcodes import counting, hamming_code, rll

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_entry_points_exist():
    tracing = load_tracing()
    assert tracing.ENTRY_POINTS
    for modname, attr, _, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module("%s.%s" % (tracing.PACKAGE, modname))
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)


def test_traced_dual_count_makes_one_char_sum_per_dual_word():
    # the dual sum of a high-rate code is one `char_sum_int` call per word
    # of the dual code, seen by the tracer under the layer and the family
    code = hamming_code(4)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        result = counting.count_in_code(code, rll(1))
    finally:
        tracer.uninstall()
    words = 1 << (code.n - code.k)
    assert result.method == "dual_sum"
    assert tracer.stats["constraints.char_sum"].calls == words
    assert tracer.families["rll-d1"].calls == words
    assert tracer.counters["counting.dual_queries"] == words
