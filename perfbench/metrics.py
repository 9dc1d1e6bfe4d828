"""Metric definitions: one place for every name, unit and direction.

END_TO_END metrics come from untraced runs; PER_LAYER metrics from traced
runs.  Each per-layer metric names the end-to-end metrics and workloads it
is predicted to move, so a change in a trajectory can be explained by the
layer that moved.  `BENCHMARK.json` lists the same names and units; the
smoke test checks that the two agree.
"""

import statistics

from tracing import FAMILIES, LAYERS

# name, unit, better, bound (largest tolerated worsening, share of median).
# Timings get the largest bound allowed: on a shared 2-core machine even a
# fixed pure-Python loop varies by about 10% (quartile distance over median),
# and the machine's speed drifts by up to 30% over tens of seconds, which no
# amount of work inside one 40-s run averages out.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

# Per-operation latency: written to every results file, but not bounded.
# They rest on few short samples (20 operations per run on `spectral`, 12 to
# 18 on `lp-dense`; the seven slowest queries on `count`), and their
# ten-run spreads reached 0.27-0.31 on the machine above, beyond the largest
# bound a metric may have.
LATENCY = [
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("slowest_op_s", "s"),
]

COUNT_WALL = [("wall_s", "count"), ("op_p90_ms", "count")]
SPECTRAL_WALL = [("wall_s", "spectral"), ("slowest_op_s", "spectral")]
LP_WALL = [("wall_s", "lp-dense"), ("slowest_op_s", "lp-dense")]

# name, unit, better, [(end-to-end metric, workload) it should move]
PER_LAYER = [
    ("gf2.code_build.calls", "count", "lower", [("wall_s", "count")]),
    ("gf2.code_build.self_s", "s", "lower", [("wall_s", "count")]),
    ("gf2.span_words", "count", "lower", [("wall_s", "count")]),
    ("setup.gf2.code_build.calls", "count", "lower", [("setup_s", "count")]),
    ("setup.gf2.code_build.self_s", "s", "lower", [("setup_s", "count")]),
    ("setup.inputs_s", "s", "lower",
     [("setup_s", "count"), ("setup_s", "spectral"), ("setup_s", "lp-dense")]),
    ("constraints.char_sum.calls", "count", "lower",
     COUNT_WALL + [("wall_s", "spectral")]),
    ("constraints.char_sum.self_s", "s", "lower",
     COUNT_WALL + [("wall_s", "spectral")]),
    ("constraints.char_sum.ns_per_call", "ns", "lower",
     COUNT_WALL + [("wall_s", "spectral")]),
] + [
    ("constraints.char_sum.%s.self_s" % fam, "s", "lower",
     COUNT_WALL + [("wall_s", "spectral")]) for fam in FAMILIES
] + [
    ("constraints.member.calls", "count", "lower",
     [("wall_s", "count"), ("wall_s", "spectral")]),
    ("constraints.member.self_s", "s", "lower",
     [("wall_s", "count"), ("wall_s", "spectral")]),
    ("constraints.orbit_structure.self_s", "s", "lower", [("wall_s", "spectral")]),
    ("constraints.orbit_char_sum.calls", "count", "lower", [("wall_s", "spectral")]),
    ("constraints.orbit_char_sum.self_s", "s", "lower", [("wall_s", "spectral")]),
    ("spectral.wht.calls", "count", "lower", SPECTRAL_WALL),
    ("spectral.wht.points", "count", "lower", SPECTRAL_WALL),
    ("spectral.wht.self_s", "s", "lower", SPECTRAL_WALL + [("wall_s", "lp-dense")]),
    ("spectral.wht.ns_per_point", "ns", "lower", SPECTRAL_WALL),
    ("spectral.self_convolution.calls", "count", "lower", SPECTRAL_WALL),
    ("spectral.self_convolution.self_s", "s", "lower",
     SPECTRAL_WALL + [("wall_s", "lp-dense")]),
    ("spectral.weight_class_sums.self_s", "s", "lower", SPECTRAL_WALL),
    ("spectral.krawtchouk_table.self_s", "s", "lower",
     [("setup_s", "spectral"), ("wall_s", "spectral")]),
    ("counting.count_in_code.calls", "count", "lower", COUNT_WALL),
    ("counting.count_in_code.self_s", "s", "lower", COUNT_WALL),
    ("counting.dual_queries", "count", "lower", COUNT_WALL),
    ("counting.direct_words", "count", "lower", [("wall_s", "count")]),
    ("counting.weight_distribution.self_s", "s", "lower", SPECTRAL_WALL),
    ("counting.constrained_weight_distribution.self_s", "s", "lower",
     [("wall_s", "spectral")]),
    ("lp.bound.calls", "count", "lower", LP_WALL + [("wall_s", "spectral")]),
    ("lp.build.self_s", "s", "lower", LP_WALL + [("wall_s", "spectral")]),
    ("lp.solve.calls", "count", "lower", LP_WALL + [("wall_s", "spectral")]),
    ("lp.solve.self_s", "s", "lower", LP_WALL + [("wall_s", "spectral")]),
    ("lp.pivots", "count", "lower", LP_WALL + [("wall_s", "spectral")]),
    ("lp.us_per_pivot", "us", "lower", LP_WALL),
    ("lp.rows", "count", "lower", LP_WALL),
    ("lp.cols", "count", "lower", LP_WALL),
    ("lp.update_bytes_computed", "bytes", "lower", LP_WALL),
    ("lp.nonoptimal", "count", "lower", LP_WALL),
    ("cli.main.calls", "count", "lower",
     [("wall_s", "count"), ("wall_s", "spectral"), ("wall_s", "lp-dense")]),
    ("cli.self_s", "s", "lower",
     [("wall_s", "count"), ("wall_s", "spectral"), ("wall_s", "lp-dense")]),
] + [
    ("%s.self_s" % layer, "s", "lower",
     [("wall_s", "count"), ("wall_s", "spectral"), ("wall_s", "lp-dense")])
    for layer in LAYERS if layer != "cli"
] + [
    ("trace.overhead_frac", "ratio", "lower", []),
    ("trace.unattributed_frac", "ratio", "lower", []),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + LATENCY + PER_LAYER}


def _self(stats, name):
    return stats.get(name, {}).get("self_s", 0.0)


def _calls(stats, name):
    return stats.get(name, {}).get("calls", 0)


def per_layer_values(snap, traced_wall_s):
    """Per-layer metric values of one traced pass, from Tracer.snapshot()."""
    stats, fams, counters = snap["stats"], snap["families"], snap["counters"]
    out = {
        "gf2.code_build.calls": _calls(stats, "gf2.code_build"),
        "gf2.code_build.self_s": _self(stats, "gf2.code_build"),
        "gf2.span_words": counters.get("gf2.span_words", 0),
    }
    for short in ("char_sum", "member", "orbit_char_sum"):
        out["constraints.%s.calls" % short] = _calls(stats, "constraints." + short)
    for short in ("char_sum", "member", "orbit_structure", "orbit_char_sum"):
        out["constraints.%s.self_s" % short] = _self(stats, "constraints." + short)
    calls = out["constraints.char_sum.calls"]
    out["constraints.char_sum.ns_per_call"] = (
        out["constraints.char_sum.self_s"] / calls * 1e9 if calls else 0.0)
    for fam in FAMILIES:
        out["constraints.char_sum.%s.self_s" % fam] = \
            fams.get(fam, {}).get("self_s", 0.0)

    out["spectral.wht.calls"] = _calls(stats, "spectral.wht")
    out["spectral.wht.points"] = counters.get("spectral.wht.points", 0)
    out["spectral.wht.self_s"] = _self(stats, "spectral.wht")
    out["spectral.wht.ns_per_point"] = (
        out["spectral.wht.self_s"] / out["spectral.wht.points"] * 1e9
        if out["spectral.wht.points"] else 0.0)
    out["spectral.self_convolution.calls"] = _calls(stats, "spectral.self_convolution")
    for short in ("self_convolution", "weight_class_sums", "krawtchouk_table"):
        out["spectral.%s.self_s" % short] = _self(stats, "spectral." + short)

    out["counting.count_in_code.calls"] = _calls(stats, "counting.count_in_code")
    out["counting.count_in_code.self_s"] = _self(stats, "counting.count_in_code")
    out["counting.dual_queries"] = counters.get("counting.dual_queries", 0)
    out["counting.direct_words"] = counters.get("counting.direct_words", 0)
    for short in ("weight_distribution", "constrained_weight_distribution"):
        out["counting.%s.self_s" % short] = _self(stats, "counting." + short)

    out["lp.bound.calls"] = _calls(stats, "lp.build")
    out["lp.build.self_s"] = _self(stats, "lp.build")
    out["lp.solve.calls"] = _calls(stats, "lp.solve")
    out["lp.solve.self_s"] = _self(stats, "lp.solve")
    for key in ("lp.pivots", "lp.rows", "lp.cols", "lp.update_bytes_computed",
                "lp.nonoptimal"):
        out[key] = counters.get(key, 0)
    out["lp.us_per_pivot"] = (out["lp.solve.self_s"] / out["lp.pivots"] * 1e6
                              if out["lp.pivots"] else 0.0)

    out["cli.main.calls"] = _calls(stats, "cli.main")
    out["cli.self_s"] = _self(stats, "cli.main")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in stats.items():
        layer_self[name.partition(".")[0]] += entry["self_s"]
    for layer in LAYERS:
        if layer != "cli":
            out["%s.self_s" % layer] = layer_self[layer]
    attributed = sum(layer_self.values())
    out["trace.unattributed_frac"] = (
        1.0 - attributed / traced_wall_s if traced_wall_s else 0.0)
    return out


def median_of(dicts):
    """Key-wise median of a list of metric dicts with the same keys; a value
    that every dict agrees on (an exact counter) is kept as it is."""
    out = {}
    for k in dicts[0]:
        values = [d[k] for d in dicts]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
