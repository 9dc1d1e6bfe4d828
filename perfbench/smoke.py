"""Smoke test of the benchmark on tiny inputs.

    python3 perfbench/smoke.py

Checks that every workload runs and passes its own correctness gate, that
each run reports exactly the metrics of BENCHMARK.json with their units
(and the latency percentiles in its results file),
that self times are nonnegative, that a second seed yields the same metric
set, that the exact counters repeat for a repeated seed, that the oracles
agree with the package's brute-force counter, and that the benchmark fails
without printing a result where the package source is missing.  Exits 1 on
the first failed check.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTERS = ("lp.pivots", "spectral.wht.points",
                  "spectral.self_convolution.calls", "counting.dual_queries",
                  "gf2.span_words")


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=300)


def result_of(workload, seed, trace):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        fail("%s seed %d trace %d exited %d: %s" % (
            workload, seed, trace, proc.returncode, proc.stderr[-500:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s seed %d trace %d: correct=%s failed=%s; see perfbench/out/"
             % (workload, seed, trace, result["correct"], result["failed"]))
    return result["metrics"]


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != [tuple(m) for m in metrics.END_TO_END]:
        fail("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != [tuple(m[:3]) for m in metrics.PER_LAYER]:
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        fail("BENCHMARK.json workloads differ from workloads.NAMES")


def check_metrics(values, trace):
    defs = metrics.PER_LAYER if trace else metrics.END_TO_END
    if list(values) != [m[0] for m in defs]:
        fail("metric names %s" % sorted(set(values) ^ {m[0] for m in defs}))
    for name, unit, *_ in defs:
        if values[name]["unit"] != unit:
            fail("%s has unit %s, expected %s" % (name, values[name]["unit"], unit))
        if name.endswith("self_s") and values[name]["value"] < -1e-9:
            fail("%s is negative: %r" % (name, values[name]["value"]))
        if not trace and not values[name]["value"] > 0:
            fail("end-to-end metric %s is %r" % (name, values[name]["value"]))


def check_latency(workload, seed):
    record = json.loads((HERE / "out" / ("%s-seed%d-trace0-tiny.json"
                                         % (workload, seed))).read_text())
    latency = record["latency"]
    if list(latency) != [m[0] for m in metrics.LATENCY]:
        fail("results file latency names %s" % sorted(latency))
    for name, entry in latency.items():
        if not entry["value"] > 0:
            fail("%s latency %s is %r" % (workload, name, entry["value"]))


def check_oracles():
    sys.path.insert(0, str(ROOT / "src"))
    from constrcodes import count_brute, parse_constraint
    from constrcodes.gf2 import BinaryLinearCode, BitMatrix
    rng = random.Random(5)
    cases = [("2charge", "2charge", {}), ("rll:d=1", "rll", {"d": 1}),
             ("rll:d=2", "rll", {"d": 2}), ("even-strict", "even-strict", {}),
             ("odd-strict", "odd-strict", {}), ("odd", "odd", {}),
             ("weight:i=5", "weight", {"i": 5}),
             ("subblock:p=3,z=2", "subblock", {"p": 3, "z": 2})]
    for text, family, params in cases:
        for n in (9, 12):
            if family == "odd" and n % 2:
                continue
            for dim in (2, 5, 8):
                rows = workloads.full_rank_rows(rng, dim, n)
                code = BinaryLinearCode(parity_check=BitMatrix(rows, n), n=n)
                aut = oracle.automaton(family, n, **params)
                want = count_brute(code, parse_constraint(text))
                got = (oracle.count_by_syndrome_trellis(aut, n, rows),
                       oracle.count_by_enumeration(aut, n, code.generator.data))
                if got != (want, want):
                    fail("oracle %s n=%d r=%d: %s, brute %d" % (text, n, dim, got, want))


def check_missing_package():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    try:
        proc = run("count", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a checkout without src/ gave exit %d and output %r"
             % (proc.returncode, proc.stdout[-200:]))


def main():
    check_benchmark_json()
    check_oracles()
    check_missing_package()
    for workload in workloads.NAMES:
        for trace in (0, 1):
            first = result_of(workload, 1, trace)
            check_metrics(first, trace)
            if not trace:
                check_latency(workload, 1)
            second = result_of(workload, 2, trace)
            check_metrics(second, trace)
            if trace:
                again = result_of(workload, 1, trace)
                for name in EXACT_COUNTERS:
                    if first[name]["value"] != again[name]["value"]:
                        fail("%s %s: %r then %r with the same seed" % (
                            workload, name, first[name]["value"],
                            again[name]["value"]))
        print("ok", workload)
    print("smoke test passed")


if __name__ == "__main__":
    main()
