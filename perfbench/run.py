"""Benchmark of the constrcodes package, run in-process from source.

    python3 perfbench/run.py --workload count --seed 1 --seconds 36 --trace 0

One closed-loop client in one process runs the workload's operations one
after another, pass after pass, and starts another pass only while it is
predicted to end within `--seconds`; every run makes at least one pass.
Outputs are kept and checked against independent oracles after the timed
loop.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, from untraced passes;
the per-operation latency percentiles go to the results file only.
With `--trace 1` the run first makes untraced passes for half of its time,
then traced passes (see tracing.py) for the rest, and reports the per-layer
metrics, medians over the traced passes.  A results file with the
environment, every sample, every failure and the trace spans is written to
perfbench/out/.

setup_s is measured in fresh interpreters: the run starts the same script
in a set-up probe mode SETUP_PROBES times, one after another, and takes
the median time from starting the interpreter to the moment the probe has
imported the package and built the workload's inputs.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout."""


def load_package():
    """Import constrcodes from this checkout's src/, never from elsewhere."""
    if not (SRC / "constrcodes" / "__init__.py").is_file():
        raise SetupError("no package source at src/constrcodes")
    sys.path.insert(0, str(SRC))
    import constrcodes
    import constrcodes.cli  # noqa: F401 - the command surface is not imported by the package
    if Path(constrcodes.__file__).resolve().parent != (SRC / "constrcodes").resolve():
        raise SetupError("constrcodes imported from %s" % constrcodes.__file__)
    return constrcodes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller inputs for the smoke test
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _blas():
    """BLAS library name and version as numpy reports them, and its thread
    count, asked from the loaded OpenBLAS when there is one."""
    import ctypes

    import numpy as np
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(args):
    """Probe mode: import, build the inputs, report readiness, exit."""
    load_package()
    import workloads
    workloads.build(args.workload, args.seed, args.scale)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(args):
    """Seconds from interpreter start to inputs built, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT),
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise SetupError("set-up probe failed with exit code %s" % rc)
        samples.append(elapsed)
    return samples


class Loop:
    """Runs passes over the operations and keeps every sample and output."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.samples = [[] for _ in ops]   # seconds per op, per pass
        self.outputs = []                  # (pass, op index, output, error)
        self.pass_walls = []
        self.traced = []                   # pass walls with tracing on
        self.snapshots = []

    def one_pass(self, traced):
        index = len(self.pass_walls) + len(self.traced)
        clock = time.perf_counter
        if traced:
            self.tracer.reset()
        start = clock()
        for i, op in enumerate(self.ops):
            if traced:
                self.tracer.op = i
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # the operation failed; keep going
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            t1 = clock()
            if not traced:
                self.samples[i].append(t1 - t0)
            self.outputs.append((index, i, out, err))
        wall = clock() - start
        if traced:
            self.traced.append(wall)
            self.snapshots.append(self.tracer.snapshot())
        else:
            self.pass_walls.append(wall)
        return wall

    def run(self, budget_s, traced=False):
        """At least one pass; another only while it should end in budget."""
        start = time.perf_counter()
        walls = []
        while True:
            walls.append(self.one_pass(traced))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > budget_s:
                return

    def check(self):
        """(attempted, failures) over every output kept."""
        failures = []
        for pass_index, i, out, err in self.outputs:
            problem = err if err is not None else self.ops[i].check(out)
            if problem is not None:
                failures.append({"pass": pass_index, "op": self.ops[i].label,
                                 "detail": problem})
        return len(self.outputs), failures


def end_to_end(loop, setup_samples, peak_rss_mb):
    flat = sorted(s for per_op in loop.samples for s in per_op)
    deciles = statistics.quantiles(flat, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(loop.pass_walls),
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(flat) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "slowest_op_s": max(statistics.median(s) for s in loop.samples),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args)
    import metrics
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        raise SetupError("unknown workload %r" % args.workload)
    load_package()
    env = environment(args.seed)

    setup_samples, setup_metrics = [], {}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = "setup"
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, args.scale)
        setup_wall = time.perf_counter() - t0
        snap = tracer.snapshot()["stats"].get("gf2.code_build", {})
        tracer.uninstall()
        setup_metrics = {"setup.gf2.code_build.calls": snap.get("calls", 0),
                         "setup.gf2.code_build.self_s": snap.get("self_s", 0.0),
                         "setup.inputs_s": setup_wall}
    else:
        ops = workloads.build(args.workload, args.seed, args.scale)
        in_process_setup_s = time.perf_counter() - _STARTED
        setup_samples = measure_setup(args)

    loop = Loop(ops, tracer)
    start = time.perf_counter()
    if args.trace:
        loop.run(args.seconds / 2)
        tracer.install()
        try:
            loop.run(args.seconds - (time.perf_counter() - start), traced=True)
        finally:
            tracer.uninstall()
    else:
        loop.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start

    attempted, failures = loop.check()
    if args.trace:
        per_pass = [metrics.per_layer_values(s, w)
                    for s, w in zip(loop.snapshots, loop.traced)]
        values = metrics.median_of(per_pass)
        values.update(setup_metrics)
        values["trace.overhead_frac"] = (statistics.median(loop.traced)
                                         / statistics.median(loop.pass_walls) - 1)
        names = [m[0] for m in metrics.PER_LAYER]
    else:
        values = end_to_end(loop, setup_samples, peak_rss_mb)
        names = [m[0] for m in metrics.END_TO_END]

    def with_units(names):
        return {name: {"value": values[name], "unit": metrics.UNITS[name]}
                for name in names}
    reported = with_units(names)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": reported}

    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": env,
        "result": result,
        "ops_failed_frac": len(failures) / attempted,
        "failures": failures,
        "measured_s": measured_s,
        "pass_walls_s": loop.pass_walls,
        "traced_pass_walls_s": loop.traced,
        "setup_samples_s": setup_samples,
        "ops": [{"label": op.label, "samples_s": loop.samples[i]}
                for i, op in enumerate(ops)],
        "metric_definitions": {
            "end_to_end": [dict(zip(("name", "unit", "better", "bound"), m))
                           for m in metrics.END_TO_END],
            "latency": [dict(zip(("name", "unit"), m)) for m in metrics.LATENCY],
            "per_layer": [{"name": n, "unit": u, "better": b,
                           "moves": [{"metric": e, "workload": w} for e, w in mv]}
                          for n, u, b, mv in metrics.PER_LAYER],
        },
    }
    if not args.trace:
        record["latency"] = with_units(m[0] for m in metrics.LATENCY)
        record["in_process_setup_s"] = in_process_setup_s
    if tracer is not None:
        record["trace_passes"] = loop.snapshots
        record["spans"] = [
            {"op": ops[op].label if isinstance(op, int) else op, "id": sid,
             "parent": parent, "name": name, "start": s0, "end": s1}
            for op, sid, parent, name, s0, s1 in tracer.spans]
    OUT.mkdir(exist_ok=True)
    suffix = "" if args.scale == "full" else "-" + args.scale
    path = OUT / ("%s-seed%d-trace%d%s.json"
                  % (args.workload, args.seed, args.trace, suffix))
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
