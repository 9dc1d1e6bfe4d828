"""Per-layer tracing from outside the package.

The tracer wraps the public entry points of each module of `constrcodes`
and rebinds every name in every `constrcodes.*` namespace that refers to
them, because modules hold their own references (`lp` calls its imported
`self_convolution_counts` and `member_int`, `cli` its imported
`count_in_code`, and so on).  No file of the package is changed, and
`uninstall` puts the original bindings back.

A span's self time is its duration minus the durations of the spans it
called.  Calls made millions of times per run (character sums, membership
tests, orbit character sums, Krawtchouk table lookups) are only aggregated;
every other span is also kept in memory as a record and written out when
the run ends.
"""

import functools
import sys
import time

PACKAGE = "constrcodes"

# (module, attribute, span name, hot).  A hot span is aggregated only.
ENTRY_POINTS = [
    ("gf2", "BinaryLinearCode.__init__", "gf2.code_build", False),
    ("gf2", "reed_muller", "gf2.code_build", False),
    ("gf2", "hamming_code", "gf2.code_build", False),
    ("gf2", "simplex_code", "gf2.code_build", False),
    ("gf2", "zero_code", "gf2.code_build", False),
    ("gf2", "dual_code", "gf2.code_build", False),
    ("gf2", "load_code", "gf2.code_build", False),
    ("constraints", "char_sum_int", "constraints.char_sum", True),
    ("constraints", "member_int", "constraints.member", True),
    ("constraints", "member_ints", "constraints.member_ints", False),
    ("constraints", "cardinality", "constraints.cardinality", False),
    ("constraints", "orbit_structure", "constraints.orbit_structure", False),
    ("constraints", "orbit_char_sum", "constraints.orbit_char_sum", True),
    ("spectral", "wht", "spectral.wht", False),
    ("spectral", "self_convolution_counts", "spectral.self_convolution", False),
    ("spectral", "weight_class_sums", "spectral.weight_class_sums", False),
    ("spectral", "krawtchouk_table", "spectral.krawtchouk_table", True),
    ("counting", "count_in_code", "counting.count_in_code", False),
    ("counting", "count_brute", "counting.count_brute", False),
    ("counting", "count_odd_in_code", "counting.count_odd_in_code", False),
    ("counting", "weight_distribution", "counting.weight_distribution", False),
    ("counting", "constrained_weight_distribution",
     "counting.constrained_weight_distribution", False),
    ("counting", "code_weight_distribution", "counting.code_weight_distribution",
     False),
    ("counting", "macwilliams", "counting.macwilliams", False),
    ("counting", "two_charge_structure", "counting.two_charge_structure", False),
    ("counting", "rm_subblock_count_plotkin", "counting.rm_subblock_count_plotkin",
     False),
    ("lp", "del_classic", "lp.build", False),
    ("lp", "del_full", "lp.build", False),
    ("lp", "del_constrained", "lp.build", False),
    ("lp", "del_constrained_sym", "lp.build", False),
    ("lp", "gensph", "lp.build", False),
    ("lp", "dual_certificate_bound", "lp.build", False),
    ("lp", "solve", "lp.solve", False),
    ("cli", "main", "cli.main", False),
]

LAYERS = ("gf2", "constraints", "spectral", "counting", "lp", "cli")

# character-sum families reported on their own, keyed by constraint text
FAMILIES = ("2charge", "subblock", "rll-d1", "rll-d2", "even-strict", "odd",
            "weight")


def family_of(constraint):
    """Family label of a constraint from its public text form."""
    text = str(constraint)
    head = text.partition(":")[0]
    if head == "rll":
        return "rll-d" + text.partition("=")[2]
    if head == "odd-strict":
        return "odd"
    return head


class Stat:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Span aggregation for one process; install() before the traced work,
    uninstall() after it."""

    def __init__(self):
        self.stack = []  # open spans: [child time, span id, name]
        self.stats = {}  # span name -> Stat
        self.families = {}  # character-sum family -> Stat, inside char_sum
        self.counters = {}
        self.spans = []  # (op, span id, parent id, name, start, end)
        self.op = None
        self._next_id = 0
        self._saved = []
        self._by_constraint = {}

    # -- bookkeeping -------------------------------------------------------

    def reset(self):
        """Zero the aggregates (spans already recorded stay).  Stat objects
        are kept, because the installed wrappers hold them."""
        for stat in list(self.stats.values()) + list(self.families.values()):
            stat.calls = 0
            stat.self_time = 0.0
        self.counters.clear()

    def stat(self, name):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self):
        """Plain-data copy of the aggregates."""
        def plain(stats):
            return {k: {"calls": v.calls, "self_s": v.self_time}
                    for k, v in stats.items()}
        return {"stats": plain(self.stats), "families": plain(self.families),
                "counters": dict(self.counters)}

    # -- wrappers ----------------------------------------------------------

    def _family_stat(self, constraint):
        entry = self._by_constraint.get(id(constraint))
        if entry is None:
            fam = family_of(constraint)
            stat = self.families.get(fam)
            if stat is None:
                stat = self.families[fam] = Stat()
            # keep the constraint alive so its id cannot be reused
            entry = self._by_constraint[id(constraint)] = (constraint, stat)
        return entry[1]

    def _hot(self, fn, name, per_family):
        """Aggregate-only wrapper, kept lean: it runs millions of times."""
        stack = self.stack
        clock = time.perf_counter
        stat = self.stat(name)
        family_stat = self._family_stat

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                stat.calls += 1
                stat.self_time += own
                if per_family:
                    fam = family_stat(args[0])
                    fam.calls += 1
                    fam.self_time += own
        return wrapper

    def _span(self, fn, name, on_return):
        """Wrapper that also records the span.  Calls count only the
        outermost of directly nested spans of one name, so a code built by
        a named constructor counts once."""
        stack = self.stack
        clock = time.perf_counter
        stat = self.stat(name)
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = bool(stack) and stack[-1][2] == name
            tracer._next_id += 1
            frame = [0.0, tracer._next_id, name]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                if not nested:
                    stat.calls += 1
                stat.self_time += duration - frame[0]
                spans.append((tracer.op, frame[1], parent, name, start, end))
            if on_return is not None:
                on_return(tracer, args, result)
            return result
        return wrapper

    def _wrap(self, fn, name, hot):
        if hot:
            return self._hot(fn, name, name == "constraints.char_sum")
        return self._span(fn, name, HOOKS.get(name))

    def _span_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(rows):
            tracer.count("gf2.span_words", 1 << len(rows))
            return fn(rows)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[PACKAGE + "." + m] for m in LAYERS}
        for modname, attr, name, hot in ENTRY_POINTS:
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                original = getattr(owner, meth)
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, name, hot))
                continue
            original = getattr(owner, attr)
            self._rebind(original, self._wrap(original, name, hot))
        span = sys.modules[PACKAGE + ".gf2"].iterate_span
        self._rebind(span, self._span_counter(span))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _after_wht(tracer, args, result):
    tracer.count("spectral.wht.points", 1 << result.n)


def _after_count(tracer, args, result):
    if result.method == "dual_sum":
        tracer.count("counting.dual_queries", 1 << result.dual_dimension_used)
    elif result.method == "direct_membership":
        tracer.count("counting.direct_words", 1 << args[0].k)


def _after_solve(tracer, args, result):
    model = args[0]
    rows, cols = len(model.rows), model.nvars()
    tracer.count("lp.pivots", result.iterations)
    tracer.count("lp.rows", rows)
    tracer.count("lp.cols", cols)
    # dense tableau rank-1 update per pivot: rows x (structural + slack)
    tracer.count("lp.update_bytes_computed",
                 result.iterations * rows * (cols + rows) * 8)
    tracer.count("lp.nonoptimal", int(result.status != "optimal"))


HOOKS = {
    "spectral.wht": _after_wht,
    "counting.count_in_code": _after_count,
    "lp.solve": _after_solve,
}
