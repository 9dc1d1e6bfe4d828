"""The benchmark's workloads: inputs made from a seed, the operations run on
them, and the checks of every output.

An operation is one call into the package's public surface: `cli.main(argv)`
for the `table`, `bound`, `weight-dist` and `fourier` commands, or a public
function of `counting`.  Calls go through the module attribute at call time,
so the tracer's rebinding applies to them.  Checks run after the timed
loop, against the independent oracles of oracle.py or, for table and bound
cells, the CLI's embedded reference values.

Workloads (why each was chosen):

* count    -- exact counting on seeded random codes across all seven
              constraint families, plus the paper's count tables.  Time goes
              to `constraints` character sums and `gf2.iterate_span`; no WHT
              and no LP.
* spectral -- the symmetrized-LP tables II-IV, the even-run weight table,
              full-space character-sum passes and constrained weight
              distributions.  Time goes to `spectral` (WHT, self-convolution)
              and to full-space character sums; about 50 small LP solves.
* lp-dense -- unsymmetrized Table VI cells at n=10 (del_constrained on all
              2^10 points, gensph, del_classic), d ascending.  Time goes to
              dense simplex pivots on 1024-row models.
"""

import contextlib
import io
import json
import random

import oracle

NAMES = ("count", "spectral", "lp-dense")

# the CLI's comparison rule for float cells; the text output rounds the
# value to 3 places, which can add up to 5e-4 on top of it
CELL_TOL = 5e-3
SHOWN_TOL = CELL_TOL + 5e-4

# count: dual dimensions of the high-rate codes (dual_sum path) and
# dimensions of the low-rate codes (direct_membership path), per family
HIGH_DUAL_DIMS = (10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15)
LOW_DIMS = (8, 9, 10, 11)
COUNT_FAMILIES = ("2charge", "subblock", "rll:d=1", "rll:d=2", "even-strict",
                  "odd", "weight")

# table id -> number of cells the CLI must report
TABLE_CELLS = {"I": 6, "II": 27, "III": 12, "IV": 7, "V": 4,
               "even-counts": 4, "even-weights": 18, "odd-counts": 6}

# lp-dense: (constraint, ascending d range) per Table VI column pair.  A run
# holds two passes; rll:d=2 from d=4 is the largest constrained model (d=3
# alone takes about as long as the whole pass) that fits.
LP_SWEEPS = {"full": (("rll:d=2", range(4, 8)), ("rll:d=1", range(6, 8))),
             "tiny": (("rll:d=2", range(6, 8)), ("rll:d=1", range(7, 8)))}


class Op:
    """One operation: `run()` returns its raw output, `check(output)`
    returns None or a description of what is wrong with it."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def cli_call(argv):
    """Run `constrcodes.cli.main(argv)` capturing its output."""
    from constrcodes import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _json_result(output):
    rc, out, err = output
    if rc != 0:
        raise ValueError("exit code %d: %s" % (rc, err.strip()[:200]))
    return json.loads(out)["result"]


def _guard(check):
    """Turn an exception raised while checking into a failure description."""
    def guarded(output):
        try:
            return check(output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return "%s: %s" % (type(exc).__name__, exc)
    return guarded


# ---------------------------------------------------------------------------
# checks


def check_table(table_id):
    def check(output):
        result = _json_result(output)
        cells = [c for row in result["rows"] for c in row["cells"]]
        if len(cells) != TABLE_CELLS[table_id]:
            return "table %s has %d cells, expected %d" % (
                table_id, len(cells), TABLE_CELLS[table_id])
        for c in cells:
            if c["status"] != "OK":
                return "cell %s: %s (value %s, expected %s)" % (
                    c["column"], c["status"], c["value"], c["expected"])
            if "." in c["expected"]:
                ok = abs(float(c["value"]) - float(c["expected"])) <= SHOWN_TOL
            else:
                ok = c["value"] == c["expected"]
            if not ok:
                return "cell %s: value %s, expected %s" % (
                    c["column"], c["value"], c["expected"])
        return None if result["status"] == "OK" else "table status " + result["status"]
    return _guard(check)


def table_vi_references():
    """{(column, d): expected} from the CLI's embedded Table VI."""
    from constrcodes import cli
    _, rows = cli.TABLE_BUILDERS["VI"]()
    return {(cell["column"], int(label.partition("=")[2])): cell["expected"]
            for label, cells in rows for cell in cells}


def check_bound(constraint, d, refs):
    columns = {"bound": "sqrt(Del) %s" % constraint,
               "gensph": "GenSph %s" % constraint,
               "delsarte": "Del(n,d)"}

    def check(output):
        result = _json_result(output)
        for key, column in columns.items():
            expected = refs[(column, d)]
            if abs(result[key] - expected) > CELL_TOL:
                return "%s = %r, expected %r" % (column, result[key], expected)
        return None
    return _guard(check)


def check_oracle(expected_fn, extract=lambda output: output):
    """Compare the value extracted from an output with an oracle's, which is
    computed once, at the first check."""
    memo = []

    def check(output):
        got = extract(output)
        if not memo:
            memo.append(expected_fn())
        return None if got == memo[0] else "got %s, oracle %s" % (got, memo[0])
    return _guard(check)


def json_ints(key):
    """Extractor of a list-of-integers field of a CLI JSON result."""
    return lambda output: [int(v) for v in _json_result(output)[key]]


# ---------------------------------------------------------------------------
# inputs


def _family_params(rng, family, n):
    """Adjusted n, constraint text, and the oracle automaton's parameters."""
    head, _, rest = family.partition(":")
    if head == "subblock":
        if n % 2:
            n += 1
        p = rng.choice([q for q in (2, 3, 4, 5, 6) if n % q == 0 and n // q >= 3])
        z = rng.randint(1, n // p - 1)
        return n, "subblock:p=%d,z=%d" % (p, z), "subblock", {"p": p, "z": z}
    if head == "rll":
        d = int(rest.partition("=")[2])
        return n, family, "rll", {"d": d}
    if head == "odd":
        # the relaxed variant needs even n; odd n takes the strict one
        name = "odd" if n % 2 == 0 else "odd-strict"
        return n, name, name, {}
    if head == "weight":
        i = rng.randint(n // 2 - 3, n // 2 + 3)
        return n, "weight:i=%d" % i, "weight", {"i": i}
    return n, family, family, {}


def full_rank_rows(rng, count, n):
    while True:
        rows = [rng.getrandbits(n) for _ in range(count)]
        if oracle.gf2_rank(rows) == count:
            return rows


def _count_ops(rng, scale):
    from constrcodes import counting
    from constrcodes.constraints import parse_constraint
    from constrcodes.gf2 import BinaryLinearCode, BitMatrix

    if scale == "tiny":
        high, low, base = (4, 5), (3,), 8
    else:
        high, low, base = HIGH_DUAL_DIMS, LOW_DIMS, 24
    ops = []
    for family in COUNT_FAMILIES:
        slots = [("dual", r, 2 * r + 4 + j % 3) for j, r in enumerate(high)]
        slots += [("direct", k, base + 4 * j + j % 2) for j, k in enumerate(low)]
        for side, dim, n in slots:
            n, text, fam, params = _family_params(rng, family, n)
            constraint = parse_constraint(text)
            rows = full_rank_rows(rng, dim, n)
            aut = oracle.automaton(fam, n, **params)
            if side == "dual":
                code = BinaryLinearCode(parity_check=BitMatrix(rows, n), n=n)
                expect = (lambda aut=aut, n=n, rows=rows:
                          oracle.count_by_syndrome_trellis(aut, n, rows))
            else:
                code = BinaryLinearCode(generator=BitMatrix(rows, n), n=n)
                expect = (lambda aut=aut, n=n, rows=rows:
                          oracle.count_by_enumeration(aut, n, rows))
            label = "count %s n=%d %s=%d" % (text, n,
                                             "r" if side == "dual" else "k", dim)
            ops.append(Op(label,
                          lambda code=code, c=constraint:
                          counting.count_in_code(code, c).value,
                          check_oracle(expect)))
    for table_id in ("I", "V", "even-counts", "odd-counts"):
        argv = ["table", "--id", table_id, "--format", "json"]
        ops.append(Op("table " + table_id, lambda argv=argv: cli_call(argv),
                      check_table(table_id)))
    return ops


def _spectral_ops(scale):
    from constrcodes import counting, gf2
    from constrcodes.constraints import parse_constraint

    if scale == "tiny":
        tables, full_n, codes = ("II",), 12, (("hamming:m=3", gf2.hamming_code(3)),)
    else:
        tables, full_n = ("II", "III", "IV", "even-weights"), 20
        codes = (("hamming:m=4", gf2.hamming_code(4)),
                 ("rm:m=4,r=2", gf2.reed_muller(4, 2)))
    ops = []
    for table_id in tables:
        argv = ["table", "--id", table_id, "--format", "json"]
        ops.append(Op("table " + table_id, lambda argv=argv: cli_call(argv),
                      check_table(table_id)))

    def full_space(family, n, **params):
        return oracle.weight_distribution_by_enumeration(
            oracle.automaton(family, n, **params), n, oracle.full_space_rows(n))

    argv = ["weight-dist", "--constraint", "rll:d=1", "--n", str(full_n),
            "--format", "json"]
    ops.append(Op("weight-dist rll:d=1 n=%d" % full_n,
                  lambda argv=argv: cli_call(argv),
                  check_oracle(lambda: full_space("rll", full_n, d=1),
                               json_ints("counts"))))
    argv = ["fourier", "--constraint", "2charge", "--n", str(full_n),
            "--format", "json"]
    ops.append(Op("fourier 2charge n=%d" % full_n,
                  lambda argv=argv: cli_call(argv),
                  check_oracle(lambda: oracle.weight_class_sums_from_distribution(
                      full_space("2charge", full_n)), json_ints("weight_class_sums"))))
    for code_text, code in codes:
        for text, fam, params in (("rll:d=1", "rll", {"d": 1}),
                                  ("even-strict", "even-strict", {})):
            constraint = parse_constraint(text)
            aut = oracle.automaton(fam, code.n, **params)
            rows = list(code.generator.data)
            ops.append(Op(
                "weight-dist %s %s" % (code_text, text),
                lambda code=code, c=constraint:
                counting.constrained_weight_distribution(code, c).counts,
                check_oracle(lambda aut=aut, n=code.n, rows=rows:
                            oracle.weight_distribution_by_enumeration(aut, n, rows))))
    return ops


def _lp_ops(rng, scale):
    refs = table_vi_references()
    sweeps = list(LP_SWEEPS[scale])
    rng.shuffle(sweeps)
    ops = []  # d ascends within each sweep, as in the table
    for constraint, ds in sweeps:
        for d in ds:
            argv = ["bound", "--n", "10", "--d", str(d), "--constraint",
                    constraint, "--lp", "all", "--format", "json"]
            ops.append(Op("bound n=10 d=%d %s" % (d, constraint),
                          lambda argv=argv: cli_call(argv),
                          check_bound(constraint, d, refs)))
    return ops


def build(name, seed, scale="full"):
    """The operations of one pass of workload `name`, made from `seed`.

    For `count` the seed draws the random codes, the family parameters and
    the order of operations; the multiset of (family, n, dimension) slots is
    fixed, so runs with different seeds do the same amount of work.  The
    inputs of `spectral` are the paper's fixed tables and do not depend on
    the seed; for `lp-dense` it only orders the two sweeps.
    """
    rng = random.Random("%s/%d" % (name, seed))
    if name == "count":
        ops = _count_ops(rng, scale)
        rng.shuffle(ops)
        return ops
    if name == "spectral":
        return _spectral_ops(scale)
    if name == "lp-dense":
        return _lp_ops(rng, scale)
    raise ValueError("unknown workload %r" % name)
