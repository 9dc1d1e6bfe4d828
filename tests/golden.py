"""Golden CLI outputs: a fixed list of commands, each with its exit code and
the sha256 of its standard output, kept in `golden.json` next to this file.

    PYTHONPATH=src python3 tests/golden.py    # rewrite tests/golden.json

`test_golden.py` replays every command through `cli.main` and compares, so
a change that moves any output byte or exit code of these commands fails.
JSON output is hashed with `timing_ms` masked and its floats rounded to 12
significant digits: LP values can differ in their last bits between BLAS
builds, and no output the package reproduces depends on those bits.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from constrcodes.cli import main, parse_code

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
FORMATS = ("text", "csv", "json")

# the subcodes of `weight-dist --code`; the last two are refused by the caps
# (n = 32 > 18, and dual dimension 16 > 14)
CODES = ("hamming:m=3", "hamming:m=4", "rm:m=3,r=1", "rm:m=4,r=2",
         "rm:m=4,r=3", "simplex:m=3", "zero:n=10", "rm:m=5,r=3", "zero:n=16")
TABLES = ("I", "II", "III", "IV", "V", "even-counts", "even-weights",
          "odd-counts")


def families(n, wide=True):
    """Constraint texts of every family at length n, the ones that refuse n
    (odd n for `odd`, p not dividing n, weights beyond n) included."""
    out = ["2charge", "rll:d=1", "rll:d=2", "odd-strict", "odd",
           "even-strict", "weight:i=%d" % (n // 2)]
    if not wide:
        return out + ["subblock:p=2,z=1", "subblock:p=3,z=1"]
    out += ["weight:i=0", "weight:i=%d" % (n + 1)]
    for p in (2, 3, 4):
        for z in sorted({1, n // p // 2, n // p + 1}):
            out.append("subblock:p=%d,z=%d" % (p, z))
    return out


def words(n):
    """Fixed length-n words for `fourier --s`: all zeros, all ones, both
    alternations, one on the first and last coordinates, and a word in the
    span of the 2-charge pair basis with both signs of its pairs."""
    return ["0" * n, "1" * n, ("10" * n)[:n], ("01" * n)[:n],
            "1" + "0" * (n - 2) + "1", ("0" + "1100" * n)[:n]]


def commands():
    """The argv lists of every golden command, each in every format."""
    out = []
    for code in CODES:
        out += [["weight-dist", "--code", code, "--constraint", c]
                for c in families(parse_code(code).n)]
    out += [["table", "--id", t] for t in TABLES]
    for c in [None] + families(8, wide=False):
        for d in (2, 3, 4):
            argv = ["bound", "--n", "8", "--d", str(d), "--lp", "all"]
            out.append(argv + (["--constraint", c] if c else []))
    for n in range(1, 13):
        for c in families(n, wide=False):
            for sub in ("weight-dist", "fourier"):
                out.append([sub, "--constraint", c, "--n", str(n)])
    # single character sums beyond int64 words, where only Python ints serve
    for n in (63, 64, 128):
        for c in families(n):
            out += [["fourier", "--constraint", c, "--s", s] for s in words(n)]
    # Table VI takes about 2 s a format (simplex pivots), so it is replayed
    # in json only
    return [argv + ["--format", fmt] for argv in out for fmt in FORMATS] + \
        [["table", "--id", "VI", "--format", "json"]]


def _round_floats(value):
    if isinstance(value, float):
        return float("%.12g" % value)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def replay(argv):
    """(exit code, sha256 of standard output) of one command, run through
    `cli.main` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    if "json" in argv and code == 0:
        payload = _round_floats(json.loads(text))
        payload["timing_ms"] = None
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return code, hashlib.sha256(text.encode()).hexdigest()


def load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def write():
    entries = []
    for argv in commands():
        code, digest = replay(argv)
        entries.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    return entries


if __name__ == "__main__":
    entries = write()
    print("wrote %d commands to %s" % (len(entries), GOLDEN), file=sys.stderr)
