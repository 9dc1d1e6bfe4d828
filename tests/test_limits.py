"""Each size cap, tolerance and iteration limit is a module constant beside
its one check: no public function takes one as a parameter, except the cap
of `count_in_code` and `count_brute`, which `count --max-n` sets."""

import inspect
import time

import pytest

from constrcodes import (BinaryLinearCode, BitMatrix, CapExceeded,
                         code_weight_distribution,
                         constrained_weight_distribution, coset_decompose,
                         coset_weight_enumerator, del_constrained, del_full,
                         dual_certificate_bound, fixed_weight, gensph,
                         member_ints, rll, two_charge, zero_code)
from constrcodes import cli, constraints, counting, gf2, lp, spectral
from test_counting import full_code


class Enumerated(Exception):
    """Raised by a pass over words that a refused call must not start."""


def _enumerated(*args, **kwargs):
    raise Enumerated


class _Words:
    """A dual certificate whose entries must not be read."""

    def __iter__(self):
        raise Enumerated


def doubled_code(k):
    """The [2k, k] code of the words (u | u)."""
    return BinaryLinearCode(generator=BitMatrix(
        [(1 << j) | (1 << (j + k)) for j in range(k)], 2 * k))


# per case: the call one step past a limit, the module holding the limit's
# constant, its name, its value, the value one step further up, and the
# enumerations the call starts once past the check
LIMITS = {
    "member_ints": (
        lambda: member_ints(two_charge(), 23),
        constraints, "MEMBER_ENUM_CAP", 22, 23, [(constraints, "member_int")]),
    "subcode_n": (
        lambda: constrained_weight_distribution(full_code(19), rll(1)),
        counting, "SUBCODE_N_CAP", 18, 19, [(counting, "span_chunks")]),
    "subcode_dual": (
        lambda: constrained_weight_distribution(zero_code(15), rll(1)),
        counting, "SUBCODE_DUAL_CAP", 14, 15, [(counting, "span_chunks")]),
    "code_weight_distribution": (
        lambda: code_weight_distribution(doubled_code(27)),
        counting, "ENUMERATION_CAP", 26, 27, [(counting, "iterate_span")]),
    "coset_decompose": (
        lambda: coset_decompose(full_code(27), zero_code(27)),
        gf2, "ENUMERATION_CAP", 26, 27, [(gf2, "iterate_span")]),
    "coset_weight_enumerator": (
        lambda: coset_weight_enumerator(0, full_code(27)),
        gf2, "ENUMERATION_CAP", 26, 27, [(gf2, "iterate_span")]),
    "del_full": (
        lambda: del_full(13, 2),
        lp, "ORBIT_ROW_CAP", 1 << 12, 1 << 13,
        [(lp, "_popcount"), (lp, "solve")]),
    "del_constrained": (
        lambda: del_constrained(13, 3, rll(1)),
        lp, "ORBIT_ROW_CAP", 1 << 12, 1 << 13,
        [(lp, "orbit_structure"), (lp, "solve")]),
    "gensph": (
        lambda: gensph(17, 3, two_charge()),
        lp, "GENSPH_N_CAP", 16, 17, [(lp, "orbit_structure"), (lp, "solve")]),
    "dual_certificate_bound": (
        lambda: dual_certificate_bound(17, 3, two_charge(), _Words()),
        lp, "CERTIFICATE_N_CAP", 16, 17, [(lp, "wht"), (lp, "del_classic")]),
}


@pytest.mark.parametrize("case", sorted(LIMITS))
def test_limit_refuses_one_step_past_its_value_before_enumerating(monkeypatch,
                                                                  case):
    call, module, name, value, past, passes = LIMITS[case]
    assert getattr(module, name) == value
    for owner, attr in passes:
        monkeypatch.setattr(owner, attr, _enumerated)
    with pytest.raises(CapExceeded):
        call()
    # with the limit one step further up, the same call passes the check
    # and goes on to its enumeration
    monkeypatch.setattr(module, name, past)
    with pytest.raises(Enumerated):
        call()


def test_no_public_function_takes_a_limit():
    found = set()
    for module in (gf2, spectral, constraints, counting, lp, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [("%s.%s" % (name, attr), getattr(obj, attr))
                           for attr in vars(obj) if not attr.startswith("_")
                           and callable(getattr(obj, attr))]
            elif not inspect.isfunction(obj):
                continue
            for label, fn in members:
                found |= {"%s.%s" % (label, p)
                          for p in inspect.signature(fn).parameters
                          if p.endswith("cap") or p in ("limit", "tol")}
    assert found == {"count_in_code.cap", "count_brute.cap"}


# a length far past every cap, refused from n itself: 2^n is never formed
HUGE_N = 10 ** 20


@pytest.mark.parametrize("call", [
    lambda: del_full(HUGE_N, 2),
    lambda: del_constrained(HUGE_N, 2, fixed_weight(4)),
    lambda: del_constrained(HUGE_N, 3, rll(1))],
    ids=["del_full", "del_constrained-weight", "del_constrained-rll"])
def test_huge_length_is_refused_at_once(call):
    started = time.perf_counter()
    with pytest.raises(CapExceeded, match="refuses n=%d: 2\\^n rows > cap"
                                          % HUGE_N):
        call()
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("lp_choice", ["auto", "del", "all"])
def test_huge_length_bound_exits_at_once(capsys, lp_choice):
    started = time.perf_counter()
    code = cli.main(["bound", "--n", str(HUGE_N), "--d", "2",
                     "--constraint", "weight:i=4", "--lp", lp_choice])
    assert code == 3
    assert time.perf_counter() - started < 1.0
    assert "2^n rows > cap" in capsys.readouterr().err
