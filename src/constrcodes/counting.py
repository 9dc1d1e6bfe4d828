"""Exact counting of constrained codewords and weight distributions.

The central identity: for a linear code C with dual C-perp and a constrained
set A with character sums F_A,

    N(C; A) = |C ∩ A| = (1 / |C-perp|) * sum_{s in C-perp} F_A(s),

an exact integer (the sum is always divisible by |C-perp| = 2^(n-k)).
Counting over the dual side only needs 2^(n-k) character-sum queries, so
high-rate codes of large blocklength stay tractable.
"""

import math

import numpy as np

from .constraints import (_two_charge_pairs, char_sum_int, member_array,
                          member_int, odd_relaxed, odd_strict, shell_sums,
                          two_charge_basis)
from .errors import CapExceeded
from .gf2 import (ENUMERATION_CAP, _echelonize, coset_decompose,
                  coset_weight_enumerator, iterate_span, reed_muller,
                  span_chunks, zero_code)
from .spectral import krawtchouk_table


class CountResult:
    """Exact count of constrained codewords plus how it was obtained."""

    __slots__ = ("value", "method", "dual_dimension_used")

    def __init__(self, value, method, dual_dimension_used=None):
        self.value = value
        self.method = method
        self.dual_dimension_used = dual_dimension_used

    def __repr__(self):
        return "CountResult(value=%d, method=%r)" % (self.value, self.method)


class WeightDistribution:
    """Exact counts by Hamming weight, indexed 0..n."""

    __slots__ = ("n", "counts")

    def __init__(self, n, counts):
        counts = [int(c) for c in counts]
        if len(counts) != n + 1:
            raise ValueError("expected %d counts, got %d" % (n + 1, len(counts)))
        if any(c < 0 for c in counts):
            raise ValueError("weight counts must be nonnegative")
        self.n = n
        self.counts = counts

    def total(self):
        return sum(self.counts)

    def __eq__(self, other):
        return (isinstance(other, WeightDistribution) and self.n == other.n
                and self.counts == other.counts)

    def __repr__(self):
        return "WeightDistribution(n=%d, counts=%r)" % (self.n, self.counts)


def count_in_code(code, constraint, method="auto", cap=ENUMERATION_CAP):
    """Exact N(C; A) via the dual character sum or direct membership."""
    constraint.check_length(code.n)
    n, k = code.n, code.k
    if method == "auto":
        if n - k <= k and n - k <= cap:
            method = "dual"
        elif k <= cap:
            method = "direct"
        else:
            raise CapExceeded(
                "both 2^%d codewords and 2^%d dual codewords exceed the cap "
                "of 2^%d" % (k, n - k, cap))
    if method == "dual":
        if n - k > cap:
            raise CapExceeded("dual enumeration of 2^%d words exceeds the cap "
                              "of 2^%d" % (n - k, cap))
        total = sum(char_sum_int(constraint, n, s)
                    for s in iterate_span(code.parity_check.data))
        value, rem = divmod(total, 1 << (n - k))
        if rem:
            raise AssertionError(
                "dual character sum %d is not divisible by 2^%d" % (total, n - k))
        if value < 0:
            raise AssertionError("negative count %d from dual sum" % value)
        return CountResult(value, "dual_sum", dual_dimension_used=n - k)
    if method == "direct":
        if k > cap:
            raise CapExceeded("enumeration of 2^%d codewords exceeds the cap "
                              "of 2^%d" % (k, cap))
        value = sum(1 for x in iterate_span(code.generator.data)
                    if member_int(constraint, n, x))
        return CountResult(value, "direct_membership")
    raise ValueError("method must be 'auto', 'dual', or 'direct'")


# default most codewords, as a power of 2, that `count_brute` and the
# `count` command enumerate; `count --max-n` sets another
COUNT_CAP = 24


def count_brute(code, constraint, cap=COUNT_CAP):
    """Oracle: enumerate the code and test membership word by word, the
    direct path of `count_in_code`; the cap is checked before the length."""
    if code.k > cap:
        raise CapExceeded("enumeration of 2^%d codewords exceeds the cap of "
                          "2^%d" % (code.k, cap))
    return count_in_code(code, constraint, method="direct", cap=cap).value


def _krawtchouk_transform(values, divisor, message):
    """The distribution a_i = (1 / divisor) * sum_j K_i(j) * values[j] for
    i = 0..n, n = len(values) - 1, exact; AssertionError(message % i) at
    the first i whose sum is not divisible."""
    n = len(values) - 1
    kraw = krawtchouk_table(n)
    counts = []
    for i in range(n + 1):
        q, rem = divmod(sum(kraw.value(i, j) * values[j] for j in range(n + 1)),
                        divisor)
        if rem:
            raise AssertionError(message % i)
        counts.append(q)
    return WeightDistribution(n, counts)


def weight_distribution(constraint, n):
    """Weight distribution of the constrained set A itself.

    a_i = (1 / 2^n) * sum_j K_i(j) * W(j), where W(j) collects F_A over the
    weight-j shell (`shell_sums`, which refuses n > FULL_SPACE_CAP); exact
    division is asserted.
    """
    shell = shell_sums(constraint, n)
    return _krawtchouk_transform(shell, 1 << n, "weight-%d count is not an integer")


# largest n and dual dimension n - k of `constrained_weight_distribution`
SUBCODE_N_CAP = 18
SUBCODE_DUAL_CAP = 14


def constrained_weight_distribution(code, constraint):
    """Weight distribution of C ∩ A, by one pass over the 2^k codewords
    (`span_chunks`): the weights of the members of A among them, counted.
    Every count is at most 2^k, so int64 is exact.

    The caps are those of the dual-coset transform
    a_i = (|C| / 4^n) sum_j K_i(j) sum_{w(s)=j} T(s), T(s) the sum of F_A
    over the dual coset s + C-perp, which the tests keep as the oracle:
    it refuses n > SUBCODE_N_CAP and dual dimensions n - k > SUBCODE_DUAL_CAP.
    """
    n, k = code.n, code.k
    if n > SUBCODE_N_CAP:
        raise CapExceeded("full-space pass refuses n=%d > cap %d"
                          % (n, SUBCODE_N_CAP))
    if n - k > SUBCODE_DUAL_CAP:
        raise CapExceeded("dual dimension %d exceeds cap %d"
                          % (n - k, SUBCODE_DUAL_CAP))
    constraint.check_length(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for words in span_chunks(code.generator.data):
        members = words[member_array(constraint, n, words)]
        counts += np.bincount(np.bitwise_count(members), minlength=n + 1)
    return WeightDistribution(n, counts.tolist())


def macwilliams(dist, code_size):
    """MacWilliams transform: distribution of C-perp from that of C.

    a_i(C-perp) = (1 / |C|) * sum_j K_i(j) * a_j(C), exact division asserted.
    """
    return _krawtchouk_transform(
        dist.counts, code_size,
        "MacWilliams division failed at weight %%d; the input is not "
        "the distribution of a linear code of size %d" % code_size)


def code_weight_distribution(code):
    """Weight distribution of a code, enumerating the smaller of C and C-perp."""
    n, k = code.n, code.k
    primal = k <= n - k
    if primal:
        rows, dim, what = code.generator.data, k, "codewords"
    else:
        rows, dim, what = code.parity_check.data, n - k, "dual codewords"
    if dim > ENUMERATION_CAP:
        raise CapExceeded("enumeration of 2^%d %s exceeds the cap" % (dim, what))
    counts = [0] * (n + 1)
    for x in iterate_span(rows):
        counts[x.bit_count()] += 1
    dist = WeightDistribution(n, counts)
    return dist if primal else macwilliams(dist, 1 << dim)


class TwoChargeStructure:
    """Structural prediction for N(C; 2-charge set) from the dual code."""

    __slots__ = ("criterion_holds", "t", "predicted_count", "intersection_dim")

    def __init__(self, criterion_holds, t, predicted_count, intersection_dim):
        self.criterion_holds = criterion_holds
        self.t = t
        self.predicted_count = predicted_count
        self.intersection_dim = intersection_dim

    def __repr__(self):
        return ("TwoChargeStructure(criterion_holds=%r, t=%d, predicted_count=%d)"
                % (self.criterion_holds, self.t, self.predicted_count))


def _intersect_spans(rows_u, rows_w, n):
    """Basis of span(rows_u) ∩ span(rows_w) by the Zassenhaus trick: echelonize
    the rows (u | u) and (w | 0); rows whose first block vanished carry an
    intersection basis in the second block."""
    stacked = [u | (u << n) for u in rows_u] + [w for w in rows_w]
    mask = (1 << n) - 1
    return [v >> n for v in _echelonize(stacked).values() if not v & mask]


def two_charge_structure(code):
    """Predict N(C; 2-charge set) from C-perp ∩ V_B, without counting.

    All character sums of the 2-charge set vanish outside the span V_B of the
    basis vectors b_i, and on V_B have magnitude 2^floor(n/2) with a sign that
    is linear in the pair-vector coefficients.  The criterion holds when the
    sign is positive on all of I = C-perp ∩ V_B; then with t = dim I,
    N = |C| * 2^(t + floor(n/2) - n).  Otherwise signs cancel and N = 0.
    The intersection comes from one echelon form of the two spans, so no
    dual dimension is refused.
    """
    n, k = code.n, code.k
    if n < 3:
        raise ValueError("the 2-charge set needs blocklength n >= 3")
    inter = _intersect_spans(code.parity_check.data, two_charge_basis(n), n)
    dim = len(inter)
    pairs = _two_charge_pairs(n)

    def sign_bit(v):
        return sum(((v >> low) & 0b11) == 0b11 for low in pairs) & 1

    bad = [v for v in inter if sign_bit(v)]
    criterion = not bad
    t = dim if criterion else dim - 1
    if criterion:
        exp = k + t + n // 2 - n
        if exp < 0:
            raise AssertionError("predicted count is not an integer")
        predicted = 1 << exp
    else:
        predicted = 0
    return TwoChargeStructure(criterion, t, predicted, dim)


class OddCountReport:
    """Count of odd-run-length codewords, with a closed-form cross-check when
    the code is a Hamming or Reed-Muller construction."""

    __slots__ = ("count", "constraint", "predicted")

    def __init__(self, count, constraint, predicted):
        self.count = count
        self.constraint = constraint
        self.predicted = predicted

    def __repr__(self):
        return "OddCountReport(count=%d, constraint=%r)" % (
            self.count, str(self.constraint))


def _odd_prediction(label):
    """Closed-form predictions keyed by the constructed-code label."""
    if not label:
        return None
    if label.startswith("hamming(m="):
        m = int(label[len("hamming(m="):-1])
        # the dual simplex code contains exactly one nonzero word supported
        # on odd coordinates (the alternating word 1010...1), so two dual
        # words contribute 2^floor(n/2) each
        return 1 << (((1 << m) - 1) // 2 - m + 1)
    if label.startswith("rm(m="):
        inner = label[len("rm("):-1]
        params = dict(p.split("=") for p in inner.split(","))
        m, r = int(params["m"]), int(params["r"])
        exp = sum(math.comb(m - 1, i) for i in range(r))
        return (1 << (exp + 1)) - 1
    return None


def count_odd_in_code(code):
    """N(C; odd set): the strict variant for odd n, the relaxed one for even n."""
    constraint = odd_strict() if code.n % 2 else odd_relaxed()
    result = count_in_code(code, constraint)
    return OddCountReport(result.value, constraint, _odd_prediction(code.label))


def rm_subblock_count_plotkin(m, r, z):
    """Count subblock-constrained words of RM(m, r) with p=2 subblocks of
    weight z, via the Plotkin (u | u+v) split; two independent routes.

    Primal: sum over cosets u_i of RM(m-1, r-1) inside RM(m-1, r) of
    A_{u_i}(z)^2.  Dual: the same sum on the dual pair RM(m-1, m-r-2) inside
    RM(m-1, m-r-1), with each enumerator replaced by its Krawtchouk inner sum,
    then divided by |C-perp| (exactly).
    """
    if m > 6:
        raise ValueError("rm_subblock_count_plotkin requires m <= 6")
    if not 1 <= r <= m - 1:
        raise ValueError("need 1 <= r <= m - 1")
    half = 1 << (m - 1)
    if not 0 <= z <= half:
        raise ValueError("need 0 <= z <= 2^(m-1)")
    kraw = krawtchouk_table(half)

    def coset_enumerators(outer_r, inner_r):
        outer = reed_muller(m - 1, outer_r)
        inner = reed_muller(m - 1, inner_r) if inner_r >= 0 else zero_code(half)
        dec = coset_decompose(outer, inner)
        return [coset_weight_enumerator(rep, inner) for rep in dec.reps]

    primal = sum(cwe[z] ** 2 for cwe in coset_enumerators(r, r - 1))

    dual_num = sum(sum(cwe[j] * kraw.value(z, j) for j in range(half + 1)) ** 2
                   for cwe in coset_enumerators(m - r - 1, m - r - 2))
    n = 1 << m
    k = sum(math.comb(m, i) for i in range(r + 1))
    dual, rem = divmod(dual_num, 1 << (n - k))
    if rem:
        raise AssertionError("dual coset sum is not divisible by 2^(n-k)")
    return {"count_primal": primal, "count_dual": dual}
