"""Exact Walsh-Hadamard transforms, Krawtchouk polynomials, set convolutions.

All arithmetic is done with arbitrary-precision Python integers; the
transform is unnormalized, (Hf)(s) = sum_x f(x) (-1)^{x.s}, so applying it
twice multiplies by 2^n.  Word indices follow the package convention:
coordinate i of a word is bit i-1 of its integer index.
"""

import math
import threading

from .errors import CapExceeded

WHT_CAP = 26


class IntSpectrum:
    """A function {0,1}^n -> Z stored densely as 2^n exact integers."""

    __slots__ = ("n", "values")

    def __init__(self, n, values):
        values = list(values)
        if len(values) != 1 << n:
            raise ValueError("expected 2^%d values, got %d" % (n, len(values)))
        self.n = n
        self.values = values

    def __getitem__(self, idx):
        return self.values[idx]

    def __eq__(self, other):
        return (isinstance(other, IntSpectrum) and self.n == other.n
                and self.values == other.values)


def wht(spec):
    """Unnormalized Walsh-Hadamard transform, exact integer butterflies."""
    if isinstance(spec, IntSpectrum):
        n, vals = spec.n, list(spec.values)
    else:
        vals = list(spec)
        n = (len(vals) - 1).bit_length()
        if len(vals) != 1 << n:
            raise ValueError("input length must be a power of two")
    if n > WHT_CAP:
        raise CapExceeded("wht refuses n=%d > cap %d" % (n, WHT_CAP))
    h = 1
    size = 1 << n
    while h < size:
        for start in range(0, size, h * 2):
            for i in range(start, start + h):
                a, b = vals[i], vals[i + h]
                vals[i], vals[i + h] = a + b, a - b
        h *= 2
    return IntSpectrum(n, vals)


class Krawtchouk:
    """Exact Krawtchouk table K_i^{(n)}(j) for one length n.

    Rows are filled with the three-term recurrence
        (i+1) K_{i+1}(j) = (n-2j) K_i(j) - (n-i+1) K_{i-1}(j)
    and cross-checked against the defining sum
        K_i(j) = sum_t (-1)^t C(j,t) C(n-j, i-t).
    """

    def __init__(self, n):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        table = [[1] * (n + 1)]
        prev2 = table[0]
        prev1 = [n - 2 * j for j in range(n + 1)]
        if n >= 1:
            table.append(prev1)
        for i in range(1, n):
            nxt = []
            for j in range(n + 1):
                num = (n - 2 * j) * prev1[j] - (n - i + 1) * prev2[j]
                q, r = divmod(num, i + 1)
                if r:
                    raise AssertionError("Krawtchouk recurrence not integral")
                nxt.append(q)
            table.append(nxt)
            prev2, prev1 = prev1, nxt
        self.table = table
        self._cross_check()

    @staticmethod
    def defining_sum(n, i, j):
        return sum((-1) ** t * math.comb(j, t) * math.comb(n - j, i - t)
                   for t in range(i + 1))

    def _cross_check(self):
        n = self.n
        if n <= 16:
            pairs = [(i, j) for i in range(n + 1) for j in range(n + 1)]
        else:
            marks = sorted({0, 1, n // 3, n // 2, n - 1, n})
            pairs = [(i, j) for i in marks for j in marks]
        for i, j in pairs:
            if self.table[i][j] != self.defining_sum(n, i, j):
                raise AssertionError(
                    "Krawtchouk table disagrees with defining sum at "
                    "(n=%d, i=%d, j=%d)" % (n, i, j))

    def value(self, i, j):
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise ValueError("indices out of range 0..%d" % self.n)
        return self.table[i][j]


_KRAW_CACHE = {}
_KRAW_LOCK = threading.Lock()


def krawtchouk_table(n):
    """Shared per-n Krawtchouk table."""
    tab = _KRAW_CACHE.get(n)
    if tab is None:
        with _KRAW_LOCK:
            tab = _KRAW_CACHE.get(n)
            if tab is None:
                tab = Krawtchouk(n)
                _KRAW_CACHE[n] = tab
    return tab


def krawtchouk(n, i, j):
    """Exact K_i^{(n)}(j)."""
    return krawtchouk_table(n).value(i, j)


def weight_class_sums(charsum_provider, n):
    """W(j) = sum over words s of weight j of F(s), exact.

    charsum_provider maps a packed word (int) to the exact character sum
    F(s) = 2^n * fourier coefficient of the set indicator at s.
    """
    if n > WHT_CAP:
        raise CapExceeded("weight_class_sums refuses n=%d > cap %d" % (n, WHT_CAP))
    out = [0] * (n + 1)
    for s in range(1 << n):
        out[s.bit_count()] += charsum_provider(s)
    return out


def self_convolution_counts(member_predicate, n):
    """v(x) = #{z : z in A and x ^ z in A}, exact, via WHT square.

    Equals 2^n (1_A * 1_A)(x) where * is the normalized convolution.
    """
    if n > 22:
        raise CapExceeded("self_convolution_counts refuses n=%d > cap 22" % n)
    f = [1 if member_predicate(x) else 0 for x in range(1 << n)]
    spec = wht(f)
    squared = [v * v for v in spec.values]
    back = wht(squared)
    size = 1 << n
    out = []
    for v in back.values:
        q, r = divmod(v, size)
        if r:
            raise AssertionError("self-convolution not divisible by 2^n")
        out.append(q)
    return out
