"""Exact Walsh-Hadamard transforms, Krawtchouk polynomials, set convolutions.

The transform is unnormalized, (Hf)(s) = sum_x f(x) (-1)^{x.s}, so applying
it twice multiplies by 2^n.  It runs as numpy butterflies: in int64 where a
bound proves that no entry can overflow, otherwise in exact Python integers
(object dtype); float input stays float64.  Krawtchouk tables and every
combination of shell sums with them are Python integers.  Word indices
follow the package convention: coordinate i of a word is bit i-1 of its
integer index.

The whole-space passes (weight-class sums, the vectorized character sums,
the orbit keys of the reversal and trivial groups) walk the 2^n words, and
`gf2.span_chunks` the 2^k words of a code, in chunks of `_CHUNK` = 2^14
words, so that each int64 temporary is at most 128 KiB.  glibc's malloc
gives larger blocks back to the system when they are freed, and each new
chunk then faults its pages in again.  Measured on a 2-core x86-64 Xeon
(Linux, glibc 2.36) in a fresh process around one `weight-dist
--constraint rll:d=1 --n 20` call:
about 31,000 minor page faults with 2^16-word chunks, 4,000 with 2^15,
170 with 2^14 and 20 with 2^13.  2^13 pays the per-chunk interpreter
overhead twice as often, and was slower than 2^14 both there and in the
`spectral` benchmark workload.
"""

import functools
import math

import numpy as np

from .errors import CapExceeded

WHT_CAP = 26
CONV_CAP = 22
# words per chunk of the whole-space passes (see `word_chunks`)
_CHUNK = 1 << 14


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


def _butterflies(vals):
    """Unnormalized WHT of a numpy array of length 2^n, in the order of the
    in-place butterflies: pass h = 1, 2, 4, ... pairs entry i with entry
    i + h inside each block of 2h and writes (a + b, a - b) there, so float
    input rounds exactly as that loop does.  After pass h every entry is a
    signed sum of 2h input entries."""
    size = len(vals)
    h = 1
    while h < size:
        pairs = vals.reshape(-1, 2, h)
        a, b = pairs[:, 0], pairs[:, 1]
        vals = np.stack((a + b, a - b), axis=1).reshape(size)
        h *= 2
    return vals


def wht(spec):
    """Unnormalized Walsh-Hadamard transform of 2^n numbers, exact for
    integer input, as an IntSpectrum of Python numbers."""
    vals = np.asarray(spec.values if isinstance(spec, IntSpectrum) else spec)
    n = (len(vals) - 1).bit_length()
    if vals.ndim != 1 or len(vals) != 1 << n:
        raise ValueError("input length must be a power of two")
    if n > WHT_CAP:
        raise CapExceeded("wht refuses n=%d > cap %d" % (n, WHT_CAP))
    if vals.dtype.kind in "biu":
        # every output entry is a signed sum of 2^n inputs, so int64 is
        # exact when 2^n max|v| < 2^63; otherwise use Python integers
        if max(int(vals.max()), -int(vals.min())) << n >= 1 << 63:
            vals = vals.astype(object)
        else:
            vals = vals.astype(np.int64)
    elif vals.dtype.kind == "f":
        vals = vals.astype(np.float64)
    return IntSpectrum(n, _butterflies(vals).tolist())


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


@functools.cache
def krawtchouk_table(n):
    """Shared per-n Krawtchouk table."""
    return Krawtchouk(n)


def krawtchouk(n, i, j):
    """Exact K_i^{(n)}(j)."""
    return krawtchouk_table(n).value(i, j)


def word_chunks(n):
    """The packed words 0 .. 2^n - 1 as consecutive int64 arrays of at most
    _CHUNK words, so that a whole-space pass holds one chunk at a time."""
    for start in range(0, 1 << n, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)


def _popcount(v):
    """Number of set bits of each entry of a nonnegative int64 array, as
    int64.  `np.bitwise_count` gives uint8 (and counts the bits of |v| for a
    negative v); the cast keeps callers' arithmetic such as 1 + m - 2 w
    signed."""
    return np.bitwise_count(v).astype(np.int64)


def _parity(v):
    """Parity of the set bits of each entry of a nonnegative int64 array,
    as int64."""
    return _popcount(v) & 1


def weight_class_sums(char_sums, n):
    """W(j) = sum over words s of weight j of F(s), exact, as Python ints.

    char_sums maps an int64 array of packed words to the int64 array of
    their exact character sums F(s) = 2^n * fourier coefficient of the set
    indicator at s; it is called on one chunk of `word_chunks(n)` at a time.
    """
    if n > WHT_CAP:
        raise CapExceeded("weight_class_sums refuses n=%d > cap %d" % (n, WHT_CAP))
    chunk = min(_CHUNK, 1 << n)
    # a class sum of a chunk has at most _CHUNK = 2^c terms, so int64 is
    # exact for |F| < 2^(63 - c) (character sums are at most 2^n);
    # otherwise the class sums are taken in Python integers
    exact_bits = 63 - (_CHUNK.bit_length() - 1)
    # a chunk starts at a multiple of its length, so a word's weight is the
    # weight of its chunk's start plus that of its offset in the chunk
    low = _popcount(np.arange(chunk, dtype=np.int64))
    order = np.argsort(low, kind="stable")
    starts = np.searchsorted(low[order], np.arange(low[-1] + 1))
    out = [0] * (n + 1)
    for words in word_chunks(n):
        values = np.asarray(char_sums(words))
        if values.shape != words.shape or values.dtype != np.int64:
            raise ValueError("char_sums must give one int64 per word")
        values = values[order]
        if max(int(values.max()), -int(values.min())) >> exact_bits:
            values = values.astype(object)
        high = int(words[0]).bit_count()
        for j, total in enumerate(np.add.reduceat(values, starts).tolist()):
            out[high + j] += total
    return out


def _check_conv_cap(n):
    if n > CONV_CAP:
        raise CapExceeded("self_convolution_counts refuses n=%d > cap %d"
                          % (n, CONV_CAP))


def self_convolution_counts(indicator, n):
    """v(x) = #{z : z in A and x ^ z in A}, exact, via WHT square, as an
    int64 array indexed by the packed word x.

    indicator is the 0/1 indicator of A over the 2^n packed words.  Equals
    2^n (1_A * 1_A)(x) where * is the normalized convolution.
    """
    _check_conv_cap(n)
    f = np.asarray(indicator).astype(np.int64)
    if f.shape != (1 << n,) or ((f != 0) & (f != 1)).any():
        raise ValueError("indicator must be 2^%d zeros and ones" % n)
    # int64 is exact for n <= 31: every entry of the first transform is a
    # signed partial sum of the indicator, at most |A| <= 2^n; the second
    # transform's input F^2 is nonnegative, so each of its entries is at
    # most sum F^2 = 2^n |A| <= 2^(2n) (Parseval)
    back = _butterflies(np.square(_butterflies(f)))
    if (back & ((1 << n) - 1)).any():
        raise AssertionError("self-convolution not divisible by 2^n")
    return back >> n
