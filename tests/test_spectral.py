import math
import random

import numpy as np
import pytest

from constrcodes import (IntSpectrum, krawtchouk, krawtchouk_table,
                         self_convolution_counts, weight_class_sums, wht)
from constrcodes.constraints import (char_sum_array, char_sum_int,
                                     member_array, member_int, rll,
                                     subblock)
from constrcodes.spectral import _CHUNK, _butterflies, _parity, _popcount


def brute_wht(vals, n):
    out = []
    for s in range(1 << n):
        out.append(sum(v if (x & s).bit_count() % 2 == 0 else -v
                       for x, v in enumerate(vals)))
    return out


def python_wht(vals):
    """Oracle: the in-place butterflies on a Python list, with Python
    arithmetic (exact for integers)."""
    vals = list(vals)
    size = len(vals)
    h = 1
    while h < size:
        for start in range(0, size, h * 2):
            for i in range(start, start + h):
                a, b = vals[i], vals[i + h]
                vals[i], vals[i + h] = a + b, a - b
        h *= 2
    return vals


def test_wht_matches_brute_force():
    rng = random.Random(3)
    for n in range(1, 9):
        vals = [rng.randint(-9, 9) for _ in range(1 << n)]
        assert wht(vals).values == brute_wht(vals, n)


def test_wht_involution_and_parseval():
    rng = random.Random(5)
    for n in (3, 6, 10):
        size = 1 << n
        vals = [rng.randint(-9, 9) for _ in range(size)]
        spec = wht(vals)
        assert wht(spec).values == [size * v for v in vals]
        assert sum(v * v for v in spec.values) == size * sum(v * v for v in vals)


def test_wht_float_is_bit_identical_to_python_butterflies():
    rng = random.Random(9)
    for n in range(0, 13):
        vals = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
                for _ in range(1 << n)]
        got = wht(vals).values
        want = python_wht(vals)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_wht_integers_near_int64_limit_are_exact():
    # 2^n max|v| >= 2^63 here, so int64 butterflies could wrap
    assert wht([2 ** 62] * 4).values == [2 ** 64, 0, 0, 0]
    rng = random.Random(13)
    for n in (1, 4, 8):
        vals = [rng.choice((2 ** 62, -(2 ** 62), 2 ** 62 - 1, 1 - 2 ** 62, 0))
                for _ in range(1 << n)]
        got = wht(vals).values
        assert got == python_wht(vals) == brute_wht(vals, n)
        assert all(type(v) is int for v in got)
    huge = [3 ** 50, -(5 ** 40), 7, 2 ** 64]
    assert wht(huge).values == python_wht(huge)


def test_wht_rejects_bad_lengths():
    with pytest.raises(ValueError):
        wht([1, 2, 3])


def test_int_spectrum_validates_length():
    with pytest.raises(ValueError):
        IntSpectrum(2, [1, 2, 3])


def brute_krawtchouk(n, i, j):
    return sum((-1) ** t * math.comb(j, t) * math.comb(n - j, i - t)
               for t in range(i + 1))


def test_krawtchouk_values():
    for n in range(0, 12):
        table = krawtchouk_table(n)
        for i in range(n + 1):
            for j in range(n + 1):
                assert table.value(i, j) == brute_krawtchouk(n, i, j)
                assert krawtchouk(n, i, j) == table.value(i, j)


def test_krawtchouk_orthogonality():
    for n in range(1, 11):
        table = krawtchouk_table(n)
        for i in range(n + 1):
            for k in range(n + 1):
                total = sum(math.comb(n, j) * table.value(i, j) * table.value(k, j)
                            for j in range(n + 1))
                expected = (1 << n) * math.comb(n, i) if i == k else 0
                assert total == expected


def test_krawtchouk_reciprocity():
    # binomial-weighted symmetry: C(n,j) K_i(j) = C(n,i) K_j(i)
    n = 9
    table = krawtchouk_table(n)
    for i in range(n + 1):
        for j in range(n + 1):
            assert math.comb(n, j) * table.value(i, j) == \
                math.comb(n, i) * table.value(j, i)


def test_popcount_and_parity_against_int_bit_count():
    rng = random.Random(29)
    words = [0, 1, 2 ** 62 - 1] + [rng.getrandbits(62) for _ in range(500)]
    words += [rng.getrandbits(k) for k in range(1, 63)]
    counts = _popcount(np.array(words, dtype=np.int64))
    parities = _parity(np.array(words, dtype=np.int64))
    assert counts.dtype == np.int64 and parities.dtype == np.int64
    assert counts.tolist() == [x.bit_count() for x in words]
    assert parities.tolist() == [x.bit_count() & 1 for x in words]
    # signed arithmetic on the counts, as the character-sum recurrences use
    assert (1 - 2 * _popcount(np.array([2 ** 62 - 1]))).tolist() == [-123]


def test_weight_class_sums_against_direct():
    # n = 13, 14, 15: half a chunk, one chunk and two chunks of 2^14 words
    for n, c in ((8, rll(1)), (13, rll(1)), (14, subblock(2, 3)),
                 (15, rll(2)), (17, rll(2)), (18, subblock(2, 4))):
        sums = weight_class_sums(lambda s: char_sum_array(c, n, s), n)
        direct = [0] * (n + 1)
        for s in range(1 << n):
            direct[s.bit_count()] += char_sum_int(c, n, s)
        assert sums == direct
        assert all(type(v) is int for v in sums)
        # the weight-0 class sum is the cardinality of the set
        assert sums[0] == sum(1 for x in range(1 << n) if member_int(c, n, x))


def test_weight_class_sums_large_values_are_exact():
    # a chunk holds _CHUNK = 2^c words, so its class sums stay in int64 for
    # |F| < 2^(63 - c); 3 * 2^(64 - c) and values near 2^60 make class sums
    # beyond int64 and take the Python-int path
    n = 17
    c = _CHUNK.bit_length() - 1
    for big in ((1 << (63 - c)) - 1, 3 << (64 - c), 2 ** 60 + 12345):
        sums = weight_class_sums(lambda s: np.where(s & 1, -big, big), n)
        # weight j: C(n-1, j) even words, C(n-1, j-1) odd ones
        want = [big * (math.comb(n - 1, j) - (math.comb(n - 1, j - 1) if j else 0))
                for j in range(n + 1)]
        assert sums == want
        same_sign = weight_class_sums(lambda s: np.full(s.shape, big), n)
        assert same_sign == [big * math.comb(n, j) for j in range(n + 1)]
    with pytest.raises(ValueError):
        weight_class_sums(lambda s: s.astype(float), 4)


def test_self_convolution_counts_against_brute():
    n = 7
    c = rll(2)
    members = [x for x in range(1 << n) if member_int(c, n, x)]
    conv = self_convolution_counts([x in members for x in range(1 << n)], n)
    member_set = set(members)
    for x in range(1 << n):
        assert conv[x] == sum(1 for z in members if (x ^ z) in member_set)


def test_self_convolution_counts_match_exact_object_path():
    n = 12
    for c in (rll(1), subblock(2, 3)):
        indicator = member_array(c, n, np.arange(1 << n))
        conv = self_convolution_counts(indicator, n)
        assert conv.dtype == np.int64
        spectrum = _butterflies(indicator.astype(np.int64).astype(object))
        back = python_wht([v * v for v in spectrum.tolist()])
        assert all(type(v) is int and v % (1 << n) == 0 for v in back)
        assert conv.tolist() == [v >> n for v in back]
    with pytest.raises(ValueError):
        self_convolution_counts([0, 1, 2, 1], 2)
    with pytest.raises(ValueError):
        self_convolution_counts([0, 1, 1], 2)


def test_caps_are_enforced():
    with pytest.raises(ValueError):
        weight_class_sums(np.zeros_like, 99)
    with pytest.raises(ValueError):
        self_convolution_counts([], 99)
