import random

import numpy as np
import pytest

from constrcodes import (BinaryLinearCode, BitMatrix, CapExceeded,
                         code_weight_distribution,
                         constrained_weight_distribution, count_brute,
                         count_in_code, count_odd_in_code, dual_code,
                         even_strict, fixed_weight, gf2_rank, hamming_code,
                         iterate_span, macwilliams, member_int, odd_relaxed,
                         odd_strict, reed_muller, rll, rm_subblock_count_plotkin,
                         simplex_code, subblock, two_charge,
                         two_charge_structure, weight_distribution, zero_code)
from constrcodes import counting
from constrcodes.constraints import char_sum_array
from constrcodes.counting import _krawtchouk_transform
from constrcodes.spectral import weight_class_sums, word_chunks
from test_constraints import all_constraints


def random_code(rng, n, k=None):
    while True:
        dim = rng.randint(1, n - 1) if k is None else k
        rows = [rng.randint(1, (1 << n) - 1) for _ in range(dim)]
        mat = BitMatrix(rows, n)
        if gf2_rank(mat) == dim:
            return BinaryLinearCode(generator=mat)


def test_known_two_charge_counts():
    assert count_in_code(reed_muller(4, 2), two_charge()).value == 16
    assert count_in_code(reed_muller(4, 3), two_charge()).value == 128
    assert count_in_code(reed_muller(5, 3), two_charge()).value == 2048
    assert count_in_code(hamming_code(3), two_charge()).value == 4


def test_known_rll_counts():
    assert count_in_code(reed_muller(4, 2), rll(1)).value == 83
    assert count_in_code(reed_muller(4, 3), rll(1)).value == 1292
    assert count_in_code(hamming_code(3), rll(1)).value == 4
    assert count_in_code(hamming_code(4), rll(1)).value == 101


def test_known_even_strict_counts():
    assert count_in_code(reed_muller(4, 2), even_strict()).value == 198
    assert count_in_code(reed_muller(4, 3), even_strict()).value == 1597
    assert count_in_code(hamming_code(3), even_strict()).value == 6
    assert count_in_code(hamming_code(4), even_strict()).value == 116


def test_methods_agree():
    code = hamming_code(4)
    for c in (two_charge(), rll(2), even_strict(), subblock(3, 1),
              odd_strict(), fixed_weight(7)):
        values = {count_in_code(code, c, method=m).value
                  for m in ("auto", "dual", "direct")}
        values.add(count_brute(code, c))
        assert len(values) == 1


def test_counts_match_brute_on_random_codes():
    rng = random.Random(123)
    for n in (7, 9, 10, 12):
        pool = [two_charge(), rll(1), rll(2), even_strict(),
                odd_relaxed() if n % 2 == 0 else odd_strict(),
                fixed_weight(n // 2)]
        if n % 2 == 0:
            pool.append(subblock(2, 2))
        for _ in range(20):
            code = random_code(rng, n)
            c = pool[rng.randrange(len(pool))]
            assert count_in_code(code, c).value == count_brute(code, c)


def test_count_cap_errors():
    code = reed_muller(5, 2)  # k = 16, dual dimension 16
    with pytest.raises(ValueError):
        count_in_code(code, two_charge(), cap=10)


def test_weight_distribution_against_brute():
    for n in (8, 10):
        for c in (two_charge(), rll(1), even_strict()):
            dist = weight_distribution(c, n)
            brute = [0] * (n + 1)
            for x in range(1 << n):
                if member_int(c, n, x):
                    brute[x.bit_count()] += 1
            assert dist.counts == brute
            assert dist.total() == sum(brute)


def test_even_strict_weight_distribution_n17():
    expected = [1, 9, 0, 120, 0, 462, 0, 792, 0, 715, 0, 364, 0, 105, 0, 16, 0, 1]
    assert weight_distribution(even_strict(), 17).counts == expected


def test_constrained_weight_distribution_against_brute():
    # n = 15 spans two chunks of the whole-space passes
    for code, c in [(hamming_code(4), rll(1)),
                    (hamming_code(4), two_charge()),
                    (hamming_code(4), subblock(3, 2)),
                    (random_code(random.Random(41), 15), even_strict()),
                    (reed_muller(4, 2), even_strict()),
                    (hamming_code(3), two_charge())]:
        dist = constrained_weight_distribution(code, c)
        brute = [0] * (code.n + 1)
        for w in iterate_span(code.generator.data):
            if member_int(c, code.n, w):
                brute[w.bit_count()] += 1
        assert dist.counts == brute
        assert dist.total() == count_in_code(code, c).value
    rng = random.Random(23)
    for n in (6, 7, 8, 9, 10):
        code = random_code(rng, n)
        for c in (two_charge(), rll(1), rll(2), even_strict(), fixed_weight(n // 2),
                  odd_relaxed() if n % 2 == 0 else odd_strict(),
                  subblock(2, 1) if n % 2 == 0 else subblock(n, 1)):
            brute = [0] * (n + 1)
            for w in iterate_span(code.generator.data):
                if member_int(c, n, w):
                    brute[w.bit_count()] += 1
            assert constrained_weight_distribution(code, c).counts == brute, (str(c), n)


# -- the dual-coset transform, oracle of constrained_weight_distribution ------


def _syndrome_table(rows, n):
    """The syndrome of every packed word x < 2^n against the k = len(rows)
    rows, as an int64 array: bit k-1-r of entry x is the parity of
    x & rows[r].  The map is linear, so the table doubles from the
    syndromes of the unit words: syn[2^i + x] = syn[x] ^ syn(e_i) for
    x < 2^i."""
    k = len(rows)
    table = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        unit = sum(((g >> i) & 1) << (k - 1 - r) for r, g in enumerate(rows))
        np.bitwise_xor(table[:1 << i], unit, out=table[1 << i:2 << i])
    return table


def dual_coset_weight_distribution(code, constraint):
    """a_i = (|C| / 4^n) * sum_j K_i(j) * sum_{w(s)=j} T(s), where
    T(s) = sum over the dual coset s + C-perp of F_A.  The coset of s is
    labelled by its syndrome, the parities of s against the generator
    rows, so one pass over all s sums F_A per syndrome; one table of the
    syndromes of all 2^n words serves that pass and the shell sums."""
    n, k = code.n, code.k
    # int64 is exact: a coset sum has 2^(n-k) terms of magnitude at most
    # |A| <= 2^n, so |T| <= 2^(2n-k)
    if 2 * n - k > 62:
        raise CapExceeded("dual-coset sums of 2^%d words exceed int64" % (2 * n - k))
    syndromes = _syndrome_table(code.generator.data, n)

    def chunk_syndromes(words):
        # a chunk is a run of consecutive words
        return syndromes[words[0]:words[0] + len(words)]

    coset_sums = np.zeros(1 << k, dtype=np.int64)
    for words in word_chunks(n):
        np.add.at(coset_sums, chunk_syndromes(words),
                  char_sum_array(constraint, n, words))
    shell = weight_class_sums(lambda s: coset_sums[chunk_syndromes(s)], n)
    # |C| / 4^n = 1 / 2^(2n - k)
    return _krawtchouk_transform(shell, 1 << (2 * n - k),
                                 "constrained weight-%d count is not an integer")


def full_code(n):
    return BinaryLinearCode(generator=BitMatrix([1 << j for j in range(n)], n))


def test_constrained_weight_distribution_matches_dual_coset_oracle():
    # every family on seeded random codes, and on the codes of dimensions 0
    # and n, against the transform
    rng = random.Random(29)
    for n in range(3, 15):
        codes = [zero_code(n), full_code(n)] + [random_code(rng, n) for _ in range(3)]
        for code in codes:
            for c in all_constraints(n):
                assert (constrained_weight_distribution(code, c)
                        == dual_coset_weight_distribution(code, c)), (str(c), n, code.k)


def test_constrained_weight_distribution_sums_several_chunks():
    # k = 15..17 > 14: the codewords come in 2 to 8 chunks
    rng = random.Random(31)
    for n, k in ((16, 15), (17, 16), (18, 17)):
        while True:
            rows = [rng.getrandbits(n) for _ in range(k)]
            if gf2_rank(rows) == k:
                break
        code = BinaryLinearCode(generator=BitMatrix(rows, n))
        for c in all_constraints(n):
            assert (constrained_weight_distribution(code, c)
                    == dual_coset_weight_distribution(code, c)), (str(c), n)


def test_syndrome_table_matches_row_parities():
    # the oracle's doubled table against the parities of every word with
    # each row, the first row giving the most significant bit
    rng = random.Random(17)
    for n in (1, 2, 5, 9, 13, 16):
        for _ in range(3):
            k = rng.randint(0, n)
            rows = [rng.getrandbits(n) for _ in range(k)]
            words = np.arange(1 << n, dtype=np.int64)
            expected = np.zeros(1 << n, dtype=np.int64)
            for g in rows:
                expected = (expected << 1) | (np.bitwise_count(words & g) & 1)
            assert np.array_equal(_syndrome_table(rows, n), expected), (n, rows)


def test_constrained_weight_distribution_refuses_int64_overflow(monkeypatch):
    # the oracle's dual-coset sums reach 2^(2n-k) = 2^64 here; the code-side
    # pass counts at most 2^k = 1 word per weight
    with pytest.raises(CapExceeded):
        dual_coset_weight_distribution(zero_code(32), rll(1))
    monkeypatch.setattr(counting, "SUBCODE_N_CAP", 32)
    monkeypatch.setattr(counting, "SUBCODE_DUAL_CAP", 32)
    assert constrained_weight_distribution(
        zero_code(32), rll(1)).counts == [1] + [0] * 32


def test_macwilliams_identity_on_dual_pairs():
    for code in (hamming_code(3), hamming_code(4), simplex_code(4),
                 reed_muller(3, 1), zero_code(6)):
        dual = dual_code(code)
        w = code_weight_distribution(code)
        wd = code_weight_distribution(dual)
        assert macwilliams(w, code.size()) == wd
        assert macwilliams(wd, dual.size()) == w


def test_two_charge_structure_predicts_count():
    rng = random.Random(17)
    for m in (3, 4, 5):
        code = hamming_code(m)
        struct = two_charge_structure(code)
        assert struct.predicted_count == count_in_code(code, two_charge()).value
    for n in (7, 8, 10, 11):
        for _ in range(10):
            code = random_code(rng, n)
            struct = two_charge_structure(code)
            assert struct.predicted_count == count_brute(code, two_charge())
    # the prediction intersects two spans by echelon reduction, so dual
    # dimensions of 25..30 are cheap; RM(5, 1) (dual dimension 26) meets
    # the criterion
    codes = [zero_code(n) for n in range(25, 31)]
    codes += [reed_muller(5, 1), simplex_code(5)]
    codes += [random_code(rng, 30, k) for k in range(1, 6) for _ in range(3)]
    predicted = [two_charge_structure(code).predicted_count for code in codes]
    assert predicted == [count_in_code(code, two_charge()).value
                         for code in codes]
    assert predicted[6] == 2


def test_odd_counts_match_closed_forms():
    for m in (3, 4, 5):
        report = count_odd_in_code(hamming_code(m))
        assert report.predicted is not None
        assert report.count == report.predicted
    for m, r in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 3)):
        report = count_odd_in_code(reed_muller(m, r))
        assert report.predicted is not None
        assert report.count == report.predicted


def test_odd_count_has_no_prediction_for_anonymous_codes():
    code = BinaryLinearCode(generator=BitMatrix([0b1011, 0b0101], 4))
    report = count_odd_in_code(code)
    assert report.predicted is None
    assert report.count == count_brute(code, odd_relaxed())


def test_plotkin_routes_agree_with_direct_count():
    for m, r in ((3, 1), (4, 2), (4, 3)):
        code = reed_muller(m, r)
        for z in range(0, (1 << (m - 1)) + 1, 2):
            res = rm_subblock_count_plotkin(m, r, z)
            direct = count_in_code(code, subblock(2, z)).value
            assert res["count_primal"] == res["count_dual"] == direct


def test_plotkin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rm_subblock_count_plotkin(7, 2, 1)
    with pytest.raises(ValueError):
        rm_subblock_count_plotkin(4, 0, 1)
    with pytest.raises(ValueError):
        rm_subblock_count_plotkin(4, 2, 99)
