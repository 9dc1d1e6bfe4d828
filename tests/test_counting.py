import random

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


def random_code(rng, n):
    while True:
        k = rng.randint(1, n - 1)
        rows = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        mat = BitMatrix(rows, n)
        if gf2_rank(mat) == k:
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


def test_constrained_weight_distribution_refuses_int64_overflow():
    # dual-coset sums reach 2^(2n-k) = 2^64 here
    with pytest.raises(CapExceeded):
        constrained_weight_distribution(zero_code(32), rll(1), n_cap=32,
                                        dual_cap=32)


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
