import functools
import math
import operator
import random

import numpy as np
import pytest

from constrcodes import (CapExceeded, cardinality, char_sum_array,
                         char_sum_int, even_strict, fixed_weight, member,
                         member_array, member_int, member_ints, odd_relaxed,
                         odd_strict,
                         orbit_char_sum, orbit_structure, parse_constraint,
                         rll, self_convolution_counts, shell_sums, subblock,
                         two_charge, two_charge_basis, weight_class_sums, wht)
from constrcodes.constraints import (FAMILIES, TABLE_BITS, OddRelaxed,
                                     OrbitStructure, _even_strict_tables,
                                     _rll_tables, _two_charge_pairs,
                                     self_convolution)
from constrcodes.spectral import _popcount, krawtchouk
from constrcodes.gf2 import BitWord, iterate_span


def all_constraints(n):
    out = [two_charge(), rll(1), rll(2), rll(3), even_strict(), fixed_weight(n // 2)]
    out.append(odd_relaxed() if n % 2 == 0 else odd_strict())
    for p in (2, 3):
        if n % p == 0:
            out.append(subblock(p, min(2, n // p)))
    return out


def test_all_constraints_covers_every_family():
    # the char-sum, membership and orbit tests run over all_constraints, so a
    # family it never produces would go untested
    produced = {type(c) for n in range(3, 13) for c in all_constraints(n)}
    assert set(FAMILIES.values()) <= produced


# -- independent membership oracles on coordinate tuples ---------------------


def bits_to_tuple(bits, n):
    return tuple((bits >> i) & 1 for i in range(n))


def oracle_member(c, x):
    """Reference membership predicate, written against the definitions."""
    n = len(x)
    if c.head == "2charge":
        charge = 0
        for xi in x:
            charge += 1 if xi == 0 else -1
            if charge < 0 or charge > 2:
                return False
        return True
    if c.head == "subblock":
        width = n // c.p
        return all(sum(x[l * width:(l + 1) * width]) == c.z for l in range(c.p))
    if c.head == "rll":
        ones = [i for i, xi in enumerate(x) if xi]
        return all(b - a >= c.d + 1 for a, b in zip(ones, ones[1:]))
    runs = []
    current = 0
    for xi in x:
        if xi:
            runs.append(current)
            current = 0
        else:
            current += 1
    runs.append(current)
    if c.head == "even-strict":
        return sum(x) == 0 or all(r % 2 == 0 for r in runs)
    if c.head == "odd-strict":
        return sum(x) == 0 or all(r % 2 == 1 for r in runs)
    if c.head == "odd":
        return sum(x) == 0 or all(r % 2 == 1 for r in runs[1:-1])
    return sum(x) == c.i


def enumerate_members(c, n):
    """Yield the members of A as BitWord, in lexicographic order."""
    fmt = "0%db" % n
    for m in range(1 << n):
        bits = int(format(m, fmt)[::-1], 2)
        if member_int(c, n, bits):
            yield BitWord(n, bits)


def char_sum_brute(c, n, s):
    """Oracle: direct sum over the enumerated members."""
    return sum(-1 if (x & s).bit_count() & 1 else 1 for x in member_ints(c, n))


def test_membership_matches_oracle():
    for n in range(3, 10):
        for c in all_constraints(n):
            for bits in range(1 << n):
                assert member_int(c, n, bits) == \
                    oracle_member(c, bits_to_tuple(bits, n)), (str(c), n, bits)


def test_member_bitword_wrapper():
    c = rll(1)
    assert member(c, BitWord.from_string("10101"))
    assert not member(c, BitWord.from_string("11000"))


def test_enumeration_and_cardinality_agree():
    for n in range(3, 11):
        for c in all_constraints(n):
            members = member_ints(c, n)
            assert len(members) == cardinality(c, n)
            assert members == sorted(members)
            listed = list(enumerate_members(c, n))
            assert {w.bits for w in listed} == set(members)


def test_rll_cardinality_is_fibonacci_like():
    # for d=1, |A| follows the Fibonacci recurrence with |A(1)|=2, |A(2)|=3
    values = [cardinality(rll(1), n) for n in range(1, 12)]
    assert values[0] == 2 and values[1] == 3
    for i in range(2, len(values)):
        assert values[i] == values[i - 1] + values[i - 2]


def test_parse_constraint_roundtrip():
    texts = ["2charge", "subblock:p=2,z=1", "rll:d=2", "odd-strict", "odd",
             "even-strict", "weight:i=3"]
    for text in texts:
        assert str(parse_constraint(text)) == text


def test_parse_constraint_rejects_garbage():
    for text in ["", "blah", "subblock:p=2", "rll:d=x", "subblock:p=,z=1",
                 "weight", "rll:d=0", "rll:d=1,p=2", "2charge:p=1"]:
        with pytest.raises(ValueError):
            parse_constraint(text)
    with pytest.raises(ValueError, match="bad constraint parameter 'p=' in"):
        parse_constraint("subblock:p=,z=1")
    with pytest.raises(ValueError, match="non-integer parameter 'd=x' in"):
        parse_constraint("rll:d=x")


def test_check_length_errors():
    with pytest.raises(ValueError):
        subblock(3, 1).check_length(10)
    with pytest.raises(ValueError):
        subblock(2, 6).check_length(10)
    with pytest.raises(ValueError):
        odd_relaxed().check_length(9)
    with pytest.raises(ValueError):
        fixed_weight(9).check_length(8)


def test_char_sums_match_brute_all_s():
    for n in range(1, 9):
        for c in all_constraints(n):
            for s in range(1 << n):
                assert char_sum_int(c, n, s) == char_sum_brute(c, n, s), \
                    (str(c), n, s)


def test_char_sums_match_wht_larger_n():
    for n in (10, 11):
        for c in all_constraints(n):
            indicator = [1 if member_int(c, n, x) else 0 for x in range(1 << n)]
            spectrum = wht(indicator)
            for s in range(1 << n):
                assert char_sum_int(c, n, s) == spectrum[s]


def test_char_sum_at_zero_is_cardinality():
    for n in (6, 9, 12, 15):
        for c in all_constraints(n):
            assert char_sum_int(c, n, 0) == len(member_ints(c, n)), (str(c), n)


def test_words_outside_n_coordinates_are_rejected():
    for n in (6, 7):
        for c in all_constraints(n):
            for s in (1 << n, -1, 0b110000 << n):
                with pytest.raises(ValueError):
                    char_sum_int(c, n, s)
                with pytest.raises(ValueError):
                    member_int(c, n, s)


# -- the per-family Python-int forms, oracle of member and char_sum ----------


def _zero_runs(bits, n):
    """Lengths of the leading, internal, and trailing runs of zeros."""
    runs = []
    last = -1
    while bits:
        low = bits & -bits
        position = low.bit_length() - 1
        runs.append(position - last - 1)
        last = position
        bits ^= low
    runs.append(n - 1 - last)
    return runs


def int_member(c, n, bits):
    """Membership of one packed word, by scans over its bits and runs."""
    if c.head == "2charge":
        total = 0
        for i in range(n):
            total += 1 - 2 * ((bits >> i) & 1)
            if not 0 <= total <= 2:
                return False
        return True
    if c.head == "subblock":
        return all(block.bit_count() == c.z for block in c.blocks(n, bits))
    if c.head == "rll":
        last = -c.d - 1
        while bits:
            low = bits & -bits
            position = low.bit_length() - 1
            if position - last <= c.d:
                return False
            last = position
            bits ^= low
        return True
    if c.head == "odd-strict":
        return bits == 0 or all(r % 2 == 1 for r in _zero_runs(bits, n))
    if c.head == "odd":
        return bits == 0 or all(r % 2 == 1 for r in _zero_runs(bits, n)[1:-1])
    if c.head == "even-strict":
        return bits == 0 or all(r % 2 == 0 for r in _zero_runs(bits, n))
    return bits.bit_count() == c.i


# F of even-strict at lengths 1 and 2: the members are 0 and 1, and 00 and 11
_EVEN_BASE = {1: (2, 0), 2: (2, 0, 0, 2)}


def int_char_sum(c, n, s):
    """F_A(s) of one packed word, by the families' pair scan, recurrences
    from their base cases, and Krawtchouk values."""
    if c.head == "2charge":
        rest = s >> 1
        neg_pairs = 0
        for _ in range((n + 1) // 2 - 1):
            pair = rest & 0b11
            if pair == 0b11:
                neg_pairs ^= 1
            elif pair:
                return 0
            rest >>= 2
        if rest:
            return 0
        return -(1 << (n // 2)) if neg_pairs else 1 << (n // 2)
    if c.head == "subblock":
        out = 1
        for block in c.blocks(n, s):
            out *= krawtchouk(n // c.p, c.z, block.bit_count())
        return out
    if c.head == "rll":
        d = c.d
        vals = [1 + m - 2 * (s >> (n - m)).bit_count()
                for m in range(min(n, d + 1) + 1)]
        for m in range(d + 2, n + 1):
            if (s >> (n - m)) & 1:
                vals.append(vals[m - 1] - vals[m - d - 1])
            else:
                vals.append(vals[m - 1] + vals[m - d - 1])
        return vals[n]
    if c.head == "odd-strict":
        if n % 2 == 0:
            return 1
        return 0 if s & ~(((1 << (n + 1)) - 1) // 3) else 1 << (n // 2)
    if c.head == "odd":
        if s == 0:
            return (1 << (n // 2 + 1)) - 1
        return (1 << (n // 2)) - 1 if int_member(c, n, s) else -1
    if c.head == "even-strict":
        if n <= 2:
            return _EVEN_BASE[n][s]
        vals = [0, _EVEN_BASE[1][s >> (n - 1)], _EVEN_BASE[2][s >> (n - 2)]]
        for m in range(3, n + 1):
            even = 1 if m % 2 == 0 else 0
            if (s >> (n - m)) & 1:
                vals.append(-vals[m - 1] + vals[m - 2] + even)
            else:
                vals.append(vals[m - 1] + vals[m - 2] - even)
        return vals[n]
    return krawtchouk(n, c.i, s.bit_count())


def check_against_int_oracle(c, n, words):
    """member and char_sum on each word as a Python int, exactly the
    oracle's bool and int, and for n <= 62 on all of them as an int64 array,
    the same values as a bool and an int64 array."""
    members = [int_member(c, n, x) for x in words]
    sums = [int_char_sum(c, n, x) for x in words]
    got = [member_int(c, n, x) for x in words]
    assert all(type(v) is bool for v in got) and got == members, (str(c), n)
    got = [char_sum_int(c, n, x) for x in words]
    assert all(type(v) is int for v in got) and got == sums, (str(c), n)
    if n <= 62:
        member_arr = member_array(c, n, words)
        sum_arr = char_sum_array(c, n, words)
        assert member_arr.dtype == bool and sum_arr.dtype == np.int64
        assert member_arr.tolist() == members, (str(c), n)
        assert sum_arr.tolist() == sums, (str(c), n)


def seam_words(n):
    """Ones on both sides of each seam between the bytes that the
    run-length sums read, and between their leading n mod 8 bits and the
    first full byte: at the bits q - 1, q - 2 or q - 3 and q of every seam
    q = 8j, counted from the bottom bit, and for each gap one word with
    every seam of it; the same at the seams q = n - 8j, counted from the
    top."""
    seams = list(range(8, n, 8)) + [n - q for q in range(8, n, 8)]
    words = []
    for gap in (1, 2, 3):
        pairs = [1 << q | 1 << (q - gap) for q in seams if q >= gap]
        words += pairs
        words.append(functools.reduce(operator.or_, pairs, 0))
    return words


def long_words(rng, n):
    """All zeros, all ones, uniform words, sparse words (where the
    run-length sets have members), ones on both sides of the byte seams
    (`seam_words`), words off the odd and off the even coordinates (the
    odd-strict and odd members), 2-charge members and words of the span of
    the pair basis, and even-strict members."""
    odd_coordinates = ((1 << (n + 1)) - 1) // 3
    words = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(60)]
    words += seam_words(n)
    words += [sum(1 << i for i in rng.sample(range(n), rng.randint(1, 6)))
              for _ in range(60)]
    words += [rng.getrandbits(n) & ~odd_coordinates for _ in range(20)]
    words += [rng.getrandbits(n) & odd_coordinates for _ in range(20)]
    basis = two_charge_basis(n)
    for _ in range(20):
        words.append(sum(1 << (i + rng.randrange(2)) for i in range(1, n - 1, 2))
                     | rng.randrange(2 - n % 2) << (n - 1))
        span = 0
        for b in rng.sample(basis, rng.randint(1, len(basis))):
            span ^= b
        words += [span, span ^ (1 << rng.randrange(n))]
        word, position = 0, 0
        while position < n:
            if position + 2 <= n and rng.randrange(2):
                position += 2
            else:
                word |= 1 << position
                position += 1
        words.append(word)
    return words


def test_array_methods_match_scalar_on_every_word():
    for n in range(1, 15):
        words = list(range(1 << n))
        for c in all_constraints(n) + [odd_strict()] * (1 - n % 2):
            check_against_int_oracle(c, n, words)


def test_array_methods_match_scalar_on_long_words():
    rng = random.Random(17)
    for n in range(33, 63):
        words = long_words(rng, n)
        for c in all_constraints(n) + [fixed_weight(2), fixed_weight(n - 1)]:
            check_against_int_oracle(c, n, words)


def test_int_methods_match_oracle_beyond_int64():
    # lengths past ARRAY_CAP, which only the Python-int path serves
    rng = random.Random(23)
    for n in (63, 64, 128, 256):
        words = long_words(rng, n)
        cases = all_constraints(n) + [odd_strict()] * (1 - n % 2)
        cases += [fixed_weight(2), fixed_weight(n - 1)]
        cases += [subblock(4, 3)] * (n % 4 == 0)
        for c in cases:
            check_against_int_oracle(c, n, words)
        with pytest.raises(CapExceeded):
            member_array(cases[0], n, [0])


def test_byte_tables_bound_every_partial_sum():
    # each byte matrix M, read at a length l from window values of lengths
    # l_j (the even-strict constant at length 0), has sum_j |M_ij| 2^{l_j}
    # <= 2^{l+8}: the bound that keeps every partial sum of a window update
    # at most 2^n in magnitude, so the int64 path is exact
    for lead in range(TABLE_BITS):
        length = 2 * TABLE_BITS + lead
        for tables, lengths in ((_rll_tables(1, lead), (-1, 0)),
                                (_rll_tables(2, lead), (-2, -1, 0)),
                                (_even_strict_tables(lead), (-1, 0, -length))):
            lengths = [length + l for l in lengths]
            for matrix in tables[2]:
                for i in range(0, len(matrix), len(lengths)):
                    row = matrix[i:i + len(lengths)]
                    assert sum(abs(m) << l for m, l in zip(row, lengths)) \
                        <= 1 << (length + TABLE_BITS), (lead, matrix)


def test_array_methods_check_words_and_cap():
    for n in (6, 7):
        for c in all_constraints(n):
            for words in ([1 << n], [3, -1], [0, 0b110000 << n], [2 ** 70]):
                with pytest.raises(ValueError):
                    member_array(c, n, words)
                with pytest.raises(ValueError):
                    char_sum_array(c, n, words)
    for c in (two_charge(), rll(1), fixed_weight(3)):
        with pytest.raises(CapExceeded):
            member_array(c, 63, [0])
        with pytest.raises(CapExceeded):
            char_sum_array(c, 63, [0])
    with pytest.raises(ValueError):
        member_array(subblock(2, 2), 7, [0])


def test_two_charge_spectrum_support():
    # the character sum is supported exactly on the span of the pair basis,
    # where its magnitude is 2^floor(n/2)
    for n in (7, 8):
        span = set(iterate_span(two_charge_basis(n)))
        for s in range(1 << n):
            value = char_sum_int(two_charge(), n, s)
            if s in span:
                assert abs(value) == 1 << (n // 2)
            else:
                assert value == 0


def test_two_charge_char_sum_array_matches_scalar():
    # the mask form against the pair scan of the int oracle: every
    # word up to n = 14, then seeded words of the span of the pair basis,
    # the same words with one bit flipped, and uniform words
    c = two_charge()
    for n in range(1, 15):
        words = np.arange(1 << n)
        assert char_sum_array(c, n, words).tolist() == \
            [int_char_sum(c, n, s) for s in words.tolist()], n
    rng = random.Random(31)
    for n in range(15, 63):
        basis = two_charge_basis(n)
        span = [0]
        for _ in range(100):
            word = 0
            for b in rng.sample(basis, rng.randint(1, len(basis))):
                word ^= b
            span.append(word)
        words = span + [w ^ (1 << rng.randrange(n)) for w in span]
        words += [rng.getrandbits(n) for _ in range(100)]
        assert char_sum_array(c, n, words).tolist() == \
            [int_char_sum(c, n, s) for s in words], n


def test_shell_sums_closed_forms_match_whole_space_pass():
    # every family but the relaxed odd one has a closed form; each must give
    # exactly the weight-class sums of one pass over all 2^n words
    for n in range(1, 15):
        for c in all_constraints(n):
            expected = weight_class_sums(lambda s: char_sum_array(c, n, s), n)
            closed = c.shell_sums(n)
            assert (closed is None) == isinstance(c, OddRelaxed), (c, n)
            assert shell_sums(c, n) == expected, (c, n)
            assert all(type(v) is int for v in shell_sums(c, n))


def test_self_convolution_closed_forms_match_wht():
    # 2-charge, subblock for every p dividing n and weight:i, against the
    # WHT square of the membership array; weight:i also against the formula
    # C(j, j/2) C(n - j, i - j/2) at even weights j, 0 at odd ones
    for n in range(1, 17):
        words = np.arange(1 << n)
        cases = [two_charge()]
        cases += [subblock(p, z) for p in range(1, n + 1) if n % p == 0
                  for z in sorted({0, 1, n // p // 2, n // p})]
        cases += [fixed_weight(i) for i in sorted({0, 1, n // 2, n})]
        for c in cases:
            expected = self_convolution_counts(member_array(c, n, words), n)
            conv = self_convolution(c, n)
            assert conv.dtype == np.int64, (c, n)
            assert np.array_equal(conv, expected), (c, n)
        for i in sorted({0, 1, n // 2, n}):
            formula = [math.comb(j, j // 2) * math.comb(n - j, i - j // 2)
                       if j % 2 == 0 and j // 2 <= i else 0
                       for j in range(n + 1)]
            assert fixed_weight(i).self_convolution(n).tolist() == \
                [formula[j] for j in _popcount(words).tolist()], (i, n)


def reversal_families(n):
    out = [rll(1), rll(2), rll(3), even_strict(), odd_strict()]
    out += [fixed_weight(i) for i in range(n + 1)]
    if n % 2 == 0:
        out.append(odd_relaxed())
    return out


def test_reversal_families_are_reversal_invariant():
    for n in range(1, 11):
        for c in reversal_families(n):
            for x in range(1 << n):
                rev = int(format(x, "0%db" % n)[::-1], 2)
                assert member_int(c, n, rev) == member_int(c, n, x), (str(c), n, x)


def test_reversal_orbits():
    for c, n in [(rll(1), 7), (even_strict(), 8), (fixed_weight(3), 6)]:
        struct = orbit_structure(c, n)
        assert struct.group == "reversal"
        for x in range(1 << n):
            rev = int(format(x, "0%db" % n)[::-1], 2)
            i = struct.index[x]
            assert struct.reps[i] == min(x, rev)
            assert struct.sizes[i] == (1 if x == rev else 2)
            assert np.flatnonzero(struct.index == i).tolist() == sorted({x, rev})


def test_orbit_structure_partitions_space():
    for c, n in [(two_charge(), 7), (two_charge(), 8),
                 (subblock(2, 1), 8), (subblock(3, 2), 9), (rll(2), 9),
                 (odd_relaxed(), 8), (fixed_weight(4), 8)]:
        for trivial in (False, True):
            struct = orbit_structure(c, n, trivial=trivial)
            assert struct.sizes.sum() == 1 << n
            assert struct.index.shape == (1 << n,)
            # orbit-stabilizer: every orbit size divides the group order
            order = struct.order(c, n)
            assert all(order % int(size) == 0 for size in struct.sizes)
            for i, rep in enumerate(struct.reps.tolist()):
                assert len(np.flatnonzero(struct.index == i)) == struct.sizes[i]
                assert struct.index[rep] == i


def _orbits(struct):
    """The words of each orbit of a structure, ascending, in orbit order."""
    return [np.flatnonzero(struct.index == i).tolist()
            for i in range(len(struct.sizes))]


def _closure_orbits(n, generators):
    """The orbits of the group generated by coordinate permutations (perm[i]
    is the image of bit i), by closing every word under the generators."""
    orbit_of = {}
    for x in range(1 << n):
        if x in orbit_of:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for perm in generators:
                z = sum(((y >> i) & 1) << perm[i] for i in range(n))
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        for y in orbit:
            orbit_of[y] = orbit
    return orbit_of


def _swaps(n, pairs):
    """The coordinate permutations each exchanging the bit sets a and b."""
    out = []
    for a, b in pairs:
        perm = list(range(n))
        for i, j in zip(a, b):
            perm[i], perm[j] = j, i
        out.append(perm)
    return out


def two_charge_keys(n, words):
    """Oracle of the pair-permutation key: ((first bit) (P + 1) + number of
    00 pairs) (P + 1) + number of 11 pairs over the P pairs (2i, 2i+1), for
    even n doubled plus the last bit."""
    pairs = _two_charge_pairs(n)
    t00 = np.zeros_like(words)
    t11 = np.zeros_like(words)
    for low in pairs:
        pair = (words >> low) & 0b11
        t00 += pair == 0
        t11 += pair == 0b11
    keys = ((words & 1) * (len(pairs) + 1) + t00) * (len(pairs) + 1) + t11
    if n % 2 == 0:
        keys = 2 * keys + ((words >> (n - 1)) & 1)
    return keys


def subblock_keys(p, n, words):
    """Oracle of the subblock key: the multiset of subblock weights as a
    number in base p + 1, whose digit w counts the subblocks of weight w,
    subtracted from its largest value."""
    powers = (p + 1) ** np.arange(n // p + 1, dtype=np.int64)
    keys = np.full_like(words, p * powers[-1])
    for block in subblock(p, 0).blocks(n, words):
        keys -= powers[_popcount(block)]
    return keys


def block_structures(n):
    """The 2-charge structure and a subblock structure for every p | n."""
    return [orbit_structure(two_charge(), n)] + [
        orbit_structure(subblock(p, 0), n)
        for p in range(1, n + 1) if n % p == 0]


def test_block_table_keys_match_chunked_keys():
    # the keys of the 2-charge and subblock groups, summed from per-weight
    # block terms, against per-word formulas: the outer-sum table of all
    # words, and the chunked pass of `_keys`; this pins the orbit numbering
    for n in range(1, 17):
        words = np.arange(1 << n, dtype=np.int64)
        for struct in block_structures(n):
            c = struct.constraint
            expected = (two_charge_keys(n, words) if c == two_charge()
                        else subblock_keys(c.p, n, words))
            where = (struct.group, c, n)
            keys = struct._key_table()
            assert keys.dtype == np.int64, where
            assert np.array_equal(keys, expected), where
            assert np.array_equal(OrbitStructure._key_table(struct),
                                  expected), where


def test_block_group_orders():
    # the order from the layout, prod over classes of k! (w!)^k, against
    # P! 2^P (2-charge, P pairs) and p! ((n/p)!)^p (subblock)
    for n in range(1, 19):
        pairs = len(_two_charge_pairs(n))
        c = two_charge()
        assert c.orbits.order(c, n) == math.factorial(pairs) * 2 ** pairs, n
        for p in range(1, n + 1):
            if n % p == 0:
                c = subblock(p, 0)
                assert c.orbits.order(c, n) == \
                    math.factorial(p) * math.factorial(n // p) ** p, (p, n)


def test_block_orbits_match_key_pass():
    # the 2-charge and subblock orbits from weight profiles against the
    # bincount of the chunked keys: sizes, representatives, and the index,
    # built only when first read
    for n in range(1, 17):
        for struct in block_structures(n):
            assert struct._index is None
            keys = OrbitStructure._key_table(struct)
            counts = np.bincount(keys)
            present = counts > 0
            index = (np.cumsum(present) - 1)[keys]
            reps = np.full(present.sum(), 1 << n)
            np.minimum.at(reps, index, np.arange(1 << n))
            where = (struct.group, struct.constraint, n)
            assert struct.sizes.dtype == struct.reps.dtype == np.int64
            assert np.array_equal(struct.sizes, counts[present]), where
            assert np.array_equal(struct.reps, reps), where
            assert np.array_equal(struct.index, index), where
            assert struct.index.dtype == np.int64


def test_block_tables_invariance_and_values_at_reps():
    # the families' per-weight self-convolution factors, read at the
    # representatives, equal the whole array there, which is what the
    # structure keeps, and the whole array passes the chunked check that
    # it is constant on the orbits; the trivial group keeps the whole array
    # at its representatives
    for c, n in [(two_charge(), 9), (two_charge(), 10), (subblock(2, 1), 8),
                 (subblock(3, 2), 9), (subblock(4, 1), 12)]:
        struct = orbit_structure(c, n)
        whole = self_convolution(c, n)
        assert np.array_equal(struct.conv, whole[struct.reps])
        assert np.array_equal(struct._checked_at_reps(whole), struct.conv)
        trivial = orbit_structure(c, n, trivial=True)
        assert np.array_equal(trivial.conv, whole)


def test_orbit_structure_matches_generator_closure():
    # the key-derived orbits against the closure of every word under the
    # group's coordinate permutations: reversal; swaps inside the pairs
    # (2i, 2i+1) and transpositions of pairs (2-charge); transpositions
    # inside a subblock and swaps of subblocks (subblock); the identity
    cases = []
    for c, n in [(rll(1), 7), (even_strict(), 8)]:
        cases.append((orbit_structure(c, n), [list(range(n))[::-1]]))
    for n in (7, 8):
        pairs = [(2 * i - 1, 2 * i) for i in range(1, (n + 1) // 2)]
        gens = _swaps(n, [((a,), (b,)) for a, b in pairs]
                      + [(p, q) for p, q in zip(pairs, pairs[1:])])
        cases.append((orbit_structure(two_charge(), n), gens))
    for p, n in [(2, 8), (3, 9)]:
        width = n // p
        blocks = [tuple(range(l * width, (l + 1) * width)) for l in range(p)]
        gens = _swaps(n, [((i,), (i + 1,)) for block in blocks
                          for i in block[:-1]]
                      + list(zip(blocks, blocks[1:])))
        cases.append((orbit_structure(subblock(p, 1), n), gens))
    for n in (7, 8):
        cases.append((orbit_structure(rll(1), n, trivial=True), []))
    for struct, gens in cases:
        orbit_of = _closure_orbits(struct.n, gens)
        orbits = _orbits(struct)
        assert len(orbits) == len({id(o) for o in orbit_of.values()})
        for i, words in enumerate(orbits):
            assert words == sorted(orbit_of[words[0]])
            assert struct.sizes[i] == len(words)
            assert struct.reps[i] == words[0]


def test_orbit_members_share_membership_and_weight_profile():
    for c, n in [(two_charge(), 9), (subblock(2, 2), 8), (rll(1), 9),
                 (even_strict(), 10), (odd_strict(), 9), (odd_relaxed(), 10),
                 (fixed_weight(5), 10)]:
        for xs in _orbits(orbit_structure(c, n)):
            flags = {member_int(c, n, x) for x in xs}
            assert len(flags) == 1
            assert len({x.bit_count() for x in xs}) == 1


def test_orbit_char_sum_matches_brute():
    # the scalar oracle and the full matrix of every group (the subblock
    # Krawtchouk closed form included) against sums over the orbit's words,
    # for every representative and every orbit
    for c, n in [(two_charge(), 7), (two_charge(), 8), (subblock(2, 1), 8),
                 (subblock(3, 2), 9), (rll(1), 7), (even_strict(), 8)]:
        struct = orbit_structure(c, n)
        orbits = _orbits(struct)
        brute = [[sum(1 if (x & s_rep).bit_count() % 2 == 0 else -1
                      for x in xs) for xs in orbits]
                 for s_rep in struct.reps.tolist()]
        assert struct.char_sums(np.arange(len(orbits))).tolist() == brute
        for i, s_rep in enumerate(struct.reps.tolist()):
            for j in range(len(orbits)):
                assert orbit_char_sum(struct, j, s_rep) == brute[i][j]


def test_subblock_char_sums_match_brute():
    # the subblock expansion over the blocks against the brute-force orbit
    # sums, for every representative and orbit, over every subblock count
    # p from one to n (p! orderings per column in the sum it replaced)
    for c, n in [(subblock(1, 5), 12), (subblock(2, 3), 12),
                 (subblock(3, 2), 12), (subblock(4, 1), 12),
                 (subblock(6, 1), 12), (subblock(12, 0), 12),
                 (subblock(5, 1), 10), (subblock(2, 0), 10),
                 (subblock(7, 1), 7)]:
        struct = orbit_structure(c, n)
        orbits = np.arange(len(struct.sizes))
        expected = [[orbit_char_sum(struct, j, s_rep) for j in orbits]
                    for s_rep in struct.reps.tolist()]
        assert struct.char_sums(orbits).tolist() == expected, (c, n)
        assert struct.char_sums(orbits[::-2]).tolist() == \
            [row[::-2] for row in expected], (c, n)


def test_orbit_char_sum_matrix_matches_scalar():
    # the vectorized (and, for subblock, closed-form) matrix against the
    # brute-force orbit sums, for every group including the trivial one
    for c, n in [(two_charge(), 7), (two_charge(), 8), (subblock(2, 1), 8),
                 (subblock(3, 2), 9), (rll(1), 8), (odd_relaxed(), 8),
                 (fixed_weight(3), 7)]:
        for trivial in (False, True):
            struct = orbit_structure(c, n, trivial=trivial)
            columns = np.arange(1, len(struct.sizes), 3)
            matrix = struct.char_sums(columns)
            assert matrix.shape == (len(struct.sizes), len(columns))
            for i, s_rep in enumerate(struct.reps.tolist()):
                assert matrix[i].tolist() == [orbit_char_sum(struct, j, s_rep)
                                              for j in columns]
            assert struct.char_sums([]).shape == (len(struct.sizes), 0)
