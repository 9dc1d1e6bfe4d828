import random

import numpy as np
import pytest

from constrcodes import (CapExceeded, cardinality, char_sum_array,
                         char_sum_brute, char_sum_int, enumerate_members,
                         even_strict, fixed_weight, member, member_array,
                         member_int, member_ints, odd_relaxed, odd_strict,
                         orbit_char_sum, orbit_structure, parse_constraint,
                         rll, subblock, two_charge, two_charge_basis, wht)
from constrcodes.constraints import FAMILIES
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
    if c.kind == "two_charge":
        charge = 0
        for xi in x:
            charge += 1 if xi == 0 else -1
            if charge < 0 or charge > 2:
                return False
        return True
    if c.kind == "subblock":
        width = n // c.p
        return all(sum(x[l * width:(l + 1) * width]) == c.z for l in range(c.p))
    if c.kind == "rll":
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
    if c.kind == "even_strict":
        return sum(x) == 0 or all(r % 2 == 0 for r in runs)
    if c.kind == "odd_strict":
        return sum(x) == 0 or all(r % 2 == 1 for r in runs)
    if c.kind == "odd_relaxed":
        return sum(x) == 0 or all(r % 2 == 1 for r in runs[1:-1])
    return sum(x) == c.i


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


def test_array_methods_match_scalar_on_every_word():
    for n in range(1, 15):
        words = np.arange(1 << n)
        for c in all_constraints(n):
            members = member_array(c, n, words)
            sums = char_sum_array(c, n, words)
            assert members.dtype == bool and sums.dtype == np.int64
            assert members.tolist() == [member_int(c, n, x) for x in words.tolist()], \
                (str(c), n)
            assert sums.tolist() == [char_sum_int(c, n, x) for x in words.tolist()], \
                (str(c), n)


def test_array_methods_match_scalar_on_long_words():
    # uniform words, sparse words (where the run-length sets have members)
    # and words off the odd coordinates (the odd-strict members)
    rng = random.Random(17)
    for n in range(33, 63):
        words = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(60)]
        words += [sum(1 << i for i in rng.sample(range(n), rng.randint(1, 6)))
                  for _ in range(60)]
        words += [rng.getrandbits(n) & ~(((1 << (n + 1)) - 1) // 3)
                  for _ in range(20)]
        for c in all_constraints(n) + [fixed_weight(2), fixed_weight(n - 1)]:
            assert member_array(c, n, words).tolist() == \
                [member_int(c, n, x) for x in words], (str(c), n)
            assert char_sum_array(c, n, words).tolist() == \
                [char_sum_int(c, n, x) for x in words], (str(c), n)


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
    # the mask form against the pair scan of the scalar char_sum: every
    # word up to n = 14, then seeded words of the span of the pair basis,
    # the same words with one bit flipped, and uniform words
    c = two_charge()
    for n in range(1, 15):
        words = np.arange(1 << n)
        assert char_sum_array(c, n, words).tolist() == \
            [c.char_sum(n, s) for s in words.tolist()], n
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
            [c.char_sum(n, s) for s in words], n


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
