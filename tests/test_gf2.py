import math
import random

import numpy as np
import pytest

from constrcodes import (BinaryLinearCode, BitMatrix, BitWord, CodeFormatError,
                         coset_decompose, coset_weight_enumerator, dual_code,
                         gf2_rank, hamming_code,
                         iterate_span, load_code, reed_muller, save_code,
                         simplex_code, zero_code)
from constrcodes.gf2 import span_chunks


def test_bitword_string_roundtrip():
    w = BitWord.from_string("10110")
    assert str(w) == "10110"
    assert w.weight() == 3
    assert w.n == 5


def test_bitword_bit_indexing_is_coordinate_order():
    # coordinate 1 is the leftmost character of the string form
    w = BitWord.from_string("100")
    assert w.bits == 1


def test_bitmatrix_rank():
    m = BitMatrix([0b011, 0b101, 0b110], 3)
    assert gf2_rank(m) == 2


def test_hamming_parameters():
    for m in (3, 4, 5):
        code = hamming_code(m)
        n = (1 << m) - 1
        assert (code.n, code.k) == (n, n - m)
    # minimum distance 3: no nonzero codeword of weight < 3
    for m in (3, 4):
        words = list(iterate_span(hamming_code(m).generator.data))
        assert min(w.bit_count() for w in words if w) == 3


def test_simplex_is_dual_of_hamming():
    code = hamming_code(3)
    dual = dual_code(code)
    simp = simplex_code(3)
    assert sorted(iterate_span(dual.generator.data)) == \
        sorted(iterate_span(simp.generator.data))


def test_dual_code_involution():
    code = reed_muller(3, 1)
    again = dual_code(dual_code(code))
    assert sorted(iterate_span(again.generator.data)) == \
        sorted(iterate_span(code.generator.data))


def test_reed_muller_rows_match_point_evaluation():
    # each row ANDs the rows of its monomial's coordinates; the oracle
    # evaluates the monomial at every point i, x_j being bit m - j of i
    from constrcodes.gf2 import _rm_monomials
    for m in range(9):
        n = 1 << m
        expected = [sum(1 << i for i in range(n)
                        if all((i >> (m - j)) & 1 for j in mono))
                    for mono in _rm_monomials(m, m)]
        for r in range(m + 1):
            rows = reed_muller(m, r).generator.data
            assert list(rows) == expected[:len(rows)], (m, r)


def test_reed_muller_dimension_and_duality():
    for m in (3, 4):
        for r in range(0, m):
            code = reed_muller(m, r)
            assert code.n == 1 << m
            assert code.k == sum(math.comb(m, i) for i in range(r + 1))
            if 0 <= m - r - 1 < m:
                dual = reed_muller(m, m - r - 1)
                assert sorted(iterate_span(dual_code(code).generator.data)) == \
                    sorted(iterate_span(dual.generator.data))


def enumerate_codewords(code):
    """All 2^k codewords as BitWord, starting with the all-zeros word."""
    return [BitWord(code.n, w) for w in iterate_span(code.generator.data)]


def test_enumerate_codewords_distinct_and_complete():
    code = hamming_code(3)
    words = enumerate_codewords(code)
    assert words[0].bits == 0
    assert len(words) == code.size()
    assert len({w.bits for w in words}) == code.size()
    assert all(code.contains(w) for w in words)


def test_zero_code():
    code = zero_code(5)
    assert (code.n, code.k) == (5, 0)
    assert list(iterate_span(code.generator.data)) == [0]


def test_generator_parity_orthogonality_enforced():
    with pytest.raises(ValueError):
        BinaryLinearCode(generator=BitMatrix([0b11], 2),
                         parity_check=BitMatrix([0b01], 2))


def test_coset_decomposition_partitions():
    outer = reed_muller(3, 2)
    inner = reed_muller(3, 1)
    dec = coset_decompose(outer, inner)
    assert len(dec.reps) == outer.size() // inner.size()
    seen = set()
    for rep in dec.reps:
        for w in iterate_span(inner.generator.data):
            seen.add(rep.bits ^ w)
    assert len(seen) == outer.size()


def test_coset_weight_enumerator_totals():
    outer = reed_muller(3, 2)
    inner = reed_muller(3, 1)
    dec = coset_decompose(outer, inner)
    for rep in dec.reps:
        cwe = coset_weight_enumerator(rep, inner)
        assert sum(cwe) == inner.size()


def test_save_load_roundtrip(tmp_path):
    code = hamming_code(3)
    for kind in ("generator", "parity"):
        path = tmp_path / ("code_%s.txt" % kind)
        save_code(code, path, kind=kind)
        loaded = load_code(path)
        assert (loaded.n, loaded.k) == (code.n, code.k)
        assert sorted(iterate_span(loaded.generator.data)) == \
            sorted(iterate_span(code.generator.data))


def test_load_code_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=3 k=2 kind=generator\n101\n2x1\n")
    with pytest.raises(CodeFormatError):
        load_code(path)
    path.write_text("not a header\n")
    with pytest.raises(CodeFormatError):
        load_code(path)


def test_load_code_ignores_comments(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# a comment\nn=3 k=1 kind=generator\n# another\n111\n")
    code = load_code(path)
    assert (code.n, code.k) == (3, 1)


def test_span_chunks_match_iterate_span():
    # as sets of words, k = 0 included; k > 14 gives several chunks
    rng = random.Random(5)
    for n, k in ((1, 0), (5, 0), (6, 3), (14, 14), (16, 15), (18, 17)):
        while True:
            rows = [rng.getrandbits(n) for _ in range(k)]
            if gf2_rank(rows) == k:
                break
        chunks = list(span_chunks(rows))
        assert all(len(c) <= 1 << 14 and c.dtype == np.int64 for c in chunks)
        words = np.concatenate(chunks).tolist()
        assert len(words) == 1 << k
        assert set(words) == set(iterate_span(rows)), (n, k)


def test_matrix_given_alone_is_echelonized_once(monkeypatch):
    # its one echelon form gives both its rank and the other matrix; the
    # built matrix has its rank checked, and a rank-deficient given matrix
    # is still refused
    from constrcodes import gf2
    calls = []
    original = gf2._echelonize

    def counted(rows):
        rows = list(rows)
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(gf2, "_echelonize", counted)
    for build in (lambda: reed_muller(5, 2), lambda: hamming_code(4)):
        calls.clear()
        code = build()
        given = [list(m.data) for m in (code.generator, code.parity_check)]
        assert sorted(calls) == sorted(given)
    rows = [0b0011, 0b0110, 0b0101]
    with pytest.raises(ValueError):
        BinaryLinearCode(generator=BitMatrix(rows, 4))
    with pytest.raises(ValueError):
        BinaryLinearCode(parity_check=BitMatrix(rows, 4))
