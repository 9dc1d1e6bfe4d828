"""GF(2) linear algebra: packed binary words, matrices, linear codes, cosets.

Convention used across the package: coordinate i (1-indexed) of a word is
bit i-1 of its integer representation.  The string form of a word lists
coordinate 1 first, so "10100" means x1=1, x3=1.  Lexicographic order on
words is lexicographic order on these strings.
"""

import numpy as np

from .errors import CapExceeded
from .spectral import _CHUNK

# most codewords, as a power of 2, that an enumeration here or in
# `counting` takes on
ENUMERATION_CAP = 26


def _lex_key(bits, n):
    """Sort key realizing lexicographic order (coordinate 1 most significant)."""
    return int(format(bits, "0%db" % n)[::-1], 2) if n else 0


class BitWord:
    """Fixed-length binary word backed by a Python integer."""

    __slots__ = ("n", "bits")

    def __init__(self, n, bits=0):
        if n < 0:
            raise ValueError("word length must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError("bits 0x%x do not fit in %d coordinates" % (bits, n))
        self.n = n
        self.bits = bits

    @classmethod
    def from_string(cls, s):
        """Parse a 0/1 string whose leftmost character is coordinate 1."""
        if set(s) - {"0", "1"}:
            raise ValueError("word string must consist of 0s and 1s: %r" % s)
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
        return cls(len(s), bits)

    def get(self, i):
        """Coordinate i (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError("coordinate %d out of range [1, %d]" % (i, self.n))
        return (self.bits >> (i - 1)) & 1

    def weight(self):
        return self.bits.bit_count()

    def __xor__(self, other):
        if self.n != other.n:
            raise ValueError("length mismatch: %d vs %d" % (self.n, other.n))
        return BitWord(self.n, self.bits ^ other.bits)

    def __eq__(self, other):
        return isinstance(other, BitWord) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __str__(self):
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __repr__(self):
        return "BitWord(%r)" % str(self)


class BitMatrix:
    """Matrix over GF(2); each row is a packed integer (bit j-1 = column j)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols):
        data = tuple(int(r) for r in data)
        for r in data:
            if r < 0 or r >> cols:
                raise ValueError("row 0x%x does not fit in %d columns" % (r, cols))
        self.data = data
        self.rows = len(data)
        self.cols = cols

    def row_words(self):
        return [BitWord(self.cols, r) for r in self.data]

    def __eq__(self, other):
        return (isinstance(other, BitMatrix) and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return "BitMatrix(%d x %d)" % (self.rows, self.cols)


def _echelonize(rows):
    """Reduced echelon basis with pivots at lowest set bits.

    Returns a dict pivot_bit -> basis vector; each pivot bit occurs in its
    own vector only.  The span is unchanged.
    """
    basis = {}
    for r in rows:
        r = int(r)
        for p, v in basis.items():
            if (r >> p) & 1:
                r ^= v
        if r:
            p = (r & -r).bit_length() - 1
            for q in list(basis):
                if (basis[q] >> p) & 1:
                    basis[q] ^= r
            basis[p] = r
    return basis


def _reduce(bits, basis):
    """Reduce a packed word against an echelon basis (lex-least coset member)."""
    for p, v in basis.items():
        if (bits >> p) & 1:
            bits ^= v
    return bits


def gf2_rank(m):
    """Rank over GF(2) of a BitMatrix (or iterable of packed rows)."""
    rows = m.data if isinstance(m, BitMatrix) else m
    return len(_echelonize(rows))


def _kernel_basis(basis, n):
    """Basis (packed ints) of the right kernel {x : r . x = 0 for all rows r}
    of rows with the echelon basis `basis` (`_echelonize`).  Each kernel
    vector has a free bit that no other one has, so they are independent."""
    pivots = sorted(basis)
    free = [j for j in range(n) if j not in basis]
    out = []
    for f in free:
        v = 1 << f
        for p in pivots:
            if (basis[p] >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def _rank_and_kernel(matrix, n):
    """The rank of a BitMatrix and a basis of its right kernel, as a
    BitMatrix, from one echelon form."""
    basis = _echelonize(matrix.data)
    return len(basis), BitMatrix(_kernel_basis(basis, n), n)


class BinaryLinearCode:
    """[n, k] binary linear code given by full-rank generator/parity-check pair."""

    __slots__ = ("n", "k", "generator", "parity_check", "label")

    def __init__(self, generator=None, parity_check=None, n=None, label=None):
        if generator is None and parity_check is None:
            raise ValueError("need a generator or a parity-check matrix")
        if n is None:
            n = generator.cols if generator is not None else parity_check.cols
        # the echelon form of a matrix given alone gives its rank and the
        # other matrix, its kernel
        gen_rank = check_rank = None
        if generator is None:
            check_rank, generator = _rank_and_kernel(parity_check, n)
        if parity_check is None:
            gen_rank, parity_check = _rank_and_kernel(generator, n)
        if generator.cols != n or parity_check.cols != n:
            raise ValueError("matrix widths disagree with blocklength")
        if gen_rank is None:
            gen_rank = gf2_rank(generator)
        if check_rank is None:
            check_rank = gf2_rank(parity_check)
        k = generator.rows
        if gen_rank != k:
            raise ValueError("generator matrix is rank deficient")
        if check_rank != parity_check.rows or parity_check.rows != n - k:
            raise ValueError("parity-check matrix must be full rank with n-k rows")
        for g in generator.data:
            for h in parity_check.data:
                if (g & h).bit_count() & 1:
                    raise ValueError("generator and parity-check rows not orthogonal")
        self.n = n
        self.k = k
        self.generator = generator
        self.parity_check = parity_check
        self.label = label

    def size(self):
        return 1 << self.k

    def contains(self, word):
        bits = word.bits if isinstance(word, BitWord) else int(word)
        return all(((bits & h).bit_count() & 1) == 0 for h in self.parity_check.data)

    def __repr__(self):
        return "BinaryLinearCode(n=%d, k=%d%s)" % (
            self.n, self.k, ", label=%r" % self.label if self.label else "")


def dual_code(c):
    """The dual code: generator and parity-check matrices swap roles."""
    return BinaryLinearCode(generator=c.parity_check, parity_check=c.generator, n=c.n)


def hamming_code(m):
    """[2^m - 1, 2^m - 1 - m] Hamming code; parity-check column i is the m-bit
    binary representation of i with the most significant bit in the first row."""
    if m < 2:
        raise ValueError("hamming_code requires m >= 2")
    n = (1 << m) - 1
    rows = []
    for j in range(1, m + 1):
        r = 0
        for i in range(1, n + 1):
            if (i >> (m - j)) & 1:
                r |= 1 << (i - 1)
        rows.append(r)
    return BinaryLinearCode(parity_check=BitMatrix(rows, n), n=n,
                            label="hamming(m=%d)" % m)


def simplex_code(m):
    """[2^m - 1, m] simplex code, generated by the Hamming parity-check matrix."""
    if m < 2:
        raise ValueError("simplex_code requires m >= 2")
    h = hamming_code(m)
    return BinaryLinearCode(generator=h.parity_check, parity_check=h.generator,
                            n=h.n, label="simplex(m=%d)" % m)


def _rm_monomials(m, r):
    """Variable subsets of size <= r, ordered by degree then lexicographically."""
    from itertools import combinations
    out = []
    for deg in range(r + 1):
        out.extend(combinations(range(1, m + 1), deg))
    return out


def reed_muller(m, r):
    """Reed-Muller code RM(m, r): evaluations of degree-<= r multilinear
    polynomials; coordinate i is the point B_m(i-1), x_1 most significant."""
    if not 0 <= r <= m:
        raise ValueError("reed_muller requires 0 <= r <= m")
    n = 1 << m
    ones = (1 << n) - 1
    # x_j at point i is bit b = m - j of i: the row of x_j repeats, every
    # 2^(b+1) points, 2^b zeros then 2^b ones
    coordinate = {}
    for j in range(1, m + 1):
        half = 1 << (m - j)
        pattern = ((1 << half) - 1) << half
        coordinate[j] = pattern * (ones // ((1 << 2 * half) - 1))
    rows = []
    for mono in _rm_monomials(m, r):
        row = ones
        for j in mono:
            row &= coordinate[j]
        rows.append(row)
    return BinaryLinearCode(generator=BitMatrix(rows, n), n=n,
                            label="rm(m=%d,r=%d)" % (m, r))


def zero_code(n):
    """The [n, 0] code containing only the all-zeros word."""
    ident = BitMatrix([1 << j for j in range(n)], n)
    return BinaryLinearCode(generator=BitMatrix([], n), parity_check=ident, n=n)


def iterate_span(rows):
    """Yield all packed words in the span of the given rows, Gray-code order,
    starting with 0."""
    word = 0
    yield word
    k = len(rows)
    for msg in range(1, 1 << k):
        # Gray code: bit flipped when incrementing msg-1 -> msg
        flip = (msg ^ (msg - 1)).bit_length() - 1
        word ^= rows[flip]
        yield word


def span_chunks(rows):
    """Yield the 2^k words of the span of k linearly independent packed
    rows, each below 2^63, as int64 arrays of at most _CHUNK words.  The
    first chunk is the span of the first c rows, c = min(k, 14), built by
    doubling: the span of rows[:i+1] is that of rows[:i] followed by the
    same words XOR rows[i].  Each further chunk is the first one XOR one
    word of the span of the remaining rows (`iterate_span` order)."""
    c = min(len(rows), _CHUNK.bit_length() - 1)
    base = np.zeros(1 << c, dtype=np.int64)
    for i, row in enumerate(rows[:c]):
        np.bitwise_xor(base[:1 << i], row, out=base[1 << i:2 << i])
    for offset in iterate_span(rows[c:]):
        yield base ^ offset


class CosetDecomposition:
    """Cosets of sub_code inside super_code, with canonical representatives."""

    __slots__ = ("super_code", "sub_code", "reps")

    def __init__(self, super_code, sub_code, reps):
        self.super_code = super_code
        self.sub_code = sub_code
        self.reps = reps


def coset_decompose(super_code, sub_code):
    """Decompose super_code into cosets of sub_code.

    Representatives are the lexicographically least member of each coset;
    the all-zeros coset comes first and the rest follow in lexicographic
    order of their representatives.
    """
    if super_code.n != sub_code.n:
        raise ValueError("blocklength mismatch")
    sub_basis = _echelonize(sub_code.generator.data)
    # containment check: every sub generator must lie in super's row space
    super_basis = _echelonize(super_code.generator.data)
    for g in sub_code.generator.data:
        if _reduce(g, super_basis):
            raise ValueError("sub_code is not contained in super_code")
    # complement basis: super generators reduced modulo the sub code
    residues = [_reduce(g, sub_basis) for g in super_code.generator.data]
    comp = list(_echelonize(residues).values())
    m_dim = super_code.k - sub_code.k
    if len(comp) != m_dim:
        raise AssertionError("complement dimension mismatch")
    if m_dim > ENUMERATION_CAP:
        raise CapExceeded("coset count 2^%d exceeds the cap of 2^%d"
                          % (m_dim, ENUMERATION_CAP))
    reps = sorted((_reduce(w, sub_basis) for w in iterate_span(comp)),
                  key=lambda b: _lex_key(b, super_code.n))
    if len(set(reps)) != 1 << m_dim:
        raise AssertionError("coset representatives collide")
    return CosetDecomposition(super_code, sub_code,
                              [BitWord(super_code.n, b) for b in reps])


def coset_weight_enumerator(rep, sub_code):
    """Weight enumerator (counts indexed 0..n) of the coset rep + sub_code."""
    if sub_code.k > ENUMERATION_CAP:
        raise CapExceeded("enumeration of 2^%d codewords exceeds the cap" % sub_code.k)
    r = rep.bits if isinstance(rep, BitWord) else int(rep)
    counts = [0] * (sub_code.n + 1)
    for w in iterate_span(sub_code.generator.data):
        counts[(w ^ r).bit_count()] += 1
    return counts


class CodeFormatError(ValueError):
    """Raised when a code file is malformed."""


def save_code(code, path, kind="generator"):
    """Write a code to a text file (see load_code for the format)."""
    if kind not in ("generator", "parity"):
        raise ValueError("kind must be 'generator' or 'parity'")
    mat = code.generator if kind == "generator" else code.parity_check
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n=%d k=%d kind=%s\n" % (code.n, code.k, kind))
        for w in mat.row_words():
            fh.write(str(w) + "\n")


def load_code(path):
    """Read a code from a text file.

    Format: first line `n=<int> k=<int> kind=generator|parity`, then the
    matrix rows as 0/1 strings of length n; `#`-prefixed lines are ignored.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    header = None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            try:
                fields = dict(p.split("=", 1) for p in parts)
                n = int(fields["n"])
                k = int(fields["k"])
                kind = fields["kind"]
            except (ValueError, KeyError) as exc:
                raise CodeFormatError("line %d: bad header %r" % (lineno, line)) from exc
            if kind not in ("generator", "parity"):
                raise CodeFormatError("line %d: kind must be generator|parity" % lineno)
            header = (n, k, kind)
            continue
        if set(line) - {"0", "1"}:
            raise CodeFormatError("line %d: row must be a 0/1 string" % lineno)
        n = header[0]
        if len(line) != n:
            raise CodeFormatError(
                "line %d: row length %d differs from declared n=%d"
                % (lineno, len(line), n))
        rows.append((lineno, BitWord.from_string(line).bits))
    if header is None:
        raise CodeFormatError("missing header line")
    n, k, kind = header
    expected = k if kind == "generator" else n - k
    if len(rows) != expected:
        raise CodeFormatError("expected %d rows, found %d" % (expected, len(rows)))
    data = [b for _, b in rows]
    if gf2_rank(data) != len(data):
        raise CodeFormatError("matrix is rank deficient (duplicate/dependent rows)")
    mat = BitMatrix(data, n)
    if kind == "generator":
        return BinaryLinearCode(generator=mat, n=n)
    return BinaryLinearCode(parity_check=mat, n=n)
