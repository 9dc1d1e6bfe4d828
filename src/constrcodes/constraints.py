"""Constraint families: membership, exact character sums, orbit structure.

For a constrained set A of length-n binary words, the character sum at s is

    F_A(s) = sum_{x in A} (-1)^{x . s},

an exact integer equal to 2^n times the Fourier coefficient of A's
indicator at s.  Each family is one subclass of `ConstraintSpec` that
defines its membership rule and F once, via a closed form or recurrence
written in expressions that take either one packed word as a Python int
(any length) or an int64 array of words (length up to ARRAY_CAP); the
cardinality |A| = F_A(0) follows, and brute-force enumeration is available
as an oracle for every family.  The shell sums of F_A, and for some
families the self-convolution of A, also come in closed form, with the
passes over all 2^n words as their fallback and oracle.
"""

import functools
import itertools
import math

import numpy as np

from .errors import CapExceeded
from .gf2 import BitWord
from .spectral import (_CHUNK, _check_conv_cap, _parity, _popcount,
                       krawtchouk_table, self_convolution_counts,
                       weight_class_sums, word_chunks)

# largest n of a pass over the 2^n words one by one (`member_ints`) or
# keyed into orbits (`orbit_structure`)
MEMBER_ENUM_CAP = 22
# largest n of the shell sums, and so of `fourier --n` and `weight-dist --n`
FULL_SPACE_CAP = 22
# largest n of int64 array input to `member` and `char_sum`: every word and
# every shift of it stays a nonnegative int64
ARRAY_CAP = 62


# ---------------------------------------------------------------------------
# membership


@functools.cache
def _even_bits(n):
    """The word with ones on the bits 0, 2, 4, ... below n."""
    return ((1 << 2 * ((n + 1) // 2)) - 1) // 3


def _weight(words):
    """The weight of a Python int, or of each word of an int64 array."""
    return _popcount(words) if isinstance(words, np.ndarray) else words.bit_count()


def _at_weight(table, words):
    """table[w(x)] for a list of Python ints `table`: the entry itself for
    a Python int x, an int64 array for an int64 array of words x."""
    if isinstance(words, np.ndarray):
        return np.array(table, dtype=np.int64)[_popcount(words)]
    return table[words.bit_count()]


def member_int(c, n, bits):
    """Membership test on a packed word (bit i-1 = coordinate i)."""
    c.check_length(n)
    if bits >> n:
        raise ValueError("word does not fit in n=%d coordinates" % n)
    return c.member(n, bits)


def member(c, x):
    """Membership test on a BitWord."""
    return member_int(c, x.n, x.bits)


def _word_array(c, n, words):
    """The packed words as an int64 array, after one length check and one
    range check of all entries."""
    c.check_length(n)
    if n > ARRAY_CAP:
        raise CapExceeded("array methods refuse n=%d > cap %d" % (n, ARRAY_CAP))
    words = np.asarray(words)
    if words.size and (words.dtype.kind not in "iu" or words.min() < 0
                       or words.max() >> n):
        raise ValueError("words must be integers in [0, 2^%d)" % n)
    return words.astype(np.int64, copy=False)


def member_array(c, n, words):
    """Membership of each packed word of an integer array, as a bool array."""
    return c.member(n, _word_array(c, n, words))


def member_ints(c, n):
    """Members of A as a list of packed ints (enumeration order)."""
    if n > MEMBER_ENUM_CAP:
        raise CapExceeded("member enumeration refuses n=%d > cap %d"
                          % (n, MEMBER_ENUM_CAP))
    c.check_length(n)
    return [x for x in range(1 << n) if member_int(c, n, x)]


# ---------------------------------------------------------------------------
# character sums


def two_charge_basis(n):
    """The spanning vectors of V_B: b_0 = 10^{n-1} and, for each pair of
    positions (2i, 2i+1), the double-one vector supported there."""
    if n < 3:
        raise ValueError("two_charge_basis requires n >= 3")
    basis = [1]
    for i in range(1, (n + 1) // 2):
        basis.append(0b11 << (2 * i - 1))
    return basis


def char_sum_int(c, n, s):
    """Dispatch the exact character sum F_A(s) on packed input."""
    c.check_length(n)
    if s >> n:
        raise ValueError("s does not fit in n=%d coordinates" % n)
    return c.char_sum(n, s)


def char_sum(c, s):
    """Exact character sum F_A(s) for a BitWord s."""
    return char_sum_int(c, s.n, s.bits)


def char_sum_array(c, n, words):
    """Exact F_A(s) for each packed word s of an integer array, as int64.
    |F_A(s)| <= |A| <= 2^n, and every family's intermediate values are
    character sums of shorter sets or partial products bounded the same
    way, so nothing overflows at n <= ARRAY_CAP.  The suffix recurrences
    run a byte at a time (`_byte_walk`), and every partial sum of a window
    update is at most 2^n in magnitude too (`_transfer_tables`)."""
    return c.char_sum(n, _word_array(c, n, words))


# bits of s per table lookup of a suffix recurrence: one byte, since both
# paths read the bytes of s (`int.to_bytes`, a uint8 view of the int64 array)
TABLE_BITS = 8


def _walk(step, window, value, width, m):
    """`window` after `width` one-bit steps of a suffix recurrence, the
    first making length m + 1, reading the bits of `value` top first."""
    for i in range(width - 1, -1, -1):
        m += 1
        window = step(window, (value >> i) & 1, m)
    return window


@functools.cache
def _byte_table(step, size, rows, parity):
    """Per byte value, the first `rows` rows of the integer matrix of
    TABLE_BITS steps on a window of `size` values, from a length of the
    given parity (its column j is the walk from the j-th unit window),
    row-major in a tuple; and the same entries as an int64 array, one row
    per matrix entry."""
    units = [tuple(int(i == j) for i in range(size)) for j in range(size)]
    table = []
    for value in range(1 << TABLE_BITS):
        columns = [_walk(step, unit, value, TABLE_BITS, parity)
                   for unit in units]
        table.append(tuple(columns[j][i]
                           for i in range(rows) for j in range(size)))
    return tuple(table), np.array(table, dtype=np.int64).T.copy()


def _transfer_tables(step, start, rows, lead, parity):
    """The tables of a suffix recurrence given by its one-bit step
    `step(window, bit, m)`, linear in the window, from the window `start`
    at length 0, for lengths n = lead (mod TABLE_BITS): per value of the
    leading `lead` bits, the first `rows` values of the window after them,
    as a tuple and as an int64 array with one row per window value; then
    `_byte_table`, whose `parity` is that of n for a step that reads the
    parity of m, and 0 for one that does not.

    A step writes the value at length l as a combination, with
    coefficients 0 or +-1, of window values of shorter lengths l' (the
    constant 1 counting as length 0), each a character sum at most
    2^{max(l', 0)} in magnitude, and these bounds weighted by the absolute
    coefficients sum to at most 2^l: 2^{l-1} + 2^{max(l-d-1, 0)} for `Rll`,
    2^{max(l-1, 0)} + [l even] + 2^{max(l-2, 0)} for `EvenStrict`.  So a
    table entry M_ij is a signed count of walks of at most TABLE_BITS
    steps, and sum_j |M_ij| 2^{l_j} <= 2^{l+TABLE_BITS} <= 2^n for a byte
    read from lengths l_j at length l: every partial sum of a window update
    is at most 2^n in magnitude."""
    table = tuple(_walk(step, start, value, lead, 0)[:rows]
                  for value in range(1 << lead))
    return ((table, np.array(table, dtype=np.int64).T.copy())
            + _byte_table(step, len(start), rows, parity))


def _byte_walk(tables, n, s):
    """A suffix recurrence on s a byte at a time, from its
    `_transfer_tables`: the window after the leading n mod TABLE_BITS bits
    of s, and an iterable of the matrices of the following bytes of s, top
    first, both read from the big-endian bytes of s.  A Python int s gives
    tuples of Python ints (so no numpy scalar reaches the int path); an
    int64 array, the table columns gathered at its words' bytes, every
    byte's matrix into one buffer (one allocation per call, not one per
    byte), so each must be used before the next is read."""
    lead, lead_array, table, table_array = tables
    full = n // TABLE_BITS
    if isinstance(s, np.ndarray):
        data = s[..., None].astype(">i8", order="C").view(np.uint8)
        data = np.moveaxis(data, -1, 0)[7 - full:]
        matrix = np.empty((len(table_array),) + s.shape, dtype=np.int64)
        # a byte indexes every table, so "clip" never clips; "raise" would
        # gather into a temporary and copy it to `matrix`
        return (np.take(lead_array, data[0], axis=1),
                (np.take(table_array, byte, axis=1, out=matrix, mode="clip")
                 for byte in data[1:]))
    data = s.to_bytes(full + 1, "big")
    return lead[data[0]], map(table.__getitem__, data[1:])


def cardinality(c, n):
    """|A| = F_A(0), exact."""
    return char_sum_int(c, n, 0)


def shell_sums(c, n):
    """W(j) = sum of F_A(s) over the words s of weight j, for j = 0..n, as
    Python ints: the family's closed form when it has one, otherwise one
    whole-space pass of `char_sum_array` (`weight_class_sums`), which the
    tests keep as the oracle of every closed form.  Refuses n >
    FULL_SPACE_CAP before the length is checked."""
    if n > FULL_SPACE_CAP:
        raise CapExceeded("full-space pass refuses n=%d > cap %d"
                          % (n, FULL_SPACE_CAP))
    c.check_length(n)
    sums = c.shell_sums(n)
    if sums is None:
        return weight_class_sums(lambda s: char_sum_array(c, n, s), n)
    return sums + [0] * (n + 1 - len(sums))


def self_convolution(c, n):
    """The self-convolution counts #{z in A : x ^ z in A} of A at length
    n, an int64 array over the packed words x: the family's closed form
    when it has one, otherwise `self_convolution_counts` of its membership
    array, which the tests keep as the oracle of every closed form."""
    _check_conv_cap(n)
    c.check_length(n)
    conv = c.self_convolution(n)
    if conv is not None:
        return conv
    words = np.arange(1 << n, dtype=np.int64)
    return self_convolution_counts(member_array(c, n, words), n)


# polynomials in y as lists of Python-int coefficients, constant term first


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, v in enumerate(b):
        out[j] += v
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


# ---------------------------------------------------------------------------
# orbit structure for symmetrized LPs

class OrbitStructure:
    """Orbits of a group of coordinate permutations acting on {0,1}^n that
    maps A onto itself.

    A group is a name, `group`, its number of permutations at length n,
    `order(constraint, n)`, and a canonical key, `_keys`: a nonnegative
    integer per word of an int64 array, equal exactly for the words of one
    orbit.  The orbits are numbered by ascending key, and three int64
    arrays describe them: `sizes[i]` and `reps[i]`, the size and the
    smallest word of orbit i, and `index[x]`, the orbit of each packed word
    x.  By default all three come from the keys of all 2^n words,
    `_key_table`, and their `np.bincount`; `_key_table` takes `_keys` one
    chunk of `word_chunks(n)` at a time.  A group that permutes blocks of
    coordinates and inside them (`_BlockOrbits`) is given by its block
    layout and per-weight key terms, from which its order, keys, `sizes`
    and `reps` follow in closed form; it builds `index` only on first use.

    The structure also keeps the self-convolution counts of its constraint
    at the representatives, `conv`, built on first read and checked to be
    constant on the orbits (a block group's counts are so by construction):
    the constrained Delsarte LP depends on A only through them, and its
    orbit form has the full LP's optimum exactly when they are.
    """

    __slots__ = ("constraint", "n", "sizes", "reps", "_index", "_conv")
    group = None

    def __init__(self, constraint, n):
        if n > MEMBER_ENUM_CAP:
            raise CapExceeded("%s orbit structure refuses n=%d > cap %d"
                              % (self.group, n, MEMBER_ENUM_CAP))
        self.constraint = constraint
        self.n = n
        self._index = None
        self._conv = None
        self._orbits()

    def _orbits(self):
        """Set `sizes`, `reps` and `index` from the keys of all words."""
        keys = self._key_table()
        counts = np.bincount(keys)
        present = counts > 0
        self.sizes = counts[present]
        self._index = index = (np.cumsum(present) - 1)[keys]
        # assigned in descending order, the smallest word of an orbit is
        # written last (numpy assigns a 1-d fancy index in index order;
        # test_orbit_structure_matches_generator_closure checks the reps);
        # one chunk at a time, so that no 2^n-word temporary is made
        self.reps = np.empty(len(self.sizes), dtype=np.int64)
        for stop in range(1 << self.n, 0, -_CHUNK):
            start = max(stop - _CHUNK, 0)
            self.reps[index[start:stop][::-1]] = np.arange(
                stop - 1, start - 1, -1, dtype=np.int64)

    @property
    def index(self):
        """The orbit of every packed word, an int64 array of 2^n entries."""
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def _build_index(self):
        raise NotImplementedError

    @property
    def conv(self):
        """The self-convolution counts at the representatives, an int64
        array in orbit order, constant on the orbits."""
        if self._conv is None:
            self._conv = self._build_conv()
        return self._conv

    def _build_conv(self):
        return self._checked_at_reps(self_convolution(self.constraint, self.n))

    def _checked_at_reps(self, conv):
        """`conv`, an int64 array over all 2^n words, at the
        representatives, after checking that it is constant on the orbits:
        one chunk of words at a time against its values there, so that no
        2^n-entry temporary is made."""
        index = self.index
        if len(conv) == len(index):
            at_reps = conv[self.reps]
            if all(np.array_equal(conv[lo:lo + _CHUNK],
                                  at_reps[index[lo:lo + _CHUNK]])
                   for lo in range(0, len(index), _CHUNK)):
                return at_reps
        raise AssertionError(
            "self-convolution counts of %s at n=%d are not constant on the "
            "orbits of the %s group" % (self.constraint, self.n, self.group))

    @staticmethod
    def order(constraint, n):
        """The number of permutations in the group at length n.  An orbit
        has at most that many words, so there are at least 2^n / order
        orbits."""
        raise NotImplementedError

    def _keys(self, words):
        raise NotImplementedError

    def _key_table(self):
        return np.concatenate([self._keys(words) for words in word_chunks(self.n)])

    def char_sums(self, columns):
        """int64 matrix of orbit character sums: entry (i, j) is the sum over
        the orbit `columns[j]` of (-1)^{x . s}, s = reps[i].  Exact, since
        each entry is at most 2^n in magnitude.  The sums are taken over the
        members of each orbit, one chunk of row representatives at a time,
        so that a block of signs holds at most max(_CHUNK, w) entries, w the
        number of words in the column orbits."""
        out = np.zeros((len(self.reps), len(columns)), dtype=np.int64)
        if not len(columns):
            return out
        column_of = np.full(len(self.sizes), -1, dtype=np.int64)
        column_of[columns] = np.arange(len(columns))
        word_column = column_of[self.index]
        words = np.nonzero(word_column >= 0)[0]
        words = words[np.argsort(word_column[words], kind="stable")]
        starts = np.searchsorted(word_column[words], np.arange(len(columns)))
        step = max(1, _CHUNK // len(words))
        for lo in range(0, len(self.reps), step):
            signs = 1 - 2 * _parity(self.reps[lo:lo + step, None] & words)
            out[lo:lo + step] = np.add.reduceat(signs, starts, axis=1)
        return out


class _BlockOrbits(OrbitStructure):
    """A group given by a layout of consecutive bit blocks, each with a
    class, `layout(constraint, n)`: it permutes the coordinates inside every
    block, and the blocks of one class (all of one width) among themselves.
    The orbit of a word is then its weight profile, the multiset of its
    block weights in each class, and the group is the layout plus
    `_key_weights()`, per class the key term of a block by its weight: the
    key of a word is the sum of its blocks' terms (`_keys`), and `_key_table`
    takes the same sums for all 2^n words by outer sums of per-block tables
    (`_block_outer`).  The order is prod_c k_c! (w_c!)^{k_c} over the classes
    c of k_c blocks of width w_c.  The orbits follow from the profiles
    without a pass over the words: an orbit of class multisets M_c has
    prod_c k_c! / prod_a mult_a(M_c)! * prod_{a in M_c} C(w_c, a) words,
    and its smallest word gives each class's highest block the smallest
    weight, each block value (1 << a) - 1.  The orbits are ordered by the
    keys of those words; `index` maps `_key_table` to orbits when first
    read.  `conv` is the product over the blocks of the family's entry for
    the block's class and weight (`self_convolution_weights`), read at the
    representatives, so no 2^n-entry array is made; a count that depends
    on each block's weight and class only is constant on the orbits."""

    __slots__ = ("_orbit_keys",)

    @staticmethod
    def layout(constraint, n):
        """(width, class) of each block, lowest bits first."""
        raise NotImplementedError

    def _key_weights(self):
        """Per class, the nonnegative key term of a block by its weight."""
        raise NotImplementedError

    @classmethod
    def order(cls, constraint, n):
        layout = cls.layout(constraint, n)
        classes = [c for _, c in layout]
        return math.prod(math.factorial(width) for width, _ in layout) * \
            math.prod(math.factorial(classes.count(c)) for c in set(classes))

    def _orbits(self):
        layout = self.layout(self.constraint, self.n)
        shifts = np.cumsum([0] + [width for width, _ in layout]).tolist()
        sizes, reps = [1], [0]
        for cls in dict.fromkeys(c for _, c in layout):
            blocks = [i for i, (_, c) in enumerate(layout) if c == cls]
            width, count = layout[blocks[0]][0], len(blocks)
            # the highest block first, taking the smallest weight
            high = [shifts[i] for i in reversed(blocks)]
            part_sizes, part_reps = [], []
            for weights in itertools.combinations_with_replacement(
                    range(width + 1), count):
                size = math.factorial(count)
                for a in set(weights):
                    size //= math.factorial(weights.count(a))
                for a in weights:
                    size *= math.comb(width, a)
                part_sizes.append(size)
                part_reps.append(sum(((1 << a) - 1) << shift
                                     for a, shift in zip(weights, high)))
            sizes = [u * v for u in sizes for v in part_sizes]
            reps = [u + v for u in reps for v in part_reps]
        reps = np.array(reps, dtype=np.int64)
        keys = self._keys(reps)
        order = np.argsort(keys)
        self.sizes = np.array(sizes, dtype=np.int64)[order]
        self.reps = reps[order]
        self._orbit_keys = keys[order]

    def _build_index(self):
        lookup = np.zeros(int(self._orbit_keys[-1]) + 1, dtype=np.int64)
        lookup[self._orbit_keys] = np.arange(len(self._orbit_keys))
        return lookup[self._key_table()]

    def _block_values(self, ufunc, weights, words):
        """ufunc-combined weights[c][w] over the blocks of each word of an
        int64 array, c the block's class and w its weight."""
        out, shift = None, 0
        for width, cls in self.layout(self.constraint, self.n):
            value = np.array(weights[cls], dtype=np.int64)[
                _popcount((words >> shift) & ((1 << width) - 1))]
            out = value if out is None else ufunc(out, value)
            shift += width
        return out

    def _keys(self, words):
        return self._block_values(np.add, self._key_weights(), words)

    def _key_table(self):
        return _block_outer(np.add, self.layout(self.constraint, self.n),
                            self._key_weights())

    def _build_conv(self):
        return self._block_values(
            np.multiply, self.constraint.self_convolution_weights(self.n),
            self.reps)


def _two_charge_pairs(n):
    """0-indexed low bits of the (2i, 2i+1) coordinate pairs."""
    last = n - 1 if n % 2 else n - 2
    return list(range(1, last, 2))


def _block_outer(ufunc, layout, weights):
    """The int64 array over the packed words x whose entry at x is
    ufunc-combined from weights[c][w] over the blocks of x, c the block's
    class and w its weight, the blocks consecutive runs of bits given by
    `layout` ((width, class) each, lowest first): outer operations on one
    table per block over its 2^width values, last block first, flattened."""
    out = None
    for width, cls in layout:
        table = np.array(weights[cls], dtype=np.int64)[
            _popcount(np.arange(1 << width, dtype=np.int64))]
        out = table if out is None else ufunc.outer(table, out).ravel()
    return out


class _TwoChargeOrbits(_BlockOrbits):
    """Permutations of the coordinate pairs (2i, 2i+1) and swaps inside a
    pair.  Key: the first bit, the numbers of 00 and 11 pairs, and for even
    n the last bit."""

    __slots__ = ()
    group = "pair-permutation"

    @staticmethod
    def layout(constraint, n):
        """The first bit, the pairs and, for even n, the last bit, each in
        a class of its own but the pairs."""
        return [(1, "first")] + [(2, "pair")] * len(_two_charge_pairs(n)) + \
            [(1, "last")] * (1 - n % 2)

    def _key_weights(self):
        """The digits of the key in base P + 1, P pairs: the first bit, the
        number of 00 pairs and of 11 pairs, all doubled for even n plus the
        last bit."""
        base = len(_two_charge_pairs(self.n)) + 1
        scale = 2 - self.n % 2
        return {"first": [0, scale * base ** 2], "pair": [scale * base, 0, scale],
                "last": [0, 1]}


class _SubblockOrbits(_BlockOrbits):
    """Permutations inside each subblock and of the subblocks.  The orbit
    of a word is the multiset of its subblock weights; the orbits come in
    descending order of the weights sorted in descending order."""

    __slots__ = ()
    group = "subblock"

    @staticmethod
    def layout(constraint, n):
        return [(n // constraint.p, "subblock")] * constraint.p

    def _key_weights(self):
        """The multiset of subblock weights as a number in base p + 1, whose
        digit w counts the subblocks of weight w, subtracted from its
        largest value so that heavier multisets come first: (p + 1)^{n/p}
        - (p + 1)^w for a subblock of weight w."""
        base, width = self.constraint.p + 1, self.n // self.constraint.p
        return {"subblock": [base ** width - base ** w for w in range(width + 1)]}

    def char_sums(self, columns):
        """Closed form: entry (i, j) is the sum, over the distinct orderings
        a of the subblock weights of orbit `columns[j]`, of the products
        over the subblocks l of K_{a_l}(w_l), w_l the weight of subblock l
        of reps[i]; that is, the coefficient of the orbit's weight multiset
        in the product over l of sum_a K_a(w_l) t_a.  The product is
        expanded one subblock at a time, its terms keyed by the sorted
        weights placed so far, keeping only the terms that divide a
        column's monomial, so the cost is polynomial in p and not the p!
        orderings.  Exact: K_a(w) is a sum of signs, one per weight-a word
        of a subblock, so a coefficient after l subblocks is a sum of
        signs, one per word on those subblocks with its weight multiset, at
        most 2^n in magnitude."""
        kraw = np.array(krawtchouk_table(self.n // self.constraint.p).table,
                        dtype=np.int64)
        weights = np.array([_popcount(block) for block in
                            self.constraint.blocks(self.n, self.reps)])
        keys = [tuple(sorted(key)) for key in weights[:, columns].T.tolist()]

        def smaller(multiset):
            """Each distinct weight a of a sorted multiset, with the
            multiset less one a."""
            return [(a, multiset[:i] + multiset[i + 1:])
                    for i, a in enumerate(multiset)
                    if not i or multiset[i - 1] != a]

        # the terms needed after p, p - 1, ..., 0 subblocks
        needed = [set(keys)]
        for _ in weights:
            needed.append({rest for multiset in needed[-1]
                           for _, rest in smaller(multiset)})
        terms = {(): np.ones(len(self.reps), dtype=np.int64)}
        for w, level in zip(weights, reversed(needed[:-1])):
            factor = kraw[:, w]
            terms = {multiset: sum(terms[rest] * factor[a]
                                   for a, rest in smaller(multiset))
                     for multiset in level}
        out = np.zeros((len(self.reps), len(columns)), dtype=np.int64)
        for j, key in enumerate(keys):
            out[:, j] = terms[key]
        return out


def _reverse(words, n):
    """Each n-bit word with its coordinates in reverse order (int64 array)."""
    out = np.zeros_like(words)
    for i in range(n):
        out |= ((words >> i) & 1) << (n - 1 - i)
    return out


class _ReversalOrbits(OrbitStructure):
    """Word reversal x_1 ... x_n -> x_n ... x_1.  Every orbit has one or two
    words; its key is the smaller of x and rev(x)."""

    __slots__ = ()
    group = "reversal"

    @staticmethod
    def order(constraint, n):
        return 2

    def _keys(self, words):
        return np.minimum(words, _reverse(words, self.n))


class _TrivialOrbits(OrbitStructure):
    """The trivial group: one orbit per word, keyed by the word."""

    __slots__ = ()
    group = "trivial"

    @staticmethod
    def order(constraint, n):
        return 1

    def _keys(self, words):
        return words


def orbit_structure(c, n, trivial=False):
    """The orbits of the constraint's symmetry group, or of the trivial
    group (one orbit per word) when `trivial` is set, as an
    `OrbitStructure`: the group's name and canonical key, and from the key
    the orbit sizes, smallest words and the orbit of every word."""
    c.check_length(n)
    return (_TrivialOrbits if trivial else c.orbits)(c, n)


def orbit_char_sum(structure, orbit, s_rep):
    """Oracle: the sum over the words x of orbit position `orbit` of
    (-1)^{x . s_rep}, exact, by brute force over the orbit's words."""
    s_bits = s_rep.bits if isinstance(s_rep, BitWord) else int(s_rep)
    return sum(-1 if (x & s_bits).bit_count() & 1 else 1
               for x in np.flatnonzero(structure.index == orbit).tolist())


# ---------------------------------------------------------------------------
# constraint families


class ConstraintSpec:
    """A constraint family plus its parameters; one subclass per family.

    A family class gives its grammar head `head` and parameter names
    `params` (the text form is `head` or `head:name=<int>,...`), validates
    the parameters in `__init__` and the blocklength in `check_length`, and
    defines once the membership rule `member(n, bits)` and the exact
    character sum `char_sum(n, s)`.  Their argument is a packed word that
    fits in n coordinates, either a Python int (any n), which gives a
    Python bool or int, or an int64 array of such words (n <= ARRAY_CAP),
    which gives a bool or int64 array: the same expressions serve both, over
    `_weight` and `_at_weight`, with no numpy scalar on the int path.
    `orbits` is the orbit-group class of a symmetry group of the set, and
    `auto_lp` the bound program `bound --lp auto` solves.

    Two whole-space objects may also have a closed form; a family without
    one returns None and the generic pass over all 2^n words is used.
    `shell_sums(n)` is the generating polynomial sum_s F_A(s) y^{w(s)} as
    its coefficient list (see the module function `shell_sums`), and
    `self_convolution(n)` the int64 array of the counts
    #{z in A : x ^ z in A} over the packed words x
    (see the module function `self_convolution`).  A family whose orbit
    group permutes blocks (`_BlockOrbits`) gives those counts as
    `self_convolution_weights(n)`, per class of the group's layout a list
    of each block's factor by its weight: the count at x is the product of
    its blocks' factors, which `self_convolution` expands through the
    layout (`_block_outer`) and the orbit structure reads at the
    representatives only (`OrbitStructure.conv`).
    """

    head = None
    params = ()
    p = z = d = i = None  # the parameters, set by the families that take them
    orbits = None
    auto_lp = "del"

    def check_length(self, n):
        if n < 1:
            raise ValueError("blocklength must be positive")

    def member(self, n, bits):
        raise NotImplementedError

    def char_sum(self, n, s):
        raise NotImplementedError

    def shell_sums(self, n):
        return None

    def self_convolution(self, n):
        weights = self.self_convolution_weights(n)
        if weights is None:
            return None
        return _block_outer(np.multiply, self.orbits.layout(self, n), weights)

    def self_convolution_weights(self, n):
        return None

    def __str__(self):
        if not self.params:
            return self.head
        return "%s:%s" % (self.head, ",".join(
            "%s=%d" % (name, getattr(self, name)) for name in self.params))

    def __repr__(self):
        return "ConstraintSpec(%r)" % str(self)

    def __eq__(self, other):
        return isinstance(other, ConstraintSpec) and str(self) == str(other)

    def __hash__(self):
        return hash(str(self))


class TwoCharge(ConstraintSpec):
    """The 2-charge set: running sums of (-1)^{x_i} stay within [0, 2]."""

    head = "2charge"
    orbits = _TwoChargeOrbits
    auto_lp = "del-sym"

    def member(self, n, bits):
        """x_1 = 0 and each pair (2i, 2i+1) holds exactly one 1: the running
        sum is 1 after x_1 and after each such pair, a 00 or 11 pair takes
        it out of [0, 2], and the last coordinate of even n to 0 or 2.  The
        pairs are the bit pairs of rest = bits >> 1 from bit 0, below n - 2."""
        pairs = _even_bits(n - 2)
        rest = bits >> 1
        return ((bits & 1) == 0) & (((rest ^ (rest >> 1)) & pairs) == pairs)

    def char_sum(self, n, s):
        """0 outside span(B) (see `two_charge_basis`), otherwise
        (+-) 2^{floor(n/2)} with sign (-1)^{number of double-one pairs in
        s}.  With rest = s >> 1, s is in span(B) when the low and high bits
        of every pair of rest agree (for even n the last bit of s is paired
        with a zero bit past the word, so it must be zero); the double-one
        pairs are then the set low bits of rest."""
        even = _even_bits(n)
        low = (s >> 1) & even
        spanned = low == ((s >> 2) & even)
        return spanned * (1 - 2 * (_weight(low) & 1)) << (n // 2)

    def shell_sums(self, n):
        """2^{floor(n/2)} (1 + y) (1 - y^2)^{ceil(n/2) - 1}: the first bit of
        s is free, and each pair is 00, or 11 with sign -1."""
        mag = 1 << (n // 2)
        return _poly_mul([mag, mag], _poly_pow([1, 0, -1], (n + 1) // 2 - 1))

    def self_convolution_weights(self, n):
        """[x_1 = 0] times 2 [pair of weight 0 or 2] for each pair of x,
        times 2 for even n.  The members start with 0, take 01 or 10 on
        each pair and any last bit for even n, so x ^ z has first bit 0,
        each pair 00 or 11 in two ways and the last bit in two ways.  The
        counts are at most |A| <= 2^n."""
        return {"first": [1, 0], "pair": [2, 0, 2], "last": [2, 2]}


class Subblock(ConstraintSpec):
    """Each of the p subblocks of length n/p has weight z."""

    head = "subblock"
    params = ("p", "z")
    orbits = _SubblockOrbits
    auto_lp = "del-sym"

    def __init__(self, p=None, z=None):
        if p is None or z is None or p < 1 or z < 0:
            raise ValueError("subblock needs p >= 1 and z >= 0")
        self.p = p
        self.z = z

    def check_length(self, n):
        ConstraintSpec.check_length(self, n)
        if n % self.p:
            raise ValueError("subblock requires p | n (p=%d, n=%d)" % (self.p, n))
        if self.z > n // self.p:
            raise ValueError("subblock weight z=%d exceeds subblock length %d"
                             % (self.z, n // self.p))

    def blocks(self, n, bits):
        """The p subblocks of a packed word, or of each word of an int64
        array, first subblock first."""
        width = n // self.p
        mask = (1 << width) - 1
        out = []
        for shift in range(0, n, width):
            out.append((bits >> shift) & mask)
        return out

    def member(self, n, bits):
        ok = True
        for block in self.blocks(n, bits):
            ok = ok & (_weight(block) == self.z)
        return ok

    def char_sum(self, n, s):
        """Product over subblocks of K_z^{(n/p)}(weight of s's subblock);
        every partial product is at most C(n/p, z)^p = |A| in magnitude."""
        row = krawtchouk_table(n // self.p).table[self.z]
        out = 1
        for block in self.blocks(n, s):
            out = out * _at_weight(row, block)
        return out

    def shell_sums(self, n):
        """(sum_w C(n/p, w) K_z^{(n/p)}(w) y^w)^p: F_A is a product of one
        factor per subblock."""
        width = n // self.p
        row = krawtchouk_table(width).table[self.z]
        return _poly_pow([math.comb(width, w) * row[w] for w in range(width + 1)],
                         self.p)

    def self_convolution_weights(self, n):
        """The product over the subblocks x_b of x of c(w(x_b)), where
        c(w) = [w even] C(w, w/2) C(n/p - w, z - w/2) counts the weight-z
        words z_b with x_b ^ z_b of weight z too: those that meet x_b in
        w/2 coordinates.  Every product is at most |A| = C(n/p, z)^p <=
        2^n, so int64 is exact."""
        width = n // self.p
        return {"subblock": [
            math.comb(w, w // 2) * math.comb(width - w, self.z - w // 2)
            if w % 2 == 0 and w // 2 <= self.z else 0
            for w in range(width + 1)]}


def _rll_step(window, bit, m):
    """One coordinate of `Rll.char_sum`'s recurrence on the window of the
    last d + 1 values, F^(m-d-1) .. F^(m-1)."""
    return window[1:] + (window[-1] + (1 - 2 * bit) * window[0],)


@functools.cache
def _rll_tables(d, lead):
    """`_transfer_tables` of `_rll_step` for d = 1, 2 and n = lead (mod
    TABLE_BITS), from the window of ones."""
    return _transfer_tables(_rll_step, (1,) * (d + 1), d + 1, lead, 0)


class Rll(ConstraintSpec):
    """The (d, infinity)-RLL set: any two ones are at least d + 1 apart."""

    head = "rll"
    params = ("d",)
    orbits = _ReversalOrbits

    def __init__(self, d=None):
        if d is None or d < 1:
            raise ValueError("rll needs d >= 1")
        self.d = d

    def member(self, n, bits):
        """No one lies on any of the d coordinates above another."""
        near = bits >> 1
        for j in range(2, min(self.d, n - 1) + 1):
            near = near | bits >> j
        return (bits & near) == 0

    def char_sum(self, n, s):
        """The suffix recurrence

            F^(m)(t) = F^(m-1)(t >> 1) + (-1)^{t & 1} F^(m-d-1)(t >> (d+1))

        over the length-m suffixes t of s (its top m coordinates), m = 1..n,
        with F^(m) = 1 for m <= 0: a member of length m is 0 and a member of
        length m - 1, or 1, then d zeros (as many as fit) and a member of
        length m - d - 1.  The coordinate read at length m is bit n - m of
        s; |F^(m)| <= 2^m.

        For d <= 2 the recurrence runs a byte at a time on the window of
        the last d + 1 values (`_byte_walk` of `_rll_step`); for larger d,
        where a window update costs more than the bits it replaces, a bit
        at a time."""
        d = self.d
        if d == 1:
            (a, b), matrices = _byte_walk(_rll_tables(1, n % TABLE_BITS), n, s)
            for m00, m01, m10, m11 in matrices:
                a, b = m00 * a + m01 * b, m10 * a + m11 * b
            return b
        if d == 2:
            (a, b, c), matrices = _byte_walk(_rll_tables(2, n % TABLE_BITS),
                                             n, s)
            for m00, m01, m02, m10, m11, m12, m20, m21, m22 in matrices:
                a, b, c = (m00 * a + m01 * b + m02 * c,
                           m10 * a + m11 * b + m12 * c,
                           m20 * a + m21 * b + m22 * c)
            return c
        back = -d - 1
        vals = [1] * (d + 1)
        for i in range(n - 1, -1, -1):
            vals.append(vals[-1] + (1 - 2 * ((s >> i) & 1)) * vals[back])
        return vals[-1]

    def shell_sums(self, n):
        """The recurrence of `char_sum` summed over the suffixes t of each
        length m with weight y^{w(t)}: G_m = sum_w C(m, w) (1 + m - 2w) y^w
        for m <= d + 1, then

            G_m = (1 + y) G_{m-1} + (1 - y) (1 + y)^d G_{m-d-1},

        the d coordinates skipped by the second term being free."""
        d = self.d
        polys = [[math.comb(m, w) * (1 + m - 2 * w) for w in range(m + 1)]
                 for m in range(min(n, d + 1) + 1)]
        skip = _poly_mul([1, -1], _poly_pow([1, 1], d))
        for m in range(d + 2, n + 1):
            polys.append(_poly_add(_poly_mul([1, 1], polys[m - 1]),
                                   _poly_mul(skip, polys[m - d - 1])))
        return polys[n]


class OddStrict(ConstraintSpec):
    """Every run of zeros, the leading and trailing runs included, has odd
    length; the all-zeros word is a member by convention."""

    head = "odd-strict"
    orbits = _ReversalOrbits

    @staticmethod
    def support(n):
        """The members form a subspace: for odd n the words supported on
        the coordinates 2, 4, ..., n - 1 (bits 1, 3, ..., n - 2), which is
        this word; for even n only the all-zeros word, by the convention."""
        return _even_bits(n - 1) << 1 if n % 2 else 0

    def member(self, n, bits):
        return (bits & ~self.support(n)) == 0

    def char_sum(self, n, s):
        """|A| = 2^{floor(n/2)} (odd n) or 1 (even n) when s is orthogonal
        to the subspace A, else 0."""
        support = self.support(n)
        return ((s & support) == 0) << support.bit_count()

    def shell_sums(self, n):
        """2^{floor(n/2)} (1 + y)^{ceil(n/2)} for odd n, (1 + y)^n for even n."""
        if n % 2 == 0:
            return _poly_pow([1, 1], n)
        return [v << (n // 2) for v in _poly_pow([1, 1], (n + 1) // 2)]


class OddRelaxed(ConstraintSpec):
    """Every internal run of zeros has odd length (even n only); the
    all-zeros word is a member by convention."""

    head = "odd"
    orbits = _ReversalOrbits

    def check_length(self, n):
        ConstraintSpec.check_length(self, n)
        if n % 2:
            raise ValueError("the relaxed odd constraint is only supported for even n")

    def member(self, n, bits):
        """All ones lie on coordinates of one parity: two consecutive ones
        are then an even distance apart, an odd run of zeros between them."""
        even = _even_bits(n)
        return ((bits & even) == 0) | ((bits & even << 1) == 0)

    def char_sum(self, n, s):
        """2^{n/2+1}-1 at s = 0, 2^{n/2}-1 when s is itself a nonzero
        member, and -1 otherwise."""
        half = n // 2
        return (self.member(n, s) << half) + ((s == 0) << half) - 1


def _even_strict_step(window, bit, m):
    """One coordinate of `EvenStrict.char_sum`'s recurrence on the window
    (F^(m-2), F^(m-1), 1)."""
    prev2, prev1, one = window
    return prev1, (1 - 2 * bit) * (prev1 - (1 - m % 2) * one) + prev2, one


@functools.cache
def _even_strict_tables(lead):
    """`_transfer_tables` of `_even_strict_step` for n = lead (mod
    TABLE_BITS), from (1, 1, 1), the byte tables of the parity of n."""
    return _transfer_tables(_even_strict_step, (1, 1, 1), 2, lead, lead % 2)


class EvenStrict(ConstraintSpec):
    """Every run of zeros, the leading and trailing runs included, has even
    length; the all-zeros word is a member by convention."""

    head = "even-strict"
    orbits = _ReversalOrbits

    def member(self, n, bits):
        """With a one put below the first coordinate (bit 0 of `marked`),
        every run of zeros has even length exactly when each one of
        `marked`, at bit q, has n - q ones above it, mod 2: consecutive
        ones are then an odd distance apart, and the top one has an even
        number n - q of zeros above it.  The parities of the ones above
        every bit come from log2(n) shifted xors."""
        marked = bits << 1 | 1
        above = marked >> 1
        shift = 1
        while shift < n:
            above ^= above >> shift
            shift <<= 1
        odd_distance = _even_bits(n + 1) if n % 2 else _even_bits(n) << 1
        return (((above ^ odd_distance) & marked) == 0) | (bits == 0)

    def char_sum(self, n, s):
        """The suffix recurrence

            F^(m)(t) = (-1)^{t & 1} (F^(m-1)(t >> 1) - [m even]) + F^(m-2)(t >> 2)

        over the length-m suffixes t of s (its top m coordinates), m = 1..n,
        from F^(-1) = F^(0) = 1; |F^(m)| <= 2^m.  It runs a byte at a time
        on the window (F^(m-1), F^(m), 1) (`_byte_walk` of
        `_even_strict_step`)."""
        (a, b), matrices = _byte_walk(_even_strict_tables(n % TABLE_BITS),
                                      n, s)
        for m00, m01, m02, m10, m11, m12 in matrices:
            a, b = m00 * a + m01 * b + m02, m10 * a + m11 * b + m12
        return b

    def shell_sums(self, n):
        """The recurrence of `char_sum` summed over the suffixes t of each
        length m with weight y^{w(t)}: G_0 = 1, G_1 = 2, G_2 = 2 + 2y^2, then

            G_m = (1 - y) G_{m-1} + (1 + y)^2 G_{m-2}
                  - [m even] (1 - y) (1 + y)^{m-1}."""
        polys = [[1], [2], [2, 0, 2]]
        for m in range(3, n + 1):
            poly = _poly_add(_poly_mul([1, -1], polys[m - 1]),
                             _poly_mul([1, 2, 1], polys[m - 2]))
            if m % 2 == 0:
                poly = _poly_add(poly, _poly_mul([-1, 1], _poly_pow([1, 1], m - 1)))
            polys.append(poly)
        return polys[n]


class FixedWeight(ConstraintSpec):
    """The weight-i sphere."""

    head = "weight"
    params = ("i",)
    orbits = _ReversalOrbits

    def __init__(self, i=None):
        if i is None or i < 0:
            raise ValueError("fixed_weight needs i >= 0")
        self.i = i

    def check_length(self, n):
        ConstraintSpec.check_length(self, n)
        if self.i > n:
            raise ValueError("fixed weight i=%d exceeds blocklength %d" % (self.i, n))

    def member(self, n, bits):
        return _weight(bits) == self.i

    def char_sum(self, n, s):
        """K_i^{(n)}(w(s)); |K_i(j)| <= C(n, i)."""
        return _at_weight(krawtchouk_table(n).table[self.i], s)

    def shell_sums(self, n):
        """W(j) = C(n, j) K_i(j): the one-subblock case of `Subblock`."""
        return Subblock(1, self.i).shell_sums(n)

    def self_convolution(self, n):
        """C(j, j/2) C(n - j, i - j/2) at words of even weight j, else 0: the
        one-subblock case of `Subblock`."""
        return Subblock(1, self.i).self_convolution(n)


# grammar head -> family class
FAMILIES = {cls.head: cls for cls in (TwoCharge, Subblock, Rll, OddStrict,
                                      OddRelaxed, EvenStrict, FixedWeight)}


def two_charge():
    return TwoCharge()


def subblock(p, z):
    return Subblock(p, z)


def rll(d):
    return Rll(d)


def odd_strict():
    return OddStrict()


def odd_relaxed():
    return OddRelaxed()


def even_strict():
    return EvenStrict()


def fixed_weight(i):
    return FixedWeight(i)


def parse_params(text, what):
    """The head and the {name: int} parameters of `head:name=<int>,...`,
    the grammar of constraints and codes; `what` names it in the errors."""
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or not val:
                raise ValueError("bad %s parameter %r in %r" % (what, item, text))
            try:
                params[key] = int(val)
            except ValueError as exc:
                raise ValueError("non-integer parameter %r in %r" % (item, text)) from exc
    return head, params


def parse_constraint(text):
    """Parse the CLI grammar: `2charge`, `subblock:p=<int>,z=<int>`,
    `rll:d=<int>`, `odd-strict`, `odd`, `even-strict`, `weight:i=<int>`."""
    head, params = parse_params(text, "constraint")
    family = FAMILIES.get(head)
    if family is None:
        raise ValueError("unknown constraint %r" % text)
    try:
        return family(**params)
    except TypeError as exc:
        raise ValueError("bad parameters for constraint %r" % text) from exc
