"""Constraint families: membership, exact character sums, orbit structure.

For a constrained set A of length-n binary words, the character sum at s is

    F_A(s) = sum_{x in A} (-1)^{x . s},

an exact integer equal to 2^n times the Fourier coefficient of A's
indicator at s.  Each family is one subclass of `ConstraintSpec` that
defines its membership rule and F via a closed form or recurrence, on one
packed word and, vectorized, on an int64 array of words; the cardinality
|A| = F_A(0) follows, and brute-force enumeration is available as an oracle
for every family.
"""

import itertools
import math

import numpy as np

from .errors import CapExceeded
from .gf2 import BitWord
from .spectral import (_CHUNK, _parity, _popcount, krawtchouk,
                       krawtchouk_table, word_chunks)

MEMBER_ENUM_CAP = 22
# largest n of the array methods: every word and every shift of it stays a
# nonnegative int64
ARRAY_CAP = 62


# ---------------------------------------------------------------------------
# membership


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


def _zero_runs_array(n, words, odd_runs, ends):
    """Whether every internal run of zeros of each word of an int64 array,
    and the leading and trailing runs too when `ends`, has odd length (if
    `odd_runs`) or even length; the all-zeros word passes.  One scan over
    the coordinates keeps the parity of the current run."""
    odd = np.zeros(words.shape, dtype=bool)  # the current run's parity
    seen = np.zeros(words.shape, dtype=bool)  # a one has been read
    ok = np.ones(words.shape, dtype=bool)
    for i in range(n):
        one = ((words >> i) & 1).astype(bool)
        closed = one if ends else one & seen
        ok &= ~closed | (odd == odd_runs)
        seen |= one
        odd = ~one & ~odd
    if ends:
        ok &= odd == odd_runs
    return ok | (words == 0)


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
    return c.member_array(n, _word_array(c, n, words))


def enumerate_members(c, n, cap=MEMBER_ENUM_CAP):
    """Yield the members of A as BitWord, in lexicographic order."""
    if n > cap:
        raise CapExceeded("member enumeration refuses n=%d > cap %d" % (n, cap))
    c.check_length(n)
    fmt = "0%db" % n
    for m in range(1 << n):
        bits = int(format(m, fmt)[::-1], 2)
        if member_int(c, n, bits):
            yield BitWord(n, bits)


def member_ints(c, n, cap=MEMBER_ENUM_CAP):
    """Members of A as a list of packed ints (enumeration order)."""
    if n > cap:
        raise CapExceeded("member enumeration refuses n=%d > cap %d" % (n, cap))
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


def char_sum_brute(c, n, s, cap=MEMBER_ENUM_CAP):
    """Oracle: direct sum over enumerated members."""
    return sum(-1 if (x & s).bit_count() & 1 else 1 for x in member_ints(c, n, cap))


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
    way, so nothing overflows at n <= ARRAY_CAP."""
    return c.char_sum_array(n, _word_array(c, n, words))


def cardinality(c, n):
    """|A| = F_A(0), exact."""
    return char_sum_int(c, n, 0)


def _bit_signs(words, i):
    """(-1)^{bit i} of each word of a nonnegative int64 array, as a new
    int64 array.  The recurrences update it in place, so that a step of a
    whole-space pass allocates one array and not one per operation."""
    signs = words >> i
    signs &= 1
    signs *= -2
    signs += 1
    return signs


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
    x.  All three come from one pass: the keys of every word, taken one
    chunk of `word_chunks(n)` at a time, and their `np.bincount`.
    """

    __slots__ = ("constraint", "n", "sizes", "reps", "index")
    group = None

    def __init__(self, constraint, n):
        if n > MEMBER_ENUM_CAP:
            raise CapExceeded("%s orbit structure refuses n=%d > cap %d"
                              % (self.group, n, MEMBER_ENUM_CAP))
        self.constraint = constraint
        self.n = n
        keys = np.concatenate([self._keys(words) for words in word_chunks(n)])
        counts = np.bincount(keys)
        present = counts > 0
        self.sizes = counts[present]
        self.index = (np.cumsum(present) - 1)[keys]
        self.reps = np.full(len(self.sizes), 1 << n, dtype=np.int64)
        np.minimum.at(self.reps, self.index, np.arange(1 << n, dtype=np.int64))

    @staticmethod
    def order(constraint, n):
        """The number of permutations in the group at length n.  An orbit
        has at most that many words, so there are at least 2^n / order
        orbits."""
        raise NotImplementedError

    def _keys(self, words):
        raise NotImplementedError

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


def _two_charge_pairs(n):
    """0-indexed low bits of the (2i, 2i+1) coordinate pairs."""
    last = n - 1 if n % 2 else n - 2
    return list(range(1, last, 2))


class _TwoChargeOrbits(OrbitStructure):
    """Permutations of the coordinate pairs (2i, 2i+1) and swaps inside a
    pair.  Key: the first bit, the numbers of 00 and 11 pairs, and for even
    n the last bit."""

    __slots__ = ()
    group = "pair-permutation"

    @staticmethod
    def order(constraint, n):
        pairs = len(_two_charge_pairs(n))
        return math.factorial(pairs) << pairs

    def _keys(self, words):
        pairs = _two_charge_pairs(self.n)
        t00 = np.zeros_like(words)
        t11 = np.zeros_like(words)
        for low in pairs:
            pair = (words >> low) & 0b11
            t00 += pair == 0
            t11 += pair == 0b11
        keys = ((words & 1) * (len(pairs) + 1) + t00) * (len(pairs) + 1) + t11
        if self.n % 2 == 0:
            keys = 2 * keys + ((words >> (self.n - 1)) & 1)
        return keys


class _SubblockOrbits(OrbitStructure):
    """Permutations inside each subblock and of the subblocks.  The orbit
    of a word is the multiset of its subblock weights; the orbits come in
    descending order of the weights sorted in descending order."""

    __slots__ = ()
    group = "subblock"

    @staticmethod
    def order(constraint, n):
        p = constraint.p
        return math.factorial(p) * math.factorial(n // p) ** p

    def _keys(self, words):
        # the multiset of subblock weights as a number in base p + 1, whose
        # digit w counts the subblocks of weight w, subtracted from its
        # largest value so that heavier multisets come first
        p = self.constraint.p
        powers = (p + 1) ** np.arange(self.n // p + 1, dtype=np.int64)
        keys = np.full_like(words, p * powers[-1])
        for block in self.constraint.blocks(self.n, words):
            keys -= powers[_popcount(block)]
        return keys

    def char_sums(self, columns):
        """Closed form: entry (i, j) is the sum, over the distinct orderings
        a of the subblock weights of orbit `columns[j]`, of the products
        over the subblocks l of K_{a_l}(w_l), w_l the weight of subblock l
        of reps[i].  Exact: |K_a(w)| <= C(n/p, a), so no product exceeds the
        orbit's size."""
        kraw = np.array(krawtchouk_table(self.n // self.constraint.p).table,
                        dtype=np.int64)
        weights = np.array([_popcount(block) for block in
                            self.constraint.blocks(self.n, self.reps)])
        out = np.zeros((len(self.reps), len(columns)), dtype=np.int64)
        for j, orbit in enumerate(columns):
            for order in set(itertools.permutations(weights[:, orbit].tolist())):
                out[:, j] += kraw[np.array(order)[:, None], weights].prod(axis=0)
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
    defines on packed words that fit in n coordinates the membership rule
    `member` and the exact character sum `char_sum`, and their vectorized
    forms over an int64 array of such words, `member_array` (bool) and
    `char_sum_array` (int64).  `orbits` is the
    orbit-group class of a symmetry group of the set, and `auto_lp` the
    bound program `bound --lp auto` solves.
    """

    kind = None  # family tag
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

    def member_array(self, n, words):
        raise NotImplementedError

    def char_sum_array(self, n, s):
        raise NotImplementedError

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

    kind = "two_charge"
    head = "2charge"
    orbits = _TwoChargeOrbits
    auto_lp = "del-sym"

    def member(self, n, bits):
        total = 0
        for i in range(n):
            total += 1 - 2 * ((bits >> i) & 1)
            if not 0 <= total <= 2:
                return False
        return True

    def char_sum(self, n, s):
        """0 outside span(B) (see `two_charge_basis`), otherwise
        (+-) 2^{floor(n/2)} with sign (-1)^{number of double-one pairs in s}."""
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
            # coordinates beyond the last pair (even n) must be zero
            return 0
        mag = 1 << (n // 2)
        return -mag if neg_pairs else mag

    def member_array(self, n, words):
        charge = np.zeros_like(words)
        ok = np.ones(words.shape, dtype=bool)
        for i in range(n):
            charge += 1 - 2 * ((words >> i) & 1)
            ok &= (charge >= 0) & (charge <= 2)
        return ok

    def char_sum_array(self, n, s):
        """`char_sum` by masks: with rest = s >> 1, s is in span(B) when the
        low and high bits of every pair of rest agree (for even n the last
        bit of s is paired with a zero bit past the word, so it must be
        zero); the double-one pairs are then the set low bits of rest."""
        rest = s >> 1
        low = rest & 0x5555555555555555
        spanned = low == ((rest >> 1) & 0x5555555555555555)
        return np.where(spanned, 1 - 2 * _parity(low), 0) << (n // 2)


class Subblock(ConstraintSpec):
    """Each of the p subblocks of length n/p has weight z."""

    kind = "subblock"
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
        return all(block.bit_count() == self.z for block in self.blocks(n, bits))

    def char_sum(self, n, s):
        """Product over subblocks of K_z^{(n/p)}(weight of s's subblock)."""
        width = n // self.p
        out = 1
        for block in self.blocks(n, s):
            out *= krawtchouk(width, self.z, block.bit_count())
            if not out:
                return 0
        return out

    def member_array(self, n, words):
        ok = np.ones(words.shape, dtype=bool)
        for block in self.blocks(n, words):
            ok &= _popcount(block) == self.z
        return ok

    def char_sum_array(self, n, s):
        """A Krawtchouk-row lookup on each subblock weight; every partial
        product is at most C(n/p, z)^p = |A| in magnitude."""
        row = np.array(krawtchouk_table(n // self.p).table[self.z], dtype=np.int64)
        out = np.ones_like(s)
        for block in self.blocks(n, s):
            out *= row[_popcount(block)]
        return out


class Rll(ConstraintSpec):
    """The (d, infinity)-RLL set: any two ones are at least d + 1 apart."""

    kind = "rll"
    head = "rll"
    params = ("d",)
    orbits = _ReversalOrbits

    def __init__(self, d=None):
        if d is None or d < 1:
            raise ValueError("rll needs d >= 1")
        self.d = d

    def member(self, n, bits):
        last = -self.d - 1
        while bits:
            low = bits & -bits
            position = low.bit_length() - 1
            if position - last <= self.d:
                return False
            last = position
            bits ^= low
        return True

    def member_array(self, n, words):
        ok = np.ones(words.shape, dtype=bool)
        for j in range(1, min(self.d, n - 1) + 1):
            ok &= (words & (words >> j)) == 0
        return ok

    def char_sum(self, n, s):
        """The suffix recurrence

            F^(m)(t) = F^(m-1)(t >> 1) + (-1)^{t & 1} F^(m-d-1)(t >> (d+1)),

        valid for m >= d+2, over the length-m suffixes t of s (its top m
        coordinates).  For m <= d+1 the members are 0^m and the m single-one
        words, so F^(m)(t) = 1 + m - 2 w(t)."""
        d = self.d
        vals = [1 + m - 2 * (s >> (n - m)).bit_count()
                for m in range(min(n, d + 1) + 1)]
        for m in range(d + 2, n + 1):
            if (s >> (n - m)) & 1:
                vals.append(vals[m - 1] - vals[m - d - 1])
            else:
                vals.append(vals[m - 1] + vals[m - d - 1])
        return vals[n]

    def char_sum_array(self, n, s):
        """The suffix recurrence of `char_sum` on every word at once, keeping
        the last d + 1 arrays; |F^(m)| <= 2^m."""
        d = self.d
        vals = [1 + m - 2 * _popcount(s >> (n - m))
                for m in range(1, min(n, d + 1) + 1)]
        for m in range(d + 2, n + 1):
            step = _bit_signs(s, n - m)
            step *= vals[0]
            step += vals[-1]
            vals.append(step)
            del vals[0]
        return vals[-1]


class OddStrict(ConstraintSpec):
    """Every run of zeros, the leading and trailing runs included, has odd
    length; the all-zeros word is a member by convention."""

    kind = "odd_strict"
    head = "odd-strict"
    orbits = _ReversalOrbits

    def member(self, n, bits):
        return bits == 0 or all(r % 2 == 1 for r in _zero_runs(bits, n))

    @staticmethod
    def odd_coordinates(n):
        """The word with ones on the coordinates 1, 3, ..., n (bits 0, 2,
        ..., n - 1)."""
        return ((1 << (n + 1)) - 1) // 3

    def char_sum(self, n, s):
        """For odd n the members form the subspace of words supported on
        even coordinates, so F(s) = 2^{floor(n/2)} exactly when s is
        supported on the odd coordinates 1, 3, ..., n, else 0.  For even n
        the set is just {0^n} by the all-zeros convention, so F(s) = 1."""
        if n % 2 == 0:
            return 1
        if s & ~self.odd_coordinates(n):
            return 0
        return 1 << (n // 2)

    def member_array(self, n, words):
        """The closed form of `char_sum`: for odd n the members are the
        words with no one on the odd coordinates, for even n only the
        all-zeros word."""
        if n % 2 == 0:
            return words == 0
        return (words & self.odd_coordinates(n)) == 0

    def char_sum_array(self, n, s):
        if n % 2 == 0:
            return np.ones_like(s)
        return ((s & ~self.odd_coordinates(n)) == 0) << (n // 2)


class OddRelaxed(ConstraintSpec):
    """Every internal run of zeros has odd length (even n only); the
    all-zeros word is a member by convention."""

    kind = "odd_relaxed"
    head = "odd"
    orbits = _ReversalOrbits

    def check_length(self, n):
        ConstraintSpec.check_length(self, n)
        if n % 2:
            raise ValueError("the relaxed odd constraint is only supported for even n")

    def member(self, n, bits):
        return bits == 0 or all(r % 2 == 1 for r in _zero_runs(bits, n)[1:-1])

    def char_sum(self, n, s):
        """2^{n/2+1}-1 at s = 0, 2^{n/2}-1 when s is itself a nonzero
        member, and -1 otherwise."""
        if s == 0:
            return (1 << (n // 2 + 1)) - 1
        if self.member(n, s):
            return (1 << (n // 2)) - 1
        return -1

    def member_array(self, n, words):
        return _zero_runs_array(n, words, odd_runs=True, ends=False)

    def char_sum_array(self, n, s):
        out = np.where(self.member_array(n, s), (1 << (n // 2)) - 1, -1)
        out[s == 0] = (1 << (n // 2 + 1)) - 1
        return out


# F at lengths 1 and 2: the members are 0 and 1, and 00 and 11
_EVEN_BASE = {1: (2, 0), 2: (2, 0, 0, 2)}


class EvenStrict(ConstraintSpec):
    """Every run of zeros, the leading and trailing runs included, has even
    length; the all-zeros word is a member by convention."""

    kind = "even_strict"
    head = "even-strict"
    orbits = _ReversalOrbits

    def member(self, n, bits):
        return bits == 0 or all(r % 2 == 0 for r in _zero_runs(bits, n))

    def char_sum(self, n, s):
        """The four-case suffix recurrence:

            m even, s1 = 0:  F^(m) =  F^(m-1) + F^(m-2) - 1
            m even, s1 = 1:  F^(m) = -F^(m-1) + F^(m-2) + 1
            m odd,  s1 = 0:  F^(m) =  F^(m-1) + F^(m-2)
            m odd,  s1 = 1:  F^(m) = -F^(m-1) + F^(m-2)

        where F^(m-1), F^(m-2) are taken at the corresponding suffixes of s."""
        if n <= 2:
            return _EVEN_BASE[n][s]
        vals = [0, _EVEN_BASE[1][s >> (n - 1)], _EVEN_BASE[2][s >> (n - 2)]]
        for m in range(3, n + 1):
            t = s >> (n - m)
            if t & 1:
                vals.append(-vals[m - 1] + vals[m - 2] + (1 if m % 2 == 0 else 0))
            else:
                vals.append(vals[m - 1] + vals[m - 2] - (1 if m % 2 == 0 else 0))
        return vals[n]

    def member_array(self, n, words):
        return _zero_runs_array(n, words, odd_runs=False, ends=True)

    def char_sum_array(self, n, s):
        """The recurrence of `char_sum` on every word at once, keeping the
        last two arrays; |F^(m)| <= 2^m."""
        if n <= 2:
            return np.array(_EVEN_BASE[n], dtype=np.int64)[s]
        prev2 = np.array(_EVEN_BASE[1], dtype=np.int64)[s >> (n - 1)]
        prev1 = np.array(_EVEN_BASE[2], dtype=np.int64)[s >> (n - 2)]
        for m in range(3, n + 1):
            step = _bit_signs(s, n - m)
            step *= prev1 - 1 if m % 2 == 0 else prev1
            step += prev2
            prev2, prev1 = prev1, step
        return prev1


class FixedWeight(ConstraintSpec):
    """The weight-i sphere."""

    kind = "fixed_weight"
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
        return bits.bit_count() == self.i

    def char_sum(self, n, s):
        """K_i^{(n)}(w(s))."""
        return krawtchouk(n, self.i, s.bit_count())

    def member_array(self, n, words):
        return _popcount(words) == self.i

    def char_sum_array(self, n, s):
        """A lookup in the Krawtchouk row K_i^{(n)}; |K_i(j)| <= C(n, i)."""
        return np.array(krawtchouk_table(n).table[self.i], dtype=np.int64)[_popcount(s)]


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


def parse_constraint(text):
    """Parse the CLI grammar: `2charge`, `subblock:p=<int>,z=<int>`,
    `rll:d=<int>`, `odd-strict`, `odd`, `even-strict`, `weight:i=<int>`."""
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or not val:
                raise ValueError("bad constraint parameter %r in %r" % (item, text))
            try:
                params[key] = int(val)
            except ValueError as exc:
                raise ValueError("non-integer parameter %r in %r" % (item, text)) from exc
    family = FAMILIES.get(head)
    if family is None:
        raise ValueError("unknown constraint %r" % text)
    try:
        return family(**params)
    except TypeError as exc:
        raise ValueError("bad parameters for constraint %r" % text) from exc
