"""Constraint families: membership, exact character sums, orbit structure.

For a constrained set A of length-n binary words, the character sum at s is

    F_A(s) = sum_{x in A} (-1)^{x . s},

an exact integer equal to 2^n times the Fourier coefficient of A's
indicator at s.  Each family implements F via a closed form or recurrence;
brute-force enumeration is available as an oracle for every family.
"""

import itertools
import math
import threading

import numpy as np

from .errors import CapExceeded
from .gf2 import BitWord
from .spectral import krawtchouk

MEMBER_ENUM_CAP = 22
# largest n at which the reversal and trivial groups, which have about
# 2^(n-1) and 2^n orbits, list their orbits one by one
ORBIT_LIST_CAP = 16

_KINDS = ("two_charge", "subblock", "rll", "odd_strict", "odd_relaxed",
          "even_strict", "fixed_weight")


class ConstraintSpec:
    """Tagged description of one constraint family plus its parameters."""

    __slots__ = ("kind", "p", "z", "d", "i")

    def __init__(self, kind, p=None, z=None, d=None, i=None):
        if kind not in _KINDS:
            raise ValueError("unknown constraint kind %r" % kind)
        if kind == "subblock":
            if p is None or z is None or p < 1 or z < 0:
                raise ValueError("subblock needs p >= 1 and z >= 0")
        if kind == "rll" and (d is None or d < 1):
            raise ValueError("rll needs d >= 1")
        if kind == "fixed_weight" and (i is None or i < 0):
            raise ValueError("fixed_weight needs i >= 0")
        self.kind = kind
        self.p = p
        self.z = z
        self.d = d
        self.i = i

    def check_length(self, n):
        if n < 1:
            raise ValueError("blocklength must be positive")
        if self.kind == "subblock":
            if n % self.p:
                raise ValueError("subblock requires p | n (p=%d, n=%d)" % (self.p, n))
            if self.z > n // self.p:
                raise ValueError("subblock weight z=%d exceeds subblock length %d"
                                 % (self.z, n // self.p))
        if self.kind == "odd_relaxed" and n % 2:
            raise ValueError("the relaxed odd constraint is only supported for even n")
        if self.kind == "fixed_weight" and self.i > n:
            raise ValueError("fixed weight i=%d exceeds blocklength %d" % (self.i, n))

    def __str__(self):
        if self.kind == "two_charge":
            return "2charge"
        if self.kind == "subblock":
            return "subblock:p=%d,z=%d" % (self.p, self.z)
        if self.kind == "rll":
            return "rll:d=%d" % self.d
        if self.kind == "odd_strict":
            return "odd-strict"
        if self.kind == "odd_relaxed":
            return "odd"
        if self.kind == "even_strict":
            return "even-strict"
        return "weight:i=%d" % self.i

    def __repr__(self):
        return "ConstraintSpec(%r)" % str(self)

    def __eq__(self, other):
        return isinstance(other, ConstraintSpec) and str(self) == str(other)

    def __hash__(self):
        return hash(str(self))


def two_charge():
    return ConstraintSpec("two_charge")


def subblock(p, z):
    return ConstraintSpec("subblock", p=p, z=z)


def rll(d):
    return ConstraintSpec("rll", d=d)


def odd_strict():
    return ConstraintSpec("odd_strict")


def odd_relaxed():
    return ConstraintSpec("odd_relaxed")


def even_strict():
    return ConstraintSpec("even_strict")


def fixed_weight(i):
    return ConstraintSpec("fixed_weight", i=i)


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
    try:
        if head == "2charge":
            return ConstraintSpec("two_charge", **params)
        if head == "subblock":
            return ConstraintSpec("subblock", **params)
        if head == "rll":
            return ConstraintSpec("rll", **params)
        if head == "odd-strict":
            return ConstraintSpec("odd_strict", **params)
        if head == "odd":
            return ConstraintSpec("odd_relaxed", **params)
        if head == "even-strict":
            return ConstraintSpec("even_strict", **params)
        if head == "weight":
            return ConstraintSpec("fixed_weight", **params)
    except TypeError as exc:
        raise ValueError("bad parameters for constraint %r" % text) from exc
    raise ValueError("unknown constraint %r" % text)


# ---------------------------------------------------------------------------
# membership


def _zero_runs(bits, n):
    """Lengths of the leading, internal, and trailing runs of zeros."""
    positions = [i for i in range(n) if (bits >> i) & 1]
    if not positions:
        return [n]
    runs = [positions[0]]
    runs.extend(positions[j + 1] - positions[j] - 1 for j in range(len(positions) - 1))
    runs.append(n - 1 - positions[-1])
    return runs


def member_int(c, n, bits):
    """Membership test on a packed word (bit i-1 = coordinate i)."""
    c.check_length(n)
    if c.kind == "two_charge":
        # running sums of (-1)^{x_i} must stay within [0, 2]
        total = 0
        for i in range(n):
            total += 1 - 2 * ((bits >> i) & 1)
            if not 0 <= total <= 2:
                return False
        return True
    if c.kind == "subblock":
        width = n // c.p
        mask = (1 << width) - 1
        return all(((bits >> (l * width)) & mask).bit_count() == c.z
                   for l in range(c.p))
    if c.kind == "rll":
        positions = [i for i in range(n) if (bits >> i) & 1]
        return all(positions[j + 1] - positions[j] > c.d
                   for j in range(len(positions) - 1))
    if c.kind == "odd_strict":
        if bits == 0:
            return True
        return all(r % 2 == 1 for r in _zero_runs(bits, n))
    if c.kind == "odd_relaxed":
        if bits == 0:
            return True
        return all(r % 2 == 1 for r in _zero_runs(bits, n)[1:-1])
    if c.kind == "even_strict":
        if bits == 0:
            return True
        return all(r % 2 == 0 for r in _zero_runs(bits, n))
    return bits.bit_count() == c.i


def member(c, x):
    """Membership test on a BitWord."""
    return member_int(c, x.n, x.bits)


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
# cardinalities


def cardinality(c, n):
    """|A|, exact; closed form where available, brute count otherwise."""
    c.check_length(n)
    if c.kind == "two_charge":
        return 1 << (n // 2)
    if c.kind == "subblock":
        return math.comb(n // c.p, c.z) ** c.p
    if c.kind == "rll":
        return char_sum_rll(n, c.d, 0)
    if c.kind == "odd_strict":
        return 1 << (n // 2) if n % 2 else 1
    if c.kind == "odd_relaxed":
        return (1 << (n // 2 + 1)) - 1
    if c.kind == "even_strict":
        return char_sum_even(n, 0)
    return math.comb(n, c.i)


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


def char_sum_two_charge(n, s):
    """F(s) for the 2-charge set: 0 outside span(B), otherwise
    (+-) 2^{floor(n/2)} with sign (-1)^{number of double-one pairs in s}."""
    if n < 3:
        raise ValueError("char_sum_two_charge requires n >= 3")
    rest = s >> 1
    neg_pairs = 0
    pairs = (n + 1) // 2 - 1
    for _ in range(pairs):
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


def char_sum_subblock(n, p, z, s):
    """F(s) = product over subblocks of K_z^{(n/p)}(weight of s's subblock)."""
    if n % p:
        raise ValueError("subblock requires p | n")
    width = n // p
    if not 0 <= z <= width:
        raise ValueError("need 0 <= z <= n/p")
    mask = (1 << width) - 1
    out = 1
    for l in range(p):
        out *= krawtchouk(width, z, ((s >> (l * width)) & mask).bit_count())
        if not out:
            return 0
    return out


def _rll_base(m, d, suffix):
    """F for suffix length m <= d+1: members are 0^m and the m single-one
    words, so F = 1 + (m - 2 w(suffix))."""
    return 1 + m - 2 * suffix.bit_count()


def char_sum_rll(n, d, s):
    """F(s) for the (d, infinity)-RLL set via the suffix recurrence

        F^(m)(t) = F^(m-1)(t >> 1) + (-1)^{t & 1} F^(m-d-1)(t >> (d+1)),

    valid for m >= d+2; shorter suffixes by direct formula."""
    if d < 1:
        raise ValueError("rll requires d >= 1")
    if s >> n:
        raise ValueError("s does not fit in n coordinates")
    if n <= d + 1:
        return _rll_base(n, d, s)
    # vals[m] = F^(m) at the length-m suffix of s (the top m coordinates)
    vals = [0] * (n + 1)
    for m in range(d + 2):
        vals[m] = _rll_base(m, d, s >> (n - m))
    for m in range(d + 2, n + 1):
        t = s >> (n - m)
        sign = -1 if t & 1 else 1
        vals[m] = vals[m - 1] + sign * vals[m - d - 1]
    return vals[n]


_EVEN_BASE = {}
_EVEN_LOCK = threading.Lock()


def _even_base(m, suffix):
    """F for the strict-even set at lengths m in {0, 1, 2}, by enumeration."""
    key = m
    table = _EVEN_BASE.get(key)
    if table is None:
        with _EVEN_LOCK:
            table = _EVEN_BASE.get(key)
            if table is None:
                spec = even_strict()
                members = [x for x in range(1 << m) if member_int(spec, m, x)] if m else [0]
                table = []
                for s in range(1 << m):
                    table.append(sum(-1 if (x & s).bit_count() & 1 else 1
                                     for x in members))
                _EVEN_BASE[key] = table
    return table[suffix]


def char_sum_even(n, s):
    """F(s) for the strict-even set via the four-case suffix recurrence:

        m even, s1 = 0:  F^(m) =  F^(m-1) + F^(m-2) - 1
        m even, s1 = 1:  F^(m) = -F^(m-1) + F^(m-2) + 1
        m odd,  s1 = 0:  F^(m) =  F^(m-1) + F^(m-2)
        m odd,  s1 = 1:  F^(m) = -F^(m-1) + F^(m-2)

    where F^(m-1), F^(m-2) are taken at the corresponding suffixes of s."""
    if n < 1:
        raise ValueError("blocklength must be positive")
    if s >> n:
        raise ValueError("s does not fit in n coordinates")
    if n <= 2:
        return _even_base(n, s)
    vals = [0] * (n + 1)
    vals[1] = _even_base(1, s >> (n - 1))
    vals[2] = _even_base(2, s >> (n - 2))
    for m in range(3, n + 1):
        t = s >> (n - m)
        if t & 1:
            vals[m] = -vals[m - 1] + vals[m - 2] + (1 if m % 2 == 0 else 0)
        else:
            vals[m] = vals[m - 1] + vals[m - 2] - (1 if m % 2 == 0 else 0)
    return vals[n]


_ODD_COORD_MASKS = {}


def _odd_coordinate_mask(n):
    """Packed mask of the odd coordinate positions 1, 3, 5, ..."""
    mask = _ODD_COORD_MASKS.get(n)
    if mask is None:
        mask = sum(1 << i for i in range(0, n, 2))
        _ODD_COORD_MASKS[n] = mask
    return mask


def char_sum_odd_strict(n, s):
    """F(s) for the strict-odd set (n odd): members form the subspace of
    words supported on even coordinates, so F(s) = 2^{floor(n/2)} exactly
    when s is supported on odd coordinates, else 0.  For even n the set is
    just {0^n} by the all-zeros convention, so F(s) = 1."""
    if s >> n:
        raise ValueError("s does not fit in n coordinates")
    if n % 2 == 0:
        return 1
    if s & ~_odd_coordinate_mask(n):
        return 0
    return 1 << (n // 2)


def char_sum_odd_relaxed(n, s):
    """F(s) for the relaxed odd set (n even): 2^{n/2+1}-1 at s = 0,
    2^{n/2}-1 when s is itself a nonzero member, and -1 otherwise."""
    if n % 2:
        raise ValueError("the relaxed odd constraint is only supported for even n")
    if s >> n:
        raise ValueError("s does not fit in n coordinates")
    if s == 0:
        return (1 << (n // 2 + 1)) - 1
    if member_int(odd_relaxed(), n, s):
        return (1 << (n // 2)) - 1
    return -1


def char_sum_fixed_weight(n, i, s):
    """F(s) for the weight-i sphere: K_i^{(n)}(w(s))."""
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    return krawtchouk(n, i, s.bit_count())


def char_sum_brute(c, n, s, cap=MEMBER_ENUM_CAP):
    """Oracle: direct sum over enumerated members."""
    return sum(-1 if (x & s).bit_count() & 1 else 1 for x in member_ints(c, n, cap))


def char_sum_int(c, n, s):
    """Dispatch the exact character sum F_A(s) on packed input."""
    c.check_length(n)
    if c.kind == "two_charge":
        if n < 3:
            return char_sum_brute(c, n, s)
        return char_sum_two_charge(n, s)
    if c.kind == "subblock":
        return char_sum_subblock(n, c.p, c.z, s)
    if c.kind == "rll":
        return char_sum_rll(n, c.d, s)
    if c.kind == "odd_strict":
        return char_sum_odd_strict(n, s)
    if c.kind == "odd_relaxed":
        return char_sum_odd_relaxed(n, s)
    if c.kind == "even_strict":
        return char_sum_even(n, s)
    return char_sum_fixed_weight(n, c.i, s)


def char_sum(c, s):
    """Exact character sum F_A(s) for a BitWord s."""
    return char_sum_int(c, s.n, s.bits)


# ---------------------------------------------------------------------------
# orbit structure for symmetrized LPs

# int64 entries per chunk of the character block in OrbitStructure.char_sums
_CHAR_CHUNK = 1 << 16
# words per chunk of OrbitStructure.index_chunks
_INDEX_CHUNK = 1 << 14


def _parity(v):
    """Parity of the set bits of each entry of an int64 array (< 2^32)."""
    v = v ^ (v >> 16)
    v ^= v >> 8
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return v & 1


def _popcount(v):
    """Number of set bits of each entry of an int64 array (< 2^32), by
    the bit-parallel byte sums."""
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    return ((v * 0x01010101) & 0xFFFFFFFF) >> 24


class OrbitStructure:
    """Orbits of a group of coordinate permutations acting on {0,1}^n that
    maps A onto itself: labels, exact sizes, and canonical representatives.

    Subclasses define the group through `_keys`: an integer per word of an
    int64 array, equal exactly for the words of one orbit.
    """

    __slots__ = ("constraint", "n", "labels", "sizes", "reps", "_index",
                 "_buckets")
    group = None

    def __init__(self, constraint, n, labels, sizes, reps):
        self.constraint = constraint
        self.n = n
        self.labels = labels
        self.sizes = sizes
        self.reps = reps
        self._index = None
        self._buckets = None

    def label_of(self, x):
        bits = x.bits if isinstance(x, BitWord) else int(x)
        return self.labels[self.orbit_index()[bits]]

    def _keys(self, words):
        raise NotImplementedError

    def index_chunks(self):
        """Yield (start, index) over consecutive chunks of the packed words:
        index[k] is the position in `labels` of the orbit of word start + k.
        Chunking keeps the working memory small at large n."""
        if self.n > MEMBER_ENUM_CAP:
            raise CapExceeded("orbit bucketing refuses n=%d > cap %d"
                              % (self.n, MEMBER_ENUM_CAP))
        rep_keys = self._keys(np.array([self.reps[label] for label in self.labels],
                                       dtype=np.int64))
        order = np.argsort(rep_keys, kind="stable")
        sorted_keys = rep_keys[order]
        counts = np.zeros(len(self.labels), dtype=np.int64)
        for start in range(0, 1 << self.n, _INDEX_CHUNK):
            keys = self._keys(np.arange(start, min(start + _INDEX_CHUNK, 1 << self.n),
                                        dtype=np.int64))
            index = order[np.searchsorted(sorted_keys, keys).clip(0, len(order) - 1)]
            if not np.array_equal(rep_keys[index], keys):
                raise AssertionError("a word's orbit key matches no orbit label")
            counts += np.bincount(index, minlength=len(counts))
            yield start, index
        if counts.tolist() != [self.sizes[label] for label in self.labels]:
            raise AssertionError("orbit keys disagree with the orbit sizes")

    def orbit_index(self):
        """int64 array: the position in `labels` of each packed word's orbit."""
        if self._index is None:
            self._index = np.concatenate([index for _, index in self.index_chunks()])
        return self._index

    def buckets(self):
        """label -> ascending list of the packed members of the orbit."""
        if self._buckets is None:
            index = self.orbit_index()
            words = np.argsort(index, kind="stable")
            ends = np.cumsum([self.sizes[label] for label in self.labels])
            self._buckets = {label: group.tolist() for label, group in
                             zip(self.labels, np.split(words, ends[:-1]))}
        return self._buckets

    def char_sums(self, columns):
        """int64 matrix of orbit character sums: entry (i, j) is the sum over
        the orbit `columns[j]` of (-1)^{x . s}, s the representative of the
        i-th orbit of `labels`.  Exact, since each entry is at most 2^n in
        magnitude.  The sums are taken over the members of each orbit, one
        chunk of row representatives at a time."""
        reps = np.array([self.reps[label] for label in self.labels],
                        dtype=np.int64)
        out = np.zeros((len(reps), len(columns)), dtype=np.int64)
        if not columns:
            return out
        position = {label: i for i, label in enumerate(self.labels)}
        column_of = np.full(len(self.labels), -1, dtype=np.int64)
        column_of[[position[label] for label in columns]] = np.arange(len(columns))
        word_column = column_of[self.orbit_index()]
        words = np.nonzero(word_column >= 0)[0]
        words = words[np.argsort(word_column[words], kind="stable")]
        starts = np.searchsorted(word_column[words], np.arange(len(columns)))
        step = max(1, _CHAR_CHUNK // len(words))
        for lo in range(0, len(reps), step):
            signs = 1 - 2 * _parity(reps[lo:lo + step, None] & words)
            out[lo:lo + step] = np.add.reduceat(signs, starts, axis=1)
        return out


def _two_charge_pairs(n):
    """0-indexed low bits of the (2i, 2i+1) coordinate pairs."""
    last = n - 1 if n % 2 else n - 2
    return list(range(1, last, 2))


class _TwoChargeOrbits(OrbitStructure):
    """Permutations of the coordinate pairs (2i, 2i+1) and swaps inside a
    pair.  Label (b, t00, t11[, tail]): the first bit, the numbers of 00 and
    11 pairs, and for even n the last bit."""

    __slots__ = ()
    group = "pair-permutation"

    def __init__(self, c, n):
        pairs = _two_charge_pairs(n)
        np_ = len(pairs)
        labels = []
        sizes = {}
        reps = {}
        tails = (0, 1) if n % 2 == 0 else (None,)
        for b in (0, 1):
            for t00 in range(np_ + 1):
                for t11 in range(np_ - t00 + 1):
                    for tail in tails:
                        label = (b, t00, t11) if tail is None else (b, t00, t11, tail)
                        size = (math.comb(np_, t00) * math.comb(np_ - t00, t11)
                                * (1 << (np_ - t00 - t11)))
                        rep = b
                        for idx, low in enumerate(pairs):
                            if idx < t00:
                                pair = 0b00
                            elif idx < t00 + t11:
                                pair = 0b11
                            else:
                                pair = 0b10  # the (0, 1) mixed pattern
                            rep |= pair << low
                        if tail:
                            rep |= 1 << (n - 1)
                        labels.append(label)
                        sizes[label] = size
                        reps[label] = rep
        super().__init__(c, n, labels, sizes, reps)

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
    """Permutations inside each subblock and of the subblocks.  Label: the
    subblock weights in descending order."""

    __slots__ = ()
    group = "subblock"

    def __init__(self, c, n):
        width = n // c.p
        labels = [tuple(sorted(t, reverse=True))
                  for t in itertools.combinations_with_replacement(
                      range(width, -1, -1), c.p)]
        labels = sorted(set(labels), reverse=True)
        sizes = {}
        reps = {}
        for label in labels:
            perms = len(set(itertools.permutations(label)))
            size = perms
            for a in label:
                size *= math.comb(width, a)
            rep = 0
            for l, a in enumerate(label):
                rep |= ((1 << a) - 1) << (l * width)
            sizes[label] = size
            reps[label] = rep
        super().__init__(c, n, labels, sizes, reps)

    def _blocks(self, bits):
        width = self.n // self.constraint.p
        mask = (1 << width) - 1
        return [(bits >> (l * width)) & mask for l in range(self.constraint.p)]

    def _keys(self, words):
        # the multiset of subblock weights as a number in base p + 1, whose
        # digit w counts the subblocks of weight w
        p = self.constraint.p
        powers = (p + 1) ** np.arange(self.n // p + 1, dtype=np.int64)
        keys = np.zeros_like(words)
        for block in self._blocks(words):
            keys += powers[_popcount(block)]
        return keys

    def char_sums(self, columns):
        """Closed form: the Krawtchouk products of `orbit_char_sum`."""
        out = np.zeros((len(self.labels), len(columns)), dtype=np.int64)
        for i, s_label in enumerate(self.labels):
            s_rep = self.reps[s_label]
            for j, label in enumerate(columns):
                out[i, j] = orbit_char_sum(self, label, s_rep)
        return out


def _reverse(words, n):
    """Each n-bit word with its coordinates in reverse order (int64 array)."""
    out = np.zeros_like(words)
    for i in range(n):
        out |= ((words >> i) & 1) << (n - 1 - i)
    return out


class _ReversalOrbits(OrbitStructure):
    """Word reversal x_1 ... x_n -> x_n ... x_1.  Every orbit has one or two
    words; its label and representative is the smaller of x and rev(x)."""

    __slots__ = ()
    group = "reversal"

    def __init__(self, c, n):
        if n > ORBIT_LIST_CAP:
            raise CapExceeded("%s orbit structure refuses n=%d > cap %d"
                              % (self.group, n, ORBIT_LIST_CAP))
        words = np.arange(1 << n, dtype=np.int64)
        reps = np.unique(np.minimum(words, _reverse(words, n)))
        palindromic = reps == _reverse(reps, n)
        labels = reps.tolist()
        sizes = dict(zip(labels, (2 - palindromic).tolist()))
        super().__init__(c, n, labels, sizes, dict(zip(labels, labels)))

    def _keys(self, words):
        return np.minimum(words, _reverse(words, self.n))


class _TrivialOrbits(OrbitStructure):
    """The trivial group: one orbit per word, labelled by the word."""

    __slots__ = ()
    group = "trivial"

    def __init__(self, c, n):
        if n > ORBIT_LIST_CAP:
            raise CapExceeded("%s orbit structure refuses n=%d > cap %d"
                              % (self.group, n, ORBIT_LIST_CAP))
        labels = list(range(1 << n))
        super().__init__(c, n, labels, dict.fromkeys(labels, 1),
                         dict(zip(labels, labels)))

    def _keys(self, words):
        return words


_ORBITS = {"two_charge": _TwoChargeOrbits, "subblock": _SubblockOrbits,
           "rll": _ReversalOrbits, "odd_strict": _ReversalOrbits,
           "odd_relaxed": _ReversalOrbits, "even_strict": _ReversalOrbits,
           "fixed_weight": _ReversalOrbits}


def orbit_structure(c, n, trivial=False):
    """Labels, exact sizes, and canonical representatives of all orbits of
    the constraint's symmetry group, or of the trivial group (one orbit per
    word) when `trivial` is set."""
    c.check_length(n)
    struct = (_TrivialOrbits if trivial else _ORBITS[c.kind])(c, n)
    if sum(struct.sizes.values()) != 1 << n:
        raise AssertionError("orbit sizes do not partition the space")
    return struct


def orbit_char_sum(structure, orbit_label, s_rep):
    """Sum over the orbit O of (-1)^{x . s_rep}, exact.

    For subblock orbits this is the sum over distinct ordered arrangements
    of the weight multiset of products of Krawtchouk values; for the other
    groups it is summed over the orbit's members.
    """
    s_bits = s_rep.bits if isinstance(s_rep, BitWord) else int(s_rep)
    if isinstance(structure, _SubblockOrbits):
        c = structure.constraint
        width = structure.n // c.p
        mask = (1 << width) - 1
        s_weights = [((s_bits >> (l * width)) & mask).bit_count()
                     for l in range(c.p)]
        total = 0
        for arrangement in set(itertools.permutations(orbit_label)):
            term = 1
            for a, w in zip(arrangement, s_weights):
                term *= krawtchouk(width, a, w)
            total += term
        return total
    members = structure.buckets()[orbit_label]
    return sum(-1 if (x & s_bits).bit_count() & 1 else 1 for x in members)
