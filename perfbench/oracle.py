"""Independent correctness oracles for the benchmark.

Nothing here imports the package under test.  Each constraint family is
restated as a finite automaton read over the coordinates of a word (bit i of
the packed integer is coordinate i+1, as in the package), and counts are
obtained two ways that share no code with the package:

* a syndrome trellis (Wolf's trellis) for codes given by a parity-check
  matrix: a dynamic program over (automaton state, partial syndrome), so a
  code with 2^(n-k) syndromes costs n * states * 2^(n-k) array operations
  however large k is;
* vectorized enumeration of the span of a generator matrix, for codes of
  small dimension and for the full space.

Counts stay below 2^62, so int64 arithmetic is exact.
"""

import math

import numpy as np

DEAD = None


class Automaton:
    """Membership in a constrained set of length-n words as a transition
    function step(state, bit, position) -> state or DEAD, a start state and
    an accept predicate.  States must be hashable."""

    def __init__(self, start, step, accept):
        self.start = start
        self.step = step
        self.accept = accept

    def layers(self, n):
        """Per-position transition tables over the reachable states.

        Returns (tables, final_states): tables[i] = (dst0, dst1, width),
        where dst<b>[j] is the index, among the `width` states reachable after
        position i, of the state that reading bit b leads to from state j
        before it (-1 for a rejected word); final_states lists the states
        after position n-1 in index order.
        """
        states = [self.start]
        tables = []
        for pos in range(n):
            nxt = {}
            dst = ([], [])
            for s in states:
                for bit in (0, 1):
                    t = self.step(s, bit, pos)
                    if t is DEAD:
                        dst[bit].append(-1)
                    else:
                        dst[bit].append(nxt.setdefault(t, len(nxt)))
            tables.append((np.array(dst[0], dtype=np.int64),
                           np.array(dst[1], dtype=np.int64), len(nxt)))
            states = list(nxt)
        return tables, states


def automaton(family, n, **params):
    """The automaton of one family at blocklength n.

    family is the package's constraint text without parameters: `2charge`,
    `subblock` (p, z), `rll` (d), `odd-strict`, `odd`, `even-strict` or
    `weight` (i).
    """
    if family == "2charge":
        # running sum of (-1)^{x_i} stays within [0, 2]
        def step(s, bit, pos):
            t = s + (1 - 2 * bit)
            return t if 0 <= t <= 2 else DEAD
        return Automaton(0, step, lambda s: True)
    if family == "subblock":
        p, z = params["p"], params["z"]
        width = n // p

        def step(s, bit, pos):
            w = s + bit
            if w > z:
                return DEAD
            if pos % width == width - 1:
                return 0 if w == z else DEAD
            return w
        return Automaton(0, step, lambda s: s == 0)
    if family == "rll":
        d = params["d"]

        # state = zeros since the last one, saturated at d (start: no one yet)
        def step(s, bit, pos):
            if bit:
                return 0 if s >= d else DEAD
            return min(s + 1, d)
        return Automaton(d, step, lambda s: True)
    if family in ("odd-strict", "odd", "even-strict"):
        # state = (a one has been seen, parity of the current zero run)
        want = 0 if family == "even-strict" else 1
        check_leading = family != "odd"

        def step(s, bit, pos):
            seen, parity = s
            if not bit:
                return (seen, parity ^ 1)
            if (seen or check_leading) and parity != want:
                return DEAD
            return (1, 0)

        if family == "odd":
            accept = lambda s: True  # noqa: E731 - leading/trailing runs free
        else:
            accept = lambda s: not s[0] or s[1] == want  # noqa: E731
        return Automaton((0, 0), step, accept)
    if family == "weight":
        i = params["i"]

        def step(s, bit, pos):
            return s + bit if s + bit <= i else DEAD
        return Automaton(0, step, lambda s: s == i)
    raise ValueError("no automaton for family %r" % family)


def count_by_syndrome_trellis(aut, n, parity_rows):
    """|C ∩ A| for C = {x : H x = 0}, H given as packed rows."""
    r = len(parity_rows)
    size = 1 << r
    columns = [sum(((row >> pos) & 1) << j for j, row in enumerate(parity_rows))
               for pos in range(n)]
    tables, finals = aut.layers(n)
    index = np.arange(size, dtype=np.int64)
    cur = np.zeros((1, size), dtype=np.int64)
    cur[0, 0] = 1
    for pos, (dst0, dst1, width) in enumerate(tables):
        flipped = cur[:, index ^ columns[pos]]
        nxt = np.zeros((width, size), dtype=np.int64)
        for src in range(len(cur)):
            if dst0[src] >= 0:
                nxt[dst0[src]] += cur[src]
            if dst1[src] >= 0:
                nxt[dst1[src]] += flipped[src]
        cur = nxt
    return int(sum(cur[j, 0] for j, s in enumerate(finals) if aut.accept(s)))


def span_words(rows):
    """All 2^k words spanned by the packed rows, as a uint64 array."""
    words = np.zeros(1, dtype=np.uint64)
    for row in rows:
        words = np.concatenate([words, words ^ np.uint64(row)])
    return words


def members_mask(aut, n, words):
    """Boolean mask of the words (uint64 array) that lie in the set."""
    tables, finals = aut.layers(n)
    state = np.zeros(len(words), dtype=np.int64)
    alive = np.ones(len(words), dtype=bool)
    for pos, (dst0, dst1, _) in enumerate(tables):
        bit = ((words >> np.uint64(pos)) & np.uint64(1)).astype(bool)
        nxt = np.where(bit, dst1[state], dst0[state])
        alive &= nxt >= 0
        state = np.where(nxt >= 0, nxt, 0)
    accepting = np.array([aut.accept(s) for s in finals], dtype=bool)
    return alive & accepting[state]


def popcounts(words, n):
    """Hamming weights of a uint64 array of n-bit words."""
    out = np.zeros(len(words), dtype=np.int64)
    for pos in range(n):
        out += ((words >> np.uint64(pos)) & np.uint64(1)).astype(np.int64)
    return out


def count_by_enumeration(aut, n, generator_rows):
    """|C ∩ A| by enumerating the span of the generator rows."""
    return int(members_mask(aut, n, span_words(generator_rows)).sum())


def weight_distribution_by_enumeration(aut, n, generator_rows):
    """Weight distribution of (span of the rows) ∩ A, indexed 0..n."""
    words = span_words(generator_rows)
    weights = popcounts(words[members_mask(aut, n, words)], n)
    return [int(c) for c in np.bincount(weights, minlength=n + 1)]


def full_space_rows(n):
    """Generator rows of the whole space {0,1}^n."""
    return [1 << i for i in range(n)]


def krawtchouk(n, i, j):
    """K_i(j) by its defining sum."""
    return sum((-1) ** t * math.comb(j, t) * math.comb(n - j, i - t)
               for t in range(i + 1))


def weight_class_sums_from_distribution(dist):
    """W(j) = sum over s of weight j of F_A(s) = sum_w a_w K_j(w)."""
    n = len(dist) - 1
    return [sum(a * krawtchouk(n, j, w) for w, a in enumerate(dist))
            for j in range(n + 1)]


def gf2_rank(rows):
    """Rank over GF(2) of packed rows."""
    basis = []  # distinct leading bits, kept in decreasing order
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)
