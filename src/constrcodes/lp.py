"""Dense LP modeling, a bundled simplex solver for LPs feasible at the
origin, and the bound programs: Delsarte's LP (classic, full, constrained,
symmetrized), the generalized sphere-packing baseline, and dual-certificate
verification.

All programs are small and dense by LP standards, so a tableau simplex with
numpy suffices; no external solver is required.  Every bound program is
one form, max objective . x subject to rows @ x <= rhs with rhs >= 0 and
0 <= x <= upper: each builder hands its arrays (matrix `rows`, `rhs`, and
`upper` with inf for no bound) straight to an `LpModel`, `_dedupe` keeping
each row's first occurrence.  The origin satisfies every such LP, so the
slacks, one per row, are a feasible starting basis, and the solver needs
no phase 1.  It keeps the condensed tableau B^-1 A_N, m rows by the
nonbasic columns only: a pivot exchanges one basic and one nonbasic label.
It writes its pivot row and column exactly and leaves its rank-1 update of
the other entries pending; every DELAY pivots the pending updates reach the
tableau as one matrix product, so the m x |N| rewrite runs in BLAS-3, not
as two numpy passes per pivot.  Only the model's own columns are stored:
the slack of row i is the unit vector e_i, and each product with one is its
single exact term, so a solve holds no m x m array.  A refactorization
eliminates the basic slacks directly and factors only the block of the
other basic columns on the rows those leave free; it solves for the
nonbasic columns and the right-hand side together.  It runs when the
exchanges have drifted from the model: every DELAY pivots the residuals of
the basic values and of the entering column are measured against the
model's columns, and past DRIFT_TOL, or REINVERT_CAP pivots after the last
one, the tableau is rebuilt.  The simplex runs on perturbed right-hand
sides; the refactorization that confirms the final basis solves for the
true ones as well, and if the basic values there leave their bounds, dual
simplex pivots repair the basis (it stays dual feasible).
"""

import math

import numpy as np

from .constraints import (MEMBER_ENUM_CAP, cardinality, member_array,
                          orbit_structure)
from .errors import CapExceeded
from .spectral import _parity, _popcount, krawtchouk_table, wht

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
ITERATION_LIMIT = 10 ** 6
# the drift of the exchanged tableau from the model (`_Simplex._drift`),
# measured every DELAY steps, past which it is refactorized: ten times
# FEAS_TOL, since the ratio test lets basic values overshoot a bound by up
# to 1e-7 relative before it clips them, which leaves residuals of that
# order (the largest seen over every table and `bound --lp all` model at
# n <= 10: 1.0e-7; the tableau columns drift by at most 4e-10 there)
DRIFT_TOL = 1e-6
# the most steps between refactorizations, whatever the drift
REINVERT_CAP = 2000
# Devex scores within this relative distance of the best count as ties: the
# rounding of BLAS products differs in their last bits between thread counts
# and builds, and must not decide the pivot path
TIE_TOL = 1e-12
# exchanges whose rank-1 updates of the tableau wait to be applied together
DELAY = 32
# tableaux with fewer entries apply every exchange at once: the bookkeeping
# costs them more than the matrix product saves (crossover between 1.2k and
# 2.7k entries, measured on rll:d=1 models at n = 6..9)
DELAY_MIN_ENTRIES = 1 << 11
# most dual simplex pivots repairing the final basis
REPAIR_LIMIT = 1000
# smallest reciprocal condition number of a factored basis block
RCOND_MIN = 1e-12
# 0-d operands of the simplex's comparisons: a ufunc converts a Python float
# operand anew on every call
_TOL, _NEG_TOL, _ZERO = np.array(PIVOT_TOL), np.array(-PIVOT_TOL), np.array(0.0)
# most orbits (= transform rows) of a constrained Delsarte LP
ORBIT_ROW_CAP = 1 << 12
# most ball points gensph maps to orbits at once
BALL_BLOCK = 1 << 20
# most support words, or matrix entries, `_undominated` compares at once
PAIR_BLOCK = 1 << 16


class LpModel:
    """max objective . x subject to rows @ x <= rhs and 0 <= x <= upper,
    inf (the default) for no bound.

    The model must be feasible at the origin: ValueError for a negative rhs
    or a negative upper bound."""

    def __init__(self, objective, rows, rhs, upper=None):
        self.objective = np.asarray(objective, dtype=float)
        nvars = len(self.objective)
        self.rows = np.ascontiguousarray(rows, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.upper = np.full(nvars, np.inf) if upper is None else \
            np.asarray(upper, dtype=float)
        m = len(self.rows)
        if (self.rows.shape, self.rhs.shape, self.upper.shape) != \
                ((m, nvars), (m,), (nvars,)):
            raise ValueError("rows, rhs and upper disagree in shape with %d "
                             "variables" % nvars)
        if (self.rhs < 0).any():
            raise ValueError("a row does not hold at the origin: rhs < 0")
        if (self.upper < 0).any():
            raise ValueError("an upper bound is negative")

    def nvars(self):
        return len(self.objective)


class LpSolution:
    """Solver outcome: status, objective value, primal point, iteration
    count (pivots plus bound flips), and the solver counters in `stats`:
    degenerate pivots, bound flips, basis factorizations, the dual simplex
    pivots that repaired the final basis, and the largest drift residual
    measured (`max_residual`, see `_Simplex._drift`)."""

    __slots__ = ("status", "value", "primal", "iterations", "stats")

    def __init__(self, status, value=None, primal=None, iterations=0,
                 stats=None):
        self.status = status
        self.value = value
        self.primal = primal
        self.iterations = iterations
        self.stats = stats or {}

    def __repr__(self):
        return "LpSolution(status=%r, value=%r, iterations=%d)" % (
            self.status, self.value, self.iterations)


def dump_model(model, path):
    """Plain-text dump: the objective, each constraint, each variable bound."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("max %s\n" % " ".join("%.17g" % v for v in model.objective))
        for coeffs, rhs in zip(model.rows, model.rhs):
            fh.write("%s <= %.17g\n"
                     % (" ".join("%.17g" % v for v in coeffs), rhs))
        for j in np.flatnonzero(np.isfinite(model.upper)):
            row = ["0"] * model.nvars()
            row[j] = "1"
            fh.write("%s <= %.17g\n" % (" ".join(row), model.upper[j]))


class _Tableau:
    """The condensed tableau B^-1 A_N, held as base - P @ Q.

    An exchange writes its pivot row and pivot column exactly into base and
    leaves its rank-1 update of every other entry pending, as one column of
    P and one row of Q; DELAY pending updates reach base together in one
    matrix product.  Reading a row or a column applies the pending updates
    to it alone.  A tableau of fewer than DELAY_MIN_ENTRIES entries applies
    each exchange at once."""

    def __init__(self, base):
        self.base = np.ascontiguousarray(base, dtype=float)
        m, nn = self.base.shape
        delay = DELAY if m * nn >= DELAY_MIN_ENTRIES else 0
        self.p = np.empty((m, delay))
        self.q = np.empty((delay, nn))
        self.k = 0

    def column(self, j):
        col = self.base[:, j].copy()
        if self.k:
            col -= self.p[:, :self.k] @ self.q[:self.k, j]
        return col

    def row(self, i):
        """Row i, read-only: a view of base when no update is pending."""
        if self.k:
            return self.base[i] - self.p[i, :self.k] @ self.q[:self.k]
        return self.base[i]

    def dense(self):
        """The tableau as one array, every pending update applied."""
        if self.k:
            self.base -= self.p[:, :self.k] @ self.q[:self.k]
            self.k = 0
        return self.base

    def reset(self, values):
        """Replace the whole tableau, dropping the pending updates."""
        self.base[:] = values
        self.k = 0

    def exchange(self, r, q, col):
        """Pivot on entry (r, q), given column q as it stands: the basic
        variable of row r and the nonbasic variable of column q trade
        places, so column q then belongs to the leaving variable.  Row r
        becomes itself over the pivot, every other row i loses col[i] times
        that, and column q becomes -col / pivot with 1 / pivot at r.
        Returns the new row r, valid until the next exchange."""
        piv = col[r]
        v = self.row(r) / piv
        base, k = self.base, self.k
        # row r and column q are written exactly below, so their updates
        # here are void
        if len(self.q):
            self.p[r, :k] = 0.0
            self.q[:k, q] = 0.0
            self.p[:, k] = col
            self.p[r, k] = 0.0
            self.q[k] = v
            self.q[k, q] = 0.0
            self.k = k + 1
        else:
            base -= col[:, None] * v
        base[r] = v
        np.divide(col, -piv, out=base[:, q])
        base[r, q] = 1.0 / piv
        if self.k == len(self.q) > 0:
            self.dense()
        return base[r]


class _Simplex:
    """The bounded simplex over the model's rows, each divided by its
    largest coefficient, from the basis of their slacks, which rhs >= 0
    makes feasible.

    Variables are labelled in this order: the model's variables, then the
    slack of each row, row i's labelled nvars + i.  `orig` holds the
    normalized columns of the model's variables only, m by nvars.  The
    slack column of row i is the unit vector e_i and is never stored: the
    starting tableau, the refactorizations, the pricing in `_confirm`, the
    perturbation and the drift residuals write or add it as its one entry.
    Row i of the condensed tableau `tab` belongs to the basic variable
    basis[i] and column j to the nonbasic variable nonbasic[j], and xb
    holds the basic values.  Variable bounds are ub, by label, with 0
    below.  Two arrays by position follow every exchange and bound flip, so
    that a pivot gathers nothing by label: ubb[i] = ub[basis[i]], and
    sign[j], the direction in which nonbasic[j] can move off its bound:
    +1.0 resting at 0, -1.0 resting at its upper bound.  `rhs` holds the
    model's right-hand sides normalized, `cost` the negated objective, to
    minimize, by label, and `state` the solver counters.

    The primal and dual loops refactorize on measured drift, not on a fixed
    count: every DELAY steps `_drift` computes the residuals of the basic
    values and of the entering tableau column against the model, and the
    tableau is rebuilt (`_reinvert`) when one exceeds DRIFT_TOL, or after
    REINVERT_CAP steps whatever they are.  The counters keep the number of
    factorizations and the largest residual.
    """

    def __init__(self, model, state):
        self.state = state
        m, nvars = model.rows.shape
        # normalize: divide each row by its largest coefficient
        self.scale = np.abs(model.rows).max(axis=1, initial=0.0)
        self.scale[self.scale == 0] = 1.0
        self.orig = model.rows / self.scale[:, None]
        # the slacks form the starting basis B = I
        self.basis = np.arange(nvars, nvars + m)
        self.nonbasic = np.arange(nvars)
        self.tab = _Tableau(self.orig.copy())
        self.rhs = model.rhs / self.scale
        self.xb = self.rhs.copy()
        self.ub = _filled(nvars + m, np.inf)
        self.ub[:nvars] = model.upper
        self.ubb = self.ub[self.basis]
        self.sign = _filled(nvars, 1.0)
        self.cost = np.zeros(nvars + m)
        self.cost[:nvars] = -model.objective
        # (rhs, basic values) solved for at the last refactorization, until
        # the next exchange or bound flip
        self._final = None
        # most iterations of the solve, primal and dual together
        self.limit = ITERATION_LIMIT

    def point(self):
        """Every variable's value at the current basis, by label."""
        x = np.zeros(len(self.ub))
        uppers = self.nonbasic[self.sign < 0]
        x[uppers] = self.ub[uppers]
        x[self.basis] = self.xb
        return x

    def _columns(self, labels, out):
        """Write the columns of the variables `labels` into out, which is
        zero, each slack column as its one entry."""
        nvars = self.orig.shape[1]
        slack = labels >= nvars
        own = (~slack).nonzero()[0]
        out[:, own] = self.orig[:, labels[own]]
        slack = slack.nonzero()[0]
        out[labels[slack] - nvars, slack] = 1.0

    def _basis_times(self, v, w):
        """B v + orig w for the basis matrix B, one row of the result for
        each pair of rows v and w of the arrays v and w, v by basis position
        and w by model variable, zero at the basic ones: each basic slack
        adds its one exact term, and the entries of v at basic model
        variables go into w, so that one product reads orig for all rows."""
        basis = self.basis
        nvars = self.orig.shape[1]
        slack = basis >= nvars
        srow = basis[slack] - nvars
        struct = ~slack
        out = np.zeros(v.shape)
        for row, x, y in zip(out, v, w):
            row[srow] = x[slack]
            y[basis[struct]] = x[struct]
        out += w @ self.orig.T
        return out

    def _drift(self, rhs, col, entering):
        """How far the exchanges have drifted from the model: the larger of
        the residual of the basic values, B x_B + (the columns at their
        upper bound, times it) - rhs, relative to max(1, |rhs|, |x_B|), and
        the residual of the tableau column col of the nonbasic variable
        `entering`, B col - its column, relative to max(1, |col|), in max
        norms; both from one product with orig.  Also kept in the counters
        as the largest seen."""
        nvars = self.orig.shape[1]
        w = np.zeros((2, nvars))
        uppers = self.nonbasic[self.sign < 0]
        w[0, uppers] = self.ub[uppers]
        if entering < nvars:
            w[1, entering] = -1.0
        values, column = self._basis_times(np.array((self.xb, col)), w)
        values -= rhs
        if entering >= nvars:
            column[entering - nvars] -= 1.0
        scale = max(1.0, float(np.abs(rhs).max(initial=0.0)),
                    float(np.abs(self.xb).max(initial=0.0)))
        drift = max(float(np.abs(values).max(initial=0.0)) / scale,
                    float(np.abs(column).max(initial=0.0))
                    / max(1.0, float(np.abs(col).max(initial=0.0))))
        state = self.state
        state["max_residual"] = max(state["max_residual"], drift)
        return drift

    def _solve_basis(self, y, cost=None):
        """B^-1 y for the basis matrix B, the columns of the basic variables,
        or None when B is singular or nearly so; with `cost`, by label, and y
        2-d, the pair of that and the simplex multipliers B^-T cost[basis],
        from the same block in one batched solve.  The basic slacks are
        eliminated directly: only the block of the other basic columns on the
        rows no basic slack covers is factored, and the covered rows follow
        by one product.  The block counts as nearly singular when a solved
        column of y shows its condition number to exceed 1 / RCOND_MIN
        (`_near_singular`); LU with partial pivoting flags only exact
        singularity, and returns entries of order 1 / eps for a block of
        deficient rank."""
        basis = self.basis
        nvars = self.orig.shape[1]
        slack = basis >= nvars
        cols = (~slack).nonzero()[0]
        covered = basis[slack] - nvars
        free = _filled(len(basis), True, bool)
        free[covered] = False
        rows = free.nonzero()[0]
        structural = basis[cols]
        cross = self.orig[covered[:, None], structural] \
            if len(cols) and len(covered) else None
        out = np.empty_like(y)
        if cost is not None:
            # a basic slack fixes the multiplier of its row, and the
            # structural columns the others: block^T prices = their costs
            # less what the covered rows already pay
            prices = np.empty(len(basis))
            prices[covered] = cost[basis[slack]]
        if len(cols):
            block, part = self.orig[rows[:, None], structural], y[rows]
            try:
                if cost is None:
                    solved = np.linalg.solve(block, part)
                else:
                    own = np.zeros(part.shape)
                    own[:, 0] = cost[structural]
                    if cross is not None:
                        own[:, 0] -= prices[covered] @ cross
                    solved, transposed = np.linalg.solve(
                        np.array((block, block.T)), np.array((part, own)))
                    prices[rows] = transposed[:, 0]
            except np.linalg.LinAlgError:
                return None
            if _near_singular(block, part, solved):
                return None
            out[cols] = solved
        if len(covered):
            rest = y[covered]
            if cross is not None:
                rest -= cross @ out[cols]
            out[slack] = rest
        self.state["refactorizations"] += 1
        return out if cost is None else (out, prices)

    def _upper_shift(self):
        """The columns of the nonbasic variables at their upper bound, times
        that bound, summed in label order (0.0 when there are none)."""
        uppers = np.sort(self.nonbasic[self.sign < 0])
        if not len(uppers):
            return 0.0
        return self.orig[:, uppers] @ self.ub[uppers]

    def _reinvert(self, rhs, final=None):
        """Rebuild the tableau and the basic values, unclipped, from the
        model's columns for the current basis, discarding the rounding error
        accumulated by the exchanges; one solve covers the nonbasic columns and
        the right-hand side together, and the right-hand side `final` too when
        given (kept for `evaluate`).  A singular basis returns False and
        changes nothing."""
        shift = self._upper_shift()
        nn = len(self.nonbasic)
        y = np.zeros((len(rhs), nn + (1 if final is None else 2)))
        self._columns(self.nonbasic, y[:, :nn])
        np.subtract(rhs, shift, y[:, nn])
        if final is not None:
            np.subtract(final, shift, y[:, nn + 1])
        solved = self._solve_basis(y)
        if solved is None:
            return False
        self.tab.reset(solved[:, :nn])
        self.xb = solved[:, nn].copy()
        self._final = None if final is None else (final,
                                                  solved[:, nn + 1].copy())
        return True

    def _confirm(self, cost, rhs, final):
        """Recheck optimality on a fresh factorization of the basis, without
        rebuilding the tableau: one solve gives the basic values at rhs
        (and at `final`) and the simplex multipliers, and one product
        prices every column.  When no nonbasic variable can improve the
        objective, the basic values replace xb (those at `final` are kept
        for `evaluate`) and this returns True; a singular basis counts as
        optimal too, as the accumulated tableau is all there is.  Returns
        False, changing nothing, when some variable can still improve."""
        shift = self._upper_shift()
        y = np.empty((len(rhs), 1 if final is None else 2))
        np.subtract(rhs, shift, y[:, 0])
        if final is not None:
            np.subtract(final, shift, y[:, 1])
        solved = self._solve_basis(y, cost)
        if solved is None:
            return True
        values, prices = solved
        # every column's price by label, a slack's the multiplier of its row
        priced = np.concatenate((prices @ self.orig, prices))
        nonbasic = self.nonbasic
        reduced = cost[nonbasic] - priced[nonbasic]
        reduced *= self.sign
        if len(reduced) and reduced[reduced.argmin()] < -PIVOT_TOL:
            return False
        self.xb = values[:, 0].copy()
        self._clip()
        self._final = None if final is None else (final, values[:, 1].copy())
        return True

    def _clip(self):
        np.maximum(self.xb, 0.0, out=self.xb)
        np.minimum(self.xb, self.ubb, out=self.xb)

    def _exchange(self, r, q, col, at_upper=False):
        """Pivot the tableau on (r, q) and trade the labels, the leaving
        variable resting at its upper bound when at_upper, else at 0;
        returns the new row r."""
        row = self.tab.exchange(r, q, col)
        entering = self.nonbasic[q]
        self.basis[r], self.nonbasic[q] = entering, self.basis[r]
        self.ubb[r] = self.ub[entering]
        self.sign[q] = -1.0 if at_upper else 1.0
        self._final = None
        return row

    def primal(self, cost, rhs, final=None):
        """Run bounded-variable simplex pivots until optimal or interrupted.

        cost is the objective to minimize, by label, and rhs the normalized
        right-hand sides that the tableau is refactorized against when it
        drifts (see the class); `final`, when given, is solved for by the
        same refactorizations (see `evaluate`).  Optimality is confirmed on
        a fresh factorization of the basis (`_confirm`), which rebuilds no
        tableau unless some column can still improve.  No anti-cycling rule
        runs: the perturbed right-hand sides of `_optimize` make ratio-test
        ties generically unique, and ITERATION_LIMIT ends a stalled solve.
        Returns 'optimal', 'unbounded', or 'iteration_limit'.
        """
        state, tab, ub, limit = self.state, self.tab, self.ub, self.limit
        basis, nonbasic, sign, ubb = (self.basis, self.nonbasic, self.sign,
                                      self.ubb)
        m, nn = len(basis), len(nonbasic)
        gamma = np.empty(nn)  # Devex reference weights
        gamma.fill(1.0)
        # work buffers: pricing over the columns, the ratio test over the
        # rows
        score, eligible = np.empty(nn), np.empty(nn, dtype=bool)
        flipped, size, room, ratios = (np.empty(m), np.empty(m), np.empty(m),
                                       np.empty(m))
        drops, blocking = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        fresh = drifted = False
        since_reinvert = since_check = 0
        reduced = cost[nonbasic] - cost[basis] @ tab.dense()
        while True:
            if state["iterations"] >= limit:
                return "iteration_limit"
            if drifted or since_reinvert >= REINVERT_CAP:
                fresh = self._reinvert(rhs, final)
                self._clip()
                drifted = False
                since_reinvert = since_check = 0
                reduced = cost[nonbasic] - cost[basis] @ tab.dense()
                gamma.fill(1.0)
            # a nonbasic variable improves the objective by moving off its
            # bound when its reduced cost has the opposite sign to its
            # direction
            np.multiply(reduced, sign, score)
            np.less(score, _NEG_TOL, eligible)
            if not (nn and eligible[eligible.argmax()]):
                if fresh or self._confirm(cost, rhs, final):
                    return "optimal"
                # the fresh prices show an improving column: go on from a
                # rebuilt tableau, unless its solve finds the basis nearly
                # singular
                if not self._reinvert(rhs, final):
                    return "optimal"
                self._clip()
                fresh = True
                since_reinvert = since_check = 0
                reduced = cost[nonbasic] - cost[basis] @ tab.dense()
                gamma.fill(1.0)
                continue
            # Devex pricing: largest reduced cost relative to the reference
            # weights, approximating the steepest-edge criterion; ties (see
            # TIE_TOL) go to the smallest label
            np.multiply(reduced, reduced, score)
            np.divide(score, gamma, score)
            np.multiply(score, eligible, score)
            q = int(score.argmax())
            top = score[q]
            near = top - top * TIE_TOL
            score[q] = -1.0
            if score[score.argmax()] >= near:
                score[q] = top
                cand = (score >= near).nonzero()[0]
                q = int(cand[nonbasic[cand].argmin()])
            entering = nonbasic[q]
            direction = sign[q]
            # col is the rate of decrease of each basic value per unit step of
            # the entering variable away from its current bound
            raw = tab.column(q)
            if since_check >= DELAY:
                since_check = 0
                if self._drift(rhs, raw, entering) > DRIFT_TOL:
                    drifted = True
                    continue
            col = raw if direction > 0.0 else np.negative(raw, flipped)
            xb = self.xb
            # two-pass ratio test: find the minimum ratio, then pivot on the
            # largest blocking entry within a tiny relative window of it,
            # which keeps ill-conditioned pivots out of the basis.  A basic
            # variable blocks by dropping to 0 or rising to its bound; one
            # rising to an infinite bound gets an infinite ratio.  The basic
            # values lie within their bounds, so no room is negative
            np.abs(col, size)
            np.greater(col, _TOL, drops)
            np.greater(size, _TOL, blocking)
            np.subtract(ubb, xb, room)
            np.copyto(room, xb, where=drops)
            ratios.fill(np.inf)
            np.divide(room, size, ratios, where=blocking)
            t_lim = float(ratios[ratios.argmin()]) if m else np.inf
            t_lim += t_lim * 1e-7 + PIVOT_TOL
            if t_lim == np.inf or t_lim > ub[entering] + PIVOT_TOL:
                # no basic variable blocks before the entering variable
                # reaches its opposite bound: flip it (or detect unboundedness)
                if ub[entering] == np.inf:
                    return "unbounded"
                np.multiply(col, ub[entering], size)
                np.subtract(xb, size, xb)
                self._clip()
                sign[q] = -direction
                self._final = None
                state["bound_flips"] += 1
                state["iterations"] += 1
                since_reinvert += 1
                since_check += 1
                fresh = False
                continue
            # the largest |col| among the near-minimal ratios, first by row
            np.less_equal(ratios, t_lim, blocking)
            np.multiply(size, blocking, room)
            r = int(room.argmax())
            best = max(float(ratios[r]), 0.0)
            if best < PIVOT_TOL:
                state["degenerate_pivots"] += 1
            np.multiply(col, best, size)
            np.subtract(xb, size, xb)
            xb[r] = ub[entering] - best if direction < 0 else best
            d_q = reduced[q]
            g_q = gamma[q]
            # a blocking variable with a negative rate rises to its bound
            row = self._exchange(r, q, raw, at_upper=col[r] < 0.0)
            # reduced costs and Devex weights follow the same exchange, from
            # the pivot row after the pivot
            np.multiply(row, d_q, score)
            np.subtract(reduced, score, reduced)
            reduced[q] = -d_q * row[q]
            np.multiply(row, row, score)
            np.multiply(score, g_q, score)
            np.maximum(gamma, score, out=gamma)
            gamma[q] = max(g_q * row[q] * row[q], 1.0)
            if gamma[gamma.argmax()] > 1e12:
                gamma.fill(1.0)
            np.maximum(xb, _ZERO, out=xb)
            np.minimum(xb, ubb, out=xb)
            state["iterations"] += 1
            since_reinvert += 1
            since_check += 1
            fresh = False

    def evaluate(self, rhs):
        """Move the current basis to the normalized right-hand sides rhs.

        The tableau is freshly factored and does not depend on rhs, so only
        the basic values are solved for, unless the last refactorization
        solved for this very rhs (`primal`'s `final`) and the basis has not
        changed since.  When they leave their bounds, the basis, still dual
        feasible, is repaired by dual simplex pivots.  Returns 'optimal',
        'iteration_limit' or 'numerical_error'.
        """
        final = self._final
        if final is not None and final[0] is rhs:
            values = final[1]
        else:
            values = self._solve_basis(rhs - self._upper_shift())
        status = "optimal"
        if values is not None:
            self.xb = values
            bad = self._infeasible()
            if len(bad) and bad[bad.argmax()]:
                # the repair pivots on a freshly factored tableau
                self._reinvert(rhs)
                status = self.dual(rhs)
        self._clip()
        return status

    def _infeasible(self):
        """Which basic values lie beyond their bounds by more than the
        feasibility tolerance, relative to the value."""
        excess = np.maximum(-self.xb, self.xb - self.ubb)
        return excess > FEAS_TOL * np.maximum(1.0, np.abs(self.xb))

    def dual(self, rhs):
        """Bounded dual simplex pivots from a dual feasible basis until the
        basic values, on a freshly factored tableau, keep their bounds.

        The basic variable furthest beyond a bound leaves at that bound;
        the ratio test over its row picks the entering variable whose
        reduced cost reaches 0 first, so every reduced cost keeps its sign.
        The reduced costs are the model objective's.  Returns 'optimal',
        'iteration_limit', or 'numerical_error' when no variable can enter
        (the rows would be infeasible, which the origin's feasibility rules
        out) or the repair runs past REPAIR_LIMIT pivots.
        """
        state, tab, ub = self.state, self.tab, self.ub
        basis, nonbasic, cost = self.basis, self.nonbasic, self.cost
        sign, ubb = self.sign, self.ubb
        reduced = cost[nonbasic] - cost[basis] @ tab.dense()
        fresh, drifted = True, False
        since_reinvert = since_check = 0
        while True:
            xb = self.xb
            bad = self._infeasible()
            if not bad.any() and fresh:
                return "optimal"
            # refactorize on drift or at the cap, and recheck feasibility
            # against a freshly factored tableau
            if not bad.any() or drifted or since_reinvert >= REINVERT_CAP:
                if not self._reinvert(rhs):
                    return "numerical_error"
                fresh, drifted = True, False
                since_reinvert = since_check = 0
                reduced = cost[nonbasic] - cost[basis] @ tab.dense()
                continue
            if state["iterations"] >= self.limit:
                return "iteration_limit"
            if state["repair_pivots"] >= REPAIR_LIMIT:
                return "numerical_error"
            excess = np.maximum(-xb, xb - ubb)
            r = int(np.argmax(np.where(bad, excess, -np.inf)))
            below = xb[r] < 0.0
            # a nonbasic variable can enter when its move off its bound
            # pushes basic variable r back towards the bound it crossed
            row = tab.row(r)
            move = row * sign
            if below:
                np.negative(move, out=move)
            can = move > PIVOT_TOL
            if not can.any():
                return "numerical_error"
            # two-pass ratio test, as in the primal: the largest entry among
            # the near-minimal ratios
            ratios = np.full(len(nonbasic), np.inf)
            np.divide(np.maximum(reduced * sign, 0.0), move, where=can,
                      out=ratios)
            t_lim = ratios.min()
            t_lim += t_lim * 1e-7 + PIVOT_TOL
            cand = np.nonzero(ratios <= t_lim)[0]
            q = int(cand[np.argmax(np.abs(row[cand]))])
            entering = nonbasic[q]
            col = tab.column(q)
            if since_check >= DELAY:
                since_check = 0
                if self._drift(rhs, col, entering) > DRIFT_TOL:
                    drifted = True
                    continue
            theta = (xb[r] - (0.0 if below else ubb[r])) / col[r]
            xb -= theta * col
            xb[r] = (ub[entering] if sign[q] < 0 else 0.0) + theta
            d_q = reduced[q]
            row = self._exchange(r, q, col, at_upper=not below)
            reduced -= d_q * row
            reduced[q] = -d_q * row[q]
            state["iterations"] += 1
            state["repair_pivots"] += 1
            since_reinvert += 1
            since_check += 1
            fresh = False


def _near_singular(block, y, x):
    """Whether the solve x = block^-1 y shows the block to be numerically
    singular: for each column, ||block|| ||x_j|| / ||y_j|| (max norms) is a
    lower bound on the block's condition number, which must stay within
    1 / RCOND_MIN."""
    sums = np.abs(block).sum(1)
    # some column's ||x_j|| times ||block|| RCOND_MIN exceeds ||y_j||
    excess = np.abs(x)
    excess *= float(sums[sums.argmax()]) * RCOND_MIN
    excess -= np.abs(y).max(0)
    return bool(excess.ravel()[excess.argmax()] > 0.0)


# the scales `_lift_scales` hands out, grown on demand
_LIFTS = [np.empty(0)]


def _lift_scales(count):
    """1e-6 (0.5 + 0.5 u) for each of the first `count` draws u of
    np.random.default_rng(1).random: the perturbation scales of
    `_optimize`, kept between solves.  A longer stream of draws starts
    with the draws of a shorter one, so regrowing the store changes no
    scale."""
    if len(_LIFTS[0]) < count:
        draws = np.random.default_rng(1).random(max(count, 2 * len(_LIFTS[0])))
        _LIFTS[0] = 1e-6 * (0.5 + 0.5 * draws)
    return _LIFTS[0][:count]


def _filled(count, value, dtype=float):
    """np.full(count, value, dtype) without its Python-level wrapper, which
    costs a small solve more than the array."""
    out = np.empty(count, dtype)
    out.fill(value)
    return out


def _counters():
    return {"iterations": 0, "degenerate_pivots": 0, "bound_flips": 0,
            "refactorizations": 0, "repair_pivots": 0, "max_residual": 0.0}


def _solution(status, state, value=None, primal=None):
    stats = {k: v for k, v in state.items() if k != "iterations"}
    return LpSolution(status, value, primal, state["iterations"], stats)


def _optimize(model, state):
    """The primal simplex over the model from the basis of its slacks: the
    status and the simplex, whose basis is, when 'optimal', optimal for
    slightly perturbed right-hand sides, and whose last refactorization has
    solved for the true ones, sx.rhs, as well."""
    sx = _Simplex(model, state)
    # anti-degeneracy: raise each basic value by a tiny random amount, that
    # is, perturb the right-hand sides along the slack basis, so ratio-test
    # ties become generically unique while the basis stays feasible.  Which
    # bases are optimal depends only on the reduced costs, so the caller
    # evaluates the final basis against the true right-hand sides
    rhs = sx.rhs
    lift = _lift_scales(len(rhs)) * np.maximum(1.0, np.abs(rhs))
    perturbed = rhs + sx._basis_times(lift[None],
                                      np.zeros((1, sx.orig.shape[1])))[0]
    sx.xb += lift
    sx._clip()
    return sx.primal(sx.cost, perturbed, final=rhs), sx


def solve(model):
    """Bounded primal simplex over the model (0 <= x <= ub), feasible at the
    origin, from the basis of its slacks, on a condensed tableau of the
    nonbasic columns, with a dual simplex repair of the final basis at the
    unperturbed right-hand sides.  Returns 'optimal', 'unbounded',
    'iteration_limit' or 'numerical_error'."""
    state = _counters()
    status, sx = _optimize(model, state)
    if status == "optimal":
        status = sx.evaluate(sx.rhs)
    if status != "optimal":
        return _solution(status, state)
    primal = sx.point()[:model.nvars()]
    # re-verify primal feasibility against the original model: no row may
    # exceed its rhs by more than FEAS_TOL relative to its terms
    coeffs, b = model.rows, model.rhs
    excess = coeffs @ primal
    excess -= b
    slack = np.abs(coeffs) @ np.abs(primal)
    np.maximum(slack, np.abs(b), out=slack)
    np.maximum(slack, 1.0, out=slack)
    slack *= FEAS_TOL
    bad = excess > slack
    if len(bad) and bad[bad.argmax()]:
        return _solution("numerical_error", state)
    value = float(np.dot(model.objective, primal))
    return _solution("optimal", state, value, primal.tolist())


class BoundReport:
    """An upper bound on A(n, d; A) together with the raw LP optimum, and
    the orbit structure the LP was built over, if any."""

    __slots__ = ("n", "d", "constraint", "lp_value", "code_size_bound",
                 "comparators", "solution", "model", "structure")

    def __init__(self, n, d, constraint, lp_value, code_size_bound,
                 comparators=None, solution=None, model=None,
                 structure=None):
        self.n = n
        self.d = d
        self.constraint = constraint
        self.lp_value = lp_value
        self.code_size_bound = code_size_bound
        self.comparators = comparators or {}
        self.solution = solution
        self.model = model
        self.structure = structure

    def __repr__(self):
        return "BoundReport(n=%d, d=%d, code_size_bound=%.6g)" % (
            self.n, self.d, self.code_size_bound)


class SolverError(RuntimeError):
    """A bound program's LP did not reach an optimal solution."""


def _solved(model, what):
    sol = solve(model)
    if sol.status != "optimal":
        raise SolverError("%s: solver returned %s" % (what, sol.status))
    return sol


def _dedupe(rows, rhs):
    """The rows of `rows` and `rhs` with each distinct (rhs, row) kept at
    its first occurrence only, in the original order.  Rows compare as the
    bytes of their floats, -0.0 turned into 0.0 first."""
    key = np.ascontiguousarray(np.column_stack((rhs, rows)) + 0.0)
    _, first = np.unique(key.view((np.void, key.itemsize * key.shape[1])),
                         return_index=True)
    keep = np.sort(first)
    return rows[keep], rhs[keep]


def del_classic(n, d):
    """The distance-distribution form of Delsarte's LP.

    Variables a_d..a_n (a_0 = 1 substituted, a_1..a_{d-1} = 0): maximize
    1 + sum a_j subject to sum_j a_j K_k(j) >= -K_k(0) for every k, stated
    as -sum_j a_j K_k(j) <= K_k(0).
    """
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    kraw = np.array(krawtchouk_table(n).table, dtype=float)
    rows, rhs = _dedupe(-kraw[:, d:], kraw[:, 0])
    model = LpModel(np.ones(n + 1 - d), rows, rhs)
    sol = _solved(model, "del_classic(%d, %d)" % (n, d))
    value = 1.0 + sol.value
    return BoundReport(n, d, None, value, value, solution=sol, model=model)


def del_full(n, d):
    """The 2^n-variable Delsarte LP, for cross-validating symmetrization;
    its 2^n rows are capped like the orbit rows of the constrained LP."""
    if n > ORBIT_ROW_CAP.bit_length() - 1:
        raise CapExceeded("del_full refuses n=%d: 2^n rows > cap %d"
                          % (n, ORBIT_ROW_CAP))
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    # f(0) = 1 substituted; f = 0 below distance d drops those variables;
    # each transform row, >= -1, is stated negated
    words = np.arange(1 << n, dtype=np.int64)
    variables = words[_popcount(words) >= d]
    rows, rhs = _dedupe(2.0 * _parity(words[:, None] & variables) - 1.0,
                        np.ones(1 << n))
    model = LpModel(np.ones(len(variables)), rows, rhs)
    sol = _solved(model, "del_full(%d, %d)" % (n, d))
    value = 1.0 + sol.value
    return BoundReport(n, d, None, value, value, solution=sol, model=model)


def del_constrained_orbits(structure, d):
    """The constrained Delsarte LP reduced over the orbits of a symmetry
    group of A (`orbit_structure`): one variable per orbit, one transform
    row per orbit representative.

    max sum f(x) with f >= 0, the transform of f nonnegative, f = 0 at
    weights 1..d-1, f(0) bounded by the classic optimum, and f bounded
    pointwise by the self-convolution counts of A, which the structure
    keeps at its representatives (`OrbitStructure.conv`), so that the cells
    of a table column share one check.  Averaging an optimum over the group
    keeps it feasible and optimal, so the optimum is the same for every
    group that fixes A; the trivial group (one orbit per word) gives the
    unsymmetrized 2^n-row LP.  The code-size bound is the square root of
    the optimum.  Refuses groups with more than ORBIT_ROW_CAP orbits (the
    2^12 rows of the trivial group at n = 12), since the model is a dense
    row-by-column tableau, before the counts are read.
    """
    n = structure.n
    constraint = structure.constraint
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if len(structure.sizes) > ORBIT_ROW_CAP:
        raise CapExceeded("constrained Delsarte LP refuses %d orbits of the %s "
                          "group at n=%d > cap %d" % (len(structure.sizes),
                                                      structure.group, n,
                                                      ORBIT_ROW_CAP))
    conv = structure.conv
    delsarte = del_classic(n, d).lp_value
    size = cardinality(constraint, n)
    # f(0) = u0, its upper bound, is optimal: the zero word is always a
    # singleton orbit (the smallest representative) with coefficient +1 in
    # every transform row and in the objective.  Each transform row, >= -u0,
    # is stated negated, -char_sums <= u0, so the origin is strictly
    # feasible, as `solve` needs
    reps = structure.reps
    u0 = min(float(conv[reps.argmin()]), delsarte)
    columns = np.flatnonzero((_popcount(reps) >= d) & (conv > 0))
    rows, rhs = _dedupe(-structure.char_sums(columns), np.full(len(reps), u0))
    model = LpModel(structure.sizes[columns], rows, rhs, upper=conv[columns])
    sol = _solved(model, "constrained Delsarte LP (%d, %d, %s) over the %s "
                  "group" % (n, d, constraint, structure.group))
    value = u0 + sol.value
    bound = math.sqrt(max(value, 0.0))
    return BoundReport(n, d, constraint, value, bound,
                       comparators={"delsarte": delsarte,
                                    "cardinality": size},
                       solution=sol, model=model, structure=structure)


def del_constrained(n, d, constraint):
    """The constrained Delsarte LP, solved over the orbits of the
    constraint's symmetry group (see `del_constrained_orbits`); refuses n
    at which the 2^n rows of the unsymmetrized LP exceed ORBIT_ROW_CAP,
    whatever the group."""
    if n > ORBIT_ROW_CAP.bit_length() - 1:
        raise CapExceeded("del_constrained refuses n=%d: 2^n rows > cap %d"
                          % (n, ORBIT_ROW_CAP))
    return del_constrained_sym(n, d, constraint)


def del_constrained_sym(n, d, constraint):
    """The constrained Delsarte LP over the orbits of the constraint's
    symmetry group G, capped by their number, at least 2^n / |G| (checked
    before any word is keyed), instead of n."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    constraint.check_length(n)
    # orbit_structure refuses larger n at once; some orders are factorials
    if n <= MEMBER_ENUM_CAP and \
            1 << n > ORBIT_ROW_CAP * constraint.orbits.order(constraint, n):
        raise CapExceeded("constrained Delsarte LP refuses n=%d: the %s group "
                          "leaves more than %d orbits"
                          % (n, constraint.orbits.group, ORBIT_ROW_CAP))
    return del_constrained_orbits(orbit_structure(constraint, n), d)


def _undominated(matrix):
    """Ascending indices of the columns of a nonnegative matrix left after
    dropping every column that is entrywise at least a kept column (of
    identical columns the first is kept).  Columns are visited by their
    sum, so a column's dominators come before it.

    By transitivity a column is dropped exactly when some column before it
    in that order is entrywise at most it, dropped or not.  So each block of
    64 columns is compared with the kept columns before it and with the
    columns before each one inside the block.  A column at most another is
    zero wherever the other is, so the supports, packed into bitsets, are
    compared first, and the values only of the pairs whose support is a
    subset; at most PAIR_BLOCK support words or matrix entries at once."""
    order = np.argsort(matrix.sum(axis=0), kind="stable")
    columns = np.ascontiguousarray(matrix.T[order])
    count, m = columns.shape
    words = max(1, -(-m // 64))
    packed = np.zeros((count, 8 * words), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(columns > 0, axis=1)
    support = packed.view(np.uint64)
    keep = np.zeros(count, dtype=bool)
    pair_step = max(1, PAIR_BLOCK // max(1, m))
    for lo in range(0, count, 64):
        hi = min(lo + 64, count)
        inside = np.arange(lo, hi)
        before = np.concatenate((np.flatnonzero(keep[:lo]), inside))
        outside = ~support[lo:hi]
        dropped = np.zeros(hi - lo, dtype=bool)
        step = max(1, PAIR_BLOCK // ((hi - lo) * words))
        for start in range(0, len(before), step):
            part = before[start:start + step]
            pairs = ~(support[part, None, :] & outside).any(axis=2)
            pairs &= part[:, None] < inside
            i, j = pairs.nonzero()
            for at in range(0, len(i), pair_step):
                a, b = part[i[at:at + pair_step]], j[at:at + pair_step]
                below = (columns[a] <= columns[lo + b]).all(axis=1)
                dropped[b[below]] = True
        keep[lo:hi] = ~dropped
    return np.sort(order[keep]).tolist()


# largest n of the sphere-packing LP, whose balls enumerate up to 2^n words
GENSPH_N_CAP = 16


def gensph(n, d, constraint, structure=None):
    """Generalized sphere-packing bound with radius t = floor((d-1)/2).

    The bound is the minimum fractional transversal: weights on the members
    of A such that every point within distance t of A is covered by total
    weight at least 1.  Solved in the dual (max) form aggregated over the
    orbits of the constraint's symmetry group: variables U_O = total weight
    on orbit O, one row per orbit of members.  Averaging over the group
    preserves feasibility and the objective, so the optimum is unchanged.
    Every column has objective 1 and every row is <= 1 with nonnegative
    coefficients, so a column entrywise at least another is dominated (its
    weight can move to the other) and is dropped.  `structure` is the
    constraint's `orbit_structure` at length n, built here when not given.
    """
    if n > GENSPH_N_CAP:
        raise CapExceeded("gensph refuses n=%d > cap %d" % (n, GENSPH_N_CAP))
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    t = (d - 1) // 2
    struct = orbit_structure(constraint, n) if structure is None else structure
    norbits = len(struct.sizes)
    members = struct.reps[member_array(constraint, n, struct.reps)]
    # the radius-t ball around x is x XOR each word of weight <= t
    words = np.arange(1 << n, dtype=np.int64)
    masks = words[_popcount(words) <= t]
    # (member row, orbit position) keys with their ball counts, a bounded
    # block of member balls at a time
    keys, counts = [], []
    step = max(1, BALL_BLOCK // len(masks))
    for lo in range(0, len(members), step):
        block = members[lo:lo + step]
        offset = np.arange(lo, lo + len(block))[:, None] * norbits
        key, count = np.unique(offset + struct.index[block[:, None] ^ masks],
                               return_counts=True)
        keys.append(key)
        counts.append(count)
    row, orbit = np.divmod(np.concatenate(keys), norbits)
    # columns: the covered orbits in orbit order, entry k / |orbit| for k
    # points of the orbit in the member's ball
    covered, column = np.unique(orbit, return_inverse=True)
    matrix = np.zeros((len(members), len(covered)))
    matrix[row, column] = np.concatenate(counts) / struct.sizes[orbit]
    rows = matrix[:, _undominated(matrix)]
    model = LpModel(np.ones(rows.shape[1]), rows, np.ones(len(rows)))
    sol = _solved(model, "gensph(%d, 2t+1=%d, %s)" % (n, 2 * t + 1, constraint))
    return BoundReport(n, d, constraint, sol.value, sol.value,
                       comparators={"cardinality": cardinality(constraint, n)},
                       solution=sol, model=model, structure=struct)


class CertificateRejected(ValueError):
    """The supplied dual certificate violates one of its conditions."""


# largest n of a dual certificate, a vector of 2^n entries, and the
# tolerance of its conditions, relative to 2^n
CERTIFICATE_N_CAP = 16
CERTIFICATE_TOL = 1e-9


def dual_certificate_bound(n, d, constraint, beta):
    """Verify a dual certificate and return the bound it implies.

    beta is a length-2^n real vector.  Conditions, each up to
    CERTIFICATE_TOL times 2^n: its transform is nonnegative everywhere;
    beta <= 0 at weights >= d; beta sums to 2^n.  The certified bound is
    beta(0) * min(classic optimum, |A|).
    """
    if n > CERTIFICATE_N_CAP:
        raise CapExceeded("dual_certificate_bound refuses n=%d > cap %d"
                          % (n, CERTIFICATE_N_CAP))
    beta = [float(v) for v in beta]
    if len(beta) != 1 << n:
        raise ValueError("beta must have 2^%d entries" % n)
    transform = wht(beta).values
    scale = float(1 << n)
    slack = CERTIFICATE_TOL * scale
    if min(transform) < -slack:
        raise CertificateRejected("transform of beta is negative somewhere")
    heavy = _popcount(np.arange(1 << n, dtype=np.int64)) >= d
    if (np.array(beta)[heavy] > slack).any():
        raise CertificateRejected("beta is positive at a point of weight >= d")
    if abs(sum(beta) - scale) > slack:
        raise CertificateRejected("beta does not sum to 2^n")
    constraint.check_length(n)
    size = cardinality(constraint, n)
    v = del_classic(n, d).lp_value
    return beta[0] * min(v, size)
