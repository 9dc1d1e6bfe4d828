"""Dense LP modeling, a bundled two-phase simplex solver, and the bound
programs: Delsarte's LP (classic, full, constrained, symmetrized), the
generalized sphere-packing baseline, and dual-certificate verification.

All programs are small and dense by LP standards, so a tableau simplex with
numpy suffices; no external solver is required.  Each builder hands its
arrays (matrix `rows`, `relations`, `rhs`, and `upper` with inf for no bound)
straight to an `LpModel`, `_dedupe` keeping each row's first occurrence.
The solver keeps the condensed tableau B^-1 A_N, m rows by the nonbasic
columns only: a pivot exchanges one basic and one nonbasic label.  It
writes its pivot row and column exactly and leaves its rank-1 update of the
other entries pending; every DELAY pivots the pending updates reach the
tableau as one matrix product, so the m x |N| rewrite runs in BLAS-3, not
as two numpy passes per pivot.  A refactorization eliminates the basic
slack and artificial columns, which are signed unit vectors, directly and
factors only the block of the other basic columns on the rows those leave
free; it solves for the nonbasic columns and the right-hand side together.
Phase 2 runs on perturbed right-hand sides; the final basis is evaluated at
the true ones by one solve for the basic values, and if that leaves it
primal infeasible, dual simplex pivots repair it (it stays dual feasible).
"""

import math

import numpy as np

from .constraints import (MEMBER_ENUM_CAP, cardinality, member_array,
                          orbit_structure)
from .errors import CapExceeded
from .spectral import (_check_conv_cap, _parity, _popcount,
                       krawtchouk_table, self_convolution_counts, wht)

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
ITERATION_LIMIT = 10 ** 6
REINVERT_EVERY = 250
# exchanges whose rank-1 updates of the tableau wait to be applied together
DELAY = 32
# tableaux with fewer entries apply every exchange at once: the bookkeeping
# costs them more than the matrix product saves (crossover between 1.2k and
# 2.7k entries, measured on rll:d=1 models at n = 6..9)
DELAY_MIN_ENTRIES = 1 << 11
# most dual simplex pivots repairing the final basis
REPAIR_LIMIT = 1000
# most orbits (= transform rows) of a constrained Delsarte LP
ORBIT_ROW_CAP = 1 << 12
# most ball points gensph maps to orbits at once, and most entries
# `_undominated` compares at once (unless the matrix itself is larger)
BALL_BLOCK = 1 << 20


class LpModel:
    """max/min objective . x subject to rows @ x (relations: "<=", ">=" or
    "=") rhs, row by row, and 0 <= x <= upper, inf (the default) for none."""

    def __init__(self, sense, objective, rows, relations, rhs, upper=None):
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        self.sense = sense
        self.objective = np.asarray(objective, dtype=float)
        nvars = len(self.objective)
        self.rows = np.ascontiguousarray(rows, dtype=float)
        self.relations = np.asarray(relations)
        self.rhs = np.asarray(rhs, dtype=float)
        self.upper = np.full(nvars, np.inf) if upper is None else \
            np.asarray(upper, dtype=float)
        m = len(self.rows)
        if (self.rows.shape, self.relations.shape, self.rhs.shape,
                self.upper.shape) != ((m, nvars), (m,), (m,), (nvars,)):
            raise ValueError("rows, relations, rhs and upper disagree in "
                             "shape with %d variables" % nvars)
        if not np.isin(self.relations, ("<=", ">=", "=")).all():
            raise ValueError("relation must be <=, >=, or =")

    def nvars(self):
        return len(self.objective)


class LpSolution:
    """Solver outcome: status, objective value, primal point, iteration
    count (pivots plus bound flips), and the solver counters in `stats`:
    degenerate pivots, bound flips, basis factorizations (the final
    evaluation included), whether Bland's rule took over, and the dual
    simplex pivots that repaired the final basis."""

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
        fh.write("%s %s\n" % (model.sense,
                              " ".join("%.17g" % v for v in model.objective)))
        for coeffs, rel, rhs in zip(model.rows, model.relations, model.rhs):
            fh.write("%s %s %.17g\n"
                     % (" ".join("%.17g" % v for v in coeffs), rel, rhs))
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
        if self.k:
            return self.base[i] - self.p[i, :self.k] @ self.q[:self.k]
        return self.base[i].copy()

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
        u = col.copy()
        u[r] = 0.0
        k = self.k
        if len(self.q):
            # row r and column q are written exactly below, so their pending
            # updates are void
            self.p[r, :k] = 0.0
            self.q[:k, q] = 0.0
            self.p[:, k] = u
            self.q[k] = v
            self.q[k, q] = 0.0
            self.k = k + 1
        else:
            self.base -= np.outer(u, v)
        self.base[r] = v
        self.base[:, q] = u / -piv
        self.base[r, q] = 1.0 / piv
        if self.k == len(self.q):
            self.dense()
        return self.base[r]


class _Simplex:
    """The bounded simplex over the model's rows, normalized.

    Variables are labelled by their columns in `orig`: the model's
    variables, one slack per inequality (+1 on <=, -1 on >=) and one
    artificial per >= or = row, in that order.  A slack or artificial
    column is a signed unit vector, in row unit_row[label] with sign
    unit_sign[label]; unit_row is -1 for every other column.  Row i of the
    condensed tableau `tab` belongs to the basic variable basis[i] and
    column j to the nonbasic variable nonbasic[j], and xb holds the basic
    values.  Nonbasic variables rest at 0 or, where at_upper is set, at
    their upper bound ub.  `cost` is the model's objective to minimize, by
    label, `kept` the model rows still in use (phase 1 drops redundant
    ones), and `state` the solver counters.
    """

    def __init__(self, model, state):
        self.state = state
        m, nvars = model.rows.shape
        le_raw = model.relations == "<="
        ge_raw = model.relations == ">="
        # normalize: scale each row by its largest coefficient, flip so rhs
        # >= 0
        self.scale = np.abs(model.rows).max(axis=1, initial=0.0)
        self.scale[self.scale == 0] = 1.0
        self.flip = model.rhs < 0
        self.kept = np.arange(m)
        arr = model.rows / self.scale[:, None]
        arr[self.flip] = -arr[self.flip]
        le = np.where(self.flip, ge_raw, le_raw)

        # the slacks of <= rows and the artificials form the starting basis
        # B = I
        slack_rows = np.nonzero(le_raw | ge_raw)[0]
        art_rows = np.nonzero(~le)[0]
        self.a0 = nvars + len(slack_rows)
        total = self.a0 + len(art_rows)
        self.unit_row = np.concatenate((np.full(nvars, -1), slack_rows,
                                        art_rows))
        self.unit_sign = np.ones(total)
        self.unit_sign[nvars:self.a0] = np.where(le[slack_rows], 1.0, -1.0)
        self.orig = np.zeros((m, total))
        self.orig[:, :nvars] = arr
        self.orig[self.unit_row[nvars:], np.arange(nvars, total)] = \
            self.unit_sign[nvars:]
        self.basis = np.zeros(m, dtype=int)
        self.basis[slack_rows] = nvars + np.arange(len(slack_rows))
        self.basis[art_rows] = self.a0 + np.arange(len(art_rows))
        is_nonbasic = np.ones(total, dtype=bool)
        is_nonbasic[self.basis] = False
        self.nonbasic = np.nonzero(is_nonbasic)[0]
        self.tab = _Tableau(self.orig[:, self.nonbasic])
        self.xb = self.normalized(model.rhs)
        self.ub = np.full(total, np.inf)
        self.ub[:nvars] = model.upper
        self.at_upper = np.zeros(total, dtype=bool)
        self.cost = np.zeros(total)
        self.cost[:nvars] = \
            -model.objective if model.sense == "max" else model.objective

        # crash: a >= or = row whose only use of some positive column is
        # that row can start with that column basic instead of an
        # artificial, avoiding the degenerate vertex a full phase 1 would
        # end at; columns 0..nvars-1 of the starting tableau are the
        # variables
        col_nnz = (np.abs(arr) > PIVOT_TOL).sum(axis=0)
        for i in art_rows:
            row = self.tab.row(i)[:nvars]
            for j in np.nonzero((row > PIVOT_TOL) & (col_nnz == 1)
                                & (self.nonbasic[:nvars] < nvars))[0]:
                if self.xb[i] / row[j] <= self.ub[j]:
                    self._enter_at_zero(i, j)
                    break

    def normalized(self, b):
        """Right-hand sides b of the model, normalized, on the rows in use."""
        b = b / self.scale
        b[self.flip] = -b[self.flip]
        return b[self.kept]

    def point(self):
        """Every variable's value at the current basis, by label."""
        x = np.zeros(len(self.ub))
        x[self.at_upper] = self.ub[self.at_upper]
        x[self.basis] = self.xb
        return x

    def _solve_basis(self, y):
        """B^-1 y for the basis matrix B = orig[:, basis], or None when B is
        singular.  The basic unit columns are eliminated directly: only the
        block of the other basic columns on the rows no basic unit column
        covers is factored, and the covered rows follow by one product."""
        urow = self.unit_row[self.basis]
        unit = urow >= 0
        covered = urow[unit]
        free = np.ones(len(self.basis), dtype=bool)
        free[covered] = False
        rows = np.nonzero(free)[0]
        cols = np.nonzero(~unit)[0]
        if len(rows) != len(cols):  # two basic unit columns share a row
            return None
        structural = self.basis[cols]
        out = np.empty_like(y)
        try:
            out[cols] = np.linalg.solve(self.orig[rows[:, None], structural],
                                        y[rows])
        except np.linalg.LinAlgError:
            return None
        sign = self.unit_sign[self.basis[unit]]
        rest = y[covered]
        rest -= self.orig[covered[:, None], structural] @ out[cols]
        rest *= sign[:, None] if y.ndim == 2 else sign
        out[unit] = rest
        self.state["refactorizations"] += 1
        return out

    def _minus_uppers(self, rhs):
        """rhs less the columns of the nonbasic variables at their upper
        bound, times that bound."""
        uppers = np.nonzero(self.at_upper)[0]
        return rhs - self.orig[:, uppers] @ self.ub[uppers]

    def _reinvert(self, rhs):
        """Rebuild the tableau and the basic values, unclipped, from orig
        for the current basis, discarding the rounding error accumulated by
        the exchanges; one solve covers the nonbasic columns and the
        right-hand side together.  A singular basis returns False and
        changes nothing."""
        solved = self._solve_basis(np.column_stack(
            (self.orig[:, self.nonbasic], self._minus_uppers(rhs))))
        if solved is None:
            return False
        self.tab.reset(solved[:, :-1])
        self.xb = solved[:, -1].copy()
        return True

    def _clip(self):
        np.clip(self.xb, 0.0, self.ub[self.basis], out=self.xb)

    def _exchange(self, r, q, col):
        """Pivot the tableau on (r, q) and trade the labels; returns the new
        row r."""
        row = self.tab.exchange(r, q, col)
        self.basis[r], self.nonbasic[q] = self.nonbasic[q], self.basis[r]
        return row

    def _enter_at_zero(self, r, q):
        """Exchange a nonbasic variable resting at 0 into the basis at row
        r, outside the pricing loop (crash basis, artificial drive-out)."""
        col = self.tab.column(q)
        theta = self.xb[r] / col[r]
        self.xb -= theta * col
        self.xb[r] = theta
        self._exchange(r, q, col)

    def primal(self, cost, rhs, limit):
        """Run bounded-variable simplex pivots until optimal or interrupted.

        cost is the objective to minimize, by label, and rhs the normalized
        right-hand sides that the tableau is refactorized against
        periodically and before declaring optimality.  Returns 'optimal',
        'unbounded', or 'iteration_limit'.
        """
        state, tab, ub, at_upper = self.state, self.tab, self.ub, self.at_upper
        basis, nonbasic = self.basis, self.nonbasic
        m, nn = len(basis), len(nonbasic)
        bland_after = 5 * (m + nn + m)  # rows plus all columns, basic included
        gamma = np.ones(nn)  # Devex reference weights
        fresh = False
        since_reinvert = 0
        reduced = cost[nonbasic] - cost[basis] @ tab.dense()
        while True:
            if state["iterations"] >= limit:
                return "iteration_limit"
            if since_reinvert >= REINVERT_EVERY:
                fresh = self._reinvert(rhs)
                self._clip()
                since_reinvert = 0
                reduced = cost[nonbasic] - cost[basis] @ tab.dense()
                gamma[:] = 1.0
            # a nonbasic variable improves the objective by rising off 0 when
            # its reduced cost is negative, or dropping off its upper bound
            # when positive
            upper = at_upper[nonbasic]
            eligible = np.where(upper, reduced > PIVOT_TOL,
                                reduced < -PIVOT_TOL)
            if not eligible.any():
                if fresh:
                    return "optimal"
                # recheck optimality against a freshly factored tableau
                if not self._reinvert(rhs):
                    return "optimal"
                self._clip()
                fresh = True
                since_reinvert = 0
                reduced = cost[nonbasic] - cost[basis] @ tab.dense()
                gamma[:] = 1.0
                continue
            if state["bland"]:
                cand = np.nonzero(eligible)[0]
            else:
                # Devex pricing: largest reduced cost relative to the
                # reference weights, approximating the steepest-edge criterion
                score = np.where(eligible, reduced * reduced / gamma, 0.0)
                cand = np.nonzero(score == score.max())[0]
            # ties, and every choice under Bland's rule, go to the smallest
            # label
            q = int(cand[np.argmin(nonbasic[cand])])
            entering = nonbasic[q]
            # col is the rate of decrease of each basic value per unit step of
            # the entering variable away from its current bound
            raw = tab.column(q)
            col = -raw if upper[q] else raw
            xb = self.xb
            ubb = ub[basis]
            drops = col > PIVOT_TOL
            rises = (col < -PIVOT_TOL) & np.isfinite(ubb)
            blocking = drops | rises
            room = np.where(drops, xb, ubb - xb)
            # two-pass ratio test: find the minimum ratio, then pivot on the
            # largest blocking entry within a tiny relative window of it,
            # which keeps ill-conditioned pivots out of the basis
            ratios = np.full(m, np.inf)
            np.divide(np.maximum(room, 0.0), np.abs(col), where=blocking,
                      out=ratios)
            t_lim = ratios.min() if blocking.any() else np.inf
            t_lim += t_lim * 1e-7 + PIVOT_TOL
            if not blocking.any() or t_lim > ub[entering] + PIVOT_TOL:
                # no basic variable blocks before the entering variable
                # reaches its opposite bound: flip it (or detect unboundedness)
                if not np.isfinite(ub[entering]):
                    return "unbounded"
                xb -= ub[entering] * col
                np.clip(xb, 0.0, ubb, out=xb)
                at_upper[entering] = not upper[q]
                state["bound_flips"] += 1
                state["iterations"] += 1
                since_reinvert += 1
                fresh = False
                continue
            cand = np.nonzero(ratios <= t_lim)[0]
            r = int(cand[np.argmax(np.abs(col[cand]))])
            best = max(float(ratios[r]), 0.0)
            if best < PIVOT_TOL:
                state["degenerate_pivots"] += 1
                if state["degenerate_pivots"] > bland_after:
                    state["bland"] = True
            leaving = basis[r]
            xb -= best * col
            xb[r] = ub[entering] - best if upper[q] else best
            d_q = reduced[q]
            g_q = gamma[q]
            row = self._exchange(r, q, raw)
            # reduced costs and Devex weights follow the same exchange, from
            # the pivot row after the pivot
            reduced -= d_q * row
            reduced[q] = -d_q * row[q]
            np.maximum(gamma, row * row * g_q, out=gamma)
            gamma[q] = max(g_q * row[q] * row[q], 1.0)
            if gamma.max() > 1e12:
                gamma[:] = 1.0
            at_upper[entering] = False
            at_upper[leaving] = bool(rises[r])
            np.clip(xb, 0.0, ub[basis], out=xb)
            state["iterations"] += 1
            since_reinvert += 1
            fresh = False

    def drop_artificials(self):
        """After phase 1 has brought every artificial to 0: drive the basic
        artificials out of the basis, or drop their rows, whose tableau rows
        are zero on the other columns and so are redundant; then drop the
        artificial columns."""
        a0 = self.a0
        keep = np.ones(len(self.basis), dtype=bool)
        for i in np.nonzero(self.basis >= a0)[0]:
            row = np.abs(self.tab.row(i))
            row[(self.nonbasic >= a0) | self.at_upper[self.nonbasic]] = 0.0
            cand = np.nonzero(row > PIVOT_TOL)[0]
            if len(cand):
                self._enter_at_zero(
                    i, int(cand[np.argmin(self.nonbasic[cand])]))
            else:
                keep[i] = False
        # the row dropped with a basic artificial is the row of its unit
        # column; a slack of a dropped row is a zero column from then on
        rows = np.ones(len(keep), dtype=bool)
        rows[self.unit_row[self.basis[~keep]]] = False
        renumber = np.where(rows, np.cumsum(rows) - 1, -1)
        unit_row = self.unit_row[:a0]
        real = self.nonbasic < a0
        self.tab = _Tableau(self.tab.dense()[keep][:, real])
        self.nonbasic = self.nonbasic[real]
        self.xb, self.basis = self.xb[keep], self.basis[keep]
        self.orig, self.kept = self.orig[rows, :a0], self.kept[rows]
        self.unit_row = np.where(unit_row >= 0, renumber[unit_row], -1)
        self.unit_sign = self.unit_sign[:a0]
        self.ub, self.at_upper = self.ub[:a0], self.at_upper[:a0]
        self.cost = self.cost[:a0]

    def evaluate(self, rhs, limit):
        """Move the current basis to the normalized right-hand sides rhs.

        The tableau is freshly factored and does not depend on rhs, so only
        the basic values are solved for.  When they leave their bounds, the
        basis, still dual feasible, is repaired by dual simplex pivots.
        Returns 'optimal', 'iteration_limit' or 'numerical_error'.
        """
        values = self._solve_basis(self._minus_uppers(rhs))
        status = "optimal"
        if values is not None:
            self.xb = values
            if self._infeasible().any():
                status = self.dual(rhs, limit)
        self._clip()
        return status

    def _infeasible(self):
        """Which basic values lie beyond their bounds by more than the
        feasibility tolerance, relative to the value."""
        excess = np.maximum(-self.xb, self.xb - self.ub[self.basis])
        return excess > FEAS_TOL * np.maximum(1.0, np.abs(self.xb))

    def dual(self, rhs, limit):
        """Bounded dual simplex pivots from a dual feasible basis until the
        basic values, on a freshly factored tableau, keep their bounds.

        The basic variable furthest beyond a bound leaves at that bound;
        the ratio test over its row picks the entering variable whose
        reduced cost reaches 0 first, so every reduced cost keeps its sign.
        The reduced costs are the phase-2 objective's.  Returns 'optimal',
        'iteration_limit', or 'numerical_error' when no variable can enter
        (the rows would be infeasible, which phase 1 ruled out) or the
        repair runs past REPAIR_LIMIT pivots.
        """
        state, tab, ub, at_upper = self.state, self.tab, self.ub, self.at_upper
        basis, nonbasic, cost = self.basis, self.nonbasic, self.cost
        reduced = cost[nonbasic] - cost[basis] @ tab.dense()
        fresh = True
        since_reinvert = 0
        while True:
            xb = self.xb
            bad = self._infeasible()
            if not bad.any() and fresh:
                return "optimal"
            # refactorize periodically, and recheck feasibility against a
            # freshly factored tableau
            if not bad.any() or since_reinvert >= REINVERT_EVERY:
                if not self._reinvert(rhs):
                    return "numerical_error"
                fresh = True
                since_reinvert = 0
                reduced = cost[nonbasic] - cost[basis] @ tab.dense()
                continue
            if state["iterations"] >= limit:
                return "iteration_limit"
            if state["repair_pivots"] >= REPAIR_LIMIT:
                return "numerical_error"
            excess = np.maximum(-xb, xb - ub[basis])
            r = int(np.argmax(np.where(bad, excess, -np.inf)))
            below = xb[r] < 0.0
            # a nonbasic variable can enter when its move off its bound
            # pushes basic variable r back towards the bound it crossed
            row = tab.row(r)
            upper = at_upper[nonbasic]
            move = np.where(upper, row, -row) if below else \
                np.where(upper, -row, row)
            can = move > PIVOT_TOL
            if not can.any():
                return "numerical_error"
            # two-pass ratio test, as in the primal: the largest entry among
            # the near-minimal ratios
            ratios = np.full(len(nonbasic), np.inf)
            np.divide(np.maximum(np.where(upper, -reduced, reduced), 0.0),
                      move, where=can, out=ratios)
            t_lim = ratios.min()
            t_lim += t_lim * 1e-7 + PIVOT_TOL
            cand = np.nonzero(ratios <= t_lim)[0]
            q = int(cand[np.argmax(np.abs(row[cand]))])
            entering, leaving = nonbasic[q], basis[r]
            col = tab.column(q)
            theta = (xb[r] - (0.0 if below else ub[leaving])) / col[r]
            xb -= theta * col
            xb[r] = (ub[entering] if upper[q] else 0.0) + theta
            d_q = reduced[q]
            row = self._exchange(r, q, col)
            reduced -= d_q * row
            reduced[q] = -d_q * row[q]
            at_upper[entering] = False
            at_upper[leaving] = not below
            state["iterations"] += 1
            state["repair_pivots"] += 1
            since_reinvert += 1
            fresh = False


def _counters():
    return {"iterations": 0, "degenerate_pivots": 0, "bound_flips": 0,
            "refactorizations": 0, "bland": False, "repair_pivots": 0}


def _solution(status, state, value=None, primal=None):
    stats = {k: v for k, v in state.items() if k != "iterations"}
    return LpSolution(status, value, primal, state["iterations"], stats)


def _optimize(model, state, limit):
    """Phases 1 and 2 over the model: the status and the simplex, whose
    basis is, when 'optimal', optimal for slightly perturbed right-hand
    sides."""
    sx = _Simplex(model, state)
    rhs = sx.normalized(model.rhs)
    if sx.a0 < len(sx.ub):
        cost1 = np.zeros(len(sx.ub))
        cost1[sx.a0:] = 1.0
        status = sx.primal(cost1, rhs, limit)
        if status != "optimal":
            return status, sx
        if sx.xb[sx.basis >= sx.a0].sum() > FEAS_TOL:
            return "infeasible", sx
        sx.drop_artificials()
        rhs = sx.normalized(model.rhs)

    # anti-degeneracy: raise each basic value by a tiny random amount, that
    # is, perturb the right-hand sides along the basis, so ratio-test ties
    # become generically unique while the basis stays feasible and the rows
    # stay consistent (phase 1 runs unperturbed, so a duplicated equality
    # row is dropped, not taken for an infeasible one).  Which bases are
    # optimal depends only on the reduced costs, so the caller evaluates the
    # final basis against the true right-hand sides
    rng = np.random.default_rng(1)
    lift = 1e-6 * (0.5 + 0.5 * rng.random(len(rhs))) \
        * np.maximum(1.0, np.abs(rhs))
    perturbed = rhs + sx.orig[:, sx.basis] @ lift
    sx.xb += lift
    sx._clip()
    return sx.primal(sx.cost, perturbed, limit), sx


def solve(model, limit=ITERATION_LIMIT):
    """Two-phase bounded primal simplex over the model (0 <= x <= ub), on a
    condensed tableau of the nonbasic columns, with a dual simplex repair
    of the final basis at the unperturbed right-hand sides."""
    state = _counters()
    if (model.upper < 0).any():
        return _solution("infeasible", state)
    status, sx = _optimize(model, state, limit)
    if status == "optimal":
        status = sx.evaluate(sx.normalized(model.rhs), limit)
    if status != "optimal":
        return _solution(status, state)
    primal = sx.point()[:model.nvars()]
    # re-verify primal feasibility against the original model
    coeffs, b = model.rows, model.rhs
    lhs = coeffs @ primal
    slack = FEAS_TOL * np.maximum(np.maximum(1.0, np.abs(b)),
                                  np.abs(coeffs) @ np.abs(primal))
    bad = np.where(model.relations == "<=", lhs > b + slack,
                   np.where(model.relations == ">=", lhs < b - slack,
                            np.abs(lhs - b) > slack))
    if bad.any():
        return _solution("numerical_error", state)
    value = float(np.dot(model.objective, primal))
    return _solution("optimal", state, value, primal.tolist())


class BoundReport:
    """An upper bound on A(n, d; A) together with the raw LP optimum."""

    __slots__ = ("n", "d", "constraint", "lp_value", "code_size_bound",
                 "comparators", "solution", "model")

    def __init__(self, n, d, constraint, lp_value, code_size_bound,
                 comparators=None, solution=None, model=None):
        self.n = n
        self.d = d
        self.constraint = constraint
        self.lp_value = lp_value
        self.code_size_bound = code_size_bound
        self.comparators = comparators or {}
        self.solution = solution
        self.model = model

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
    """The rows of `rows` and `rhs` (one relation for all) with each distinct
    (rhs, row) kept at its first occurrence only, in the original order.
    Rows compare as the bytes of their floats, -0.0 turned into 0.0 first."""
    key = np.ascontiguousarray(np.column_stack((rhs, rows)) + 0.0)
    _, first = np.unique(key.view((np.void, key.itemsize * key.shape[1])),
                         return_index=True)
    keep = np.sort(first)
    return rows[keep], rhs[keep]


def del_classic(n, d):
    """The distance-distribution form of Delsarte's LP.

    Variables a_d..a_n (a_0 = 1 substituted, a_1..a_{d-1} = 0): maximize
    1 + sum a_j subject to sum_j a_j K_k(j) >= -K_k(0) for every k.
    """
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    kraw = np.array(krawtchouk_table(n).table, dtype=float)
    rows, rhs = _dedupe(kraw[:, d:], -kraw[:, 0])
    model = LpModel("max", np.ones(n + 1 - d), rows,
                    np.full(len(rows), ">="), rhs)
    sol = _solved(model, "del_classic(%d, %d)" % (n, d))
    value = 1.0 + sol.value
    return BoundReport(n, d, None, value, value, solution=sol, model=model)


def del_full(n, d, cap=12):
    """The 2^n-variable Delsarte LP, for cross-validating symmetrization."""
    if n > cap:
        raise CapExceeded("del_full refuses n=%d > cap %d" % (n, cap))
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    # f(0) = 1 substituted; f = 0 below distance d drops those variables
    words = np.arange(1 << n, dtype=np.int64)
    variables = words[_popcount(words) >= d]
    rows, rhs = _dedupe(1.0 - 2.0 * _parity(words[:, None] & variables),
                        np.full(1 << n, -1.0))
    model = LpModel("max", np.ones(len(variables)), rows,
                    np.full(len(rows), ">="), rhs)
    sol = _solved(model, "del_full(%d, %d)" % (n, d))
    value = 1.0 + sol.value
    return BoundReport(n, d, None, value, value, solution=sol, model=model)


def self_convolution(constraint, n):
    """The self-convolution counts of A at length n (`self_convolution_counts`
    of its membership array), an int64 array over the packed words."""
    _check_conv_cap(n)
    words = np.arange(1 << n, dtype=np.int64)
    return self_convolution_counts(member_array(constraint, n, words), n)


def _check_orbit_invariant(structure, conv):
    """The orbit LP has the full LP's optimum exactly when the pointwise
    bounds, the self-convolution counts, are constant on every orbit: the
    LP depends on A only through them."""
    if not np.array_equal(conv, conv[structure.reps][structure.index]):
        raise AssertionError(
            "self-convolution counts of %s at n=%d are not constant on the "
            "orbits of the %s group" % (structure.constraint, structure.n,
                                        structure.group))


def del_constrained_orbits(structure, d, conv=None):
    """The constrained Delsarte LP reduced over the orbits of a symmetry
    group of A (`orbit_structure`): one variable per orbit, one transform
    row per orbit representative.

    max sum f(x) with f >= 0, the transform of f nonnegative, f = 0 at
    weights 1..d-1, f(0) bounded by the classic optimum, and f bounded
    pointwise by the self-convolution counts `conv` of A.  Averaging an
    optimum over the group keeps it feasible and optimal, so the optimum
    is the same for every group that fixes A; the trivial group (one orbit
    per word) gives the unsymmetrized 2^n-row LP.  The code-size bound is
    the square root of the optimum.  Refuses groups with more than
    ORBIT_ROW_CAP orbits (the 2^12 rows of the trivial group at n = 12),
    since the model is a dense row-by-column tableau.
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
    conv = np.asarray(self_convolution(constraint, n) if conv is None else conv,
                      dtype=np.int64)
    _check_orbit_invariant(structure, conv)
    delsarte = del_classic(n, d).lp_value
    size = cardinality(constraint, n)
    # substitute f(0) = u0 - h with 0 <= h <= u0: the h column makes every
    # right-hand side -u0 < 0, so the all-slack origin is strictly feasible
    # and no phase 1 is needed; the zero word is always a singleton orbit
    # with unit character-sum coefficient
    u0 = min(float(conv[0]), delsarte)
    reps = structure.reps
    columns = np.flatnonzero((_popcount(reps) >= d) & (conv[reps] > 0))
    rows = np.column_stack((structure.char_sums(columns), -np.ones(len(reps))))
    rows, rhs = _dedupe(rows, np.full(len(reps), -u0))
    model = LpModel("max", np.append(structure.sizes[columns], -1.0), rows,
                    np.full(len(rows), ">="), rhs,
                    upper=np.append(conv[reps[columns]], u0))
    sol = _solved(model, "constrained Delsarte LP (%d, %d, %s) over the %s "
                  "group" % (n, d, constraint, structure.group))
    value = u0 + sol.value
    bound = math.sqrt(max(value, 0.0))
    return BoundReport(n, d, constraint, value, bound,
                       comparators={"delsarte": delsarte,
                                    "cardinality": size},
                       solution=sol, model=model)


def del_constrained(n, d, constraint, cap=12):
    """The constrained Delsarte LP, solved over the orbits of the
    constraint's symmetry group (see `del_constrained_orbits`)."""
    if n > cap:
        raise CapExceeded("del_constrained refuses n=%d > cap %d" % (n, cap))
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
    in that order is entrywise at most it, dropped or not.  So each block
    of columns is compared with the kept columns before it and with the
    columns before each one inside the block; a block is sized so that the
    comparison holds at most max(BALL_BLOCK, matrix.size) booleans."""
    order = np.argsort(matrix.sum(axis=0), kind="stable")
    columns = matrix[:, order]
    count = len(order)
    keep = np.zeros(count, dtype=bool)
    step = max(1, BALL_BLOCK // max(1, matrix.size))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        before = np.flatnonzero(keep[:hi] | (np.arange(hi) >= lo))
        below = (columns[:, before, None] <= columns[:, None, lo:hi]).all(axis=0)
        below &= before[:, None] < np.arange(lo, hi)
        keep[lo:hi] = ~below.any(axis=0)
    return np.sort(order[keep]).tolist()


def gensph(n, d, constraint, cap=16):
    """Generalized sphere-packing bound with radius t = floor((d-1)/2).

    The bound is the minimum fractional transversal: weights on the members
    of A such that every point within distance t of A is covered by total
    weight at least 1.  Solved in the dual (max) form aggregated over the
    orbits of the constraint's symmetry group: variables U_O = total weight
    on orbit O, one row per orbit of members.  Averaging over the group
    preserves feasibility and the objective, so the optimum is unchanged.
    Every column has objective 1 and every row is <= 1 with nonnegative
    coefficients, so a column entrywise at least another is dominated (its
    weight can move to the other) and is dropped.
    """
    if n > cap:
        raise CapExceeded("gensph refuses n=%d > cap %d" % (n, cap))
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    t = (d - 1) // 2
    struct = orbit_structure(constraint, n)
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
    model = LpModel("max", np.ones(rows.shape[1]), rows,
                    np.full(len(rows), "<="), np.ones(len(rows)))
    sol = _solved(model, "gensph(%d, 2t+1=%d, %s)" % (n, 2 * t + 1, constraint))
    return BoundReport(n, d, constraint, sol.value, sol.value,
                       comparators={"cardinality": cardinality(constraint, n)},
                       solution=sol, model=model)


class CertificateRejected(ValueError):
    """The supplied dual certificate violates one of its conditions."""


def dual_certificate_bound(n, d, constraint, beta, tol=1e-9, cap=16):
    """Verify a dual certificate and return the bound it implies.

    beta is a length-2^n real vector.  Conditions: its transform is
    nonnegative everywhere; beta <= 0 at weights >= d; beta sums to 2^n.
    The certified bound is beta(0) * min(classic optimum, |A|).
    """
    if n > cap:
        raise CapExceeded("dual_certificate_bound refuses n=%d > cap %d" % (n, cap))
    beta = [float(v) for v in beta]
    if len(beta) != 1 << n:
        raise ValueError("beta must have 2^%d entries" % n)
    transform = wht(beta).values
    scale = float(1 << n)
    if min(transform) < -tol * scale:
        raise CertificateRejected("transform of beta is negative somewhere")
    heavy = _popcount(np.arange(1 << n, dtype=np.int64)) >= d
    if (np.array(beta)[heavy] > tol * scale).any():
        raise CertificateRejected("beta is positive at a point of weight >= d")
    if abs(sum(beta) - scale) > tol * scale:
        raise CertificateRejected("beta does not sum to 2^n")
    constraint.check_length(n)
    size = cardinality(constraint, n)
    v = del_classic(n, d).lp_value
    return beta[0] * min(v, size)
