"""Dense LP modeling, a bundled two-phase simplex solver, and the bound
programs: Delsarte's LP (classic, full, constrained, symmetrized), the
generalized sphere-packing baseline, and dual-certificate verification.

All programs are small and dense by LP standards, so a tableau simplex with
numpy suffices; no external solver is required.
"""

import math

import numpy as np

from .constraints import cardinality, member_array, member_int, orbit_structure
from .errors import CapExceeded
from .spectral import (_check_conv_cap, krawtchouk_table,
                       self_convolution_counts, wht)

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
ITERATION_LIMIT = 10 ** 6
REINVERT_EVERY = 250
# most orbits (= transform rows) of a constrained Delsarte LP
ORBIT_ROW_CAP = 1 << 12


class LpModel:
    """max/min c'x subject to rows (coeffs, relation, rhs), x >= 0, and
    optional per-variable upper bounds."""

    def __init__(self, sense, objective, rows, upper_bounds=None):
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        self.sense = sense
        self.objective = [float(v) for v in objective]
        nvars = len(self.objective)
        self.rows = []
        for coeffs, rel, rhs in rows:
            coeffs = [float(v) for v in coeffs]
            if len(coeffs) != nvars:
                raise ValueError("row width %d != variable count %d"
                                 % (len(coeffs), nvars))
            if rel not in ("<=", ">=", "="):
                raise ValueError("relation must be <=, >=, or =")
            self.rows.append((coeffs, rel, float(rhs)))
        self.upper_bounds = dict(upper_bounds or {})

    def nvars(self):
        return len(self.objective)


class LpSolution:
    """Solver outcome: status, objective value, primal point, pivot count."""

    __slots__ = ("status", "value", "primal", "iterations")

    def __init__(self, status, value=None, primal=None, iterations=0):
        self.status = status
        self.value = value
        self.primal = primal
        self.iterations = iterations

    def __repr__(self):
        return "LpSolution(status=%r, value=%r, iterations=%d)" % (
            self.status, self.value, self.iterations)


def dump_model(model, path):
    """Plain-text dump: objective line, then one constraint per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%s %s\n" % (model.sense,
                              " ".join("%.17g" % v for v in model.objective)))
        for coeffs, rel, rhs in model.rows:
            fh.write("%s %s %.17g\n"
                     % (" ".join("%.17g" % v for v in coeffs), rel, rhs))
        for j in sorted(model.upper_bounds):
            row = ["0"] * model.nvars()
            row[j] = "1"
            fh.write("%s <= %.17g\n" % (" ".join(row), model.upper_bounds[j]))


def _reinvert(orig, orig_rhs, tab, xb, basis, ub, at_upper):
    """Rebuild the tableau and basic values from the original row data for
    the current basis, discarding the rounding error accumulated by rank-1
    updates.  Nonbasic variables sitting at their upper bound contribute to
    the basic values."""
    base = orig[:, basis]
    try:
        tab[:] = np.linalg.solve(base, orig)
        xb[:] = np.linalg.solve(base, orig_rhs)
    except np.linalg.LinAlgError:
        return False
    uppers = np.nonzero(at_upper)[0]
    if len(uppers):
        xb -= tab[:, uppers] @ ub[uppers]
    np.clip(xb, 0.0, ub[basis], out=xb)
    return True


def _simplex_phase(orig, orig_rhs, tab, xb, basis, ub, at_upper, cost,
                   limit, state):
    """Run bounded-variable simplex pivots until optimal or interrupted.

    tab is m x N in the current basis and xb holds the basic values.
    Nonbasic variables rest at 0 or, where at_upper is set, at their upper
    bound ub.  orig and orig_rhs hold the untouched row data so the tableau
    can be refactorized periodically and before declaring optimality.  cost
    is the length-N objective to minimize.  state carries the
    degenerate-pivot count and the Bland flag across phases.  Returns
    'optimal', 'unbounded', or 'iteration_limit'.
    """
    m, nn = tab.shape
    bland_after = 5 * (m + nn)
    in_basis = np.zeros(nn, dtype=bool)
    in_basis[basis] = True
    gamma = np.ones(nn)  # Devex reference weights
    fresh = False
    since_reinvert = 0
    reduced = cost - cost[basis] @ tab
    while True:
        if state["iterations"] >= limit:
            return "iteration_limit"
        if since_reinvert >= REINVERT_EVERY:
            fresh = _reinvert(orig, orig_rhs, tab, xb, basis, ub, at_upper)
            since_reinvert = 0
            reduced = cost - cost[basis] @ tab
            gamma[:] = 1.0
        # a nonbasic variable improves the objective by rising off 0 when its
        # reduced cost is negative, or dropping off its upper bound when
        # positive
        eligible = ~in_basis & ((~at_upper & (reduced < -PIVOT_TOL))
                                | (at_upper & (reduced > PIVOT_TOL)))
        if state["bland"]:
            idx = np.nonzero(eligible)[0]
            entering = int(idx[0]) if len(idx) else -1
        elif not eligible.any():
            entering = -1
        else:
            # Devex pricing: largest reduced cost relative to the reference
            # weights, approximating the steepest-edge criterion
            score = np.where(eligible, reduced * reduced / gamma, 0.0)
            entering = int(np.argmax(score))
        if entering < 0:
            if fresh:
                return "optimal"
            # recheck optimality against a freshly factored tableau
            if not _reinvert(orig, orig_rhs, tab, xb, basis, ub, at_upper):
                return "optimal"
            fresh = True
            since_reinvert = 0
            reduced = cost - cost[basis] @ tab
            gamma[:] = 1.0
            continue
        # col is the rate of decrease of each basic value per unit step of
        # the entering variable away from its current bound
        sigma = -1.0 if at_upper[entering] else 1.0
        col = sigma * tab[:, entering]
        ubb = ub[basis]
        drops = col > PIVOT_TOL
        rises = (col < -PIVOT_TOL) & np.isfinite(ubb)
        blocking = drops | rises
        room = np.where(drops, xb, ubb - xb)
        # two-pass ratio test: find the minimum ratio, then pivot on the
        # largest blocking entry within a tiny relative window of it, which
        # keeps ill-conditioned pivots out of the basis
        ratios = np.full(m, np.inf)
        np.divide(np.maximum(room, 0.0), np.abs(col), where=blocking,
                  out=ratios)
        t_lim = ratios.min() if blocking.any() else np.inf
        t_lim += t_lim * 1e-7 + PIVOT_TOL
        if not blocking.any() or t_lim > ub[entering] + PIVOT_TOL:
            # no basic variable blocks before the entering variable reaches
            # its opposite bound: flip it (or detect unboundedness)
            if not np.isfinite(ub[entering]):
                return "unbounded"
            xb -= ub[entering] * col
            np.clip(xb, 0.0, ub[basis], out=xb)
            at_upper[entering] = not at_upper[entering]
            state["iterations"] += 1
            since_reinvert += 1
            fresh = False
            continue
        cand = np.nonzero(ratios <= t_lim)[0]
        leaving = int(cand[np.argmax(np.abs(col[cand]))])
        leave_at_upper = bool(rises[leaving])
        best = max(float(ratios[leaving]), 0.0)
        if best < PIVOT_TOL:
            state["degenerate"] += 1
            if state["degenerate"] > bland_after:
                state["bland"] = True
        leave_var = basis[leaving]
        piv = tab[leaving, entering]
        xb -= best * col
        xb[leaving] = ub[entering] - best if at_upper[entering] else best
        # Devex weight update from the pre-pivot row of the leaving variable
        ge = gamma[entering]
        np.maximum(gamma, (tab[leaving] / piv) ** 2 * ge, out=gamma)
        gamma[leave_var] = max(ge / (piv * piv), 1.0)
        if gamma.max() > 1e12:
            gamma[:] = 1.0
        tab[leaving] /= piv
        update = tab[:, entering].copy()
        update[leaving] = 0.0
        tab -= np.outer(update, tab[leaving])
        reduced = reduced - reduced[entering] * tab[leaving]
        basis[leaving] = entering
        in_basis[entering] = True
        in_basis[leave_var] = False
        at_upper[entering] = False
        at_upper[leave_var] = leave_at_upper
        np.clip(xb, 0.0, ub[basis], out=xb)
        state["iterations"] += 1
        since_reinvert += 1
        fresh = False


def solve(model, limit=ITERATION_LIMIT):
    """Two-phase dense primal simplex over the model (0 <= x <= ub)."""
    nvars = model.nvars()
    obj = np.array(model.objective, dtype=float)
    if model.sense == "max":
        obj = -obj
    if any(u < 0 for u in model.upper_bounds.values()):
        return LpSolution("infeasible")

    rows = list(model.rows)

    # normalize: scale each row by its largest coefficient, flip so rhs >= 0
    norm = []
    for coeffs, rel, rhs in rows:
        arr = np.array(coeffs, dtype=float)
        scale = np.max(np.abs(arr))
        if scale > 0:
            arr = arr / scale
            rhs = rhs / scale
        if rhs < 0:
            arr = -arr
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm.append((arr, rel, rhs))

    m = len(norm)
    n_slack = sum(1 for _, rel, _ in norm if rel != "=")
    n_art = sum(1 for _, rel, _ in norm if rel != "<=")
    total = nvars + n_slack + n_art
    tab = np.zeros((m, total))
    rhs = np.zeros(m)
    basis = np.zeros(m, dtype=int)
    s_at = nvars
    a_at = nvars + n_slack
    art_cols = []
    for i, (arr, rel, b) in enumerate(norm):
        tab[i, :nvars] = arr
        rhs[i] = b
        if rel == "<=":
            tab[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
        elif rel == ">=":
            tab[i, s_at] = -1.0
            s_at += 1
            tab[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1
        else:
            tab[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1

    state = {"iterations": 0, "degenerate": 0, "bland": False}
    orig = tab.copy()
    true_rhs = rhs.copy()
    # anti-degeneracy: perturb the right-hand sides so ratio-test ties become
    # generically unique; which bases are optimal depends only on the reduced
    # costs, so the true optimum is recovered at the end by refactorizing the
    # final basis against the unperturbed right-hand sides
    rng = np.random.default_rng(1)
    orig_rhs = true_rhs + 1e-6 * (0.5 + 0.5 * rng.random(m)) \
        * np.maximum(1.0, np.abs(true_rhs))
    rhs += orig_rhs - true_rhs
    ub = np.full(total, np.inf)
    for j, u in model.upper_bounds.items():
        ub[j] = u
    at_upper = np.zeros(total, dtype=bool)
    xb = rhs

    # crash: a >= or = row whose only use of some positive column is that row
    # can start with that column basic instead of an artificial, avoiding the
    # degenerate vertex a full phase 1 would end at
    art_set = set(art_cols)
    col_nnz = (np.abs(tab[:, :nvars]) > PIVOT_TOL).sum(axis=0)
    for i in range(m):
        if basis[i] not in art_set:
            continue
        row = tab[i, :nvars]
        for j in np.nonzero((row > PIVOT_TOL) & (col_nnz == 1))[0]:
            if xb[i] / row[j] <= ub[j]:
                piv = row[j]
                tab[i] /= piv
                xb[i] /= piv
                basis[i] = int(j)
                break

    if art_cols:
        cost1 = np.zeros(total)
        cost1[art_cols] = 1.0
        status = _simplex_phase(orig, orig_rhs, tab, xb, basis, ub, at_upper,
                                cost1, limit, state)
        if status != "optimal":
            return LpSolution(status, iterations=state["iterations"])
        if xb[np.isin(basis, art_cols)].sum() > FEAS_TOL:
            return LpSolution("infeasible", iterations=state["iterations"])
        # drive residual artificials out of the basis, or drop their rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] not in art_set:
                continue
            row = np.abs(tab[i, : nvars + n_slack])
            row[at_upper[: nvars + n_slack]] = 0.0
            pivots = np.nonzero(row > PIVOT_TOL)[0]
            if len(pivots):
                j = int(pivots[0])
                piv = tab[i, j]
                tab[i] /= piv
                xb[i] /= piv
                update = tab[:, j].copy()
                update[i] = 0.0
                tab -= np.outer(update, tab[i])
                xb -= update * xb[i]
                basis[i] = j
            else:
                keep[i] = False
        if not keep.all():
            tab = tab[keep]
            xb = xb[keep]
            basis = basis[keep]
            orig = orig[keep]
            orig_rhs = orig_rhs[keep]
            true_rhs = true_rhs[keep]
            m = len(basis)
        tab = tab[:, : nvars + n_slack]
        orig = orig[:, : nvars + n_slack]
        ub = ub[: nvars + n_slack]
        at_upper = at_upper[: nvars + n_slack]

    cost2 = np.zeros(tab.shape[1])
    cost2[:nvars] = obj
    status = _simplex_phase(orig, orig_rhs, tab, xb, basis, ub, at_upper,
                            cost2, limit, state)
    if status != "optimal":
        return LpSolution(status, iterations=state["iterations"])
    # evaluate the optimal basis against the unperturbed right-hand sides
    _reinvert(orig, true_rhs, tab, xb, basis, ub, at_upper)
    x = np.zeros(tab.shape[1])
    x[at_upper] = ub[at_upper]
    x[basis] = xb
    primal = x[:nvars]
    # re-verify primal feasibility against the original model
    for coeffs, rel, b in model.rows:
        arr = np.array(coeffs, dtype=float)
        lhs = float(arr @ primal)
        slack = FEAS_TOL * max(1.0, abs(b), float(np.abs(arr * primal).sum()))
        bad = (rel == "<=" and lhs > b + slack) \
            or (rel == ">=" and lhs < b - slack) \
            or (rel == "=" and abs(lhs - b) > slack)
        if bad:
            return LpSolution("numerical_error",
                              iterations=state["iterations"])
    value = float(np.dot(np.array(model.objective), primal))
    return LpSolution("optimal", value, primal.tolist(), state["iterations"])


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


def _dedupe(rows):
    seen = set()
    out = []
    for coeffs, rel, rhs in rows:
        key = (rel, rhs, tuple(coeffs))
        if key not in seen:
            seen.add(key)
            out.append((coeffs, rel, rhs))
    return out


def del_classic(n, d):
    """The distance-distribution form of Delsarte's LP.

    Variables a_d..a_n (a_0 = 1 substituted, a_1..a_{d-1} = 0): maximize
    1 + sum a_j subject to sum_j a_j K_k(j) >= -K_k(0) for every k.
    """
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    kraw = krawtchouk_table(n)
    js = list(range(d, n + 1))
    rows = [([kraw.value(k, j) for j in js], ">=", -kraw.value(k, 0))
            for k in range(n + 1)]
    model = LpModel("max", [1.0] * len(js), _dedupe(rows))
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
    variables = [x for x in range(1, 1 << n) if x.bit_count() >= d]
    rows = []
    for s in range(1 << n):
        coeffs = [1.0 if ((x & s).bit_count() & 1) == 0 else -1.0
                  for x in variables]
        rows.append((coeffs, ">=", -1.0))
    model = LpModel("max", [1.0] * len(variables), _dedupe(rows))
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
    conv = np.asarray(conv, dtype=np.int64)
    at_reps = conv[[structure.reps[label] for label in structure.labels]]
    if not np.array_equal(conv, at_reps[structure.orbit_index()]):
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
    if len(structure.labels) > ORBIT_ROW_CAP:
        raise CapExceeded("constrained Delsarte LP refuses %d orbits of the %s "
                          "group at n=%d > cap %d" % (len(structure.labels),
                                                      structure.group, n,
                                                      ORBIT_ROW_CAP))
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if conv is None:
        conv = self_convolution(constraint, n)
    _check_orbit_invariant(structure, conv)
    delsarte = del_classic(n, d).lp_value
    size = cardinality(constraint, n)
    # substitute f(0) = u0 - h with 0 <= h <= u0: the h column makes every
    # right-hand side -u0 < 0, so the all-slack origin is strictly feasible
    # and no phase 1 is needed; the zero word is always a singleton orbit
    # with unit character-sum coefficient
    u0 = min(float(conv[0]), delsarte)
    reps = structure.reps
    labels = [lbl for lbl in structure.labels
              if reps[lbl].bit_count() >= d and conv[reps[lbl]] > 0]
    rows = [(coeffs + [-1], ">=", -u0)
            for coeffs in structure.char_sums(labels).tolist()]
    ubs = {j: float(conv[reps[lbl]]) for j, lbl in enumerate(labels)}
    ubs[len(labels)] = u0
    objective = [float(structure.sizes[lbl]) for lbl in labels] + [-1.0]
    model = LpModel("max", objective, _dedupe(rows), upper_bounds=ubs)
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
    return del_constrained_orbits(orbit_structure(constraint, n), d)


def del_constrained_sym(n, d, constraint, conv=None):
    """The constrained Delsarte LP over the orbits of the constraint's
    symmetry group, capped by the number of orbits instead of n, with
    optionally precomputed self-convolution counts."""
    return del_constrained_orbits(orbit_structure(constraint, n), d, conv)


def _ball(x, n, t):
    out = [x]
    frontier = [x]
    for _ in range(t):
        nxt = []
        for y in frontier:
            for i in range(n):
                nxt.append(y ^ (1 << i))
        frontier = nxt
        out.extend(nxt)
    return set(out)


def _undominated(matrix):
    """Ascending indices of the columns of a nonnegative matrix left after
    dropping every column that is entrywise at least a kept column (of
    identical columns the first is kept).  Columns are visited by their
    sum, so a column's dominators come before it."""
    kept = np.empty_like(matrix)
    out = []
    for j in np.argsort(matrix.sum(axis=0), kind="stable"):
        column = matrix[:, j:j + 1]
        if (kept[:, :len(out)] <= column).all(axis=0).any():
            continue
        kept[:, len(out)] = column[:, 0]
        out.append(j)
    return sorted(out)


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
    member_labels = [lbl for lbl in struct.labels
                     if member_int(constraint, n, struct.reps[lbl])]
    ball_counts = []
    union = set()
    for lbl in member_labels:
        counts = {}
        for y in _ball(struct.reps[lbl], n, t):
            y_lbl = struct.label_of(y)
            counts[y_lbl] = counts.get(y_lbl, 0) + 1
        ball_counts.append(counts)
        union.update(counts)
    position = {o: j for j, o in enumerate(sorted(union))}
    matrix = np.zeros((len(ball_counts), len(position)))
    for i, counts in enumerate(ball_counts):
        for o, k in counts.items():
            matrix[i, position[o]] = k / struct.sizes[o]
    rows = [(coeffs, "<=", 1.0)
            for coeffs in matrix[:, _undominated(matrix)].tolist()]
    model = LpModel("max", [1.0] * len(rows[0][0]), rows)
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
    for x in range(1 << n):
        if x.bit_count() >= d and beta[x] > tol * scale:
            raise CertificateRejected(
                "beta is positive at a point of weight >= d")
    if abs(sum(beta) - scale) > tol * scale:
        raise CertificateRejected("beta does not sum to 2^n")
    constraint.check_length(n)
    size = cardinality(constraint, n)
    v = del_classic(n, d).lp_value
    return beta[0] * min(v, size)
