import importlib.util
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from constrcodes import (BinaryLinearCode, BitMatrix, CapExceeded,
                         CertificateRejected, LpModel, cardinality,
                         count_brute, del_classic,
                         del_constrained, del_constrained_orbits,
                         del_constrained_sym, del_full, dual_certificate_bound,
                         dump_model, even_strict, fixed_weight, gf2_rank,
                         gensph, iterate_span, krawtchouk_table, member_int,
                         member_ints, odd_relaxed, odd_strict, orbit_char_sum,
                         orbit_structure, rll, solve, subblock, two_charge)
from constrcodes import constraints, lp
from constrcodes.cli import TABLE_BUILDERS, _evaluate_cell
from constrcodes.constraints import OrbitStructure, self_convolution
from constrcodes.lp import (DELAY, _counters, _dedupe, _optimize, _Simplex,
                            _Tableau, _undominated)
from constrcodes.spectral import self_convolution_counts

TOL = 1e-6


# -- the bundled simplex solver ----------------------------------------------


def test_solve_simple_max():
    model = LpModel("max", [1, 1], [[1, 1], [1, 0]], ["<=", "<="], [4, 3])
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(4)


def test_solve_min_with_equality():
    # an = row is refused: the solver takes only <= and >= rows; the same
    # minimum over <= rows with negated costs is solved
    with pytest.raises(ValueError, match="relation"):
        LpModel("min", [2, 3], [[1, 1], [1, -1]], [">=", "="], [10, 2])
    sol = solve(LpModel("min", [-2, -3], [[1, 1], [1, -1]], ["<=", "<="],
                        [10, 2]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-30)
    assert sol.primal == pytest.approx([0, 10])


def test_solve_negative_rhs_normalization():
    # a <= row with a negative rhs does not hold at the origin and is
    # refused; a >= row with rhs <= 0 is negated into a <= row, and one with
    # rhs 0 starts with its slack basic at 0
    with pytest.raises(ValueError, match="origin"):
        LpModel("min", [1, 1], [[-1, -1]], ["<="], [-5])
    sol = solve(LpModel("max", [1, 1], [[-1, -1]], [">="], [-5]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(5)
    sol = solve(LpModel("max", [1, 2], [[1, -1], [1, 1]], [">=", "<="],
                        [0, 4]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(6)
    assert sol.primal == pytest.approx([2, 2])


def test_solve_infeasible():
    # an infeasible LP fails at the origin too: its >= row with a positive
    # rhs is refused before any solve
    with pytest.raises(ValueError, match="origin"):
        LpModel("max", [1], [[1], [1]], [">=", "<="], [2, 1])


def test_solve_unbounded():
    model = LpModel("max", [1, 0], [[0, 1]], ["<="], [1])
    assert solve(model).status == "unbounded"


def test_solve_respects_upper_bounds():
    model = LpModel("max", [1, 2], [[1, 1]], ["<="], [10], upper=[3, 4])
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(11)


def test_solve_negative_upper_bound_is_infeasible():
    # a negative upper bound leaves no point, the origin included: refused
    with pytest.raises(ValueError, match="upper bound"):
        LpModel("max", [1], [[1]], ["<="], [1], upper=[-1])


def test_solve_iteration_limit(monkeypatch):
    model = LpModel("max", [2, 3], [[1, 1], [1, -1]], ["<=", "<="], [10, 2])
    monkeypatch.setattr(lp, "ITERATION_LIMIT", 0)
    assert solve(model).status == "iteration_limit"


def test_solve_covering_lp():
    # fractional vertex cover of a triangle, each edge covered, optimum
    # 3/2: the covering form (>= 1 rows) fails at the origin and is
    # refused, and its dual, the fractional matching of the triangle
    # (each vertex in at most weight 1 of edges), is solved
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    with pytest.raises(ValueError, match="origin"):
        LpModel("min", [1, 1, 1], rows, [">="] * 3, [1, 1, 1])
    sol = solve(LpModel("max", [1, 1, 1], np.transpose(rows), ["<="] * 3,
                        [1, 1, 1]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.5)


def test_solve_randomized_against_enumeration():
    # random 2-variable LPs checked against vertex enumeration
    rng = random.Random(99)
    for _ in range(40):
        rows = []
        for _ in range(4):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(([a, b], "<=", rng.randint(1, 6)))
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        model = LpModel("max", [c1, c2], [row[0] for row in rows],
                        [row[1] for row in rows], [row[2] for row in rows],
                        upper=[8, 8])
        sol = solve(model)
        # enumerate candidate vertices: intersections of all boundary pairs
        lines = [(a, b, r) for (a, b), _, r in [(row[0], row[1], row[2])
                 for row in rows]] + \
                [(1, 0, 0), (0, 1, 0), (1, 0, 8), (0, 1, 8)]
        best = None
        for (a1, b1, r1), (a2, b2, r2) in itertools.combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x = (r1 * b2 - r2 * b1) / det
            y = (a1 * r2 - a2 * r1) / det
            if x < -1e-9 or y < -1e-9 or x > 8 + 1e-9 or y > 8 + 1e-9:
                continue
            if all(a * x + b * y <= r + 1e-9 for (a, b), _, r in rows):
                value = c1 * x + c2 * y
                best = value if best is None else max(best, value)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(best, abs=1e-6)


def test_solve_reports_counters():
    # x1 hits its upper bound before any row blocks it: one bound flip
    model = LpModel("max", [1, 2], [[1, 1]], ["<="], [10], upper=[3, 4])
    sol = solve(model)
    assert set(sol.stats) == {"degenerate_pivots", "bound_flips",
                              "refactorizations", "bland", "repair_pivots",
                              "max_residual"}
    assert sol.stats["bound_flips"] >= 1
    assert sol.stats["refactorizations"] >= 1
    assert sol.stats["bland"] is False
    assert sol.stats["repair_pivots"] == 0
    assert sol.iterations >= sol.stats["bound_flips"]


def _dense_exchange(tab, r, q):
    """Oracle for the delayed tableau: pivot the whole dense tableau on
    (r, q) at once by the exchange formulas."""
    piv = tab[r, q]
    u = tab[:, q].copy()
    u[r] = 0.0
    tab[r] /= piv
    tab -= np.outer(u, tab[r])
    tab[:, q] = u / -piv
    tab[r, q] = 1.0 / piv


def test_delayed_tableau_matches_dense_exchanges(monkeypatch):
    # seeded random pivot sequences longer than DELAY on [M | I], checked
    # entry by entry against immediate dense exchanges and, at the end,
    # against a fresh solve for the final basis
    monkeypatch.setattr(lp, "DELAY_MIN_ENTRIES", 0)
    rng = np.random.default_rng(8)
    for m, nn in [(9, 14), (20, 7), (16, 16)]:
        full = np.hstack((rng.normal(size=(m, nn)), np.eye(m)))
        basis, nonbasic = np.arange(nn, nn + m), np.arange(nn)
        oracle = full[:, :nn].copy()
        tab = _Tableau(oracle.copy())
        assert len(tab.q) == DELAY
        for _ in range(3 * DELAY + 5):
            r = int(rng.integers(m))
            q = int(np.argmax(np.abs(oracle[r])))
            row = tab.exchange(r, q, tab.column(q))
            _dense_exchange(oracle, r, q)
            basis[r], nonbasic[q] = nonbasic[q], basis[r]
            assert np.allclose(row, oracle[r], rtol=1e-9, atol=1e-9)
            i, j = int(rng.integers(m)), int(rng.integers(nn))
            assert np.allclose(tab.row(i), oracle[i], rtol=1e-9, atol=1e-9)
            assert np.allclose(tab.column(j), oracle[:, j], rtol=1e-9,
                               atol=1e-9)
        assert 0 < tab.k < DELAY
        dense = tab.dense()
        assert tab.k == 0
        assert np.allclose(dense, oracle, rtol=1e-9, atol=1e-9)
        fresh = np.linalg.solve(full[:, basis], full[:, nonbasic])
        assert np.allclose(dense, fresh, rtol=1e-7, atol=1e-7)


def _dense_columns(sx):
    """Oracle: every column of the simplex, by label, as one array; the
    simplex stores only the model's variables and writes the slack of row
    i as the unit vector e_i."""
    return np.hstack((sx.orig, np.eye(len(sx.orig))))


def _check_block_refactorization(sx, rng, tries):
    """Random bases over the simplex's columns: None when the basis matrix
    is singular (the repeated row makes such bases, which LU need not flag
    exactly: the near-singular check must), else the block solve against
    np.linalg.solve.  Returns the number of each kind."""
    full = _dense_columns(sx)
    m, total = full.shape
    y = rng.normal(size=(m, 5))
    solved = singular = 0
    for _ in range(tries):
        sx.basis = np.sort(rng.choice(total, size=m, replace=False))
        matrix = full[:, sx.basis]
        if np.linalg.matrix_rank(matrix) == m:
            solved += 1
            for rhs in (y, y[:, 0]):
                assert np.allclose(sx._solve_basis(rhs),
                                   np.linalg.solve(matrix, rhs),
                                   rtol=1e-8, atol=1e-8)
        else:
            singular += 1
            for rhs in (y, y[:, 0]):
                assert sx._solve_basis(rhs) is None
    return solved, singular


def test_block_refactorization_matches_dense_solve():
    # bases mixing the model's variables with the slacks of <= rows and of
    # >= rows, which the simplex negates into <= rows
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(6, 4))
    coeffs[5] = coeffs[4]  # a repeated row
    model = LpModel("max", np.ones(4), coeffs,
                    ["<=", ">=", ">=", "<=", "<=", "<="],
                    [1.0, -1.0, 0.0, 2.0, 0.5, 0.5], upper=np.full(4, 10.0))
    sx = _Simplex(model, _counters())
    assert (sx.scale < 0).sum() == 2
    # the matrix has rank m - 1 on the bases holding neither slack of the
    # repeated row: those must be refused, not solved into entries of
    # order 1e15
    assert min(_check_block_refactorization(sx, rng, 1000)) > 0
    # a zero column makes the factored block singular
    coeffs[:, 2] = 0.0
    sx = _Simplex(LpModel("max", np.ones(4), coeffs, ["<="] * 6, np.ones(6)),
                  _counters())
    sx.basis = np.array([0, 1, 2, 3, 8, 9])
    assert sx._solve_basis(np.ones(6)) is None
    sx.basis = np.array([0, 1, 3, 7, 8, 9])
    assert np.allclose(sx._solve_basis(np.ones(6)),
                       np.linalg.solve(_dense_columns(sx)[:, sx.basis],
                                       np.ones(6)))


def _vertex_optimum(model):
    """Oracle by vertex enumeration: the best objective over the points
    where a choice of nvars constraint or bound hyperplanes meet, among
    those that satisfy every row and bound (finite upper bounds only)."""
    nvars = model.nvars()
    planes = [(row, b) for row, b in zip(model.rows, model.rhs)]
    planes += [(np.eye(nvars)[j], bound) for j in range(nvars)
               for bound in (0.0, model.upper[j])]
    sign = 1.0 if model.sense == "max" else -1.0
    best = None
    for chosen in itertools.combinations(planes, nvars):
        matrix = np.array([row for row, _ in chosen])
        if abs(np.linalg.det(matrix)) < 1e-9:
            continue
        x = np.linalg.solve(matrix, [b for _, b in chosen])
        lhs = model.rows @ x
        ok = np.where(model.relations == "<=", lhs <= model.rhs + 1e-9,
                      lhs >= model.rhs - 1e-9)
        if ok.all() and (x >= -1e-9).all() and (x <= model.upper + 1e-9).all():
            value = sign * float(model.objective @ x)
            best = value if best is None else max(best, value)
    return sign * best


def test_dual_repair_of_a_basis_optimal_for_shifted_rhs():
    # solve with shifted right-hand sides, then evaluate that optimal basis
    # at the true ones: it is dual feasible there, and the dual simplex
    # repair must reach the true optimum
    have_highs = importlib.util.find_spec("scipy") is not None
    rng = np.random.default_rng(12)
    m, n = 8, 3
    repaired = 0
    for _ in range(40):
        coeffs = rng.integers(-3, 4, size=(m, n)).astype(float)
        relations = np.where(rng.random(m) < 0.5, "<=", ">=")
        rhs = np.where(relations == "<=", 1.0, -1.0) * rng.uniform(0.5, 3,
                                                                  size=m)
        # a positive factor keeps each rhs's sign, so the shifted model
        # holds at the origin too
        shifted = rhs * rng.uniform(0.2, 3, size=m)
        objective = rng.integers(-4, 5, size=n)
        sense = ("max", "min")[int(rng.integers(2))]
        upper = np.full(n, 6.0)
        model = LpModel(sense, objective, coeffs, relations, rhs, upper)
        state = _counters()
        status, sx = _optimize(LpModel(sense, objective, coeffs, relations,
                                       shifted, upper), state)
        if status != "optimal":
            continue
        assert sx.evaluate(model.rhs / sx.scale) == "optimal"
        repaired += state["repair_pivots"] > 0
        x = sx.point()[:n]
        lhs = coeffs @ x
        excess = np.where(relations == "<=", lhs - rhs, rhs - lhs)
        assert (excess <= 1e-7).all()
        assert (x >= -1e-9).all() and (x <= upper + 1e-9).all()
        value = float(objective @ x)
        assert value == pytest.approx(_vertex_optimum(model), abs=1e-6)
        if have_highs:
            assert value == pytest.approx(_highs(model)[1], abs=1e-6)
        assert solve(model).value == pytest.approx(value, abs=1e-6)
    assert repaired >= 10


def _highs(model):
    """Status and optimum of the model from scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sign = -1.0 if model.sense == "max" else 1.0
    # HiGHS takes >= rows as <= rows with both sides negated
    flip = np.where(model.relations == ">=", -1.0, 1.0)
    res = linprog(
        sign * model.objective, A_ub=flip[:, None] * model.rows,
        b_ub=flip * model.rhs,
        bounds=[(0, u if np.isfinite(u) else None) for u in model.upper],
        method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (sign * res.fun if res.status == 0 else None)


def _random_bounded_lp(rng, m, n):
    """A random LP over 0 <= x <= ub (some variables unbounded) mixing <=
    and >= rows that hold at the origin: a <= row's rhs is at least 0 and a
    >= row's at most 0, and a quarter of them are 0, which makes the
    starting basis degenerate; some models repeat a row, once negated and
    flipped to the other relation."""
    upper = np.full(n, np.inf)
    for j in range(n):
        if rng.random() < 0.7:
            upper[j] = rng.integers(1, 6)
    rows, rels, rhs = [], [], []
    for _ in range(m):
        rows.append(rng.integers(-3, 4, size=n).astype(float))
        rels.append(("<=", ">=")[int(rng.random() < 0.4)])
        size = 0.0 if rng.random() < 0.25 else rng.uniform(0, 5)
        rhs.append(size if rels[-1] == "<=" else -size)
    if rng.random() < 0.3:
        rows.append(-rows[0])
        rels.append({"<=": ">=", ">=": "<="}[rels[0]])
        rhs.append(-rhs[0])
    objective = rng.integers(-4, 5, size=n)
    return LpModel(("max", "min")[int(rng.integers(2))], objective, rows,
                   rels, rhs, upper)


def test_solve_random_lps_against_highs():
    # optimal, unbounded and degenerate (a zero rhs at the optimum) draws
    rng = np.random.default_rng(2024)
    seen = set()
    for m, n in [(8, 4), (12, 5), (3, 7), (5, 12), (6, 6)]:
        for _ in range(30):
            model = _random_bounded_lp(rng, m, n)
            ours = solve(model)
            status, value = _highs(model)
            assert ours.status == status
            if status == "optimal":
                assert ours.value == pytest.approx(value, rel=1e-6, abs=1e-6)
                if (model.rhs == 0).any():
                    seen.add("degenerate")
            seen.add(status)
    assert seen == {"optimal", "unbounded", "degenerate"}


def test_solve_duplicated_equality_rows_against_highs():
    # x + y + z <= 4 written four ways (twice, doubled, and negated as a >=
    # row): identical once normalized, so four slacks start basic on copies
    # of one row
    model = LpModel("max", [1, 2, 3],
                    [[1, 1, 1], [1, 1, 1], [2, 2, 2], [-1, -1, -1],
                     [1, -1, 0]],
                    ["<=", "<=", "<=", ">=", "<="], [4, 4, 8, -4, 1],
                    upper=[np.inf, np.inf, 2])
    status, value = _highs(model)
    sol = solve(model)
    assert sol.status == status == "optimal"
    assert sol.value == pytest.approx(value, rel=1e-6)
    assert sol.value == pytest.approx(10)


@pytest.mark.parametrize("dd,d", [(2, 4), (2, 5), (2, 6), (2, 7), (1, 6),
                                  (1, 7)])
def test_constrained_delsarte_models_against_highs(dd, d):
    model = del_constrained(10, d, rll(dd)).model
    status, value = _highs(model)
    sol = solve(model)
    assert sol.status == status == "optimal"
    assert sol.value == pytest.approx(value, rel=1e-6)


def test_pivot_counts_are_pinned(monkeypatch):
    # the start basis, pricing, tie-breaks, Bland switch and refactorization
    # schedule decide these counts: the unsymmetrized Table VI models at
    # n = 10, three classic models, and the totals over the small models of
    # Tables II, III and IV.  They hold under any number of BLAS threads
    # (CI runs the suite with one), since near-ties of Devex scores go to
    # the smallest label.  Refactorization follows measured drift, with a
    # cap of REINVERT_CAP pivots: each of Table VI's twelve constrained
    # models is factored once, to confirm its optimum, and the rll:d=1
    # d = 2 model of about 3900 pivots once more at the cap
    refactorizations = {}
    for dd, counts in ((2, {4: 837, 5: 143, 6: 28, 7: 2}),
                       (1, {6: 142, 7: 48})):
        for d in range(2, 8):
            sol = del_constrained(10, d, rll(dd)).solution
            if d in counts:
                assert sol.iterations == counts[d], (dd, d)
            refactorizations[dd, d] = sol.stats["refactorizations"]
            assert sol.stats["max_residual"] < lp.DRIFT_TOL, (dd, d)
    assert refactorizations == {**{(dd, d): 1 for dd in (2, 1)
                                   for d in range(2, 8)}, (1, 2): 2}
    for (n, d), count in {(13, 2): 14, (15, 4): 14, (18, 3): 31}.items():
        assert del_classic(n, d).solution.iterations == count, (n, d)
    # (solves, pivots, refactorizations) over every cell of a table
    solves = []
    monkeypatch.setattr(lp, "solve",
                        lambda model: solves.append(solve(model)) or solves[-1])
    for table, totals in {"II": (23, 103, 23), "III": (16, 136, 16),
                          "IV": (14, 125, 14)}.items():
        solves.clear()
        for _, cells in TABLE_BUILDERS[table]()[1]:
            assert all(_evaluate_cell(c)["status"] == "OK" for c in cells)
        assert (len(solves), sum(s.iterations for s in solves),
                sum(s.stats["refactorizations"] for s in solves)) == totals, \
            table


def test_drift_check_refactorizes_a_corrupted_tableau(monkeypatch):
    # relative noise of 1e-6 on the whole tableau at 32 exchanges: the
    # drift check must see it and refactorize long before the cap, and the
    # optimum must still be HiGHS's
    model = del_constrained(10, 4, rll(2)).model
    rng = np.random.default_rng(3)
    original, exchanges = lp._Tableau.exchange, [0]

    def noisy(self, r, q, col):
        row = original(self, r, q, col)
        exchanges[0] += 1
        if 200 <= exchanges[0] < 232:
            self.base *= 1.0 + 1e-6 * rng.standard_normal(self.base.shape)
        return row

    monkeypatch.setattr(lp._Tableau, "exchange", noisy)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.iterations < lp.REINVERT_CAP
    assert sol.stats["max_residual"] > lp.DRIFT_TOL
    assert sol.stats["refactorizations"] > 1
    assert sol.value == pytest.approx(_highs(model)[1], rel=1e-9)


def test_simplex_stores_only_the_model_columns():
    # the 528-row reversal-group model of Table VI: no slack column is
    # stored, and the whole solve peaks below the m x (nvars + m) array of
    # every column that a stored slack identity would take
    model = del_constrained(10, 4, rll(2)).model
    m, nvars = model.rows.shape
    assert m == 528
    assert _Simplex(model, _counters()).orig.shape == (m, nvars)
    tracemalloc.start()
    try:
        sol = solve(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < m * (nvars + m) * 8


def test_relaxed_odd_lp_at_n10_reaches_its_optimum():
    # about 4600 pivots on the 528-row reversal-group model; 2952 is
    # HiGHS's optimum of the same model
    report = del_constrained(10, 2, odd_relaxed())
    assert report.solution.status == "optimal"
    assert report.lp_value == pytest.approx(2952, rel=1e-9)


def test_perturbation_draws_are_a_stream_prefix():
    # the stored draws, however long, start with those of a fresh stream
    for count in (1, 7, 300, 5000, 40):
        fresh = 1e-6 * (0.5 + 0.5 * np.random.default_rng(1).random(count))
        assert np.array_equal(lp._lift_scales(count), fresh)


def test_dump_model(tmp_path):
    model = LpModel("max", [1, 2], [[1, 1]], ["<="], [3], upper=[np.inf, 2])
    path = tmp_path / "model.lp"
    dump_model(model, path)
    text = path.read_text()
    assert text.startswith("max")
    assert "<=" in text


# -- Delsarte-style bounds ----------------------------------------------------


def test_del_classic_known_values():
    expected = {2: 4096, 3: 512, 4: 292.571, 5: 64, 6: 40, 7: 8,
                8: 5.333, 9: 3.333, 10: 2.857}
    for d, value in expected.items():
        assert del_classic(13, d).code_size_bound == pytest.approx(value, abs=5e-3)


def test_dedupe_matches_unique_rows():
    # the byte-view dedupe against np.unique(axis=0), which compares floats;
    # row 50 repeats row 10 but for a -0.0
    rng = np.random.default_rng(3)
    rows = rng.integers(-2, 3, size=(200, 4)).astype(float)
    rhs = rng.integers(-1, 2, size=200).astype(float)
    rows[10, 0] = 0.0
    rows[50], rhs[50] = rows[10], rhs[10]
    rows[50, 0] = -0.0
    kept_rows, kept_rhs = _dedupe(rows, rhs)
    _, first = np.unique(np.column_stack((rhs, rows)), axis=0,
                         return_index=True)
    keep = np.sort(first)
    assert 10 in keep and 50 not in keep
    assert kept_rows.tobytes() == rows[keep].tobytes()
    assert kept_rhs.tobytes() == rhs[keep].tobytes()


def _first_occurrences(rows, rhs):
    """Oracle for the builders' dedupe: each distinct (row, rhs) at its first
    occurrence, by a dict over tuples."""
    kept = {}
    for coeffs, r in zip(rows, rhs):
        kept.setdefault((tuple(coeffs), r), None)
    return [list(key[0]) for key in kept], [key[1] for key in kept]


def test_del_classic_model_matches_row_by_row_build():
    n = 13
    kraw = krawtchouk_table(n)
    for d in range(1, n + 1):
        rows, rhs = _first_occurrences(
            [[kraw.value(k, j) for j in range(d, n + 1)] for k in range(n + 1)],
            [-kraw.value(k, 0) for k in range(n + 1)])
        model = del_classic(n, d).model
        assert np.array_equal(model.rows, np.array(rows, dtype=float))
        assert np.array_equal(model.rhs, np.array(rhs, dtype=float))
        assert np.array_equal(model.objective, np.ones(n + 1 - d))
        assert np.array_equal(model.upper, np.full(n + 1 - d, np.inf))
        assert (model.relations == ">=").all()


def test_del_constrained_model_matches_row_by_row_build():
    # the array build against one orbit character sum per (row
    # representative, column orbit), deduplicated row by row
    for c, n in [(rll(1), 8), (two_charge(), 9)]:
        struct = orbit_structure(c, n)
        reps = struct.reps.tolist()
        conv = self_convolution_counts(
            [member_int(c, n, x) for x in range(1 << n)], n)
        for d in (2, 3, 5):
            u0 = min(float(conv[0]), del_classic(n, d).lp_value)
            columns = [o for o, rep in enumerate(reps)
                       if rep.bit_count() >= d and conv[rep] > 0]
            rows, rhs = _first_occurrences(
                [[orbit_char_sum(struct, o, s) for o in columns]
                 for s in reps], [-u0] * len(reps))
            model = del_constrained(n, d, c).model
            assert np.array_equal(model.rows, np.array(rows, dtype=float))
            assert np.array_equal(model.rhs, np.array(rhs))
            assert np.array_equal(model.upper, [conv[reps[o]] for o in columns])
            assert np.array_equal(model.objective,
                                  [struct.sizes[o] for o in columns])
            assert (model.relations == ">=").all()


def test_del_classic_monotone_in_d():
    for n in (8, 11, 13):
        values = [del_classic(n, d).lp_value for d in range(1, n + 1)]
        for a, b in zip(values, values[1:]):
            assert b <= a + TOL


def test_del_full_matches_symmetrized_classic():
    for n in (4, 6, 8):
        for d in range(1, n + 1):
            assert del_full(n, d).lp_value == \
                pytest.approx(del_classic(n, d).lp_value, abs=1e-6)


def test_del_constrained_matches_symmetrized():
    # the family's symmetry group against the trivial group, whose orbit LP
    # is the unsymmetrized 2^n-row LP
    for c, n in [(two_charge(), 8), (two_charge(), 9), (two_charge(), 7),
                 (subblock(2, 1), 8), (rll(1), 8), (rll(2), 8),
                 (even_strict(), 8), (odd_strict(), 7), (odd_relaxed(), 8),
                 (fixed_weight(3), 8)]:
        trivial = orbit_structure(c, n, trivial=True)
        for d in (2, 3, 5):
            full = del_constrained_orbits(trivial, d).lp_value
            assert full == pytest.approx(del_constrained(n, d, c).lp_value,
                                         abs=1e-5)
            assert full == pytest.approx(del_constrained_sym(n, d, c).lp_value,
                                         abs=1e-5)


def test_orbit_lp_is_smaller():
    n, d, c = 8, 3, rll(1)
    full = del_constrained_orbits(orbit_structure(c, n, trivial=True), d)
    sym = del_constrained(n, d, c)
    assert len(sym.model.rows) < len(full.model.rows) <= 1 << n
    assert sym.model.nvars() < full.model.nvars()


def test_orbit_lp_rejects_conv_not_constant_on_orbits(monkeypatch):
    n, d, c = 8, 3, rll(1)
    conv = self_convolution_counts([member_int(c, n, x) for x in range(1 << n)], n)
    conv[0b00000011] += 1  # its reversal 0b11000000 keeps the old count
    # the altered counts as the family's closed form
    monkeypatch.setattr(type(c), "self_convolution", lambda self, n: conv)
    with pytest.raises(AssertionError):
        del_constrained_orbits(orbit_structure(c, n), d)
    # every conv is constant on the singleton orbits of the trivial group
    del_constrained_orbits(orbit_structure(c, n, trivial=True), d)
    # the check compares one chunk of words at a time: a count off in the
    # last chunk of a 2^16-word array is found too
    n, c = 16, subblock(2, 2)
    struct = orbit_structure(c, n)
    conv = self_convolution(c, n)
    assert np.array_equal(struct._checked_at_reps(conv), struct.conv)
    conv[(1 << n) - 2] += 1
    with pytest.raises(AssertionError):
        struct._checked_at_reps(conv)
    with pytest.raises(AssertionError):
        struct._checked_at_reps(conv[:-1])


def test_orbit_convolution_reads_block_tables(monkeypatch):
    # the counts at the representatives from the per-weight block factors,
    # or from the whole array for a group without a block layout; the block
    # groups read no whole array
    whole = []
    monkeypatch.setattr(constraints, "self_convolution",
                        lambda c, n: whole.append(n) or self_convolution(c, n))
    for c, n, reads in [(two_charge(), 11, 0), (subblock(3, 1), 12, 0),
                        (rll(1), 9, 1)]:
        whole.clear()
        struct = orbit_structure(c, n)
        assert np.array_equal(struct.conv, self_convolution(c, n)[struct.reps])
        assert len(whole) == reads


def test_optimum_confirmed_without_tableau_rebuild(monkeypatch):
    # an LP optimal before REINVERT_CAP pivots, without drift, confirms its
    # basis on one factorization and rebuilds no tableau
    rebuilds = []
    original = lp._Simplex._reinvert

    def counted(self, *args):
        rebuilds.append(args)
        return original(self, *args)

    monkeypatch.setattr(lp._Simplex, "_reinvert", counted)
    for build in (lambda: del_classic(13, 2),
                  lambda: del_constrained(10, 5, rll(2)),
                  lambda: del_constrained_sym(15, 4, subblock(3, 2))):
        sol = build().solution
        assert 0 < sol.iterations < lp.REINVERT_CAP
        assert sol.stats["refactorizations"] == 1
    assert not rebuilds


def test_del_constrained_monotone_in_d():
    for c, n in [(two_charge(), 9), (rll(1), 8)]:
        values = [del_constrained(n, d, c).lp_value for d in range(1, 7)]
        for a, b in zip(values, values[1:]):
            assert b <= a + TOL


def test_del_constrained_proposition_bounds():
    # sqrt(OPT) never exceeds |A|, and never exceeds the plain Delsarte bound
    for c, n in [(two_charge(), 9), (rll(1), 8), (rll(2), 8),
                 (subblock(2, 2), 8)]:
        size = cardinality(c, n)
        for d in (2, 3, 4, 5):
            report = del_constrained(n, d, c)
            assert report.code_size_bound <= size + TOL
            assert report.code_size_bound <= del_classic(n, d).lp_value + TOL


def _min_distance(code):
    return min(w.bit_count() for w in iterate_span(code.generator.data) if w)


def test_del_constrained_sandwich_with_brute_codes():
    # brute lower bound: max |C ∩ A| over random linear codes of distance >= d
    n, d, c = 8, 3, rll(1)
    rng = random.Random(5)
    best = 1
    for _ in range(300):
        k = rng.randint(1, 4)
        rows = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        mat = BitMatrix(rows, n)
        if gf2_rank(mat) != k:
            continue
        code = BinaryLinearCode(generator=mat)
        if _min_distance(code) >= d:
            best = max(best, count_brute(code, c))
    report = del_constrained(n, d, c)
    assert best >= 2  # the search found something nontrivial
    assert best <= report.code_size_bound + TOL


def test_gensph_known_values():
    expected = {2: 64, 3: 64, 4: 64, 5: 64, 6: 64, 7: 32, 8: 32, 9: 16, 10: 16}
    for d, value in expected.items():
        assert gensph(13, d, two_charge()).lp_value == pytest.approx(value, abs=5e-3)


def test_gensph_sandwiches_max_clique():
    # gensph upper-bounds the largest subset of A with pairwise distance >= d
    def clique(chosen, rest, d):
        best = len(chosen)
        for i, x in enumerate(rest):
            if all((x ^ y).bit_count() >= d for y in chosen):
                best = max(best, clique(chosen + [x], rest[i + 1:], d))
        return best

    for n, d, c in [(6, 3, rll(1)), (8, 3, rll(2)), (8, 3, even_strict())]:
        lower = clique([], member_ints(c, n), d)
        assert lower >= 2
        assert gensph(n, d, c).lp_value + TOL >= lower


def _ball(x, n, t):
    """The words within distance t of x, one bit flip at a time."""
    out = {x}
    for _ in range(t):
        out |= {y ^ (1 << i) for y in out for i in range(n)}
    return out


def test_gensph_model_matches_word_by_word_build():
    # the array build of the ball-count matrix against one ball per member
    # representative, mapped to orbit positions word by word
    for c, n, d in [(two_charge(), 8, 3), (subblock(2, 1), 10, 5),
                    (rll(1), 9, 5), (rll(2), 10, 3), (even_strict(), 8, 5),
                    (odd_strict(), 9, 3), (odd_relaxed(), 8, 7),
                    (fixed_weight(4), 9, 3), (rll(1), 7, 1)]:
        struct = orbit_structure(c, n)
        t = (d - 1) // 2
        counts = []
        for rep in struct.reps.tolist():
            if member_int(c, n, rep):
                counts.append({})
                for y in _ball(rep, n, t):
                    o = int(struct.index[y])
                    counts[-1][o] = counts[-1].get(o, 0) + 1
        union = sorted(set().union(*counts))
        matrix = np.array([[cnt.get(o, 0) / struct.sizes[o] for o in union]
                           for cnt in counts])
        expected = matrix[:, _undominated(matrix)]
        assert np.array_equal(gensph(n, d, c).model.rows, expected)


def test_gensph_orbit_aggregation_matches_direct():
    # the symmetrized LP must agree with a direct run on the raw member
    # form: the packing LP over the distinct sets of members covering a
    # point, each member in at most weight 1 of them, solved here, and its
    # dual, the covering LP over the members, which fails at the origin, by
    # HiGHS when scipy is present
    have_highs = importlib.util.find_spec("scipy") is not None
    for c, n, d in [(two_charge(), 8, 3), (subblock(2, 1), 8, 5),
                    (rll(1), 8, 3), (rll(1), 9, 7), (rll(2), 8, 3),
                    (rll(2), 8, 5), (even_strict(), 8, 3), (even_strict(), 7, 5)]:
        t = (d - 1) // 2
        members = member_ints(c, n)
        covers = {}
        for x in members:
            for y in _ball(x, n, t):
                covers.setdefault(y, set()).add(x)
        index = {x: i for i, x in enumerate(members)}
        distinct = {frozenset(v) for v in covers.values()}
        rows = np.zeros((len(distinct), len(members)))
        for i, cover in enumerate(distinct):
            rows[i, [index[x] for x in cover]] = 1.0
        direct = solve(LpModel("max", np.ones(len(rows)), rows.T,
                               ["<="] * len(members), np.ones(len(members))))
        assert direct.status == "optimal"
        value = gensph(n, d, c).lp_value
        assert value == pytest.approx(direct.value, abs=1e-6)
        if have_highs:
            covering = _highs_covering(rows)
            assert value == pytest.approx(covering, abs=1e-6)


def _highs_covering(rows):
    """Optimum of min sum x subject to rows @ x >= 1, x >= 0, by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(np.ones(rows.shape[1]), A_ub=-rows,
                  b_ub=-np.ones(len(rows)), method="highs")
    assert res.status == 0
    return res.fun


def test_undominated_columns():
    # column 1 is at least column 0 everywhere; column 3 repeats column 2
    matrix = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    assert _undominated(matrix) == [0, 2]


def _undominated_loop(matrix):
    """Oracle: visit the columns by ascending sum, keep one unless a kept
    column is entrywise at most it."""
    kept = []
    for j in np.argsort(matrix.sum(axis=0), kind="stable").tolist():
        if not any((matrix[:, i] <= matrix[:, j]).all() for i in kept):
            kept.append(j)
    return sorted(kept)


def _undominated_blocked(matrix, block=1 << 20):
    """Oracle: the same filter comparing every column pair of a block of
    columns by value, the block sized so that a comparison holds at most
    max(block, matrix.size) booleans."""
    order = np.argsort(matrix.sum(axis=0), kind="stable")
    columns = matrix[:, order]
    count = len(order)
    keep = np.zeros(count, dtype=bool)
    step = max(1, block // max(1, matrix.size))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        before = np.flatnonzero(keep[:hi] | (np.arange(hi) >= lo))
        below = (columns[:, before, None] <= columns[:, None, lo:hi]).all(axis=0)
        below &= before[:, None] < np.arange(lo, hi)
        keep[lo:hi] = ~below.any(axis=0)
    return np.sort(order[keep]).tolist()


def _tied_matrices(rng, count, rows, cols):
    """Seeded nonnegative matrices of small rationals, fewer than `rows` by
    fewer than `cols`, so that many columns tie in sum or dominate others,
    with repeated columns."""
    matrices = []
    for _ in range(count):
        r, c = rng.integers(1, rows), rng.integers(1, cols)
        base = rng.integers(0, 3, size=(r, c)) / rng.integers(1, 4)
        matrices.append(base[:, rng.integers(0, c, size=c + 8)])
    return matrices


def test_undominated_columns_match_loop(monkeypatch):
    # seeded matrices with repeated columns, within one block of 64 columns
    # and across blocks, with bitsets of one to three words, and with the
    # comparisons cut into pieces of one to a few hundred words or entries
    rng = np.random.default_rng(43)
    matrices = _tied_matrices(rng, 150, 6, 30) + _tied_matrices(rng, 12, 150,
                                                                160)
    expected = [_undominated_loop(matrix) for matrix in matrices]
    for block in (lp.PAIR_BLOCK, 1, 100, 400):
        monkeypatch.setattr(lp, "PAIR_BLOCK", block)
        for matrix, kept in zip(matrices, expected):
            assert _undominated(matrix) == kept


def test_undominated_matches_blocked_filter(monkeypatch):
    # the GenSph matrices of Tables II, III and VI and of every family at
    # n = 8, and seeded matrices with ties and repeated columns
    matrices = []

    def recorded(matrix):
        matrices.append(matrix)
        return _undominated_blocked(matrix)

    monkeypatch.setattr(lp, "_undominated", recorded)
    for n, c, ds in ((13, two_charge(), range(2, 11, 2)),
                     (15, subblock(3, 2), range(2, 8, 2)),
                     (10, rll(2), range(2, 8, 2)),
                     (10, rll(1), range(2, 8, 2))):
        for d in ds:
            gensph(n, d, c)
    for c in (two_charge(), subblock(2, 1), rll(1), rll(2), even_strict(),
              odd_relaxed(), odd_strict(), fixed_weight(3)):
        for d in (1, 3, 5, 7):
            gensph(8, d, c)
    monkeypatch.undo()
    assert len(matrices) == 46
    matrices += _tied_matrices(np.random.default_rng(44), 40, 100, 300)
    for matrix in matrices:
        for block in (1 << 20, 50):
            assert _undominated(matrix) == _undominated_blocked(matrix, block)


def test_bound_caps():
    with pytest.raises(CapExceeded):
        del_constrained(20, 3, rll(1))
    with pytest.raises(CapExceeded):
        gensph(20, 3, rll(1))
    # the reversal group of rll has 4160 orbits at n = 13, too many rows
    with pytest.raises(CapExceeded):
        del_constrained_sym(13, 3, rll(1))
    with pytest.raises(CapExceeded):
        del_constrained_sym(20, 3, rll(1))


def test_orbit_lp_refused_before_orbits_are_built(monkeypatch):
    # 2^22 words under the order-2 reversal group leave at least 2^21 orbits,
    # far over the row cap, so no orbit structure may be built
    def fail(self, constraint, n):
        raise AssertionError("orbit structure built for n=%d" % n)

    monkeypatch.setattr(OrbitStructure, "__init__", fail)
    with pytest.raises(CapExceeded):
        del_constrained_sym(22, 3, rll(1))


def test_orbit_lp_refused_before_counts_are_built(monkeypatch):
    # the trivial group leaves 2^20 orbits at n = 20, far over the row cap:
    # the LP is refused before the structure builds its self-convolution
    calls = []
    monkeypatch.setattr(constraints, "self_convolution",
                        lambda c, n: calls.append(n))
    structure = orbit_structure(rll(1), 20, trivial=True)
    with pytest.raises(CapExceeded):
        del_constrained_orbits(structure, 3)
    assert not calls


# -- dual certificates ---------------------------------------------------------


def test_dual_certificate_delta_function():
    # beta = 2^n * delta_0 is always feasible and certifies the trivial bound
    n, d, c = 8, 3, rll(1)
    beta = [0.0] * (1 << n)
    beta[0] = float(1 << n)
    value = dual_certificate_bound(n, d, c, beta)
    assert value == pytest.approx(
        (1 << n) * min(del_classic(n, d).lp_value, cardinality(c, n)))


def test_dual_certificate_weak_duality():
    # any accepted certificate upper-bounds every actual constrained subcode
    n, d, c = 8, 3, rll(1)
    beta = [0.0] * (1 << n)
    beta[0] = float(1 << n)
    bound = dual_certificate_bound(n, d, c, beta)
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 4)
        rows = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        mat = BitMatrix(rows, n)
        if gf2_rank(mat) != k:
            continue
        code = BinaryLinearCode(generator=mat)
        if _min_distance(code) >= d:
            assert count_brute(code, c) <= bound + TOL


def test_dual_certificate_rejections():
    n, d, c = 6, 3, rll(1)
    size = 1 << n
    with pytest.raises(CertificateRejected):
        # all-ones beta has weight->=d support with positive values
        dual_certificate_bound(n, d, c, [1.0] * size)
    bad_sum = [0.0] * size
    bad_sum[0] = 1.0
    with pytest.raises(CertificateRejected):
        dual_certificate_bound(n, d, c, bad_sum)
    negative = [0.0] * size
    negative[1] = float(size)  # transform takes the value -2^n somewhere
    with pytest.raises(CertificateRejected):
        dual_certificate_bound(n, d, c, negative)


def test_certificate_value_dominates_lp_bound():
    # the delta certificate is one feasible dual point, so the LP bound on
    # |C ∩ A|^2 cannot exceed it
    n, d, c = 8, 3, rll(1)
    beta = [0.0] * (1 << n)
    beta[0] = float(1 << n)
    cert = dual_certificate_bound(n, d, c, beta)
    assert del_constrained(n, d, c).lp_value <= cert + TOL
