import importlib.util
import itertools
import random

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
from constrcodes import lp
from constrcodes.constraints import OrbitStructure
from constrcodes.lp import (DELAY, ITERATION_LIMIT, _counters, _dedupe,
                            _optimize, _Simplex, _Tableau, _undominated)
from constrcodes.spectral import self_convolution_counts

TOL = 1e-6


# -- the bundled simplex solver ----------------------------------------------


def test_solve_simple_max():
    model = LpModel("max", [1, 1], [[1, 1], [1, 0]], ["<=", "<="], [4, 3])
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(4)


def test_solve_min_with_equality():
    model = LpModel("min", [2, 3], [[1, 1], [1, -1]], [">=", "="], [10, 2])
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(24)
    assert sol.primal[0] == pytest.approx(6)
    assert sol.primal[1] == pytest.approx(4)


def test_solve_negative_rhs_normalization():
    model = LpModel("min", [1, 1], [[-1, -1]], ["<="], [-5])
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(5)


def test_solve_infeasible():
    model = LpModel("max", [1], [[1], [1]], [">=", "<="], [2, 1])
    assert solve(model).status == "infeasible"


def test_solve_unbounded():
    model = LpModel("max", [1, 0], [[0, 1]], ["<="], [1])
    assert solve(model).status == "unbounded"


def test_solve_respects_upper_bounds():
    model = LpModel("max", [1, 2], [[1, 1]], ["<="], [10], upper=[3, 4])
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(11)


def test_solve_negative_upper_bound_is_infeasible():
    model = LpModel("max", [1], [[1]], ["<="], [1], upper=[-1])
    assert solve(model).status == "infeasible"


def test_solve_iteration_limit():
    model = LpModel("min", [2, 3], [[1, 1], [1, -1]], [">=", "="], [10, 2])
    assert solve(model, limit=0).status == "iteration_limit"


def test_solve_covering_lp():
    # fractional vertex cover of a triangle: each edge covered, optimum 3/2
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    sol = solve(LpModel("min", [1, 1, 1], rows, [">="] * 3, [1, 1, 1]))
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
                              "refactorizations", "bland", "repair_pivots"}
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


def _check_block_refactorization(sx, rng, tries):
    """Random bases over the simplex's columns: None when two basic unit
    columns share a row, else the block solve against np.linalg.solve
    (bases singular otherwise, which the repeated row makes, are skipped:
    LU need not flag them exactly).  Returns the number of each kind."""
    m, total = sx.orig.shape
    y = rng.normal(size=(m, 5))
    shared = solved = 0
    for _ in range(tries):
        sx.basis = np.sort(rng.choice(total, size=m, replace=False))
        matrix = sx.orig[:, sx.basis]
        rows = sx.unit_row[sx.basis]
        rows = rows[rows >= 0]
        if len(np.unique(rows)) < len(rows):
            shared += 1
            assert sx._solve_basis(y) is None
        elif np.linalg.matrix_rank(matrix) == m:
            solved += 1
            for rhs in (y, y[:, 0]):
                assert np.allclose(sx._solve_basis(rhs),
                                   np.linalg.solve(matrix, rhs),
                                   rtol=1e-8, atol=1e-8)
    return shared, solved


def test_block_refactorization_matches_dense_solve():
    # bases mixing the model's variables with +1 and -1 slacks and
    # artificials, before and after phase 1 drops a redundant row
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(6, 4))
    coeffs[5] = coeffs[4]  # a repeated equality row, dropped by phase 1
    rhs = coeffs @ [1.0, 2.0, 1.0, 0.5] + [1.0, -1.0, -1.0, 1.0, 0.0, 0.0]
    model = LpModel("max", np.ones(4), coeffs,
                    ["<=", ">=", ">=", "<=", "=", "="], rhs,
                    upper=np.full(4, 10.0))
    sx = _Simplex(model, _counters())
    assert (sx.unit_sign == -1).any() and sx.a0 < len(sx.ub)
    assert min(_check_block_refactorization(sx, rng, 300)) > 0
    status, sx = _optimize(model, _counters(), ITERATION_LIMIT)
    assert status == "optimal" and len(sx.kept) == 5
    # one slack per kept inequality row, so no unit columns collide
    assert _check_block_refactorization(sx, rng, 300) == (0, 300)
    # a zero column makes the factored block singular
    coeffs[:, 2] = 0.0
    sx = _Simplex(LpModel("max", np.ones(4), coeffs, ["<="] * 6, np.ones(6)),
                  _counters())
    sx.basis = np.array([0, 1, 2, 3, 8, 9])
    assert sx._solve_basis(np.ones(6)) is None
    sx.basis = np.array([0, 1, 3, 7, 8, 9])
    assert np.allclose(sx._solve_basis(np.ones(6)),
                       np.linalg.solve(sx.orig[:, sx.basis], np.ones(6)))


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
                      np.where(model.relations == ">=",
                               lhs >= model.rhs - 1e-9,
                               np.abs(lhs - model.rhs) <= 1e-9))
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
    m, n = 6, 3
    repaired = 0
    for _ in range(40):
        coeffs = rng.integers(-3, 4, size=(m, n)).astype(float)
        relations = np.where(rng.random(m) < 0.7, "<=", ">=")
        at = coeffs @ rng.uniform(0, 4, size=n)
        rhs = np.where(relations == "<=", at + rng.uniform(0.5, 3, size=m),
                       at - rng.uniform(0.5, 3, size=m))
        # a shift that keeps each rhs's sign, so both share one normalization
        shifted = rhs + rng.uniform(-1, 1, size=m) * np.abs(rhs) * 0.8
        objective = rng.integers(-4, 5, size=n)
        sense = ("max", "min")[int(rng.integers(2))]
        upper = np.full(n, 6.0)
        model = LpModel(sense, objective, coeffs, relations, rhs, upper)
        state = _counters()
        status, sx = _optimize(LpModel(sense, objective, coeffs, relations,
                                       shifted, upper), state, ITERATION_LIMIT)
        if status != "optimal":
            continue
        assert sx.evaluate(sx.normalized(model.rhs), ITERATION_LIMIT) \
            == "optimal"
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
    ub = model.relations != "="
    eq = ~ub
    res = linprog(
        sign * model.objective,
        A_ub=(flip[:, None] * model.rows)[ub] if ub.any() else None,
        b_ub=(flip * model.rhs)[ub] if ub.any() else None,
        A_eq=model.rows[eq] if eq.any() else None,
        b_eq=model.rhs[eq] if eq.any() else None,
        bounds=[(0, u if np.isfinite(u) else None) for u in model.upper],
        method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (sign * res.fun if res.status == 0 else None)


def _random_bounded_lp(rng, m, n):
    """A random LP over 0 <= x <= ub (some variables unbounded) mixing <=,
    >= and = rows; most are feasible by construction around a random point,
    some have random right-hand sides, and some repeat an equality row."""
    upper = np.full(n, np.inf)
    for j in range(n):
        if rng.random() < 0.7:
            upper[j] = rng.integers(1, 6)
    x0 = np.array([rng.uniform(0, 5.0 if np.isinf(u) else u) for u in upper])
    feasible = rng.random() < 0.8
    rows, rels, rhs = [], [], []
    for _ in range(m):
        coeffs = rng.integers(-3, 4, size=n).astype(float)
        rel = ("<=", ">=", "=")[rng.choice(3, p=[0.45, 0.35, 0.2])]
        at = float(coeffs @ x0) if feasible else float(rng.integers(-5, 10))
        rows.append(coeffs)
        rels.append(rel)
        rhs.append({"<=": at + rng.uniform(0, 2), ">=": at - rng.uniform(0, 2),
                    "=": at}[rel])
    if "=" in rels and rng.random() < 0.5:
        first = rels.index("=")
        rows.append(rows[first])
        rels.append("=")
        rhs.append(rhs[first])
    objective = rng.integers(-4, 5, size=n)
    return LpModel(("max", "min")[int(rng.integers(2))], objective, rows,
                   rels, rhs, upper)


def test_solve_random_lps_against_highs():
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
            seen.add(status)
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_solve_duplicated_equality_rows_against_highs():
    # a repeated equality row leaves an artificial basic in a redundant row,
    # which phase 1 must drop
    model = LpModel("min", [1, 2, 3],
                    [[1, 1, 1], [1, 1, 1], [2, 2, 2], [1, -1, 0]],
                    ["=", "=", "=", ">="], [4, 4, 8, 1],
                    upper=[np.inf, np.inf, 2])
    status, value = _highs(model)
    sol = solve(model)
    assert sol.status == status == "optimal"
    assert sol.value == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("dd,d", [(2, 4), (2, 5), (2, 6), (2, 7), (1, 6),
                                  (1, 7)])
def test_constrained_delsarte_models_against_highs(dd, d):
    model = del_constrained(10, d, rll(dd)).model
    status, value = _highs(model)
    sol = solve(model)
    assert sol.status == status == "optimal"
    assert sol.value == pytest.approx(value, rel=1e-6)


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
                [[orbit_char_sum(struct, o, s) for o in columns] + [-1]
                 for s in reps], [-u0] * len(reps))
            model = del_constrained(n, d, c).model
            assert np.array_equal(model.rows, np.array(rows, dtype=float))
            assert np.array_equal(model.rhs, np.array(rhs))
            assert np.array_equal(model.upper,
                                  [conv[reps[o]] for o in columns] + [u0])
            assert np.array_equal(model.objective,
                                  [struct.sizes[o] for o in columns] + [-1])
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


def test_orbit_lp_rejects_conv_not_constant_on_orbits():
    n, d, c = 8, 3, rll(1)
    conv = self_convolution_counts([member_int(c, n, x) for x in range(1 << n)], n)
    conv[0b00000011] += 1  # its reversal 0b11000000 keeps the old count
    with pytest.raises(AssertionError):
        del_constrained_orbits(orbit_structure(c, n), d, conv=conv)
    # every conv is constant on the singleton orbits of the trivial group
    del_constrained_orbits(orbit_structure(c, n, trivial=True), d, conv=conv)


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
    # the symmetrized LP must agree with a direct run on the raw member form
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
        direct = solve(LpModel("min", np.ones(len(members)), rows,
                               [">="] * len(rows), np.ones(len(rows))))
        assert direct.status == "optimal"
        assert gensph(n, d, c).lp_value == pytest.approx(direct.value, abs=1e-6)


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


def test_undominated_columns_match_loop(monkeypatch):
    # seeded matrices of small rationals with repeated columns, in one block
    # and in blocks of one to a few dozen columns
    rng = np.random.default_rng(43)
    matrices = []
    for _ in range(150):
        rows, cols = rng.integers(1, 6), rng.integers(1, 30)
        base = rng.integers(0, 3, size=(rows, cols)) / rng.integers(1, 4)
        matrices.append(base[:, rng.integers(0, cols, size=cols + 8)])
    for block in (lp.BALL_BLOCK, 1, 100, 400):
        monkeypatch.setattr(lp, "BALL_BLOCK", block)
        for matrix in matrices:
            assert _undominated(matrix) == _undominated_loop(matrix)


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
