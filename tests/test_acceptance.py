"""Acceptance gate: the headline numbers, bound tables, and property suites,
each with its runtime budget."""

import time

import pytest

from constrcodes import (count_in_code, count_odd_in_code, del_classic,
                         del_constrained, del_constrained_sym, gensph,
                         hamming_code, reed_muller, rll, subblock, two_charge)
from constrcodes.cli import (TABLE_BUILDERS, _evaluate_cell, _suite_charsum,
                             _suite_counts, _suite_fourier, _suite_lp_sym,
                             _suite_macwilliams, _suite_plotkin)


class budget:
    """Assert a wall-clock budget around a block."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, \
                "%.1f s exceeds the %.0f s budget" % (elapsed, self.seconds)


def _cells(table_id):
    """{(row, column): cell} of a table's description."""
    _, rows = TABLE_BUILDERS[table_id]()
    return {(label, cell["column"]): cell for label, cells in rows
            for cell in cells}


def _assert_tables_ok(*table_ids):
    """Every cell of the tables matches its reference value."""
    for table_id in table_ids:
        for key, cell in _cells(table_id).items():
            result = _evaluate_cell(cell)
            assert result["status"] == "OK", (table_id, key, result)


def _reference(table_id, row, column):
    return _cells(table_id)[row, column]["expected"]


def test_criterion_1_two_charge_counts_in_rm():
    with budget(60):
        _assert_tables_ok("I")
        # the table shows 4 significant digits of this count
        assert count_in_code(reed_muller(6, 4), two_charge()).value == 67108864


def test_criterion_2_hamming_two_charge_closed_form():
    with budget(10):
        for m in (3, 4, 5):
            count = count_in_code(hamming_code(m), two_charge()).value
            assert count == 1 << (((1 << m) - 1) // 2 - 1)


def test_criterion_3_rll_even_odd_counts():
    with budget(30):
        _assert_tables_ok("V", "even-counts", "odd-counts")
        # odd-run counts against their closed forms, m <= 5
        for m in (3, 4, 5):
            report = count_odd_in_code(hamming_code(m))
            assert report.count == report.predicted
        for m, r in ((3, 1), (4, 2), (4, 3), (5, 3)):
            report = count_odd_in_code(reed_muller(m, r))
            assert report.count == report.predicted


def test_criterion_4_even_weight_distribution_n17():
    with budget(60):
        _assert_tables_ok("even-weights")


def test_criterion_5_table_n13_two_charge():
    # the table reads every constrained LP through the orbit structure it
    # shares across a column, and Del(n,d) from that LP's comparator; the
    # entry points a caller uses give the same values
    with budget(120):
        _assert_tables_ok("II")
        assert del_constrained_sym(13, 9, two_charge()).code_size_bound == \
            pytest.approx(_reference("II", "d=9", "sqrt(Del)"), abs=5e-3)
        assert del_classic(13, 9).code_size_bound == \
            pytest.approx(_reference("II", "d=9", "Del(n,d)"), abs=5e-3)


def test_criterion_6_subblock_tables():
    with budget(120):
        _assert_tables_ok("III", "IV")
        assert gensph(15, 5, subblock(3, 2)).code_size_bound == \
            pytest.approx(_reference("III", "d=5", "GenSph"), abs=5e-3)


def test_criterion_7_rll_bound_table_n10():
    with budget(180):
        _assert_tables_ok("VI")
        assert del_constrained(10, 4, rll(2)).code_size_bound == \
            pytest.approx(_reference("VI", "d=4", "sqrt(Del) rll:d=2"),
                          abs=5e-3)


@pytest.mark.parametrize("suite", [_suite_charsum, _suite_counts,
                                   _suite_fourier, _suite_lp_sym,
                                   _suite_plotkin, _suite_macwilliams])
def test_criterion_8_property_suites(suite):
    with budget(120):
        ok, cases, counterexample = suite(None)
    assert ok, counterexample
    assert cases > 0
