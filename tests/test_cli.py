import json

import pytest

from constrcodes import hamming_code, save_code
from constrcodes.cli import VERIFY_SUITES, main, parse_code


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def get(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def test_count_examples(capsys):
    code, out = run(capsys, "count", "--code", "rm:m=4,r=3",
                    "--constraint", "rll:d=1")
    assert code == 0
    assert get(out, "count") == "1292"
    code, out = run(capsys, "count", "--code", "hamming:m=4",
                    "--constraint", "rll:d=1")
    assert code == 0
    assert get(out, "count") == "101"
    code, out = run(capsys, "count", "--code", "rm:m=4,r=2",
                    "--constraint", "even-strict")
    assert code == 0
    assert get(out, "count") == "198"


def test_count_json_schema(capsys):
    code, out = run(capsys, "count", "--code", "hamming:m=3",
                    "--constraint", "2charge", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"inputs", "result", "provenance", "timing_ms"}
    assert payload["result"]["count"] == "4"  # exact integers are strings
    assert isinstance(payload["timing_ms"], int)


def test_count_methods_agree(capsys):
    values = set()
    for method in ("auto", "dual", "direct", "brute"):
        code, out = run(capsys, "count", "--code", "hamming:m=3",
                        "--constraint", "rll:d=2", "--method", method)
        assert code == 0
        values.add(get(out, "count"))
    assert len(values) == 1


def test_count_from_file(tmp_path, capsys):
    path = tmp_path / "ham.code"
    save_code(hamming_code(4), path)
    code, out = run(capsys, "count", "--code", "file:%s" % path,
                    "--constraint", "rll:d=1")
    assert code == 0
    assert get(out, "count") == "101"


def test_parse_code_grammar():
    assert parse_code("rm:m=3,r=1").n == 8
    assert parse_code("hamming:m=3").k == 4
    assert parse_code("simplex:m=3").k == 3
    assert parse_code("zero:n=5").k == 0
    with pytest.raises(ValueError):
        parse_code("rm:m=3")
    with pytest.raises(ValueError):
        parse_code("mystery:z=1")


def test_bound_examples(capsys):
    code, out = run(capsys, "bound", "--n", "13", "--d", "9",
                    "--constraint", "2charge", "--lp", "all")
    assert code == 0
    assert get(out, "bound") == "2.828"
    assert get(out, "gensph") == "16.000"
    assert get(out, "delsarte") == "3.333"

    code, out = run(capsys, "bound", "--n", "10", "--d", "5",
                    "--constraint", "rll:d=2")
    assert code == 0
    assert get(out, "bound") == "7.856"

    code, out = run(capsys, "bound", "--n", "10", "--d", "3")
    assert code == 0
    assert get(out, "bound") == "85.333"


def test_bound_all_solves_del_classic_once(capsys, monkeypatch):
    # the delsarte column reuses the primary program's del_classic solve
    from constrcodes import cli, lp
    original, calls = lp.del_classic, []

    def counted(n, d):
        calls.append((n, d))
        return original(n, d)

    monkeypatch.setattr(lp, "del_classic", counted)
    monkeypatch.setattr(cli, "del_classic", counted)
    for constraint in (("--constraint", "2charge"), ()):
        calls.clear()
        code, out = run(capsys, "bound", "--n", "13", "--d", "9",
                        *constraint, "--lp", "all")
        assert code == 0
        assert get(out, "delsarte") == "3.333"
        assert calls == [(13, 9)]


def test_bound_lp_dump(tmp_path, capsys):
    path = tmp_path / "model.lp"
    code, _ = run(capsys, "bound", "--n", "9", "--d", "3",
                  "--constraint", "2charge", "--lp", "del-sym",
                  "--lp-dump", str(path))
    assert code == 0
    assert path.read_text().startswith("max")


def test_fourier_single_word(capsys):
    code, out = run(capsys, "fourier", "--constraint", "2charge",
                    "--s", "0000000000")
    assert code == 0
    assert get(out, "char_sum") == "32"  # |A| = 2^5 at n=10


def test_fourier_weight_classes(capsys):
    code, out = run(capsys, "fourier", "--constraint", "weight:i=2", "--n", "4")
    assert code == 0
    # class sums of the weight-2 slice of the 4-cube: K_2(j) aggregated
    assert get(out, "weight_class_sums") == "6 0 -12 0 6"


def test_weight_dist_constrained_set(capsys):
    code, out = run(capsys, "weight-dist", "--constraint", "even-strict",
                    "--n", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "weight,count"
    total = sum(int(line.split(",")[1]) for line in out.splitlines()[1:])
    assert total == 34


def test_weight_dist_subcode(capsys):
    code, out = run(capsys, "weight-dist", "--constraint", "rll:d=1",
                    "--code", "hamming:m=4")
    assert code == 0
    counts = [int(v) for v in get(out, "counts").split()]
    assert sum(counts) == 101


def test_table_ok(capsys):
    code, out = run(capsys, "table", "--id", "V")
    assert code == 0
    assert "status: OK" in out
    assert "1292" in out


def test_table_scientific_rendering(capsys):
    code, out = run(capsys, "table", "--id", "I", "--format", "csv")
    assert code == 0
    assert "1.329e36" in out
    assert "MISMATCH" not in out


def test_table_csv_has_provenance_column(capsys):
    code, out = run(capsys, "table", "--id", "even-counts", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "provenance" in header and "status" in header


def test_verify_selected_suites(capsys):
    code, out = run(capsys, "verify", "--max-n", "6",
                    "--suites", "charsum,fourier,macwilliams")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_max_n_zero_runs_no_case(capsys):
    # an explicit --max-n 0 is a length cap of 0, not the default sizes
    code, out = run(capsys, "verify", "--max-n", "0", "--suites", "charsum")
    assert code == 0
    assert out.split() == ["charsum", "PASS", "(0", "cases)"]
    code, out = run(capsys, "verify", "--max-n", "0")
    assert code == 0
    assert out.count("PASS (0 cases)") == len(VERIFY_SUITES)


def test_verify_injected_fault(capsys):
    code, out = run(capsys, "verify", "--max-n", "5", "--suites", "charsum",
                    "--inject-fault")
    assert code == 1
    assert "counterexample" in out


def test_verify_charsum_checks_array_methods(capsys, monkeypatch):
    from constrcodes.constraints import EvenStrict, Rll
    for cls, method, wrong in (
            (Rll, "char_sum_array", lambda value: value + (value == 1)),
            (EvenStrict, "member_array", lambda value: ~value)):
        original = getattr(cls, method)
        with monkeypatch.context() as patch:
            patch.setattr(cls, method, lambda self, n, words, original=original,
                          wrong=wrong: wrong(original(self, n, words)))
            code, out = run(capsys, "verify", "--max-n", "5", "--suites", "charsum")
        assert code == 1
        assert '"%s": ' % method in out


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suites", "bogus")
    assert code == 2


def test_exit_code_usage_error(capsys):
    code, _ = run(capsys, "count", "--code", "nope:x=1",
                  "--constraint", "2charge")
    assert code == 2
    code, _ = run(capsys, "count", "--code", "rm:m=4,r=2",
                  "--constraint", "subblock:p=3,z=1")
    assert code == 2


def test_exit_code_bad_parameter_mentioning_cap(capsys):
    # a usage error whose message happens to contain "cap"
    code, _ = run(capsys, "count", "--code", "hamming:m=3",
                  "--constraint", "weight:i=cap")
    assert code == 2


def test_exit_code_internal_error(capsys, monkeypatch):
    import constrcodes.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("invariant violated")

    monkeypatch.setattr(cli, "count_in_code", broken)
    code = main(["count", "--code", "hamming:m=3", "--constraint", "rll:d=1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("internal error: invariant violated")


def test_exit_code_resource_cap(capsys):
    code, _ = run(capsys, "weight-dist", "--constraint", "2charge",
                  "--n", "30")
    assert code == 3
    code, _ = run(capsys, "bound", "--n", "25", "--d", "3",
                  "--constraint", "rll:d=1", "--lp", "gensph")
    assert code == 3
    code, _ = run(capsys, "bound", "--n", "20", "--d", "3",
                  "--constraint", "rll:d=1", "--lp", "del")
    assert code == 3
    code, _ = run(capsys, "bound", "--n", "20", "--d", "3",
                  "--constraint", "rll:d=1", "--lp", "del-sym")
    assert code == 3


def test_exit_code_distance_out_of_range(capsys):
    # d outside 1..n is a usage error, reported before any orbit or size cap
    for args in [("--n", "26", "--d", "40", "--constraint", "subblock:p=2,z=2"),
                 ("--n", "26", "--d", "40", "--constraint", "subblock:p=2,z=2",
                  "--lp", "del-sym"),
                 ("--n", "20", "--d", "0", "--constraint", "rll:d=1",
                  "--lp", "del-sym"),
                 ("--n", "10", "--d", "0", "--constraint", "rll:d=1",
                  "--lp", "del")]:
        code, _ = run(capsys, "bound", *args)
        assert code == 2


def test_count_max_n_zero_is_a_cap(capsys):
    # an explicit --max-n 0 refuses both enumerations, not the default cap
    code, _ = run(capsys, "count", "--code", "hamming:m=3",
                  "--constraint", "rll:d=1", "--max-n", "0")
    assert code == 3


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "bound", "--n", "10", "--d", "4",
                     "--constraint", "rll:d=2", "--format", "csv")
        outputs.add(out)
    assert len(outputs) == 1


def _count_calls(monkeypatch, modules, name):
    """Count the calls of `name` made through any of `modules`."""
    original, calls = getattr(modules[0], name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_table_builds_one_orbit_structure_and_convolution(capsys, monkeypatch):
    from constrcodes import cli, lp
    structures = _count_calls(monkeypatch, (cli, lp), "orbit_structure")
    convolutions = _count_calls(monkeypatch, (cli, lp), "self_convolution")
    classic = _count_calls(monkeypatch, (lp, cli), "del_classic")
    code, out = run(capsys, "table", "--id", "IV")
    assert code == 0 and "status: OK" in out
    assert len(structures) == 1 and len(convolutions) == 1
    # Table II reads Del(n,d) from the constrained LP's comparator: one
    # del_classic solve per row
    classic.clear()
    code, out = run(capsys, "table", "--id", "II")
    assert code == 0 and "status: OK" in out
    assert sorted(classic) == [(13, d) for d in range(2, 11)]


def test_table_vi_columns_share_orbit_structure_and_convolution(monkeypatch):
    # the LP itself is stubbed: each constrained column must hand all its
    # cells one orbit structure and one self-convolution
    from constrcodes import cli

    class Report:
        code_size_bound = 0.0
        comparators = {"delsarte": 0.0}

    solved = []

    def stub(structure, d, conv):
        solved.append((str(structure.constraint), d, id(structure), id(conv)))
        return Report()

    structures = _count_calls(monkeypatch, (cli,), "orbit_structure")
    convolutions = _count_calls(monkeypatch, (cli,), "self_convolution")
    monkeypatch.setattr(cli, "del_constrained_orbits", stub)
    _, rows = cli.TABLE_BUILDERS["VI"]()
    for _, cells in rows:
        for cell in cells:
            if cell["provenance"] != "gensph":
                cli._evaluate_cell(cell)
    assert sorted(str(c) for c, _ in structures) == ["rll:d=1", "rll:d=2"]
    assert sorted(str(c) for c, _ in convolutions) == ["rll:d=1", "rll:d=2"]
    for constraint in ("rll:d=1", "rll:d=2"):
        calls = [call for call in solved if call[0] == constraint]
        assert [d for _, d, _, _ in calls] == list(range(2, 8))
        assert len({call[2:] for call in calls}) == 1
