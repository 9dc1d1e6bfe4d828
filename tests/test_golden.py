from golden import commands, load, replay

from constrcodes.cli import TABLE_BUILDERS


def test_golden_outputs_replay():
    # every golden command gives the recorded exit code and output bytes
    golden = load()
    assert [e["argv"] for e in golden] == commands()
    for entry in golden:
        assert replay(entry["argv"]) == (entry["exit"], entry["stdout_sha256"]), \
            " ".join(entry["argv"])


def test_golden_replays_every_table():
    assert {argv[2] for argv in commands() if argv[0] == "table"} \
        == set(TABLE_BUILDERS)
