"""Replay of the output manifest ``tests/golden/sweep.tsv``: every run it
lists gives the same exit code, stdout and stderr (see ``sweep.py``)."""

import sweep


def test_manifest_lists_the_sweep_in_order():
    assert [argv for argv, _ in sweep.read()] == sweep.commands()


def test_sweep_replays_byte_identical():
    for argv, want in sweep.read():
        got = sweep.line(argv, sweep.run(argv))
        assert got == want, f"first differing run: {' '.join(argv)}"
