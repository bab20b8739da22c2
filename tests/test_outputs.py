"""Pinned outputs: the runs of pin_outputs.RUNS write, bit for bit, the files
whose digests output_digests.json holds for this environment."""

import pytest

from pin_outputs import DIGESTS, environment_key, load_digests, run_all


def test_every_pinned_run_writes_its_pinned_bits(tmp_path):
    key = environment_key()
    pinned = load_digests().get(key)
    if pinned is None:
        pytest.skip(f"{DIGESTS.name} has no entry for {key}; "
                    "tests/pin_outputs.py writes one")
    results = run_all(tmp_path)
    assert results.keys() == pinned.keys()
    moved = []
    for run, want in pinned.items():
        got = results[run]
        if got["exit"] != want["exit"]:
            moved.append(f"{run}: exit {got['exit']}, pinned {want['exit']}")
        for name in sorted(want["sha256"].keys() | got["sha256"].keys()):
            if got["sha256"].get(name) != want["sha256"].get(name):
                moved.append(f"{run}/{name}")
    assert not moved, (f"outputs differ from {DIGESTS.name} [{key}]: {', '.join(moved)}; "
                       f"this run's outputs are under {tmp_path}")
