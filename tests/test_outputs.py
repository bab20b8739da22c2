"""Pinned outputs: the runs of pin_outputs.RUNS write, bit for bit, the files
whose digests output_digests.json holds for this environment."""

import pytest

from pin_outputs import DIGESTS, environment_key, load_digests, moved, run_all


def test_every_pinned_run_writes_its_pinned_bits(tmp_path):
    key = environment_key()
    pinned = load_digests().get(key)
    if pinned is None:
        pytest.skip(f"{DIGESTS.name} has no entry for {key}; "
                    "tests/pin_outputs.py writes one")
    changes = moved(pinned, run_all(tmp_path))
    assert not changes, (f"outputs differ from {DIGESTS.name} [{key}]: {', '.join(changes)}; "
                         f"this run's outputs are under {tmp_path}")
