"""Pinned outputs: SHA-256 digests of the files that fixed CLI runs write.

Each run is one `dpic` command on a preset or on a config under
tests/data/; its digests cover every file it writes and, for `certify`,
its stdout.  Bits may differ across numpy and BLAS builds, so the digests
in output_digests.json are keyed by environment (environment_key).

    PYTHONPATH=src python tests/pin_outputs.py           # rewrite this environment's entry
    PYTHONPATH=src python tests/pin_outputs.py --status  # print "<key>: match|mismatch|no entry"

A mismatch names each run whose exit code moved and each run/file whose bits did.

A change that moves any bit reruns the first form and says in CHANGES.md
which file moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
DIGESTS = HERE / "output_digests.json"


def _config(name: str) -> list[str]:
    return ["--config", str(DATA / f"{name}.json")]


# run name: (command, source); a source is a preset or a config in tests/data
RUNS = {
    **{f"{cmd}-{preset}": (cmd, ["--preset", preset])
       for preset in ("lti-demo", "four-tank") for cmd in ("simulate", "sweep", "certify")},
    **{f"simulate-polytope-lti-seed{seed}": ("simulate", _config(f"polytope-lti-seed{seed}"))
       for seed in (1, 2, 3, 7)},
    **{f"{cmd}-lti-demo-ball": (cmd, _config("lti-demo-ball"))
       for cmd in ("simulate", "sweep", "certify")},
    **{f"simulate-{name}": ("simulate", _config(name))
       for name in ("four-tank-ball", "lti-demo-disc", "four-tank-ellipse")},
}


def environment_key() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}, {platform.machine()}"


def run_all(out: Path) -> dict[str, dict]:
    """Run every pinned command in this process, each writing under out/<run>;
    returns {run: {"exit": code, "sha256": {file: digest}}}, where certify's
    stdout is the file stdout.txt."""
    from dpic.cli import main

    results = {}
    for name, (cmd, source) in RUNS.items():
        run_dir = out / name
        run_dir.mkdir(parents=True)
        argv = [cmd, *source] + (["--out", str(run_dir)] if cmd != "certify" else [])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if cmd == "certify":
            (run_dir / "stdout.txt").write_text(stdout.getvalue())
        results[name] = {"exit": code, "sha256": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(run_dir.iterdir())}}
    return results


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def moved(pinned: dict, results: dict) -> list[str]:
    """Each run missing from either side, each exit code and each run/file whose
    digest differs between the pinned entry and this environment's results."""
    out = [f"{run}: not run" if run not in results else f"{run}: not pinned"
           for run in sorted(pinned.keys() ^ results.keys())]
    for run in sorted(pinned.keys() & results.keys()):
        want, got = pinned[run], results[run]
        if got["exit"] != want["exit"]:
            out.append(f"{run}: exit {got['exit']}, pinned {want['exit']}")
        out += [f"{run}/{name}" for name in sorted(want["sha256"].keys() | got["sha256"].keys())
                if got["sha256"].get(name) != want["sha256"].get(name)]
    return out


def main(argv: list[str]) -> int:
    key = environment_key()
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(Path(tmp))
    digests = load_digests()
    if argv == ["--status"]:
        if key not in digests:
            status = "no entry"
        else:
            changes = moved(digests[key], results)
            status = f"mismatch: {', '.join(changes)}" if changes else "match"
        print(f"output digests ({key}): {status}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    digests[key] = results
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} runs for {key} to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
