"""NNLS solves per command-line run: how often a projection's warm start missed.

A polyhedral projection first polishes the active set it was handed and
solves the NNLS only where that set fails its KKT test, so the count of
`dpic.sets._nnls` calls over a run is its count of cold starts, plus the
one NNLS of each normal-cone residual, bounding box and `Polyhedron`
emptiness test.  Each line of the markdown table is one in-process
`dpic.cli.main` call.  The table is recorded, not gated.

    PYTHONPATH=src python tests/nnls_counts.py   # print the markdown table
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import dpic.sets as sets

DATA = Path(__file__).resolve().parent / "data"
RUNS = [("four-tank simulate", ["simulate", "--preset", "four-tank"]),
        ("four-tank sweep", ["sweep", "--preset", "four-tank"]),
        ("polytope-lti-seed7.json simulate",
         ["simulate", "--config", str(DATA / "polytope-lti-seed7.json")]),
        ("four-tank-ball.json simulate",
         ["simulate", "--config", str(DATA / "four-tank-ball.json")])]


def count_solves(argv: list[str]) -> int:
    """The _nnls calls of one cli.main run, writing its outputs to a temporary
    directory; raises if the run exits nonzero."""
    from dpic.cli import main

    calls, real = [0], sets._nnls

    def counted(*args):
        calls[0] += 1
        return real(*args)

    sets._nnls = counted
    try:
        with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
            if (status := main([*argv, "--out", out])) != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {status}")
    finally:
        sets._nnls = real
    return calls[0]


def main() -> None:
    print("| run | NNLS solves |")
    print("| --- | ---: |")
    for name, argv in RUNS:
        print(f"| {name} | {count_solves(argv)} |")


if __name__ == "__main__":
    main()
