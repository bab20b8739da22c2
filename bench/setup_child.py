"""Set-up probe run in a fresh interpreter by run.py.

    python3 bench/setup_child.py SRC_DIR (--preset NAME | --config PATH)

Times importing dpic, numpy and scipy included, and building the run
objects (build_setup), and prints one JSON line:
{"elapsed_s": ..., "nominal_s": ...}.  numpy is imported inside the timed
span but before the SpeedProbe can start, since the probe needs it; the
speed the probe measures over the rest is applied to the whole span.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    src, kind, value = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from probe import SpeedProbe

    probe = SpeedProbe()
    with probe:
        import dpic

        cfg = dpic.preset_config(value) if kind == "--preset" else dpic.load_config(value)
        dpic.build_setup(cfg)
        elapsed = time.perf_counter() - t0
    print(json.dumps({"elapsed_s": elapsed, "nominal_s": elapsed * probe.speed()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
