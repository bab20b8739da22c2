"""Projection stress: how often the polyhedral projection fails on sets known to
be nonempty, and how often a `Polyhedron` gets its emptiness verdict wrong.

Every family is a fixed set of seeded draws.  Each line of the table counts the
`ProjectionError`s of one family at one distance or scale; the `Polyhedron`
lines count nonempty sets rejected and empty slabs accepted.  Every count
should read 0.  The table is recorded, not gated.

    PYTHONPATH=src python tests/projection_stress.py   # print the markdown table

- far polytopes: 200 bounded 8-row 3-D polytopes, ten directions each, at
  |x| = 1e3 to 1e16 in the identity metric;
- column-scaled polytopes and cones: 200 draws of 2-5-D rows, column 0 times
  1e-3, 1e-5 and 1e-7, ten standard normal points each; a cone has b = 0;
- `Polyhedron` far from the origin: far_polyhedra at each |c| and kind;
- `LinearPreimage` of the box [-1, 1]^n, 2 <= n <= 4, under a K of condition
  1e2 to 1e8, ten points x each, K x three times a standard normal draw.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from dpic import Box, LinearPreimage, Metric, Polyhedron, ProjectionError  # noqa: E402
from lp_oracle import rows_support  # noqa: E402


def far_family(count: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(A, b, directions) of the first count bounded 8-row 3-D polytopes drawn
    from default_rng(11): rows standard normal, b uniform in [0.5, 2], bounded
    along each axis by HiGHS, then ten standard normal directions."""
    rng = np.random.default_rng(11)
    family = []
    while len(family) < count:
        A, b = rng.standard_normal((8, 3)), rng.uniform(0.5, 2.0, 8)
        if all(np.isfinite(rows_support(A, b, c)) for c in np.vstack([np.eye(3), -np.eye(3)])):
            family.append((A, b, rng.standard_normal((10, 3))))
    return family


def far_polyhedra(far: float, empty: bool):
    """500 (A, b) from a generator seeded by (log10 far, empty): 2-5-D, dim + 1 to
    20 rows of norms 1e-3 to 1e3, each facet 0.1 to 1 from a center c with
    |c| = far.  An empty one turns row 1 to face row 0, 0.01 to 1 past it: a
    slab with no point."""
    rng = np.random.default_rng([int(np.log10(far)), int(empty)])
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(dim + 1, 21))
        g = rng.standard_normal((rows, dim))
        g /= np.linalg.norm(g, axis=1)[:, None]
        c = rng.standard_normal(dim)
        c *= far / np.linalg.norm(c)
        t = rng.uniform(0.1, 1.0, rows)
        norms = 10.0 ** rng.uniform(-3.0, 3.0, rows)
        if empty:
            g[1], t[1] = -g[0], -t[0] - rng.uniform(0.01, 1.0)
        yield norms[:, None] * g, norms * (g @ c + t)


def _raises(set_, points) -> int:
    metric, count = Metric.identity(set_.dim), 0
    for x in points:
        try:
            set_.project(metric, x)
        except ProjectionError:
            count += 1
    return count


def far_rows(family) -> list[tuple[str, str, int, int]]:
    rows = []
    for far in (1e3, 1e5, 1e6, 1e7, 1e8, 1e12, 1e16):
        raised = sum(_raises(Polyhedron(A, b), far * d / np.linalg.norm(d, axis=1)[:, None])
                     for A, b, d in family)
        rows.append(("far polytopes", f"\\|x\\| = {far:.0e}", raised, 10 * len(family)))
    return rows


def column_scaled_rows() -> list[tuple[str, str, int, int]]:
    rows = []
    for scale in (1e-3, 1e-5, 1e-7):
        rng, points = np.random.default_rng(11), np.random.default_rng(12)
        raised = {"polytopes": 0, "cones": 0}
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            m = int(rng.integers(dim + 1, 3 * dim + 4))
            A, b = rng.standard_normal((m, dim)), rng.uniform(0.5, 2.0, m)
            A[:, 0] *= scale
            X = points.standard_normal((10, dim))
            raised["polytopes"] += _raises(Polyhedron(A, b), X)
            raised["cones"] += _raises(Polyhedron(A, np.zeros(m)), X)
        rows += [(f"column-scaled {kind}", f"column 0 x {scale:.0e}", n, 2000)
                 for kind, n in raised.items()]
    return rows


def polyhedron_rows() -> list[tuple[str, str, int, int]]:
    rows = []
    for empty, fars in ((False, (1e3, 1e5, 1e7, 1e9, 1e12)), (True, (1e3, 1e5, 1e7, 1e9))):
        for far in fars:
            wrong = 0
            for A, b in far_polyhedra(far, empty):
                try:
                    Polyhedron(A, b)
                except ValueError:
                    wrong += not empty
                else:
                    wrong += empty
            kind = "Polyhedron, empty slabs accepted" if empty else "Polyhedron, nonempty rejected"
            rows.append((kind, f"\\|c\\| = {far:.0e}", wrong, 500))
    return rows


def preimage_rows() -> list[tuple[str, str, int, int]]:
    rows = []
    for cond in (1e2, 1e4, 1e6, 1e8):
        rng, raised = np.random.default_rng(5), 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            K = U @ np.diag(np.logspace(0.0, -np.log10(cond), n)) @ V.T
            X = np.linalg.solve(K, 3.0 * rng.standard_normal((n, 10))).T
            raised += _raises(LinearPreimage(K, Box(-np.ones(n), np.ones(n))), X)
        rows.append(("LinearPreimage of a box", f"cond(K) = {cond:.0e}", raised, 2000))
    return rows


def main() -> int:
    print("projection stress: failures on fixed seeded families (recorded, not gated)\n")
    print("| family | case | failures | of |")
    print("|---|---|---|---|")
    for table in (far_rows(far_family(200)), column_scaled_rows(), polyhedron_rows(),
                  preimage_rows()):
        for family, case, failures, total in table:
            print(f"| {family} | {case} | {failures} | {total} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
