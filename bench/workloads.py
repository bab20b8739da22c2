"""Seeded generator of the polytope-lti run configuration, and the check of
the property that sets that workload apart."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POLYTOPE_ROWS = 20
POLYTOPE_DIM = 4
_DESIGN_SEED = 0  # fixed draw of the projection geometry


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _bounded(normals: np.ndarray) -> bool:
    """Is {u : normals @ u <= 1} bounded?  Sampling the normal cone needs it."""
    from dpic.sets import Polyhedron

    lower, upper = Polyhedron(normals, np.ones(len(normals))).bounding_box()
    return bool(np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)))


def polytope_lti_config(seed: int, segment: int = 200) -> dict:
    """Seeded 4-input LTI run under a 20-row polytope and a non-diagonal metric.

    The plant is x <- A x + B u, e = x - r with r the disturbance, so the
    steady-state error is G u - r with G = (I - A)^{-1} B.  The gain is
    K = G^{-1} M with M = I + 0.3 N, |N|_2 = 1, so the steady-state operator
    M eta - r is strongly monotone; the metric P solves M^T P + P M = I.
    The input set is {u : a_i . u <= 1} for 20 random unit normals.

    G, M, the normals and the direction of the infeasible reference come
    from a fixed design draw, so every seed projects onto the same set in
    the same metric and settles on the same active facets; the work per
    step then differs little between seeds.  The seed draws the plant
    dynamics A (with B = (I - A) G), the feasible reference (an input of
    norm 0.5, inside the set since every facet is at distance 1) and a
    small offset of the infeasible one (an input near norm 2.5, outside).
    """
    from scipy.linalg import solve_continuous_lyapunov

    dim = POLYTOPE_DIM
    design = np.random.default_rng(_DESIGN_SEED)
    G = np.eye(dim) + 0.3 * design.standard_normal((dim, dim)) / np.sqrt(dim)
    N = design.standard_normal((dim, dim))
    M = np.eye(dim) + 0.3 * N / np.linalg.norm(N, 2)
    K = np.linalg.solve(G, M)
    P = solve_continuous_lyapunov(M.T, np.eye(dim))
    P = 0.5 * (P + P.T)
    while True:
        normals = np.array([_unit(design, dim) for _ in range(POLYTOPE_ROWS)])
        if _bounded(normals):
            break
    while True:
        out_dir = _unit(design, dim)
        if np.max(normals @ out_dir) > 0.5:
            break

    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = Q @ np.diag(rng.uniform(0.2, 0.5, dim)) @ Q.T
    B = (np.eye(dim) - A) @ G
    u_in = 0.5 * _unit(rng, dim)
    u_out = 2.5 * out_dir + 0.05 * _unit(rng, dim)

    # certificates of M eta - r in the P-metric fix the low-gain threshold
    W = np.linalg.cholesky(P).T
    Mw = W @ M @ np.linalg.inv(W)
    mu = float(np.min(np.linalg.eigvalsh(0.5 * (Mw + Mw.T))))
    L = float(np.linalg.norm(Mw, 2))
    T_s = 1.0
    T_i = 2.0 * T_s * L ** 2 / (2.0 * mu)

    cfg = {
        "seed": int(seed),
        "plant": {
            "type": "lti",
            "A": A.tolist(), "B": B.tolist(), "C": np.eye(dim).tolist(),
            "D": np.zeros((dim, dim)).tolist(),
            "B_w": np.zeros((dim, dim)).tolist(), "D_w": (-np.eye(dim)).tolist(),
            "T_s": T_s,
        },
        "metric": P.tolist(),
        "constraint": {"type": "polyhedron", "A": normals.tolist(),
                       "b": [1.0] * POLYTOPE_ROWS},
        "controller": {"K": K.tolist(), "T_i": T_i, "lambda": 0.5,
                       "u0": [0.0] * dim},
        "scenario": {
            "horizon": 2 * segment,
            "x0": [0.0] * dim,
            "schedule": [[0, (G @ u_in).tolist()], [segment, (G @ u_out).tolist()]],
        },
    }
    check_polytope_lti(cfg)
    return cfg


def check_polytope_lti(cfg: dict) -> None:
    """Raise ValueError unless the config has the property that sets this
    workload apart: a 20-row polytope in 4-D under a non-diagonal metric."""
    rows = np.asarray(cfg["constraint"]["A"], dtype=float)
    P = np.asarray(cfg["metric"], dtype=float)
    if cfg["constraint"]["type"] != "polyhedron" or rows.shape != (POLYTOPE_ROWS, POLYTOPE_DIM):
        raise ValueError(f"polytope-lti needs a {POLYTOPE_ROWS}x{POLYTOPE_DIM} polyhedron, "
                         f"got {cfg['constraint']['type']} {rows.shape}")
    if P.shape != (POLYTOPE_DIM, POLYTOPE_DIM) or np.all(P == np.diag(np.diag(P))):
        raise ValueError("polytope-lti needs a non-diagonal 4x4 metric")


def write_config(cfg: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path
