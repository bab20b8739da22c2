"""Brute-force oracles used to pin expected values independently of the
library's own algorithms.

Everything here is deliberately dumb: dense grids refined around the
incumbent, or every candidate active set tried in turn; no iterative
solvers.  Slow but unarguable.
"""

from itertools import combinations

import numpy as np


def grid_project(P, rows, x, lower, upper, stages=4, points=61, member=None, window=1):
    """Dense-grid minimizer of |x - v|_P over {v : A v <= b} within a box.

    member, if given, maps an (N, dim) array of nodes to a boolean mask and
    further restricts the feasible nodes (a ball, say).  Each stage
    evaluates a points**dim grid and re-centers a box of window steps
    either way on the best feasible node.  Final resolution is
    (upper - lower) / (points - 1) * (2 * window / (points - 1))**(stages - 1),
    far below 1e-3 for the default settings on O(10) data.  At a corner
    where one multiplier is k times another, the best node can sit about
    k steps from the minimizer along the cheaper facet; a window wider
    than k keeps the minimizer inside the next box.
    """
    A, b = rows
    P = np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lower, dtype=float).copy()
    hi = np.asarray(upper, dtype=float).copy()
    dim = lo.size
    best = None
    for _ in range(stages):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        feas = np.all(mesh @ A.T <= b + 1e-12, axis=1)
        if member is not None:
            feas &= member(mesh)
        nodes = mesh[feas]
        if nodes.size == 0:
            raise RuntimeError("grid oracle found no feasible node")
        d = nodes - x
        dist2 = np.einsum("ij,jk,ik->i", d, P, d)
        best = nodes[np.argmin(dist2)]
        step = window * (hi - lo) / (points - 1)
        lo = best - step
        hi = best + step
    return best


def enumerate_project(P, rows, x):
    """Exact minimizer of |x - v|_P over {v : A v <= b} by active-set enumeration.

    The minimizer is the equality-constrained projection onto some
    independent set of at most dim active rows, so trying every subset of
    at most dim rows and keeping the nearest feasible candidate is exact.
    All subsets of one size are solved as one stacked batch.
    """
    A, b = rows
    P = np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.all(A @ x <= b):
        return x.copy()
    m, dim = A.shape
    Pinv_AT = np.linalg.solve(P, A.T)
    G = A @ Pinv_AT
    gap = A @ x - b
    tol = 1e-12 * (1.0 + np.max(np.abs(b)))
    best, best_dist2 = None, np.inf
    for k in range(1, dim + 1):
        S = np.array(list(combinations(range(m), k)))                 # (N, k)
        G_S = G[S[:, :, None], S[:, None, :]]                          # (N, k, k)
        # independent rows only: det(G_S) / prod(diag G_S) is 1 for orthogonal rows
        diag = np.diagonal(G_S, axis1=1, axis2=2)
        independent = np.linalg.det(G_S) > 1e-12 * np.prod(diag, axis=1)
        S, G_S = S[independent], G_S[independent]
        mult = np.linalg.solve(G_S, gap[S][..., None])[..., 0]         # (N, k)
        v = x - np.einsum("nkj,nk->nj", Pinv_AT.T[S], mult)            # (N, dim)
        v = v[np.max(v @ A.T - b, axis=1) <= tol]
        if len(v):
            d = x - v
            dist2 = np.einsum("ni,ij,nj->n", d, P, d)
            if dist2.min() < best_dist2:
                best, best_dist2 = v[np.argmin(dist2)], dist2.min()
    if best is None:
        raise RuntimeError("enumeration oracle found no feasible candidate")
    return best


def grid_vi_solve(F, rows, vertices, lower, upper, stages=5, points=61):
    """Dense-grid search for the point of a 2-D polytope where -F points
    into the normal cone: minimizes max over vertices v of <-F(eta), v - eta>.

    The inner maximum of a linear functional over the polytope is attained
    at a vertex, so checking vertices is exact.
    """
    A, b = rows
    V = np.asarray(vertices, dtype=float)
    lo = np.asarray(lower, dtype=float).copy()
    hi = np.asarray(upper, dtype=float).copy()
    best = None
    for _ in range(stages):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(2)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        feas = np.all(mesh @ A.T <= b + 1e-12, axis=1)
        nodes = mesh[feas]
        vals = np.array([F(eta) for eta in nodes])
        # score(eta) = max_v <-F(eta), v - eta>; nonpositive iff eta solves the VI
        scores = np.max(np.einsum("nd,nvd->nv", -vals, V[None, :, :] - nodes[:, None, :]),
                        axis=1)
        best = nodes[np.argmin(scores)]
        step = (hi - lo) / (points - 1)
        lo = best - step
        hi = best + step
    return best


def random_spd(rng, dim, spread=3.0):
    """Random symmetric positive-definite matrix with eigenvalues in
    [1/spread, spread]."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = rng.uniform(1.0 / spread, spread, size=dim)
    return (Q * evals) @ Q.T


def polygon_rows():
    """Rows (A, b) of the input polygon: [0,45]^2 cut by u1 + u2 <= 85."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([45.0, 45.0, 0.0, 0.0, 85.0])
    return A, b


def polygon_vertices():
    return np.array([[0.0, 0.0], [45.0, 0.0], [45.0, 40.0], [40.0, 45.0], [0.0, 45.0]])
