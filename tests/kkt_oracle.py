"""A null-space KKT oracle for projections onto rows {v : A v <= b}."""

from itertools import combinations

import numpy as np


def nullspace_project(P, A, b, x):
    """Projection of x onto {v : A v <= b} in the metric P, by active-set
    enumeration in null-space form (Nocedal & Wright, Numerical Optimization,
    2006, sec. 16.2).

    For each independent set S of at most dim rows, v_p is the P-least-norm
    point of A_S v = b_S and N an orthonormal basis of the null space of A_S,
    from its SVD; the candidate v = v_p + N (N^T P N)^{-1} N^T P (x - v_p)
    projects x onto {v : A_S v = b_S}, with multipliers lam solving
    A_S^T lam = P (x - v).  The result is the candidate that meets the KKT
    conditions best: each row's miss over |b_i| + |a_i| (1 + |v|), and each
    negative multiplier over the largest.  At a vertex v = v_p involves no x,
    so a far x costs the oracle no digits there; on an edge or a face
    N^T P (x - v_p) rounds with |x|, as any formula in x does.  Unlike
    grid_oracle.enumerate_project, which keeps the nearest feasible candidate,
    it needs no distances, which a far x rounds alike.
    """
    P, A, b, x = (np.asarray(a, dtype=float) for a in (P, A, b, x))
    if np.all(A @ x <= b):
        return x.copy()
    m, dim = A.shape
    Linv_T = np.linalg.inv(np.linalg.cholesky(P)).T  # P^{-1} = Linv_T Linv_T^T
    norms = np.linalg.norm(A, axis=1)
    best, best_score = None, np.inf
    for k in range(1, min(m, dim) + 1):
        S = np.array(list(combinations(range(m), k)))                   # (N, k)
        A_S = A[S]                                                       # (N, k, dim)
        _, sv, Vt = np.linalg.svd(A_S)
        independent = sv[:, -1] > 1e-10 * sv[:, 0]
        S, A_S, Vt = S[independent], A_S[independent], Vt[independent]
        # v_p = L^{-T} w, w the least-norm solution of A_S L^{-T} w = b_S, by SVD
        v = (Linv_T @ (np.linalg.pinv(A_S @ Linv_T) @ b[S][..., None]))[..., 0]
        if k < dim:
            N = Vt[:, k:].transpose(0, 2, 1)                             # (N, dim, dim - k)
            NtP = N.transpose(0, 2, 1) @ P
            v = v + (N @ np.linalg.solve(NtP @ N, NtP @ (x - v)[..., None]))[..., 0]
        lam = (np.linalg.pinv(A_S.transpose(0, 2, 1)) @ (P @ (x - v)[..., None]))[..., 0]
        scale = np.abs(b) + norms * (1.0 + np.linalg.norm(v, axis=1))[:, None]
        miss = np.max((v @ A.T - b) / scale, axis=1)
        largest = np.maximum(np.abs(lam).max(axis=1), np.finfo(float).tiny)
        score = np.maximum(miss, -lam.min(axis=1) / largest)
        i = int(np.argmin(score))
        if score[i] < best_score:
            best, best_score = v[i], score[i]
    return best
