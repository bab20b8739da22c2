"""Weighted inner-product geometry induced by a positive definite matrix."""

from __future__ import annotations

import numpy as np

__all__ = ["Metric"]


def _apply(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for x of shape (..., n), one row at a time.

    A point takes M.dot(x) and a one-row batch M.dot(x[0]); a batch of more
    rows takes the broadcast matmul of M with each row as a column.  Each
    makes one BLAS matrix-vector call (gemv) per row on the same M and row,
    so every row's bits are those of the point alone (a matrix-matrix
    product would round differently); dot skips matmul's broadcast set-up,
    which on the loop's few-element rows costs more than the product.
    """
    if x.ndim == 1:
        return M.dot(x)
    if x.shape[:-1] == (1,):
        return M.dot(x[0])[None]
    return (M @ x[..., None])[..., 0]


def _vec(x, dim: int) -> np.ndarray:
    """One point of shape (dim,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected vector of dimension {dim}, got shape {x.shape}")
    return x


def _points(x, dim: int, name: str = "x") -> np.ndarray:
    """One point of shape (dim,) or a batch of shape (..., dim), one point per row."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"{name} must have shape (..., {dim}), got {x.shape}")
    return x


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of x, each rounded exactly as np.linalg.norm(row)."""
    return np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _norm(x: np.ndarray) -> np.ndarray:
    """_row_norms(x), but a finite row whose squares overflow, past about 1.3e154,
    takes the norm of np.hypot, which scales, in place of inf, and with no warning."""
    with np.errstate(over="ignore"):
        norms = _row_norms(x)
    if (over := np.isinf(norms)).any():
        over &= np.isfinite(x).all(axis=-1)
        norms[over] = np.hypot.reduce(x[over], axis=-1)
    return norms


class Metric:
    """Positive definite weight matrix with the inner product and norm it induces.

    The input is symmetrized on construction; meaningfully asymmetric or
    indefinite matrices are rejected.  A Cholesky factor is cached so that
    norms can be evaluated as Euclidean norms of whitened coordinates.
    """

    def __init__(self, weights) -> None:
        P = np.asarray(weights, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("metric weight matrix must be square")
        if not np.all(np.isfinite(P)):
            raise ValueError("metric weight matrix must be finite")
        if np.linalg.norm(P - P.T) > 1e-9 * max(1.0, np.linalg.norm(P)):
            raise ValueError("metric weight matrix is not symmetric")
        P = 0.5 * (P + P.T)
        try:
            chol = np.linalg.cholesky(P)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric weight matrix is not positive definite") from exc
        self.P = P
        self.dim = int(P.shape[0])
        self._chol = chol  # lower triangular, P = chol @ chol.T

    @classmethod
    def identity(cls, dim: int) -> "Metric":
        return cls(np.eye(int(dim)))

    def inner(self, x, y) -> float:
        return float(_vec(x, self.dim) @ self.P @ _vec(y, self.dim))

    def norm(self, x):
        """|x|_P; for a (..., dim) array, the array of its row norms."""
        x = _points(x, self.dim)
        norms = _norm(_apply(self._chol.T, x))
        return float(norms) if x.ndim == 1 else norms

    def whiten(self, x) -> np.ndarray:
        """Coordinates in which the weighted norm is the Euclidean norm."""
        return self._chol.T @ np.asarray(x, dtype=float)

    def solve(self, b) -> np.ndarray:
        """P^{-1} b for a vector or a matrix of columns."""
        return np.linalg.solve(self.P, np.asarray(b, dtype=float))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Metric(dim={self.dim})"
