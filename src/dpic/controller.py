"""The damped projected integral controller.

The damped projected integral update keeps the integrator state eta inside
Gamma = {eta : K eta in C}, so the emitted input u = K eta satisfies the
input constraints at every step and the integrator cannot wind up:

    u_k      = K eta_k
    eta_{k+1} = (1 - damping) * eta_k
                + damping * Proj_Gamma^P(eta_k - (T_s / T_i) * e_k)

The projection is evaluated lazily: when the forward step already lies in
Gamma the update reduces to the classical integral law with per-step gain
damping * T_s / T_i, which ClassicalIntegralController steps for
comparison.  _damped_projected_update applies the update to a batch of
integrator states at once; DPIController.step is its batch of one.
"""

from __future__ import annotations

import numpy as np

from .metric import Metric
from .sets import MEMBERSHIP_TOL, ConvexSet, LinearPreimage, _contains_rows

__all__ = ["DPIController", "ClassicalIntegralController"]


def _gain_matrix(gain) -> np.ndarray:
    K = np.atleast_2d(np.asarray(gain, dtype=float))
    if K.ndim != 2 or not np.all(np.isfinite(K)):
        raise ValueError("gain must be a finite matrix")
    return K


def _validate_timing(T_s: float, T_i: float) -> None:
    if not (T_s > 0.0 and np.isfinite(T_s)):
        raise ValueError("sampling period T_s must be positive")
    if not (T_i > 0.0 and np.isfinite(T_i)):
        raise ValueError("integral time T_i must be positive")


def _damped_projected_update(gamma: ConvexSet, metric: Metric, eta: np.ndarray,
                             e: np.ndarray, alpha: np.ndarray,
                             damping: np.ndarray) -> np.ndarray:
    """Next integrator states of G loops that share Gamma and the metric.

    eta and e are (G, p); alpha = T_s / T_i and damping are (G,).  All rows
    are tested against Gamma at once, and only the rows whose forward step
    left Gamma are projected, one at a time.
    """
    target = eta - alpha[:, None] * e  # the forward step
    for i in np.flatnonzero(~_contains_rows(gamma, target)):
        target[i] = gamma.project(metric, target[i]).point
    return (1.0 - damping[:, None]) * eta + damping[:, None] * target


class DPIController:
    """Damped projected integral controller.

    constraint is the input set C; the integrator set Gamma is its preimage
    under the square invertible gain K.  The initial state comes from eta0,
    or from u0 via K^{-1} (projected into Gamma if needed), or defaults to
    the projection of the origin.
    """

    def __init__(self, gain, constraint: ConvexSet, metric: Metric,
                 T_s: float, T_i: float, damping: float,
                 eta0=None, u0=None):
        K = _gain_matrix(gain)
        if K.shape[0] != constraint.dim:
            raise ValueError("gain output dimension does not match the constraint set")
        _validate_timing(T_s, T_i)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie strictly in (0, 1)")
        self.gain = K
        self.constraint = constraint
        self.metric = metric
        self.gamma = LinearPreimage(K, constraint)
        if metric.dim != self.gamma.dim:
            raise ValueError("metric dimension does not match the integrator state")
        self.T_s = float(T_s)
        self.T_i = float(T_i)
        self.damping = float(damping)
        if eta0 is not None and u0 is not None:
            raise ValueError("give eta0 or u0, not both")
        if eta0 is not None:
            eta = np.asarray(eta0, dtype=float)
            if not self.gamma.contains(eta, MEMBERSHIP_TOL):
                raise ValueError("eta0 is not a member of Gamma")
        else:
            seed = np.zeros(self.gamma.dim) if u0 is None else \
                np.linalg.solve(K, np.asarray(u0, dtype=float))
            eta = seed if self.gamma.contains(seed, MEMBERSHIP_TOL) else \
                self.gamma.project(metric, seed).point
        self.eta = eta.copy()
        self._eta0 = eta.copy()

    @property
    def alpha(self) -> float:
        """Integral step size T_s / T_i."""
        return self.T_s / self.T_i

    def step(self, e) -> np.ndarray:
        """Advance the integrator on error e; returns the input computed
        from the state before the update."""
        e = np.asarray(e, dtype=float)
        if e.shape != (self.eta.size,):
            raise ValueError(f"error must have shape ({self.eta.size},)")
        u = self.gain @ self.eta
        self.eta = _damped_projected_update(
            self.gamma, self.metric, self.eta[None], e[None],
            np.array([self.alpha]), np.array([self.damping]))[0]
        return u

    def with_gains(self, T_i: float | None = None,
                   damping: float | None = None) -> "DPIController":
        """Copy at the configured initial state with new integral gains."""
        return DPIController(self.gain, self.constraint, self.metric,
                             self.T_s,
                             self.T_i if T_i is None else T_i,
                             self.damping if damping is None else damping,
                             eta0=self._eta0)


class ClassicalIntegralController:
    """Unconstrained discrete integral law eta <- eta - alpha e, alpha = T_s / T_i."""

    def __init__(self, gain, T_s: float, T_i: float, eta0):
        self.gain = _gain_matrix(gain)
        _validate_timing(T_s, T_i)
        self.alpha = float(T_s) / float(T_i)
        eta = np.asarray(eta0, dtype=float)
        if eta.shape != (self.gain.shape[1],):
            raise ValueError("eta0 does not match the gain input dimension")
        self.eta = eta.copy()

    def step(self, e) -> np.ndarray:
        e = np.asarray(e, dtype=float)
        u = self.gain @ self.eta
        self.eta = self.eta - self.alpha * e
        return u
