"""The damped projected integral controller.

The damped projected integral update keeps the integrator state eta inside
Gamma = {eta : K eta in C}, so the emitted input u = K eta satisfies the
input constraints at every step and the integrator cannot wind up:

    u_k      = K eta_k
    eta_{k+1} = (1 - damping) * eta_k
                + damping * Proj_Gamma^P(eta_k - (T_s / T_i) * e_k)

The projection is evaluated lazily: where the forward step passes Gamma's
membership test (its rows A K and ellipsoids M K, to within MEMBERSHIP_TOL),
the update is the classical integral law with per-step gain
damping * T_s / T_i, which ClassicalIntegralController steps for comparison.
_damped_projected_update, the one copy of the update, steps a batch of
integrator states, each row with its own T_s / T_i and damping.
"""

from __future__ import annotations

import numpy as np

from .metric import Metric, _vec
from .sets import ConvexSet, LinearPreimage

__all__ = ["DPIController", "ClassicalIntegralController"]


def _alpha(T_s: float, T_i: float) -> float:
    """Integral step size alpha = T_s / T_i, once T_s and T_i pass their checks."""
    if not (T_s > 0.0 and np.isfinite(T_s)):
        raise ValueError("sampling period T_s must be positive")
    if not (T_i > 0.0 and np.isfinite(T_i)):
        raise ValueError("integral time T_i must be positive")
    return float(T_s) / float(T_i)


def _checked_alpha(T_s: float, T_i: float, damping: float) -> float:
    """alpha of a damped projected loop, once T_s, T_i and damping pass their
    checks; the paper's damping lies in (0, 1), the VI maps' in (0, 1]."""
    alpha = _alpha(T_s, T_i)
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly in (0, 1)")
    return alpha


def _checked_error(e, size: int) -> np.ndarray:
    """A controller's error input, once it is finite and of the integrator's size."""
    e = np.asarray(e, dtype=float)
    if e.shape != (size,) or not np.isfinite(e).all():
        raise ValueError(f"error must be finite, of shape ({size},); got {e}")
    return e


def _damped_projected_update(gamma: ConvexSet, metric: Metric, eta: np.ndarray,
                             e: np.ndarray, alpha: np.ndarray, damping: np.ndarray,
                             keep: np.ndarray | None = None, warm=None) -> np.ndarray:
    """Next integrator states of G loops that share Gamma and the metric.

    eta and e are (G, p); alpha = T_s / T_i, damping and keep = 1 - damping
    (formed here if not given) are (G, 1) columns or (G, p) blocks, built once
    per run.  All rows are tested against Gamma at once, and only the rows
    whose forward step left Gamma are projected, one at a time, each from the
    warm start in its cell warm[i], a one-entry list, which it then updates.
    """
    target = eta - alpha * e  # the forward step
    if not all(inside := gamma._contains(target).tolist()):
        for i, member in enumerate(inside):
            if not member:
                cell = [None] if warm is None else warm[i]
                result = gamma.project(metric, target[i], cell[0])
                target[i], cell[0] = result.point, result.warm
    return (1.0 - damping if keep is None else keep) * eta + damping * target


class DPIController:
    """Damped projected integral controller.

    constraint is the input set C; the integrator set Gamma is its preimage
    under the square invertible gain K.  The initial state comes from eta0,
    or from u0 via K^{-1} (projected into Gamma if needed), or defaults to
    the projection of the origin.  alpha = T_s / T_i is the integral step size.
    """

    def __init__(self, gain, constraint: ConvexSet, metric: Metric,
                 T_s: float, T_i: float, damping: float,
                 eta0=None, u0=None):
        self.alpha = _checked_alpha(T_s, T_i, damping)
        self.gamma = LinearPreimage(gain, constraint)  # checks K against C
        self.gain = K = self.gamma.K
        self.constraint = constraint
        self.metric = metric
        if metric.dim != self.gamma.dim:
            raise ValueError("metric dimension does not match the integrator state")
        self.T_s = float(T_s)
        self.T_i = float(T_i)
        self.damping = float(damping)
        if eta0 is not None and u0 is not None:
            raise ValueError("give eta0 or u0, not both")
        for name, start in (("eta0", eta0), ("u0", u0)):
            if start is not None and not np.isfinite(start).all():
                raise ValueError(f"{name} must be finite")
        if eta0 is not None:
            eta = np.asarray(eta0, dtype=float)
            if not self.gamma.contains(eta):
                raise ValueError("eta0 is not a member of Gamma")
        else:
            seed = np.zeros(self.gamma.dim) if u0 is None else \
                np.linalg.solve(K, _vec(u0, K.shape[0]))
            eta = seed if self.gamma.contains(seed) else \
                self.gamma.project(metric, seed).point
        self.eta, self._warm = eta.copy(), [None]  # the cell of step's warm start

    def step(self, e) -> np.ndarray:
        """Advance the integrator on error e; returns the input computed
        from the state before the update."""
        e = _checked_error(e, self.eta.size)
        u = self.gain @ self.eta
        self.eta = _damped_projected_update(
            self.gamma, self.metric, self.eta[None], e[None],
            np.array([[self.alpha]]), np.array([[self.damping]]), None, [self._warm])[0]
        return u


class ClassicalIntegralController:
    """Unconstrained discrete integral law eta <- eta - alpha e, alpha = T_s / T_i."""

    def __init__(self, gain, T_s: float, T_i: float, eta0):
        self.gain = np.atleast_2d(np.asarray(gain, dtype=float))
        if self.gain.ndim != 2 or not np.isfinite(self.gain).all():
            raise ValueError("gain must be a finite matrix")
        self.alpha = _alpha(T_s, T_i)
        eta = np.asarray(eta0, dtype=float)
        if eta.shape != (self.gain.shape[1],):
            raise ValueError("eta0 does not match the gain input dimension")
        self.eta = eta.copy()

    def step(self, e) -> np.ndarray:
        e = _checked_error(e, self.eta.size)
        u = self.gain @ self.eta
        self.eta = self.eta - self.alpha * e
        return u
