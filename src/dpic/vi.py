"""Forward-backward solver for strongly monotone variational inequalities.

The problem: find eta in a convex set Gamma with <F(eta), v - eta>_P >= 0
for every v in Gamma.  The damped forward-backward map

    Phi_d(eta) = (1 - damping) * eta + damping * Proj_Gamma^P(eta - alpha F(eta))

has the VI solutions as fixed points for any alpha > 0, and is a contraction
with factor 1 - damping * (1 - c_fb), c_fb = sqrt(1 - 2 alpha mu + alpha^2 L^2),
when F is mu-strongly monotone and L-Lipschitz in the P-metric and
alpha < 2 mu / L^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .metric import Metric
from .sets import MEMBERSHIP_TOL, ConvexSet, sample_points

__all__ = [
    "VIProblem",
    "FBParams",
    "VISolution",
    "fb_map",
    "fb_damped_map",
    "natural_residual",
    "step_window",
    "low_gain_threshold",
    "contraction_constants",
    "solve_vi",
    "estimate_mu_L",
]


@dataclass(frozen=True)
class VIProblem:
    """Operator, constraint set and metric of a variational inequality."""

    operator: Callable[[np.ndarray], np.ndarray]
    constraint: ConvexSet
    metric: Metric

    def __post_init__(self):
        if self.metric.dim != self.constraint.dim:
            raise ValueError("metric and constraint set dimensions differ")

    @property
    def dim(self) -> int:
        return self.constraint.dim

    def value(self, eta) -> np.ndarray:
        out = np.asarray(self.operator(np.asarray(eta, dtype=float)), dtype=float)
        if out.shape != (self.dim,):
            raise ValueError("operator returned a vector of the wrong dimension")
        return out


def step_window(mu: float, L: float) -> float:
    """Upper end of the certified step window (0, 2 mu / L^2)."""
    return 2.0 * mu / L ** 2


def low_gain_threshold(T_s: float, mu: float, L: float) -> float:
    """Low-gain threshold T_i* = T_s L^2 / (2 mu) on the integral time."""
    return T_s * L ** 2 / (2.0 * mu)


@dataclass(frozen=True)
class FBParams:
    """Step size, damping and optional monotonicity/Lipschitz certificates.

    When both mu and L are supplied the step size must lie in the certified
    window (0, 2 mu / L^2).  damping = 1 recovers the undamped map; the
    damped contraction bound 1 - damping (1 - c_fb) then collapses to c_fb.
    """

    alpha: float
    damping: float
    mu: float | None = None
    L: float | None = None

    def __post_init__(self):
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError("step size alpha must be positive and finite")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if (self.mu is None) != (self.L is None):
            raise ValueError("supply both certificates mu and L, or neither")
        if self.mu is not None:
            if not 0.0 < self.mu <= self.L * (1.0 + 1e-12):
                raise ValueError("certificates must satisfy 0 < mu <= L")
            window = step_window(self.mu, self.L)
            if self.alpha >= window:
                raise ValueError(
                    f"alpha={self.alpha:g} outside the certified window (0, {window:g})")

    @classmethod
    def certified(cls, mu: float, L: float, damping: float = 0.5) -> "FBParams":
        """Parameters at the contraction-optimal step alpha = mu / L^2."""
        return cls(alpha=mu / L ** 2, damping=damping, mu=mu, L=L)


def contraction_constants(params: FBParams) -> tuple[float, float]:
    """(c_fb, c_dfb) certified by the (mu, L) pair carried in params."""
    if params.mu is None:
        raise ValueError("contraction constants need the certificates mu and L")
    # the radicand is >= (1 - alpha mu)^2 >= 0, and zero at the optimal step
    # when mu = L.  Its terms are O(1), so its rounding error is a few ulp of
    # the largest one; a radicand inside that error counts as zero, since its
    # square root would turn rounding noise into a c_fb of order 1e-8
    terms = (1.0, 2.0 * params.alpha * params.mu, params.alpha ** 2 * params.L ** 2)
    radicand = terms[0] - terms[1] + terms[2]
    if radicand <= 4.0 * np.finfo(float).eps * max(terms):
        radicand = 0.0
    c_fb = float(np.sqrt(radicand))
    c_dfb = 1.0 - params.damping * (1.0 - c_fb)
    return c_fb, c_dfb


def _check_member(problem: VIProblem, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if not problem.constraint.contains(eta, MEMBERSHIP_TOL):
        raise ValueError("eta is not a member of the constraint set")
    return eta


def fb_map(problem: VIProblem, params: FBParams, eta) -> np.ndarray:
    """Projected forward step Proj(eta - alpha F(eta))."""
    eta = _check_member(problem, eta)
    forward = eta - params.alpha * problem.value(eta)
    return problem.constraint.project(problem.metric, forward).point

def fb_damped_map(problem: VIProblem, params: FBParams, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    return (1.0 - params.damping) * eta + params.damping * fb_map(problem, params, eta)


def natural_residual(problem: VIProblem, params: FBParams, eta) -> float:
    """Distance (in the metric) from eta to its projected forward step."""
    eta = np.asarray(eta, dtype=float)
    return problem.metric.norm(eta - fb_map(problem, params, eta))


@dataclass
class VISolution:
    eta: np.ndarray
    residuals: np.ndarray = field(repr=False)
    iterations: int = 0
    converged: bool = False


def solve_vi(problem: VIProblem, params: FBParams, eta0, tol: float = 1e-10,
             max_iter: int = 100_000) -> VISolution:
    """Damped forward-backward iteration from eta0 until the natural
    residual drops below tol.  Returns the best iterate seen, flagged
    non-converged, if max_iter is exhausted."""
    eta = _check_member(problem, eta0).copy()
    residuals = []
    best_eta, best_res = eta, np.inf
    for it in range(1, max_iter + 1):
        target = fb_map(problem, params, eta)
        res = problem.metric.norm(eta - target)
        residuals.append(res)
        if res < best_res:
            best_eta, best_res = eta, res
        if res < tol:
            return VISolution(eta, np.array(residuals), it, True)
        eta = (1.0 - params.damping) * eta + params.damping * target
    return VISolution(best_eta, np.array(residuals), max_iter, False)


def estimate_mu_L(operator, region: ConvexSet, metric: Metric,
                  samples: int = 1000, seed=0) -> tuple[float, float]:
    """Empirical monotonicity and Lipschitz constants from sampled pairs.

    mu_hat is the smallest secant quotient <F(x)-F(y), x-y>_P / |x-y|_P^2
    and L_hat the largest |F(x)-F(y)|_P / |x-y|_P over random pairs in the
    region, so mu_hat >= true mu and L_hat <= true L over that region.
    The region must be bounded (intersect with a Box otherwise).
    """
    pts = sample_points(region, 2 * samples, rng=seed)
    values = np.array([np.asarray(operator(p), dtype=float) for p in pts])
    if values.shape != pts.shape:
        raise ValueError("operator output dimension does not match the region")
    d = pts[:samples] - pts[samples:]
    dF = values[:samples] - values[samples:]
    dist = metric.norm(d)
    usable = ~(dist < 1e-12)  # degenerate pairs are skipped
    if not np.any(usable):
        raise ValueError("no usable sample pairs; region may be a single point")
    d, dF, dist = d[usable], dF[usable], dist[usable]
    # each pair takes the products of metric.inner; fmin and fmax skip a NaN
    # quotient as the builtin min and max do
    inner = ((dF[:, None, :] @ metric.P) @ d[:, :, None])[:, 0, 0]
    return (float(np.fmin.reduce(inner / dist ** 2, initial=np.inf)),
            float(np.fmax.reduce(metric.norm(dF) / dist, initial=0.0)))
