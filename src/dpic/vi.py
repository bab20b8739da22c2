"""Forward-backward solver for strongly monotone variational inequalities.

The problem: find eta in a convex set Gamma with <F(eta), v - eta>_P >= 0
for every v in Gamma.  The damped forward-backward map

    Phi_d(eta) = (1 - damping) * eta + damping * Proj_Gamma^P(eta - alpha F(eta))

has the VI solutions as fixed points for any alpha > 0, and is a contraction
with factor 1 - damping * (1 - c_fb), c_fb = sqrt(1 - 2 alpha mu + alpha^2 L^2),
when F is mu-strongly monotone and L-Lipschitz in the P-metric and
alpha < 2 mu / L^2, the window contraction_constants checks.  exact_mu_L
derives that pair from the operator's Jacobian; estimate_mu_L samples it.
The maps run the loop's own update on a batch of one, so a forward step
within MEMBERSHIP_TOL of Gamma is kept, not projected, as in the loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .controller import _damped_projected_update
from .metric import Metric
from .sets import Box, ConvexSet, sample_points

__all__ = [
    "VIProblem",
    "VISolution",
    "fb_map",
    "fb_damped_map",
    "natural_residual",
    "step_window",
    "low_gain_threshold",
    "contraction_constants",
    "solve_vi",
    "exact_mu_L",
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
        if out.shape != (self.dim,) or not np.isfinite(out).all():
            raise ValueError(f"operator value must be finite, of dimension {self.dim}; got {out}")
        return out


def step_window(mu: float, L: float) -> float:
    """Upper end of the certified step window (0, 2 mu / L^2)."""
    return 2.0 * mu / L ** 2


def low_gain_threshold(T_s: float, mu: float, L: float) -> float:
    """Low-gain threshold T_i* = T_s L^2 / (2 mu) on the integral time, for
    certificates 0 < mu <= L."""
    _check_certificates(mu, L)
    return T_s * L ** 2 / (2.0 * mu)


def contraction_constants(alpha: float, damping: float, mu: float,
                          L: float) -> tuple[float, float]:
    """(c_fb, c_dfb = 1 - damping (1 - c_fb)) at a step alpha in the window
    (0, 2 mu / L^2) of the certificates 0 < mu <= L; damping 1 gives c_dfb = c_fb."""
    _check_step(alpha, damping)
    _check_certificates(mu, L)
    window = step_window(mu, L)
    if alpha >= window:
        raise ValueError(f"alpha={alpha:g} outside the certified window (0, {window:g})")
    # the radicand is >= (1 - alpha mu)^2 >= 0, and zero at the optimal step
    # when mu = L.  Its terms are O(1), so its rounding error is a few ulp of
    # the largest one; a radicand inside that error counts as zero, since its
    # square root would turn rounding noise into a c_fb of order 1e-8
    terms = (1.0, 2.0 * alpha * mu, alpha ** 2 * L ** 2)
    radicand = terms[0] - terms[1] + terms[2]
    if radicand <= 4.0 * np.finfo(float).eps * max(terms):
        radicand = 0.0
    c_fb = float(np.sqrt(radicand))
    return c_fb, 1.0 - damping * (1.0 - c_fb)


def _check_certificates(mu: float, L: float) -> None:
    # exact_mu_L reads mu and L off one matrix by two routines, so mu may
    # exceed L by rounding; L has a relative slack of 1e-12
    if not 0.0 < mu <= L * (1.0 + 1e-12) < np.inf:
        raise ValueError(f"certificates must satisfy 0 < mu <= L, got mu={mu:g}, L={L:g}")


def _check_step(alpha: float, damping: float) -> None:
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ValueError("step size alpha must be positive and finite")
    # damping 1 gives fb_map, the undamped map; the loop's damping lies in
    # the paper's open interval (0, 1), which controller._checked_alpha checks
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")


def _check_member(problem: VIProblem, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if not problem.constraint.contains(eta):
        raise ValueError("eta is not a member of the constraint set")
    return eta


def _update(problem: VIProblem, alpha: float, damping: float, eta: np.ndarray, warm=None):
    """The damped projected update of a member eta, as a batch of one; warm holds its cell."""
    _check_step(alpha, damping)
    return _damped_projected_update(problem.constraint, problem.metric, eta[None],
                                    problem.value(eta)[None], np.array([[alpha]]),
                                    np.array([[damping]]), None, warm)[0]


def fb_map(problem: VIProblem, alpha: float, eta) -> np.ndarray:
    """Projected forward step Proj(eta - alpha F(eta)): the update at damping 1."""
    return _update(problem, alpha, 1.0, _check_member(problem, eta))


def fb_damped_map(problem: VIProblem, alpha: float, damping: float, eta) -> np.ndarray:
    """(1 - damping) eta + damping Proj(eta - alpha F(eta))."""
    return _update(problem, alpha, damping, _check_member(problem, eta))


def natural_residual(problem: VIProblem, alpha: float, eta) -> float:
    """Distance (in the metric) from eta to its projected forward step."""
    eta = np.asarray(eta, dtype=float)
    return problem.metric.norm(eta - fb_map(problem, alpha, eta))


@dataclass
class VISolution:
    eta: np.ndarray
    residuals: np.ndarray = field(repr=False)
    iterations: int = 0
    converged: bool = False


def solve_vi(problem: VIProblem, alpha: float, damping: float, eta0, tol: float = 1e-10,
             max_iter: int = 100_000) -> VISolution:
    """Damped forward-backward iteration from eta0 until the natural
    residual drops below tol.  Returns the best iterate seen, flagged
    non-converged, if max_iter is exhausted; each projection is warm started."""
    eta = _check_member(problem, eta0).copy()
    residuals, warm = [], [[None]]
    best_eta, best_res = eta, np.inf
    for it in range(1, max_iter + 1):
        eta_next = _update(problem, alpha, damping, eta, warm)
        # the increment is damping times eta's step to Proj(eta - alpha F(eta))
        res = problem.metric.norm(eta_next - eta) / damping
        residuals.append(res)
        if res < best_res:
            best_eta, best_res = eta, res
        if res < tol:
            return VISolution(eta, np.array(residuals), it, True)
        eta = eta_next
    return VISolution(best_eta, np.array(residuals), max_iter, False)


def exact_mu_L(jacobian, metric: Metric, box: Box | None = None) -> tuple[float, float]:
    """Strong monotonicity mu and Lipschitz constant L of F on a box, in the metric.

    jacobian maps the rows of an (N, p) array to the Jacobians dF/deta at
    them, an (N, p, p) array, and must be affine in eta.  With W = chol(P)^T,
    mu = min lambda_min(sym(W J W^{-1})) and L = max |W J W^{-1}|_2 over the
    box.  lambda_min of the symmetric part is concave and the spectral norm
    convex, so on an affine J both extremes lie at the box's 2^p vertices
    (Boyd & Vandenberghe, Convex Optimization, 2004, sec. 3.1.5, 3.2).
    F(x) - F(y) is the mean of J along the segment times x - y, so for all
    x, y in the box <F(x) - F(y), x - y>_P >= mu |x - y|_P^2 and
    |F(x) - F(y)|_P <= L |x - y|_P.  Without a box J must be constant, and
    is taken at the origin.
    """
    if box is None:
        points = np.zeros((1, metric.dim))
    else:
        points = np.array(list(itertools.product(*zip(box.lower, box.upper))))
    J = np.asarray(jacobian(points), dtype=float)
    if J.shape != (len(points), metric.dim, metric.dim):
        raise ValueError(f"jacobian must map {points.shape} points to "
                         f"{(len(points), metric.dim, metric.dim)}; got {J.shape}")
    W = metric._chol.T
    M = W @ J @ np.linalg.inv(W)
    mu = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))[:, 0].min()
    return float(mu), float(np.linalg.norm(M, 2, axis=(-2, -1)).max())


def estimate_mu_L(operator, region: ConvexSet, metric: Metric,
                  samples: int = 1000, seed=0) -> tuple[float, float]:
    """Empirical monotonicity and Lipschitz constants from sampled pairs.

    A library function and a test oracle for exact_mu_L; the CLI derives
    its certificates exactly.

    mu_hat is the smallest secant quotient <F(x)-F(y), x-y>_P / |x-y|_P^2
    and L_hat the largest |F(x)-F(y)|_P / |x-y|_P over random pairs in the
    region, so mu_hat >= true mu and L_hat <= true L over that region.
    The region must be bounded (intersect with a Box otherwise).

    operator is called once, on all 2 * samples points as the rows of an
    (N, p) array, and must return F of each row as the rows of an (N, p)
    array; plant.pi(metric._apply(K, eta), w) does, each row rounded as
    for that point alone.
    """
    pts = sample_points(region, 2 * samples, rng=seed)
    values = np.asarray(operator(pts), dtype=float)
    if values.shape != pts.shape:
        raise ValueError("operator must map each row of an (N, p) array to a row of "
                         f"its output; got shape {values.shape} for {pts.shape}")
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
