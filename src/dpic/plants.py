"""Discrete-time plant models and their steady-state maps.

A plant advances x <- f(x, u, w) once per sample and exposes the error
output e = h(x, u, w) together with the equilibrium maps

    pi_x(u, w)  steady state reached under constant (u, w)
    pi(u, w)    steady-state error h(pi_x(u, w), u, w)

pi is the operator the integral controller drives to a constrained zero.

step, output and pi_x take (..., dim) arrays: a leading batch axis holds
independent loops, one per row, and each row rounds exactly as it would
alone.  A disturbance without the batch axis applies to every row.  So a
sweep row equals its solo run, and vi.estimate_mu_L takes pi at all its
sample points in one call.

FourTankPlant.step has two paths, picked by the input's row count.  Up to
FLOAT_PATH_MAX_ROWS loops (4 levels, 2 pump flows) run their RK4 substeps
row by row in Python floats with math.sqrt, the four stages written out
with no call per stage, because numpy's per-call overhead on 4-vectors
outweighs the arithmetic; more run them on arrays.
Both take the same operations in the same order, so they round alike: the
float path writes out the nonzero terms of the matrix-vector products in
matmul's order (matmul adds the products without a fused multiply-add),
clamps as np.maximum(h, 0.0) does, and raises NumericalError wherever the
array path does.
"""

from __future__ import annotations

import abc
import math
import warnings

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .metric import Metric, _apply

__all__ = [
    "NumericalError",
    "PlantModel",
    "LTIPlant",
    "FourTankPlant",
    "davison_check",
]

# FourTankPlant.step runs up to this many rows in Python floats, about 23 us
# each, and more on arrays, about 230-260 us a batch of 8 to 15 rows; the
# two meet near 10 rows (best of timeit, x86, Python 3.11, numpy 2.4)
FLOAT_PATH_MAX_ROWS = 10


class NumericalError(RuntimeError):
    """State update produced a non-finite value."""


class PlantModel(abc.ABC):
    """Sampled plant with state dim n, input dim m, error dim p, disturbance dim n_w.

    step and output must be pure functions of their arguments: the closed
    loop repeats a step that maps a row's state to itself by copying it.
    """

    n: int
    m: int
    p: int
    n_w: int
    T_s: float

    @abc.abstractmethod
    def step(self, x, u, w) -> np.ndarray:
        """One sampling period of the dynamics."""

    @abc.abstractmethod
    def output(self, x, u, w) -> np.ndarray:
        """Error output at the current state."""

    @abc.abstractmethod
    def pi_x(self, u, w) -> np.ndarray:
        """Equilibrium state under constant input and disturbance."""

    def pi(self, u, w) -> np.ndarray:
        """Steady-state error under constant input and disturbance."""
        return self.output(self.pi_x(u, w), u, w)

    def _vec(self, x, dim: int, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != dim:
            raise ValueError(f"{name} must have shape (..., {dim}), got {x.shape}")
        return x


class LTIPlant(PlantModel):
    """x <- A x + B u + B_w w,  e = C x + D u + D_w w, with A Schur stable."""

    def __init__(self, A, B, C, D=None, B_w=None, D_w=None, T_s: float = 1.0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n or C.shape[1] != n:
            raise ValueError("B or C does not match the state dimension")
        m = B.shape[1]
        p = C.shape[0]
        D = np.zeros((p, m)) if D is None else np.atleast_2d(np.asarray(D, dtype=float))
        if D.shape != (p, m):
            raise ValueError("D must have shape (p, m)")
        if (B_w is None) != (D_w is None):
            raise ValueError("supply both B_w and D_w, or neither")
        if B_w is None:
            n_w = 0
            B_w = np.zeros((n, 0))
            D_w = np.zeros((p, 0))
        else:
            B_w = np.atleast_2d(np.asarray(B_w, dtype=float))
            D_w = np.atleast_2d(np.asarray(D_w, dtype=float))
            n_w = B_w.shape[1]
            if B_w.shape != (n, n_w) or D_w.shape != (p, n_w):
                raise ValueError("B_w or D_w shape mismatch")
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho >= 1.0:
            raise ValueError(f"A is not Schur stable (spectral radius {rho:.6g} >= 1)")
        if T_s <= 0.0:
            raise ValueError("sampling period must be positive")
        self.A, self.B, self.C, self.D = A, B, C, D
        self.B_w, self.D_w = B_w, D_w
        self.n, self.m, self.p, self.n_w = n, m, p, n_w
        self.T_s = float(T_s)

    def _w(self, w) -> np.ndarray:
        if self.n_w == 0:
            return np.zeros(0)
        return self._vec(w, self.n_w, "w")

    def step(self, x, u, w=None) -> np.ndarray:
        x = self._vec(x, self.n, "x")
        u = self._vec(u, self.m, "u")
        out = _apply(self.A, x) + _apply(self.B, u) + _apply(self.B_w, self._w(w))
        if not np.isfinite(out).all():
            raise NumericalError("LTI state update is not finite")
        return out

    def output(self, x, u, w=None) -> np.ndarray:
        x = self._vec(x, self.n, "x")
        u = self._vec(u, self.m, "u")
        return _apply(self.C, x) + _apply(self.D, u) + _apply(self.D_w, self._w(w))

    def pi_x(self, u, w=None) -> np.ndarray:
        u = self._vec(u, self.m, "u")
        rhs = _apply(self.B, u) + _apply(self.B_w, self._w(w))
        return np.linalg.solve(np.eye(self.n) - self.A, rhs[..., None])[..., 0]

    def dc_gain(self) -> np.ndarray:
        """Static input-to-error gain C (I - A)^{-1} B + D."""
        return self.C @ np.linalg.solve(np.eye(self.n) - self.A, self.B) + self.D

    def disturbance_dc_gain(self) -> np.ndarray:
        return self.C @ np.linalg.solve(np.eye(self.n) - self.A, self.B_w) + self.D_w


def davison_check(plant: LTIPlant, K) -> tuple[bool, np.ndarray | None]:
    """Static loop gain test with a quadratic monotonicity certificate.

    The loop gain M = dc_gain @ K passes when every eigenvalue has a
    positive real part (i.e. -M is Hurwitz); exactly then M^T P + P M = I
    has a symmetric positive definite solution P, which makes the affine
    steady-state operator strongly monotone in the P-metric.  The
    eigenvalue gate runs first: a rank-deficient M leaves the equation
    singular, and a perturbed "solution" of it would be meaningless.
    Returns (ok, P) with P = None when the test fails.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    M = plant.dc_gain() @ K
    if M.shape[0] != M.shape[1]:
        raise ValueError("dc_gain @ K must be square")
    if not np.all(np.linalg.eigvals(M).real > 0.0):
        return False, None
    try:
        with warnings.catch_warnings():
            # spectra arbitrarily close to the imaginary axis pass the gate
            # and draw a near-singularity warning from the solver (category
            # varies across scipy releases); the residual and definiteness
            # checks below vet the result instead
            warnings.simplefilter("ignore", RuntimeWarning)
            P = solve_continuous_lyapunov(M.T, np.eye(M.shape[0]))
    except (np.linalg.LinAlgError, ValueError):
        return False, None
    if not np.all(np.isfinite(P)):
        return False, None
    residual = np.linalg.norm(M.T @ P + P @ M - np.eye(M.shape[0]))
    if residual > 1e-6 * (1.0 + np.linalg.norm(P) * np.linalg.norm(M)):
        return False, None
    P = 0.5 * (P + P.T)
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return False, None
    return True, P


class FourTankPlant(PlantModel):
    """Quadruple tank process sampled with classical Runge-Kutta substeps.

    Levels h (cm) of four tanks; pumps u feed tanks 1/2 directly with split
    ratios gamma and tanks 3/4 (which drain into 1/2) with the complements:

        A1 h1' = -a1 sqrt(2 g h1) + a3 sqrt(2 g h3) + gamma1 u1
        A2 h2' = -a2 sqrt(2 g h2) + a4 sqrt(2 g h4) + gamma2 u2
        A3 h3' = -a3 sqrt(2 g h3) + (1 - gamma2) u2
        A4 h4' = -a4 sqrt(2 g h4) + (1 - gamma1) u1

    The error output is (h1 - w1, h2 - w2) where w is the level reference
    for the two lower tanks.  Outlet areas default to the values that make
    (nominal_levels, nominal_input) an exact equilibrium.
    """

    def __init__(self, T_s: float = 10.0, substeps: int = 10,
                 tank_areas=(28.0, 28.0, 28.0, 28.0), split_ratios=(0.7, 0.7),
                 g: float = 981.0,
                 nominal_levels=(10.0, 10.0, 5.38, 5.38),
                 nominal_input=(32.64, 32.64),
                 outlet_areas=None):
        areas = np.asarray(tank_areas, dtype=float)
        gammas = np.asarray(split_ratios, dtype=float)
        h_nom = np.asarray(nominal_levels, dtype=float)
        u_nom = np.asarray(nominal_input, dtype=float)
        if areas.shape != (4,) or np.any(areas <= 0.0):
            raise ValueError("tank_areas must be four positive values")
        if gammas.shape != (2,) or np.any(gammas <= 0.0) or np.any(gammas >= 1.0):
            raise ValueError("split_ratios must be two values in (0, 1)")
        if abs(gammas.sum() - 1.0) < 1e-9:
            raise ValueError("split ratios summing to 1 make the static map singular")
        if g <= 0.0 or T_s <= 0.0 or substeps < 1:
            raise ValueError("g and T_s must be positive, substeps at least 1")
        g1, g2 = gammas
        if outlet_areas is None:
            if h_nom.shape != (4,) or np.any(h_nom <= 0.0):
                raise ValueError("nominal_levels must be four positive values")
            if u_nom.shape != (2,) or np.any(u_nom <= 0.0):
                raise ValueError("nominal_input must be two positive values")
            # outlet areas that balance each tank at the nominal point
            v = np.sqrt(2.0 * g * h_nom)
            outlet = np.array([
                (g1 * u_nom[0] + (1.0 - g2) * u_nom[1]) / v[0],
                ((1.0 - g1) * u_nom[0] + g2 * u_nom[1]) / v[1],
                (1.0 - g2) * u_nom[1] / v[2],
                (1.0 - g1) * u_nom[0] / v[3],
            ])
            self.h_nominal = h_nom.copy()
            self.u_nominal = u_nom.copy()
        else:
            outlet = np.asarray(outlet_areas, dtype=float)
            if outlet.shape != (4,) or np.any(outlet <= 0.0):
                raise ValueError("outlet_areas must be four positive values")
            self.h_nominal = None
            self.u_nominal = None
        self.tank_areas = areas
        self.split_ratios = gammas
        self.outlet_areas = outlet
        self.g = float(g)
        self.T_s = float(T_s)
        self.substeps = int(substeps)
        a = outlet
        self._outflow = np.array([
            [-a[0] / areas[0], 0.0, a[2] / areas[0], 0.0],
            [0.0, -a[1] / areas[1], 0.0, a[3] / areas[1]],
            [0.0, 0.0, -a[2] / areas[2], 0.0],
            [0.0, 0.0, 0.0, -a[3] / areas[3]],
        ])
        self._inflow = np.array([
            [g1 / areas[0], 0.0],
            [0.0, g2 / areas[1]],
            [0.0, (1.0 - g2) / areas[2]],
            [(1.0 - g1) / areas[3], 0.0],
        ])
        # the float path's coefficients; it leaves out the outflow's zeros
        self._outflow_terms = self._outflow[[0, 0, 1, 1, 2, 3], [0, 2, 1, 3, 2, 3]].tolist()
        self._inflow_terms = self._inflow.tolist()
        if self.h_nominal is not None:
            drift = self._rate(self.h_nominal, self._inflow @ self.u_nominal)
            if np.max(np.abs(drift)) > 1e-6:
                raise ValueError("calibrated nominal point is not an equilibrium")
        self.n, self.m, self.p, self.n_w = 4, 2, 2, 2

    @property
    def flow_gain(self) -> np.ndarray:
        """Matrix mapping pump commands to equilibrium outlet velocities sqrt(2 g h)."""
        a = self.outlet_areas
        g1, g2 = self.split_ratios
        return np.array([[g1 / a[0], (1.0 - g2) / a[0]],
                         [(1.0 - g1) / a[1], g2 / a[1]]])

    def _rate(self, h, inflow) -> np.ndarray:
        """Level rates for column vectors h and the pump term inflow = _inflow @ u."""
        # sqrt argument clamped at zero so transient undershoot cannot produce NaN
        v = np.sqrt(2.0 * self.g * np.maximum(h, 0.0))
        return self._outflow @ v + inflow

    def step(self, x, u, w=None) -> np.ndarray:
        h = self._vec(x, 4, "x")
        u = self._vec(u, 2, "u")
        if not (np.isfinite(h).all() and np.isfinite(u).all()):
            raise NumericalError("tank step received non-finite values")
        if h.shape[:-1] == u.shape[:-1] and h.size <= 4 * FLOAT_PATH_MAX_ROWS:
            # a small batch, row by row in Python floats
            levels = [self._step_one(a, b) for a, b in
                      zip(h.reshape(-1, 4).tolist(), u.reshape(-1, 2).tolist())]
            return np.array(levels).reshape(h.shape)
        # column vectors: each row's rates take the matrix-vector product of
        # an unbatched step; the pump term is constant over the substeps
        h = h[..., None]
        inflow = self._inflow @ u[..., None]
        dt = self.T_s / self.substeps
        for _ in range(self.substeps):
            k1 = self._rate(h, inflow)
            k2 = self._rate(h + 0.5 * dt * k1, inflow)
            k3 = self._rate(h + 0.5 * dt * k2, inflow)
            k4 = self._rate(h + dt * k3, inflow)
            h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            h = np.maximum(h, 0.0)  # levels cannot go negative
        if not np.isfinite(h).all():
            raise NumericalError("tank step diverged to a non-finite state")
        return h[..., 0]

    def _step_one(self, h: list[float], u: list[float]) -> list[float]:
        """The RK4 substeps of step for one row, in Python floats.

        The outflow O v leaves out the products of O's zero coefficients,
        which are exact zeros while every outlet velocity v is finite.  An
        infinite one turns them into NaN on the array path, so it raises here
        too.  Each clamp maps -0.0 to 0.0 and keeps NaN, as np.maximum does.
        """
        o00, o02, o11, o13, o22, o33 = self._outflow_terms
        u0, u1 = u
        f0, f1, f2, f3 = (i0 * u0 + i1 * u1 for i0, i1 in self._inflow_terms)
        sqrt, two_g = math.sqrt, 2.0 * self.g
        dt = self.T_s / self.substeps
        dt2, dt6 = 0.5 * dt, dt / 6.0
        h0, h1, h2, h3 = h
        speeds = 0.0  # finite while every outlet velocity is
        # the four RK4 stages are written out, since a call per stage costs
        # more than its arithmetic; t0..t3 hold a stage's levels
        for _ in range(self.substeps):
            v0 = sqrt(two_g * (0.0 if h0 <= 0.0 else h0))
            v1 = sqrt(two_g * (0.0 if h1 <= 0.0 else h1))
            v2 = sqrt(two_g * (0.0 if h2 <= 0.0 else h2))
            v3 = sqrt(two_g * (0.0 if h3 <= 0.0 else h3))
            a0, a1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
            a2, a3 = o22 * v2 + f2, o33 * v3 + f3
            va = v0 + v1 + v2 + v3
            t0, t1, t2, t3 = h0 + dt2*a0, h1 + dt2*a1, h2 + dt2*a2, h3 + dt2*a3
            v0 = sqrt(two_g * (0.0 if t0 <= 0.0 else t0))
            v1 = sqrt(two_g * (0.0 if t1 <= 0.0 else t1))
            v2 = sqrt(two_g * (0.0 if t2 <= 0.0 else t2))
            v3 = sqrt(two_g * (0.0 if t3 <= 0.0 else t3))
            b0, b1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
            b2, b3 = o22 * v2 + f2, o33 * v3 + f3
            vb = v0 + v1 + v2 + v3
            t0, t1, t2, t3 = h0 + dt2*b0, h1 + dt2*b1, h2 + dt2*b2, h3 + dt2*b3
            v0 = sqrt(two_g * (0.0 if t0 <= 0.0 else t0))
            v1 = sqrt(two_g * (0.0 if t1 <= 0.0 else t1))
            v2 = sqrt(two_g * (0.0 if t2 <= 0.0 else t2))
            v3 = sqrt(two_g * (0.0 if t3 <= 0.0 else t3))
            c0, c1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
            c2, c3 = o22 * v2 + f2, o33 * v3 + f3
            vc = v0 + v1 + v2 + v3
            t0, t1, t2, t3 = h0 + dt*c0, h1 + dt*c1, h2 + dt*c2, h3 + dt*c3
            v0 = sqrt(two_g * (0.0 if t0 <= 0.0 else t0))
            v1 = sqrt(two_g * (0.0 if t1 <= 0.0 else t1))
            v2 = sqrt(two_g * (0.0 if t2 <= 0.0 else t2))
            v3 = sqrt(two_g * (0.0 if t3 <= 0.0 else t3))
            d0, d1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
            d2, d3 = o22 * v2 + f2, o33 * v3 + f3
            vd = v0 + v1 + v2 + v3
            speeds += va + vb + vc + vd
            h0 = h0 + dt6 * (((a0 + 2.0*b0) + 2.0*c0) + d0)
            h1 = h1 + dt6 * (((a1 + 2.0*b1) + 2.0*c1) + d1)
            h2 = h2 + dt6 * (((a2 + 2.0*b2) + 2.0*c2) + d2)
            h3 = h3 + dt6 * (((a3 + 2.0*b3) + 2.0*c3) + d3)
            h0 = 0.0 if h0 <= 0.0 else h0
            h1 = 0.0 if h1 <= 0.0 else h1
            h2 = 0.0 if h2 <= 0.0 else h2
            h3 = 0.0 if h3 <= 0.0 else h3
        if not all(map(math.isfinite, (speeds, h0, h1, h2, h3))):
            raise NumericalError("tank step diverged to a non-finite state")
        return [h0, h1, h2, h3]

    def output(self, x, u, w) -> np.ndarray:
        h = self._vec(x, 4, "x")
        r = self._vec(w, 2, "w")
        return h[..., :2] - r

    def pi_x(self, u, w=None) -> np.ndarray:
        u = self._vec(u, 2, "u")
        flows = _apply(self.flow_gain, u)
        if np.any(u < -1e-9) or np.any(flows < -1e-9):
            raise ValueError("equilibrium map needs nonnegative pump flows")
        a = self.outlet_areas
        g1, g2 = self.split_ratios
        two_g = 2.0 * self.g
        # outlet velocities at equilibrium, squared on an array: a single
        # point's columns are numpy scalars, whose ** 2 rounds otherwise
        v = np.stack([flows[..., 0], flows[..., 1],
                      (1.0 - g2) * u[..., 1] / a[2], (1.0 - g1) * u[..., 0] / a[3]], axis=-1)
        return v * v / two_g

    # pi(u, w) = output(pi_x(u, w), u, w) from the base class:
    # componentwise (flow_gain @ u)^2 / (2 g) - w for the two lower tanks.
