"""Discrete-time plant models and their steady-state maps.

A plant advances x <- f(x, u, w) once per sample and exposes the error
output e = h(x, u, w) together with the equilibrium maps

    pi_x(u, w)  steady state reached under constant (u, w)
    pi(u, w)    steady-state error h(pi_x(u, w), u, w)

pi is the operator the integral controller drives to a constrained zero.
LTIPlant and FourTankPlant also give its Jacobian pi_jacobian(u) = d pi / d u,
(..., p, m) and affine in u; w enters pi additively, so it takes no w.

step, output and pi_x take (..., dim) arrays: a leading batch axis holds
independent loops, one per row, and each row rounds exactly as it would
alone.  A disturbance without the batch axis applies to every row.  So a
sweep row equals its solo run, and vi.exact_mu_L takes the Jacobian at
all the vertices of a box in one call.

FourTankPlant.step runs its RK4 substeps row by row in Python floats with
math.sqrt, the four stages written out, since numpy's per-call overhead on
4-vectors (4 levels, 2 pump flows) outweighs the arithmetic.  It rounds as
the same RK4 on arrays would: the nonzero terms of the rates' products in
matmul's order (no fused multiply-add), clamps as np.maximum(h, 0.0), and
raises where that does, with its overflow test on the clamp's rare branch.
tests/tank_oracle.py keeps that array form, and the tests hold step to it
bit for bit, raises included.
"""

from __future__ import annotations

import abc
import math
import numbers

import numpy as np

from .metric import _apply, _points

__all__ = [
    "NumericalError",
    "PlantModel",
    "LTIPlant",
    "FourTankPlant",
    "davison_check",
    "STATIC_GAIN_TOL",
]

# the static-gain gate's relative margin: Re lambda_min(M) must exceed it times |M|_2
STATIC_GAIN_TOL = 1e-12


def _positive(values, count: int, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (count,) or not np.all((values > 0.0) & (values < np.inf)):
        raise ValueError(f"{name} must be {count} finite positive values")
    return values


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


class LTIPlant(PlantModel):
    """x <- A x + B u + B_w w,  e = C x + D u + D_w w, with A Schur stable."""

    def __init__(self, A, B, C, D=None, B_w=None, D_w=None, T_s: float = 1.0):
        # copies in C or F order, which BLAS reads as they are: over a strided view,
        # _apply's matmul for a batch would round otherwise than its dot for one point
        A = np.atleast_2d(np.array(A, dtype=float))
        B = np.atleast_2d(np.array(B, dtype=float))
        C = np.atleast_2d(np.array(C, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n or C.shape[1] != n:
            raise ValueError("B or C does not match the state dimension")
        m = B.shape[1]
        p = C.shape[0]
        D = np.zeros((p, m)) if D is None else np.atleast_2d(np.array(D, dtype=float))
        if D.shape != (p, m):
            raise ValueError("D must have shape (p, m)")
        if (B_w is None) != (D_w is None):
            raise ValueError("supply both B_w and D_w, or neither")
        if B_w is None:
            n_w = 0
            B_w = np.zeros((n, 0))
            D_w = np.zeros((p, 0))
        else:
            B_w = np.atleast_2d(np.array(B_w, dtype=float))
            D_w = np.atleast_2d(np.array(D_w, dtype=float))
            n_w = B_w.shape[1]
            if B_w.shape != (n, n_w) or D_w.shape != (p, n_w):
                raise ValueError("B_w or D_w shape mismatch")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D), ("B_w", B_w), ("D_w", D_w)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho >= 1.0:
            raise ValueError(f"A is not Schur stable (spectral radius {rho:.6g} >= 1)")
        if not 0.0 < T_s < math.inf:
            raise ValueError("sampling period must be finite and positive")
        self.A, self.B, self.C, self.D = A, B, C, D
        self.B_w, self.D_w = B_w, D_w
        self.n, self.m, self.p, self.n_w = n, m, p, n_w
        self.T_s = float(T_s)

    def _w(self, w) -> np.ndarray:
        if self.n_w == 0:
            return np.zeros(0)
        return _points(w, self.n_w, "w")

    def step(self, x, u, w=None) -> np.ndarray:
        x = _points(x, self.n)
        u = _points(u, self.m, "u")
        out = _apply(self.A, x) + _apply(self.B, u) + _apply(self.B_w, self._w(w))
        if not all(np.isfinite(out).flat):
            raise NumericalError("LTI state update is not finite")
        return out

    def output(self, x, u, w=None) -> np.ndarray:
        x = _points(x, self.n)
        u = _points(u, self.m, "u")
        return _apply(self.C, x) + _apply(self.D, u) + _apply(self.D_w, self._w(w))

    def pi_x(self, u, w=None) -> np.ndarray:
        u = _points(u, self.m, "u")
        rhs = _apply(self.B, u) + _apply(self.B_w, self._w(w))
        return np.linalg.solve(np.eye(self.n) - self.A, rhs[..., None])[..., 0]

    def pi_jacobian(self, u) -> np.ndarray:
        """The static gain, whatever u."""
        u = _points(u, self.m, "u")
        return np.broadcast_to(self.dc_gain(), u.shape[:-1] + (self.p, self.m))

    def dc_gain(self) -> np.ndarray:
        """Static input-to-error gain C (I - A)^{-1} B + D."""
        return self.C @ np.linalg.solve(np.eye(self.n) - self.A, self.B) + self.D

    def disturbance_dc_gain(self) -> np.ndarray:
        return self.C @ np.linalg.solve(np.eye(self.n) - self.A, self.B_w) + self.D_w


def _static_gain_margin(M) -> float:
    """Re lambda_min(M) / |M|_2, the loop gain's spectral margin relative to its size."""
    M = np.asarray(M, dtype=float)
    scale = float(np.linalg.norm(M, 2))
    return float(np.linalg.eigvals(M).real.min()) / scale if scale > 0.0 else 0.0


def davison_check(plant: LTIPlant, K) -> tuple[bool, np.ndarray | None]:
    """Static loop gain test with a quadratic monotonicity certificate.

    The loop gain M = dc_gain @ K passes when every eigenvalue has a
    positive real part (i.e. -M is Hurwitz); exactly then M^T P + P M = I
    has a symmetric positive definite solution P, which makes the affine
    steady-state operator strongly monotone in the P-metric.  The gate asks
    for Re lambda_min(M) > STATIC_GAIN_TOL |M|_2, since a singular M can
    carry zero eigenvalues that rounding puts just right of the axis; a
    solution of the then singular equation would be meaningless.  P solves
    (I kron M^T + M^T kron I) vec P = vec I, and the residual and
    definiteness checks vet it.  Returns (ok, P) with P = None when the
    test fails.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    M = plant.dc_gain() @ K
    if M.shape[0] != M.shape[1]:
        raise ValueError("dc_gain @ K must be square")
    if not _static_gain_margin(M) > STATIC_GAIN_TOL:
        return False, None
    eye = np.eye(M.shape[0])
    try:
        P = np.linalg.solve(np.kron(eye, M.T) + np.kron(M.T, eye), eye.ravel()).reshape(M.shape)
    except np.linalg.LinAlgError:
        return False, None
    if not np.all(np.isfinite(P)):
        return False, None
    residual = np.linalg.norm(M.T @ P + P @ M - eye)
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
        areas = _positive(tank_areas, 4, "tank_areas")
        gammas = np.asarray(split_ratios, dtype=float)
        if gammas.shape != (2,) or not np.all((gammas > 0.0) & (gammas < 1.0)):
            raise ValueError("split_ratios must be two values in (0, 1)")
        if abs(gammas.sum() - 1.0) < 1e-9:
            raise ValueError("split ratios summing to 1 make the static map singular")
        if not (0.0 < g < math.inf and 0.0 < T_s < math.inf):
            raise ValueError("g and T_s must be finite and positive")
        if not isinstance(substeps, numbers.Integral) or substeps < 1:
            raise ValueError("substeps must be an integer of at least 1")
        g1, g2 = gammas.tolist()
        if outlet_areas is None:
            h_nom = _positive(nominal_levels, 4, "nominal_levels")
            u_nom = _positive(nominal_input, 2, "nominal_input")
            # outlet areas that balance each tank at the nominal point (0 if 2 g h overflows)
            v = np.sqrt(2.0 * g * h_nom)
            outlet = _positive([
                (g1 * u_nom[0] + (1.0 - g2) * u_nom[1]) / v[0],
                ((1.0 - g1) * u_nom[0] + g2 * u_nom[1]) / v[1],
                (1.0 - g2) * u_nom[1] / v[2],
                (1.0 - g1) * u_nom[0] / v[3],
            ], 4, "calibrated outlet_areas")
            self.h_nominal = h_nom.copy()
            self.u_nominal = u_nom.copy()
        else:
            outlet = _positive(outlet_areas, 4, "outlet_areas")
            self.h_nominal = None
            self.u_nominal = None
        self.tank_areas = areas
        self.split_ratios = gammas
        self.outlet_areas = outlet
        self.g = float(g)
        self.T_s = float(T_s)
        self.substeps = int(substeps)
        a0, a1, a2, a3 = outlet.tolist()
        A0, A1, A2, A3 = areas.tolist()
        # the level rates are h' = O sqrt(2 g h) + I u: O's six nonzero
        # coefficients, and I's rows with their zeros, which matmul adds
        # (-0.0 + 0.0 is 0.0)
        self._outflow_terms = [-a0 / A0, a2 / A0, -a1 / A1, a3 / A1, -a2 / A2, -a3 / A3]
        self._inflow_terms = [[g1 / A0, 0.0], [0.0, g2 / A1],
                              [0.0, (1.0 - g2) / A2], [(1.0 - g1) / A3, 0.0]]
        self.n, self.m, self.p, self.n_w = 4, 2, 2, 2

    @property
    def flow_gain(self) -> np.ndarray:
        """Matrix mapping pump commands to equilibrium outlet velocities sqrt(2 g h)."""
        a = self.outlet_areas
        g1, g2 = self.split_ratios
        return np.array([[g1 / a[0], (1.0 - g2) / a[0]],
                         [(1.0 - g1) / a[1], g2 / a[1]]])

    def step(self, x, u, w=None) -> np.ndarray:
        h = _points(x, 4)
        u = _points(u, 2, "u")
        if h.shape[:-1] != u.shape[:-1]:
            batch = np.broadcast_shapes(h.shape[:-1], u.shape[:-1])
            h, u = np.broadcast_to(h, batch + (4,)), np.broadcast_to(u, batch + (2,))
        H, U = (h, u) if h.ndim == 2 else (h.reshape(-1, 4), u.reshape(-1, 2))  # kernel rows
        levels = np.array(self._step_rows(H.tolist(), U.tolist()))
        return levels if levels.shape == h.shape else levels.reshape(h.shape)  # (0, 4) too

    def _step_rows(self, H: list[list[float]], U: list[list[float]]) -> list[list[float]]:
        """The RK4 substeps of step for each row of levels H and pump flows U.

        The outflow O v leaves out the products of O's zero coefficients,
        which are exact zeros while every outlet velocity v is finite.  An
        infinite v turns them into NaN on arrays; here it makes its tank's
        rate -inf or NaN, so a clamp from -inf raises if a sqrt argument of
        its substep is +inf.  Clamps map -0.0 to 0.0 and keep NaN, as np.maximum does.
        """
        o00, o02, o11, o13, o22, o33 = self._outflow_terms
        (i00, i01), (i10, i11), (i20, i21), (i30, i31) = self._inflow_terms
        sqrt, isfinite, two_g, inf = math.sqrt, math.isfinite, 2.0 * self.g, math.inf
        dt = self.T_s / self.substeps
        dt2, dt6 = 0.5 * dt, dt / 6.0
        substeps = range(self.substeps)
        levels = []
        for (h0, h1, h2, h3), (u0, u1) in zip(H, U):
            if not (isfinite(h0) and isfinite(h1) and isfinite(h2) and isfinite(h3)
                    and isfinite(u0) and isfinite(u1)):
                raise NumericalError("tank step received non-finite values")
            f0, f1 = i00 * u0 + i01 * u1, i10 * u0 + i11 * u1
            f2, f3 = i20 * u0 + i21 * u1, i30 * u0 + i31 * u1
            # the four RK4 stages are written out, since a call per stage
            # costs more than its arithmetic; t0..t3 hold a stage's levels
            for _ in substeps:
                v0 = sqrt(two_g * (0.0 if h0 <= 0.0 else h0))
                v1 = sqrt(two_g * (0.0 if h1 <= 0.0 else h1))
                v2 = sqrt(two_g * (0.0 if h2 <= 0.0 else h2))
                v3 = sqrt(two_g * (0.0 if h3 <= 0.0 else h3))
                a0, a1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
                a2, a3 = o22 * v2 + f2, o33 * v3 + f3
                t0 = h0 + dt2*a0; t1 = h1 + dt2*a1; t2 = h2 + dt2*a2; t3 = h3 + dt2*a3
                v0 = sqrt(two_g * (0.0 if t0 <= 0.0 else t0))
                v1 = sqrt(two_g * (0.0 if t1 <= 0.0 else t1))
                v2 = sqrt(two_g * (0.0 if t2 <= 0.0 else t2))
                v3 = sqrt(two_g * (0.0 if t3 <= 0.0 else t3))
                b0, b1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
                b2, b3 = o22 * v2 + f2, o33 * v3 + f3
                t0 = h0 + dt2*b0; t1 = h1 + dt2*b1; t2 = h2 + dt2*b2; t3 = h3 + dt2*b3
                v0 = sqrt(two_g * (0.0 if t0 <= 0.0 else t0))
                v1 = sqrt(two_g * (0.0 if t1 <= 0.0 else t1))
                v2 = sqrt(two_g * (0.0 if t2 <= 0.0 else t2))
                v3 = sqrt(two_g * (0.0 if t3 <= 0.0 else t3))
                c0, c1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
                c2, c3 = o22 * v2 + f2, o33 * v3 + f3
                t0 = h0 + dt*c0; t1 = h1 + dt*c1; t2 = h2 + dt*c2; t3 = h3 + dt*c3
                v0 = sqrt(two_g * (0.0 if t0 <= 0.0 else t0))
                v1 = sqrt(two_g * (0.0 if t1 <= 0.0 else t1))
                v2 = sqrt(two_g * (0.0 if t2 <= 0.0 else t2))
                v3 = sqrt(two_g * (0.0 if t3 <= 0.0 else t3))
                d0, d1 = (o00 * v0 + o02 * v2) + f0, (o11 * v1 + o13 * v3) + f1
                d2, d3 = o22 * v2 + f2, o33 * v3 + f3
                n0 = h0 + dt6 * (((a0 + 2.0*b0) + 2.0*c0) + d0)
                n1 = h1 + dt6 * (((a1 + 2.0*b1) + 2.0*c1) + d1)
                n2 = h2 + dt6 * (((a2 + 2.0*b2) + 2.0*c2) + d2)
                n3 = h3 + dt6 * (((a3 + 2.0*b3) + 2.0*c3) + d3)
                if n0 <= 0.0 or n1 <= 0.0 or n2 <= 0.0 or n3 <= 0.0:
                    if -inf in (n0, n1, n2, n3) and two_g * max(
                            h0, h1, h2, h3, h0 + dt2*a0, h1 + dt2*a1, h2 + dt2*a2, h3 + dt2*a3,
                            h0 + dt2*b0, h1 + dt2*b1, h2 + dt2*b2, h3 + dt2*b3,
                            h0 + dt*c0, h1 + dt*c1, h2 + dt*c2, h3 + dt*c3) == inf:
                        raise NumericalError("tank step diverged to a non-finite state")
                    n0 = 0.0 if n0 <= 0.0 else n0
                    n1 = 0.0 if n1 <= 0.0 else n1
                    n2 = 0.0 if n2 <= 0.0 else n2
                    n3 = 0.0 if n3 <= 0.0 else n3
                h0 = n0; h1 = n1; h2 = n2; h3 = n3
            if not (isfinite(h0) and isfinite(h1) and isfinite(h2) and isfinite(h3)):
                raise NumericalError("tank step diverged to a non-finite state")
            levels.append([h0, h1, h2, h3])
        return levels

    def output(self, x, u, w) -> np.ndarray:
        h = _points(x, 4)
        r = _points(w, 2, "w")
        return h[..., :2] - r

    def _flows(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(u, flow_gain u) once u passes the equilibrium map's domain check."""
        u = _points(u, 2, "u")
        flows = _apply(self.flow_gain, u)
        if not np.isfinite(u).all() or np.any(u < -1e-9) or np.any(flows < -1e-9):
            raise ValueError("equilibrium map needs finite nonnegative pump flows")
        return u, flows

    def pi_x(self, u, w=None) -> np.ndarray:
        u, flows = self._flows(u)
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

    def pi_jacobian(self, u) -> np.ndarray:
        """diag(flow_gain u) flow_gain / g, on the domain of pi_x."""
        _, flows = self._flows(u)
        return flows[..., :, None] * self.flow_gain / self.g
