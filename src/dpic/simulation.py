"""Closed-loop simulation, deviation coordinates and gain sweeps.

Per sample the loop reads the error output, lets the controller emit the
input computed from its pre-update state, then advances the plant:

    u_k = K eta_k,  e_k = h(x_k, u_k, w_k),  eta update,  x_{k+1} = f(x_k, u_k, w_k)

The record stores one row per step; vi_residual is the measured natural
residual |eta_k - Proj_Gamma^P(eta_k - alpha e_k)|_P, computable from the
logged eta and e columns alone.

One loop serves both entry points: it advances G closed loops that share
the plant, Gamma and the disturbance schedule in lockstep, one row each.
simulate is its batch of one and gain_sweep its batch of one row per grid
point.  Row by row the arithmetic is that of a batch of one, so a sweep row
equals the solo run of its grid point bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .controller import DPIController, _damped_projected_update
from .metric import Metric, _apply, _row_norms
from .plants import NumericalError, PlantModel
from .sets import MEMBERSHIP_TOL, normal_cone_residual
from .vi import FBParams, VIProblem, low_gain_threshold, solve_vi

__all__ = [
    "SimulationError",
    "ConstraintViolationError",
    "Scenario",
    "SegmentSummary",
    "SimRecord",
    "simulate",
    "change_of_coordinates",
    "SweepPoint",
    "StabilityReport",
    "gain_sweep",
]

CONVERGENCE_TOL = 1e-6
CONVERGENCE_WINDOW = 0.1  # trailing fraction of the horizon that must be quiet


class SimulationError(RuntimeError):
    """Simulation aborted; the message names the failing step."""


class ConstraintViolationError(SimulationError):
    """Emitted input left the constraint set (must not happen under projection)."""


@dataclass
class Scenario:
    """Plant, projected controller and a piecewise-constant disturbance schedule.

    schedule is a list of (start_step, w) pairs with strictly increasing
    start steps, the first at step 0.
    """

    plant: PlantModel
    controller: DPIController
    schedule: Sequence[tuple[int, np.ndarray]]
    horizon: int
    x0: np.ndarray

    def __post_init__(self):
        if not isinstance(self.controller, DPIController):
            raise ValueError("the closed loop needs a damped projected integral controller")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not self.schedule:
            raise ValueError("schedule must not be empty")
        starts = [int(k) for k, _ in self.schedule]
        if starts[0] != 0:
            raise ValueError("first schedule entry must start at step 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("schedule start steps must be strictly increasing")
        if starts[-1] >= self.horizon:
            raise ValueError("schedule entry starts beyond the horizon")
        self.schedule = [(int(k), np.asarray(w, dtype=float)) for k, w in self.schedule]
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.plant.n,):
            raise ValueError("x0 does not match the plant state dimension")

    def w_at(self, k: int) -> np.ndarray:
        w = self.schedule[0][1]
        for start, value in self.schedule:
            if start > k:
                break
            w = value
        return w

    def segment_bounds(self) -> list[tuple[int, int]]:
        """Half-open [start, end) step ranges, one per schedule entry."""
        starts = [k for k, _ in self.schedule] + [self.horizon]
        return list(zip(starts[:-1], starts[1:]))


@dataclass
class SegmentSummary:
    start: int
    end: int  # exclusive
    w: np.ndarray
    tracking_error: float
    vi_residual: float
    normal_cone_residual: float


@dataclass
class SimRecord:
    """One closed-loop run; arrays hold one row per step."""

    T_s: float
    k: np.ndarray
    x: np.ndarray
    u: np.ndarray
    e: np.ndarray
    eta: np.ndarray
    constraint_margin: np.ndarray
    vi_residual: np.ndarray
    segments: list[SegmentSummary] = field(default_factory=list)

    @property
    def t(self) -> np.ndarray:
        return self.k * self.T_s


_STEP_ERRORS = (NumericalError, RuntimeError, ValueError)


def _w_steps(scenario: Scenario) -> np.ndarray:
    """The disturbance held at every step, one row per step."""
    counts = [end - start for start, end in scenario.segment_bounds()]
    return np.repeat(np.array([w for _, w in scenario.schedule]), counts, axis=0)


def _step_failure(k: int, exc: Exception) -> SimulationError:
    if isinstance(exc, SimulationError):
        return exc
    failure = SimulationError(f"step {k}: {exc}")
    failure.__cause__ = exc
    return failure


def _lockstep(scenario: Scenario,
              controllers: Sequence) -> list[SimRecord | SimulationError]:
    """Run the scenario once per controller, all loops in lockstep.

    The controllers share gain, Gamma and metric and differ in T_i, damping
    and initial state; row g of every array belongs to controller g.  Each
    step checks u against C and takes the damped projected update.  A step
    that raises is retried row by row; a row that fails alone ends with its
    SimulationError and the others run on.  Returns a SimRecord (without
    segments) or a SimulationError per row.
    """
    plant = scenario.plant
    base = controllers[0]
    G, H = len(controllers), scenario.horizon
    m, p = base.gain.shape
    alpha = np.array([c.alpha for c in controllers])
    damping = np.array([c.damping for c in controllers])
    W = _w_steps(scenario)
    xs = np.empty((G, H, plant.n))
    us = np.empty((G, H, m))
    es = np.empty((G, H, p))
    etas = np.empty((G, H, p))
    margins = np.empty((G, H))
    residuals = np.empty((G, H))
    x = np.tile(scenario.x0, (G, 1))
    eta = np.array([c.eta for c in controllers])

    def advance(k: int, rows: slice | list[int]) -> None:
        """Step k of the given rows; writes nothing unless every check passes."""
        x_k, eta_k, w = x[rows], eta[rows], W[k]
        u = _apply(base.gain, eta_k)
        e = plant.output(x_k, u, w)
        # a non-finite state shows in e or in plant.step
        if not np.isfinite(e).all():
            raise NumericalError("state or error is not finite")
        member, margin = base.constraint._membership(u, MEMBERSHIP_TOL)
        if not member.all():
            raise ConstraintViolationError(
                f"step {k}: projected controller emitted u outside C")
        eta_next = _damped_projected_update(base.gamma, base.metric, eta_k, e,
                                            alpha[rows], damping[rows])
        # eta_{k+1} - eta_k = damping * (backward point - eta_k), so the
        # natural residual |eta_k - Proj(eta_k - alpha e_k)|_P is the
        # state increment over damping; avoids a second projection.
        residual = base.metric.norm(eta_next - eta_k) / damping[rows]
        x_next = plant.step(x_k, u, w)
        xs[rows, k], us[rows, k], es[rows, k], etas[rows, k] = x_k, u, e, eta_k
        margins[rows, k], residuals[rows, k] = margin, residual
        x[rows], eta[rows] = x_next, eta_next

    failures: list[SimulationError | None] = [None] * G
    live = list(range(G))
    for k in range(H):
        try:
            # while no row has failed, a basic slice spares fancy-index copies
            advance(k, slice(None) if len(live) == G else live)
        except _STEP_ERRORS as exc:
            if len(live) == 1:
                failures[live[0]] = _step_failure(k, exc)
            else:
                for g in live:
                    try:
                        advance(k, [g])
                    except _STEP_ERRORS as row_exc:
                        failures[g] = _step_failure(k, row_exc)
            live = [g for g in live if failures[g] is None]
            if not live:
                break
    steps = np.arange(H)
    return [failures[g] if failures[g] is not None else
            SimRecord(plant.T_s, steps, xs[g], us[g], es[g], etas[g],
                      margins[g], residuals[g])
            for g in range(G)]


def simulate(scenario: Scenario) -> SimRecord:
    """Run the loop over the full horizon; deterministic for a fixed scenario.
    The controller is read, never advanced; its state must lie in Gamma."""
    ctrl = scenario.controller
    if not ctrl.gamma.contains(ctrl.eta, MEMBERSHIP_TOL):
        raise ValueError("controller state eta is not a member of Gamma")
    record = _lockstep(scenario, [ctrl])[0]
    if isinstance(record, SimulationError):
        raise record
    for start, end in scenario.segment_bounds():
        last = end - 1
        nc = normal_cone_residual(ctrl.gamma, ctrl.metric, record.eta[last], -record.e[last])
        record.segments.append(SegmentSummary(
            start, end, scenario.w_at(start),
            tracking_error=float(np.linalg.norm(record.e[last])),
            vi_residual=float(record.vi_residual[last]),
            normal_cone_residual=float(nc)))
    return record


def change_of_coordinates(record: SimRecord, plant: PlantModel,
                          scenario: Scenario) -> np.ndarray:
    """Deviation xi_k = x_k - pi_x(u_k, w_k) of the state from the manifold
    of equilibria indexed by the current input and disturbance."""
    return record.x - plant.pi_x(record.u, _w_steps(scenario))


def _composite_deviation(record: SimRecord, xi: np.ndarray, metric: Metric,
                         eta_bar: np.ndarray) -> np.ndarray:
    return metric.norm(record.eta - eta_bar) + _row_norms(xi)


def classify_convergence(record: SimRecord, xi: np.ndarray, metric: Metric,
                         tol: float = CONVERGENCE_TOL) -> bool:
    """Quiet-tail test: largest |eta_{k+1} - eta_k|_P + |xi_k| over the
    trailing window must fall below tol."""
    H = record.x.shape[0]
    start = max(0, H - max(2, int(np.ceil(CONVERGENCE_WINDOW * H))))
    tail = _row_norms(xi[start:])
    tail[:-1] += metric.norm(np.diff(record.eta[start:], axis=0))
    return bool(np.max(tail) < tol)


def fit_decay_rate(deviation: np.ndarray, start: int, burn_in: int = 5,
                   floor: float = 1e-13, min_points: int = 8) -> float:
    """Least-squares geometric rate of a decaying nonnegative sequence.

    Fits a line to log(deviation) from start + burn_in onward, ignoring
    values at the numerical floor.  Returns 0.0 when the sequence is
    already flat at the floor (immediate convergence).
    """
    k0 = min(len(deviation), start + burn_in)
    tail = deviation[k0:]
    mask = tail > floor
    if np.count_nonzero(mask) < min_points:
        return 0.0
    ks = np.arange(len(tail))[mask]
    slope = np.polyfit(ks, np.log(tail[mask]), 1)[0]
    return float(np.exp(slope))


@dataclass
class SweepPoint:
    T_i: float
    damping: float
    converged: bool
    decay_rate: float  # NaN unless converged
    final_vi_residual: float
    error: str | None = None


@dataclass
class StabilityReport:
    """Gain sweep outcome plus the low-gain threshold T_i_star = T_s L^2 / (2 mu).

    Grid points below the threshold carry no guarantee either way; the
    sweep only reports what the trajectories did.
    """

    points: list[SweepPoint]
    T_i_star: float
    mu: float
    L: float
    eta_bar: np.ndarray

    def empirical_damping_star(self, T_i: float) -> float | None:
        """Largest tested damping at T_i below which every tested damping
        converged; None when even the smallest tested damping failed."""
        tested = sorted((p for p in self.points if p.T_i == T_i),
                        key=lambda p: p.damping)
        best = None
        for p in tested:
            if not p.converged:
                break
            best = p.damping
        return best


def gain_sweep(scenario: Scenario, T_i_values: Sequence[float],
               damping_values: Sequence[float], mu: float, L: float,
               solve_tol: float = 1e-12) -> StabilityReport:
    """Rerun the scenario over a (T_i, damping) grid and classify each run.

    mu and L certify the steady-state operator on the region the sweep
    explores; they fix the reported threshold and the offline solve for the
    ground-truth equilibrium eta_bar of the final segment.
    """
    base = scenario.controller
    if not (mu > 0.0 and L >= mu):
        raise ValueError("sweep certificates must satisfy 0 < mu <= L")
    plant = scenario.plant
    w_final = scenario.schedule[-1][1]
    problem = VIProblem(lambda eta: plant.pi(base.gain @ eta, w_final),
                        base.gamma, base.metric)
    offline = solve_vi(problem, FBParams.certified(mu, L), base.eta,
                       tol=solve_tol)
    if not offline.converged:
        raise RuntimeError("offline equilibrium solve did not converge")
    eta_bar = offline.eta
    last_start = scenario.schedule[-1][0]
    grid = [(float(T_i), float(damping))
            for T_i in T_i_values for damping in damping_values]
    runs = _lockstep(scenario, [base.with_gains(T_i, damping) for T_i, damping in grid])
    points = []
    for (T_i, damping), record in zip(grid, runs):
        if isinstance(record, SimulationError):
            points.append(SweepPoint(T_i, damping, False, np.nan, np.nan, str(record)))
            continue
        # diagnostics one row at a time, so only one row's arrays are extra
        xi = change_of_coordinates(record, plant, scenario)
        converged = classify_convergence(record, xi, base.metric)
        rate = np.nan
        if converged:
            deviation = _composite_deviation(record, xi, base.metric, eta_bar)
            rate = fit_decay_rate(deviation, last_start)
        points.append(SweepPoint(T_i, damping, converged, rate,
                                 float(record.vi_residual[-1])))
    return StabilityReport(points, low_gain_threshold(plant.T_s, mu, L),
                           float(mu), float(L), eta_bar)
