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
equals the solo run of its grid point bit for bit.  The loop stores only
the state (x, eta); u, e, the constraint margin, the residual and the check
that u stayed in C come from each row's record after the loop, built only
when the caller asks for it (so a sweep holds one row's at a time); _apply
and the plants round each row as if it were alone.  A row whose step maps
(x, eta) to itself bit for bit has settled: every later step of its
disturbance segment repeats that step, so the row leaves the batch until
the next segment starts, and its record gets that stretch only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .controller import DPIController, _checked_alpha, _damped_projected_update
from .metric import Metric, _apply, _norm
from .plants import NumericalError, PlantModel
from .sets import normal_cone_residual

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
DECAY_BURN_IN = 5  # steps after the segment start that the rate fit skips
DECAY_FLOOR = 1e-13  # settling values at or below this are rounding, not decay
DECAY_MIN_POINTS = 8  # fewer values above the floor read as settled at once


class SimulationError(RuntimeError):
    """Simulation aborted; the message names the failing step."""


class ConstraintViolationError(SimulationError):
    """Emitted input left the constraint set (must not happen under projection)."""


@dataclass
class Scenario:
    """Plant, projected controller and a piecewise-constant disturbance schedule.

    schedule is a list of (start_step, w) pairs with strictly increasing
    start steps, the first at step 0; each w holds from its start step up
    to the next entry's, or to the horizon (segment_bounds()).
    """

    plant: PlantModel
    controller: DPIController
    schedule: Sequence[tuple[int, np.ndarray]]
    horizon: int
    x0: np.ndarray

    def __post_init__(self):
        if not isinstance(self.controller, DPIController):
            raise ValueError("the closed loop needs a damped projected integral controller")
        if self.controller.T_s != self.plant.T_s:
            raise ValueError(f"controller T_s = {self.controller.T_s:g} differs from "
                             f"the plant's T_s = {self.plant.T_s:g}")
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
        for k, w in self.schedule:
            if w.shape != (self.plant.n_w,):
                raise ValueError(f"disturbance at step {k} must have dimension {self.plant.n_w}")
            if not np.isfinite(w).all():
                raise ValueError(f"disturbance at step {k} must be finite")
        if (shape := self.controller.gain.shape) != (self.plant.m, self.plant.p):
            raise ValueError(f"gain must be {self.plant.m}x{self.plant.p} "
                             f"(plant inputs x tracked errors), got {shape[0]}x{shape[1]}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.plant.n,):
            raise ValueError("x0 does not match the plant state dimension")
        if not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")

    def segment_bounds(self) -> list[tuple[int, int]]:
        """Half-open [start, end) step ranges, one per schedule entry."""
        starts = [k for k, _ in self.schedule] + [self.horizon]
        return list(zip(starts[:-1], starts[1:]))


@dataclass
class SegmentSummary:
    """A schedule segment's state at its last step.  normal_cone_residual is
    the P-distance from -e to the normal cone of Gamma at eta there
    (sets.normal_cone_residual): 0 at a solution of the variational
    inequality, finite on an unbounded Gamma."""

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


# what a failed step raises, a float over- or underflow included; cli.main exits 3 on it
_STEP_ERRORS = (RuntimeError, ValueError, ArithmeticError)


def _w_steps(scenario: Scenario) -> np.ndarray:
    """The disturbance held at every step, one row per step."""
    counts = [end - start for start, end in scenario.segment_bounds()]
    return np.repeat(np.array([w for _, w in scenario.schedule]), counts, axis=0)


def _step_failure(k: int, exc: Exception) -> SimulationError:
    failure = SimulationError(f"step {k}: {exc}")
    failure.__cause__ = exc
    return failure


def _lockstep(scenario: Scenario, alpha: Sequence[float],
              damping: Sequence[float]) -> Iterator[SimRecord | SimulationError]:
    """Run the scenario once per (alpha, damping) row, all loops in lockstep.

    Every row runs the scenario's controller (its gain, Gamma, metric and C)
    from its state eta, with its own alpha = T_s / T_i and damping; each
    array holds one row per loop.  A step
    computes u = K eta and e, then the damped projected update and the plant
    step; one that raises is retried row by row, and a row that fails alone
    stops while the others run on.  A row that settles (its step left x and
    eta unchanged, bit for bit) writes only that state at the end of the
    segment, where the next segment starts from it, and the loop notes the
    stretch between; the row rejoins at the next segment start.  Each row's
    record is expanded over its stretches, in its own copy, when it is read,
    and its u, e, margin, residual and u-in-C check then come from its
    record of (x, eta), read only up to a failure; a row whose u left C
    fails at the first such step, whatever it raised later.  The loop runs
    in full before the call returns; the result yields, in row order, a
    SimRecord (without segments) or a SimulationError per row, each built
    only when asked for.
    """
    plant, base = scenario.plant, scenario.controller
    if not base.gamma.contains(base.eta):
        raise ValueError("controller state eta is not a member of Gamma")
    G, H, K = len(alpha), scenario.horizon, base.gain
    # (G, p) copies of each row's alpha, damping and 1 - damping, built once, so that
    # the update's products of equal shapes take no broadcast
    alpha, damping = np.array([alpha, damping], dtype=float)[..., None].repeat(K.shape[1], -1)
    gains = alpha, damping, 1.0 - damping
    # Each row keeps its own index.  Step k reads the live rows' states, held
    # compact between steps, and writes row k + 1 of their records; a settled
    # stretch is never written here, so its memory need not be paged in.
    xs = np.empty((G, H + 1, plant.n))
    etas = np.empty((G, H + 1, K.shape[1]))
    xs[:, 0] = scenario.x0
    etas[:, 0] = base.eta

    def advance(k: int, rows, x_k: np.ndarray, eta_k: np.ndarray, w: np.ndarray,
                row_gains: list) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Step k of the given rows from their states (x_k, eta_k), under w and
        with their gains; writes nothing unless every row succeeds.  Returns the
        new states and the positions, within x_k, of the rows it left where
        they were, bit for bit."""
        u = _apply(K, eta_k)
        e = plant.output(x_k, u, w)
        # a non-finite state shows in e or in plant.step
        if not all(np.isfinite(e).flat):
            raise NumericalError("state or error is not finite")
        eta_next = _damped_projected_update(base.gamma, base.metric, eta_k, e, *row_gains)
        x_next = plant.step(x_k, u, w)
        xs[rows, k + 1], etas[rows, k + 1] = x_next, eta_next
        # bit patterns tell -0.0 from +0.0; eta rarely repeats, so its first column goes
        # first, by value: eta is finite here, and a bit-equal pair is value-equal too
        if not any((eta_next[:, 0] == eta_k[:, 0]).tolist()):
            return x_next, eta_next, []
        same = (eta_next.view(np.int64) == eta_k.view(np.int64)).all(axis=-1)
        same &= (x_next.view(np.int64) == x_k.view(np.int64)).all(axis=-1)
        return x_next, eta_next, np.flatnonzero(same).tolist()

    failed: dict[int, tuple[int, SimulationError]] = {}  # row: (its step, failure)
    # row: [(k, end)], each a stretch whose steps k + 1 to end - 1 repeat step k
    stretches: dict[int, list[tuple[int, int]]] = {}
    for (start, end), (_, w) in zip(scenario.segment_bounds(), scenario.schedule):
        live = [g for g in range(G) if g not in failed]  # settled rows rejoin
        x, eta, rows = xs[live, start], etas[live, start], None
        for k in range(start, end):
            if not live:
                break
            if rows is None:  # the live set changed: a basic slice if its rows are consecutive
                consecutive = live[-1] - live[0] < len(live)
                rows = slice(live[0], live[-1] + 1) if consecutive else np.array(live)
                row_gains = [a[rows] for a in gains]
            try:
                x, eta, settled = advance(k, rows, x, eta, w, row_gains)
            except _STEP_ERRORS:
                for i, g in enumerate(live):
                    try:
                        advance(k, slice(g, g + 1), x[i:i + 1], eta[i:i + 1], w,
                                [a[g:g + 1] for a in gains])
                    except _STEP_ERRORS as exc:
                        failed[g] = k, _step_failure(k, exc)
                x, eta, settled, rows = xs[rows, k + 1], etas[rows, k + 1], [], None
            # Step k is a pure function of (x_k, eta_k, w_k): plant.step,
            # plant.output and the update keep no state between calls (a
            # warm-started projection must keep it so).  w holds to the
            # segment end, so up to there a settled row repeats step k.
            for i in settled:
                g, rows = live[i], None
                xs[g, end], etas[g, end] = x[i], eta[i]  # where the next segment starts
                stretches.setdefault(g, []).append((k + 1, end))
            if rows is None:
                keep = [i for i, g in enumerate(live) if i not in settled and g not in failed]
                live, x, eta = [live[i] for i in keep], x[keep], eta[keep]

    W = _w_steps(scenario)

    def outcome(g: int) -> SimRecord | SimulationError:
        steps, failure = failed.get(g, (H, None))
        x, eta = xs[g], etas[g]
        if g in stretches:  # expanded in the row's own copy, never in xs and etas
            x, eta = x.copy(), eta.copy()
            for k, end in stretches[g]:
                x[k + 1:end], eta[k + 1:end] = x[k], eta[k]
        u = _apply(K, eta[:steps])
        margin = base.constraint.margin(u)
        # fl(b - A u) >= 0 exactly when A u <= b, so only a row whose margin
        # is negative or NaN needs the membership test
        unsure = np.flatnonzero(~(margin >= 0.0))
        if not (member := base.constraint._contains(u[unsure])).all():
            return ConstraintViolationError(
                f"step {unsure[np.argmin(member)]}: projected controller emitted u outside C")
        if failure is not None:
            return failure
        # eta_{k+1} - eta_k = damping * (Proj(eta_k - alpha e_k) - eta_k), so the
        # natural residual is the increment over damping, with no second projection
        residual = base.metric.norm(np.diff(eta, axis=0)) / damping[g, 0]
        return SimRecord(plant.T_s, np.arange(H), x[:H], u,
                         plant.output(x[:H], u, W), eta[:H], margin, residual)

    return (outcome(g) for g in range(G))


def simulate(scenario: Scenario) -> SimRecord:
    """Run the loop over the full horizon; deterministic for a fixed scenario.
    The controller is read, never advanced; its state must lie in Gamma."""
    ctrl = scenario.controller
    record, = _lockstep(scenario, [ctrl.alpha], [ctrl.damping])
    if isinstance(record, SimulationError):
        raise record
    for (start, end), (_, w) in zip(scenario.segment_bounds(), scenario.schedule):
        last = end - 1
        nc = normal_cone_residual(ctrl.gamma, ctrl.metric, record.eta[last], -record.e[last])
        record.segments.append(SegmentSummary(
            start, end, w,
            tracking_error=float(_norm(record.e[last])),
            vi_residual=float(record.vi_residual[last]),
            normal_cone_residual=float(nc)))
    return record


def change_of_coordinates(record: SimRecord, scenario: Scenario) -> np.ndarray:
    """Deviation xi_k = x_k - pi_x(u_k, w_k) of the state from the scenario plant's
    manifold of equilibria indexed by the current input and disturbance."""
    return record.x - scenario.plant.pi_x(record.u, _w_steps(scenario))


def _settling(record: SimRecord, xi: np.ndarray, metric: Metric) -> np.ndarray:
    """s_k = |eta_{k+1} - eta_k|_P + |xi_k|; the last step takes |xi_k| alone."""
    s = _norm(xi)
    s[:-1] += metric.norm(np.diff(record.eta, axis=0))
    return s


def classify_convergence(record: SimRecord, xi: np.ndarray, metric: Metric) -> bool:
    """Quiet-tail test: the settling sequence must stay below CONVERGENCE_TOL
    over the trailing CONVERGENCE_WINDOW of the horizon, at least two steps
    whose values take their eta increment, and at the last step, which has
    none.  A run too short for that tail has not converged."""
    window = max(2, int(np.ceil(CONVERGENCE_WINDOW * len(xi))))
    s = _settling(record, xi, metric)
    return len(s) > window and bool(np.max(s[-window - 1:]) < CONVERGENCE_TOL)


def fit_decay_rate(sequence: np.ndarray, start: int) -> float:
    """Least-squares geometric rate of a decaying nonnegative sequence.

    Fits a line to log(sequence) from start + DECAY_BURN_IN onward, leaving
    out values at or below DECAY_FLOOR.  Returns 0.0 when fewer than
    DECAY_MIN_POINTS values lie above the floor (immediate convergence).
    """
    k0 = min(len(sequence), start + DECAY_BURN_IN)
    tail = sequence[k0:]
    mask = tail > DECAY_FLOOR
    if np.count_nonzero(mask) < DECAY_MIN_POINTS:
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
    """Gain sweep outcome: what the trajectories did at each grid point."""

    points: list[SweepPoint]

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
               damping_values: Sequence[float]) -> StabilityReport:
    """Rerun the scenario over a (T_i, damping) grid and classify each run.

    Every grid point starts from the controller's state, as simulate does,
    and is checked as DPIController checks its own T_i and damping.
    decay_rate fits a converged run's settling sequence over the last
    segment; for an LTI plant at an interior equilibrium it is the
    linearized loop's spectral radius.
    """
    base = scenario.controller
    last_start = scenario.schedule[-1][0]
    grid = [(float(T_i), float(damping))
            for T_i in T_i_values for damping in damping_values]
    alpha = [_checked_alpha(base.T_s, T_i, damping) for T_i, damping in grid]
    runs = _lockstep(scenario, alpha, [damping for _, damping in grid])
    points = []
    # records are built one at a time, each dropped when the next takes its name
    for (T_i, damping), record in zip(grid, runs):
        if isinstance(record, SimulationError):
            points.append(SweepPoint(T_i, damping, False, np.nan, np.nan, str(record)))
            continue
        xi = change_of_coordinates(record, scenario)
        converged = classify_convergence(record, xi, base.metric)
        rate = (fit_decay_rate(_settling(record, xi, base.metric), last_start)
                if converged else np.nan)
        points.append(SweepPoint(T_i, damping, converged, rate,
                                 float(record.vi_residual[-1])))
    return StabilityReport(points)
