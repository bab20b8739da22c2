import itertools
from dataclasses import replace

import numpy as np
import pytest

from dpic import (
    Box,
    ClassicalIntegralController,
    ConstraintViolationError,
    DPIController,
    FourTankPlant,
    LTIPlant,
    Metric,
    NumericalError,
    Scenario,
    SimulationError,
    StabilityReport,
    SweepPoint,
    change_of_coordinates,
    classify_convergence,
    fit_decay_rate,
    gain_sweep,
    simulate,
)
from dpic.simulation import _lockstep, _w_steps
from dpic.vi import low_gain_threshold
from rate_oracle import linearized_loop_radius

I1 = Metric.identity(1)
I2 = Metric.identity(2)


def _measured_vi_residual(ctrl: DPIController, eta: np.ndarray, e: np.ndarray) -> float:
    """Oracle for the logged residual: |eta - Proj_Gamma(eta - alpha e)|_P,
    computed with a projection of its own."""
    forward = eta - ctrl.alpha * e
    if ctrl.gamma.contains(forward):
        return ctrl.metric.norm(eta - forward)
    projected = ctrl.gamma.project(ctrl.metric, forward).point
    return ctrl.metric.norm(eta - projected)


def scalar_scenario(horizon=100, schedule=None, T_i=2.0, damping=0.5,
                    bound=1.0, x0=0.0):
    plant = LTIPlant(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                     T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-bound], [bound]), I1,
                         T_s=1.0, T_i=T_i, damping=damping, eta0=[0.0])
    schedule = [(0, np.array([0.5]))] if schedule is None else schedule
    return Scenario(plant=plant, controller=ctrl, schedule=schedule,
                    horizon=horizon, x0=np.array([x0]))


def tank_scenario(horizon=200, schedule=None):
    from dpic import Halfspace, Intersection

    plant = FourTankPlant()
    constraint = Intersection([Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0)])
    K = np.linalg.inv(plant.flow_gain)
    ctrl = DPIController(K, constraint, I2, T_s=10.0, T_i=15.0, damping=0.95,
                         u0=plant.u_nominal)
    schedule = [(0, np.array([10.0, 10.0]))] if schedule is None else schedule
    return Scenario(plant=plant, controller=ctrl, schedule=schedule,
                    horizon=horizon, x0=plant.h_nominal.copy())


# ---------------------------------------------------------------------------
# basic loop behavior

def test_equilibrium_scenario_is_stationary():
    s = tank_scenario(horizon=50)
    record = simulate(s)
    drift = np.max(np.abs(record.x - record.x[0]))
    assert drift <= 1e-8
    assert np.max(np.abs(record.e)) <= 1e-8
    assert np.max(record.vi_residual) <= 1e-8


def test_determinism_bit_identical():
    s = tank_scenario(horizon=60, schedule=[(0, np.array([10.0, 10.0])),
                                            (10, np.array([16.0, 9.0]))])
    r1, r2 = simulate(s), simulate(s)
    for name in ("x", "u", "e", "eta", "constraint_margin", "vi_residual"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name), equal_nan=True)
    assert len(r1.segments) == len(r2.segments)
    for a, b in zip(r1.segments, r2.segments):
        assert a.tracking_error == b.tracking_error
        assert a.normal_cone_residual == b.normal_cone_residual


def test_controller_state_not_mutated_by_simulate():
    s = scalar_scenario()
    before = s.controller.eta.copy()
    simulate(s)
    assert np.array_equal(s.controller.eta, before)


def test_a_scenario_keeps_copies_of_its_start_and_disturbances():
    # edits of x0 and w after construction reach no run: their first states
    # stay [0, 0, 0.0625], where the caller's arrays gave [7, 3.5, 1.5]
    x0, w = np.array([0.0]), np.array([0.5])
    s = replace(scalar_scenario(horizon=20), schedule=[(0, w)], x0=x0)
    before = simulate(s).x
    x0[0], w[0] = 7.0, 3.0
    after = simulate(s).x
    assert np.array_equal(after, before)
    assert after[:3, 0].tolist() == [0.0, 0.0, 0.0625]


def test_scalar_tracking_feasible_reference():
    record = simulate(scalar_scenario(horizon=100))
    assert abs(record.e[-1, 0]) <= 1e-9
    assert record.u[-1, 0] == pytest.approx(0.5, abs=1e-8)


def test_scalar_saturation_infeasible_reference():
    record = simulate(scalar_scenario(horizon=150, schedule=[(0, np.array([2.0]))]))
    assert record.u[-1, 0] == pytest.approx(1.0, abs=1e-12)  # pinned at the bound
    assert record.e[-1, 0] == pytest.approx(-1.0, abs=1e-8)
    assert record.constraint_margin[-1] == pytest.approx(0.0, abs=1e-12)
    assert record.vi_residual[-1] <= 1e-9


def test_time_axis():
    record = simulate(scalar_scenario(horizon=5))
    assert np.allclose(record.t, [0.0, 1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# logged residual column

def test_logged_residual_matches_direct_recomputation():
    s = tank_scenario(horizon=120, schedule=[(0, np.array([10.0, 10.0])),
                                             (5, np.array([18.0, 18.0]))])
    record = simulate(s)
    for k in (0, 5, 6, 30, 119):
        direct = _measured_vi_residual(s.controller, record.eta[k], record.e[k])
        assert record.vi_residual[k] == pytest.approx(direct, abs=1e-12)


def test_scenario_requires_projected_controller():
    plant = LTIPlant(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]], T_s=1.0)
    ctrl = ClassicalIntegralController([[1.0]], T_s=1.0, T_i=2.0, eta0=[0.0])
    with pytest.raises(ValueError, match="projected"):
        Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([0.5]))],
                 horizon=10, x0=np.array([0.0]))


@pytest.mark.parametrize("gain, w, message", [
    (np.eye(2), [1.0], "gain must be"),  # two tracked errors for a plant with one
    ([[1.0]], [1.0, 2.0], "dimension 1"),  # two disturbances for a plant with one
    ([[1.0]], [np.nan], "disturbance at step 0 must be finite"),  # a NaN disturbance
])
def test_scenario_rejects_a_gain_or_disturbance_that_does_not_fit_the_plant(gain, w, message):
    # caught when the scenario is built, not as a numerical failure in the loop
    plant = LTIPlant([[0.5]], [[1.0]], [[1.0]], B_w=[[1.0]], D_w=[[0.0]])
    p = np.shape(gain)[1]
    ctrl = DPIController(gain, Box([-1.0] * p, [1.0] * p), Metric.identity(p), 1.0, 5.0, 0.5)
    with pytest.raises(ValueError, match=message):
        Scenario(plant, ctrl, [(0, w)], 10, [0.0])


# ---------------------------------------------------------------------------
# schedule and segments

def test_scenario_rejects_a_controller_sampled_at_another_period():
    # alpha = T_s / T_i reads the controller's T_s and the time axis the plant's
    s = scalar_scenario()
    ctrl = DPIController([[1.0]], Box([-1.0], [1.0]), I1, T_s=5.0, T_i=2.0,
                         damping=0.5, eta0=[0.0])
    with pytest.raises(ValueError, match="controller T_s = 5 differs from the plant's T_s = 1"):
        replace(s, controller=ctrl)


def test_schedule_validation():
    with pytest.raises(ValueError):
        scalar_scenario(schedule=[(5, np.array([0.5]))])  # first change not at 0
    with pytest.raises(ValueError):
        scalar_scenario(schedule=[(0, np.array([0.5])), (0, np.array([1.0]))])
    with pytest.raises(ValueError):
        scalar_scenario(horizon=10, schedule=[(0, np.array([0.5])),
                                              (10, np.array([1.0]))])


@pytest.mark.parametrize("horizon, start", [(400.7, 200), (400, 200.9), (400, 200.0),
                                            (True, 0), (400, True), (400, np.True_),
                                            (np.inf, 200), (400, np.nan), ("400", 200)])
def test_a_scenario_takes_only_integer_steps(horizon, start):
    # a fraction once truncated to its step and True read as step 1; a float
    # horizon was kept, and simulate then failed on it with a bare TypeError.
    # As in a config, whose _as_int rejects them, a float is no step
    schedule = [(0, np.array([0.5])), (start, np.array([1.0]))] if start else None
    with pytest.raises(ValueError, match="start steps must be integers"):
        scalar_scenario(horizon=horizon, schedule=schedule)


def test_a_scenario_keeps_numpy_integer_steps_as_ints():
    s = scalar_scenario(horizon=np.int64(30), schedule=[(0, np.array([0.5])),
                                                         (np.int32(10), np.array([1.0]))])
    assert [type(k) for k, _ in s.schedule] == [int, int] and type(s.horizon) is int
    assert [(seg.start, seg.end) for seg in simulate(s).segments] == [(0, 10), (10, 30)]


def test_segment_bookkeeping():
    s = scalar_scenario(horizon=30, schedule=[(0, np.array([0.5])),
                                              (10, np.array([0.2])),
                                              (20, np.array([0.8]))])
    record = simulate(s)
    bounds = [(seg.start, seg.end) for seg in record.segments]
    assert bounds == [(0, 10), (10, 20), (20, 30)]
    assert record.segments[1].w[0] == pytest.approx(0.2)
    assert record.segments[-1].tracking_error == pytest.approx(
        float(np.abs(record.e[29, 0])))


def test_w_held_between_changes():
    s = scalar_scenario(horizon=10, schedule=[(0, np.array([0.5])),
                                              (4, np.array([0.7]))])
    W = _w_steps(s)
    assert W.shape == (10, 1)
    assert W[0, 0] == 0.5
    assert W[3, 0] == 0.5
    assert W[4, 0] == 0.7
    assert W[9, 0] == 0.7


# ---------------------------------------------------------------------------
# error paths

def test_infeasible_initial_controller_state_rejected():
    s = scalar_scenario()
    s.controller.eta = np.array([5.0])  # poke the state outside Gamma
    with pytest.raises(ValueError, match="not a member of Gamma"):
        simulate(s)
    # a sweep starts from the same state
    with pytest.raises(ValueError, match="not a member of Gamma"):
        gain_sweep(s, [2.0], [0.5])


def test_plant_failure_reports_step_index():
    class Exploding(LTIPlant):
        def step(self, x, u, w):
            if np.linalg.norm(x) > 0.2:
                raise NumericalError("boom")
            return super().step(x, u, w)

    plant = Exploding(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                      T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-1.0], [1.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    s = Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([2.0]))],
                 horizon=50, x0=np.array([0.0]))
    with pytest.raises(SimulationError, match=r"step \d+"):
        simulate(s)


def test_non_finite_initial_state_is_rejected_at_construction():
    # the loop checks e, not x, so a NaN in an unobserved state (a zero
    # column of C, an upper tank) would have surfaced only after step 0's
    # plant update; the scenario rejects every non-finite x0 before any step
    lti = LTIPlant(A=[[0.5, 0.0], [0.0, 0.5]], B=[[0.5], [0.0]], C=[[1.0, 0.0]],
                   B_w=[[0.0], [0.0]], D_w=[[-1.0]], T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-1.0], [1.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    lti_scenario = Scenario(plant=lti, controller=ctrl, schedule=[(0, np.array([0.5]))],
                            horizon=10, x0=np.array([0.0, 0.0]))
    tank = tank_scenario(horizon=10)
    starts = [(lti_scenario, np.array([0.0, np.nan])), (lti_scenario, np.array([np.nan, 0.0])),
              (lti_scenario, np.array([np.inf, 0.0]))]
    for level in (0, 2):
        x0 = tank.plant.h_nominal.copy()
        x0[level] = np.nan
        starts.append((tank, x0))
    for s, x0 in starts:
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            replace(s, x0=x0)


# ---------------------------------------------------------------------------
# deviation coordinates

def test_deviation_zero_at_equilibrium():
    s = tank_scenario(horizon=30)
    record = simulate(s)
    xi = change_of_coordinates(record, s)
    assert np.max(np.abs(xi)) <= 1e-8


def test_lti_deviation_matches_direct_recursion():
    s = scalar_scenario(horizon=80, schedule=[(0, np.array([0.5])),
                                              (40, np.array([-0.3]))])
    record = simulate(s)
    xi = change_of_coordinates(record, s)
    # xi_k = x_k - (I - A)^{-1} B u_k obeys xi_{k+1} = A xi_k + (I-A)^{-1} B (u_k - u_{k+1})
    A, B = 0.5, 0.5
    gain = B / (1.0 - A)
    direct = np.empty_like(xi)
    direct[0] = record.x[0, 0] - gain * record.u[0, 0]
    for k in range(len(xi) - 1):
        du = record.u[k, 0] - record.u[k + 1, 0]
        direct[k + 1] = A * direct[k, 0] + gain * du
    assert np.allclose(xi, direct, atol=1e-10)


def test_deviation_spikes_then_decays():
    s = tank_scenario(horizon=250, schedule=[(0, np.array([10.0, 10.0])),
                                             (10, np.array([13.0, 11.0]))])
    record = simulate(s)
    xi = change_of_coordinates(record, s)
    norms = np.linalg.norm(xi, axis=1)
    assert np.max(norms[:10]) <= 1e-8      # quiet before the change
    assert np.max(norms) > 1e-2            # excited by the step
    assert norms[-1] < 1e-6                # settled again


# ---------------------------------------------------------------------------
# convergence classification and rate fitting

def test_classify_converged_run():
    s = scalar_scenario(horizon=120)
    record = simulate(s)
    xi = change_of_coordinates(record, s)
    assert classify_convergence(record, xi, I1)


def test_classify_rejects_truncated_transient():
    s = scalar_scenario(horizon=6, T_i=40.0, damping=0.1)  # barely moved yet
    record = simulate(s)
    xi = change_of_coordinates(record, s)
    assert not classify_convergence(record, xi, I1)


def test_a_run_shorter_than_its_quiet_tail_has_not_converged():
    # the loop starts at its equilibrium, so every settling value is 0; a
    # quiet tail of two steps that each take their eta increment needs three rows
    for horizon, converged in ((1, False), (2, False), (3, True), (30, True)):
        s = scalar_scenario(horizon=horizon, schedule=[(0, np.array([0.0]))])
        record = simulate(s)
        xi = change_of_coordinates(record, s)
        assert not np.any(record.vi_residual) and not np.any(xi)
        assert classify_convergence(record, xi, I1) is converged, horizon


def test_fit_decay_rate_recovers_geometric_sequence():
    rate = 0.93
    seq = 5.0 * rate ** np.arange(60)
    assert fit_decay_rate(seq, start=0) == pytest.approx(rate, abs=1e-9)


def test_fit_decay_rate_floor_and_min_points():
    flat = np.full(40, 1e-15)
    assert fit_decay_rate(flat, start=0) == 0.0
    short = 5.0 * 0.9 ** np.arange(6)
    assert fit_decay_rate(short, start=0) == 0.0


# ---------------------------------------------------------------------------
# gain sweep

def test_gain_sweep_scalar_plant():
    # horizon sized for the slowest setting (T_i=10, damping=0.3, dominant
    # closed-loop root ~0.968) to settle its residual below the bound
    s = scalar_scenario(horizon=700)
    report = gain_sweep(s, [2.0, 10.0], [0.3, 0.8])
    assert low_gain_threshold(s.plant.T_s, 1.0, 1.0) == pytest.approx(0.5)  # T_s L^2 / (2 mu)
    assert len(report.points) == 4
    for p in report.points:
        assert p.converged, (p.T_i, p.damping, p.error)
        assert p.decay_rate < 1.0
        assert p.final_vi_residual <= 1e-8
        # u settles at 0.5, inside the box, so the loop decays at the
        # spectral radius of its linearization there
        rho = linearized_loop_radius(s.plant, s.controller.gain, p.T_i, p.damping)
        assert p.decay_rate == pytest.approx(rho, abs=1e-3), (p.T_i, p.damping)


def test_gain_sweep_marks_failures_and_continues():
    class Fragile(LTIPlant):
        def step(self, x, u, w):
            # a fast integrator (small T_i) drives u over 0.9 within a few
            # steps; slow settings never get there
            if abs(u[0]) > 0.9:
                raise NumericalError("actuator model fault")
            return super().step(x, u, w)

    plant = Fragile(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                    T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-2.0], [2.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    s = Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([0.5]))],
                 horizon=200, x0=np.array([0.0]))
    report = gain_sweep(s, [0.05, 50.0], [0.9])
    fast, slow = report.points
    assert not fast.converged and fast.error is not None and "step" in fast.error
    assert slow.error is None
    assert np.isnan(fast.decay_rate)


def test_an_arithmetic_error_fails_its_step_and_only_its_own_sweep_row():
    # a float over- or underflow that a plant raises is a failed step, which
    # the loop retries row by row as it does a RuntimeError or ValueError
    class Dividing(LTIPlant):
        def step(self, x, u, w):
            if np.any(x > 0.3):
                raise ZeroDivisionError("float division by zero")
            return super().step(x, u, w)

    plant = Dividing(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]], T_s=1.0)
    s = replace(scalar_scenario(horizon=60), plant=plant)
    with pytest.raises(SimulationError, match="^step 5: float division by zero"):
        simulate(s)
    fast, slow = gain_sweep(s, [2.0, 50.0], [0.5]).points
    assert fast.error == "step 5: float division by zero" and not fast.converged
    assert slow.error is None


def test_gain_sweep_requires_projected_controller():
    # the scenario's own check rejects the controller before gain_sweep runs
    plant = LTIPlant(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]], T_s=1.0)
    ctrl = ClassicalIntegralController([[1.0]], T_s=1.0, T_i=2.0, eta0=[0.0])
    with pytest.raises(ValueError, match="projected"):
        s = Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([0.5]))],
                     horizon=10, x0=np.array([0.0]))
        gain_sweep(s, [2.0], [0.5])


@pytest.mark.parametrize("T_i, damping, message", [
    (0.0, 0.5, "integral time"), (-1.0, 0.5, "integral time"),
    (np.inf, 0.5, "integral time"), (np.nan, 0.5, "integral time"),
    (2.0, 0.0, "damping"), (2.0, 1.0, "damping"), (2.0, 1.5, "damping"),
    (2.0, np.nan, "damping")])
def test_gain_sweep_rejects_bad_gains(T_i, damping, message):
    with pytest.raises(ValueError, match=message):
        gain_sweep(scalar_scenario(horizon=10), [2.0, T_i], [0.5, damping])


def test_a_sweep_starts_where_simulate_starts(monkeypatch):
    import dpic.simulation as simulation

    s = scalar_scenario(horizon=300)
    ctrl = s.controller
    for e in (-0.5, -0.4, -0.3):
        ctrl.step(np.array([e]))
    solo = simulate(s)
    rows, real = [], simulation._lockstep

    def lockstep(*args):
        rows.extend(real(*args))
        return rows

    monkeypatch.setattr(simulation, "_lockstep", lockstep)
    report = gain_sweep(s, [ctrl.T_i], [ctrl.damping])
    row, = rows
    assert_same_run(row, solo)
    assert report.points[0].final_vi_residual == row.vi_residual[-1]


def test_a_sweep_makes_the_nnls_solves_of_its_solo_runs(monkeypatch):
    # every row of this grid binds the box's upper face after step 200; each row
    # carries its own warm start, so a row's projections solve as many NNLS in
    # the sweep as in its solo run, whichever row projected before it
    import dpic.sets as sets_mod
    from dpic import build_setup, preset_config

    cfg = preset_config("lti-demo")
    cfg["sweep"]["schedule"] = [[0, [0.5]], [200, [2.0]]]
    solves, real = [0], sets_mod._nnls

    def nnls(*args):
        solves[0] += 1
        return real(*args)

    monkeypatch.setattr(sets_mod, "_nnls", nnls)

    def sweep(T_i, damping):  # the NNLS solves of a sweep on a freshly built setup
        spec = build_setup(cfg).sweep
        before = solves[0]
        report = gain_sweep(spec["scenario"], T_i, damping)
        assert not any(p.error for p in report.points)
        return solves[0] - before

    T_i, damping = cfg["sweep"]["T_i"], cfg["sweep"]["lambda"]
    alone = [sweep([t], [d]) for t in T_i for d in damping]
    assert min(alone) >= 1  # every row projects onto the face
    assert sweep(T_i, damping) == sum(alone)


def test_gain_sweep_builds_no_controller(monkeypatch):
    from dpic import build_setup, preset_config

    spec = build_setup(preset_config("four-tank")).sweep
    built, real = [], DPIController.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(DPIController, "__init__", init)
    gain_sweep(spec["scenario"], spec["T_i"], spec["lambda"])
    assert built == []


def test_empirical_damping_star():
    pts = [SweepPoint(5.0, 0.1, True, 0.9, 0.0),
           SweepPoint(5.0, 0.5, True, 0.9, 0.0),
           SweepPoint(5.0, 0.9, False, np.nan, 1.0),
           SweepPoint(9.0, 0.1, False, np.nan, 1.0)]
    report = StabilityReport(pts)
    assert report.empirical_damping_star(5.0) == pytest.approx(0.5)
    assert report.empirical_damping_star(9.0) is None


# ---------------------------------------------------------------------------
# lockstep loop: rows of a batch against solo runs

RECORD_COLUMNS = ("k", "x", "u", "e", "eta", "constraint_margin", "vi_residual")


def assert_same_run(row, solo):
    """Every record array equal bit for bit, NaN and the sign of zero included."""
    for name in RECORD_COLUMNS:
        a, b = getattr(row, name), getattr(solo, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


def retuned(ctrl, T_i, damping):
    """ctrl with new integral gains, at ctrl's current state."""
    return DPIController(ctrl.gain, ctrl.constraint, ctrl.metric, ctrl.T_s,
                         T_i, damping, eta0=ctrl.eta)


def gain_rows(ctrls):
    """The (alpha, damping) rows that step the controllers in lockstep."""
    return [c.alpha for c in ctrls], [c.damping for c in ctrls]


def test_lockstep_rows_equal_solo_runs():
    # the last reference is infeasible, so rows take the projected path too
    s = tank_scenario(horizon=300, schedule=[(0, np.array([10.0, 10.0])),
                                             (20, np.array([16.0, 9.0])),
                                             (150, np.array([18.0, 18.0]))])
    ctrls = [retuned(s.controller, T_i, damping)
             for T_i, damping in ((5.0, 0.95), (15.0, 0.5), (30.0, 0.1))]
    rows = list(_lockstep(s, *gain_rows(ctrls)))  # read twice below
    assert min(np.min(r.constraint_margin) for r in rows) <= 1e-9  # saturated
    for ctrl, row in zip(ctrls, rows):
        # agreement is exact: each row takes the arithmetic of a batch of one
        assert_same_run(row, simulate(replace(s, controller=ctrl)))


def test_lockstep_rows_equal_solo_runs_on_matrices_given_as_strided_views():
    # a solo run's products take ndarray.dot, which copies a strided matrix
    # for BLAS, and a sweep's the broadcast matmul, which would loop over it
    # without BLAS; the plant and the gain keep copies in BLAS's layout
    def reversed_view(M):  # M's values, read with a negative row stride
        return np.ascontiguousarray(M[::-1])[::-1]

    s, K = polytope_lti_scenario(segment=60)
    p, c = s.plant, s.controller
    plant = LTIPlant(*(reversed_view(M) for M in (p.A, p.B, p.C, p.D, p.B_w, p.D_w)))
    ctrl = DPIController(reversed_view(K), c.constraint, c.metric, c.T_s, 4.0, 0.5,
                         eta0=c.eta)
    s = replace(s, plant=plant, controller=ctrl)
    ctrls = [retuned(ctrl, T_i, damping) for T_i, damping in ((4.0, 0.5), (8.0, 0.9))]
    for ctrl, row in zip(ctrls, _lockstep(s, *gain_rows(ctrls))):
        assert_same_run(row, simulate(replace(s, controller=ctrl)))


def test_lockstep_steps_every_row_before_its_records_are_read(monkeypatch):
    # the loop runs when _lockstep is called; only the records wait for the reader
    s = scalar_scenario(horizon=50)
    steps = _count_row_steps(monkeypatch, s.plant)
    rows = _lockstep(s, [0.5, 0.05], [0.5, 0.5])
    stepped = steps[0]
    assert 0 < stepped <= 2 * s.horizon
    assert len(list(rows)) == 2
    assert steps[0] == stepped


def test_gain_sweep_diagnoses_one_record_at_a_time(monkeypatch):
    import weakref

    import dpic.simulation as simulation

    seen, alive, real = [], [], simulation.classify_convergence

    def classify(record, xi, metric):
        seen.append(weakref.ref(record))
        alive.append(sum(ref() is not None for ref in seen))
        return real(record, xi, metric)

    monkeypatch.setattr(simulation, "classify_convergence", classify)
    gain_sweep(scalar_scenario(horizon=200), [2.0, 5.0, 20.0], [0.3, 0.9])
    assert alive == [1] * 6


def test_failing_row_mid_batch_leaves_other_rows_as_solo_runs():
    batches = []

    class Fragile(LTIPlant):
        def step(self, x, u, w):
            # a fast integrator (small T_i) drives u over 0.9 within a few steps
            if np.any(np.abs(u) > 0.9):
                raise NumericalError("actuator model fault")
            batches.append(len(x))
            return super().step(x, u, w)

    plant = Fragile(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                    T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-2.0], [2.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    ctrls = [retuned(ctrl, 50.0, 0.9), retuned(ctrl, 0.05, 0.9),
             retuned(ctrl, 20.0, 0.5)]
    one_segment = ([(0, np.array([0.5]))], 200)
    # the medium row settles at step 1250, then rejoins at 1500 next to the
    # slow row, past the position the failed fast row held
    two_segments = ([(0, np.array([0.5])), (1500, np.array([-0.3]))], 2000)
    for schedule, horizon in (one_segment, two_segments):
        s = Scenario(plant=plant, controller=ctrl, schedule=schedule,
                     horizon=horizon, x0=np.array([0.0]))
        batches.clear()
        slow, fast, medium = _lockstep(s, *gain_rows(ctrls))
        if len(schedule) == 2:
            assert [size for size, _ in itertools.groupby(batches)][-2:] == [1, 2]
        assert isinstance(fast, SimulationError)
        with pytest.raises(SimulationError) as solo_failure:
            simulate(replace(s, controller=ctrls[1]))
        assert str(fast) == str(solo_failure.value)
        assert_same_run(slow, simulate(replace(s, controller=ctrls[0])))
        assert_same_run(medium, simulate(replace(s, controller=ctrls[2])))


def test_row_failing_next_to_a_settled_row_stays_out_of_later_segments():
    batches = []

    class Fragile(LTIPlant):
        def step(self, x, u, w):
            if np.any(np.abs(u) > 0.9):
                raise NumericalError("actuator model fault")
            batches.append(len(x))
            return super().step(x, u, w)

    plant = Fragile(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                    T_s=1.0)

    # every row starts from x0 = eta0 = 0.5, the equilibrium of u = 0.5.  The
    # first row's integral gain is too low to move eta by an ulp, so its
    # first step maps (x, eta) to itself: it settles at step 0 and swaps
    # places with the last row.  The two overshooting rows then fail together
    # at step 5, on both sides of the steady row, while the first is settled;
    # only the settled and the steady row take the second segment, where the
    # settled row settles again at once
    ctrl = DPIController([[1.0]], Box([-2.0], [2.0]), I1, T_s=1.0, T_i=5.0,
                         damping=0.5, eta0=[0.5])
    ctrls = [retuned(ctrl, 1e20, 0.5), ctrl, retuned(ctrl, 1.5, 0.5),
             retuned(ctrl, 1.5, 0.5)]
    s = Scenario(plant=plant, controller=ctrl, horizon=600, x0=np.array([0.5]),
                 schedule=[(0, np.array([0.85])), (300, np.array([0.3]))])
    settled, steady, *failing = _lockstep(s, *gain_rows(ctrls))
    assert batches[:6] == [4, 3, 3, 3, 3, 1]
    assert max(batches[6:]) == 2 and batches[6:].count(2) == 1
    with pytest.raises(SimulationError) as solo_failure:
        simulate(replace(s, controller=ctrls[2]))
    for row in failing:
        assert isinstance(row, SimulationError) and "step 5" in str(row)
        assert str(row) == str(solo_failure.value)
    assert_same_run(settled, simulate(replace(s, controller=ctrls[0])))
    assert_same_run(steady, simulate(replace(s, controller=ctrls[1])))


def test_state_gone_non_finite_in_one_row_ends_that_row_alone():
    class Unchecked(LTIPlant):
        def step(self, x, u, w):
            # a model with no finiteness check of its own: a fast integrator
            # (small T_i) drives u over 0.9 and the state turns NaN
            return np.where(np.abs(u) > 0.9, np.nan, super().step(x, u, w))

    plant = Unchecked(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                      T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-2.0], [2.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    s = Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([0.5]))],
                 horizon=200, x0=np.array([0.0]))
    ctrls = [retuned(ctrl, 50.0, 0.9), retuned(ctrl, 0.05, 0.9),
             retuned(ctrl, 20.0, 0.5)]
    slow, fast, medium = _lockstep(s, *gain_rows(ctrls))
    assert isinstance(fast, SimulationError) and "not finite" in str(fast)
    with pytest.raises(SimulationError) as solo_failure:
        simulate(replace(s, controller=ctrls[1]))
    assert str(fast) == str(solo_failure.value)
    assert_same_run(slow, simulate(replace(s, controller=ctrls[0])))
    assert_same_run(medium, simulate(replace(s, controller=ctrls[2])))
    report = gain_sweep(s, [50.0, 0.05, 20.0], [0.9])
    assert [p.error is None for p in report.points] == [True, False, True]


# ---------------------------------------------------------------------------
# the loop against its per-step reference: margin, residual and the u-in-C
# guard come from the record after the loop, bit for bit as inside each step

def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def polytope_lti_scenario(segment=200, infeasible=True, seed=3):
    """4-input LTI loop under a 20-row polytope in a non-diagonal metric.

    x <- A x + B u and e = x - r with B = (I - A) G, so the steady-state
    error is G u - r.  K = G^{-1} M with M = I + 0.3 N, |N|_2 = 1, makes the
    steady-state operator M eta - r strongly monotone; P solves
    M^T P + P M = I.  The input set is {u : a_i . u <= 1} for 20 random unit
    normals.  The reference first asks for an input of norm 0.5, inside the
    set, then (if infeasible) for one 2.5 along the first normal, outside
    it; each holds for segment steps.  Returns the scenario and K.
    """
    from scipy.linalg import solve_continuous_lyapunov

    from dpic import Polyhedron

    dim = 4
    rng = np.random.default_rng(seed)
    G = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    N = rng.standard_normal((dim, dim))
    M = np.eye(dim) + 0.3 * N / np.linalg.norm(N, 2)
    K = np.linalg.solve(G, M)
    P = solve_continuous_lyapunov(M.T, np.eye(dim))
    normals = np.array([_unit(rng, dim) for _ in range(20)])
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = Q @ np.diag(rng.uniform(0.2, 0.5, dim)) @ Q.T
    plant = LTIPlant(A=A, B=(np.eye(dim) - A) @ G, C=np.eye(dim), D=np.zeros((dim, dim)),
                     B_w=np.zeros((dim, dim)), D_w=-np.eye(dim), T_s=1.0)
    constraint = Polyhedron(normals, np.ones(20))
    lower, upper = constraint.bounding_box()
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    ctrl = DPIController(K, constraint, Metric(0.5 * (P + P.T)), T_s=1.0, T_i=4.0,
                         damping=0.5, u0=np.zeros(dim))
    schedule = [(0, G @ (0.5 * _unit(rng, dim)))]  # every facet is at distance 1
    if infeasible:
        schedule.append((segment, G @ (2.5 * normals[0])))
    return Scenario(plant=plant, controller=ctrl, schedule=schedule,
                    horizon=segment * len(schedule), x0=np.zeros(dim)), K


def test_polytope_lti_scenario_is_weighted_and_saturates():
    s, _ = polytope_lti_scenario()
    P = s.controller.metric.P
    assert np.any(P != np.diag(np.diag(P)))  # a coupled metric
    record = simulate(s)
    assert np.min(record.constraint_margin[:200]) > 0.1
    assert abs(record.constraint_margin[-1]) <= 1e-12  # settled on a facet


def _count_row_steps(monkeypatch, plant):
    """Wrap plant.step to count the rows it steps; the one-item list returned
    holds the count."""
    count, real = [0], plant.step

    def step(x, u, w=None):
        count[0] += len(np.reshape(x, (-1, plant.n)))
        return real(x, u, w)

    monkeypatch.setattr(plant, "step", step)
    return count


@pytest.mark.parametrize("preset", ["four-tank", "lti-demo"])
def test_simulate_preset_equals_the_per_step_loop(preset, monkeypatch):
    from dpic import build_setup, preset_config
    from loop_oracle import oracle_lockstep

    scenario = build_setup(preset_config(preset)).scenario
    reference, = oracle_lockstep(scenario, *gain_rows([scenario.controller]))
    steps = _count_row_steps(monkeypatch, scenario.plant)
    assert_same_run(simulate(scenario), reference)
    # the loop settles in each segment and copies the rest of it
    assert steps[0] < scenario.horizon


def test_polytope_lti_equals_the_per_step_loop():
    from loop_oracle import oracle_lockstep

    s, _ = polytope_lti_scenario()
    reference, = oracle_lockstep(s, *gain_rows([s.controller]))
    assert_same_run(simulate(s), reference)


def test_four_tank_sweep_rows_equal_the_per_step_loop(monkeypatch):
    from dpic import build_setup, preset_config
    from loop_oracle import oracle_lockstep

    spec = build_setup(preset_config("four-tank")).sweep
    s = spec["scenario"]
    # the preset's whole grid: 13 of its 15 rows settle at different steps,
    # so the batch shrinks from 15 rows to 2, and (T_i 2, lambda 0.95) and
    # (30, 0.1) never settle
    alpha = [s.controller.T_s / T_i for T_i in spec["T_i"] for _ in spec["lambda"]]
    damping = [damping for _ in spec["T_i"] for damping in spec["lambda"]]
    retries = []
    references = oracle_lockstep(s, alpha, damping, retries)
    # no row fails, so every oracle step runs as one batch
    assert retries == []
    steps = _count_row_steps(monkeypatch, s.plant)
    rows = _lockstep(s, alpha, damping)
    assert 0 < steps[0] < len(alpha) * s.horizon / 2  # counted before any row is read
    for row, reference in zip(rows, references):
        assert_same_run(row, reference)


def test_a_state_that_flips_the_sign_of_zero_has_not_settled():
    from dpic import PlantModel
    from loop_oracle import oracle_lockstep

    class Flip(PlantModel):
        n, m, p, n_w, T_s = 1, 1, 1, 1, 1.0

        def step(self, x, u, w):
            return -x

        def output(self, x, u, w):
            return 0 * x + 0.0

        def pi_x(self, u, w):
            return np.zeros_like(u)

    # x alternates between -0.0 and +0.0, which compare equal as floats,
    # while e = +0.0 keeps eta at 0.0; the step map has no fixed point here
    ctrl = DPIController([[1.0]], Box([-1.0], [1.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    s = Scenario(plant=Flip(), controller=ctrl, schedule=[(0, np.array([0.0]))],
                 horizon=20, x0=np.array([-0.0]))
    record = simulate(s)
    reference, = oracle_lockstep(s, *gain_rows([ctrl]))
    assert_same_run(record, reference)
    assert np.signbit(record.x[::2]).all() and not np.signbit(record.x[1::2]).any()


def _pushing_update(monkeypatch, row, step, eta_out):
    """Patch the loop's update so that row leaves its update at step with
    eta_out, outside Gamma; calls are counted, one per step of a batch."""
    import dpic.simulation as simulation

    real = simulation._damped_projected_update
    calls = []

    def update(gamma, metric, eta, e, *gains):
        eta_next = real(gamma, metric, eta, e, *gains)
        if len(calls) == step:
            eta_next[row] = eta_out
        calls.append(len(eta))
        return eta_next

    monkeypatch.setattr(simulation, "_damped_projected_update", update)


def test_u_outside_c_fails_the_row_at_the_next_step(monkeypatch):
    s = scalar_scenario(horizon=60)
    ctrls = [retuned(s.controller, 2.0, 0.5), retuned(s.controller, 5.0, 0.3)]
    solo = simulate(replace(s, controller=ctrls[1]))
    _pushing_update(monkeypatch, row=0, step=7, eta_out=[3.0])  # C = [-1, 1]
    pushed, other = _lockstep(s, *gain_rows(ctrls))
    assert isinstance(pushed, ConstraintViolationError)
    assert str(pushed) == "step 8: projected controller emitted u outside C"
    assert_same_run(other, solo)


def test_violation_wins_over_a_later_step_error(monkeypatch):
    class Bounded(LTIPlant):
        def step(self, x, u, w):
            if np.any(np.abs(x) > 1.2):
                raise NumericalError("level out of range")
            return super().step(x, u, w)

    plant = Bounded(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]], T_s=1.0)
    s = replace(scalar_scenario(horizon=60), plant=plant)
    _pushing_update(monkeypatch, row=0, step=7, eta_out=[3.0])
    # u = 3 from step 8 drives x to 1.75 at step 9, where the plant raises
    with pytest.raises(ConstraintViolationError, match="^step 8: "):
        simulate(s)


def test_a_step_that_raises_reports_its_own_error(monkeypatch):
    class Capped(LTIPlant):
        def step(self, x, u, w):
            if np.any(np.abs(u) > 1.2):
                raise NumericalError("input out of range")
            return super().step(x, u, w)

    plant = Capped(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]], T_s=1.0)
    s = replace(scalar_scenario(horizon=60), plant=plant)
    _pushing_update(monkeypatch, row=0, step=7, eta_out=[3.0])
    # the step that emits u outside C raises and writes nothing
    with pytest.raises(SimulationError, match="^step 8: input out of range") as failure:
        simulate(s)
    assert not isinstance(failure.value, ConstraintViolationError)


def test_polytope_lti_sweep_rates_match_the_linearized_loop():
    s, K = polytope_lti_scenario(segment=800, infeasible=False)
    W = np.linalg.cholesky(s.controller.metric.P).T
    Mw = W @ s.plant.dc_gain() @ K @ np.linalg.inv(W)
    mu = float(np.min(np.linalg.eigvalsh(0.5 * (Mw + Mw.T))))
    L = float(np.linalg.norm(Mw, 2))
    report = gain_sweep(s, [1.0, 2.0, 4.0], [0.25, 0.5, 0.75])
    assert low_gain_threshold(s.plant.T_s, mu, L) < 1.0  # the whole grid is in the low-gain regime
    for p in report.points:
        # the reference is feasible and no run leaves the interior of Gamma,
        # so each run is the linear loop and settles at its rate rho
        rho = linearized_loop_radius(s.plant, K, p.T_i, p.damping)
        assert p.converged and rho < 1.0
        # the fit starts 5 steps into the segment, where the loop's other
        # modes (moduli within 0.06 of rho here) still bend log s_k; on this
        # loop that costs up to 2.7e-3
        assert abs(p.decay_rate - rho) <= 3e-3, (p.T_i, p.damping)
