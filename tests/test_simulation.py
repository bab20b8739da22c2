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
from dpic.sets import MEMBERSHIP_TOL
from dpic.simulation import _lockstep

I1 = Metric.identity(1)
I2 = Metric.identity(2)


def _measured_vi_residual(ctrl: DPIController, eta: np.ndarray, e: np.ndarray) -> float:
    """Oracle for the logged residual: |eta - Proj_Gamma(eta - alpha e)|_P,
    computed with a projection of its own."""
    forward = eta - ctrl.alpha * e
    if ctrl.gamma.contains(forward, MEMBERSHIP_TOL):
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


# ---------------------------------------------------------------------------
# schedule and segments

def test_schedule_validation():
    with pytest.raises(ValueError):
        scalar_scenario(schedule=[(5, np.array([0.5]))])  # first change not at 0
    with pytest.raises(ValueError):
        scalar_scenario(schedule=[(0, np.array([0.5])), (0, np.array([1.0]))])
    with pytest.raises(ValueError):
        scalar_scenario(horizon=10, schedule=[(0, np.array([0.5])),
                                              (10, np.array([1.0]))])


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
    assert s.w_at(0)[0] == 0.5
    assert s.w_at(3)[0] == 0.5
    assert s.w_at(4)[0] == 0.7
    assert s.w_at(9)[0] == 0.7


# ---------------------------------------------------------------------------
# error paths

def test_infeasible_initial_controller_state_rejected():
    s = scalar_scenario()
    s.controller.eta = np.array([5.0])  # poke the state outside Gamma
    with pytest.raises(ValueError):
        simulate(s)


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


def test_non_finite_initial_state_fails_step_0():
    # the loop checks e, not x: a NaN state shows in e (the observed tank
    # levels, or C x with a zero column) or in plant.step (an upper tank)
    lti = LTIPlant(A=[[0.5, 0.0], [0.0, 0.5]], B=[[0.5], [0.0]], C=[[1.0, 0.0]],
                   B_w=[[0.0], [0.0]], D_w=[[-1.0]], T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-1.0], [1.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    lti_scenario = Scenario(plant=lti, controller=ctrl, schedule=[(0, np.array([0.5]))],
                            horizon=10, x0=np.array([0.0, np.nan]))
    tank = tank_scenario(horizon=10)
    scenarios = [lti_scenario, replace(lti_scenario, x0=np.array([np.nan, 0.0]))]
    for level in (0, 2):
        x0 = tank.plant.h_nominal.copy()
        x0[level] = np.nan
        scenarios.append(replace(tank, x0=x0))
    for s in scenarios:
        with pytest.raises(SimulationError, match=r"^step 0: "):
            simulate(s)


# ---------------------------------------------------------------------------
# deviation coordinates

def test_deviation_zero_at_equilibrium():
    s = tank_scenario(horizon=30)
    record = simulate(s)
    xi = change_of_coordinates(record, s.plant, s)
    assert np.max(np.abs(xi)) <= 1e-8


def test_lti_deviation_matches_direct_recursion():
    s = scalar_scenario(horizon=80, schedule=[(0, np.array([0.5])),
                                              (40, np.array([-0.3]))])
    record = simulate(s)
    xi = change_of_coordinates(record, s.plant, s)
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
    xi = change_of_coordinates(record, s.plant, s)
    norms = np.linalg.norm(xi, axis=1)
    assert np.max(norms[:10]) <= 1e-8      # quiet before the change
    assert np.max(norms) > 1e-2            # excited by the step
    assert norms[-1] < 1e-6                # settled again


# ---------------------------------------------------------------------------
# convergence classification and rate fitting

def test_classify_converged_run():
    s = scalar_scenario(horizon=120)
    record = simulate(s)
    xi = change_of_coordinates(record, s.plant, s)
    assert classify_convergence(record, xi, I1)


def test_classify_rejects_truncated_transient():
    s = scalar_scenario(horizon=6, T_i=40.0, damping=0.1)  # barely moved yet
    record = simulate(s)
    xi = change_of_coordinates(record, s.plant, s)
    assert not classify_convergence(record, xi, I1)


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
    report = gain_sweep(s, [2.0, 10.0], [0.3, 0.8], mu=1.0, L=1.0)
    assert report.T_i_star == pytest.approx(0.5)  # T_s L^2 / (2 mu)
    assert len(report.points) == 4
    for p in report.points:
        assert p.converged, (p.T_i, p.damping, p.error)
        assert p.decay_rate < 1.0
        assert p.final_vi_residual <= 1e-8
    assert np.allclose(report.eta_bar, [0.5], atol=1e-10)


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
    report = gain_sweep(s, [0.05, 50.0], [0.9], mu=1.0, L=1.0)
    fast, slow = report.points
    assert not fast.converged and fast.error is not None and "step" in fast.error
    assert slow.error is None
    assert np.isnan(fast.decay_rate)


def test_gain_sweep_requires_projected_controller():
    # the scenario's own check rejects the controller before gain_sweep runs
    plant = LTIPlant(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]], T_s=1.0)
    ctrl = ClassicalIntegralController([[1.0]], T_s=1.0, T_i=2.0, eta0=[0.0])
    with pytest.raises(ValueError, match="projected"):
        s = Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([0.5]))],
                     horizon=10, x0=np.array([0.0]))
        gain_sweep(s, [2.0], [0.5], mu=1.0, L=1.0)


def test_empirical_damping_star():
    pts = [SweepPoint(5.0, 0.1, True, 0.9, 0.0),
           SweepPoint(5.0, 0.5, True, 0.9, 0.0),
           SweepPoint(5.0, 0.9, False, np.nan, 1.0),
           SweepPoint(9.0, 0.1, False, np.nan, 1.0)]
    report = StabilityReport(pts, 0.5, 1.0, 1.0, np.zeros(1))
    assert report.empirical_damping_star(5.0) == pytest.approx(0.5)
    assert report.empirical_damping_star(9.0) is None


# ---------------------------------------------------------------------------
# lockstep loop: rows of a batch against solo runs

RECORD_COLUMNS = ("x", "u", "e", "eta", "constraint_margin", "vi_residual")


def assert_same_run(row, solo):
    for name in RECORD_COLUMNS:
        assert np.array_equal(getattr(row, name), getattr(solo, name), equal_nan=True), name


def test_lockstep_rows_equal_solo_runs():
    # the last reference is infeasible, so rows take the projected path too
    s = tank_scenario(horizon=300, schedule=[(0, np.array([10.0, 10.0])),
                                             (20, np.array([16.0, 9.0])),
                                             (150, np.array([18.0, 18.0]))])
    ctrls = [s.controller.with_gains(T_i, damping)
             for T_i, damping in ((5.0, 0.95), (15.0, 0.5), (30.0, 0.1))]
    rows = _lockstep(s, ctrls)
    assert min(np.min(r.constraint_margin) for r in rows) <= 1e-9  # saturated
    for ctrl, row in zip(ctrls, rows):
        # agreement is exact: each row takes the arithmetic of a batch of one
        assert_same_run(row, simulate(replace(s, controller=ctrl)))


def test_failing_row_mid_batch_leaves_other_rows_as_solo_runs():
    class Fragile(LTIPlant):
        def step(self, x, u, w):
            # a fast integrator (small T_i) drives u over 0.9 within a few steps
            if np.any(np.abs(u) > 0.9):
                raise NumericalError("actuator model fault")
            return super().step(x, u, w)

    plant = Fragile(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]], D_w=[[-1.0]],
                    T_s=1.0)
    ctrl = DPIController([[1.0]], Box([-2.0], [2.0]), I1,
                         T_s=1.0, T_i=2.0, damping=0.5, eta0=[0.0])
    s = Scenario(plant=plant, controller=ctrl, schedule=[(0, np.array([0.5]))],
                 horizon=200, x0=np.array([0.0]))
    ctrls = [ctrl.with_gains(50.0, 0.9), ctrl.with_gains(0.05, 0.9),
             ctrl.with_gains(20.0, 0.5)]
    slow, fast, medium = _lockstep(s, ctrls)
    assert isinstance(fast, SimulationError)
    with pytest.raises(SimulationError) as solo_failure:
        simulate(replace(s, controller=ctrls[1]))
    assert str(fast) == str(solo_failure.value)
    assert_same_run(slow, simulate(replace(s, controller=ctrls[0])))
    assert_same_run(medium, simulate(replace(s, controller=ctrls[2])))


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
    ctrls = [ctrl.with_gains(50.0, 0.9), ctrl.with_gains(0.05, 0.9),
             ctrl.with_gains(20.0, 0.5)]
    slow, fast, medium = _lockstep(s, ctrls)
    assert isinstance(fast, SimulationError) and "not finite" in str(fast)
    with pytest.raises(SimulationError) as solo_failure:
        simulate(replace(s, controller=ctrls[1]))
    assert str(fast) == str(solo_failure.value)
    assert_same_run(slow, simulate(replace(s, controller=ctrls[0])))
    assert_same_run(medium, simulate(replace(s, controller=ctrls[2])))
    report = gain_sweep(s, [50.0, 0.05, 20.0], [0.9], mu=1.0, L=1.0)
    assert [p.error is None for p in report.points] == [True, False, True]
