import numpy as np
import pytest

from dpic import (
    Box,
    ClassicalIntegralController,
    DPIController,
    Halfspace,
    Intersection,
    Metric,
)

I1 = Metric.identity(1)
I2 = Metric.identity(2)

FREE2 = Box([-np.inf, -np.inf], [np.inf, np.inf])


def make_dpi(**kw):
    defaults = dict(gain=np.eye(2), constraint=FREE2, metric=I2,
                    T_s=10.0, T_i=15.0, damping=0.95, eta0=[0.0, 0.0])
    defaults.update(kw)
    return DPIController(**defaults)


# ---------------------------------------------------------------------------
# update law

def test_zero_error_is_a_fixed_point():
    c = make_dpi(eta0=[1.0, -2.0])
    u = c.step(np.zeros(2))
    assert np.allclose(u, [1.0, -2.0])
    assert np.allclose(c.eta, [1.0, -2.0], atol=1e-15)


def test_unconstrained_update():
    c = make_dpi()  # alpha = 10/15 = 2/3, damping 0.95
    u = c.step(np.array([1.0, 0.0]))
    assert np.allclose(u, [0.0, 0.0])  # emitted from the pre-update state
    assert np.allclose(c.eta, [0.95 * (-2.0 / 3.0), 0.0], atol=1e-15)


def test_input_computed_before_update():
    c = make_dpi(eta0=[3.0, 4.0])
    u = c.step(np.array([1.0, 1.0]))
    assert np.allclose(u, [3.0, 4.0])
    assert not np.allclose(c.eta, [3.0, 4.0])


def test_error_shape_checked():
    c = make_dpi()
    with pytest.raises(ValueError):
        c.step(np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("gamma", ["lti-demo", "unbounded"])
def test_a_non_finite_error_is_rejected(gamma):
    # on a bounded Gamma a NaN error reached the projection, which blamed the
    # set; on an unbounded one it left eta = NaN
    from dpic import build_setup, preset_config

    c = build_setup(preset_config("lti-demo")).controller if gamma == "lti-demo" else \
        DPIController(np.eye(1), Box([-np.inf], [np.inf]), I1, 10.0, 15.0, 0.5, eta0=[0.0])
    eta = c.eta.copy()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="error must be finite"):
            c.step([bad])
    assert np.array_equal(c.eta, eta)


# ---------------------------------------------------------------------------
# forward invariance

def test_forward_invariance_under_arbitrary_errors():
    constraint = Intersection([Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0)])
    K = np.array([[2.0, 0.5], [0.3, 1.5]])
    c = DPIController(K, constraint, I2, T_s=1.0, T_i=2.0, damping=0.6, u0=[10.0, 10.0])
    rng = np.random.default_rng(70)
    for _ in range(300):
        e = 50.0 * rng.standard_normal(2)
        u = c.step(e)
        assert constraint.contains(u)
        assert c.gamma.contains(c.eta)


def test_saturated_state_stays_on_feasible_side():
    c = DPIController(np.eye(1), Box([-1.0], [1.0]), I1,
                      T_s=1.0, T_i=1.0, damping=0.5, eta0=[0.0])
    for _ in range(200):
        c.step(np.array([-5.0]))  # persistent push toward the upper bound
    assert c.eta[0] == pytest.approx(1.0, abs=1e-12)
    # windup never occurs; a sign flip recovers immediately
    c.step(np.array([5.0]))
    assert c.eta[0] < 1.0


# ---------------------------------------------------------------------------
# reduction to the classical law

def test_reduction_when_constraints_inactive():
    K = np.array([[1.2, 0.0], [0.1, 0.8]])
    dpi = DPIController(K, FREE2, I2, T_s=1.0, T_i=4.0, damping=0.7, eta0=[0.1, -0.2])
    # classical controller with per-step gain damping * T_s / T_i
    classical = ClassicalIntegralController(K, T_s=1.0, T_i=4.0 / 0.7, eta0=[0.1, -0.2])
    rng = np.random.default_rng(71)
    for _ in range(100):
        e = rng.standard_normal(2)
        u_d = dpi.step(e)
        u_c = classical.step(e)
        assert np.allclose(u_d, u_c, atol=1e-12)
        assert np.allclose(dpi.eta, classical.eta, atol=1e-12)


# ---------------------------------------------------------------------------
# damping validation

def test_damping_bounds():
    for lam in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            make_dpi(damping=lam)


# ---------------------------------------------------------------------------
# initialization

def test_eta0_must_be_feasible():
    with pytest.raises(ValueError):
        DPIController(np.eye(1), Box([-1.0], [1.0]), I1,
                      T_s=1.0, T_i=1.0, damping=0.5, eta0=[2.0])


def test_u0_mapped_through_gain():
    K = np.array([[2.0, 0.0], [0.0, 4.0]])
    c = DPIController(K, Box([0.0, 0.0], [8.0, 8.0]), I2,
                      T_s=1.0, T_i=1.0, damping=0.5, u0=[4.0, 8.0])
    assert np.allclose(c.eta, [2.0, 2.0])


def test_infeasible_u0_is_projected():
    c = DPIController(np.eye(1), Box([-1.0], [1.0]), I1,
                      T_s=1.0, T_i=1.0, damping=0.5, u0=[3.0])
    assert c.eta[0] == pytest.approx(1.0)


def test_default_start_projects_origin():
    c = DPIController(np.eye(2), Box([1.0, 2.0], [5.0, 5.0]), I2,
                      T_s=1.0, T_i=1.0, damping=0.5)
    assert np.allclose(c.eta, [1.0, 2.0])


def test_eta0_and_u0_exclusive():
    with pytest.raises(ValueError):
        make_dpi(eta0=[0.0, 0.0], u0=[0.0, 0.0])


def test_gain_must_be_finite():
    with pytest.raises(ValueError):
        make_dpi(gain=[[np.inf, 0.0], [0.0, 1.0]])


def test_timing_validated():
    with pytest.raises(ValueError):
        make_dpi(T_s=0.0)
    with pytest.raises(ValueError):
        make_dpi(T_i=-1.0)


def test_alpha_property():
    assert make_dpi().alpha == pytest.approx(2.0 / 3.0)
    cc = ClassicalIntegralController(np.eye(2), T_s=1.0, T_i=4.0, eta0=[0.0, 0.0])
    assert cc.alpha == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# classical law

def test_classical_update():
    c = ClassicalIntegralController(np.eye(1), T_s=1.0, T_i=1.0, eta0=[0.0])
    u = c.step(np.array([1.0]))
    assert u[0] == pytest.approx(0.0)
    assert c.eta[0] == pytest.approx(-1.0)


def test_classical_zero_error_fixed():
    c = ClassicalIntegralController(np.eye(1), T_s=1.0, T_i=2.0, eta0=[0.4])
    c.step(np.zeros(1))
    assert c.eta[0] == pytest.approx(0.4)


def test_batched_update_equals_per_row_steps():
    from dpic.controller import _damped_projected_update

    box = Intersection([Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0)])
    K = np.array([[1.0, 0.5], [0.0, 2.0]])
    rows = [make_dpi(gain=K, constraint=box, T_i=T_i, damping=d, eta0=eta0)
            for T_i, d, eta0 in ((15.0, 0.95, [10.0, 5.0]), (2.0, 0.5, [30.0, 20.0]),
                                 (30.0, 0.1, [1.0, 1.0]))]
    E = np.array([[0.5, -0.2], [-20.0, -20.0], [3.0, 0.0]])  # row 1 leaves Gamma
    batched = _damped_projected_update(
        rows[0].gamma, I2, np.array([c.eta for c in rows]), E,
        np.array([[c.alpha] for c in rows]), np.array([[c.damping] for c in rows]))
    assert not rows[1].gamma.contains(rows[1].eta - rows[1].alpha * E[1])
    for c, e in zip(rows, E):
        c.step(e)
    assert np.array_equal(batched, [c.eta for c in rows])
