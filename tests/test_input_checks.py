"""Each constructor and entry point rejects a malformed input with its own error."""

import numpy as np
import pytest

from dpic import (
    Ball,
    Box,
    ClassicalIntegralController,
    DPIController,
    Halfspace,
    Intersection,
    LinearPreimage,
    LTIPlant,
    Metric,
    NumericalError,
    Polyhedron,
    Scenario,
    VIProblem,
    davison_check,
    estimate_mu_L,
    exact_mu_L,
    sample_points,
)


def lag():
    return LTIPlant([[0.5]], [[1.0]], [[1.0]])


def scenario(schedule, x0):
    controller = DPIController([[1.0]], Box([-1.0], [1.0]), Metric.identity(1),
                               T_s=1.0, T_i=10.0, damping=0.5)
    return Scenario(lag(), controller, schedule, horizon=10, x0=x0)


def overflowing_step():
    with np.errstate(over="ignore"):
        LTIPlant([[0.5]], [[1e308]], [[1.0]]).step([0.0], [1e308])


CASES = {
    "controller-metric-dim": (
        lambda: DPIController(np.eye(2), Box([-1.0, -1.0], [1.0, 1.0]), Metric.identity(3),
                              T_s=1.0, T_i=10.0, damping=0.5),
        ValueError, "metric dimension does not match the integrator state"),
    "classical-gain-not-finite": (
        lambda: ClassicalIntegralController([[np.nan]], 1.0, 10.0, [0.0]),
        ValueError, "gain must be a finite matrix"),
    "controller-u0-dim": (
        lambda: DPIController(np.eye(2), Box([-1.0, -1.0], [1.0, 1.0]), Metric.identity(2),
                              T_s=1.0, T_i=10.0, damping=0.5, u0=[0.0, 0.0, 0.0]),
        ValueError, r"expected vector of dimension 2, got shape \(3,\)"),
    "classical-error-dim": (
        lambda: ClassicalIntegralController([[1.0]], 1.0, 1.0, [0.0]).step([1.0, 2.0]),
        ValueError, r"error must be finite, of shape \(1,\)"),
    "classical-error-not-finite": (
        lambda: ClassicalIntegralController([[1.0]], 1.0, 1.0, [0.0]).step([np.nan]),
        ValueError, r"error must be finite, of shape \(1,\)"),
    "classical-eta0-dim": (
        lambda: ClassicalIntegralController(np.eye(2), 1.0, 10.0, [0.0]),
        ValueError, "eta0 does not match the gain input dimension"),
    "metric-not-square": (lambda: Metric(np.ones((2, 3))), ValueError, "must be square"),
    "metric-not-finite": (lambda: Metric([[np.inf]]), ValueError, "must be finite"),
    "lti-A-not-square": (
        lambda: LTIPlant(np.full((2, 3), 0.1), np.ones((2, 1)), np.ones((1, 3))),
        ValueError, "A must be square"),
    "lti-B-rows": (
        lambda: LTIPlant(0.5 * np.eye(2), [[1.0]], np.eye(2)),
        ValueError, "B or C does not match the state dimension"),
    "lti-D-shape": (
        lambda: LTIPlant([[0.5]], [[1.0]], [[1.0]], D=[[0.0, 0.0]]),
        ValueError, r"D must have shape \(p, m\)"),
    "lti-Bw-shape": (
        lambda: LTIPlant([[0.5]], [[1.0]], [[1.0]], B_w=[[1.0, 0.0]], D_w=[[0.0]]),
        ValueError, "B_w or D_w shape mismatch"),
    "lti-step-overflow": (overflowing_step, NumericalError, "LTI state update is not finite"),
    "davison-not-square": (
        lambda: davison_check(LTIPlant([[0.5]], [[1.0, 1.0]], [[1.0]]), np.eye(2)),
        ValueError, "dc_gain @ K must be square"),
    "box-shapes": (lambda: Box([0.0, 0.0], [1.0]), ValueError, "equal length"),
    "halfspace-zero-normal": (
        lambda: Halfspace([0.0, 0.0], 1.0), ValueError, "finite nonzero vector"),
    "ball-center-not-finite": (
        lambda: Ball([np.nan], 1.0), ValueError, "ball center must be a finite vector"),
    "polyhedron-shapes": (
        lambda: Polyhedron([[1.0, 0.0]], [1.0, 2.0]), ValueError, "mismatched shapes"),
    "polyhedron-not-finite": (
        lambda: Polyhedron([[np.inf, 0.0]], [1.0]), ValueError, "data must be finite"),
    "polyhedron-zero-row": (
        lambda: Polyhedron([[0.0, 0.0]], [1.0]), ValueError, "polyhedron has a zero row"),
    "intersection-dims": (
        lambda: Intersection([Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])]),
        ValueError, "mismatched dimensions"),
    "preimage-dim": (
        lambda: LinearPreimage(np.eye(2), Box([0.0], [1.0])),
        ValueError, "does not match the dimension of the set"),
    "sample-count": (
        lambda: sample_points(Box([0.0], [1.0]), 0), ValueError, "count must be positive"),
    "scenario-empty-schedule": (
        lambda: scenario([], [0.0]), ValueError, "schedule must not be empty"),
    "scenario-x0-dim": (
        lambda: scenario([(0, np.zeros(0))], [0.0, 0.0]),
        ValueError, "x0 does not match the plant state dimension"),
    "vi-dims": (
        lambda: VIProblem(lambda eta: eta, Box([0.0], [1.0]), Metric.identity(2)),
        ValueError, "dimensions differ"),
    "mu-L-box-dim": (
        lambda: exact_mu_L(lambda eta: np.broadcast_to(np.eye(2), (len(eta), 2, 2)),
                           Metric.identity(2), Box([0.0], [1.0])),
        ValueError, "box has dimension 1, the metric 2"),
    "mu-L-no-pairs": (
        lambda: estimate_mu_L(lambda eta: eta, Box([0.0], [1e-14]), Metric.identity(1),
                              samples=4),
        ValueError, "no usable sample pairs"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_a_malformed_input_raises_its_own_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
