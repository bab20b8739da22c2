import json
import sys

import numpy as np
import pytest

from dpic import FourTankPlant, LTIPlant, NumericalError, davison_check, preset_config
from dpic.cli import EXIT_OK, main
from tank_oracle import oracle_levels, oracle_step


def scalar_plant(**kw):
    return LTIPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], T_s=1.0, **kw)


def random_stable_lti(rng, n=3, m=2, p=2, rho=0.85):
    A = rng.standard_normal((n, n))
    A *= rho / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    return LTIPlant(A=A, B=rng.standard_normal((n, m)),
                    C=rng.standard_normal((p, n)), D=rng.standard_normal((p, m)),
                    T_s=1.0)


# ---------------------------------------------------------------------------
# LTI construction and equilibrium maps

def test_scalar_dc_gain():
    plant = scalar_plant()
    assert plant.pi([2.0], None)[0] == pytest.approx(4.0)  # 1/(1-0.5) = 2 per unit
    assert plant.dc_gain()[0, 0] == pytest.approx(2.0)


def test_zero_input_zero_error():
    plant = LTIPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], B_w=[[0.2]], D_w=[[0.1]], T_s=1.0)
    assert plant.pi([0.0], [0.0])[0] == pytest.approx(0.0)


def test_pi_matches_iterated_step():
    rng = np.random.default_rng(60)
    for _ in range(5):
        plant = random_stable_lti(rng)
        u = rng.standard_normal(2)
        x = np.zeros(3)
        for _ in range(2000):
            x = plant.step(x, u, None)
        e_limit = plant.output(x, u, None)
        assert np.allclose(plant.pi(u, None), e_limit, atol=1e-8)


def test_schur_rejected():
    with pytest.raises(ValueError):
        LTIPlant(A=[[1.0]], B=[[1.0]], C=[[1.0]], T_s=1.0)
    with pytest.raises(ValueError):
        LTIPlant(A=[[0.5, 0.0], [0.0, -1.1]], B=[[1.0], [1.0]], C=[[1.0, 0.0]], T_s=1.0)


def test_nilpotent_accepted():
    # spectral radius 0, stable despite the large off-diagonal entry
    LTIPlant(A=[[0.0, 2.0], [0.0, 0.0]], B=[[1.0], [1.0]], C=[[1.0, 0.0]], T_s=1.0)


def test_disturbance_matrices_both_or_neither():
    with pytest.raises(ValueError):
        LTIPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], B_w=[[1.0]], T_s=1.0)


def test_pi_is_affine_in_u_and_w():
    rng = np.random.default_rng(61)
    plant = LTIPlant(A=[[0.4, 0.1], [0.0, 0.3]], B=[[1.0], [0.5]], C=[[1.0, 1.0]],
                     B_w=[[0.2], [0.0]], D_w=[[0.3]], T_s=1.0)
    w = rng.standard_normal(1)
    u1, u2 = rng.standard_normal(1), rng.standard_normal(1)
    a, b = 0.7, -1.2
    lhs = plant.pi(a * u1 + b * u2, w)
    rhs = a * plant.pi(u1, w) + b * plant.pi(u2, w) - (a + b - 1.0) * plant.pi(0.0 * u1, w)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_equilibrium_consistency_invariants():
    rng = np.random.default_rng(62)
    plant = random_stable_lti(rng)
    for _ in range(100):
        u = rng.standard_normal(2)
        xbar = plant.pi_x(u, None)
        assert np.allclose(plant.step(xbar, u, None), xbar, atol=1e-8)
        assert np.allclose(plant.pi(u, None),
                           plant.output(xbar, u, None), atol=1e-10)


# ---------------------------------------------------------------------------
# static loop-gain test

def test_davison_identity_loop():
    plant = scalar_plant()
    ok, P = davison_check(plant, [[0.5]])  # G(1) K = 2 * 0.5 = 1
    assert ok
    assert P[0, 0] == pytest.approx(0.5)  # M'P + PM = I gives P = I/2


def test_davison_negative_scalar():
    plant = scalar_plant()
    ok, P = davison_check(plant, [[-0.5]])
    assert not ok
    assert P is None


def test_davison_rejects_rank_deficient_loop_gain():
    # one state feeding two outputs: dc_gain @ K has rank <= 1, so a 2x2
    # loop gain carries a zero eigenvalue (exactly representable here) and
    # no certificate exists; the singular equation must not be "solved"
    plant = LTIPlant(A=[[0.5]], B=[[1.0, 0.0]], C=[[1.0], [0.0]], T_s=1.0)
    ok, P = davison_check(plant, np.eye(2))
    assert not ok
    assert P is None


def test_davison_rejects_a_structurally_singular_loop_gain():
    # one state feeding three errors: rank M <= 1, so two eigenvalues of the
    # 3x3 loop gain are zero in exact arithmetic.  Rounding puts them right
    # of the axis on some draws, where Re lambda > 0 alone would pass M; the
    # gate's margin STATIC_GAIN_TOL |M|_2 rejects every draw
    raw_passes = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        plant = LTIPlant(A=[[0.5]], B=rng.normal(size=(1, 3)), C=rng.normal(size=(3, 1)),
                         T_s=1.0)
        K = rng.normal(size=(3, 3))
        M = plant.dc_gain() @ K
        raw_passes += bool(np.all(np.linalg.eigvals(M).real > 0.0))
        assert davison_check(plant, K) == (False, None)
    assert raw_passes >= 1


def test_davison_agrees_with_eigen_test():
    rng = np.random.default_rng(63)
    hits = {True: 0, False: 0}
    for _ in range(50):
        plant = random_stable_lti(rng)
        K = rng.standard_normal((2, 2))
        ok, P = davison_check(plant, K)
        M = plant.dc_gain() @ K
        expected = bool(np.all(np.real(np.linalg.eigvals(M)) > 0.0))
        assert ok == expected
        hits[expected] += 1
        if ok:
            assert np.allclose(M.T @ P + P @ M, np.eye(2), atol=1e-8)
            assert np.all(np.linalg.eigvalsh(P) > 0.0)
    assert hits[True] > 5 and hits[False] > 5  # both branches exercised


# ---------------------------------------------------------------------------
# quadruple tank

def test_nominal_point_is_fixed():
    tank = FourTankPlant()
    h1 = tank.step(tank.h_nominal, tank.u_nominal, None)
    assert np.max(np.abs(h1 - tank.h_nominal)) <= 1e-6


def test_drainage_strictly_decreases_levels():
    tank = FourTankPlant()
    h0 = np.array([8.0, 7.0, 3.0, 4.0])
    h1 = tank.step(h0, np.zeros(2), None)
    assert np.all(h1 < h0)


def test_substep_halving_self_consistency():
    coarse = FourTankPlant(substeps=10)
    fine = FourTankPlant(substeps=20)
    finest = FourTankPlant(substeps=40)
    h0 = coarse.h_nominal
    # at the nominal equilibrium the integrators agree exactly
    u_star = coarse.u_nominal
    assert np.max(np.abs(coarse.step(h0, u_star, None)
                         - fine.step(h0, u_star, None))) < 1e-8
    # off-equilibrium: fourth-order convergence, halving shrinks the gap ~16x
    u = np.array([40.0, 25.0])
    gap1 = np.max(np.abs(coarse.step(h0, u, None) - fine.step(h0, u, None)))
    gap2 = np.max(np.abs(fine.step(h0, u, None) - finest.step(h0, u, None)))
    assert gap1 < 1e-6
    assert gap2 < gap1 / 8.0


def test_steady_error_at_nominal():
    tank = FourTankPlant()
    e = tank.pi(tank.u_nominal, np.array([10.0, 10.0]))
    assert np.allclose(e, [0.0, 0.0], atol=1e-9)


def test_steady_levels_zero_input():
    tank = FourTankPlant()
    assert np.allclose(tank.pi(np.zeros(2), np.zeros(2)), [0.0, 0.0], atol=1e-12)
    assert np.allclose(tank.pi_x(np.zeros(2)), np.zeros(4), atol=1e-12)


def test_equilibrium_levels_at_nominal():
    tank = FourTankPlant()
    hbar = tank.pi_x(tank.u_nominal)
    assert np.allclose(hbar, [10.0, 10.0, 5.38, 5.38], atol=1e-2)
    assert np.allclose(hbar, tank.h_nominal, atol=1e-9)  # calibration is exact


def test_pi_agrees_with_long_run_simulation():
    tank = FourTankPlant()
    rng = np.random.default_rng(64)
    for _ in range(10):
        u = rng.uniform(20.0, 44.0, size=2)
        h = tank.h_nominal.copy()
        for _ in range(600):
            h = tank.step(h, u, None)
        w = np.zeros(2)
        assert np.allclose(tank.pi(u, w), tank.output(h, u, w), atol=1e-4)


def test_equilibrium_fixed_point_random_inputs():
    # pump commands below ~2 cm^3/s leave sub-0.02 cm levels whose drain time
    # constant falls under the 1 s substep; stay inside the wetted regime
    tank = FourTankPlant()
    rng = np.random.default_rng(65)
    for _ in range(100):
        u = rng.uniform(2.0, 45.0, size=2)
        hbar = tank.pi_x(u)
        assert np.max(np.abs(tank.step(hbar, u, None) - hbar)) <= 1e-6
        assert np.allclose(tank.pi(u, np.zeros(2)),
                           tank.output(hbar, u, np.zeros(2)), atol=1e-10)


def test_settling_is_geometric_after_burn_in():
    tank = FourTankPlant()
    u = np.array([36.0, 30.0])
    target = tank.pi_x(u)
    h = tank.h_nominal.copy()
    gaps = []
    for _ in range(200):
        h = tank.step(h, u, None)
        gaps.append(np.linalg.norm(h - target))
    gaps = np.array(gaps)
    tail = gaps[10:]
    tail = tail[tail > 1e-12]
    assert np.all(np.diff(tail) < 0.0)  # monotone decay after burn-in
    rate = np.exp(np.polyfit(np.arange(tail.size), np.log(tail), 1)[0])
    assert rate < 1.0


def central_jacobian(pi, u, step):
    """d pi / d u at u by central differences, column by column."""
    cols = []
    for j in range(u.size):
        du = np.zeros(u.size)
        du[j] = step
        cols.append((pi(u + du) - pi(u - du)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def test_pi_jacobian_matches_central_differences():
    # pi is affine (LTI) or quadratic (tank) in u, so central differences
    # are exact up to rounding
    rng = np.random.default_rng(61)
    tank = FourTankPlant()
    w = np.array([12.0, 9.0])
    for _ in range(20):
        u = rng.uniform(5.0, 45.0, 2)
        want = central_jacobian(lambda v: tank.pi(v, w), u, 1e-2)
        assert np.allclose(tank.pi_jacobian(u), want, rtol=1e-8, atol=0.0)
        plant = random_stable_lti(rng)
        u = rng.standard_normal(2)
        want = central_jacobian(lambda v: plant.pi(v, None), u, 1e-2)
        assert np.allclose(plant.pi_jacobian(u), want, rtol=1e-8, atol=1e-12)


def test_pi_jacobian_takes_batches():
    rng = np.random.default_rng(62)
    U = rng.uniform(5.0, 45.0, (6, 2))
    for plant in (FourTankPlant(), random_stable_lti(rng)):
        batch = plant.pi_jacobian(U)
        assert batch.shape == (6, 2, 2)
        for row, u in zip(batch, U):
            assert np.array_equal(row, plant.pi_jacobian(u))


def test_pi_jacobian_keeps_the_domain_of_pi_x():
    with pytest.raises(ValueError, match="finite nonnegative pump flows"):
        FourTankPlant().pi_jacobian(np.array([[10.0, 10.0], [-5.0, 10.0]]))


def test_negative_flow_rejected():
    tank = FourTankPlant()
    with pytest.raises(ValueError):
        tank.pi_x(np.array([-5.0, 10.0]))


@pytest.mark.parametrize("u", [[np.nan, 1.0], [1.0, np.inf], [np.inf, np.inf],
                               [[10.0, 10.0], [np.nan, 10.0]]])
def test_non_finite_flow_rejected(u):
    with pytest.raises(ValueError, match="finite nonnegative pump flows"):
        FourTankPlant().pi_x(np.array(u))


def test_non_finite_state_raises():
    tank = FourTankPlant()
    with pytest.raises(NumericalError):
        tank.step(np.array([np.inf, 10.0, 5.0, 5.0]), tank.u_nominal, None)
    with pytest.raises(NumericalError):
        tank.step(tank.h_nominal, np.array([np.nan, 0.0]), None)


def test_degenerate_split_ratios_rejected():
    with pytest.raises(ValueError):
        FourTankPlant(split_ratios=(0.6, 0.4))  # gamma1 + gamma2 = 1


@pytest.mark.parametrize("plant, kwargs", [
    (FourTankPlant, {"T_s": np.nan}),
    (FourTankPlant, {"T_s": np.inf}),
    (FourTankPlant, {"g": np.nan}),
    (FourTankPlant, {"substeps": 2.5}),
    (FourTankPlant, {"tank_areas": (28.0, np.nan, 28.0, 28.0)}),
    (FourTankPlant, {"split_ratios": (0.7, np.nan)}),
    (FourTankPlant, {"nominal_levels": (10.0, 10.0, np.nan, 5.38)}),
    (FourTankPlant, {"outlet_areas": (0.07, 0.07, np.nan, 0.07)}),
    # 2 g h overflows: the calibrated outlet areas are 0, not positive
    (FourTankPlant, {"nominal_levels": (1e308,) * 4}),
    (LTIPlant, {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "T_s": np.nan}),
    (LTIPlant, {"A": [[np.nan]], "B": [[1.0]], "C": [[1.0]]}),
    (LTIPlant, {"A": [[0.5]], "B": [[np.nan]], "C": [[1.0]]}),
    (LTIPlant, {"A": [[0.5]], "B": [[1.0]], "C": [[np.inf]]}),
    (LTIPlant, {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[-np.inf]]}),
    (LTIPlant, {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "B_w": [[np.nan]], "D_w": [[0.0]]}),
    (LTIPlant, {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "B_w": [[0.0]], "D_w": [[np.inf]]}),
])
def test_nonfinite_or_fractional_parameters_rejected(plant, kwargs):
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        plant(**kwargs)


def test_flow_gain_matches_calibration():
    tank = FourTankPlant()
    # equilibrium: sqrt(2 g h_i) = (flow_gain @ u)_i for the lower tanks
    speeds = tank.flow_gain @ tank.u_nominal
    assert speeds[0] == pytest.approx(np.sqrt(2.0 * tank.g * 10.0), rel=1e-9)
    assert speeds[1] == pytest.approx(np.sqrt(2.0 * tank.g * 10.0), rel=1e-9)


def test_level_clamp_keeps_levels_nonnegative():
    tank = FourTankPlant()
    h = np.array([0.05, 0.02, 0.0, 0.0])
    for _ in range(5):
        h = tank.step(h, np.zeros(2), None)
        assert np.all(h >= 0.0)
    assert np.allclose(h, np.zeros(4), atol=1e-3)


# ---------------------------------------------------------------------------
# batch axis: every row equals the unbatched call bit for bit

def _assert_rows_match(batched, per_row):
    per_row = np.array(per_row)
    assert batched.shape == per_row.shape
    assert batched.tobytes() == per_row.tobytes()  # the signs of zeros too


def test_lti_batched_calls_match_per_row_calls():
    rng = np.random.default_rng(61)
    plant = LTIPlant(A=[[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]],
                     B=rng.standard_normal((3, 2)), C=rng.standard_normal((2, 3)),
                     D=rng.standard_normal((2, 2)), B_w=rng.standard_normal((3, 2)),
                     D_w=rng.standard_normal((2, 2)), T_s=1.0)
    X, U, W = (rng.standard_normal((5, 3)), rng.standard_normal((5, 2)),
               rng.standard_normal((5, 2)))
    w = W[0]  # a disturbance without the batch axis applies to every row
    _assert_rows_match(plant.step(X, U, w), [plant.step(x, u, w) for x, u in zip(X, U)])
    _assert_rows_match(plant.output(X, U, W),
                       [plant.output(x, u, v) for x, u, v in zip(X, U, W)])
    _assert_rows_match(plant.pi_x(U, W), [plant.pi_x(u, v) for u, v in zip(U, W)])
    bare = random_stable_lti(rng)  # no disturbance channel
    _assert_rows_match(bare.step(X, U, None), [bare.step(x, u, None) for x, u in zip(X, U)])


def _drained_tank_rows():
    # tanks at 0 and just above, and a zero pump row: the RK4 stages
    # undershoot zero and the levels end clamped at 0
    H = np.array([[0.0, 0.0, 0.0, 0.0],
                  [1e-6, 0.0, 2e-6, 0.0],
                  [0.0, 1e-9, 0.0, 3e-7],
                  [1e-3, 1e-3, 0.0, 0.0],
                  [0.0, 0.0, 5.0, 5.0],
                  [2.0, 1e-12, 0.0, 1e-4]])
    U = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1e-3, 0.0], [0.0, 0.0], [0.0, 2.0]])
    return H, U


def _mixed_tank_rows(rng, rows: int):
    """Levels from 1e-12 to 1e3 with exact 0.0, -0.0, subnormal and 1e-12
    levels mixed in, and pump flows of which about a fifth are zero."""
    H = 10.0 ** rng.uniform(-12.0, 3.0, size=(rows, 4))
    special = rng.random((rows, 4)) < 0.3
    H[special] = rng.choice([0.0, -0.0, 5e-324, 2.5e-310, 1e-12], size=special.sum())
    U = rng.uniform(0.0, 60.0, size=(rows, 2))
    U[rng.random((rows, 2)) < 0.2] = 0.0
    return H, U


def test_tank_batched_calls_match_per_row_calls():
    rng = np.random.default_rng(62)
    plant = FourTankPlant()
    perturbed = (plant.h_nominal + rng.uniform(-2.0, 4.0, size=(6, 4)),
                 rng.uniform(5.0, 45.0, size=(6, 2)))
    w = np.array([12.0, 9.0])
    big = tuple(np.concatenate([a, b, a[:3]]) for a, b in zip(perturbed, _drained_tank_rows()))
    mixed = _mixed_tank_rows(rng, 2000)
    assert np.signbit(mixed[0][mixed[0] == 0.0]).any()
    for H, U in (perturbed, _drained_tank_rows(), big, mixed):
        # the Python-float RK4 rounds as the matmul RK4 of tank_oracle does
        _assert_rows_match(plant.step(H, U, w), oracle_step(plant, H, U))
        _assert_rows_match(plant.step(H, U, w), [plant.step(h, u, w) for h, u in zip(H, U)])
        _assert_rows_match(plant.output(H, U, w), [plant.output(h, u, w) for h, u in zip(H, U)])
        _assert_rows_match(plant.pi_x(U, w), [plant.pi_x(u, w) for u in U])
        _assert_rows_match(plant.step(H[0], U[:3], w), [plant.step(H[0], u, w) for u in U[:3]])
        _assert_rows_match(plant.step(H[0], U[:3], w), oracle_step(plant, H[0], U[:3]))
    # the output takes the broadcast batch shape of x and u
    H, U = perturbed
    assert plant.step(H[0], U[0], w).shape == (4,)
    assert plant.step(H[:1], U[0], w).shape == (1, 4)
    assert plant.step(H[0], U[:1], w).shape == (1, 4)
    assert plant.step(H[0], U[:3], w).shape == (3, 4)
    # a leading batch axis of any depth
    assert plant.step(H.reshape(2, 3, 4), U.reshape(2, 3, 2), w).shape == (2, 3, 4)


def test_the_calibrated_outlet_areas_given_back_build_the_same_tank(tmp_path):
    # plant.outlet_areas in a config builds the tank from its areas: the
    # calibrated ones give step and pi_x bit for bit, no nominal point, and
    # the four-tank preset's trajectory byte for byte
    calibrated = FourTankPlant()
    tank = FourTankPlant(outlet_areas=calibrated.outlet_areas)
    assert tank.h_nominal is None and tank.u_nominal is None
    H, U = _mixed_tank_rows(np.random.default_rng(63), 200)
    w = np.array([12.0, 9.0])
    _assert_rows_match(tank.step(H, U, w), calibrated.step(H, U, w))
    _assert_rows_match(tank.pi_x(U, w), calibrated.pi_x(U, w))
    cfg = preset_config("four-tank")
    cfg["plant"]["outlet_areas"] = calibrated.outlet_areas.tolist()
    config = tmp_path / "areas.json"
    config.write_text(json.dumps(cfg))
    for name, source in (("preset", ["--preset", "four-tank"]),
                         ("areas", ["--config", str(config)])):
        assert main(["simulate", *source, "--out", str(tmp_path / name)]) == EXIT_OK
    trajectory = "trajectory.csv"
    assert (tmp_path / "areas" / trajectory).read_bytes() == \
        (tmp_path / "preset" / trajectory).read_bytes()


def test_tank_batched_step_rejects_any_nonfinite_row():
    plant = FourTankPlant()
    # a NaN level fails up front.  At 1e306, 2 g h overflows and an outlet
    # velocity is infinite: the oracle's zero coefficients turn it into
    # NaN, while step leaves them out, and with one such tank would end
    # with that tank clamped to a finite 0
    for rows in (3, 15):
        U = np.tile(plant.u_nominal, (rows, 1))
        for bad in ([10.0, 10.0, np.nan, 5.38], [1e306] * 4, [1e306, 10.0, 5.0, 5.0]):
            H = np.tile(plant.h_nominal, (rows, 1))
            H[1] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError):
                    plant.step(H, U, None)
                with pytest.raises(NumericalError):
                    oracle_step(plant, H, U)
                with pytest.raises(NumericalError):
                    plant.step(H[1], U[1], None)


def _extreme_tank_rows(rng, plant, rows: int):
    """Levels near the point where 2 g h overflows and up to 1e308, normal
    ones, -0.0, 5e-324 and negative ones; pump flows of either sign up to
    1.6e308, a fifth of them 0."""
    edge = sys.float_info.max / (2.0 * plant.g)
    kind = rng.integers(0, 5, size=(rows, 4))
    H = np.select([kind == 0, kind == 1, kind == 2, kind == 3], [
        edge * (1.0 + rng.uniform(-1e-3, 1e-3, (rows, 4))),
        10.0 ** rng.uniform(300.0, 308.0, (rows, 4)),
        10.0 ** rng.uniform(-3.0, 3.0, (rows, 4)),
        rng.choice([-0.0, 5e-324, -1.0, -1e300], size=(rows, 4)),
    ], -(10.0 ** rng.uniform(-3.0, 300.0, (rows, 4))))
    U = rng.choice([-1.0, 1.0], (rows, 2)) * 10.0 ** rng.uniform(-2.0, np.log10(1.6e308), (rows, 2))
    U[rng.random((rows, 2)) < 0.2] = 0.0
    return H, U


@pytest.mark.parametrize("kwargs, rows", [
    ({}, 4000),
    ({"tank_areas": (1.0,) * 4}, 3000),
    ({"tank_areas": (1e-3,) * 4}, 3000),
    ({"T_s": 1e6, "substeps": 1}, 3000),
])
def test_tank_step_raises_exactly_where_the_oracle_does(kwargs, rows):
    # step tests for an infinite outlet velocity only when a level would
    # clamp from -inf; the oracle's zero coefficients turn one into NaN.
    # Overflowing levels, inflows and stage sums must not tell them apart
    plant = FourTankPlant(**kwargs)
    H, U = _extreme_tank_rows(np.random.default_rng(2103), plant, rows)
    with np.errstate(all="ignore"):
        expected = oracle_levels(plant, H, U)
    oracle_raises = ~np.isfinite(expected).all(axis=-1)
    assert 0 < oracle_raises.sum() < rows
    for h, u, raises, levels in zip(H, U, oracle_raises, expected):
        if raises:
            with pytest.raises(NumericalError):
                plant.step(h, u, None)
        else:
            assert plant.step(h, u, None).tobytes() == levels.tobytes()
