"""End-to-end acceptance checks.

One test per advertised guarantee; each prints a single [PASS]/[FAIL] line
with the measured numbers (run with `pytest tests/test_acceptance.py -s` to
see the tally even when everything passes).
"""

import time

import numpy as np
import pytest

from dpic import (
    Box,
    ClassicalIntegralController,
    DPIController,
    Intersection,
    LTIPlant,
    Metric,
    Polyhedron,
    Scenario,
    VIProblem,
    build_setup,
    change_of_coordinates,
    classify_convergence,
    contraction_constants,
    davison_check,
    estimate_mu_L,
    fb_damped_map,
    fb_map,
    gain_sweep,
    preset_config,
    simulate,
)
from dpic.cli import _exact_certificates
from dpic.metric import _apply
from dpic.plants import STATIC_GAIN_TOL
from dpic.vi import low_gain_threshold
from grid_oracle import grid_project, polygon_rows, polygon_vertices, random_spd


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def tank_run():
    """Full four-tank preset simulation, timed."""
    setup = build_setup(preset_config("four-tank"))
    t0 = time.perf_counter()
    record = simulate(setup.scenario)
    elapsed = time.perf_counter() - t0
    return setup, record, elapsed


@pytest.fixture(scope="module")
def tank_sweep():
    """Four-tank gain sweep, timed, with the threshold T_i* of the exact (mu, L)
    of the certify box and that of the pair sampled in that box as the CLI once did."""
    setup = build_setup(preset_config("four-tank"))
    spec = setup.sweep
    ctrl = setup.controller
    mu, L = _exact_certificates(setup)
    w0 = setup.scenario.schedule[0][1]
    region = Intersection([ctrl.gamma, setup.certify_box])
    mu_hat, L_hat = estimate_mu_L(lambda eta: setup.plant.pi(_apply(ctrl.gain, eta), w0),
                                  region, ctrl.metric, samples=2000, seed=setup.seed)
    t0 = time.perf_counter()
    report = gain_sweep(spec["scenario"], spec["T_i"], spec["lambda"])
    elapsed = time.perf_counter() - t0
    return (report, elapsed, low_gain_threshold(setup.plant.T_s, mu, L),
            low_gain_threshold(setup.plant.T_s, mu_hat, L_hat))


# ---------------------------------------------------------------------------
# 1. the calibrated tank model holds its published operating point

def test_equilibrium_fidelity():
    setup = build_setup(preset_config("four-tank"))
    plant = setup.plant
    h_star = np.array([10.0, 10.0, 5.38, 5.38])
    u_star = np.array([32.64, 32.64])
    ok = (np.allclose(plant.h_nominal, h_star, atol=1e-12)
          and np.allclose(plant.u_nominal, u_star, atol=1e-12))
    residual = float(np.max(np.abs(plant.step(h_star, u_star, h_star[:2]) - h_star)))
    ok = ok and residual <= 1e-4
    _report("tank equilibrium fidelity", ok,
            f"one-step drift {residual:.3e} cm (bound 1e-4)")


# ---------------------------------------------------------------------------
# 2. saturated tracking scenario: feasible targets reached, infeasible ones
#    resolved to constrained stationary points, inputs admissible throughout

def test_saturated_tracking_scenario(tank_run):
    setup, record, elapsed = tank_run
    segs = record.segments
    assert len(segs) == 5
    min_margin = float(np.min(record.constraint_margin))
    feas_err = max(segs[1].tracking_error, segs[2].tracking_error)
    inf_vi = max(segs[3].vi_residual, segs[4].vi_residual)
    inf_nc = max(segs[3].normal_cone_residual, segs[4].normal_cone_residual)
    ok = (min_margin >= -1e-12          # u_k admissible at every step
          and feas_err <= 1e-3          # feasible set points tracked exactly
          and inf_vi <= 1e-6            # infeasible ones settle at the VI point
          and inf_nc <= 1e-6
          and elapsed < 5.0)
    _report("saturated tank tracking", ok,
            f"feasible err {feas_err:.3e} (1e-3), vi {inf_vi:.3e} (1e-6), "
            f"normal cone {inf_nc:.3e} (1e-6), min margin {min_margin:.1e}, "
            f"{elapsed:.2f} s (5 s)")


# ---------------------------------------------------------------------------
# 3. forward-backward contraction factors on random affine monotone operators

def test_forward_backward_contraction_bounds():
    rng = np.random.default_rng(0)
    pairs = 1000
    worst_fb = -np.inf
    worst_dfb = -np.inf
    t0 = time.perf_counter()
    for case in range(50):
        dim = int(rng.integers(1, 7))
        # S + skew has symmetric part S, so mu and L are known exactly
        R = rng.normal(size=(dim, dim))
        S = R @ R.T + 0.2 * np.eye(dim)
        Z = rng.normal(size=(dim, dim))
        M = S + (Z - Z.T) / 2.0
        q = rng.normal(size=dim)
        mu = float(np.linalg.eigvalsh(S).min())
        L = float(np.linalg.norm(M, 2))
        damping = float(rng.uniform(0.05, 0.95))
        alpha = mu / L ** 2
        c_fb, c_dfb = contraction_constants(alpha, damping, mu, L)

        X = rng.uniform(-2.0, 2.0, size=(pairs, dim))
        Y = rng.uniform(-2.0, 2.0, size=(pairs, dim))
        PhiX = np.clip(X - alpha * (X @ M.T + q), -2.0, 2.0)
        PhiY = np.clip(Y - alpha * (Y @ M.T + q), -2.0, 2.0)
        dist = np.linalg.norm(X - Y, axis=1)
        keep = dist > 1e-9
        ratio = np.linalg.norm(PhiX - PhiY, axis=1)[keep] / dist[keep]
        worst_fb = max(worst_fb, float(np.max(ratio - c_fb)))
        dr = np.linalg.norm((1.0 - damping) * (X - Y)
                            + damping * (PhiX - PhiY), axis=1)[keep] / dist[keep]
        worst_dfb = max(worst_dfb, float(np.max(dr - c_dfb)))

        # the vectorized evaluation must agree with the library map
        problem = VIProblem(lambda eta, M=M, q=q: M @ eta + q,
                            Box(-2.0 * np.ones(dim), 2.0 * np.ones(dim)),
                            Metric.identity(dim))
        for i in rng.integers(0, pairs, size=5):
            assert np.allclose(fb_map(problem, alpha, X[i]), PhiX[i], atol=1e-12)
            assert np.allclose(fb_damped_map(problem, alpha, damping, X[i]),
                               (1.0 - damping) * X[i] + damping * PhiX[i],
                               atol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = worst_fb <= 1e-9 and worst_dfb <= 1e-9 and elapsed < 10.0
    _report("forward-backward contraction", ok,
            f"worst excess over c_fb {worst_fb:.2e}, over damped bound "
            f"{worst_dfb:.2e} (slack 1e-9), {elapsed:.2f} s (10 s)")


# ---------------------------------------------------------------------------
# 4. with constraints inactive the controller is a classical integrator

def test_reduction_to_classical_integrator():
    plant = LTIPlant(A=[[0.5]], B=[[0.5]], C=[[1.0]], B_w=[[0.0]],
                     D_w=[[-1.0]], T_s=1.0)
    wide = Box([-1e6], [1e6])
    damping = 0.7
    dpi = DPIController([[1.0]], wide, Metric.identity(1), T_s=1.0, T_i=2.0,
                        damping=damping, eta0=[0.0])
    classical = ClassicalIntegralController([[1.0]], T_s=1.0,
                                            T_i=2.0 / damping, eta0=[0.0])
    w = np.array([0.5])
    rec_d = simulate(Scenario(plant=plant, controller=dpi, schedule=[(0, w)],
                              horizon=500, x0=np.array([0.0])))
    # the classical loop in the closed loop's order: error, integrator, plant
    x = np.array([0.0])
    eta_c = np.empty_like(rec_d.eta)
    for k in range(500):
        eta_c[k] = classical.eta
        u = classical.gain @ classical.eta
        e = plant.output(x, u, w)
        classical.step(e)
        x = plant.step(x, u, w)
    gap = float(np.max(np.abs(rec_d.eta - eta_c)))
    _report("reduction to classical integral control", gap <= 1e-12,
            f"max state gap {gap:.2e} over 500 steps (bound 1e-12)")


# ---------------------------------------------------------------------------
# 5. the quadratic static-gain certificate agrees with the eigenvalue test
#    and transfers to an empirical monotonicity bound

def test_static_gain_certificate_consistency():
    rng = np.random.default_rng(0)
    mismatches = 0
    n_ok = n_fail = 0
    worst_slack = np.inf
    for case in range(100):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n)) * 0.4
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho >= 0.95:
            A *= 0.8 / rho
        plant = LTIPlant(A=A, B=rng.normal(size=(n, p)),
                         C=rng.normal(size=(p, n)), T_s=1.0)
        K = rng.normal(size=(p, p))
        ok, P = davison_check(plant, K)
        M = plant.dc_gain() @ K
        # the eigenvalue test with the gate's margin: a singular M (p > n)
        # whose zero eigenvalues rounding puts right of the axis fails it
        eig_ok = bool(np.linalg.eigvals(M).real.min() > STATIC_GAIN_TOL * np.linalg.norm(M, 2))
        if ok != eig_ok:
            mismatches += 1
            continue
        if not ok:
            n_fail += 1
            continue
        n_ok += 1
        metric = Metric(P)
        mu_true = 1.0 / (2.0 * float(np.linalg.eigvalsh(P).max()))
        mu_hat, _ = estimate_mu_L(lambda eta: plant.pi(_apply(K, eta), None),
                                  Box(-np.ones(p), np.ones(p)), metric,
                                  samples=150, seed=case)
        # mu_hat >= mu_true > 0 in exact arithmetic; marginally stable
        # draws push mu_true toward rounding, hence the sampling slack
        worst_slack = min(worst_slack, mu_hat - mu_true)
        assert mu_hat > -1e-3
    ok = mismatches == 0 and n_ok >= 10 and n_fail >= 10 and worst_slack >= -1e-3
    _report("static loop gain certificates", ok,
            f"{mismatches} disagreements in 100 ({n_ok} certified, {n_fail} "
            f"rejected); worst mu_hat slack {worst_slack:.2e} (allowed -1e-3)")


# ---------------------------------------------------------------------------
# 6. low-gain threshold: slow-enough certified settings always converge

def test_low_gain_threshold_sweep(tank_sweep):
    report, elapsed, T_i_star, sampled_star = tank_sweep

    def certified(T_i_star):
        return [p for p in report.points
                if p.T_i >= 1.5 * T_i_star - 1e-12 and p.damping <= 0.5 + 1e-12]

    # the sound threshold lies above the optimistic sampled one, and its
    # 1.5 T_i* cut keeps the same grid points
    points = certified(T_i_star)
    bad = [p for p in points if not (p.converged and p.decay_rate < 1.0)]
    worst_rate = max((p.decay_rate for p in points), default=np.nan)
    ok = (T_i_star == pytest.approx(1.74439, abs=5e-6)
          and sampled_star < T_i_star
          and points == certified(sampled_star)
          and len(points) == 8 and not bad and elapsed < 60.0)
    _report("low-gain convergence threshold", ok,
            f"T_i_star {T_i_star:.4g} s (sampled {sampled_star:.4g} s); "
            f"{len(points)} certified points, {len(bad)} failures, worst rate "
            f"{worst_rate:.4f}, {elapsed:.1f} s (60 s)")


# ---------------------------------------------------------------------------
# 7. exact polygon projections match a brute-force grid minimizer

def test_polygon_projection_oracle():
    rng = np.random.default_rng(0)
    A, b = polygon_rows()
    poly = Polyhedron(A, b)
    vertices = [np.asarray(v, dtype=float) for v in polygon_vertices()]
    worst_gap = 0.0
    worst_var = -np.inf
    for P in (np.eye(2), random_spd(rng, 2)):
        metric = Metric(P)
        for _ in range(200):
            x = rng.uniform(-20.0, 65.0, size=2)
            proj = poly.project(metric, x).point
            ref = grid_project(P, (A, b), x, np.array([-5.0, -5.0]),
                               np.array([50.0, 50.0]))
            worst_gap = max(worst_gap, float(np.max(np.abs(proj - ref))))
            # <x - proj, v - proj>_P <= 0 for all v; linear in v, so
            # checking the vertices covers the whole polygon
            var = max(metric.inner(x - proj, v - proj) for v in vertices)
            worst_var = max(worst_var, var)
    ok = worst_gap <= 1e-3 and worst_var <= 1e-9
    _report("polygon projection oracle", ok,
            f"max gap to grid minimizer {worst_gap:.2e} (1e-3), "
            f"max variational violation {worst_var:.2e} (1e-9)")


# ---------------------------------------------------------------------------
# 8. strictly interior stationary points imply exact error zeroing

def test_interior_equilibrium_exact_zeroing(tank_run):
    runs = [tank_run[:2]]

    tank_cfg = preset_config("four-tank")
    tank_cfg["scenario"]["schedule"] = [[0, [10.0, 10.0]], [100, [13.0, 11.0]],
                                        [300, [12.0, 14.0]]]
    tank_cfg["scenario"]["horizon"] = 700
    setup = build_setup(tank_cfg)
    runs.append((setup, simulate(setup.scenario)))

    lti_cfg = preset_config("lti-demo")
    setup = build_setup(lti_cfg)
    runs.append((setup, simulate(setup.scenario)))   # ends saturated

    lti_cfg = preset_config("lti-demo")
    lti_cfg["scenario"]["schedule"] = [[0, [0.5]]]
    setup = build_setup(lti_cfg)
    runs.append((setup, simulate(setup.scenario)))

    interior = 0
    worst_err = 0.0
    for setup, record in runs:
        xi = change_of_coordinates(record, setup.scenario)
        if not classify_convergence(record, xi, setup.metric):
            continue
        depth = setup.controller.gamma.margin(record.eta[-1])
        if depth < 1e-6:
            continue                    # stationary on the boundary: no claim
        interior += 1
        worst_err = max(worst_err, float(np.linalg.norm(record.e[-1])))
    ok = interior >= 2 and worst_err <= 1e-6
    _report("interior stationarity zeroes the error", ok,
            f"{interior} interior converged runs, worst final error "
            f"{worst_err:.2e} (bound 1e-6)")
