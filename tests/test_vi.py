import numpy as np
import pytest

from dpic import (
    Box,
    LTIPlant,
    FourTankPlant,
    Halfspace,
    Intersection,
    LinearPreimage,
    Metric,
    VIProblem,
    build_setup,
    contraction_constants,
    estimate_mu_L,
    exact_mu_L,
    fb_damped_map,
    fb_map,
    natural_residual,
    preset_config,
    sample_points,
    solve_vi,
)
from dpic.cli import _exact_certificates
from dpic.metric import _apply
from dpic.vi import low_gain_threshold

from grid_oracle import grid_vi_solve, random_spd

I1 = Metric.identity(1)
I2 = Metric.identity(2)

FREE = Box([-np.inf], [np.inf])
UNIT = Box([0.0], [1.0])


def affine(M, c=None):
    M = np.asarray(M, dtype=float)
    c = np.zeros(M.shape[0]) if c is None else np.asarray(c, dtype=float)
    return lambda eta: _apply(M, eta) + c  # one row or an (N, p) batch


# ---------------------------------------------------------------------------
# parameter validation

def test_params_reject_bad_alpha():
    problem = VIProblem(affine(np.eye(1)), FREE, I1)
    for alpha in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            fb_map(problem, alpha, np.array([0.5]))
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            solve_vi(problem, alpha, 0.5, np.array([0.5]))
    with pytest.raises(ValueError):
        contraction_constants(0.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        contraction_constants(-1.0, 0.5, 1.0, 2.0)


def test_params_reject_bad_damping():
    problem = VIProblem(affine(np.eye(1)), FREE, I1)
    for lam in (0.0, -0.1, 1.0001):
        with pytest.raises(ValueError, match=r"damping must lie in \(0, 1\]"):
            fb_damped_map(problem, 0.25, lam, np.array([0.5]))
        with pytest.raises(ValueError, match=r"damping must lie in \(0, 1\]"):
            solve_vi(problem, 0.25, lam, np.array([0.5]))
        with pytest.raises(ValueError):
            contraction_constants(0.25, lam, 1.0, 2.0)


def test_params_reject_mu_above_L():
    with pytest.raises(ValueError):
        contraction_constants(0.1, 0.5, 2.0, 1.0)
    # the threshold that sweep and certify print checks its pair the same way
    for mu, L in ((2.0, 1.0), (0.0, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="certificates"):
            low_gain_threshold(1.0, mu, L)


def test_params_enforce_step_window():
    # window is (0, 2 mu / L^2) = (0, 0.5)
    contraction_constants(0.499, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        contraction_constants(0.5, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# contraction constants

def test_constants_at_optimal_step():
    c_fb, c_dfb = contraction_constants(1.0, 0.95, 1.0, 1.0)
    assert c_fb == pytest.approx(0.0, abs=1e-7)
    assert c_dfb == pytest.approx(0.05, abs=1e-7)


def test_constants_quarter_step():
    c_fb, _ = contraction_constants(0.25, 0.5, 1.0, 2.0)
    assert c_fb == pytest.approx(np.sqrt(0.75))


def test_constants_never_nan_when_mu_equals_L():
    # at alpha = mu / L^2 with mu = L the radicand is exactly zero in real
    # arithmetic but can round negative; the result must stay a real zero
    for s in (3.0, 7.0, 11.0, 0.3):
        c_fb, c_dfb = contraction_constants(s / s ** 2, 0.5, s, s)
        assert np.isfinite(c_fb) and np.isfinite(c_dfb)
        assert c_fb == pytest.approx(0.0, abs=1e-7)


def test_constants_approach_one_at_window_edge():
    c_fb, c_dfb = contraction_constants(0.5 * (1.0 - 1e-9), 0.5, 1.0, 2.0)
    assert c_fb < 1.0
    assert c_fb > 1.0 - 1e-8
    assert 0.0 < c_dfb < 1.0


def test_constants_in_unit_interval_over_random_params():
    rng = np.random.default_rng(40)
    for _ in range(200):
        mu = rng.uniform(0.1, 2.0)
        L = mu * rng.uniform(1.0, 5.0)
        alpha = rng.uniform(1e-6, 2.0 * mu / L ** 2 * (1.0 - 1e-9))
        lam = rng.uniform(1e-6, 1.0 - 1e-6)
        c_fb, c_dfb = contraction_constants(alpha, lam, mu, L)
        assert 0.0 <= c_fb < 1.0
        assert 0.0 < c_dfb < 1.0


# ---------------------------------------------------------------------------
# the maps

def test_zero_operator_fixes_members():
    problem = VIProblem(affine(np.zeros((2, 2))), Box([0.0, 0.0], [1.0, 1.0]), I2)
    eta = np.array([0.25, 1.0])
    assert np.allclose(fb_map(problem, 0.7, eta), eta, atol=1e-12)
    assert natural_residual(problem, 0.7, eta) == pytest.approx(0.0, abs=1e-12)


def test_unconstrained_gradient_step():
    problem = VIProblem(affine(np.eye(1)), FREE, I1)
    assert fb_map(problem, 0.5, np.array([2.0]))[0] == pytest.approx(1.0)


def test_clipped_step_at_upper_bound():
    problem = VIProblem(affine(np.eye(1), [-2.0]), UNIT, I1)
    assert fb_map(problem, 1.0, np.array([0.5]))[0] == pytest.approx(1.0)


@pytest.mark.parametrize("gamma", ["lti-demo", "unbounded"])
def test_a_non_finite_operator_value_is_rejected(gamma):
    # the maps take F(eta) from value, which names the fault before any
    # projection can blame the set or a NaN can pass an unbounded one
    ctrl = build_setup(preset_config("lti-demo")).controller
    constraint = ctrl.gamma if gamma == "lti-demo" else FREE
    for bad in (np.nan, np.inf, -np.inf):
        problem = VIProblem(lambda eta, bad=bad: eta + bad, constraint, I1)
        with pytest.raises(ValueError, match="operator value must be finite"):
            problem.value(ctrl.eta)
        with pytest.raises(ValueError, match="operator value must be finite"):
            fb_damped_map(problem, 0.5, 0.5, ctrl.eta)


def test_membership_precondition():
    problem = VIProblem(affine(np.eye(1)), UNIT, I1)
    with pytest.raises(ValueError):
        fb_map(problem, 0.5, np.array([2.0]))


def test_damped_map_midpoint():
    problem = VIProblem(affine(np.eye(1), [-2.0]), UNIT, I1)
    assert fb_damped_map(problem, 1.0, 0.5, np.array([0.0]))[0] == pytest.approx(0.5)


def test_damped_map_at_full_damping_equals_fb():
    problem = VIProblem(affine(np.eye(1), [-2.0]), UNIT, I1)
    eta = np.array([0.3])
    assert fb_damped_map(problem, 1.0, 1.0, eta) == pytest.approx(fb_map(problem, 1.0, eta))


def test_damped_map_stays_in_set():
    rng = np.random.default_rng(41)
    problem = VIProblem(affine(random_spd(rng, 2), [0.5, -0.5]),
                        Box([0.0, 0.0], [1.0, 1.0]), I2)
    eta = np.array([0.9, 0.1])
    for _ in range(50):
        eta = fb_damped_map(problem, 0.2, 0.3, eta)
        assert problem.constraint.contains(eta)


# ---------------------------------------------------------------------------
# solver behavior

def test_unconstrained_root():
    c = np.array([0.7, -1.3])
    problem = VIProblem(affine(np.eye(2), -c), Box([-np.inf, -np.inf], [np.inf, np.inf]), I2)
    sol = solve_vi(problem, 0.8, 0.6, np.zeros(2))
    assert sol.converged
    assert np.allclose(sol.eta, c, atol=1e-9)


def test_active_upper_bound():
    problem = VIProblem(affine(np.eye(1), [-2.0]), UNIT, I1)
    sol = solve_vi(problem, 0.9, 0.7, np.array([0.0]))
    assert sol.converged
    assert sol.eta[0] == pytest.approx(1.0, abs=1e-9)
    # VI sign check at the solution: F(1) = -1 and <F(1), eta - 1> >= 0 on [0,1]
    assert all((eta - 1.0) * (-1.0) >= 0.0 for eta in (0.0, 0.5, 1.0))


def test_solve_vi_carries_its_warm_start_from_step_to_step(monkeypatch):
    # the solution binds the face x_0 <= 1 of a polyhedron under a full metric:
    # one NNLS finds that face, and every later projection keeps it warm
    import dpic
    import dpic.sets as sets_mod

    solves, real = [0], sets_mod._nnls

    def nnls(*args):
        solves[0] += 1
        return real(*args)

    square = dpic.Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], np.ones(4))
    metric = Metric([[2.0, 0.5], [0.5, 1.0]])
    problem = VIProblem(affine(np.eye(2), [-3.0, 0.2]), square, metric)
    monkeypatch.setattr(sets_mod, "_nnls", nnls)
    sol = solve_vi(problem, 0.5, 0.5, np.zeros(2), tol=1e-12)
    assert sol.converged and sol.eta[0] == 1.0 and sol.iterations > 20
    assert solves[0] == 1


def test_residual_decreases_monotonically():
    rng = np.random.default_rng(42)
    for _ in range(10):
        M = random_spd(rng, 3) + 0.5 * np.eye(3)
        c = rng.standard_normal(3)
        problem = VIProblem(affine(M, c), Box([-1.0] * 3, [1.0] * 3), Metric.identity(3))
        mu = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
        L = float(np.linalg.norm(M, 2))
        sol = solve_vi(problem, mu / L ** 2, 0.5, np.array([1.0, -1.0, 1.0]), tol=1e-12)
        res = sol.residuals
        above_floor = res > 1e-11
        diffs = np.diff(res[above_floor])
        assert np.all(diffs <= 1e-12)


def test_residual_contracts_geometrically():
    rng = np.random.default_rng(43)
    M = random_spd(rng, 2) + 0.5 * np.eye(2)
    mu = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
    L = float(np.linalg.norm(M, 2))
    alpha = mu / L ** 2
    _, c_dfb = contraction_constants(alpha, 0.4, mu, L)
    problem = VIProblem(affine(M, [0.3, -0.4]), Box([-1.0, -1.0], [1.0, 1.0]), I2)
    sol = solve_vi(problem, alpha, 0.4, np.array([1.0, 1.0]), tol=1e-12)
    res = sol.residuals
    for k in range(len(res) - 1):
        if res[k] < 1e-10:
            break
        assert res[k + 1] <= c_dfb * res[k] + 1e-12


def test_multistart_uniqueness():
    # keep mu/L close to 1 so tol on the residual bounds the distance to the
    # fixed point by a small multiple of tol (factor 1 / (1 - c_dfb))
    rng = np.random.default_rng(44)
    M = random_spd(rng, 2, spread=1.3)
    mu = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
    L = float(np.linalg.norm(M, 2))
    problem = VIProblem(affine(M, [0.5, 0.1]), Box([-2.0, -2.0], [0.5, 0.5]), I2)
    tol = 1e-10
    solutions = []
    for _ in range(10):
        eta0 = rng.uniform(-2.0, 0.5, size=2)
        sol = solve_vi(problem, mu / L ** 2, 0.5, eta0, tol=tol)
        assert sol.converged
        solutions.append(sol.eta)
    base = solutions[0]
    for other in solutions[1:]:
        assert np.linalg.norm(other - base) <= 10.0 * tol


def test_interior_solution_zeroes_operator():
    problem = VIProblem(affine(np.eye(2), [-0.3, -0.4]), Box([-1.0, -1.0], [1.0, 1.0]), I2)
    sol = solve_vi(problem, 1.0, 0.5, np.zeros(2), tol=1e-11)
    assert sol.converged
    margin = problem.constraint.margin(sol.eta)
    assert margin > 1e-6
    assert np.linalg.norm(problem.value(sol.eta)) <= 1e-9


def test_rotation_field_does_not_converge():
    # 90-degree rotation is monotone but not strongly so; the natural
    # residual stalls and the solver must report failure with its best iterate
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    problem = VIProblem(affine(R), Box([-1.0, -1.0], [1.0, 1.0]), I2)
    sol = solve_vi(problem, 1.0, 0.9, np.array([1.0, 1.0]), tol=1e-12, max_iter=500)
    assert not sol.converged
    assert sol.iterations == 500
    assert problem.constraint.contains(sol.eta)


def test_solution_against_grid_vi_oracle():
    # steady-level map of the two pumped tanks against a dense grid search
    plant = FourTankPlant()
    g = plant.g
    r = np.array([13.0, 11.0])
    K = np.linalg.inv(plant.flow_gain)
    constraint = Intersection([Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0)])
    gamma = LinearPreimage(K, constraint)

    def F(eta):
        return np.array([eta[0] ** 2, eta[1] ** 2]) / (2.0 * g) - r

    mu, L = 100.0 / g, 190.0 / g
    problem = VIProblem(F, gamma, I2)
    sol = solve_vi(problem, mu / L ** 2, 0.5, np.array([140.0, 140.0]), tol=1e-11)
    assert sol.converged

    rows = gamma._parts[1:3]
    corners = np.array([[0.0, 0.0], [45.0, 0.0], [45.0, 40.0], [40.0, 45.0], [0.0, 45.0]])
    vertices = corners @ np.linalg.inv(K).T
    oracle = grid_vi_solve(F, rows, vertices, [100.0, 100.0], [185.0, 185.0])
    assert np.allclose(sol.eta, oracle, atol=1e-4)
    # strictly feasible reference: the solution zeroes the operator exactly
    assert np.allclose(sol.eta, np.sqrt(2.0 * g * r), atol=1e-9)


# ---------------------------------------------------------------------------
# measured contraction against the certified constants

def measured_ratios(problem, alpha, damping, pairs, rng):
    lo, hi = problem.constraint.bounding_box()
    ratios_fb, ratios_dfb = [], []
    for _ in range(pairs):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        if np.linalg.norm(a - b) < 1e-9:
            continue
        dist = problem.metric.norm(a - b)
        fa, fbv = fb_map(problem, alpha, a), fb_map(problem, alpha, b)
        da = fb_damped_map(problem, alpha, damping, a)
        db = fb_damped_map(problem, alpha, damping, b)
        ratios_fb.append(problem.metric.norm(fa - fbv) / dist)
        ratios_dfb.append(problem.metric.norm(da - db) / dist)
    return max(ratios_fb), max(ratios_dfb)


def test_measured_contraction_identity_metric():
    rng = np.random.default_rng(45)
    for _ in range(5):
        M = random_spd(rng, 2) + 0.3 * np.eye(2)
        M = M + 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])  # add a rotational part
        mu = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
        L = float(np.linalg.norm(M, 2))
        problem = VIProblem(affine(M, rng.standard_normal(2)),
                            Box([-2.0, -2.0], [2.0, 2.0]), I2)
        alpha, damping = mu / L ** 2, rng.uniform(0.2, 0.9)
        c_fb, c_dfb = contraction_constants(alpha, damping, mu, L)
        r_fb, r_dfb = measured_ratios(problem, alpha, damping, 200, rng)
        assert r_fb <= c_fb + 1e-9
        assert r_dfb <= c_dfb + 1e-9


def test_measured_contraction_weighted_metric():
    rng = np.random.default_rng(46)
    P = random_spd(rng, 2)
    metric = Metric(P)
    W = np.linalg.cholesky(P).T  # whitener: |x|_P = |W x|_2
    Winv = np.linalg.inv(W)
    M = random_spd(rng, 2) + 0.3 * np.eye(2)
    Mw = W @ M @ Winv
    mu = float(np.linalg.eigvalsh((Mw + Mw.T) / 2.0)[0])
    L = float(np.linalg.norm(Mw, 2))
    problem = VIProblem(affine(M), Halfspace([1.0, 1.0], 1.0), metric)
    alpha = mu / L ** 2
    c_fb, c_dfb = contraction_constants(alpha, 0.5, mu, L)
    ratios_fb, ratios_dfb = [], []
    for _ in range(300):
        a = rng.uniform(-2.0, 2.0, size=2)
        b = rng.uniform(-2.0, 2.0, size=2)
        a = problem.constraint.project(metric, a).point
        b = problem.constraint.project(metric, b).point
        if metric.norm(a - b) < 1e-9:
            continue
        fa, fbv = fb_map(problem, alpha, a), fb_map(problem, alpha, b)
        da, db = fb_damped_map(problem, alpha, 0.5, a), fb_damped_map(problem, alpha, 0.5, b)
        ratios_fb.append(metric.norm(fa - fbv) / metric.norm(a - b))
        ratios_dfb.append(metric.norm(da - db) / metric.norm(a - b))
    assert max(ratios_fb) <= c_fb + 1e-9
    assert max(ratios_dfb) <= c_dfb + 1e-9


# ---------------------------------------------------------------------------
# certificate estimation

def test_estimate_identity_map():
    mu, L = estimate_mu_L(lambda eta: eta, Box([-1.0, -1.0], [1.0, 1.0]), I2,
                          samples=200, seed=47)
    assert mu == pytest.approx(1.0, abs=1e-12)
    assert L == pytest.approx(1.0, abs=1e-12)


def test_estimate_linear_map_matches_eigen_oracle():
    rng = np.random.default_rng(48)
    for _ in range(5):
        M = rng.standard_normal((3, 3))
        M = M + 3.0 * np.eye(3)  # keep it strongly monotone
        mu_true = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
        L_true = float(np.linalg.norm(M, 2))
        mu, L = estimate_mu_L(affine(M), Box([-1.0] * 3, [1.0] * 3), Metric.identity(3),
                              samples=3000, seed=int(rng.integers(1e6)))
        # one-sided estimates: sampled extrema stay inside the true range
        assert mu_true - 1e-9 <= mu
        assert L <= L_true + 1e-9
        assert mu == pytest.approx(mu_true, abs=0.3)
        assert L == pytest.approx(L_true, abs=0.3)


def test_estimate_tank_steady_map():
    g = 981.0

    def F(eta):
        return np.stack([eta[..., 0] ** 2, eta[..., 1] ** 2], axis=-1) / (2.0 * g)

    box = Box([100.0, 100.0], [180.0, 180.0])
    mu, L = estimate_mu_L(F, box, I2, samples=4000, seed=49)
    # Jacobian is diag(eta / g): secant modulus >= 100/g, slope <= 180/g.
    # The one-sided bounds are exact; the approach to them is sampling-limited.
    assert 100.0 / g - 1e-9 <= mu <= 105.0 / g
    assert 170.0 / g <= L <= 180.0 / g + 1e-9


def per_pair_mu_L(operator, region, metric, samples, seed):
    """The secant extrema pair by pair in Python floats, as a reference; it
    calls the operator once per point, where estimate_mu_L calls it once."""
    pts = sample_points(region, 2 * samples, rng=seed)
    values = np.array([np.asarray(operator(p), dtype=float) for p in pts])
    mu_hat, L_hat = np.inf, 0.0
    for x, fx, y, fy in zip(pts[:samples], values[:samples],
                            pts[samples:], values[samples:]):
        dist = metric.norm(x - y)
        if dist < 1e-12:
            continue
        mu_hat = min(mu_hat, metric.inner(fx - fy, x - y) / dist ** 2)
        L_hat = max(L_hat, metric.norm(fx - fy) / dist)
    return mu_hat, L_hat


def test_estimate_equals_the_per_pair_loop_bit_for_bit():
    setup = build_setup(preset_config("four-tank"))
    ctrl = setup.controller
    w0 = setup.scenario.schedule[0][1]
    region = Intersection([ctrl.gamma, setup.certify_box])
    tank = lambda eta: setup.plant.pi(_apply(ctrl.gain, eta), w0)  # noqa: E731
    rng = np.random.default_rng(51)
    M = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
    box = Box([-1.0, -2.0], [2.0, 1.0])
    # a square root that is NaN on part of the box: those pairs are skipped
    root = lambda eta: np.sqrt(eta + 0.5)  # noqa: E731
    cases = [(tank, region, ctrl.metric, 1000, setup.seed),
             (tank, region, Metric(random_spd(rng, 2)), 300, 3),
             (affine(M), box, Metric(random_spd(rng, 2)), 500, 4),
             (root, box, Metric(random_spd(rng, 2)), 500, 5)]
    with np.errstate(invalid="ignore"):
        for operator, region, metric, samples, seed in cases:
            got = estimate_mu_L(operator, region, metric, samples=samples, seed=seed)
            want = per_pair_mu_L(operator, region, metric, samples, seed)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_estimate_rejects_a_per_point_operator():
    # indexing eta[0] reads the first sampled point, not the first coordinate
    # of each: the output has the wrong shape and no (mu, L) comes back
    F = lambda eta: np.array([eta[0] ** 2, eta[1] ** 2])  # noqa: E731
    with pytest.raises(ValueError, match=r"each row of an \(N, p\) array"):
        estimate_mu_L(F, Box([1.0, 1.0], [2.0, 2.0]), I2, samples=50, seed=52)


def loop_jacobian(plant, K):
    return lambda eta: plant.pi_jacobian(_apply(K, eta)) @ K


def generalized_mu_L(M, P):
    """mu and L of eta -> M eta in the P-metric from generalized eigenvalues:
    sym(P M) v = mu P v, and M^T P M v = L^2 P v."""
    S = 0.5 * (P @ M + M.T @ P)
    mu = np.linalg.eigvals(np.linalg.solve(P, S)).real.min()
    return mu, np.sqrt(np.linalg.eigvals(np.linalg.solve(P, M.T @ P @ M)).real.max())


def test_exact_pair_of_the_presets():
    # four-tank: K inverts the flow gain, so J = diag(eta) / g on the box
    # [100, 185]^2; lti-demo: J = dc_gain K = 1
    setup = build_setup(preset_config("four-tank"))
    mu, L = _exact_certificates(setup)
    g = setup.plant.g
    assert mu == pytest.approx(100.0 / g, rel=1e-12)
    assert L == pytest.approx(185.0 / g, rel=1e-12)
    assert low_gain_threshold(setup.plant.T_s, mu, L) == pytest.approx(1.74439, abs=5e-6)
    setup = build_setup(preset_config("lti-demo"))
    assert _exact_certificates(setup) == (1.0, 1.0)


def test_sampled_pair_lies_inside_the_exact_one_on_tank_boxes():
    setup = build_setup(preset_config("four-tank"))
    plant, K = setup.plant, setup.controller.gain
    w = setup.scenario.schedule[0][1]
    tank = lambda eta: plant.pi(_apply(K, eta), w)  # noqa: E731
    rng = np.random.default_rng(53)
    for case in range(12):
        lower = rng.uniform(100.0, 150.0, 2)
        box = Box(lower, lower + rng.uniform(1.0, 35.0, 2))
        metric = I2 if case % 3 == 0 else Metric(random_spd(rng, 2))
        mu, L = exact_mu_L(loop_jacobian(plant, K), metric, box)
        mu_hat, L_hat = estimate_mu_L(tank, box, metric, samples=300, seed=case)
        assert mu - mu_hat <= 1e-12 * abs(mu)
        assert L_hat - L <= 1e-12 * L


def test_exact_pair_of_lti_plants_under_coupled_metrics():
    rng = np.random.default_rng(54)
    for case in range(20):
        n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        plant = LTIPlant(A=A, B=rng.standard_normal((n, p)), C=rng.standard_normal((p, n)),
                         D=rng.standard_normal((p, p)), T_s=1.0)
        K = rng.standard_normal((p, p))
        P = random_spd(rng, p)
        metric = Metric(P)
        mu, L = exact_mu_L(loop_jacobian(plant, K), metric)
        want_mu, want_L = generalized_mu_L(plant.dc_gain() @ K, P)
        assert mu == pytest.approx(want_mu, rel=1e-9, abs=1e-12 * want_L)
        assert L == pytest.approx(want_L, rel=1e-9)
        mu_hat, L_hat = estimate_mu_L(lambda eta: plant.pi(_apply(K, eta), None),
                                      Box(-np.ones(p), np.ones(p)), metric,
                                      samples=200, seed=case)
        assert mu - mu_hat <= 1e-12 * abs(mu)
        assert L_hat - L <= 1e-12 * L


def test_exact_pair_checks_the_jacobian_shape():
    with pytest.raises(ValueError, match="jacobian must map"):
        exact_mu_L(lambda eta: eta, I2, Box([0.0, 0.0], [1.0, 1.0]))


def test_estimate_rejects_degenerate_region():
    # sampling a single-point box produces only degenerate pairs
    point = Box([1.0], [1.0])
    with pytest.raises(ValueError):
        estimate_mu_L(lambda eta: eta, point, I1, samples=50, seed=50)
