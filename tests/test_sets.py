import itertools
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

import dpic
from dpic import (
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Intersection,
    LinearPreimage,
    Metric,
    Polyhedron,
    ProjectionError,
    normal_cone_residual,
    sample_points,
)
from dpic.metric import _row_norms
from dpic.sets import MEMBERSHIP_TOL

from grid_oracle import enumerate_project, grid_project, polygon_rows, random_spd
from kkt_oracle import nullspace_project
from lp_oracle import rows_maximizer, rows_support
from membership_oracle import oracle_contains, oracle_margin
from preimage_oracle import change_of_variables_project
from projection_stress import far_family, far_polyhedra

I2 = Metric.identity(2)


def input_polygon():
    return Intersection([Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0)])


# ---------------------------------------------------------------------------
# frozen projection values

def test_box_clamp():
    # under a diagonal metric the projection is separable: the componentwise
    # clamp, here reached by the rows' engine, whose polish cancels x down to
    # the point and so rounds on the scale of |x|
    res = Box([0.0, 0.0], [45.0, 45.0]).project(I2, [50.0, 10.0])
    assert np.allclose(res.point, [45.0, 10.0], atol=1e-12)
    assert res.iterations == 0
    rng = np.random.default_rng(59)
    for _ in range(2000):
        dim = int(rng.integers(1, 6))
        lower = rng.uniform(-3.0, 1.0, dim)
        upper = lower + rng.uniform(0.1, 4.0, dim)
        metric = Metric(np.diag(rng.uniform(0.01, 100.0, dim)))
        x = rng.uniform(0.5, 8.0) * rng.standard_normal(dim)
        clamp = np.clip(x, lower, upper)
        point = Box(lower, upper).project(metric, x).point
        assert np.max(np.abs(point - clamp)) <= 1e-14 * np.max(np.abs(x))


def test_symmetric_halfspace():
    res = Halfspace([1.0, 1.0], 85.0).project(I2, [50.0, 50.0])
    assert np.allclose(res.point, [42.5, 42.5], atol=1e-12)


def test_polygon_corner_cut():
    # (46,44) violates only the sum constraint; sliding along it keeps both
    # coordinates under 45, so the answer is the pure halfspace projection.
    res = input_polygon().project(I2, [46.0, 44.0])
    assert np.allclose(res.point, [43.5, 41.5], atol=1e-9)
    oracle = grid_project(np.eye(2), polygon_rows(), [46.0, 44.0], [0.0, 0.0], [45.0, 45.0])
    assert np.allclose(res.point, oracle, atol=1e-3)


def test_polygon_needs_both_constraints():
    # (50,44): clamping to the box gives (45,44), sum 89 > 85; projecting onto
    # the halfspace alone gives (45.5,39.5) outside the box.  The optimum sits
    # on the corner face u1 = 45, u1 + u2 = 85.
    res = input_polygon().project(I2, [50.0, 44.0])
    assert np.allclose(res.point, [45.0, 40.0], atol=1e-9)


def test_unit_ball_radial():
    res = Ball([0.0, 0.0], 1.0).project(I2, [3.0, 4.0])
    assert np.allclose(res.point, [0.6, 0.8], atol=1e-12)


def test_projection_inside_is_identity():
    for s in (Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0),
              Ball([1.0, 1.0], 5.0), input_polygon()):
        res = s.project(I2, [1.0, 2.0])
        assert np.array_equal(res.point, [1.0, 2.0])
        assert res.iterations == 0
        assert res.residual == 0.0


# ---------------------------------------------------------------------------
# membership and margin

def test_box_boundary_membership():
    box = Box([0.0, 0.0], [45.0, 45.0])
    assert box.contains([45.0, 45.0]) and box.margin([45.0, 45.0]) == 0.0


def test_halfspace_strict_violation():
    half = Halfspace([1.0, 1.0], 85.0)
    assert not half.contains([43.0, 43.0]) and half.margin([43.0, 43.0]) < 0.0


def test_nominal_input_is_feasible():
    poly = Polyhedron(*polygon_rows())
    assert poly.contains([32.64, 32.64])


def test_margin_signs():
    box = Box([0.0, 0.0], [45.0, 45.0])
    assert box.margin([10.0, 5.0]) == pytest.approx(5.0)
    assert box.margin([46.0, 10.0]) == pytest.approx(-1.0)
    # halfspace margin is the distance to the plane, slack over the row norm
    assert Halfspace([1.0, 1.0], 85.0).margin([40.0, 40.0]) == pytest.approx(5.0 / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# projection properties under random metrics

def all_test_sets():
    return [
        Box([-1.0, 0.5], [2.0, 3.0]),
        Box([-np.inf, 0.0], [1.0, np.inf]),
        Halfspace([2.0, -1.0], 1.5),
        Ball([0.5, -0.5], 2.0),
        Polyhedron(*polygon_rows()),
        input_polygon(),
        LinearPreimage([[2.0, 0.0], [1.0, 1.0]], Box([0.0, 0.0], [4.0, 4.0])),
    ]


def metrics():
    rng = np.random.default_rng(21)
    return [I2, Metric(np.diag([3.0, 0.5])), Metric(random_spd(rng, 2))]


def test_result_is_member():
    rng = np.random.default_rng(22)
    for s in all_test_sets():
        for m in metrics():
            for _ in range(20):
                x = 10.0 * rng.standard_normal(2)
                res = s.project(m, x)
                assert s.contains(res.point), (s, m.P, x)


def test_idempotence():
    rng = np.random.default_rng(23)
    for s in all_test_sets():
        for m in metrics():
            for _ in range(10):
                x = 10.0 * rng.standard_normal(2)
                p1 = s.project(m, x).point
                p2 = s.project(m, p1).point
                assert np.allclose(p1, p2, atol=1e-9)


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(24)
    for s in all_test_sets():
        for m in metrics():
            for _ in range(10):
                x = 10.0 * rng.standard_normal(2)
                y = 10.0 * rng.standard_normal(2)
                px = s.project(m, x).point
                py = s.project(m, y).point
                assert m.norm(px - py) <= m.norm(x - y) + 1e-9


def test_variational_characterization():
    rng = np.random.default_rng(25)
    box = Box([-3.0, -3.0], [8.0, 8.0])  # bounded superset for sampling nu
    for s in all_test_sets():
        probe = Intersection([s, box])
        nus = sample_points(probe, 100, rng=26)
        for m in metrics():
            for _ in range(5):
                x = 10.0 * rng.standard_normal(2)
                p = s.project(m, x).point
                gaps = (nus - p) @ (m.P @ (x - p))
                assert np.max(gaps) <= 1e-9


def test_polygon_matches_grid_oracle_under_weighted_metric():
    rng = np.random.default_rng(27)
    P = random_spd(rng, 2)
    m = Metric(P)
    s = input_polygon()
    for _ in range(20):
        x = rng.uniform(-20.0, 65.0, size=2)
        p = s.project(m, x).point
        oracle = grid_project(P, polygon_rows(), x, [0.0, 0.0], [45.0, 45.0])
        assert np.allclose(p, oracle, atol=1e-3)


def _random_polytope(rng, dim, rows):
    """{v : A v <= b} with unit normals and offsets in [0.5, 1.5]; bounded."""
    while True:
        A = rng.standard_normal((rows, dim))
        A /= np.linalg.norm(A, axis=1)[:, None]
        b = rng.uniform(0.5, 1.5, size=rows)
        poly = Polyhedron(A, b)
        lower, upper = poly.bounding_box()
        if np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)):
            return poly


@pytest.mark.parametrize("dim, rows, points", [(2, 6, 12), (3, 12, 8), (4, 20, 6),
                                               (4, 40, 1)])
def test_polyhedron_matches_enumeration_oracle(dim, rows, points):
    # 40 rows in 4-D give 102 090 candidate active sets; the projection stays exact
    rng = np.random.default_rng(100 + rows)
    for _ in range(2):
        poly = _random_polytope(rng, dim, rows)
        P = random_spd(rng, dim)
        m = Metric(P)
        for _ in range(points):
            x = rng.uniform(1.5, 4.0) * rng.standard_normal(dim)
            res = poly.project(m, x)
            oracle = enumerate_project(P, (poly.A, poly.b), x)
            assert np.max(np.abs(res.point - oracle)) <= 1e-12
            assert res.iterations == 0


def test_projection_takes_the_row_factors_of_its_own_metric():
    # a set keeps the row factors of the last metric it projected in; each
    # metric here is freed after its call, so a new one may reuse its id()
    rng = np.random.default_rng(53)
    poly = _random_polytope(rng, 3, 12)
    x = np.array([4.0, -3.0, 2.5])
    assert not poly.contains(x)
    for _ in range(4):
        P1, P2 = random_spd(rng, 3), random_spd(rng, 3)
        expected = Polyhedron(poly.A, poly.b).project(Metric(P2), x).point
        poly.project(Metric(P1), x)
        assert poly.project(Metric(P2), x).point.tobytes() == expected.tobytes()


def test_single_point_polytope_projects_to_its_point():
    # 8 rows through the origin that positively span R^4 leave only the
    # origin; NNLS reports a zero residual on some of these projections.
    # The rows meet at narrow angles, so a 1e-12 row slack allows ~1e-10.
    rng = np.random.default_rng(52)
    poly = Polyhedron(rng.standard_normal((8, 4)), np.zeros(8))
    m = Metric(random_spd(rng, 4))
    for _ in range(5):
        p = poly.project(m, 5.0 * rng.standard_normal(4)).point
        assert np.max(poly.A @ p) <= 1e-12
        assert np.max(np.abs(p)) <= 1e-9


def _vertex_edge_points(gamma, metric):
    """Points whose projections land at or next to a vertex of gamma, where
    a multiplier or a slack passes through zero.

    Each vertex v meets faces i and j; x = v + t P^{-1} a_i lies on an edge
    of v's normal cone (the multiplier of j is 0), and an offset of
    eps (1 + |v|) along P^{-1} a_j moves x into the cone (eps > 0) or
    past it onto face i alone (eps < 0).
    """
    _, A, b, _ = gamma._parts
    normals = metric.solve(A.T).T
    scale = 1.0 + np.max(np.abs(b))
    points = []
    for i, j in itertools.permutations(range(len(b)), 2):
        pair = A[[i, j]]
        if abs(np.linalg.det(pair)) < 1e-12 * np.linalg.norm(pair) ** 2:
            continue  # parallel faces meet nowhere
        v = np.linalg.solve(pair, b[[i, j]])
        if np.max(A @ v - b) > 1e-9 * scale:
            continue
        for t in (1e-3, 1.0, 30.0):
            for eps in (0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-12, -1e-12):
                offset = eps * (1.0 + np.linalg.norm(v)) * normals[j] / np.linalg.norm(normals[j])
                points.append(v + t * normals[i] / np.linalg.norm(normals[i]) + offset)
    return points


def test_a_cached_active_set_never_changes_a_projection_bit(monkeypatch):
    # a warm start is a hint: every 1- and 2-row warm start, the parallel box
    # rows upper[0] / lower[0] among them, must give the cold projection byte
    # for byte, also where a multiplier or a slack of the answer is within
    # rounding of zero; and a warm start that fits must skip the NNLS solve
    import dpic.sets as sets_mod
    from dpic import build_setup, preset_config

    solves, real = [0], sets_mod._nnls

    def nnls(*args):
        solves[0] += 1
        return real(*args)

    monkeypatch.setattr(sets_mod, "_nnls", nnls)
    setup = build_setup(preset_config("four-tank"))
    tank = setup.controller.gamma
    rng = np.random.default_rng(57)
    poly = _random_polytope(rng, 3, 8)
    poly_metric = Metric(random_spd(rng, 3))
    P, ball, A, b, _ = ball_polygon_cases()[1]
    capped = Intersection([ball, Polyhedron(A, b)])
    # (set, metric, points): each warm start holds rows of the set's own rows
    cases = [(tank, setup.metric, _vertex_edge_points(tank, setup.metric)),
             (poly, poly_metric,
              [rng.uniform(1.5, 4.0) * rng.standard_normal(3) for _ in range(40)]),
             (capped, Metric(P), [ball.center + 4.0 * rng.standard_normal(2) for _ in range(15)])]
    tried = kept = 0
    for s, metric, points in cases:
        rows = len(s._parts[2])
        # (rows, Gram matrix, ...): a Gram matrix that is not the metric's has the
        # engine cut the warm start's blocks again from its rows
        hints = [(np.array(S), None, None, None)
                 for k in (1, 2) for S in itertools.combinations(range(rows), k)]
        for x in points:
            if s.margin(x) >= 0.0:  # in the set with no tolerance
                continue
            cold = s.project(metric, x)
            for hint in hints:
                before = solves[0]
                warm = s.project(metric, x, hint)
                assert warm.point.tobytes() == cold.point.tobytes(), (x, hint[0])
                assert warm.iterations == cold.iterations
                kept += solves[0] == before
                tried += 1
    assert tried > 3000
    assert kept > 50  # 57 of them skip NNLS; none would if the warm start were ignored


def test_a_warm_polish_at_the_origin_divides_no_zero_by_zero():
    # the warm row x_0 <= 0 runs through the origin, and its polish from
    # x = 0 is x itself: that row's rounding scale |b| + |a| (|x| + |v|) is 0
    poly = Polyhedron([[1.0, 0.0], [0.0, -1.0]], [0.0, -1.0])
    first = poly.project(I2, [1.0, 5.0])
    assert np.array_equal(first.point, [0.0, 5.0])
    assert first.warm[0].tolist() == [0]
    assert np.array_equal(poly.project(I2, [0.0, 0.0], first.warm).point, [0.0, 1.0])


@pytest.mark.parametrize("factor, entry", [(5, 2), (3, (0, 0))])
def test_a_nan_in_the_warm_polish_rejects_the_cached_active_set(monkeypatch, factor, entry):
    # a NaN offset b_2 / |a_2| puts a NaN into miss behind finite entries, and a
    # NaN Gram entry makes the multiplier lam NaN: either sends the projection
    # on to NNLS, although a bare builtin max or min would skip such a NaN
    import dpic.sets as sets_mod

    square = Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], np.ones(4))
    solves, real = [], sets_mod._nnls

    def nnls(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(sets_mod, "_nnls", nnls)
    first = square.project(I2, [3.0, 0.5])
    assert first.warm[0].tolist() == [0] and len(solves) == 1
    assert np.array_equal(square.project(I2, [3.0, 0.2], first.warm).point, [1.0, 0.2])
    assert len(solves) == 1  # the warm row was kept
    # new factors for the same metric: the warm start's blocks are cut again from them
    factors = [np.array(f, copy=True) if i else f for i, f in enumerate(square._factors)]
    factors[factor][entry] = np.nan
    square._factors = tuple(factors)
    with pytest.raises(ProjectionError):  # the cold polish reads the NaN too
        square.project(I2, [3.0, 0.2], first.warm)
    assert len(solves) == 2


def test_cached_blocks_never_outlive_their_rows_or_factors(monkeypatch):
    # a warm polish reads the Gram block and P^{-1} A_S^T columns its warm start
    # carries; a metric change, or a ball's root-find trial with its fresh
    # factors, must cut them again: each projection from the last one's warm
    # start gives the bytes of the cold one
    import dpic.sets as sets_mod

    solves, real = [0], sets_mod._nnls

    def nnls(*args):
        solves[0] += 1
        return real(*args)

    monkeypatch.setattr(sets_mod, "_nnls", nnls)
    rng = np.random.default_rng(71)
    metrics = [Metric(random_spd(rng, 3)) for _ in range(2)]
    poly = _random_polytope(rng, 3, 8)
    P, ball, A, b, _ = ball_polygon_cases()[1]
    capped = Intersection([ball, Polyhedron(A, b)])
    start, step = 3.0 * rng.standard_normal(3), 0.05 * rng.standard_normal(3)
    warm_solves = projected = 0
    last = None
    for k in range(60):
        # runs of three steps in one metric, then three in the other
        x, metric = start + k * step, metrics[k // 3 % 2]
        before = solves[0]
        warm = poly.project(metric, x, last)
        warm_solves += solves[0] - before
        projected += poly.margin(x) < 0.0
        assert warm.point.tobytes() == poly.project(metric, x).point.tobytes(), k
        last = warm.warm
    assert warm_solves < projected // 2  # most steps kept the last active set
    trials, metric, last = 0, Metric(P), None
    for k in range(40):
        x = ball.center + [1.5, 2.5] + 0.02 * k * np.array([1.0, -0.3])
        warm = capped.project(metric, x, last)
        cold = capped.project(metric, x)
        assert warm.point.tobytes() == cold.point.tobytes(), k
        assert warm.iterations == cold.iterations
        trials, last = trials + warm.iterations, warm.warm
    assert trials > 40


def test_a_projection_leaves_its_set_as_it_found_it():
    # the warm start travels in the result, and no projection writes the set:
    # the second projection in one metric leaves vars() as the first left it
    from dpic import build_setup, preset_config

    setup = build_setup(preset_config("four-tank"))
    P, ball, A, b, _ = ball_polygon_cases()[1]
    rng = np.random.default_rng(5)
    cases = [(Box([0.0, 0.0], [1.0, 1.0]), I2, [[3.0, -2.0], [0.5, 4.0]]),
             (_random_polytope(rng, 3, 8), Metric(random_spd(rng, 3)),
              [[4.0, -3.0, 2.5], [-3.5, 2.0, 4.0]]),
             (Intersection([ball, Polyhedron(A, b)]), Metric(P),
              [ball.center + [1.5, 2.5], ball.center + [-2.0, 1.0]]),
             (setup.controller.gamma, setup.metric, [[400.0, -30.0], [-5.0, 90.0]])]
    for s, metric, (x, y) in cases:
        assert not (s.contains(x) or s.contains(y))
        first = s.project(metric, x)
        after_first = dict(vars(s))
        s.project(metric, y, first.warm)
        assert vars(s).keys() == after_first.keys()
        assert all(vars(s)[name] is value for name, value in after_first.items()), s


def _six_sets(lower, upper, normal, center, A, b, K):
    """One set of each class, built from the given arrays."""
    return [Box(lower, upper), Halfspace(normal, 0.5), Ball(center, 1.0), Polyhedron(A, b),
            Intersection([Ball(center, 1.0), Box(lower, upper), Polyhedron(A, b)]),
            LinearPreimage(K, Intersection([Box(lower, upper), Halfspace(normal, 0.5)]))]


def test_a_set_is_built_from_copies_of_its_arrays():
    # a caller's later edit of the arrays a set was built from reaches none of
    # its answers: each set answers as its twin built from copies does, and
    # the set's own public arrays are read-only
    arrays = [np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([1.0, 2.0]),
              np.array([0.0, 0.0]), np.array([[1.0, 0.5], [-0.5, 1.0], [-1.0, -1.0]]),
              np.array([1.0, 1.0, 1.0]), np.array([[2.0, 1.0], [0.0, 1.0]])]
    built = _six_sets(*arrays)
    twins = _six_sets(*(a.copy() for a in arrays))
    for a in arrays:
        a[0] = 5.0
    metric = Metric([[2.0, 0.3], [0.3, 1.0]])
    points = [[9.0, 0.0], [5.0, 0.0], [0.25, -0.5], [-3.0, 4.0]]
    public = {Box: ("lower", "upper"), Halfspace: ("a",), Ball: ("center",),
              Polyhedron: ("A", "b"), Intersection: (), LinearPreimage: ("K",)}
    for s, twin in zip(built, twins):
        for x in points:
            assert s.contains(x) == twin.contains(x), (s, x)
            assert s.margin(x) == twin.margin(x), (s, x)
            for m in (I2, metric):
                assert s.project(m, x).point.tobytes() == twin.project(m, x).point.tobytes()
        for name in public[type(s)]:
            with pytest.raises(ValueError, match="read-only"):
                getattr(s, name)[0] = 7.0


def test_a_set_holds_what_it_was_built_with_and_two_memos():
    # once built, a set adds only _factors, its row factors in the last metric,
    # and _bbox after bounding_box; every other attribute stays the same object
    metric = Metric([[2.0, 0.3], [0.3, 1.0]])
    sets = _six_sets([-1.0, -1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 0.0],
                     [[1.0, 0.5], [-0.5, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0],
                     [[2.0, 1.0], [0.0, 1.0]])
    for s in sets:
        built = dict(vars(s))
        for x in ([9.0, 3.0], [0.1, 0.2]):
            s.contains(x)
            s.margin(x)
            point = s.project(metric, x).point
            normal_cone_residual(s, metric, point, np.subtract(x, point))
        used = dict(vars(s))
        assert used.keys() - built.keys() <= {"_factors"}, s
        assert all(used[name] is value for name, value in built.items() if name != "_factors")
        s.bounding_box()
        assert vars(s).keys() - used.keys() == {"_bbox"}, s


def test_far_points_project_within_the_rounding_rule_or_raise():
    # |x| up to 1e170: x.x overflows past 1e154, and a scale s_i of inf would
    # let every candidate pass; the norms are formed by hypot instead
    rng = np.random.default_rng(3)
    I3 = Metric.identity(3)
    found = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(500):
            A, b = rng.standard_normal((8, 3)), rng.uniform(0.5, 2.0, 8)
            poly = Polyhedron(A, b)
            x = rng.standard_normal(3) * 10.0 ** rng.uniform(150.0, 170.0)
            try:
                v = poly.project(I3, x).point
            except ProjectionError:
                continue
            norms = np.linalg.norm(A, axis=1)
            scale = np.abs(b) / norms + (np.hypot.reduce(x) + np.hypot.reduce(v))
            assert np.all((A @ v - b) / norms <= 1e-12 * scale)
            found += 1
    assert found > 5


def test_far_points_project_onto_bounded_polytopes_as_the_kkt_oracle_does():
    # the first 30 of far_family's bounded 8-row 3-D polytopes, ten directions
    # each: on the unscaled dual, b was lost to rounding against A x and NNLS
    # left active rows that were no face, so a point 1e5 away raised or landed
    # on a wrong face.  The scaled dual finds the face.  The polish v = x - P^-1 A_S^T lam
    # rounds with |x|, so v meets the null-space oracle only to about eps |x|
    # times the face's conditioning: 4.7e-15 |x| (1 + |v|) at most here
    I3, family = Metric.identity(3), far_family(30)
    for far in (1e5, 1e6, 1e8):
        for A, b, directions in family:
            poly = Polyhedron(A, b)
            for d in directions:
                x = far * d / np.linalg.norm(d)
                point = poly.project(I3, x).point
                exact = nullspace_project(np.eye(3), A, b, x)
                assert np.linalg.norm(point - exact) <= 1e-14 * far * (1.0 + np.linalg.norm(exact))


def test_rows_past_the_range_of_their_squares_project_into_the_set_or_raise():
    # |K| = 1e160: the rows of Gamma = {x : |1e160 x| <= 1} square to inf, and
    # unit rows of 0 once let the polish keep 0.25; the Gram matrix still overflows
    gamma = LinearPreimage([[1e160]], Box([-1.0], [1.0]))
    with np.errstate(over="ignore"):
        try:
            point = gamma.project(Metric.identity(1), [0.25]).point
        except ProjectionError:
            return
    assert gamma.contains(point)


def test_rows_past_the_range_of_their_squares_read_their_margin_and_normal_cone():
    # {x : 1e160 x_0 <= 1e160} is {x : x_0 <= 1}: the origin is 1 inside and does not
    # solve the VI along (1, 0); row norms whose squares read inf once gave 0 for both.
    # At 1e-200 the squares underflow, and the sets were rejected: a row norm read 0
    sets = []
    for scale in (1e160, 1e-200):
        sets.append(Halfspace([scale, 0.0], scale))
        with np.errstate(over="ignore"):  # the polyhedron's Gram matrix still overflows
            sets.append(Polyhedron([[scale, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                                   [scale, 1.0, 1.0, 1.0]))
    for set_ in sets:
        assert set_.margin([0.0, 0.0]) == 1.0
        assert normal_cone_residual(set_, I2, [0.0, 0.0], [1.0, 0.0]) == 1.0


def test_an_ellipsoid_margin_past_the_range_of_its_squares_stays_finite():
    ball = Ball([0.0, 0.0], 1.0)
    assert ball.margin([1e200, 0.0]) == -1e200
    np.testing.assert_array_equal(ball.margin([[1e200, 0.0], [0.5, 0.0]]), [-1e200, 0.5])


def test_a_ball_projects_a_point_past_the_range_of_its_squares_onto_its_boundary():
    # |x| = 1e160: the norm that brackets the ball's multiplier once read inf,
    # the first trial landed on the center, and the projection returned it
    ball = Ball([0.0, 0.0], 1.0)
    for far in (1e150, 1e160, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = ball.project(Metric.identity(2), [far, 0.0]).point
        np.testing.assert_allclose(point, [1.0, 0.0], rtol=0, atol=1e-12)


def test_four_tank_simulate_mostly_reuses_the_last_active_set(monkeypatch):
    # 465 of the preset's steps project; all but a few keep the active set
    # of the projection before them and skip the NNLS solve
    import dpic.sets as sets_mod
    from dpic import build_setup, preset_config, simulate

    counts = {"nnls": 0, "project": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(sets_mod, "_nnls", counted("nnls", sets_mod._nnls))
    monkeypatch.setattr(sets_mod, "_project_rows",
                        counted("project", sets_mod._project_rows))
    record = simulate(build_setup(preset_config("four-tank")).scenario)
    assert counts["project"] >= 400
    # each segment's normal-cone residual is one more NNLS solve
    assert counts["nnls"] - len(record.segments) <= 10


def _ldp_cases(rng, count):
    """Seeded (halfspace rows as an Intersection, SPD metric, point): dims
    2-4, 3-20 rows.  Cases 1 mod 3 repeat row 0, cases 2 mod 3 repeat it
    nudged by 1e-9, and cases 0 mod 5 add a row facing row 0, mostly empty."""
    for case in range(count):
        dim, rows = int(rng.integers(2, 5)), int(rng.integers(3, 21))
        A = rng.standard_normal((rows, dim))
        b = rng.uniform(0.1, 2.0, rows)
        if case % 3 == 1:
            A[1], b[1] = A[0], b[0]
        elif case % 3 == 2:
            A[1] = A[0] + 1e-9 * rng.standard_normal(dim)
        if case % 5 == 0:
            A[2], b[2] = -A[0], -b[0] - rng.uniform(-0.5, 1.0)
        metric = Metric(random_spd(rng, dim))
        s = Intersection([Halfspace(a, bi) for a, bi in zip(A, b)])
        yield s, metric, 3.0 * rng.standard_normal(dim)


def test_numpy_nnls_matches_scipy_nnls(monkeypatch):
    # projections and emptiness verdicts keep their bits when the numpy NNLS
    # replaces scipy.optimize.nnls; on every nonempty set it leaves scipy's
    # active set (a repeated row may stand in for its twin) and scipy's zero
    # or nonzero residual.  On an empty set the dual is fit exactly and its
    # active set is rounding noise in both solvers.
    import dpic.sets as sets_mod

    engine = sets_mod._nnls
    rng = np.random.default_rng(71)
    counts = {"projected": 0, "empty": 0}
    for case, (s, metric, x) in enumerate(_ldp_cases(rng, 600)):
        _, A, b, _ = s._parts
        if (A @ x <= b).all():
            continue
        points = []
        for solver in (engine, nnls):
            monkeypatch.setattr(sets_mod, "_nnls", solver)
            try:
                points.append(s.project(metric, x).point.tobytes())
            except ProjectionError:
                points.append(None)
        assert points[0] == points[1], case
        if points[0] is None:
            counts["empty"] += 1
            continue
        counts["projected"] += 1
        dual = np.concatenate([-np.linalg.solve(metric._chol, A.T), (A @ x - b)[None, :]])
        target = np.r_[np.zeros(s.dim), 1.0]
        (u, rnorm), (u_ref, rnorm_ref) = engine(dual, target), nnls(dual, target)
        active, active_ref = u > 0.0, u_ref > 0.0
        if case % 3 == 1:
            active[0], active_ref[0] = active[:2].any(), active_ref[:2].any()
            active[1] = active_ref[1] = False
        assert np.array_equal(active, active_ref), case
        assert rnorm > 0.0 and rnorm_ref > 0.0
    assert counts["projected"] > 300 and counts["empty"] > 20


def test_nnls_stops_once_the_target_is_fit_to_rounding():
    # the dual of this empty set fits its target exactly with two columns;
    # the gradient left is rounding noise, on which the active-set loop
    # cycled two more columns in and out until its iteration limit
    s, metric, x = list(_ldp_cases(np.random.default_rng(78), 341))[-1]
    with pytest.raises(ProjectionError):
        s.project(metric, x)


def test_box_under_coupled_metric():
    # coupled P makes the clamp wrong; e.g. pulling x1 down drags x2 along
    m = Metric([[1.0, 0.9], [0.9, 1.0]])
    box = Box([0.0, 0.0], [1.0, 1.0])
    x = np.array([2.0, 0.5])
    p = box.project(m, x).point
    rows = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([1.0, 0.0, 1.0, 0.0]))
    oracle = grid_project(m.P, rows, x, [0.0, 0.0], [1.0, 1.0])
    assert np.allclose(p, oracle, atol=1e-3)
    clamp = np.clip(x, 0.0, 1.0)
    assert np.linalg.norm(p - clamp) > 1e-3  # genuinely different from the clamp


def test_ball_under_weighted_metric():
    rng = np.random.default_rng(28)
    P = random_spd(rng, 2)
    m = Metric(P)
    ball = Ball([0.5, -1.0], 2.0)
    for _ in range(10):
        x = 8.0 * rng.standard_normal(2)
        if ball.contains(x):
            continue
        p = ball.project(m, x).point
        assert np.linalg.norm(p - [0.5, -1.0]) == pytest.approx(2.0, abs=1e-9)
        # optimality via the variational inequality over sampled members
        nus = sample_points(ball, 200, rng=29)
        assert np.max((nus - p) @ (P @ (x - p))) <= 1e-9


def test_isotropic_metric_ball_is_radial():
    m = Metric(2.5 * np.eye(2))
    p = Ball([0.0, 0.0], 1.0).project(m, [3.0, 4.0]).point
    assert np.allclose(p, [0.6, 0.8], atol=1e-12)


def test_a_round_ellipsoid_projects_radially():
    # K = 2 R, R a rotation, and P = 4 I make S = K^{-T} P K^{-1} = I exactly:
    # the preimage is a disc of radius 1/2 about c = K^{-1} d, and the root
    # find's secular function is linear in nu, so it lands on the radial point
    K = np.array([[0.0, -2.0], [2.0, 0.0]])
    x, c = np.array([3.0, 4.0]), np.array([0.0, -0.5])
    res = LinearPreimage(K, Ball([1.0, 0.0], 1.0)).project(Metric(4.0 * np.eye(2)), x)
    assert np.allclose(res.point, c + 0.5 * (x - c) / np.linalg.norm(x - c), rtol=0.0, atol=1e-15)
    res = Ball([0.0, 0.0], 1.0).project(Metric(2.5 * np.eye(2)), x)
    assert np.allclose(res.point, x / np.linalg.norm(x), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# constructors and error paths

def test_empty_box_rejected():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])


@pytest.mark.parametrize("lower, upper", [
    ([np.inf], [np.inf]),
    ([-np.inf], [-np.inf]),
    ([0.0, np.inf], [1.0, np.inf]),
])
def test_a_box_with_an_infinite_empty_side_is_rejected(lower, upper):
    # lower <= upper holds, but no finite row is left: membership and
    # projection would treat an empty box as the whole space
    with pytest.raises(ValueError, match="box is empty"):
        Box(lower, upper)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_a_non_finite_halfspace_offset_is_rejected(offset):
    # a NaN offset puts every point outside, -inf is the empty set and +inf
    # the whole space; Polyhedron rejects the same row
    with pytest.raises(ValueError, match="halfspace offset must be finite"):
        Halfspace([1.0, 0.0], offset)


def test_nan_bounds_rejected():
    with pytest.raises(ValueError):
        Box([np.nan], [1.0])


def test_ball_radius_positive():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)


def test_empty_polyhedron_rejected():
    # x <= -1 and -x <= -1 (i.e. x >= 1) cannot hold together
    with pytest.raises(ValueError):
        Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_a_far_empty_slab_is_rejected(gap):
    # 1.5e6 + gap <= x_0 <= 1.5e6: a row's rounding scale |b_i| + |a_i| |v|
    # is 3e6, so a gap of 1e-4 is 3e4 times the 1e-12 the rule allows; a
    # scale of 1 + max|b| alone once let MEMBERSHIP_TOL * 1.5e6 = 1.5e-3 pass
    A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    with pytest.raises(ValueError):
        Polyhedron(A, [1.5e6, -1.5e6 - gap, 1.0, 1.0])
    Polyhedron(A, [1.5e6, -1.5e6, 1.0, 1.0])  # the segment at gap 0 is kept


def test_a_near_miss_is_projected_again_from_its_polished_point(monkeypatch):
    # Chebyshev radius over 1 and rows of norm 5e-4 to 4e2; row 3 passes within
    # 3e-7 of the origin's projection, about 1600 away.  On the unscaled dual,
    # rounding left rows 1, 2 and 3 active instead of 1, 2 and 5, and a second
    # NNLS from the polished point was needed; the scaled dual finds rows 1, 2
    # and 5 in one solve, and their projection is exact
    import dpic.sets as sets_mod

    A = np.array([
        [-32.5510587552104, 19.9736096674337, -16.919917970913687],
        [388.7900725050906, 126.95164660566711, 121.15384401645697],
        [-0.6814424555321092, -1.0960228982989266, 0.8608085735140844],
        [-0.08764289593949662, -0.21243367867363755, -0.1826771897243562],
        [102.70015494078733, 20.79626633169628, -139.08945727716073],
        [-0.2960726675248792, -0.05850563245665362, -0.14826782577548997],
        [-0.0005453374390075362, -0.0011205493006941946, 0.0004468084428385781]])
    b = np.array([82890.7109248362, 300464.04082496744, -1346.2285357090477,
                  -436.3250331325141, 93680.88857699554, -197.68294657283207,
                  -0.11848288858444701])
    solves = []

    def counted(E, f):
        solves.append(1)
        return nnls_engine(E, f)

    nnls_engine = sets_mod._nnls
    monkeypatch.setattr(sets_mod, "_nnls", counted)
    poly = Polyhedron(A, b)  # whose emptiness test projects the origin
    assert len(solves) == 1
    result = poly.project(Metric.identity(3), np.zeros(3))
    assert len(solves) == 2 and result.warm[0].tolist() == [1, 2, 5]
    point = result.point
    # the least-norm solution of rows 1, 2 and 5 held to equality, by SVD
    exact = np.linalg.lstsq(A[[1, 2, 5]], b[[1, 2, 5]], rcond=None)[0]
    assert np.max(np.abs(point - exact)) <= 1e-12 * np.linalg.norm(exact)

    # a thin 2-D cone {A z <= 0}: draw 38 of the rows of
    # test_bounding_box_sides_reach_highs_where_the_dual_misses_its_axis, column 0
    # times 1e-3.  The first NNLS leaves rows 0 and 2 active, and their polish
    # misses by under 1e-8 of its rounding scale; the second, from that point,
    # leaves rows 3 and 4, the face
    rng = np.random.default_rng(11)
    for _ in range(39):
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(dim + 1, 3 * dim + 4))
        A = rng.standard_normal((rows, dim))
        rng.uniform(0.5, 2.0, rows)  # the offsets of that test's polytope
    A[:, 0] *= 1e-3
    cone = Polyhedron(A, np.zeros(rows))
    x = np.array([-0.2236985966510682, 0.5351437739259405])
    solves.clear()
    result = cone.project(Metric.identity(2), x)
    point = result.point
    assert len(solves) == 2
    assert result.warm[0].tolist() == [3, 4]
    exact = nullspace_project(np.eye(2), A, np.zeros(rows), x)
    assert np.max(np.abs(point - exact)) <= 1e-15 * (1.0 + np.linalg.norm(x))


def _chebyshev_radius(A, b):
    """Radius r of the largest ball {|v - c| <= r} in {v : A v <= b}, capped at
    1 so that the LP is bounded, and negative when the set is empty: then no
    point is within -r of every facet."""
    from scipy.optimize import linprog

    dim = A.shape[1]
    res = linprog(np.r_[np.zeros(dim), -1.0], A_ub=np.c_[A, np.linalg.norm(A, axis=1)],
                  b_ub=b, bounds=[(None, None)] * dim + [(None, 1.0)], method="highs")
    assert res.status == 0, res.message
    return res.x[-1]


def test_emptiness_verdicts_follow_the_chebyshev_radius():
    # rows of norm 1e-3 to 1e3 at distances t_i from a center c with |c| up to
    # about 1e3, so |b| reaches about 1e6; half of the rows sit at t_i = r with
    # r of either sign, 1e-16 to 1 times the set's size, so most draws are
    # slivers or near misses.  With the radius normalized by the set's scale,
    # 1 + max |b_i| / |a_i|, every set above 1e-12 is kept and every set below
    # -1e-11 is rejected; in between the verdict is rounding.  3000 draws from
    # each of seeds 0-7 put that band inside [-7.2e-13, 1.4e-15].
    rng = np.random.default_rng(90)
    kept = rejected = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        rows = int(rng.integers(dim + 1, 13))
        g = rng.standard_normal((rows, dim))
        g /= np.linalg.norm(g, axis=1)[:, None]
        c = 10.0 ** rng.uniform(0.0, 3.0) * rng.standard_normal(dim)
        size = 1.0 + np.linalg.norm(c)
        r = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, 0.0) * size
        t = np.where(rng.random(rows) < 0.5, r, r + rng.uniform(0.0, size, rows))
        norms = 10.0 ** rng.uniform(-3.0, 3.0, rows)
        A, b = norms[:, None] * g, norms * (g @ c + t)
        rho = _chebyshev_radius(A, b) / (1.0 + np.max(np.abs(b) / norms))
        if -1e-11 <= rho <= 1e-12:
            continue
        try:
            Polyhedron(A, b)
        except ValueError:
            assert rho < 0.0, rho
            rejected += 1
        else:
            assert rho > 0.0, rho
            kept += 1
    assert kept > 500 and rejected > 50


def test_far_emptiness_verdicts_follow_the_chebyshev_radius():
    # members up to 1e5 from the origin, 3-40 rows of norms 1e-3 to 1e3, and
    # half of the rows at distance r of either sign, 1e-16 to 1 times the
    # set's size of 1e-2 to 1e3.  Far from the origin the last row of an
    # unscaled least-distance dual dwarfed the others, and the origin's
    # projection failed on 7 of these nonempty sets, whose normalized radii
    # reached 2.8e-7; on the scaled dual it keeps them, and no empty set
    rng = np.random.default_rng(0)
    kept = rejected = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(dim + 1, 41))
        g = rng.standard_normal((rows, dim))
        g /= np.linalg.norm(g, axis=1)[:, None]
        c = 10.0 ** rng.uniform(0.0, 5.0) * rng.standard_normal(dim) / np.sqrt(dim)
        size = 10.0 ** rng.uniform(-2.0, 3.0)
        r = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, 0.0) * size
        t = np.where(rng.random(rows) < 0.5, r, r + rng.uniform(0.0, size, rows))
        norms = 10.0 ** rng.uniform(-3.0, 3.0, rows)
        A, b = norms[:, None] * g, norms * (g @ c + t)
        rho = _chebyshev_radius(A, b) / (1.0 + np.max(np.abs(b) / norms))
        if -1e-11 <= rho <= 1e-12:
            continue
        try:
            poly = Polyhedron(A, b)
        except ValueError:
            assert rho < 0.0, rho
            rejected += 1
        else:
            assert rho > 0.0, rho
            member = poly.project(Metric.identity(dim), np.zeros(dim)).point
            assert (A @ member - b <= MEMBERSHIP_TOL * (1.0 + np.abs(b))).all()
            kept += 1
    assert kept > 400 and rejected > 150


def test_the_member_is_the_origins_projection_wherever_that_is_found():
    # on the rows of _ldp_cases seeds 71-90, a Polyhedron's member, the
    # origin's projection, is the rows' bit for bit; it rejects exactly where
    # that projection fails, and projects every point as the rows do
    empty = 0
    for seed in range(71, 91):
        for s, metric, x in _ldp_cases(np.random.default_rng(seed), 60):
            _, A, b, _ = s._parts
            try:
                origin = s.project(Metric.identity(s.dim), np.zeros(s.dim)).point
            except ProjectionError:
                with pytest.raises(ValueError, match="empty"):
                    Polyhedron(A, b)
                empty += 1
                continue
            poly = Polyhedron(A, b)
            member = poly.project(Metric.identity(s.dim), np.zeros(s.dim)).point
            assert member.tobytes() == origin.tobytes()
            assert poly.project(metric, x).point.tobytes() == s.project(metric, x).point.tobytes()
    assert empty > 100


@pytest.mark.parametrize("far, empty", [
    (1e9, False), (1e3, True), (1e5, True), (1e7, True), (1e9, True)])
def test_a_polyhedron_keeps_its_verdict_far_from_the_origin(far, empty):
    # the origin's projection decides: on the unscaled dual it failed on 37 of
    # these nonempty sets at |c| = 1e9, and a retry from its polished point
    # kept 4, 6, 5 and 1 of the empty slabs at 1e3 to 1e9, with a "member"
    # outside a row; a kept member meets every row to the projection's rule
    for A, b in far_polyhedra(far, empty):
        if empty:
            with pytest.raises(ValueError, match="empty"):
                Polyhedron(A, b)
            continue
        poly = Polyhedron(A, b)
        member = poly.project(Metric.identity(poly.dim), np.zeros(poly.dim)).point
        norms = np.linalg.norm(A, axis=1)
        assert np.all(A @ member - b <= 1e-12 * (np.abs(b) + norms * np.linalg.norm(member)))


def test_a_far_projection_onto_ill_scaled_rows_is_found():
    # row norms from 1e-2 to 1e2, and the origin's projection lies about 4000
    # away on rows 1, 2 and 3; rounding there leaves the polished point
    # 2e-10 outside row 1, which its row's rounding scale |b_1| + |a_1| |v|,
    # about 3.5e5, holds within 1e-12 of
    A = np.array([
        [0.002667301176943254, 0.012444414780795643, 0.004275501393000956, 0.0008553129173619926],
        [-65.6140307086978, 3.9198323060717044, 58.67188274555038, 2.7946543628997076],
        [-16.73724986228286, 6.7257751570971385, -10.175548472926238, -1.5231794940857424],
        [0.005536870792749539, -0.00019747824853486986, -0.002911715860743649,
         -0.0010710960191937435]])
    b = np.array([2.689800411951827, -1.271763476518729, -0.2174056849934776,
                  -4.5684403030543965])
    point = Polyhedron(A, b).project(Metric.identity(4), np.zeros(4)).point
    assert np.max(A @ point - b) <= MEMBERSHIP_TOL * (1.0 + np.max(np.abs(b)))
    # the equality-constrained projection onto rows 1-3, with positive multipliers
    S = A[1:]
    lam = np.linalg.solve(S @ S.T, -b[1:])
    assert np.all(lam > 0.0)
    assert np.allclose(point, -S.T @ lam, rtol=1e-9, atol=0.0)


def test_singular_preimage_rejected():
    with pytest.raises(ValueError):
        LinearPreimage([[1.0, 1.0], [1.0, 1.0]], Box([0.0, 0.0], [1.0, 1.0]))


def test_nonsquare_preimage_rejected():
    with pytest.raises(ValueError):
        LinearPreimage([[1.0, 0.0]], Box([0.0], [1.0]))


def test_projection_dimension_mismatch():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 1.0]).project(I2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Box([0.0], [1.0]).project(I2, [0.5])  # metric dim 2, set dim 1


@pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 0.0], [0.5, -np.inf]])
@pytest.mark.parametrize("make", [
    lambda: Box([0.0, 0.0], [1.0, 1.0]),
    lambda: Halfspace([1.0, 0.0], 1.0),
    lambda: Ball([0.0, 0.0], 1.0),
    lambda: Polyhedron([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    lambda: Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 1.0], 1.0)]),
    lambda: LinearPreimage([[2.0, 0.0], [1.0, 1.0]], Box([0.0, 0.0], [1.0, 1.0])),
], ids=["box", "halfspace", "ball", "polyhedron", "intersection", "preimage"])
def test_every_set_rejects_a_non_finite_point(make, point):
    # one answer for every class, under a diagonal and a coupled metric: no
    # NaN point, no "empty set" and no RuntimeWarning (an error under pytest)
    for metric in (I2, Metric([[2.0, 0.3], [0.3, 1.0]])):
        with pytest.raises(ValueError, match="must be finite"):
            make().project(metric, point)


def test_disjoint_intersection_raises():
    for s in (Intersection([Ball([0.0, 0.0], 1.0), Box([5.0, 5.0], [6.0, 6.0])]),
              Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([1.0, 1.0], -1.0)])):
        with pytest.raises(ProjectionError):
            s.project(I2, [3.0, 3.0])


# ---------------------------------------------------------------------------
# a ball with polyhedral members

def test_ball_box_intersection():
    # the ball is active, so its multiplier takes a root find
    s = Intersection([Ball([0.0, 0.0], 1.0), Box([0.3, -2.0], [2.0, 2.0])])
    res = s.project(I2, [2.0, 1.5])
    assert res.iterations > 0
    assert res.residual < 1e-10
    assert s.contains(res.point)
    # optimality over sampled members
    nus = sample_points(s, 300, rng=31)
    assert np.max((nus - res.point) @ (np.array([2.0, 1.5]) - res.point)) <= 1e-8


def test_ball_engine_matches_enumeration_on_polyhedron():
    # same polygon projected through the ball engine by wrapping the rows
    # as separate halfspaces with a ball so the combined-rows shortcut
    # cannot apply
    big_ball = Ball([20.0, 20.0], 200.0)  # inactive everywhere near the polygon
    s = Intersection([big_ball, Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 1.0], 85.0)])
    for x in ([46.0, 44.0], [50.0, 44.0], [60.0, 10.0]):
        direct = input_polygon().project(I2, x).point
        with_ball = s.project(I2, x).point
        assert np.allclose(direct, with_ball, atol=1e-8)


def kkt_residuals(P, ball, A, b, x, v, K=None):
    """Worst feasibility, complementary slackness and stationarity of v as
    the projection of x onto {v : K v in ball} ∩ {A v <= b} in the P norm
    (K = I by default), each relative, plus the multipliers (rows, then the
    ball's) that NNLS fits to them.

    Rows and the ball's outward normal K^T (K v - c) are unit vectors, so
    every multiplier and every slack reads on the scale of |P (x - v)| and
    of distances.
    """
    K = np.eye(v.size) if K is None else K
    norms = np.linalg.norm(A, axis=1)
    A, b = A / norms[:, None], b / norms
    out = K @ v - ball.center
    radial = np.linalg.norm(out)
    normal = K.T @ out
    normals = np.vstack([A, normal / np.linalg.norm(normal)])
    slack = np.append(b - A @ v, ball.radius - radial)
    scale = 1.0 + np.max(np.abs(b)) + ball.radius
    active = slack <= 1e-9 * scale
    g = P @ (x - v)
    g_scale = max(np.linalg.norm(g), 1e-300)
    mult = np.zeros(slack.size)
    if active.any():
        mult[active], _ = nnls(normals[active].T, g)
    return (max(-slack.min(), 0.0) / scale,
            np.max(mult * np.abs(slack)) / (g_scale * scale),
            np.linalg.norm(g - normals.T @ mult) / g_scale,
            mult)


def ball_polygon_cases():
    """P, ball, rows and x on which Dykstra's alternating scheme stops early:
    at (1.479, 1.813) for case 0, and 0.26 off, objective 47.342, for case 1."""
    return [
        (np.array([[0.55, -0.09], [-0.09, 2.25]]), Ball([1.43, 1.31], 1.94),
         np.array([[-0.71, -0.16], [0.06, -1.67], [0.32, -1.05]]),
         np.array([-1.34, -1.74, -1.43]), np.array([11.96, -3.52])),
        (np.array([[2.62, -0.03], [-0.03, 1.78]]), Ball([-1.44, -0.57], 0.76),
         np.array([[1.5, -0.15], [1.03, -1.91], [0.82, 0.36], [-1.16, -1.72]]),
         np.array([-2.35, -0.52, -1.54, 2.47]), np.array([1.88, 2.46])),
    ]


@pytest.mark.parametrize("case", range(2))
def test_ball_polygon_projection_is_optimal(case):
    P, ball, A, b, x = ball_polygon_cases()[case]
    v = Intersection([ball, Polyhedron(A, b)]).project(Metric(P), x).point
    feasibility, slackness, stationarity, mult = kkt_residuals(P, ball, A, b, x, v)
    assert max(feasibility, slackness, stationarity) <= 1e-12
    assert np.all(mult >= 0.0)
    # at case 0's corner the row multiplier is 13 times the ball's
    r = ball.radius
    oracle = grid_project(P, (A, b), x, ball.center - r, ball.center + r,
                          stages=10, points=121, window=20,
                          member=lambda nodes: _row_norms(nodes - ball.center) <= r)
    assert np.allclose(v, oracle, atol=1e-3)
    assert (v - x) @ P @ (v - x) <= (oracle - x) @ P @ (oracle - x)
    if case == 0:
        assert np.allclose(v, [3.0953, 2.3052], atol=1e-4)
    else:
        assert (v - x) @ P @ (v - x) == pytest.approx(47.219, abs=1e-3)


@pytest.mark.parametrize("weights", [np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])])
@pytest.mark.parametrize("member, point", [
    (Halfspace([1.0, 0.0], -1.0), [-1.0, 0.0]),
    (Box([1.0, -5.0], [5.0, 5.0]), [1.0, 0.0]),
    (Halfspace([1.0, 1.0], -np.sqrt(2.0)), [-np.sqrt(0.5), -np.sqrt(0.5)]),
])
def test_a_tangent_set_projects_to_its_single_point(weights, member, point):
    s = Intersection([Ball([0.0, 0.0], 1.0), member])
    for x in ([3.0, 2.0], [-4.0, -0.5], [0.0, 0.0]):
        p = s.project(Metric(weights), x).point
        assert np.allclose(p, point, atol=1e-12)
        assert s.contains(p)
    lower, upper = s.bounding_box()  # the ball's box and the rows' meet
    assert np.all(lower <= upper + MEMBERSHIP_TOL)


def test_a_ball_beside_empty_rows_raises_projection_error():
    # the rows alone, x_0 >= 1 and x_0 <= -1, have no member: projecting onto
    # them inside the ball's root find finds that, as any empty row set does
    s = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -1.0),
                      Halfspace([-1.0, 0.0], -1.0)])
    with pytest.raises(ProjectionError):
        s.project(I2, [3.0, 2.0])


def test_ball_intersection_meets_kkt_under_random_metrics():
    rng = np.random.default_rng(41)
    ball_active = 0
    for _ in range(150):
        dim = int(rng.integers(2, 5))
        P = random_spd(rng, dim)
        ball = Ball(rng.standard_normal(dim), rng.uniform(0.5, 2.0))
        A = rng.standard_normal((int(rng.integers(1, 6)), dim))
        inside = ball.center + 0.5 * ball.radius * rng.uniform(-1.0, 1.0, dim) / np.sqrt(dim)
        b = A @ inside + rng.uniform(0.0, 1.5, A.shape[0])
        x = ball.center + 5.0 * rng.standard_normal(dim)
        v = Intersection([ball, Polyhedron(A, b)]).project(Metric(P), x).point
        feasibility, slackness, stationarity, mult = kkt_residuals(P, ball, A, b, x, v)
        assert max(feasibility, slackness, stationarity) <= 1e-12
        assert np.all(mult >= 0.0)  # the row multipliers and nu
        ball_active += mult[-1] > 0.0
    assert ball_active > 100  # the ball binds (nu > 0) in 124 of the 150


def test_a_curved_projection_builds_no_metric_and_keeps_the_rows_factors(monkeypatch):
    # every trial's row factors come from one eigendecomposition, so the rows
    # keep the caller's metric's factors for the next projection
    rng = np.random.default_rng(67)
    metric = Metric(random_spd(rng, 4))
    poly = _random_polytope(rng, 4, 12)
    s = Intersection([Ball(np.zeros(4), 1.0), poly])
    x = np.array([-1.8, -0.6, 4.9, 0.2])
    built, init = [], Metric.__init__
    monkeypatch.setattr(Metric, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    res = s.project(metric, x)
    assert res.iterations > 0 and not built
    assert s._factors[0] is metric  # kept on the set itself
    assert poly.margin(res.point) <= MEMBERSHIP_TOL  # a row binds: the trials projected


def test_a_root_finding_trial_on_the_ball_center_reads_as_inside():
    # at 1e16 the spacing of doubles is 2, so every trial point within 1 of
    # the center rounds onto it: |v - c| = 0 is inside, not a division by zero
    c = np.array([1e16, 1e16])
    res = Ball(c, 1.0).project(Metric([[2.0, 0.3], [0.3, 1.0]]), c + [8.0, 4.0])
    assert res.iterations > 0
    assert Ball(c, 1.0).margin(res.point) >= 0.0  # |v - c| <= 1 exactly


def test_a_ball_beside_the_whole_space_projects_as_the_ball_alone():
    # a box with only infinite bounds has no rows, so the intersection is one
    # ellipsoid with no rows, as the ball is: the same root find, bit for bit
    rng = np.random.default_rng(83)
    whole = Box([-np.inf] * 2, [np.inf] * 2)
    found = 0
    for _ in range(200):
        ball = Ball(rng.standard_normal(2), rng.uniform(0.5, 2.0))
        metric = Metric(random_spd(rng, 2))
        x = ball.center + rng.uniform(0.0, 4.0) * rng.standard_normal(2)
        alone = ball.project(metric, x)
        res = Intersection([ball, whole]).project(metric, x)
        assert res.point.tobytes() == alone.point.tobytes()
        assert res.iterations == alone.iterations
        found += alone.iterations > 0
    assert found > 100


def test_an_empty_ball_intersection_raises():
    s = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -1.0 - 1e-6)])
    with pytest.raises(ProjectionError, match="empty"):
        s.project(Metric([[2.0, 0.3], [0.3, 1.0]]), [3.0, 2.0])


def test_an_intersection_beyond_one_ball_is_refused_when_built():
    # no engine projects onto two ellipsoids, so none is built; nested and
    # mapped members count too
    ball, box = Ball([0.0, 0.0], 1.0), Box([-1.0, -1.0], [1.0, 1.0])
    for members in ([ball, Ball([0.5, 0.0], 1.0)],
                    [Intersection([ball, box]), ball],
                    [box, LinearPreimage([[2.0, 0.0], [1.0, 1.0]], ball), ball]):
        with pytest.raises(ValueError, match="at most one non-polyhedral member"):
            Intersection(members)


def test_a_nested_intersection_reads_as_its_flat_form_bit_for_bit():
    # a member intersection stacks its own members' parts in order, so every
    # nesting of the same members has the flat form's parts, and with them
    # its membership, margin, bounding box and projections, bit for bit
    box, half = Box([-1.0, -2.0], [2.0, 1.5]), Halfspace([1.0, 1.0], 1.0)
    ball = Ball([0.5, -0.5], 2.0)
    pre = LinearPreimage([[2.0, 0.0], [1.0, 1.0]], Box([-2.0, -2.0], [4.0, 4.0]))
    cases = [
        ((box, half, pre), [Intersection([Intersection([box, half]), pre]),
                            Intersection([box, Intersection([Intersection([half]), pre])])]),
        ((box, half, ball, pre), [Intersection([Intersection([box, half]),
                                                Intersection([ball, pre])]),
                                  Intersection([box, Intersection([half, Intersection([ball]),
                                                                   pre])])]),
    ]
    rng = np.random.default_rng(43)
    points = np.vstack([4.0 * rng.standard_normal((30, 2)), [[2.0, -1.0], [np.nan, 0.0]]])
    metrics_ = [I2, Metric(random_spd(rng, 2)), Metric([[2.0, 0.3], [0.3, 1.0]])]
    for members, nested in cases:
        for s in nested:
            flat = Intersection(members)
            (ellipsoids, *rows), (flat_ellipsoids, *flat_rows) = s._parts, flat._parts
            assert len(ellipsoids) == len(flat_ellipsoids)
            for got, want in zip(ellipsoids, flat_ellipsoids):
                assert all(same_bits(g, w) for g, w in zip(got, want))
            assert all(same_bits(g, w) for g, w in zip(rows, flat_rows))
            assert np.array_equal(s._contains(points), flat._contains(points))
            assert same_bits(s.margin(points), flat.margin(points))
            assert all(same_bits(g, w) for g, w in zip(s.bounding_box(), flat.bounding_box()))
            for metric in metrics_:
                for x in points[:-1]:  # all but the NaN
                    got, want = s.project(metric, x), flat.project(metric, x)
                    assert same_bits(got.point, want.point)
                    assert got.iterations == want.iterations


def _ball_box_gains(rng, count):
    """(K, ball, box, P, x): a ball and a box about its center in the input
    space, a non-diagonal gain K with condition number below 30, a coupled
    metric P, and a point x whose projection the ball mostly binds."""
    cases = []
    while len(cases) < count:
        dim = int(rng.integers(2, 5))
        K = rng.standard_normal((dim, dim))
        if np.linalg.cond(K) > 30.0:
            continue
        ball = Ball(rng.standard_normal(dim), rng.uniform(0.5, 2.0))
        box = Box(ball.center - ball.radius * rng.uniform(0.1, 1.2, dim),
                  ball.center + ball.radius * rng.uniform(0.1, 1.2, dim))
        u = ball.center + 4.0 * ball.radius * rng.standard_normal(dim)
        cases.append((K, ball, box, random_spd(rng, dim), np.linalg.solve(K, u)))
    return cases


def test_a_balls_preimage_with_a_box_projects_as_the_change_of_variables_does():
    # Gamma = {eta : K eta in ball ∩ box} projects in eta-space, one curved
    # member and the box rows times K; the inner-space projection under
    # K^{-T} P K^{-1}, mapped back, is the reference
    ball_active = 0
    for K, ball, box, P, x in _ball_box_gains(np.random.default_rng(61), 200):
        gamma = LinearPreimage(K, Intersection([ball, box]))
        v = gamma.project(Metric(P), x).point
        oracle = change_of_variables_project(K, gamma.inner, Metric(P), x)
        assert np.linalg.norm(v - oracle) <= 1e-12 * np.linalg.norm(oracle)
        _, A, b, _ = box._parts
        feasibility, slackness, stationarity, mult = kkt_residuals(P, ball, A @ K, b, x, v, K)
        # the rows A K and their multipliers grow with K's condition number
        assert max(feasibility, slackness, stationarity) <= 1e-12 * np.linalg.cond(K)
        assert np.all(mult >= 0.0)
        # x - v lies in the normal cone at v: the ball's tight normal and the rows'
        assert normal_cone_residual(gamma, Metric(P), v, x - v) <= 1e-12 * Metric(P).norm(x - v)
        ball_active += mult[-1] > 0.0
    assert ball_active > 120  # the ball binds in 142 of the 200


def test_gamma_of_a_ball_meets_a_box_in_its_own_space():
    # Intersection([gamma, box]) reads gamma member by member: the ball's
    # preimage is the one curved member, and both boxes are rows in eta
    rng = np.random.default_rng(62)
    cases = []
    for K, ball, box, P, x in _ball_box_gains(rng, 100):
        member = LinearPreimage(K, Intersection([ball, box])).project(
            Metric(np.eye(K.shape[0])), np.zeros(K.shape[0])).point
        width = 0.5 * np.abs(np.linalg.solve(K, np.full(K.shape[0], ball.radius)))
        eta_box = Box(member - width * rng.uniform(0.1, 1.0, member.size), member + width)
        cases.append((K, ball, box, eta_box, P, x))
    # the input that raised "at most one non-polyhedral member" before
    cases.append((np.diag([2.0, 1.0]), Ball([0.0, 0.0], 1.0), Box([-np.inf] * 2, [np.inf] * 2),
                  Box([-1.0, -1.0], [1.0, 1.0]), np.eye(2), np.array([3.0, 2.0])))
    binds = np.zeros(2, dtype=int)  # the ball, a row of eta_box
    for K, ball, box, eta_box, P, x in cases:
        v = Intersection([LinearPreimage(K, Intersection([ball, box])), eta_box]).project(
            Metric(P), x).point
        inner = Intersection([ball, box, LinearPreimage(np.linalg.inv(K), eta_box)])
        oracle = change_of_variables_project(K, inner, Metric(P), x)
        assert np.linalg.norm(v - oracle) <= 1e-12 * np.linalg.norm(oracle)
        (_, A_in, b_in, _), (_, A_eta, b_eta, _) = box._parts, eta_box._parts
        feasibility, slackness, stationarity, mult = kkt_residuals(
            P, ball, np.vstack([A_in @ K, A_eta]), np.concatenate([b_in, b_eta]), x, v, K)
        assert max(feasibility, slackness, stationarity) <= 1e-12 * np.linalg.cond(K)
        assert np.all(mult >= 0.0)
        binds += [mult[-1] > 0.0, (mult[b_in.size:-1] > 0.0).any()]
    assert binds[0] > 25 and binds[1] > 70  # 34 and 82 of the 101


# ---------------------------------------------------------------------------
# preimage geometry

def test_preimage_membership_reads_its_own_rows():
    # {eta : K eta in C} answers from its rows A K, over the inner row norms
    K = np.array([[2.0, 0.0], [0.0, 4.0]])
    inner = Box([0.0, 0.0], [4.0, 4.0])
    s = LinearPreimage(K, inner)
    assert np.array_equal(s._parts[1], inner._parts[1] @ K)
    assert s.contains([2.0, 1.0])        # K eta = (4, 4) on the boundary
    assert not s.contains([2.1, 1.0])
    assert s.margin([1.0, 0.5]) == pytest.approx(2.0)  # the margin of K eta in C


def test_preimage_projection_polyhedral_path():
    K = np.array([[2.0, 1.0], [0.0, 1.0]])
    s = LinearPreimage(K, input_polygon())
    rng = np.random.default_rng(32)
    for _ in range(10):
        eta = rng.uniform(-10.0, 40.0, size=2)
        p = s.project(I2, eta).point
        assert s.contains(p)
        nus = sample_points(s, 150, rng=33)
        assert np.max((nus - p) @ (eta - p)) <= 1e-8


def test_preimage_projection_ball_inner():
    # a ball's preimage is an ellipsoid, projected in the preimage's own space
    K = np.array([[1.0, 0.5], [0.0, 1.0]])
    s = LinearPreimage(K, Ball([0.0, 0.0], 1.0))
    eta = np.array([3.0, -2.0])
    p = s.project(I2, eta).point
    assert np.linalg.norm(K @ p) == pytest.approx(1.0, abs=1e-9)
    nus = sample_points(s, 300, rng=34)
    assert np.max((nus - p) @ (eta - p)) <= 1e-8


# ---------------------------------------------------------------------------
# bounding boxes and sampling

def test_box_bounding_box_is_itself():
    lo, hi = Box([0.0, -1.0], [2.0, 3.0]).bounding_box()
    assert np.allclose(lo, [0.0, -1.0]) and np.allclose(hi, [2.0, 3.0])


def test_polygon_bounding_box():
    lo, hi = input_polygon().bounding_box()
    assert np.allclose(lo, [0.0, 0.0], atol=1e-8)
    assert np.allclose(hi, [45.0, 45.0], atol=1e-8)


def test_halfspace_bounding_box_unbounded():
    lo, hi = Halfspace([1.0, 0.0], 1.0).bounding_box()
    assert hi[0] == pytest.approx(1.0)
    assert np.isinf(lo[0]) and np.isinf(lo[1]) and np.isinf(hi[1])


def test_sampling_inside_and_deterministic():
    s = input_polygon()
    pts = sample_points(s, 500, rng=35)
    assert pts.shape == (500, 2)
    assert all(s.contains(p) for p in pts)
    again = sample_points(s, 500, rng=35)
    assert np.array_equal(pts, again)


def test_sampling_unbounded_rejected():
    with pytest.raises(ValueError):
        sample_points(Halfspace([1.0, 0.0], 1.0), 10, rng=0)


def test_sampling_negligible_volume():
    # a sliver of width 1e-12 across a unit box defeats rejection sampling:
    # 50 points get the budget of 1000 draws each, 50 000 in all
    A = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0],
                  [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1e-12, 1e-12, 1.0, 0.0, 1.0, 0.0])
    with pytest.raises(RuntimeError):
        sample_points(Polyhedron(A, b), 50, rng=0)


def test_sampling_single_point_set_rejected():
    # the LP bounds of a point may cross by rounding; either way it has no width
    K = np.array([[0.1, 0.0], [0.03, 0.07]])
    s = LinearPreimage(K, Box([0.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError, match="zero width along coordinate 0"):
        sample_points(s, 10, rng=0)


# ---------------------------------------------------------------------------
# normal-cone diagnostics

def test_normal_cone_at_corner():
    box = Box([0.0, 0.0], [1.0, 1.0])
    val = normal_cone_residual(box, I2, [0.0, 0.0], [-1.0, -1.0])
    assert val == 0.0


def test_normal_cone_interior_is_trivial():
    box = Box([0.0, 0.0], [1.0, 1.0])
    val = normal_cone_residual(box, I2, [0.5, 0.5], [1.0, 0.0])
    assert val > 0.0


def test_normal_cone_requires_membership():
    with pytest.raises(ValueError):
        normal_cone_residual(Box([0.0], [1.0]), Metric.identity(1), [2.0], [1.0])


def test_projection_residual_direction_is_normal():
    # x - proj(x) lies in the normal cone at proj(x), so its distance to the
    # cone is zero to rounding, on bounded and unbounded sets alike
    rng = np.random.default_rng(38)
    for s in all_test_sets():
        for m in metrics():
            for _ in range(5):
                x = 10.0 * rng.standard_normal(2)
                p = s.project(m, x).point
                val = normal_cone_residual(s, m, p, x - p)
                tol = 1e-9 * (1.0 + np.linalg.norm(x))
                assert 0.0 <= val <= tol, (s, m.P, x)


def test_normal_cone_residual_is_finite_along_an_unbounded_direction():
    # at (-1, 0) only the row -x0 <= 1 binds: d = (1, 0) points along the
    # set's open direction, and its distance to the cone {(-a, 0)} is 1
    s = Box([-1.0, -np.inf], [np.inf, 1.0])
    assert normal_cone_residual(s, I2, [-1.0, 0.0], [1.0, 0.0]) == 1.0
    assert normal_cone_residual(s, I2, [-1.0, 0.0], [-2.0, 0.0]) == 0.0
    assert normal_cone_residual(s, I2, [-1.0, 0.0], [-1.0, 1.0]) == 1.0
    assert normal_cone_residual(s, I2, [0.0, 0.0], [1.0, 0.0]) == 1.0


def test_four_tank_infeasible_segments_bind_the_named_rows():
    # segment 3 settles on the pump-1 cap box.upper[0] (row 0 of the input
    # polygon) and segment 4 on the total-flow cap, the halfspace (row 4)
    import dpic.sets as sets_mod
    from dpic import build_setup, preset_config, simulate

    setup = build_setup(preset_config("four-tank"))
    record = simulate(setup.scenario)
    gamma, metric = setup.controller.gamma, setup.metric
    polygon_rows = gamma.inner._parts[1]
    for seg, row, multiplier in ((3, 0, 3.461), (4, 4, 4.488)):
        last = record.segments[seg].end - 1
        normals = gamma._active_normals(record.eta[last])
        assert np.array_equal(normals, polygon_rows[[row]] @ gamma.K)
        lam, residual = sets_mod._nnls(np.linalg.solve(metric._chol, normals.T),
                                       metric.whiten(-record.e[last]))
        assert lam[0] == pytest.approx(multiplier, abs=1e-3)
        assert residual == record.segments[seg].normal_cone_residual <= 1e-10


# ---------------------------------------------------------------------------
# bounding boxes by weak duality

def _highs_box(A, b):
    """The exact (lower, upper) of {v : A v <= b}, one HiGHS LP per side."""
    units = np.eye(A.shape[1])
    return (np.array([-rows_support(A, b, -e) for e in units]),
            np.array([rows_support(A, b, e) for e in units]))


def test_box_bounding_box_is_its_bounds_bit_for_bit():
    # NNLS picks each bound's own row, so y.b is its offset: a lower bound l
    # reads -(0.0 - l), which is -0.0 where l is 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for box in (Box([0.0, -np.inf], [1.0, np.inf]), Box([-1.0, 0.5], [2.0, 3.0]),
                    Box([-np.inf, 1e-300, -7.25], [-7.5, 1e300, np.inf]),
                    Box([-np.inf] * 3, [np.inf] * 3)):
            lo, hi = box.bounding_box()
            assert same_bits(lo, -(0.0 - box.lower)) and same_bits(hi, box.upper)


def test_bounding_box_encloses_the_rows_linear_programs():
    # every polyhedral test set, and its preimage under a shear: the box holds
    # HiGHS' exact one, and reads inf on the same sides
    K = np.array([[2.0, 1.0], [0.5, 1.5]])
    for s in all_test_sets():
        for t in (s, LinearPreimage(K, s)):
            ellipsoids, A, b, _ = t._parts
            if ellipsoids:
                continue
            lo, hi = t.bounding_box()
            exact_lo, exact_hi = _highs_box(A, b)
            assert np.array_equal(np.isinf(lo), np.isinf(exact_lo))
            assert np.array_equal(np.isinf(hi), np.isinf(exact_hi))
            finite = np.isfinite(exact_lo), np.isfinite(exact_hi)
            assert (lo[finite[0]] <= exact_lo[finite[0]] + 1e-12).all()
            assert (hi[finite[1]] >= exact_hi[finite[1]] - 1e-12).all()


def test_bounding_box_encloses_highs_on_random_polytopes():
    # unit normals, offsets in [0.5, 1.5]: bounded, and looser than the exact
    # box only by the dual y that NNLS picks among those with A^T y = +-e_i
    rng = np.random.default_rng(40)
    for dim, rows in ((2, 6), (3, 12), (4, 20), (5, 40)):
        for _ in range(5):
            poly = _random_polytope(rng, dim, rows)
            lo, hi = poly.bounding_box()
            exact_lo, exact_hi = _highs_box(poly.A, poly.b)
            assert (lo <= exact_lo + 1e-12).all() and (hi >= exact_hi - 1e-12).all()
            assert np.prod(hi - lo) < 10.0 * np.prod(exact_hi - exact_lo)  # 1.01-6.3 here


def test_bounding_box_of_rows_tilted_off_a_recession_direction_is_infinite():
    # the rows of Box([-inf, 0], [1, inf]) turned by t: e_0 leans by t toward
    # the direction of recession e_1 for t > 0 and away from it for t < 0; one
    # NNLS reads a tilt of 1e-12 as it reads 1e-7, where a linear program
    # within HiGHS' dual tolerance of about 1e-7 reads a bound
    box = Box([-np.inf, 0.0], [1.0, np.inf])
    for tilt in (1e-7, 1e-12, 0.0, -1e-12):
        Q = np.array([[np.cos(tilt), -np.sin(tilt)], [np.sin(tilt), np.cos(tilt)]])
        for s in (LinearPreimage(Q, box), Polyhedron(box._parts[1] @ Q, [1.0, 0.0])):
            lo, hi = s.bounding_box()
            assert lo[0] == -np.inf and hi[1] == np.inf
            assert hi[0] == np.inf if tilt > 0.0 else hi[0] == pytest.approx(1.0, abs=1e-11)


def test_bounding_box_encloses_highs_on_ill_scaled_far_polyhedra():
    # 2-5 dimensions, up to 40 rows with norms 1e-3 to 1e3 around a member up
    # to 1e5 from the origin: every side HiGHS finds unbounded reads inf, and
    # every other side holds HiGHS' bound to 1e-12 of |HiGHS| + |center|
    rng = np.random.default_rng(41)
    infinite = finite = rejected = 0
    for _ in range(150):
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(1, 41))
        g = rng.standard_normal((rows, dim))
        g /= np.linalg.norm(g, axis=1)[:, None]
        center = 10.0 ** rng.uniform(0.0, 5.0) * rng.standard_normal(dim) / np.sqrt(dim)
        t = 10.0 ** rng.uniform(-2.0, 3.0) * rng.uniform(0.01, 1.0, rows)
        norms = 10.0 ** rng.uniform(-3.0, 3.0, rows)
        A, b = norms[:, None] * g, norms * (g @ center + t)
        try:
            poly = Polyhedron(A, b)
        except ValueError:  # nonempty by construction
            rejected += 1
            continue
        try:
            exact = _highs_box(A, b)
        except ValueError:  # HiGHS calls the set empty; the engine does not
            continue
        box = poly.bounding_box()
        for sign, got, expected in zip((-1.0, 1.0), box, exact):
            bounded = np.isfinite(expected)
            assert (got[~bounded] == expected[~bounded]).all()
            got, expected = got[bounded], expected[bounded]
            bound = 1e-12 * (np.abs(expected) + np.linalg.norm(center))
            assert (sign * (got - expected) >= -bound).all(), (got, expected)
            finite, infinite = finite + bounded.sum(), infinite + (~bounded).sum()
    assert finite > 600 and infinite > 100 and rejected == 0


def test_bounding_box_sides_reach_highs_where_the_dual_misses_its_axis():
    # NNLS reports residual 0 once its columns span the rows, so a dual y
    # whose A^T y misses +-e_i by up to 1.6e-7 here would give y.b short of
    # the side by that times |v|: on draw 20, 4757784087.8 where HiGHS finds
    # 4757784849.6.  Every fourth draw shrinks column 0 by 1e-7, which puts
    # the set far along axis 0.  On each side where HiGHS returns a point v*
    # feasible to 1e-12, the box reaches HiGHS' value to within
    # 1e-12 dim (|value| + |v*|_inf); a side whose dual misses reads inf
    rng = np.random.default_rng(11)
    sides = infinite = 0
    for draw in range(100):
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(dim + 1, 3 * dim + 4))
        A = rng.standard_normal((rows, dim))
        b = rng.uniform(0.5, 2.0, rows)
        if draw % 4 == 0:
            A[:, 0] *= 1e-7
        lower, upper = Polyhedron(A, b).bounding_box()
        for i, e in enumerate(np.eye(dim)):
            for c, side in ((e, upper[i]), (-e, -lower[i])):
                v = rows_maximizer(A, b, c)
                if v is None or not np.all(A @ v - b <= 1e-12 * (b + np.abs(A) @ np.abs(v))):
                    continue
                value = float(c @ v)
                sides, infinite = sides + 1, infinite + (side == np.inf)
                tol = 1e-12 * dim * (abs(value) + np.abs(v).max())
                assert side >= value - tol, (draw, i, c[i], side, value)
    assert sides >= 500 and infinite <= 60  # 544 and 45 with numpy 2.4 and scipy 1.17


def test_bounding_boxes_and_sampled_moduli_load_no_scipy():
    # in a fresh interpreter that fails every scipy import: the NNLS behind
    # bounding_box, and with it sample_points and estimate_mu_L over a
    # polytope, and the ball's root find under a coupled metric run on numpy alone
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from dpic import Ball, Box, Intersection, Metric, Polyhedron, estimate_mu_L, sample_points
        rng = np.random.default_rng(5)
        normals = rng.standard_normal((12, 3))
        poly = Polyhedron(normals / np.linalg.norm(normals, axis=1)[:, None], np.ones(12))
        lower, upper = poly.bounding_box()
        assert np.isfinite(lower).all() and np.isfinite(upper).all()
        assert sample_points(poly, 50, rng=1).shape == (50, 3)
        mu, L = estimate_mu_L(lambda eta: 2.0 * eta, poly, Metric.identity(3), samples=50)
        assert abs(mu - 2.0) < 1e-12 and abs(L - 2.0) < 1e-12
        res = Intersection([Ball([0.0, 0.0], 1.0), Box([0.3, -2.0], [2.0, 2.0])]).project(
            Metric([[2.0, 0.3], [0.3, 1.0]]), [2.0, 1.5])
        assert res.iterations > 0 and abs(np.linalg.norm(res.point) - 1.0) < 1e-12
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(dpic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()[-1]
    assert out == "ok"


def test_linear_preimage_of_a_ball_has_an_exact_bounding_box():
    # {x : |K x - center| <= r} spans c.center +- r |c| along coordinate i,
    # c = K^{-T} e_i the i-th row of K^{-1}: bit for bit, for the ball itself
    # (K = I) and for its preimages
    rng = np.random.default_rng(42)
    for dim in (1, 2, 3, 5):
        center, r = 10.0 * rng.standard_normal(dim), float(rng.uniform(0.1, 5.0))
        ball = Ball(center, r)
        for K in (None, rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)):
            s = ball if K is None else LinearPreimage(K, ball)
            Kinv = np.eye(dim) if K is None else np.linalg.inv(K)
            lo, hi = s.bounding_box()
            for i, e in enumerate(np.eye(dim)):
                up, down = Kinv.T @ e, Kinv.T @ -e
                assert same_bits(hi[i], up @ center + r * np.linalg.norm(up))
                assert same_bits(lo[i], -(down @ center + r * np.linalg.norm(down)))


def test_non_polyhedral_intersection_bounding_box_meets_its_parts_boxes():
    # the ball's exact box met with the box's own
    s = Intersection([Ball([0.0, 0.0], 1.0), Box([-2.0, -2.0], [0.5, 2.0])])
    lo, hi = s.bounding_box()
    assert np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [0.5, 1.0])


def test_bounding_box_of_a_set_without_rows_or_ellipsoid_is_not_implemented():
    class Disc(ConvexSet):
        dim = 2

    with pytest.raises(NotImplementedError, match="Disc has no"):
        Disc().bounding_box()


def test_bounding_box_of_a_ball_that_misses_its_rows_raises():
    # the ball's interval [-1, 1] and the box's [2, 3] are disjoint on both
    # axes: the set is empty, not a crossed box of zero width
    s = Intersection([Ball([0.0, 0.0], 1.0), Box([2.0, 2.0], [3.0, 3.0])])
    with pytest.raises(ValueError, match="empty"):
        s.bounding_box()
    with pytest.raises(ValueError, match="empty"):
        sample_points(s, 10, rng=0)
    with pytest.raises(ValueError, match="empty"):
        LinearPreimage(np.diag([2.0, 1.0]), s).bounding_box()


def test_bounding_box_of_an_empty_row_set_raises():
    # two disjoint halfspaces: their intersection is built, it has no member;
    # one NNLS per side alone would read the crossed interval [1, -1]
    empty = Intersection([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)])
    with pytest.raises(ValueError, match="empty"):
        empty.bounding_box()
    with pytest.raises(ValueError, match="empty"):
        LinearPreimage(np.diag([2.0, 1.0]), empty).bounding_box()


# ---------------------------------------------------------------------------
# batched margins and cached geometry

def test_batched_margin_equals_per_point_margin():
    rng = np.random.default_rng(36)
    K = np.array([[2.0, 1.0], [0.5, 1.5]])
    sets = (Box([0.0, -np.inf], [45.0, 45.0]), Halfspace([1.0, 2.0], 85.0),
            Ball([1.0, 2.0], 5.0), Polyhedron(*polygon_rows()), input_polygon(),
            LinearPreimage(K, input_polygon()))
    points = rng.uniform(-20.0, 60.0, size=(7, 2))
    for s in sets:
        batched = s.margin(points)
        assert batched.shape == (7,)
        # each row rounds exactly as the single-point call
        assert np.array_equal(batched, [s.margin(p) for p in points])
        assert isinstance(s.margin(points[0]), float)


def boundary_points(rng, s, offsets):
    """Points at each offset t from every boundary of s: a.x = b + t on each
    row (a, b), and |M x - d| = r + t on each ellipsoid, from random starts."""
    ellipsoids, A, b, _ = s._parts
    points = []
    for a, b_i in zip(A, b):
        x0 = rng.uniform(-4.0, 4.0, size=s.dim)
        points += [x0 + (b_i + t - a @ x0) / (a @ a) * a for t in offsets]
    for M, _, d, r in ellipsoids:
        u = rng.standard_normal(s.dim)
        points += [np.linalg.solve(M, d + (r + t) * u / np.linalg.norm(u)) for t in offsets]
    return points


def test_a_batch_row_keeps_its_solo_membership():
    # a (15, 2) x (2, 5) matrix product rounds about a third of its entries
    # other than the row's own matrix-vector product; place b_j with nextafter
    # so that point i sits on row j to MEMBERSHIP_TOL by its own product, and
    # the batch that the point rides in must not reject it
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 2))
    X = 3.0 * rng.standard_normal((15, 2))
    solo = np.array([A @ x for x in X])
    placed = 0
    for i, j in itertools.product(range(15), range(5)):
        b = np.abs(solo).max(axis=0) + 1.0
        b[j] = solo[i, j] - MEMBERSHIP_TOL
        while b[j] + MEMBERSHIP_TOL < solo[i, j]:
            b[j] = np.nextafter(b[j], np.inf)
        while b[j] + MEMBERSHIP_TOL > solo[i, j]:
            b[j] = np.nextafter(b[j], -np.inf)
        if b[j] + MEMBERSHIP_TOL != solo[i, j]:
            continue  # no offset rounds onto the product; none in this draw
        poly = Polyhedron(A, b)
        batch = poly._contains(X)
        assert batch[i], (i, j)
        assert np.array_equal(batch, [poly.contains(x) for x in X])
        placed += 1
    assert placed >= 60
    # the loop tests a batch of forward steps, contains one point: both must
    # answer alike at 1e-9 of every boundary of a preimage, and at NaN, which
    # the whole space once called a member in a batch and no member alone
    K = np.array([[1.5, -0.4], [0.3, 0.8]])
    inner = polyhedral_sets() + [Ball([1.0, 2.0], 5.0),
                                 Intersection([Ball([1.0, 2.0], 5.0), Halfspace([1.0, 1.0], 4.0)])]
    offsets = MEMBERSHIP_TOL * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    answers = []
    for s in [LinearPreimage(K, c) for c in inner] + [Box([-np.inf], [np.inf])]:
        X = np.vstack(boundary_points(rng, s, offsets)
                      + [rng.uniform(-4.0, 4.0, size=(5, s.dim)), np.full(s.dim, np.nan),
                         np.r_[0.0, np.full(s.dim - 1, np.nan)]])
        batch = s._contains(X)
        solo = [s.contains(x) for x in X]
        assert np.array_equal(batch, solo), (s, X[batch != solo])
        answers += solo
    assert 0 < sum(answers) < len(answers)


def same_bits(a, b) -> bool:
    """Equal values, NaN where the other is NaN, and the same sign of zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def polyhedral_sets():
    """One of each polyhedral class, including a box with an infinite bound
    and one with no rows at all, and intersections whose stacked rows round
    as their members' own (unit rows and a single general row)."""
    K = np.array([[2.0, 1.0], [0.5, 1.5]])
    return [Box([0.0, 0.0], [45.0, 45.0]), Box([-1.0, 0.5], [2.0, 3.0]),
            Box([0.0, -np.inf], [45.0, 45.0]), Box([-np.inf, -np.inf], [np.inf, np.inf]),
            Halfspace([1.0, 1.0], 85.0), Halfspace([0.3, -1.7], 0.2),
            Polyhedron(*polygon_rows()), input_polygon(),
            LinearPreimage(K, input_polygon()),
            Intersection([LinearPreimage(K, Box([0.0, 0.0], [4.0, 4.0])),
                          Halfspace([1.0, 2.0], 3.0)]),
            Intersection([Box([-np.inf, -np.inf], [np.inf, np.inf]),
                          Halfspace([0.3, -1.7], 0.2)])]


def probe_points(rng, s):
    lower, upper = (np.array([-1.0, -1.0]), np.array([46.0, 46.0])) \
        if isinstance(s, Box) else (np.full(2, -4.0), np.full(2, 4.0))
    return np.vstack([
        rng.uniform(lower, upper, size=(40, 2)),
        # on the bounds of the boxes, and NaN; not -0.0 on a zero bound, whose
        # sign the row product drops where x - lower keeps it
        [[0.0, 0.0], [45.0, 45.0], [0.0, 17.0], [17.0, 0.0], [45.0, 0.0],
         [-1.0, 0.5], [2.0, 3.0], [np.nan, 0.0], [1.0, np.nan]]])


def test_membership_and_margin_match_the_class_formulas():
    rng = np.random.default_rng(37)
    for s in polyhedral_sets():
        points = probe_points(rng, s)
        for x in points:
            assert s.contains(x) is oracle_contains(s, x), (s, x)
            assert same_bits(s.margin(x), oracle_margin(s, x)), (s, x)
        assert same_bits(s.margin(points), oracle_margin(s, points)), s
        assert same_bits(s.margin(points.reshape(7, 7, 2)),
                         oracle_margin(s, points.reshape(7, 7, 2))), s


def test_stacked_rows_round_within_the_dot_product_bound():
    # BLAS may round a row of a stacked matrix other than the same row alone,
    # so an intersection of general rows agrees with its members' formulas to
    # the error bound of the two dot products, 2 (n + 1) eps (|b| + |A||x|)
    rng = np.random.default_rng(38)
    eps = np.finfo(float).eps
    for _ in range(20):
        members = [Polyhedron(A, rng.uniform(0.5, 2.0, size=len(A)))
                   for A in (rng.standard_normal((int(rng.integers(1, 6)), 2))
                             for _ in range(3))]
        s = Intersection(members + [Halfspace(rng.standard_normal(2), 1.0),
                                    Box([-3.0, -2.0], [2.0, 3.0])])
        _, A, b, _ = s._parts
        norms = np.linalg.norm(A, axis=1)
        x = rng.uniform(-4.0, 4.0, size=(50, 2))
        bound = 2 * 3 * eps * np.max((np.abs(b) + np.abs(x) @ np.abs(A).T) / norms, axis=-1)
        assert np.all(np.abs(s.margin(x) - oracle_margin(s, x)) <= bound)
        for v, band in zip(x, bound):
            if np.min(np.abs((b + 1e-9 - A @ v) / norms)) > band:
                assert s.contains(v) is oracle_contains(s, v)


def test_the_whole_space_keeps_its_box_answers():
    # Box with no finite bound has no rows; NaN is still no member
    s = Box([-np.inf, -np.inf], [np.inf, np.inf])
    points = np.array([[np.nan, 0.0], [0.5, 3.0], [np.inf, 0.0], [-np.inf, 2.0],
                       [np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):  # inf - inf, in both formulas
        assert [s.contains(x) for x in points] == [False, True, True, True, True]
        assert [oracle_contains(s, x) for x in points] == [False, True, True, True, True]
        assert same_bits(s.margin(points), oracle_margin(s, points))
        assert np.isnan(s.margin([np.nan, 0.0])) and np.isnan(s.margin([np.inf, 0.0]))
    assert s.margin([0.5, 3.0]) == np.inf


def test_second_bounding_box_runs_no_lp(monkeypatch):
    # the box takes one NNLS per side, and then it is cached
    import dpic.sets as sets_mod

    calls = []
    real = sets_mod._nnls

    def counting(E, f):
        calls.append(1)
        return real(E, f)

    monkeypatch.setattr(sets_mod, "_nnls", counting)
    K = np.array([[2.0, 1.0], [0.0, 1.0]])
    for s in (input_polygon(), LinearPreimage(K, input_polygon())):
        calls.clear()
        lo, hi = s.bounding_box()
        assert calls                      # the first call solves the NNLS
        calls.clear()
        lo2, hi2 = s.bounding_box()
        assert not calls
        assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
        lo2[0] = -1e9                     # a caller's copy, not the cache
        assert np.array_equal(s.bounding_box()[0], lo)


def test_cached_halfspace_rows_are_read_only():
    K = np.array([[2.0, 1.0], [0.0, 1.0]])
    for s in (Box([0.0, 0.0], [45.0, 45.0]), Halfspace([1.0, 2.0], 85.0),
              Polyhedron(*polygon_rows()), input_polygon(),
              LinearPreimage(K, input_polygon())):
        _, A, b, norms = s._parts
        assert s._parts[1] is A   # built once
        with pytest.raises(ValueError):
            A[0, 0] = 7.0
        with pytest.raises(ValueError):
            b[0] = 7.0
        with pytest.raises(ValueError):
            norms[0] = 7.0
