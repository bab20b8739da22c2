import itertools

import numpy as np
import pytest

from dpic import Metric
from dpic.metric import _apply

from grid_oracle import random_spd


def test_identity_inner_orthogonal():
    m = Metric.identity(2)
    assert m.inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_diagonal_inner():
    m = Metric([[2.0, 0.0], [0.0, 3.0]])
    assert m.inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)


def test_euclidean_norm_consistency():
    m = Metric.identity(2)
    assert m.inner([3.0, 4.0], [3.0, 4.0]) == pytest.approx(25.0)
    assert m.norm([3.0, 4.0]) == pytest.approx(5.0)


def test_norm_examples():
    assert Metric.identity(2).norm([0.0, 0.0]) == 0.0
    m = Metric([[4.0, 0.0], [0.0, 1.0]])
    assert m.norm([1.0, 1.0]) == pytest.approx(np.sqrt(5.0))
    # past about 1.3e154 the squares overflow, yet a finite row keeps a finite
    # norm, with no overflow warning, and the other rows keep their bits
    norms = m.norm([[1.5e300, 4e300], [1.0, 1.0]])
    assert norms.tolist() == [pytest.approx(5e300, rel=1e-15), m.norm([1.0, 1.0])]


def test_cauchy_schwarz_and_triangle():
    rng = np.random.default_rng(7)
    m = Metric(random_spd(rng, 4))
    for _ in range(1000):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert abs(m.inner(x, y)) <= m.norm(x) * m.norm(y) + 1e-12
        assert m.norm(x + y) <= m.norm(x) + m.norm(y) + 1e-12


def test_norm_squared_equals_inner():
    rng = np.random.default_rng(8)
    m = Metric(random_spd(rng, 3))
    for _ in range(100):
        x = rng.standard_normal(3)
        assert m.norm(x) ** 2 == pytest.approx(m.inner(x, x), rel=1e-12)


def test_lower_eigenvalue_bound():
    rng = np.random.default_rng(9)
    P = random_spd(rng, 3)
    m = Metric(P)
    lmin = np.linalg.eigvalsh(P)[0]
    for _ in range(200):
        x = rng.standard_normal(3)
        assert m.norm(x) ** 2 >= lmin * np.dot(x, x) - 1e-10


def test_whiten_matches_norm():
    rng = np.random.default_rng(10)
    m = Metric(random_spd(rng, 4))
    for _ in range(50):
        x = rng.standard_normal(4)
        assert np.linalg.norm(m.whiten(x)) == pytest.approx(m.norm(x), rel=1e-12)


def test_solve_inverts_P():
    rng = np.random.default_rng(11)
    m = Metric(random_spd(rng, 4))
    b = rng.standard_normal(4)
    assert np.allclose(m.P @ m.solve(b), b, atol=1e-10)


def test_near_symmetric_input_is_symmetrized():
    P = np.array([[2.0, 0.3 + 1e-13], [0.3, 1.0]])
    m = Metric(P)
    assert np.array_equal(m.P, m.P.T)


def test_meaningfully_asymmetric_rejected():
    with pytest.raises(ValueError):
        Metric([[2.0, 0.5], [0.1, 1.0]])


def test_indefinite_rejected():
    with pytest.raises(ValueError):
        Metric([[1.0, 0.0], [0.0, -1.0]])


def test_singular_rejected():
    with pytest.raises(ValueError):
        Metric([[1.0, 1.0], [1.0, 1.0]])


def test_dimension_mismatch():
    m = Metric.identity(2)
    with pytest.raises(ValueError):
        m.norm([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        m.inner([1.0], [1.0])


def test_batched_norm_equals_per_row_norm():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    m = Metric(A @ A.T + np.eye(3))
    rows = rng.standard_normal((6, 3))
    batched = m.norm(rows)
    assert batched.shape == (6,)
    # each row rounds exactly as the single-vector call
    assert np.array_equal(batched, [m.norm(r) for r in rows])
    assert m.norm(rows.reshape(2, 3, 3)).shape == (2, 3)
    with pytest.raises(ValueError):
        m.norm(np.ones((2, 4)))


@pytest.mark.parametrize("layout", ["C", "F", "transposed view"])
def test_apply_rounds_a_point_a_one_row_batch_and_each_batch_row_alike(layout):
    # a point takes M.dot(x), a one-row batch M.dot(x[0]) and a batch of more
    # rows the broadcast matmul: each one gemv per row, so the bytes agree;
    # Metric._chol.T is a transposed view
    rng = np.random.default_rng(11)
    for m, n in itertools.product((1, 2, 3, 4, 7, 20), (1, 2, 4, 20)):
        N = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, n))
        M = {"C": N, "F": np.asfortranarray(N),
             "transposed view": np.ascontiguousarray(N.T).T}[layout]
        X = rng.standard_normal((5, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (5, n))
        batch = _apply(M, X)
        assert batch.shape == (5, m)
        for i, x in enumerate(X):
            point, one_row = _apply(M, x), _apply(M, X[i:i + 1])
            assert point.shape == (m,) and one_row.shape == (1, m)
            assert point.tobytes() == one_row[0].tobytes() == batch[i].tobytes(), (m, n, i)
