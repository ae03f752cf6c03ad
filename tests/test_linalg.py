"""Dense linear algebra kernels: factor, substitutions, smallest eigenvalue."""

import numpy as np
import pytest

from payband.linalg import (
    PIVOT_TOL,
    SingularMatrixError,
    back_substitute,
    cholesky_spd,
    forward_substitute,
    min_eig_sym,
)


def random_spd(rng, d, jitter=0.1):
    b = rng.normal(size=(d + 2, d))
    return b.T @ b + jitter * np.eye(d)


def test_cholesky_reconstructs_matrix():
    rng = np.random.default_rng(0)
    for d in range(1, 9):
        a = random_spd(rng, d)
        low = cholesky_spd(a)
        assert np.allclose(low @ low.T, a, atol=1e-10)
        assert np.allclose(low, np.tril(low))


def test_triangular_substitution_round_trip():
    rng = np.random.default_rng(3)
    low = np.tril(rng.normal(size=(5, 5)))
    np.fill_diagonal(low, np.abs(np.diag(low)) + 1.0)
    b = rng.normal(size=5)
    y = forward_substitute(low, b)
    assert np.allclose(low @ y, b)
    x = back_substitute(low, y)
    assert np.allclose(low.T @ x, y)
    # a matrix right-hand side is solved column by column
    rhs = rng.normal(size=(5, 3))
    y = forward_substitute(low, rhs)
    assert np.allclose(low @ y, rhs)
    assert np.allclose(back_substitute(low, y), np.column_stack(
        [back_substitute(low, col) for col in y.T]))


def test_singular_matrix_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        cholesky_spd(a)


def test_near_singular_pivot_below_tolerance_raises():
    a = np.diag([1.0, PIVOT_TOL * 1e-4])
    with pytest.raises(SingularMatrixError):
        cholesky_spd(a)


def test_indefinite_matrix_raises():
    with pytest.raises(SingularMatrixError):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_min_eig_diagonal_and_identity():
    assert min_eig_sym(np.diag([3.0, 0.25, 1.0])) == pytest.approx(0.25)
    assert min_eig_sym(np.eye(4)) == pytest.approx(1.0)


def test_min_eig_rayleigh_quotient_bound():
    # lambda_min lower-bounds the Rayleigh quotient in every direction.
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = random_spd(rng, d, jitter=0.0)
        a = (a + a.T) / 2
        lam = min_eig_sym(a)
        dirs = rng.normal(size=(400, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quot = np.einsum("ij,jk,ik->i", dirs, a, dirs)
        assert lam <= quot.min() + 1e-9


def test_min_eig_certified_by_shifted_cholesky():
    # Independent certification: A - s*I stays positive definite for
    # s slightly below lambda_min and loses definiteness slightly above it.
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = random_spd(rng, d, jitter=0.2)
        lam = min_eig_sym(a)
        eps = 1e-4 * (abs(lam) + 1.0)
        cholesky_spd(a - (lam - eps) * np.eye(d))
        with pytest.raises(SingularMatrixError):
            cholesky_spd(a - (lam + eps) * np.eye(d))


def test_min_eig_negative_for_indefinite():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert min_eig_sym(a) == pytest.approx(-1.0)
