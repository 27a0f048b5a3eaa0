"""Hermitian matrix calculus: eigendecomposition and support-restricted functions."""

import numpy as np
import pytest

from qmctree import HermitianEig, hermitian_eig, matrix_function, trace_distance
from qmctree.linalg import MatrixError, frobenius

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestHermitianEig:
    def test_reconstruction(self, rng):
        h = random_hermitian(rng, 6)
        eig = hermitian_eig(h)
        assert frobenius(eig.reconstruct() - h) <= 1e-10 * max(frobenius(h), 1)

    def test_unitarity(self, rng):
        h = random_hermitian(rng, 6)
        v = hermitian_eig(h).eigenvectors
        assert frobenius(v.conj().T @ v - np.eye(6)) <= 1e-10

    def test_ascending(self, rng):
        w = hermitian_eig(random_hermitian(rng, 8)).eigenvalues
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(MatrixError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixFunction:
    def test_sqrt_identity(self):
        np.testing.assert_allclose(
            matrix_function(np.eye(3, dtype=complex), "sqrt"), np.eye(3),
            atol=1e-12,
        )

    def test_inv_sqrt_support_pseudo_inverse(self):
        out = matrix_function(np.diag([4.0, 0.0]).astype(complex), "inv_sqrt")
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_log_natural(self):
        out = matrix_function(np.diag([np.e, np.e ** 2]).astype(complex), "log")
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_sqrt_squares_back(self, rng):
        h = random_hermitian(rng, 5)
        h = h @ h.conj().T  # PSD
        s = matrix_function(h, "sqrt")
        assert frobenius(s @ s - h) <= 1e-9 * frobenius(h)

    def test_exp_log_roundtrip(self, rng):
        h = random_hermitian(rng, 5)
        h = h @ h.conj().T + 0.1 * np.eye(5)  # positive definite
        back = matrix_function(matrix_function(h, "log"), "exp")
        assert frobenius(back - h) <= 1e-8 * frobenius(h)

    def test_power_matches_sqrt(self, rng):
        h = random_hermitian(rng, 4)
        h = h @ h.conj().T
        np.testing.assert_allclose(
            matrix_function(h, "power", 0.5), matrix_function(h, "sqrt"),
            atol=1e-10,
        )

    def test_log_of_negative_rejected(self):
        with pytest.raises(MatrixError):
            matrix_function(np.diag([1.0, -1.0]).astype(complex), "log")

    def test_non_hermitian_rejected(self):
        with pytest.raises(MatrixError):
            matrix_function(np.array([[0.0, 1.0], [0.0, 0.0]]), "sqrt")

    def test_degenerate_eigenvalues(self):
        # function outputs only depend on eigenvalues; the doubly degenerate
        # subspace must not disturb the result
        h = np.diag([2.0, 2.0, 8.0]).astype(complex)
        np.testing.assert_allclose(
            matrix_function(h, "sqrt"),
            np.diag([np.sqrt(2), np.sqrt(2), np.sqrt(8)]),
            atol=1e-12,
        )


class TestTraceDistance:
    def test_identical(self):
        assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0)

    def test_orthogonal_pure_states(self):
        assert trace_distance(
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        ) == pytest.approx(1.0)
