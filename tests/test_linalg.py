"""Hermitian matrix calculus: eigendecomposition and support-restricted functions."""

import math

import numpy as np
import pytest

from qmctree import HermitianEig, hermitian_eig, matrix_function, trace_distance
from qmctree.linalg import (
    HERMITICITY_TOL,
    MatrixError,
    frobenius,
    is_hermitian,
    spectral_function,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
POWER_Z = 0.5 - 0.35j


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

    @pytest.mark.parametrize("w", [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3]])
    def test_rejects_eigenvalues_out_of_order(self, w):
        with pytest.raises(MatrixError, match="ascending"):
            HermitianEig(np.array(w), np.eye(3, dtype=complex))

    def test_accepts_repeated_eigenvalues(self):
        w = np.array([-1e-17, 0.0, 0.0, 1.0])
        assert HermitianEig(w, np.eye(4, dtype=complex)).eigenvalues is w

    def test_rejects_non_hermitian(self):
        with pytest.raises(MatrixError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestIsHermitian:
    def test_stack_true_when_every_matrix_passes(self, rng):
        stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
        assert is_hermitian(stack)
        stack[2, 0, 1] += 1e-3
        assert not is_hermitian(stack)
        assert is_hermitian(stack[[0, 1, 3]])

    def test_stack_tolerance_is_per_matrix(self):
        # the skew part of the second matrix is far above its own tolerance
        # but below the first matrix's, so one shared scale would pass it
        skew = np.zeros((2, 2), dtype=complex)
        skew[0, 1] = 1e3 * HERMITICITY_TOL
        stack = np.array([1e6 * PAULI_X, PAULI_Y + skew])
        assert is_hermitian(stack[:1])
        assert not is_hermitian(stack[1])
        assert not is_hermitian(stack)

    def test_empty_stack(self):
        assert is_hermitian(np.empty((0, 4, 4), dtype=complex))


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


class TestSpectralFunctionRankDeficient:
    """f acts on the support only and is zero on the kernel, which holds
    exact zeros, eigenvalues below the cutoff and tiny negatives."""

    SPECTRUM = np.array([-5e-11, 0.0, 0.0, 1e-14, 0.15, 0.25, 0.6])
    REFERENCE = {
        "sqrt": lambda x: x ** 0.5,
        "inv_sqrt": lambda x: x ** -0.5,
        "log": math.log,
        "power": lambda x: complex(x) ** POWER_Z,
    }

    @staticmethod
    def decomposition(rng, w):
        v, _ = np.linalg.qr(
            rng.standard_normal((w.size,) * 2) + 1j * rng.standard_normal((w.size,) * 2)
        )
        return HermitianEig(w, v)

    @pytest.mark.parametrize("f", ["sqrt", "inv_sqrt", "log", "power"])
    def test_matches_per_eigenvalue_reference(self, rng, f):
        eig = self.decomposition(rng, self.SPECTRUM)
        cutoff = 1e-12 * np.max(np.abs(self.SPECTRUM))
        g = [self.REFERENCE[f](x) if x > cutoff else 0.0 for x in self.SPECTRUM]
        v = eig.eigenvectors
        np.testing.assert_allclose(
            spectral_function(eig, f, POWER_Z if f == "power" else None),
            (v * np.array(g)) @ v.conj().T,
            atol=1e-12,
        )

    def test_errors_unchanged(self, rng):
        eig = self.decomposition(rng, self.SPECTRUM)
        with pytest.raises(MatrixError, match=r"^unknown matrix function 'cbrt'$"):
            spectral_function(eig, "cbrt")
        with pytest.raises(MatrixError, match=r"^power requires an exponent z$"):
            spectral_function(eig, "power")
        negative = self.decomposition(rng, np.array([-1e-3, 0.2, 0.8]))
        for f in ("sqrt", "inv_sqrt", "log", "power"):
            with pytest.raises(
                MatrixError,
                match=rf"^{f} requires a positive-semidefinite input; "
                r"min eigenvalue -1\.000e-03$",
            ):
                spectral_function(negative, f, 0.5)
        # exp needs no positivity
        np.testing.assert_allclose(
            spectral_function(negative, "exp"),
            negative.eigenvectors @ np.diag(np.exp([-1e-3, 0.2, 0.8]))
            @ negative.eigenvectors.conj().T,
            atol=1e-12,
        )
