"""Hermitian matrix calculus: eigendecomposition, spectral functions, norms.

Functions of rank-deficient operators are support-restricted: eigenvalues
below ``SUPPORT_CUTOFF_FACTOR * lambda_max`` count as exact zeros, and
``inv_sqrt``/``log``/``power`` act as zero on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
EIG_NEGATIVITY_TOL = 1e-10
SUPPORT_CUTOFF_FACTOR = 1e-12


class MatrixError(ValueError):
    """Raised for non-Hermitian or out-of-domain matrix inputs."""


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def is_hermitian(op: np.ndarray) -> bool:
    op = np.asarray(op)
    scale = max(frobenius(op), 1.0)
    return frobenius(op - op.conj().T) <= HERMITICITY_TOL * scale


@dataclass(frozen=True)
class HermitianEig:
    """Ascending eigenvalues and a unitary matrix of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(op: np.ndarray) -> HermitianEig:
    op = np.asarray(op, dtype=complex)
    if not is_hermitian(op):
        raise MatrixError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    return HermitianEig(w, v)


def support_cutoff(eigenvalues: np.ndarray) -> float:
    top = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return SUPPORT_CUTOFF_FACTOR * top


_PSD_FUNCTIONS = {"sqrt", "inv_sqrt", "log", "power"}


def matrix_function(op: np.ndarray, f: str, z: complex | None = None) -> np.ndarray:
    """Apply ``f`` in {sqrt, inv_sqrt, log, exp, power} to a Hermitian matrix.

    ``power`` needs the exponent ``z`` and, like ``inv_sqrt`` and ``log``,
    acts as zero on the kernel.  Natural logarithm convention.
    """
    return spectral_function(hermitian_eig(op), f, z)


def spectral_function(
    eig: HermitianEig, f: str, z: complex | None = None
) -> np.ndarray:
    """``matrix_function`` of the matrix whose decomposition is ``eig``."""
    w, v = eig.eigenvalues, eig.eigenvectors
    if f in _PSD_FUNCTIONS and np.min(w) < -EIG_NEGATIVITY_TOL:
        raise MatrixError(
            f"{f} requires a positive-semidefinite input; "
            f"min eigenvalue {np.min(w):.3e}"
        )
    if f == "exp":
        g = np.exp(w)
    else:
        tau = support_cutoff(w)
        support = w > tau
        wp = np.where(support, w, 1.0)  # placeholder off support
        if f == "sqrt":
            g = np.where(support, np.sqrt(wp), 0.0)
        elif f == "inv_sqrt":
            g = np.where(support, 1.0 / np.sqrt(wp), 0.0)
        elif f == "log":
            g = np.where(support, np.log(wp), 0.0)
        elif f == "power":
            if z is None:
                raise MatrixError("power requires an exponent z")
            g = np.where(support, np.exp(complex(z) * np.log(wp)), 0.0)
        else:
            raise MatrixError(f"unknown matrix function {f!r}")
    return (v * g) @ v.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b (both Hermitian)."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return 0.5 * float(np.sum(np.abs(w)))
