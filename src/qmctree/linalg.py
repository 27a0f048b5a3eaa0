"""Hermitian matrix calculus: eigendecomposition, spectral functions, norms.

Functions of rank-deficient operators are support-restricted: eigenvalues
below ``SUPPORT_CUTOFF_FACTOR * lambda_max`` count as exact zeros, and
``inv_sqrt``/``log``/``power`` act as zero on the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
# the floor below which an eigenvalue counts as negative, not rounding
NEGATIVITY_TOL = 1e-10
SUPPORT_CUTOFF_FACTOR = 1e-12


class MatrixError(ValueError):
    """Raised for non-Hermitian or out-of-domain matrix inputs."""


def frobenius(a: np.ndarray) -> float:
    """``np.linalg.norm(a)``, by its own arithmetic without its dispatch."""
    x = a.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def is_hermitian(op: np.ndarray) -> bool:
    """True when ``op``, or each matrix of a stack ``(..., n, n)``, is within
    ``HERMITICITY_TOL * max(||op||, 1)`` of its adjoint in Frobenius norm.

    A matrix whose skew part has no finite norm is not Hermitian, even
    when ``||op||`` overflows as well."""
    op = np.asarray(op)
    # one matrix keeps numpy's flattened norm, which is faster than axis=(-2, -1)
    axes = (-2, -1) if op.ndim > 2 else None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite norms fail below
        scale = np.maximum(np.linalg.norm(op, axis=axes), 1.0)
        skew = np.linalg.norm(op - np.swapaxes(op, -1, -2).conj(), axis=axes)
    return bool((np.isfinite(skew) & (skew <= HERMITICITY_TOL * scale)).all())


@dataclass(frozen=True)
class HermitianEig:
    """Ascending eigenvalues and a unitary matrix of eigenvectors.

    Construction rejects eigenvalues out of ascending order, so readers
    take the extreme eigenvalues from the ends."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues)
        if (w[1:] < w[:-1]).any():
            raise MatrixError("eigenvalues are not in ascending order")

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _hermitian_part(op: np.ndarray) -> np.ndarray:
    """(op + op^dagger) / 2, halved first: that cannot overflow, and is
    exact for all other input."""
    return op / 2 + op.conj().T / 2


def hermitian_eig(op: np.ndarray) -> HermitianEig:
    op = np.asarray(op, dtype=complex)
    if not is_hermitian(op):
        raise MatrixError("input is not Hermitian within tolerance")
    return HermitianEig(*np.linalg.eigh(_hermitian_part(op)))


def support_cutoff(eigenvalues: np.ndarray) -> float:
    """``SUPPORT_CUTOFF_FACTOR * max|w|`` of an ascending spectrum ``w``, as
    every ``eigvalsh`` and ``HermitianEig`` spectrum is: max|w| is at one
    of its ends."""
    if not eigenvalues.size:
        return 0.0
    return SUPPORT_CUTOFF_FACTOR * max(float(eigenvalues[-1]), -float(eigenvalues[0]))


# f(eigenvalues on the support, z); each is zero on the kernel
_SUPPORT_FUNCTIONS = {
    "sqrt": lambda w, z: np.sqrt(w),
    "inv_sqrt": lambda w, z: 1.0 / np.sqrt(w),
    "log": lambda w, z: np.log(w),
    "power": lambda w, z: np.exp(complex(z) * np.log(w)),
}


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
    if f == "exp":
        return (v * np.exp(w)) @ v.conj().T
    if f not in _SUPPORT_FUNCTIONS:
        raise MatrixError(f"unknown matrix function {f!r}")
    lo = float(w[0])  # ascending
    if lo < -NEGATIVITY_TOL:
        raise MatrixError(
            f"{f} requires a positive-semidefinite input; "
            f"min eigenvalue {lo:.3e}"
        )
    if f == "power" and z is None:
        raise MatrixError("power requires an exponent z")
    cutoff = support_cutoff(w)
    if lo > cutoff:  # the whole spectrum is on the support
        g = _SUPPORT_FUNCTIONS[f](w, z)
    else:
        support = w > cutoff
        g = np.zeros(w.shape, complex if f == "power" else float)
        g[support] = _SUPPORT_FUNCTIONS[f](w[support], z)
    return (v * g) @ v.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b (both Hermitian)."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return 0.5 * float(np.abs(w).sum())
