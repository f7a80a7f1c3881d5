"""Hermitian eigenvalues of 4x4 matrices, via numpy.linalg.eigvalsh (LAPACK).

`hermitian_eigenvalues_batch` handles the scan's (N,4,4) stacks;
`hermitian_part` validates one matrix (shape, Hermiticity), and
`hermitian_eigenvalues` takes its spectrum.
A LAPACK convergence failure surfaces as numpy.linalg.LinAlgError.
"""
from __future__ import annotations

import numpy as np

from .errors import NonHermitianError


def hermitian_eigenvalues_batch(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a batch (N,4,4) of Hermitian matrices, (N,4).

    A single (4,4) matrix gives shape (4,). Only the lower triangle is read.
    """
    return np.linalg.eigvalsh(h)


def hermitian_part(h: np.ndarray) -> np.ndarray:
    """(H + H^+)/2 of one 4x4 matrix, once max|H - H^+| is within 1e-10.

    Raises NonHermitianError on any other shape or a larger deviation.
    """
    h = np.asarray(h)
    if h.shape != (4, 4):
        raise NonHermitianError(f"expected a 4x4 matrix, got shape {h.shape}")
    adjoint = h.conj().T
    dev = np.abs(h - adjoint).max()
    if dev > 1e-10:
        raise NonHermitianError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return 0.5 * (h + adjoint)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one 4x4 Hermitian (or real symmetric) matrix,
    validated by `hermitian_part`."""
    return hermitian_eigenvalues_batch(hermitian_part(h))
