"""Hermitian eigenvalues of 4x4 matrices, via numpy.linalg.eigvalsh (LAPACK).

`hermitian_eigenvalues_batch` handles the scan's (N,4,4) stacks;
`hermitian_eigenvalues` validates one matrix (shape, Hermiticity) first.
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


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one 4x4 Hermitian (or real symmetric) matrix.

    Raises NonHermitianError when max|H - H^+| exceeds 1e-10.
    """
    h = np.asarray(h)
    if h.shape != (4, 4):
        raise NonHermitianError(f"expected a 4x4 matrix, got shape {h.shape}")
    dev = np.max(np.abs(h - h.conj().T))
    if dev > 1e-10:
        raise NonHermitianError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    sym = 0.5 * (h + h.conj().T)
    return hermitian_eigenvalues_batch(sym)
