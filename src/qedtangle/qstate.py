"""Two-qubit helicity density matrices and their evolution through scattering.

The basis is fixed to (LL, LR, RL, RR), first letter = particle 1. Evolution
implements filtered scattering: rho_out = M rho_in M+ / Tr(M rho_in M+),
the unique linear extension of the diagonal-mixture filtering formula to
arbitrary input states. Overall constants and phases of M drop out.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import UnfilterableStateError
from .linalg import hermitian_eigenvalues_batch

BASIS = ("LL", "LR", "RL", "RR")

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
#: Tr(M rho M+) below this times |M|_F^2 counts as no outgoing flux
FLUX_TOL = 1e-30


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, PSD matrix over (LL, LR, RL, RR); float if real."""

    entries: np.ndarray

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "DensityMatrix":
        m = _entries(matrix)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        adjoint = m.conj().T
        dev = np.max(np.abs(m - adjoint))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max deviation {dev:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        lo = hermitian_eigenvalues_batch(0.5 * (m + adjoint))[0]
        if lo < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        return DensityMatrix(m)


@dataclass(frozen=True)
class InitialState:
    density: DensityMatrix
    description: str


def unpolarized() -> InitialState:
    """Maximally mixed input, weight 1/4 per helicity pair."""
    return InitialState(DensityMatrix(np.eye(4) / 4.0), "unpolarized")


def pure(pair: str) -> InitialState:
    """Pure helicity product state |pair>, pair in {LL, LR, RL, RR}."""
    pair = pair.upper()
    if pair not in BASIS:
        raise ValueError(f"helicity pair must be one of {BASIS}, got {pair!r}")
    m = np.zeros((4, 4))
    m[BASIS.index(pair), BASIS.index(pair)] = 1.0
    return InitialState(DensityMatrix(m), f"pure({pair})")


def _shortest_text(x: float) -> str:
    """The shortest text that reads back as x, without a trailing ".0"."""
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


def diagonal(weights) -> InitialState:
    """Diagonal mixture with the given four weights (finite, nonnegative, sum 1).

    Its description "diag:w1;w2;w3;w4" gives each weight as its shortest
    round-trip text, so the label parses back to the same state bit for bit.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise ValueError("diagonal mixture needs exactly 4 weights")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"weights must be finite and nonnegative, got {w.tolist()}")
    total = float(w.sum())
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return InitialState(DensityMatrix(np.diag(w)),
                        "diag:" + ";".join(_shortest_text(x) for x in w.tolist()))


def werner_symmetric() -> InitialState:
    """Unpolarized state projected onto the symmetric subspace.

    (|LL><LL| + |psi+><psi+| + |RR><RR|)/3, eigenvalues {1/3, 1/3, 1/3, 0}.
    """
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    m = (np.diag([1.0, 0, 0, 0]) + np.outer(psi_plus, psi_plus)
         + np.diag([0, 0, 0, 1.0])) / 3.0
    return InitialState(DensityMatrix(m), "werner")


def from_matrix(matrix: np.ndarray, description: str = "custom-matrix") -> InitialState:
    return InitialState(DensityMatrix.from_matrix(matrix), description)


def _entries(m) -> np.ndarray:
    """The entries of a matrix or of an object holding them, as float64 or complex128."""
    m = np.asarray(getattr(m, "entries", m))
    return m if m.dtype.char in "dD" else m.astype(np.result_type(m, float))


def evolve(amplitude, init) -> DensityMatrix:
    """Filtered scattering evolution M rho M+ / Tr(...): `evolve_batch` at N = 1.

    `amplitude` may be an AmplitudeMatrix or a bare 4x4 array; `init` an
    InitialState or DensityMatrix. Raises UnfilterableStateError when the
    trace is below FLUX_TOL * |M|_F^2 (no flux into the filtered momenta).
    """
    rho_in = init.density if isinstance(init, InitialState) else init
    out, flux_ok = evolve_batch(_entries(amplitude)[None], _entries(rho_in))
    if not flux_ok[0]:
        raise UnfilterableStateError(
            f"no outgoing flux: Tr(M rho M+) = {np.trace(out[0]).real:.3e}")
    return DensityMatrix(out[0])


def evolve_batch(amps: np.ndarray, rho_in: np.ndarray):
    """Batch evolution, (N,4,4) amplitudes -> (N,4,4) states + flux-ok mask.

    Real amplitudes and a real rho_in give real states; a complex operand
    gives complex ones. Rows with no outgoing flux are left unnormalized
    and flagged False.
    """
    out = amps @ rho_in @ amps.conj().swapaxes(1, 2)
    norm = out.trace(axis1=1, axis2=2).real
    flux_ok = norm > FLUX_TOL * (np.abs(amps) ** 2).sum(axis=(1, 2))
    out /= np.where(flux_ok, norm, 1.0)[:, None, None]
    out = 0.5 * (out + out.conj().swapaxes(1, 2))
    return out, flux_ok
