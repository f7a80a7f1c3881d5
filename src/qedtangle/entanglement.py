"""Peres-Horodecki test and entanglement / mixedness measures for two qubits.

Conventions: negativity N = sum (|l| - l)/2 over partial-transpose
eigenvalues; logarithmic negativity E_N = log2(2N + 1) (base 2, max 1 for two
qubits); von Neumann entropy S = -sum nu ln nu in natural log (max ln 4).
Bell-state fidelities are reported both raw and maximized over local
diagonal phase rotations diag(1, e^{ia}) (x) diag(1, e^{ib}), since helicity
phase conventions move weight between phi+/phi- and psi+/psi- freely.

The verdict is the Peres-Horodecki test, necessary and sufficient for two
qubits: a state is entangled iff min(PT eigenvalues) < -PPT_TOL, a fixed
numerical zero, decided in `_measures` alone.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .constants import DEFAULT
from .linalg import hermitian_eigenvalues, hermitian_eigenvalues_batch
from .qstate import DensityMatrix

PPT_TOL = 1e-10

_SQ2 = math.sqrt(2.0)
BELL_STATES = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQ2,
    "phi-": np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / _SQ2,
    "psi+": np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQ2,
    "psi-": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQ2,
}


@dataclass(frozen=True)
class EntanglementReport:
    pt_eigenvalues: tuple          # 4 reals, ascending
    negativity: float
    log_negativity: float
    entropy: float
    purity: float
    entangled: bool
    switching_potential: bool
    closest_bell: tuple            # (label, raw fidelity)
    closest_bell_phase_opt: tuple  # (label, fidelity maximized over local phases)


def _entries(rho) -> np.ndarray:
    return np.asarray(rho.entries if isinstance(rho, DensityMatrix) else rho)


def partial_transpose(rho) -> np.ndarray:
    """Transpose on the second qubit, ((a,b),(c,d)) -> ((a,d),(c,b)), of one
    state or a (..., 4, 4) stack."""
    m = _entries(rho)
    return m.reshape(m.shape[:-2] + (2,) * 4).swapaxes(-3, -1).reshape(m.shape)


def bell_fidelities(rho) -> dict:
    """Raw fidelities <B|rho|B> for the four Bell states."""
    m = _entries(rho)
    return {label: float((b.conj() @ m @ b).real) for label, b in BELL_STATES.items()}


def bell_fidelities_phase_opt(rho) -> dict:
    """Fidelities maximized over local diagonal phase rotations.

    The maximum over diag(1, e^{ia}) (x) diag(1, e^{ib}) has the closed form
    (rho_00 + rho_33)/2 + |rho_03| for the phi pair and the analogous
    expression on the inner block for the psi pair.
    """
    m = _entries(rho)
    phi = float((m[0, 0] + m[3, 3]).real / 2.0 + abs(m[0, 3]))
    psi = float((m[1, 1] + m[2, 2]).real / 2.0 + abs(m[1, 2]))
    return {"phi+": phi, "phi-": phi, "psi+": psi, "psi-": psi}


def _measures(pt_eigs: np.ndarray, nu: np.ndarray) -> dict:
    """Measures from ascending spectra (N,4) of rho^T_B (pt_eigs) and rho (nu)."""
    negativity = np.sum((np.abs(pt_eigs) - pt_eigs) / 2.0, axis=1)
    nu = np.clip(nu, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nu > 0.0, nu * np.log(nu), 0.0)     # 0 ln 0 := 0
    min_eig = pt_eigs[:, 0]
    return {
        "min_pt_eig": min_eig,
        "negativity": negativity,
        "log_negativity": np.log2(2.0 * negativity + 1.0),
        "entropy": -np.sum(terms, axis=1),
        "entangled": min_eig < -PPT_TOL,
        "switching": np.abs(min_eig) <= DEFAULT.alpha3,
    }


def analyze(rho) -> EntanglementReport:
    """Full entanglement and mixedness report for one state.

    `entangled` is min(PT eigenvalues) < -PPT_TOL; `switching_potential` flags
    |min PT eigenvalue| <= alpha^3, where loop corrections could flip the
    tree-level verdict.
    """
    m = _entries(rho)
    pt_eigs = hermitian_eigenvalues(partial_transpose(m))
    res = _measures(pt_eigs[None], hermitian_eigenvalues(m)[None])

    raw = bell_fidelities(m)
    raw_label = max(raw, key=raw.get)
    opt = bell_fidelities_phase_opt(m)
    # report the raw-best label within the winning (phi or psi) family
    if opt["phi+"] >= opt["psi+"]:
        opt_label = "phi+" if raw["phi+"] >= raw["phi-"] else "phi-"
    else:
        opt_label = "psi+" if raw["psi+"] >= raw["psi-"] else "psi-"

    return EntanglementReport(
        pt_eigenvalues=tuple(float(x) for x in pt_eigs),
        negativity=float(res["negativity"][0]),
        log_negativity=float(res["log_negativity"][0]),
        entropy=float(res["entropy"][0]),
        purity=float(np.einsum('ij,ji->', m, m).real),
        entangled=bool(res["entangled"][0]),
        switching_potential=bool(res["switching"][0]),
        closest_bell=(raw_label, raw[raw_label]),
        closest_bell_phase_opt=(opt_label, opt[opt_label]),
    )


def mirror_spectra(h: np.ndarray, signs) -> np.ndarray:
    """Ascending eigenvalues (..., 4) of Hermitian h (..., 4, 4) that commute
    with A = diag(signs) XX, XX = sigma_x (x) sigma_x, where A^2 = +-1.

    A swaps e0 <-> e3 and e1 <-> e2 up to the signs d. Its eigenspace of
    eigenvalue lam (+-1 when A^2 = 1, +-i when A^2 = -1) is spanned by
    (e0 + lam d0 e3)/sqrt2 and (e1 + lam d1 e2)/sqrt2, so h is two 2 x 2
    blocks [[a, b], [b*, d]] in that basis, with eigenvalues
    (a + d)/2 -+ hypot((a - d)/2, |b|). With A^2 = -1 the blocks of a real h
    are complex conjugates, so the spectrum is doubly degenerate.
    """
    d0, d1, _, d3 = signs
    h00, h11, h22, h33 = (h[..., i, i].real for i in range(4))
    outer, inner = 0.5 * (h00 + h33), 0.5 * (h11 + h22)
    eigs = []
    for lam in ((1.0, -1.0) if d0 * d3 > 0 else (1j, -1j)):
        c, k = lam * d0, lam * d1
        a = outer + (c * h[..., 0, 3]).real
        d = inner + (k * h[..., 1, 2]).real
        b = 0.5 * (h[..., 0, 1] + k * h[..., 0, 2] + np.conj(c) * (h[..., 3, 1] + k * h[..., 3, 2]))
        mid, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(b))
        eigs += [mid - radius, mid + radius]
    return np.sort(np.stack(eigs, axis=-1), axis=-1)


def measures_batch(rho: np.ndarray, mirror=None) -> dict:
    """Vectorized scan measures for a batch (N,4,4) of states.

    Returns arrays: min_pt_eig, negativity, log_negativity, entropy,
    entangled, switching. `mirror`, when given, holds the signs d of a
    symmetry A = diag(d) XX that every state and its partial transpose
    commute with; both spectra then come from `mirror_spectra` rather than
    LAPACK.
    """
    spectra = (hermitian_eigenvalues_batch if mirror is None
               else functools.partial(mirror_spectra, signs=mirror))
    return _measures(spectra(partial_transpose(rho)), spectra(rho))
