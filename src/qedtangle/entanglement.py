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

Spectra: `analyze` takes both of one state's from LAPACK's eigvalsh. A
scan's batch of 4 x 4 states takes them from one
`linalg.hermitian_eigenvalues_batch` call on rho^T_B stacked over rho
(`_with_partial_transpose`), which runs the Jacobi kernel on the real
states every scan forms and eigvalsh on complex ones. A batch of
mirror-invariant states held as their two 2 x 2 blocks
(`qstate.MirrorState`) takes them in closed form from the blocks
(`block_spectra`): each block [[a, b], [b*, d]] has eigenvalues
(a + d)/2 -+ sqrt(((a - d)/2)^2 + |b|^2), and the partial transpose's
blocks are formed from the state's. All feed `_measures`, the batches
through `measures_batch`.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .constants import DEFAULT
from .linalg import hermitian_eigenvalues_batch, hermitian_part, merge_sorted_pairs
from .qstate import MirrorState, _entries, check_state

PPT_TOL = 1e-10

_SQ2 = math.sqrt(2.0)
BELL_STATES = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQ2,
    "phi-": np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / _SQ2,
    "psi+": np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQ2,
    "psi-": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQ2,
}
#: the Bell states as rows; they are real
_BELL_ROWS = np.array([b.real for b in BELL_STATES.values()])


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


def partial_transpose(rho) -> np.ndarray:
    """Transpose on the second qubit, ((a,b),(c,d)) -> ((a,d),(c,b)), of one
    state or a (..., 4, 4) stack."""
    m = _entries(rho)
    return m.reshape(m.shape[:-2] + (2,) * 4).swapaxes(-3, -1).reshape(m.shape)


#: flat entry of rho that rho^T_B holds at each flat position:
#: (rho^T_B)[2a + b, 2c + d] = rho[2a + d, 2c + b]
_PT_ENTRIES = partial_transpose(np.arange(16.0).reshape(4, 4)).astype(int).ravel()


def _with_partial_transpose(rho: np.ndarray) -> np.ndarray:
    """rho^T_B stacked over rho, (2N, 4, 4), for an (N, 4, 4) stack: a view
    of one entry-major buffer (16, 2, N), filled by one transposing copy of
    rho's entries and one relabelling of them, so each entry of the pair
    is a contiguous row, which is how `hermitian_eigenvalues_batch` reads
    them."""
    n = rho.shape[0]
    buf = np.empty((16, 2, n), rho.dtype)
    buf[:, 1] = rho.reshape(n, 16).T
    buf[:, 0] = buf[_PT_ENTRIES, 1]
    return buf.transpose(1, 2, 0).reshape(2 * n, 4, 4)


def bell_fidelities(rho) -> dict:
    """Raw fidelities <B|rho|B> for the four Bell states, in one contraction."""
    fidelity = ((_BELL_ROWS @ _entries(rho)) * _BELL_ROWS).sum(axis=1).real
    return dict(zip(BELL_STATES, fidelity.tolist()))


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
    """Measures from ascending spectra (..., 4) of rho^T_B (pt_eigs) and rho (nu):
    arrays over the leading axes, numpy scalars for one state."""
    negativity = ((np.abs(pt_eigs) - pt_eigs) / 2.0).sum(axis=-1)
    nu = np.where(nu > 0.0, nu, 1.0)        # 0 ln 0 := 0, and so is a rounding-negative nu
    min_eig = pt_eigs[..., 0]
    return {
        "min_pt_eig": min_eig,
        "negativity": negativity,
        "log_negativity": np.log2(2.0 * negativity + 1.0),
        "entropy": -(nu * np.log(nu)).sum(axis=-1),
        "entangled": min_eig < -PPT_TOL,
        "switching": np.abs(min_eig) <= DEFAULT.alpha3,
    }


def analyze(rho) -> EntanglementReport:
    """Full entanglement and mixedness report for one state.

    `entangled` is min(PT eigenvalues) < -PPT_TOL; `switching_potential` flags
    |min PT eigenvalue| <= alpha^3, where loop corrections could flip the
    tree-level verdict. Raises NonHermitianError (`hermitian_part`) for a
    non-Hermitian or non-finite matrix, and the ValueError of
    `qstate.check_state` for one that is not a state, read off its spectrum.
    """
    m = hermitian_part(_entries(rho))
    # both spectra, of rho^T_B and rho, from one eigensolve call
    spectra = np.linalg.eigvalsh(np.concatenate([partial_transpose(m)[None], m[None]]))
    check_state(float(spectra[1].sum()), spectra[1, 0])
    res = _measures(*spectra)

    raw = bell_fidelities(m)
    raw_label = max(raw, key=raw.get)
    opt = bell_fidelities_phase_opt(m)
    # report the raw-best label within the winning (phi or psi) family
    if opt["phi+"] >= opt["psi+"]:
        opt_label = "phi+" if raw["phi+"] >= raw["phi-"] else "phi-"
    else:
        opt_label = "psi+" if raw["psi+"] >= raw["psi-"] else "psi-"

    return EntanglementReport(
        pt_eigenvalues=tuple(spectra[0].tolist()),
        negativity=float(res["negativity"]),
        log_negativity=float(res["log_negativity"]),
        entropy=float(res["entropy"]),
        purity=float(np.einsum('ij,ji->', m, m).real),
        entangled=bool(res["entangled"]),
        switching_potential=bool(res["switching"]),
        closest_bell=(raw_label, raw[raw_label]),
        closest_bell_phase_opt=(opt_label, opt[opt_label]),
    )


def _block_eigenvalues(a, d, b_squared) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) eigenvalues of [[a, b], [b*, d]] with a, d real: the
    midpoint (a + d)/2 -+ sqrt(((a - d)/2)^2 + |b|^2). A state's entries are
    at most 1, so the squares cannot overflow: np.hypot is not needed, and
    costs several times as much."""
    half = 0.5 * (a - d)
    mid, radius = 0.5 * (a + d), np.sqrt(half * half + b_squared)
    return mid - radius, mid + radius


def block_spectra(state: MirrorState) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra (N, 4) of rho^T_B and of rho for a MirrorState.

    rho's spectrum is that of its two blocks [[y, x], [x*, z]]. rho^T_B
    commutes with A_out too, and with ybar = (y_+ + y_-)/2,
    dy = (y_+ - y_-)/2 (zbar, dz, xbar, dx likewise) and s = d_out[0] d_out[1]
    its block mu = +-1 (lam = +-1 or +-i alike) is
    [[ybar + mu s dz, xbar* + mu dx], [c.c., zbar + mu s dy]], whose
    off-diagonal has modulus hypot(Re x_mu, Im x_-mu): x_mu for real x.
    With lam = +-i a real state's blocks are complex conjugates, so both
    spectra are doubly degenerate.
    """
    y, z, x = state.y, state.z, state.x
    re_squared, im_squared = x.real * x.real, x.imag * x.imag      # zero for real x
    nu = merge_sorted_pairs(*_block_eigenvalues(y, z, re_squared + im_squared))
    mu_s = np.array([[state.sign], [-state.sign]])
    dy, dz = 0.5 * (y[0] - y[1]), 0.5 * (z[0] - z[1])
    pt = merge_sorted_pairs(*_block_eigenvalues(0.5 * (y[0] + y[1]) + mu_s * dz,
                                                0.5 * (z[0] + z[1]) + mu_s * dy,
                                                re_squared + im_squared[::-1]))
    return pt, nu


def measures_batch(rho) -> dict:
    """Vectorized scan measures for a batch of states: an (N,4,4) stack (or
    any (..., 4, 4) one, whose leading shape the measures take), or
    a MirrorState (`qstate.evolve_batch` on a MirrorInput), whose spectra
    come from `block_spectra`. A stack's two spectra come from one
    `hermitian_eigenvalues_batch` call on rho^T_B and rho stacked
    (`_with_partial_transpose`): the Jacobi kernel for a real stack, which
    every scan state is, and LAPACK for a complex one.

    Returns arrays: min_pt_eig, negativity, log_negativity, entropy,
    entangled, switching.
    """
    if isinstance(rho, MirrorState):
        return _measures(*block_spectra(rho))
    m = _entries(rho)
    spectra = hermitian_eigenvalues_batch(_with_partial_transpose(m.reshape(-1, 4, 4)))
    return _measures(*spectra.reshape((2,) + m.shape[:-1]))
