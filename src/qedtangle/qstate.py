"""Two-qubit helicity density matrices and their evolution through scattering.

The basis is fixed to (LL, LR, RL, RR), first letter = particle 1. Evolution
implements filtered scattering: rho_out = M rho_in M+ / Tr(M rho_in M+),
the unique linear extension of the diagonal-mixture filtering formula to
arbitrary input states. Overall constants and phases of M drop out.
`evolve_batch` is the one batch evolution. Where Tr(M rho_in M+) is at
most FLUX_TOL |M|_F^2 (no outgoing flux, NaN amplitudes included) it
gives the maximally mixed state and a False flux flag.

Mirror blocks: the engine obeys M = D_out XX M XX D_in
(`amplitudes.MIRROR_SIGNS`), so M A_in = A_out M with A = D XX, and an input
that commutes with A_in (a mirror-invariant one) gives an outgoing state
that commutes with A_out. The eigenvalues of A are lam = +-1, or +-i when
d0 d3 = -1 (Compton), and the eigenspace of lam is spanned by
(e_b + lam d_b e_(3-b))/sqrt2, b = 0, 1. In those bases the state is two
2 x 2 blocks. `evolution_input` decides once per input whether it is
exactly mirror-invariant and then gives its blocks R_lam (a MirrorInput),
else the 4x4 rho_in; `evolve_batch` evolves the blocks as
rho_lam = M_lam R_lam M_lam+ with M_lam[a, b] = M[a, b] + lam d_in[b] M[a, 3 - b],
a, b in {0, 1}, normalised by sum_lam tr rho_lam, into a MirrorState.
Rows 2 and 3 of M are mirror images of rows 0 and 1 and are never read;
a scan on the mirror blocks asks the engine for rows 0 and 1 alone
(`helicity_amplitudes_batch(..., rows=2)`), so it never forms them.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import UnfilterableStateError

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
        lo = np.linalg.eigvalsh(0.5 * (m + adjoint))[0]
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
    amps = _entries(amplitude)[None]
    rho_in = _entries(init.density if isinstance(init, InitialState) else init)
    out, flux_ok = evolve_batch(amps, rho_in)
    if not flux_ok[0]:
        raise UnfilterableStateError(
            f"no outgoing flux: Tr(M rho M+) = {np.trace(_filtered(amps, rho_in)[0]).real:.3e}")
    return DensityMatrix(out[0])


def _filtered(amps: np.ndarray, rho_in: np.ndarray) -> np.ndarray:
    """M rho_in M+ over a (N,4,4) stack, unnormalized."""
    return amps @ rho_in @ amps.conj().swapaxes(1, 2)


def evolve_batch(amps: np.ndarray, rho_in):
    """Batch evolution of (N,4,4) amplitudes -> (states, flux-ok mask).

    `rho_in` is a 4x4 input, giving (N,4,4) states, or a MirrorInput of
    `evolution_input`, giving a MirrorState (`_evolve_blocks`), for which
    rows 0 and 1 of M, (N,2,4), are enough. Real
    amplitudes and a real input give real states; a complex operand gives
    complex ones. Rows with no outgoing flux, those with NaN amplitudes
    among them, hold the maximally mixed state I/4 and are flagged False.
    """
    if isinstance(rho_in, MirrorInput):
        return _evolve_blocks(amps, rho_in)
    out = _filtered(amps, rho_in)
    norm = out.trace(axis1=1, axis2=2).real
    flux_ok = norm > FLUX_TOL * np.einsum('nij,nij->n', amps, amps.conj()).real
    out /= np.where(flux_ok, norm, 1.0)[:, None, None]
    out = 0.5 * (out + out.conj().swapaxes(1, 2))
    if not flux_ok.all():
        out = np.where(flux_ok[:, None, None], out, np.eye(4) / 4.0)
    return out, flux_ok


@dataclass(frozen=True)
class MirrorInput:
    """A mirror-invariant input as its blocks R_lam (2, 2, 2) in the
    eigenbases of A_in = D_in XX, lam = +1 (or +i) first, with the
    process's signs (D_out, D_in) of `amplitudes.MIRROR_SIGNS`."""

    blocks: np.ndarray
    d_out: np.ndarray
    d_in: np.ndarray


@dataclass(frozen=True)
class MirrorState:
    """A batch of mirror-invariant states as their two 2 x 2 blocks
    [[y, x], [x*, z]] in the eigenbases of A_out = D_out XX (module
    docstring): y, z real and x real or complex, each (2, N) with the block
    of lam = +1 (or +i) first; `sign` is d_out[0] d_out[1]."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    sign: float


def _mirror_eigenvalues(d: np.ndarray) -> np.ndarray:
    """The eigenvalues of A = diag(d) XX, whose square is d0 d3: +-1 or +-i."""
    return np.array([1.0, -1.0]) if d[0] * d[3] > 0 else np.array([1j, -1j])


def evolution_input(rho_in: np.ndarray, d_out: np.ndarray, d_in: np.ndarray):
    """What `evolve_batch` takes for a 4x4 rho_in and a process's signs
    (D_out, D_in): the MirrorInput of rho_in when it is exactly
    mirror-invariant, D_in XX rho_in XX D_in == rho_in, else rho_in itself."""
    if not np.array_equal(d_in[:, None] * rho_in[::-1, ::-1] * d_in, rho_in):
        return rho_in
    lam = _mirror_eigenvalues(d_in)
    basis = np.zeros((2, 4, 2), lam.dtype)
    basis[:, [0, 1], [0, 1]] = 1.0
    basis[:, [3, 2], [0, 1]] = lam[:, None] * d_in[:2]
    # the basis vectors without their 1/sqrt2, so an unpolarized input gives I/4 exactly
    return MirrorInput(0.5 * (basis.conj().swapaxes(1, 2) @ rho_in @ basis), d_out, d_in)


def _evolve_blocks(amps: np.ndarray, mirror: MirrorInput) -> tuple[MirrorState, np.ndarray]:
    """`evolve_batch` on the mirror blocks of `amps`, rows 0 and 1 of M
    (N, 2, 4), or a full (N, 4, 4) M, of which it reads those rows:
    rho_lam = M_lam R_lam M_lam+, normalised by sum_lam tr rho_lam; the flux
    test compares that trace with FLUX_TOL * sum_lam |M_lam|_F^2, which is
    |M|_F^2."""
    d_in, r_in = mirror.d_in, mirror.blocks
    # rows 0 and 1 of M as (2, 4, N), copied once so every step below runs along N
    rows = np.ascontiguousarray(np.moveaxis(amps[:, :2], 0, -1))
    lam = _mirror_eigenvalues(d_in)[:, None, None, None]
    m = rows[:, :2] + lam * (d_in[:2, None] * rows[:, 3:1:-1])       # M_lam[a, b], (2, 2, 2, N)
    m_conj = m.conj() if np.iscomplexobj(m) else m
    # (M_lam R_lam)[a, c], then rho_lam[a, a'] = sum_c (M_lam R_lam)[a, c] M_lam[a', c]*
    t = m[:, :, :1] * r_in[:, None, 0, :, None] + m[:, :, 1:] * r_in[:, None, 1, :, None]
    diagonal = (t * m_conj).sum(axis=2).real                        # (2, [y, z], N)
    x = t[:, 0, 0] * m_conj[:, 1, 0] + t[:, 0, 1] * m_conj[:, 1, 1]
    norm = diagonal.sum(axis=(0, 1))
    flux_ok = norm > FLUX_TOL * (m * m_conj).real.sum(axis=(0, 1, 2))
    scale = np.where(flux_ok, norm, 1.0)
    diagonal /= scale
    x /= scale
    if not flux_ok.all():
        diagonal = np.where(flux_ok, diagonal, 0.25)
        x = np.where(flux_ok, x, 0.0)
    sign = float(mirror.d_out[0] * mirror.d_out[1])
    return MirrorState(diagonal[:, 0], diagonal[:, 1], x, sign), flux_ok
