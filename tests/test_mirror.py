"""Mirror symmetry: reflection in the scattering plane flips every helicity.

The engine obeys M = D_out XX M XX D_in, XX = sigma_x (x) sigma_x, with the
diagonal signs D of `amplitudes.MIRROR_SIGNS`. For a mirror-invariant input
the outgoing state and its partial transpose commute with A = D_out XX, and
a scan takes both spectra from `entanglement.mirror_spectra`; these tests
check the relation, the block spectra against LAPACK, which scans take the
block path, and the Compton consequence A^2 = -1.
"""
import math

import numpy as np
import pytest

from qedtangle import entanglement
from qedtangle.amplitudes import MIRROR_SIGNS, helicity_amplitudes_batch
from qedtangle.entanglement import mirror_spectra, partial_transpose
from qedtangle.kinematics import ProcessKind, threshold_momentum
from qedtangle.qstate import evolve_batch
from qedtangle.scan import ScanConfig, emit_csv, parse_initial, run_scan

FERMION_PAIR = [1.0, -1.0, -1.0, 1.0]


def seeded(process=None):
    """A test's own generator: one stream per process, one for no process."""
    return np.random.default_rng([29, 0 if process is None else 1 + list(ProcessKind).index(process)])


def random_points(rng, process, n):
    p = threshold_momentum(process) + 10.0 ** rng.uniform(-2.0, 4.0, n)
    return p, rng.uniform(-7.0, 14.0, n)


def mirrored(m, d_left, d_right):
    """diag(d_left) XX m XX diag(d_right) over the last two axes."""
    return d_left[:, None] * m[..., ::-1, ::-1] * d_right


def invariant_inputs(rng, d_in, n, dtype=float):
    """Random states with D_in XX rho XX D_in == rho, real or complex."""
    g = rng.normal(size=(n, 4, 4)).astype(dtype)
    if dtype is complex:
        g += 1j * rng.normal(size=(n, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho = 0.5 * (rho + mirrored(rho, d_in, d_in))
    return rho / np.einsum('nii->n', rho).real[:, None, None]


def outgoing_states(rng, process, rho_in):
    """Engine output states for inputs (N,4,4) at N random points."""
    p, theta = random_points(rng, process, len(rho_in))
    amps, _, divergent = helicity_amplitudes_batch(process, p, theta)
    out = np.stack([evolve_batch(m[None], r)[0][0] for m, r in zip(amps, rho_in)])
    return out[~divergent]


def test_mirror_signs_follow_the_legs():
    for process, (d_out, d_in) in MIRROR_SIGNS.items():
        assert d_in.tolist() == ([1.0, 1.0, -1.0, -1.0] if process is ProcessKind.COMPTON
                                 else FERMION_PAIR)
    assert MIRROR_SIGNS[ProcessKind.ANNIHILATION][0].tolist() == [1.0] * 4
    assert MIRROR_SIGNS[ProcessKind.COMPTON][0].tolist() == [1.0, 1.0, -1.0, -1.0]
    assert MIRROR_SIGNS[ProcessKind.MOLLER][0].tolist() == FERMION_PAIR


@pytest.mark.parametrize("process", list(ProcessKind))
def test_engine_obeys_the_mirror_relation(process):
    """M = D_out XX M XX D_in on random points; the residual is 0 today."""
    d_out, d_in = MIRROR_SIGNS[process]
    amps, _, divergent = helicity_amplitudes_batch(process, *random_points(seeded(process),
                                                                           process, 500))
    amps = amps[~divergent]
    scale = np.max(np.abs(amps), axis=(1, 2))
    residual = np.max(np.abs(mirrored(amps, d_out, d_in) - amps), axis=(1, 2))
    assert np.all(residual <= 1e-15 * scale)


def spectra_to_40_digits(h):
    """Ascending eigenvalues of each Hermitian (N, 4, 4) matrix, solved at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        return np.array([sorted(float(x) for x in mpmath.eighe(mpmath.matrix(m.tolist()),
                                                               eigvals_only=True))
                         for m in h]).reshape(-1, 4)


@pytest.mark.parametrize("process", list(ProcessKind))
def test_block_spectra_match_eigvalsh(process):
    """Real states, as every named input gives, against LAPACK to 2^-51.
    LAPACK's own error on these states reaches about 1.2e-15, so a matrix
    that misses is held to a 40-digit eigensolve at 1e-15 instead."""
    rng = seeded(process)
    d_out, d_in = MIRROR_SIGNS[process]
    rho_in = np.concatenate([invariant_inputs(rng, d_in, 300),
                             np.broadcast_to(np.eye(4) / 4.0, (100, 4, 4))])
    rho = outgoing_states(rng, process, rho_in)
    for h in (rho, partial_transpose(rho)):
        got = mirror_spectra(h, d_out)
        miss = np.max(np.abs(got - np.linalg.eigvalsh(h)), axis=1) > 2.0 ** -51
        assert np.max(np.abs(got[miss] - spectra_to_40_digits(h[miss])), initial=0.0) <= 1e-15


@pytest.mark.parametrize("process", list(ProcessKind))
def test_block_spectra_of_complex_states_against_mpmath(process):
    """Complex states: LAPACK's own error reaches about 1e-15 here, so the
    reference is a 40-digit eigensolve of the same float64 matrices."""
    rng = seeded(process)
    d_out, d_in = MIRROR_SIGNS[process]
    rho = outgoing_states(rng, process, invariant_inputs(rng, d_in, 12, complex))
    for h in (rho, partial_transpose(rho)):
        assert np.max(np.abs(mirror_spectra(h, d_out) - spectra_to_40_digits(h))) <= 1e-15


def test_block_spectra_of_real_states_in_the_signed_bell_basis():
    """Block-diagonal states built directly in {e0 +- e3, e1 -+ e2}/sqrt2."""
    bell = np.array([[1, 0, 0, 1], [0, 1, -1, 0], [1, 0, 0, -1], [0, 1, 1, 0]]) / math.sqrt(2.0)
    rng = seeded()
    for _ in range(200):
        blocks = np.zeros((4, 4))
        for half in (slice(0, 2), slice(2, 4)):
            g = rng.normal(size=(2, 2))
            blocks[half, half] = g @ g.T
        h = bell.T @ blocks @ bell
        want = np.sort(np.concatenate([np.linalg.eigvalsh(blocks[:2, :2]),
                                       np.linalg.eigvalsh(blocks[2:, 2:])]))
        assert np.max(np.abs(mirror_spectra(h, FERMION_PAIR) - want)) <= 1e-14 * np.max(want)


def _count_eigensolves(monkeypatch):
    calls = []
    real = entanglement.hermitian_eigenvalues_batch

    def counting(h):
        calls.append(len(h))
        return real(h)

    monkeypatch.setattr(entanglement, "hermitian_eigenvalues_batch", counting)
    return calls


@pytest.mark.parametrize("process, initial, block", [
    (ProcessKind.MOLLER, "unpolarized", True),
    (ProcessKind.MOLLER, "diag:0.3,0.2,0.2,0.3", True),
    (ProcessKind.MOLLER, "werner", True),
    (ProcessKind.ANNIHILATION, "werner", True),
    (ProcessKind.COMPTON, "unpolarized", True),
    (ProcessKind.COMPTON, "werner", False),
    (ProcessKind.MOLLER, "ll", False),
    (ProcessKind.MOLLER, "diag:0.4,0.3,0.2,0.1", False),
])
def test_scan_takes_the_block_path_for_mirror_invariant_inputs(monkeypatch, process,
                                                               initial, block):
    calls = _count_eigensolves(monkeypatch)
    result = run_scan(ScanConfig(process=process, initial=initial, p_min=0.2, p_max=3.0,
                                 p_steps=12, theta_steps=10))
    assert np.sum(result.status == 0) > 0
    assert (len(calls) == 0) == block


def test_block_path_scan_is_independent_of_jobs(tmp_path):
    cfg = dict(process=ProcessKind.MOLLER, p_steps=110, theta_steps=100)
    for jobs in (1, 2):
        emit_csv(run_scan(ScanConfig(**cfg, jobs=jobs)), tmp_path / f"jobs{jobs}.csv")
    assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes()


@pytest.mark.parametrize("initial", ["unpolarized", "diag:0.3,0.2,0.2,0.3",
                                     "diag:0.1,0.4,0.4,0.1"])
def test_compton_mirror_invariant_spectra_are_doubly_degenerate(initial):
    """A = D_out XX has A^2 = -1 for Compton, so both spectra pair up; LAPACK
    sees it without the block formula."""
    rho_in = parse_initial(initial).density.entries
    rho = outgoing_states(seeded(ProcessKind.COMPTON), ProcessKind.COMPTON,
                          np.broadcast_to(rho_in, (400, 4, 4)))
    for h in (rho, partial_transpose(rho)):
        eigs = np.linalg.eigvalsh(h)
        assert np.max(eigs[:, 1] - eigs[:, 0]) <= 1e-15
        assert np.max(eigs[:, 3] - eigs[:, 2]) <= 1e-15


def test_compton_entanglement_needs_polarised_beams():
    """A doubly degenerate PT spectrum cannot hold the one negative eigenvalue
    of an entangled two-qubit state: mirror-invariant inputs never entangle."""
    grid = dict(process=ProcessKind.COMPTON, p_min=0.01, p_max=1e4, p_steps=100,
                p_log=True, theta_steps=100)
    for initial in ("unpolarized", "diag:0.3,0.2,0.2,0.3"):
        result = run_scan(ScanConfig(**grid, initial=initial))
        assert np.all(result.status == 0)
        assert not result.entangled.any()
    for initial in ("werner", "ll"):
        assert run_scan(ScanConfig(**grid, initial=initial)).entangled.sum() > 0
