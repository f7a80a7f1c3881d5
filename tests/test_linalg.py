"""The Jacobi kernel behind the scans' 4 x 4 spectra, against references
that share no code with it: mpmath's 40-digit eigsy, LAPACK's eigvalsh
(which the point paths keep), and the Bell-diagonal identity of
fermion-pair outputs. Bounds are in eps |H|_F (`spectral_bounds`)."""
import math

import mpmath
import numpy as np
import pytest

from qedtangle.amplitudes import MIRROR_SIGNS, helicity_amplitudes_batch
from qedtangle.entanglement import _with_partial_transpose, block_spectra, partial_transpose
from qedtangle.kinematics import ProcessKind
from qedtangle.linalg import _jacobi, _scaled_entries, hermitian_eigenvalues_batch
from qedtangle.qstate import MirrorInput, evolution_input, evolve_batch
from qedtangle.scan import _states, parse_initial
from spectral_bounds import EPS, JACOBI_TOL, LAPACK_TOL

#: the scan inputs that take the 4 x 4 path: pure, asymmetric diag:, and
#: werner, which is mirror-invariant in every process but Compton
NON_MIRROR = ("ll", "rl", "diag:0.4,0.3,0.2,0.1")


def _exact(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (N, 4) from mpmath's eigsy at 40 digits."""
    with mpmath.workdps(40):
        return np.array([sorted(float(x) for x in
                                mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True))
                         for m in h])


def _norms(h: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(h * h, axis=(-2, -1)))


def _scan_matrices(rng, process: ProcessKind, initial: str, n: int = 12) -> np.ndarray:
    """rho^T_B and rho (2n', 4, 4) of seeded scan states: p log-uniform over
    1e-4..1e5 MeV, and angles that include the forward and backward rays'
    neighbourhoods. Rows below threshold or on a pole are I/4."""
    p = np.exp(rng.uniform(math.log(1e-4), math.log(1e5), n + 4))
    theta = np.concatenate([rng.uniform(0.0, 2 * math.pi, n), [1e-7, 2 * math.pi - 1e-6,
                                                                math.pi + 1e-6, 1e-3]])
    states, _ = _states(process, p, theta, parse_initial(initial).density.entries)
    assert states.dtype == float
    return np.concatenate([partial_transpose(states), states])


def _corpus() -> list[tuple[str, np.ndarray]]:
    """Scan matrices of every process with a non-mirror input (and Compton
    werner), and the hard cases of Jacobi's method."""
    rng = np.random.default_rng(29)
    cases = [(f"{process.value} {initial}", _scan_matrices(rng, process, initial))
             for process in ProcessKind for initial in NON_MIRROR]
    cases.append(("compton werner", _scan_matrices(rng, ProcessKind.COMPTON, "werner", 40)))
    q = np.linalg.qr(rng.normal(size=(40, 4, 4)))[0]
    clustered = 0.25 + np.sort(rng.uniform(0.0, 1e-12, (40, 4)), axis=1)
    cases.append(("clustered within 1e-12", (q * clustered[:, None, :]) @ q.swapaxes(1, 2)))
    for rank in (1, 2, 3):
        v = rng.normal(size=(20, 4, rank))
        rho = v @ v.swapaxes(1, 2)
        cases.append((f"rank {rank}", rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]))
    cases.append(("zero", np.zeros((3, 4, 4))))
    cases.append(("diagonal", np.apply_along_axis(np.diag, 1, rng.normal(size=(20, 4)))))
    cases.append(("I/4", np.tile(np.eye(4) / 4.0, (3, 1, 1))))
    g = rng.normal(size=(40, 4, 4))
    cases.append(("random symmetric", g + g.swapaxes(1, 2)))
    return cases


CORPUS = _corpus()


def test_corpus_holds_dead_rows_and_live_states():
    scan = np.concatenate([h for name, h in CORPUS if name.split()[0] in
                           {p.value for p in ProcessKind}])
    dead = np.all(scan == np.eye(4) / 4.0, axis=(1, 2))
    assert 0 < np.sum(dead) < len(scan) // 2


@pytest.mark.parametrize("name, h", CORPUS, ids=[name for name, _ in CORPUS])
def test_kernel_matches_mpmath(name, h):
    want = _exact(h)
    scale = EPS * _norms(h)[:, None]
    assert np.all(np.abs(hermitian_eigenvalues_batch(h) - want) <= JACOBI_TOL / EPS * scale)
    # the reference the point paths keep, and the bound `spectral_bounds` takes for it
    assert np.all(np.abs(np.linalg.eigvalsh(h) - want) <= LAPACK_TOL / EPS * scale)


@pytest.mark.parametrize("name, h", CORPUS, ids=[name for name, _ in CORPUS])
def test_off_diagonal_left_after_the_sweeps_is_below_eps(name, h):
    entries, _ = _scaled_entries(h)
    norm = np.sqrt(np.sum(entries[:4] ** 2, axis=0) + 2.0 * np.sum(entries[4:] ** 2, axis=0))
    _, pivots, cross = _jacobi(entries)
    left = np.sqrt(2.0 * (np.sum(pivots ** 2, axis=0) + np.sum(cross ** 2, axis=0)))
    assert np.all(left <= EPS * norm)


def test_any_sub_stack_gives_the_same_bits():
    h = np.concatenate([m for _, m in CORPUS])
    whole = hermitian_eigenvalues_batch(h)
    assert whole.shape == (len(h), 4) and np.all(np.diff(whole, axis=1) >= 0.0)
    for index in (slice(None, None, 3), slice(5, 17),
                  np.random.default_rng(3).permutation(len(h))[:50]):
        assert np.array_equal(hermitian_eigenvalues_batch(h[index]), whole[index])
    for k in range(0, len(h), 37):
        assert np.array_equal(hermitian_eigenvalues_batch(h[k]), whole[k])
    even = h[: len(h) // 2 * 2]
    assert np.array_equal(hermitian_eigenvalues_batch(even.reshape(2, -1, 4, 4)),
                          whole[: len(even)].reshape(2, -1, 4))
    # neighbours of any size in the same call do not move a matrix's bits
    mixed = np.concatenate([h[:10], 1e300 * h[10:20], 1e-300 * h[20:30]])
    assert np.array_equal(hermitian_eigenvalues_batch(mixed)[:10], whole[:10])


@pytest.mark.parametrize("power", [-600, -64, 64, 600])
def test_power_of_two_scaling_is_exact(power):
    h = np.concatenate([m for _, m in CORPUS])
    assert np.array_equal(np.ldexp(np.ldexp(h, power), -power), h)    # no entry underflows
    want = np.ldexp(hermitian_eigenvalues_batch(h), power)
    assert np.array_equal(hermitian_eigenvalues_batch(np.ldexp(h, power)), want)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_extreme_magnitudes(scale):
    h = CORPUS[-1][1]
    got = hermitian_eigenvalues_batch(scale * h) / scale
    assert np.all(np.abs(got - _exact(h)) <= JACOBI_TOL * _norms(h)[:, None])


def test_complex_stacks_take_lapack():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(30, 4, 4)) + 1j * rng.normal(size=(30, 4, 4))
    h = g + g.conj().swapaxes(1, 2)
    assert np.array_equal(hermitian_eigenvalues_batch(h), np.linalg.eigvalsh(h))


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_partial_transpose(dtype):
    rho = np.random.default_rng(7).normal(size=(7, 4, 4)).astype(dtype)
    pair = _with_partial_transpose(rho)
    assert pair.dtype == dtype
    assert np.array_equal(pair, np.concatenate([partial_transpose(rho), rho]))


@pytest.mark.parametrize("process", [ProcessKind.MOLLER, ProcessKind.MUON_PAIR,
                                     ProcessKind.BHABHA, ProcessKind.ELECTRON_MUON,
                                     ProcessKind.ANNIHILATION])
@pytest.mark.parametrize("initial", ["unpolarized", "werner", "diag:0.3,0.2,0.2,0.3"])
def test_bell_diagonal_identity_on_both_spectral_paths(process, initial):
    """A fermion-pair output of a real mirror-invariant input is locally
    Bell-diagonal, so its PT spectrum is 1/2 minus its spectrum reversed
    (ROADMAP item 12). The inputs evolve as plain 4 x 4 matrices, so the
    kernel gets the full states, and as the scan's mirror blocks, whose
    closed-form spectra (`block_spectra`) share no code with the identity.
    Annihilation's photon pair is the counter-example."""
    rng = np.random.default_rng(12)
    lo = 110.0 if process is ProcessKind.MUON_PAIR else 1e-4
    p = np.exp(rng.uniform(math.log(lo), math.log(1e4), 2000))
    theta = rng.uniform(0.01, 2 * math.pi - 0.01, 2000)
    amps, _, divergent = helicity_amplitudes_batch(process, p, theta)
    rho_in = parse_initial(initial).density.entries
    states, flux_ok = evolve_batch(amps[~divergent], rho_in)
    pair = hermitian_eigenvalues_batch(_with_partial_transpose(states[flux_ok]))
    spectra = [pair.reshape(2, -1, 4)]
    mirror = evolution_input(rho_in, *MIRROR_SIGNS[process])
    assert isinstance(mirror, MirrorInput)
    blocks, block_ok = evolve_batch(amps[~divergent], mirror)
    assert np.array_equal(block_ok, flux_ok)
    spectra.append([s[flux_ok] for s in block_spectra(blocks)])
    for pt, nu in spectra:
        deviation = np.max(np.abs(pt - (0.5 - nu[:, ::-1])))
        if process is ProcessKind.ANNIHILATION:
            assert deviation > 0.1
        else:
            assert deviation <= 4.0 * EPS
