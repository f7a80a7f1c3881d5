import math

import numpy as np
import pytest

from qedtangle.amplitudes import MIRROR_SIGNS, helicity_amplitudes_batch
from qedtangle.entanglement import block_spectra, partial_transpose
from qedtangle.errors import InvalidConfigError, UnfilterableStateError
from qedtangle.kinematics import ProcessKind
from qedtangle.linalg import hermitian_eigenvalues_batch
from qedtangle.qstate import (BASIS, DensityMatrix, MirrorState, diagonal, evolution_input,
                              evolve, evolve_batch, from_matrix, pure, unpolarized,
                              werner_symmetric)
from qedtangle.scan import parse_initial

RNG = np.random.default_rng(5)


def random_density():
    g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_unpolarized_is_maximally_mixed():
    assert np.allclose(unpolarized().density.entries, np.eye(4) / 4)


def test_pure_states():
    for i, pair in enumerate(BASIS):
        rho = pure(pair).density.entries
        want = np.zeros((4, 4))
        want[i, i] = 1.0
        assert np.allclose(rho, want)
    assert np.allclose(diagonal([1, 0, 0, 0]).density.entries, pure("LL").density.entries)
    with pytest.raises(ValueError):
        pure("XX")


def test_werner_symmetric_eigenvalues():
    rho = werner_symmetric().density.entries
    eigs = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(eigs, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        diagonal([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        diagonal([0.3, 0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        diagonal([1.0, 0.0, 0.0])


def test_negative_zero_weight_gives_one_label():
    # repr(-0.0) is "-0": without normalising, one state had two CSV labels
    want = diagonal([0.0, 0.0, 0.0, 1.0])
    assert want.description == "diag:0;0;0;1"
    for state in (diagonal([-0.0, 0, 0, 1]), parse_initial("diag:-0,0,0,1"),
                  parse_initial("diag:0,0,0,1")):
        assert state.description == want.description
        assert parse_initial(state.description).description == want.description
        assert not np.signbit(state.density.entries).any()


def test_non_finite_input_is_rejected():
    # every comparison with NaN is False, so range checks alone accept it
    for weights in ([math.nan, 0, 0, 0], [1.0, 0, 0, math.nan], [math.inf, 0, 0, 0],
                    [-math.inf, 1, 0, 1]):
        with pytest.raises(ValueError, match="finite"):
            diagonal(weights)
    for bad in (math.nan, math.inf):
        m = np.eye(4) / 4
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            from_matrix(m)
        m = np.eye(4) / 4 + 0j
        m[1, 2], m[2, 1] = complex(0.0, bad), complex(0.0, -bad)
        with pytest.raises(ValueError, match="finite"):
            from_matrix(m)
    with pytest.raises(InvalidConfigError, match="finite"):
        parse_initial("diag:nan,0,0,0")


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        from_matrix(np.diag([0.5, 0.5, 0.5, -0.5]))
    good = from_matrix(np.eye(4) / 4)
    assert good.description == "custom-matrix"


def test_evolve_identity_keeps_state():
    init = werner_symmetric()
    out = evolve(np.eye(4, dtype=complex), init)
    assert np.allclose(out.entries, init.density.entries, atol=1e-14)


def test_evolve_projective_filter():
    m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    out = evolve(m, unpolarized())
    assert np.allclose(out.entries, pure("LL").density.entries, atol=1e-14)


def test_evolve_rescaling_invariance():
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    init = unpolarized()
    a = evolve(m, init).entries
    b = evolve((2.7 - 0.3j) * m, init).entries
    assert np.allclose(a, b, atol=1e-13)


def test_evolve_preserves_positivity_and_trace():
    for _ in range(50):
        m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        rho_in = random_density()
        out = evolve(m, DensityMatrix(rho_in)).entries
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_evolve_diagonal_mixture_reduction():
    # for diagonal input the output is the weighted sum of column outer
    # products, normalized once at the end
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    out = evolve(m, diagonal(weights)).entries
    acc = sum(w * np.outer(m[:, i], m[:, i].conj()) for i, w in enumerate(weights))
    acc /= np.trace(acc).real
    assert np.allclose(out, acc, atol=1e-13)


def test_evolve_linearity_before_normalization():
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho_a, rho_b = random_density(), random_density()
    mix = 0.25 * rho_a + 0.75 * rho_b
    raw = lambda rho: m @ rho @ m.conj().T
    assert np.allclose(raw(mix), 0.25 * raw(rho_a) + 0.75 * raw(rho_b), atol=1e-12)


def test_unfilterable_state_error():
    with pytest.raises(UnfilterableStateError):
        evolve(np.zeros((4, 4), dtype=complex), unpolarized())
    # a filter orthogonal to the input state also carries no flux
    m = np.zeros((4, 4), dtype=complex)
    m[:, 1] = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(UnfilterableStateError):
        evolve(m, pure("LL"))


def test_unfilterable_state_error_reports_the_trace():
    flux = r"^no outgoing flux: Tr\(M rho M\+\) = "
    with pytest.raises(UnfilterableStateError, match=flux + r"0\.000e\+00$"):
        evolve(np.zeros((4, 4)), unpolarized())
    with pytest.raises(UnfilterableStateError, match=flux + r"nan$"):
        evolve(np.full((4, 4), math.nan), unpolarized())
    # a flux below FLUX_TOL |M|_F^2 but not zero
    m = np.zeros((4, 4))
    m[:, 0], m[:, 1] = 1e-20, [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(UnfilterableStateError, match=flux + r"4\.000e-40$"):
        evolve(m, pure("LL"))


@pytest.mark.parametrize("phase", [1.0, (1.0 + 1.0j) / math.sqrt(2.0)])
def test_flux_test_compares_the_trace_with_the_frobenius_norm(phase):
    """Tr(M rho M+) / |M|_F^2 at 1e-29 passes FLUX_TOL = 1e-30 and at 1e-31
    fails it, for real and complex M alike."""
    amps = np.tile(phase * np.array([0.0, 1.0, 1.0, 1.0]), (2, 4, 1))
    # |LL> sees column 0 only: Tr = 4 eps^2 against |M|_F^2 = 4 eps^2 + 12
    amps[:, :, 0] = phase * np.sqrt([3e-29, 3e-31])[:, None]
    assert evolve_batch(amps, pure("LL").density.entries)[1].tolist() == [True, False]


@pytest.mark.parametrize("mirror", [False, True])
def test_rows_without_flux_hold_the_maximally_mixed_state(mirror):
    """Zero and NaN amplitude rows fail the flux test and hold I/4, on a 4x4
    input and on its mirror blocks alike, so both of their spectra are 1/4."""
    process = ProcessKind.MOLLER
    amps = helicity_amplitudes_batch(process, np.array([0.5, 1.0, 2.0, 3.0]),
                                     np.array([0.3, 1.0, 2.0, 2.5]))[0]
    amps[1], amps[2] = 0.0, math.nan
    rho_in = unpolarized().density.entries
    state, flux_ok = evolve_batch(amps, evolution_input(rho_in, *MIRROR_SIGNS[process])
                                  if mirror else rho_in)
    assert flux_ok.tolist() == [True, False, False, True]
    dead = [1, 2]
    if mirror:
        assert isinstance(state, MirrorState)
        assert np.array_equal(state.y[:, dead], np.full((2, 2), 0.25))
        assert np.array_equal(state.z[:, dead], np.full((2, 2), 0.25))
        assert np.array_equal(state.x[:, dead], np.zeros((2, 2)))
        spectra = block_spectra(state)
    else:
        assert np.array_equal(state[dead], np.tile(np.eye(4) / 4.0, (2, 1, 1)))
        spectra = [hermitian_eigenvalues_batch(partial_transpose(state)),
                   hermitian_eigenvalues_batch(state)]
    for eigs in spectra:
        assert np.array_equal(eigs[dead], np.full((2, 4), 0.25))
        assert np.all(np.isfinite(eigs))


def test_evolve_batch_matches_scalar_and_flags():
    amps = RNG.normal(size=(6, 4, 4)) + 1j * RNG.normal(size=(6, 4, 4))
    amps[3] = 0.0
    rho_in = np.eye(4, dtype=complex) / 4
    out, ok = evolve_batch(amps, rho_in)
    assert not ok[3] and ok[[0, 1, 2, 4, 5]].all()
    for i in (0, 1, 2, 4, 5):
        want = evolve(amps[i], unpolarized()).entries
        assert np.allclose(out[i], want, atol=1e-13)


def test_trace_error_shows_a_plain_float():
    with pytest.raises(ValueError, match=r"trace must be 1, got 1\.2$"):
        from_matrix(np.eye(4) * 0.3)
