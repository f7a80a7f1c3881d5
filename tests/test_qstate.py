import math

import numpy as np
import pytest

from qedtangle.errors import UnfilterableStateError
from qedtangle.qstate import (BASIS, DensityMatrix, diagonal, evolve,
                              evolve_batch, from_matrix, pure, unpolarized,
                              werner_symmetric)

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
