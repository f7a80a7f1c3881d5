"""Gamma algebra and the batch spinor / polarization builders.

Directions are drawn from theta in [-2 pi, 4 pi], which covers the recoil
legs at theta + pi and the lower half plane; the helicity spinors are smooth
in theta, so every property must hold there as well.

The package works with real plane vectors (v^0, v^x, Im v^y, v^z); the
checks here turn them back into complex 4-vectors and compare with complex
gamma-matrix algebra built from `dirac.GAMMA` and the (+,-,-,-) metric.
"""
import math

import numpy as np
import pytest

from qedtangle.dirac import (GAMMA, GAMMA0, GAMMA5, IDENTITY4, METRIC,
                             PLANE_CONJ, current_batch, eps_batch,
                             lorentz_dot_batch, slash_batch,
                             u_batch, v_batch)

RNG = np.random.default_rng(42)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def complex_vector(plane):
    """The complex 4-vector (v^0, v^x, i v^y, v^z) that a plane vector stands for."""
    return plane * np.array([1, 1, 1j, 1])


def minkowski(a, b):
    """Complex a . b with the (+,-,-,-) metric, no conjugation."""
    return np.einsum('...m,m,...m->...', a, METRIC, b)


def complex_slash(vec):
    """gamma^mu v_mu from the complex gamma matrices, (..., 4, 4)."""
    return np.einsum('...m,m,mab->...ab', vec, METRIC, GAMMA)


def random_onshell(mass, n=10, pmax=20.0):
    """(p, theta, E, k) for n on-shell momenta in the phi = 0 plane."""
    p = RNG.uniform(0.01, pmax, n)
    theta = RNG.uniform(-2 * math.pi, 4 * math.pi, n)
    e = np.sqrt(p ** 2 + mass ** 2)
    k = np.stack([e, p * np.sin(theta), np.zeros(n), p * np.cos(theta)], axis=-1)
    return p, theta, e, k


def bar(spinors):
    return spinors.conj() @ GAMMA0


def sandwich(left, mid, right):
    """left-bar . mid . right over a batch, mid (4,4) or (N,4,4)."""
    return np.einsum('na,...ab,nb->n', bar(left), mid, right)


def helicity_operator(theta):
    """(N,4,4) Sigma . phat for directions theta in the xz-plane."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    s = np.sin(theta)[:, None, None] * sx + np.cos(theta)[:, None, None] * sz
    z = np.zeros_like(s)
    return np.block([[s, z], [z, s]])


def rotation_y(theta):
    """(4,4) spin-1/2 rotation exp(-i theta Sigma_y / 2)."""
    rot2 = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * SIGMA_Y
    return np.block([[rot2, np.zeros((2, 2))], [np.zeros((2, 2)), rot2]])


def test_clifford_algebra():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            want = 2.0 * (METRIC[mu] if mu == nu else 0.0) * IDENTITY4
            assert np.allclose(anti, want, atol=1e-14)


def test_gamma_hermiticity_and_gamma5():
    assert np.allclose(GAMMA[0].conj().T, GAMMA[0])
    for i in (1, 2, 3):
        assert np.allclose(GAMMA[i].conj().T, -GAMMA[i])
    assert np.allclose(GAMMA5, 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])
    assert np.allclose(GAMMA5 @ GAMMA5, IDENTITY4)


@pytest.mark.parametrize("hel", ["L", "R"])
def test_u_spinor_dirac_equation_and_norm(hel):
    m = 0.51099895
    p, theta, e, k = random_onshell(m)
    u = u_batch(m, p, theta, hel)
    residual = np.einsum('nab,nb->na', slash_batch(k) - m * IDENTITY4, u)
    assert np.all(np.linalg.norm(residual, axis=1) < 1e-9 * np.linalg.norm(u, axis=1))
    assert np.allclose(sandwich(u, IDENTITY4, u), 2 * m, rtol=1e-12)
    assert np.allclose(np.sum(np.abs(u) ** 2, axis=1), 2 * e, rtol=1e-12)


@pytest.mark.parametrize("hel", ["L", "R"])
def test_v_spinor_dirac_equation_and_norm(hel):
    m = 105.6583755
    p, theta, e, k = random_onshell(m, pmax=300.0)
    v = v_batch(m, p, theta, hel)
    residual = np.einsum('nab,nb->na', slash_batch(k) + m * IDENTITY4, v)
    assert np.all(np.linalg.norm(residual, axis=1) < 1e-9 * np.linalg.norm(v, axis=1))
    assert np.allclose(sandwich(v, IDENTITY4, v), -2 * m, rtol=1e-12)
    assert np.allclose(np.sum(np.abs(v) ** 2, axis=1), 2 * e, rtol=1e-12)


def test_helicity_eigenvalues():
    m = 0.51099895
    p, theta, e, k = random_onshell(m)
    op = helicity_operator(theta)
    for hel, lam in (("R", 1.0), ("L", -1.0)):
        u = u_batch(m, p, theta, hel)
        assert np.allclose(np.einsum('nab,nb->na', op, u), lam * u, atol=1e-12)
        # v spinors labelled by physical helicity: opposite Sigma.phat eigenvalue
        v = v_batch(m, p, theta, hel)
        assert np.allclose(np.einsum('nab,nb->na', op, v), -lam * v, atol=1e-12)


def test_completeness_relations():
    m = 0.51099895
    p, theta, e, k = random_onshell(m, n=5)
    acc_u = sum(np.einsum('na,nb->nab', u_batch(m, p, theta, h), bar(u_batch(m, p, theta, h)))
                for h in "LR")
    acc_v = sum(np.einsum('na,nb->nab', v_batch(m, p, theta, h), bar(v_batch(m, p, theta, h)))
                for h in "LR")
    scale = 1e-9 * e[:, None, None]
    assert np.all(np.abs(acc_u - (slash_batch(k) + m * IDENTITY4)) < scale)
    assert np.all(np.abs(acc_v - (slash_batch(k) - m * IDENTITY4)) < scale)


def test_massless_u_v_proportional():
    # m -> 0 limit: u and v of opposite helicity labels coincide up to phase
    m = 1e-8
    theta = RNG.uniform(-2 * math.pi, 4 * math.pi, 6)
    p = np.full(6, 2.0)
    u = u_batch(m, p, theta, "R")
    v = v_batch(m, p, theta, "L")
    overlap = np.abs(np.sum(u.conj() * v, axis=1)) / (
        np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    assert np.allclose(overlap, 1.0, atol=1e-8)


def test_u_spinor_rotation_consistency():
    # spinors at angle theta equal the spin-1/2 rotation of the +z spinors,
    # with no sign flip across theta = pi or outside [0, 2 pi)
    m = 0.51099895
    p = np.array([1.3])
    for theta in RNG.uniform(-2 * math.pi, 4 * math.pi, 6):
        rot = rotation_y(theta)
        for build in (u_batch, v_batch):
            for hel in "LR":
                at_z = build(m, p, np.zeros(1), hel)[0]
                at_theta = build(m, p, np.array([theta]), hel)[0]
                assert np.allclose(rot @ at_z, at_theta, atol=1e-12)


@pytest.mark.parametrize("p", [1e-4, 1e-2])
def test_small_components_keep_their_digits_at_low_p(p):
    # |small| / |large| = sqrt(E - m) / sqrt(E + m) = p / (E + m); forming
    # sqrt(E - m) directly loses about m / (E - m) ulps (3.6e-9 at 1e-4 MeV)
    m = 0.51099895
    want = p / (math.sqrt(p ** 2 + m ** 2) + m)
    for build, large in ((u_batch, slice(0, 2)), (v_batch, slice(2, 4))):
        small = slice(2, 4) if large.start == 0 else slice(0, 2)
        for hel in "LR":
            spinor = build(m, np.array([p]), np.zeros(1), hel)[0]   # chi is exactly 0 or 1
            ratio = np.max(np.abs(spinor[small])) / np.max(np.abs(spinor[large]))
            assert abs(ratio / want - 1.0) <= 1e-15


def test_minkowski_dot_and_mass_shell():
    # the plane vector (5, 1, 2, 3) stands for (5, 1, 2i, 3)
    arr = np.array([[5.0, 1.0, 2.0, 3.0]])
    assert lorentz_dot_batch(arr, arr)[0, 0] == pytest.approx(25 - 1 + 4 - 9)
    # every row of a against every row of b
    a, b = RNG.normal(size=(6, 3, 4)), RNG.normal(size=(6, 2, 4))
    want = minkowski(complex_vector(a)[:, :, None], complex_vector(b)[:, None])
    assert np.max(np.abs(want.imag)) == 0.0
    assert np.allclose(lorentz_dot_batch(a, b), want.real, rtol=1e-14, atol=1e-14)
    m = 105.6583755
    p, theta, e, k = random_onshell(m, pmax=500.0)
    assert np.allclose(lorentz_dot_batch(k[:, None], k[:, None])[:, 0, 0], m ** 2, rtol=1e-9)


def test_photon_polarization_plus_z():
    eps_r = complex_vector(eps_batch(np.zeros(1), "R")[0])
    eps_l = complex_vector(eps_batch(np.zeros(1), "L")[0])
    want_r = -np.array([0, 1, 1j, 0]) / math.sqrt(2)
    want_l = np.array([0, 1, -1j, 0]) / math.sqrt(2)
    assert np.allclose(eps_r, want_r)
    assert np.allclose(eps_l, want_l)


def test_photon_polarization_invariants():
    theta = RNG.uniform(-2 * math.pi, 4 * math.pi, 8)
    w = RNG.uniform(0.1, 10.0, 8)
    k = np.stack([w, w * np.sin(theta), np.zeros(8), w * np.cos(theta)], axis=-1)
    for hel in "LR":
        plane = eps_batch(theta, hel)
        eps = complex_vector(plane)
        # transversality and normalization, explicitly and in the plane form
        assert np.all(np.abs(minkowski(eps, k)) < 1e-12 * w)
        assert np.allclose(minkowski(eps, eps.conj()), -1.0, atol=1e-12)
        assert np.array_equal(complex_vector(plane * PLANE_CONJ), eps.conj())
        dots = lorentz_dot_batch(plane[:, None], np.stack([k, plane * PLANE_CONJ], axis=1))
        assert np.all(np.abs(dots[:, 0, 0]) < 1e-12 * w)
        assert np.allclose(dots[:, 0, 1], -1.0, atol=1e-12)
    # conjugation flips helicity up to phase
    eps_r = complex_vector(eps_batch(theta, "R"))
    eps_l = complex_vector(eps_batch(theta, "L"))
    overlap = np.abs(np.sum(eps_r * eps_l, axis=1)) / (
        np.linalg.norm(eps_r, axis=1) * np.linalg.norm(eps_l, axis=1))
    assert np.allclose(overlap, 1.0, atol=1e-12)


def test_photon_polarization_rotation_oracle():
    # the rotated +z polarization vector equals the vector built at angle theta
    for theta in (0.77, -4.0, 10.5):
        rot = np.array([[math.cos(theta), 0, math.sin(theta)],
                        [0, 1, 0],
                        [-math.sin(theta), 0, math.cos(theta)]])
        for hel in "LR":
            eps_z = eps_batch(np.zeros(1), hel)[0]
            rotated = np.concatenate([[0.0], rot @ eps_z[1:]])
            assert np.allclose(eps_batch(np.array([theta]), hel)[0], rotated, atol=1e-12)


def test_slash_identities():
    p = np.array([[3.0, 0.4, -1.0, 2.0]])
    k = np.array([[1.5, 0.2, 0.9, -0.3]])
    mass2 = lorentz_dot_batch(p[:, None], p[:, None])[0, 0, 0]
    assert np.allclose(slash_batch(p)[0] @ slash_batch(p)[0], mass2 * IDENTITY4, atol=1e-12)
    assert np.allclose(slash_batch(np.zeros((1, 4))), np.zeros((4, 4)))
    assert np.allclose(slash_batch(p + k), slash_batch(p) + slash_batch(k), atol=1e-13)


def test_slash_matches_complex_gamma_algebra():
    plane = RNG.normal(size=(2, 5, 4))
    vec = complex_vector(plane)
    got = slash_batch(plane)
    assert got.dtype == float and got.shape == (2, 5, 4, 4)
    assert np.allclose(got, complex_slash(vec), rtol=0, atol=1e-14)
    # slash(v)^2 = v^2 1, with v^2 from the complex vector
    square = np.einsum('...ab,...bc->...ac', complex_slash(vec), complex_slash(vec))
    assert np.allclose(square, minkowski(vec, vec)[..., None, None] * IDENTITY4, atol=1e-12)
    assert np.allclose(got @ got, square, atol=1e-12)


def test_current_matches_bilinear():
    # every (bar, leg) helicity pair of u and v spinors, against the complex
    # bilinear ubar gamma^mu u' with the imaginary y component restored
    m = 0.51099895
    p1, theta1, _, _ = random_onshell(m, n=4)
    p2, theta2, _, _ = random_onshell(m, n=4)
    for build in (u_batch, v_batch):
        left = np.stack([build(m, p1, theta1, h) for h in "LR"], axis=1)
        right = np.stack([u_batch(m, p2, theta2, h) for h in "LR"], axis=1)
        j = current_batch(left, right)
        assert j.dtype == float and j.shape == (4, 2, 2, 4)
        for i in range(2):
            for k in range(2):
                want = np.stack([sandwich(left[:, i], GAMMA[mu], right[:, k])
                                 for mu in range(4)], axis=-1)
                assert np.allclose(complex_vector(j[:, i, k]), want, atol=1e-12)
