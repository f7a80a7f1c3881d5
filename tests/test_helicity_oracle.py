"""The independent helicity-amplitude oracle against `helicity_amplitudes_batch`.

The oracle (`helicity_oracle.py`) fixes its spinor and polarization phases
differently, so the two amplitude matrices are compared through rephasing
invariants: |M_ij| and the plaquettes M_ij M_kl M*_il M*_kj, both normalised
to the largest |M_ij|, plus the overall scale sum |M_ij|^2.
"""
import ast
import math
import pathlib

import numpy as np
import pytest

import helicity_oracle as oracle
from qedtangle.amplitudes import helicity_amplitudes_batch
from qedtangle.kinematics import ProcessKind
from qedtangle.scan import _states, parse_initial

#: points where the acceptance criteria lean on the oracle, forward Moller
#: points where t is far below p^2 and m^2, and low-p elastic points where
#: q = p must come out without cancellation
EXTRA_POINTS = {
    ProcessKind.MOLLER: [(0.01, 1e-3), (3.0, 1e-5), (1e-3, 1.0)],
    ProcessKind.BHABHA: [(0.321, math.pi), (1e-3, 1.0)],
    ProcessKind.ELECTRON_MUON: [(1e-3, 1.0), (1e-4, 2.0)],
    ProcessKind.COMPTON: [(1e4, math.pi - 0.01)],
    ProcessKind.ANNIHILATION: [(1e3, 0.01)],
}


def _invariants(amp):
    m = amp / np.max(np.abs(amp), axis=(1, 2))[:, None, None]
    plaquettes = np.einsum('nij,nkl,nil,nkj->nijkl', m, m, m.conj(), m.conj())
    return np.abs(m), plaquettes


def _points(proc, n=20):
    rng = np.random.default_rng(list(ProcessKind).index(proc) + 1)
    lo, hi = (110.0, 5000.0) if proc is ProcessKind.MUON_PAIR else (0.05, 50.0)
    p = list(rng.uniform(lo, hi, n))
    theta = list(rng.uniform(0.05, 2 * math.pi - 0.05, n))
    for p_x, theta_x in EXTRA_POINTS.get(proc, []):
        p.append(p_x)
        theta.append(theta_x)
    return np.array(p), np.array(theta)


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_oracle_matches_program_up_to_rephasing(proc):
    p, theta = _points(proc)
    got, _, div = helicity_amplitudes_batch(proc, p, theta)
    assert not div.any()
    want = oracle.amplitudes(proc.value, p, theta)
    got_abs, got_plaq = _invariants(got)
    want_abs, want_plaq = _invariants(want)
    assert np.max(np.abs(got_abs - want_abs)) <= 2e-13
    assert np.max(np.abs(got_plaq - want_plaq)) <= 2e-13
    # with complex gamma^2 and complex photon vectors the oracle's plaquettes
    # still come out real, which is why the package may compute in real
    # arithmetic (its amplitudes are real in its own phase convention)
    assert np.max(np.abs(want_plaq.imag)) <= 2e-13
    scale_got = np.sum(np.abs(got) ** 2, axis=(1, 2))
    scale_want = np.sum(np.abs(want) ** 2, axis=(1, 2))
    assert np.allclose(scale_got, scale_want, rtol=1e-10, atol=0.0)


#: angles at the edges of a turn and outside [0, 2 pi), one point per call
EDGE_THETAS = (1e-7, math.pi - 1e-7, math.pi + 1e-7, 2 * math.pi - 1e-7, -1.0, 7.0)


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_oracle_matches_single_points_at_edge_angles(proc):
    # N = 1 calls, the per-call path of `qedtangle point` and the bisection;
    # near a photon-propagator pole the matrix is large but still compared
    p = 300.0 if proc is ProcessKind.MUON_PAIR else 0.7
    got = np.concatenate([helicity_amplitudes_batch(proc, np.array([p]), np.array([theta]))[0]
                          for theta in EDGE_THETAS])
    want = oracle.amplitudes(proc.value, np.full(len(EDGE_THETAS), p), np.array(EDGE_THETAS))
    got_abs, got_plaq = _invariants(got)
    want_abs, want_plaq = _invariants(want)
    assert np.max(np.abs(got_abs - want_abs)) <= 2e-13
    assert np.max(np.abs(got_plaq - want_plaq)) <= 2e-13
    scale_got = np.sum(np.abs(got) ** 2, axis=(1, 2))
    scale_want = np.sum(np.abs(want) ** 2, axis=(1, 2))
    assert np.allclose(scale_got, scale_want, rtol=1e-10, atol=0.0)


#: offsets [rad] from the rays theta = 0 and pi, on both sides and one turn
#: further, and the momenta [MeV] at which the scan's state stage meets them
RAY_OFFSETS = (2e-9, 1e-8, 1e-6, 1e-4)
RAY_MOMENTA = (1e-4, 1e-2, 1.0, 100.0)
#: momenta [MeV] far below the electron mass, at generic angles
LOW_MOMENTUM = {ProcessKind.MOLLER: 1e-7, ProcessKind.BHABHA: 1e-7,
                ProcessKind.ELECTRON_MUON: 1e-5}


@pytest.mark.parametrize("initial", ["unpolarized", "ll"])
@pytest.mark.parametrize("proc", sorted(LOW_MOMENTUM, key=lambda proc: proc.value))
def test_pt_spectra_match_the_oracle_near_every_pole_ray(proc, initial):
    # every point outside the 1e-9 rad pole window is ok, at any p, and its
    # PT spectrum is the oracle's. Both inputs are diagonal and phase-free
    # (rho = D rho D+ for any diagonal phase matrix D), so the spectra do not
    # depend on either side's phase convention
    rho_in = parse_initial(initial).density.entries
    near = [ray + sign * offset + turn for ray in (0.0, math.pi) for sign in (-1.0, 1.0)
            for offset in RAY_OFFSETS for turn in (0.0, 2 * math.pi)]
    generic = np.linspace(0.3, 2 * math.pi - 0.3, 12)
    points = [(np.full(len(near), p), np.array(near)) for p in RAY_MOMENTA]
    points.append((np.full(generic.size, LOW_MOMENTUM[proc]), generic))
    for p, theta in points:
        state, status = _states(proc, p, theta, rho_in)
        assert not status.any(), (p[0], theta[status != 0])     # 0: ok
        want = oracle.pt_eigenvalues(oracle.states(proc.value, p, theta, rho_in))
        assert np.max(np.abs(oracle.pt_eigenvalues(state) - want)) <= 4e-15


def test_oracle_spinors_and_polarizations():
    rng = np.random.default_rng(7)
    vec = rng.normal(size=(8, 3)) * np.array([[3.0], [0.2], [40.0], [1e4],
                                             [1.0], [0.01], [7.0], [5e2]])
    for mass in (oracle.M_E, oracle.M_MU):
        leg = oracle.Leg(mass, vec)
        pslash = oracle.slash(leg.four())
        hel_op = np.einsum('ni,iab->nab', leg.hat, oracle._PAULI)
        for hel, sign in (("L", -1), ("R", 1)):
            u = oracle.u_spinor(leg, hel)
            v = oracle.v_spinor(leg, hel)
            scale = leg.e[:, None]
            # Dirac equations, normalisation, helicity of both two-spinor halves
            assert np.max(np.abs(np.einsum('nab,nb->na', pslash, u) - mass * u) / scale) < 1e-12
            assert np.max(np.abs(np.einsum('nab,nb->na', pslash, v) + mass * v) / scale) < 1e-12
            ubar_u = np.einsum('na,na->n', u.conj() @ oracle.GAMMA[0], u)
            vbar_v = np.einsum('na,na->n', v.conj() @ oracle.GAMMA[0], v)
            assert np.allclose(ubar_u, 2 * mass) and np.allclose(vbar_v, -2 * mass)
            for spinor, h in ((u, sign), (v, -sign)):
                halves = spinor.reshape(-1, 2, 2)
                assert np.allclose(np.einsum('nab,ncb->nca', hel_op, halves), h * halves)
    photon = oracle.Leg(0.0, vec)
    for hel, lam in (("L", -1), ("R", 1)):
        eps = oracle.polarization(photon, hel)
        eps3 = eps[:, 1:]
        assert np.allclose(eps[:, 0], 0.0)
        assert np.allclose(1j * np.cross(photon.hat, eps3), lam * eps3)
        assert np.allclose(np.einsum('ni,ni->n', eps3.conj(), eps3), 1.0)
        assert np.allclose(np.einsum('ni,ni->n', photon.hat, eps3), 0.0)


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.split(".")[0] == "qedtangle" for name in imported)
